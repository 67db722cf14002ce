"""Small helpers that only the tests use: max-plus powers of a scalar, the
all-eps matrix, the row-finiteness test, and two readings of a coupling
report."""

from maxplus.semiring import EPS, ContractViolation, Matrix, Scalar


def otimes_repeat(a: Scalar, n: int) -> Scalar:
    """n-fold otimes power of a scalar; n = 0 gives e by convention."""
    if n < 0:
        raise ContractViolation("negative otimes power")
    if n == 0:
        return 0
    if a is EPS:
        return EPS
    return a * n


def full_eps(k: int, backing: str) -> Matrix:
    return Matrix(tuple((EPS,) * k for _ in range(k)), backing)


def is_row_finite(A: Matrix) -> bool:
    return A.row_finite_violation() is None


def merge_times(report) -> list:
    """The merge time of each replication of a CouplingReport."""
    return [s.merge_time for s in report.samples]


def certified_fraction(report) -> float:
    """The share of a CouplingReport's replications with a rank-one window."""
    return sum(1 for s in report.samples if s.window_start is not None) / len(report.samples)
