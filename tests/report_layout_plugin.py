"""pytest plugin: check the layout of every report that tests/test_cli.py writes.

While it is loaded, each ``python -m maxplus.cli`` call made through
``subprocess.run`` runs in-process through ``cli.main`` instead, and every
report it writes on stdout or to ``--output`` must equal
``json.dumps(json.loads(text), sort_keys=True, indent=2) + "\\n"``.
test_report_layout.py runs it as

    python -m pytest -p report_layout_plugin tests/test_cli.py

with tests/ on PYTHONPATH.
"""

import contextlib
import io
import json
import subprocess
import sys

from maxplus import cli

_CLI = [sys.executable, "-m", "maxplus.cli"]
_real_run = subprocess.run
checked = []


def _check(text: str, source: str) -> None:
    expected = json.dumps(json.loads(text), sort_keys=True, indent=2) + "\n"
    assert text == expected, f"report layout differs from json.dumps: {source}"
    checked.append(source)


def _run_in_process(args, *rest, **kw):
    if list(args[:3]) != _CLI:
        return _real_run(args, *rest, **kw)
    argv = [str(a) for a in args[3:]]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    if code == 0:
        if out.getvalue():
            _check(out.getvalue(), " ".join(argv))
        if "--output" in argv:
            with open(argv[argv.index("--output") + 1]) as fh:
                _check(fh.read(), " ".join(argv))
    return subprocess.CompletedProcess(args, code, out.getvalue(), err.getvalue())


def pytest_configure(config):
    subprocess.run = _run_in_process


def pytest_unconfigure(config):
    subprocess.run = _real_run


def pytest_terminal_summary(terminalreporter):
    terminalreporter.write_line(f"reports checked: {len(checked)}")
