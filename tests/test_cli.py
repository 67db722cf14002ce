import csv
import json
import subprocess
import sys

import pytest

import maxplus


def run_cli(*args):
    proc = subprocess.run(
        [sys.executable, "-m", "maxplus.cli", *args],
        capture_output=True,
        text=True,
    )
    return proc


def write(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


@pytest.fixture
def two_node_matrix(tmp_path):
    return write(tmp_path / "m.json", {"k": 2, "entries": [[0, -1], [-1, 0]]})


@pytest.fixture
def ring_dist(tmp_path):
    # two service draws on a 3-queue ring, one with a strict bottleneck
    return write(
        tmp_path / "d.json",
        {
            "kind": "finite",
            "k": 3,
            "backing": "exact",
            "support": [
                {
                    "matrix": {"k": 3, "entries": [[2, "-inf", 2], [1, 1, "-inf"], ["-inf", 1, 1]]},
                    "probability": "1/2",
                },
                {
                    "matrix": {"k": 3, "entries": [[1, "-inf", 1], [1, 1, "-inf"], ["-inf", 1, 1]]},
                    "probability": "1/2",
                },
            ],
        },
    )


@pytest.fixture
def x0_files(tmp_path):
    a = write(tmp_path / "a.json", {"entries": [0, 0, 0]})
    b = write(tmp_path / "b.json", {"entries": [0, 5, 2]})
    return a, b


class TestEnvelope:
    def test_report_embeds_config_and_version(self, two_node_matrix):
        proc = run_cli("spectral", "--input", two_node_matrix)
        assert proc.returncode == 0
        report = json.loads(proc.stdout)
        assert report["command"] == "spectral"
        assert report["version"] == maxplus.__version__
        assert report["config"]["input"] == two_node_matrix
        assert report["result"]["eigenvalue"] == 0
        assert report["result"]["eigenbasis"] == [[0, -1], [-1, 0]]
        assert report["result"]["scs1cyc1"] is False

    def test_output_flag_writes_file(self, two_node_matrix, tmp_path):
        out = tmp_path / "report.json"
        proc = run_cli("spectral", "--input", two_node_matrix, "--output", str(out))
        assert proc.returncode == 0 and proc.stdout == ""
        assert json.loads(out.read_text())["command"] == "spectral"

    def test_verbose_summary_on_stderr(self, two_node_matrix):
        proc = run_cli("spectral", "--input", two_node_matrix, "-v")
        assert "eigenvalue" in proc.stderr

    def test_byte_stable_repeat_runs(self, ring_dist):
        args = ("lyapunov", "--dist", ring_dist, "--horizon", "50", "--replications", "4", "--seed", "3")
        assert run_cli(*args).stdout == run_cli(*args).stdout

    def test_threads_do_not_change_result(self, ring_dist):
        base = ("lyapunov", "--dist", ring_dist, "--horizon", "50", "--replications", "4", "--seed", "3")
        r1 = json.loads(run_cli(*base, "--threads", "1").stdout)
        r4 = json.loads(run_cli(*base, "--threads", "4").stdout)
        assert r1["result"] == r4["result"]


class TestExitCodes:
    def test_malformed_json_is_input_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{broken")
        proc = run_cli("spectral", "--input", str(bad))
        assert proc.returncode == 2
        err = json.loads(proc.stderr.splitlines()[-1])
        assert err["error"]["type"] == "input"

    def test_missing_file_is_input_error(self):
        proc = run_cli("spectral", "--input", "/nonexistent.json")
        assert proc.returncode == 2

    def test_missing_required_seed_is_usage_error(self, ring_dist):
        proc = run_cli("lyapunov", "--dist", ring_dist, "--horizon", "10")
        assert proc.returncode == 2

    def test_reducible_matrix_is_contract_violation(self, tmp_path):
        m = write(tmp_path / "r.json", {"k": 2, "entries": [[0, "-inf"], [0, 0]]})
        proc = run_cli("spectral", "--input", m)
        assert proc.returncode == 3
        err = json.loads(proc.stderr.splitlines()[-1])
        assert err["error"]["type"] == "contract"

    def test_exhausted_power_budget_is_budget_error(self, two_node_matrix):
        proc = run_cli("power", "--input", two_node_matrix, "--max-power", "0")
        assert proc.returncode == 4
        err = json.loads(proc.stderr.splitlines()[-1])
        assert err["error"]["type"] == "budget"

    def test_dimension_mismatch_is_contract_violation(self, ring_dist, tmp_path):
        x0 = write(tmp_path / "short.json", {"entries": [0, 0]})
        proc = run_cli("simulate", "--dist", ring_dist, "--x0", x0, "--horizon", "3", "--seed", "0")
        assert proc.returncode == 3

    @pytest.mark.parametrize("bad, backing", [("abc", "exact"), ("1/0", "exact"), ("1e400", "float")])
    def test_bad_scalar_string_is_contract_violation(self, tmp_path, bad, backing):
        m = write(tmp_path / "bad.json", {"k": 2, "entries": [[0, bad], [0, 0]]})
        proc = run_cli("spectral", "--input", m, "--backing", backing)
        assert proc.returncode == 3
        assert "Traceback" not in proc.stderr
        err = json.loads(proc.stderr.splitlines()[-1])
        assert err["error"]["type"] == "contract"
        assert bad in err["error"]["message"]


    @pytest.mark.parametrize(
        "command, obj",
        [
            ("model", {"queues": "abc", "law": {"uniform": {"low": 0, "high": 1}}}),
            ("model", {"queues": 2, "law": {"uniform": {"low": "x", "high": 1}}}),
            ("dist", {"kind": "finite", "backing": "exact", "support": [{"probability": 1}]}),
            ("dist", {"kind": "finite", "backing": "exact", "support": [
                {"matrix": {"k": 1, "entries": [[0]]}, "probability": "abc"}]}),
            ("dist", {"kind": "generator", "name": "shared_uniform_diagonal", "params": {}}),
            ("dist", {"kind": "generator", "name": "cjn_uniform",
                      "params": {"queues": 2, "high": "x"}}),
        ],
    )
    def test_malformed_value_is_contract_violation(self, tmp_path, command, obj):
        path = write(tmp_path / "in.json", obj)
        if command == "model":
            proc = run_cli("model", "cjn", "--spec", path)
        else:
            proc = run_cli("lyapunov", "--dist", path, "--horizon", "3", "--seed", "0")
        assert proc.returncode == 3
        assert "Traceback" not in proc.stderr
        assert json.loads(proc.stderr)["error"]["type"] == "contract"


class TestInProcess:
    def test_repeated_main_calls_match_fresh_runs(self, ring_dist, x0_files, two_node_matrix,
                                                  tmp_path):
        """main() reuses one parser: each call still parses into a fresh
        namespace, so a call sees no value of the one before it."""
        from maxplus import cli

        a, b = x0_files
        couple = ["couple", "--dist", ring_dist, "--horizon", "20", "--seed", "1"]
        runs = [
            couple + ["--x0", a, "--x0", b],
            ["spectral", "--input", two_node_matrix, "--transient"],
            couple + ["--x0", b, "--x0", a, "--x0", a, "--replications", "2"],
            ["spectral", "--input", two_node_matrix],
        ]
        for i, argv in enumerate(runs):
            argv = argv + ["--output", str(tmp_path / f"out{i}.json")]
            assert cli.main(argv) == 0
            in_process = (tmp_path / f"out{i}.json").read_text()
            assert run_cli(*argv).returncode == 0
            assert (tmp_path / f"out{i}.json").read_text() == in_process
        config = json.loads((tmp_path / "out2.json").read_text())["config"]
        assert config["x0"] == [b, a, a]
        assert json.loads((tmp_path / "out3.json").read_text())["config"]["transient"] is False

    TWO_TASKS = {"k": 2, "subsets": [{"masks": [3], "probs": [1]}, {"masks": [3], "probs": [1]}]}

    @pytest.mark.parametrize(
        "argv, files",
        [
            (["model", "taskgraph", "--spec", "spec"], {"spec": {"k": 2, "subsets": 5}}),
            (["model", "taskgraph", "--spec", "spec"],
             {"spec": {"k": 1, "subsets": [{"masks": 1, "probs": [1]}]}}),
            (["model", "cjn", "--spec", "spec"],
             {"spec": {"queues": 2, "law": {"joint": {"atoms": [[1, 1]], "probs": 1}}}}),
            (["model", "cjn", "--spec", "spec"],
             {"spec": {"queues": 2, "law": {"per_queue": {"values": 3, "probs": [[1], [1]]}}}}),
            (["model", "taskgraph", "--spec", "spec", "--backing", "float"],
             {"spec": {**TWO_TASKS, "duration": [1]}}),
            (["simulate", "--dist", "dist", "--x0", "x0", "--horizon", "3", "--seed", "0"],
             {"dist": {"kind": "generator", "name": "shared_uniform_diagonal",
                       "params": {"k": 3}},
              "x0": {"entries": [[1], 0, 0]}}),
        ],
    )
    def test_misshapen_value_is_contract_violation(self, tmp_path, capsys, argv, files):
        """A number where an array belongs, or an array where a number
        belongs, is a contract error and not a TypeError."""
        from maxplus import cli

        paths = {name: write(tmp_path / f"{name}.json", obj) for name, obj in files.items()}
        assert cli.main([paths.get(a, a) for a in argv]) == 3
        assert json.loads(capsys.readouterr().err)["error"]["type"] == "contract"


class TestFloatBacking:
    def test_float_matrix_analysed_exactly(self, tmp_path):
        # In float arithmetic lambda(Abar) comes out near 1e-16 for this
        # matrix, so only an exact analysis finds Abar normalized.
        m = write(
            tmp_path / "m.json",
            {"k": 3, "entries": [["-1", "1/3", "2/3"], ["1/3", "2/3", "-5/3"], ["0", "2", "-2"]]},
        )
        proc = run_cli("spectral", "--input", m, "--backing", "float")
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout)["result"]
        assert result["eigenvalue"] == 1.0
        assert result["critical_nodes"] == [0, 1, 2]
        assert result["cyclicity"] == 3
        assert result["eigenbasis"] == [[-0.33333333333333337, -1.0, 0.0]]

    def test_float_report_golden(self, tmp_path):
        # Pins one float report, value for value.
        m = write(
            tmp_path / "m.json",
            {
                "k": 4,
                "entries": [
                    ["-6", "-1", "-inf", "-inf"],
                    ["-1", "1", "-4/3", "-1/3"],
                    ["-4", "-inf", "1", "5/3"],
                    ["-2", "-6", "-4", "2/3"],
                ],
            },
        )
        proc = run_cli("spectral", "--input", m, "--backing", "float")
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["result"] == {
            "eigenvalue": 1.0,
            "critical_nodes": [1, 2],
            "critical_arcs": [[1, 1], [2, 2]],
            "critical_scc_count": 2,
            "cyclicity": 1,
            "scs1cyc1": False,
            "eigenbasis": [
                [-2.0, 0.0, -4.333333333333333, -5.0],
                [-4.333333333333333, -2.333333333333333, 0.0, -5.0],
            ],
            "transient": None,
        }


class TestStochasticCommands:
    def test_simulate_with_csv(self, ring_dist, x0_files, tmp_path):
        out_csv = tmp_path / "traj.csv"
        proc = run_cli(
            "simulate", "--dist", ring_dist, "--x0", x0_files[0],
            "--horizon", "10", "--seed", "5", "--csv", str(out_csv),
        )
        assert proc.returncode == 0
        report = json.loads(proc.stdout)
        assert len(report["result"]["states"]) == 11
        with open(out_csv) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["n", "x_0", "x_1", "x_2"]
        assert len(rows) == 12

    def test_simulate_cjn_columns(self, ring_dist, x0_files):
        proc = run_cli(
            "simulate", "--dist", ring_dist, "--x0", x0_files[0],
            "--horizon", "6", "--seed", "5", "--cjn-columns", "physical",
        )
        result = json.loads(proc.stdout)["result"]
        assert len(result["idle"]) == 6
        assert len(result["waiting"]) == 6

    def test_couple_reports_certified_windows(self, ring_dist, x0_files, tmp_path):
        hist = tmp_path / "times.csv"
        proc = run_cli(
            "couple", "--dist", ring_dist, "--x0", x0_files[0], "--x0", x0_files[1],
            "--horizon", "100", "--seed", "1", "--replications", "5", "--csv", str(hist),
        )
        assert proc.returncode == 0
        result = json.loads(proc.stdout)["result"]
        assert result["modes"] == ["strong", "eta"]
        assert all(s["merge_time"] is not None for s in result["samples"])
        with open(hist) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["replication", "merge_time", "eta_time", "window_start", "window_length"]
        assert len(rows) == 6

    def test_loynes_trace_csv(self, ring_dist, tmp_path):
        trace = tmp_path / "trace.csv"
        proc = run_cli(
            "loynes", "--dist", ring_dist, "--seed", "3", "--budget", "500",
            "--csv", str(trace),
        )
        assert proc.returncode == 0
        result = json.loads(proc.stdout)["result"]
        assert result["converged"] is True
        with open(trace) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["n", "diameter"]

    def test_loynes_budget_exhaustion_is_partial_not_error(self, tmp_path):
        swap = write(
            tmp_path / "swap.json",
            {
                "kind": "finite",
                "k": 2,
                "backing": "exact",
                "support": [
                    {"matrix": {"k": 2, "entries": [["-inf", 0], [0, "-inf"]]}, "probability": 1}
                ],
            },
        )
        proc = run_cli("loynes", "--dist", swap, "--seed", "0", "--budget", "5")
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["result"]["converged"] is False

    def test_patterns_and_conditions_and_stability(self, ring_dist):
        pat = json.loads(run_cli("patterns", "--dist", ring_dist).stdout)["result"]
        assert pat["found"] is True
        cond = json.loads(run_cli("conditions", "--dist", ring_dist).stdout)["result"]
        assert cond["condition_i"] is True and cond["condition_ii"] is True
        stab = json.loads(run_cli("stability", "--dist", ring_dist, "--seed", "7").stdout)["result"]
        assert stab["verdict"] == "StableStrong"

    def test_open_system_two_block(self, tmp_path):
        dist = write(
            tmp_path / "open.json",
            {
                "kind": "finite",
                "k": 2,
                "backing": "exact",
                "support": [
                    {"matrix": {"k": 2, "entries": [[1, "-inf"], [0, 2]]}, "probability": 1}
                ],
            },
        )
        proc = run_cli(
            "open-system", "--dist", dist, "--horizon", "500",
            "--replications", "2", "--seed", "9",
        )
        result = json.loads(proc.stdout)["result"]
        assert result["two_block"] == "differences diverge"


class TestModelPipeline:
    def test_emitted_distribution_feeds_other_commands(self, tmp_path):
        spec = write(
            tmp_path / "spec.json",
            {
                "queues": 3,
                "customers": 3,
                "law": {"joint": {"atoms": [[3, 1, 1], [1, 1, 1]], "probs": ["1/2", "1/2"]}},
            },
        )
        dist_file = tmp_path / "dist.json"
        proc = run_cli("model", "cjn", "--spec", spec, "--output", str(dist_file))
        assert proc.returncode == 0
        emitted = json.loads(dist_file.read_text())
        assert emitted["result"]["cjn_stability_condition"]["holds"] is True

        stab = run_cli("stability", "--dist", str(dist_file), "--seed", "7")
        assert stab.returncode == 0
        assert json.loads(stab.stdout)["result"]["verdict"] == "StableStrong"

    def test_markov_transition_below_the_smallest_double(self, tmp_path):
        # 10**-400 is 0.0 as a double, but the transition is possible
        tiny = 10**400
        dist = write(tmp_path / "tiny.json", {
            "kind": "finite", "k": 2, "backing": "exact",
            "support": [
                {"matrix": {"k": 2, "entries": [[0, "-inf"], ["-inf", 0]]}, "probability": "1/2"},
                {"matrix": {"k": 2, "entries": [[0, 0], [0, 0]]}, "probability": "1/2"},
            ],
            "kernel": [[f"{tiny - 1}/{tiny}", f"1/{tiny}"], ["1/2", "1/2"]],
        })
        results = {}
        for cmd, *extra in (("patterns",), ("conditions",), ("stability", "--seed", "7")):
            proc = run_cli(cmd, "--dist", dist, *extra)
            assert proc.returncode == 0, proc.stderr
            results[cmd] = json.loads(proc.stdout)["result"]
        assert (results["patterns"]["status"], results["patterns"]["word"]) == ("found", [1])
        assert (results["conditions"]["condition_ii"], results["conditions"]["witness"]) == (True, [1])
        assert results["stability"]["basis"] == "stationary-rank-one-pattern"
        assert results["stability"]["certificate"]["word"] == [1]

    @pytest.mark.parametrize(
        "kind, spec",
        [
            ("cjn", {"queues": 3}),
            ("cjn", {"law": {"joint": {"atoms": [[1, 1]], "probs": [1]}}}),
            ("cjn", {"queues": 2, "law": {"joint": {"atoms": [[1, 1]]}}}),
            ("taskgraph", {"k": 2}),
            ("taskgraph", {"k": 1, "subsets": [{"masks": [1]}]}),
        ],
    )
    def test_missing_spec_key_is_contract_violation(self, tmp_path, kind, spec):
        proc = run_cli("model", kind, "--spec", write(tmp_path / "spec.json", spec))
        assert proc.returncode == 3
        assert json.loads(proc.stderr)["error"]["type"] == "contract"

    def test_taskgraph_model(self, tmp_path):
        spec = write(
            tmp_path / "tg.json",
            {
                "k": 2,
                "subsets": [{"masks": [3], "probs": [1]}, {"masks": [3], "probs": [1]}],
                "duration": 1,
            },
        )
        proc = run_cli("model", "taskgraph", "--spec", spec)
        assert proc.returncode == 0
        result = json.loads(proc.stdout)["result"]
        assert result["kind"] == "finite" and result["k"] == 2

    def test_uniform_taskgraph_feeds_other_commands(self, tmp_path):
        spec = write(
            tmp_path / "tg.json",
            {
                "k": 3,
                "subsets": [
                    {"masks": [3, 7], "probs": ["1/2", "1/2"]},
                    {"masks": [6], "probs": [1]},
                    {"masks": [5, 1], "probs": [0.25, 0.75]},
                ],
                "duration": {"uniform": {"low": 0.5, "high": 2}},
            },
        )
        dist = tmp_path / "dist.json"
        proc = run_cli("model", "taskgraph", "--spec", spec, "--output", str(dist))
        assert proc.returncode == 0
        assert json.loads(dist.read_text())["result"]["name"] == "taskgraph_uniform"
        x0 = write(tmp_path / "x0.json", [0, 1, 2])
        common = ["--dist", str(dist), "--seed", "5"]
        sim = run_cli("simulate", *common, "--x0", x0, "--horizon", "30")
        lya = run_cli("lyapunov", *common, "--horizon", "200", "--replications", "3")
        stab = run_cli("stability", *common, "--eta", "0.05", "--mc-seeds", "4",
                       "--mc-budget", "300")
        for p in (sim, lya, stab):
            assert p.returncode == 0, p.stderr
        assert len(json.loads(sim.stdout)["result"]["increments"]) == 30
        assert 0.5 <= json.loads(lya.stdout)["result"]["point"] <= 2 * 3
        assert json.loads(stab.stdout)["result"]["basis"] in (
            "backward-diameter-evidence", "insufficient-evidence")
        assert run_cli("simulate", *common, "--x0", x0, "--horizon", "30").stdout == sim.stdout


class TestDistributionKeys:
    def test_readme_dependence_form_is_contract_violation(self, ring_dist, tmp_path):
        # this form was once documented, and was read as iid
        with open(ring_dist) as fh:
            obj = json.load(fh)
        obj["dependence"] = {"markov": {"kernel": [["1/2", "1/2"], ["1/2", "1/2"]]}}
        proc = run_cli("stability", "--dist", write(tmp_path / "old.json", obj), "--seed", "7")
        assert proc.returncode == 3
        assert "Traceback" not in proc.stderr
        err = json.loads(proc.stderr)["error"]
        assert err["type"] == "contract" and "dependence" in err["message"]

    def test_top_level_kernel_is_markov(self, ring_dist, tmp_path):
        with open(ring_dist) as fh:
            obj = json.load(fh)
        obj["kernel"] = [["1/2", "1/2"], ["1/2", "1/2"]]
        proc = run_cli("stability", "--dist", write(tmp_path / "markov.json", obj), "--seed", "7")
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["result"]["basis"] == "stationary-rank-one-pattern"

    @pytest.mark.parametrize(
        "kind, spec",
        [
            ("cjn", {"queues": 2, "customers": 2,
                     "law": {"joint": {"atoms": [[2, 1], [1, 1]], "probs": ["1/2", "1/2"]}}}),
            ("cjn", {"queues": 2, "customers": 3,
                     "law": {"per_queue": {"values": [[1, 2], [1]], "probs": [["1/2", 0.5], [1]]}}}),
            ("cjn", {"queues": 2, "customers": 2, "law": {"uniform": {"low": 0, "high": 1}}}),
            ("taskgraph", {"k": 2, "subsets": [{"masks": [3], "probs": [1]},
                                               {"masks": [1, 3], "probs": ["1/2", "1/2"]}],
                           "duration": "3/2"}),
            ("taskgraph", {"k": 2, "subsets": [{"masks": [3], "probs": [1]},
                                               {"masks": [3], "probs": [1]}],
                           "duration": {"uniform": {"low": 0, "high": 1}}}),
        ],
    )
    @pytest.mark.parametrize("backing", ["exact", "float"])
    def test_every_model_output_loads(self, tmp_path, kind, spec, backing):
        dist = tmp_path / "dist.json"
        proc = run_cli("model", kind, "--spec", write(tmp_path / "spec.json", spec),
                       "--backing", backing, "--output", str(dist))
        assert proc.returncode == 0, proc.stderr
        lya = run_cli("lyapunov", "--dist", str(dist), "--horizon", "5", "--seed", "0")
        assert lya.returncode == 0, lya.stderr
