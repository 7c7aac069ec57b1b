"""Command-line behavior: exit codes, files, determinism."""
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import pcons
from pcons.cli import main

EX2 = str(pcons.fixture_path("example2.json"))
QUAD = str(pcons.fixture_path("single_quadratic.json"))
SRC = str(Path(__file__).resolve().parent.parent / "src")


def _summary(path):
    out = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        key, _, value = line.partition(":")
        out[key] = value.strip()
    return out


class TestSolveCommand:
    def test_quadratic_converges(self, tmp_path, capsys):
        out = tmp_path / "run"
        code = main(["solve", QUAD, "--out", str(out)])
        assert code == 0
        assert (out / "trajectory.csv").is_file()
        summary = _summary(out / "summary.txt")
        assert summary["status"] == "kkt_converged"
        assert float(summary["objective"]) == pytest.approx(0.0, abs=1e-10)
        assert "kkt_converged" in capsys.readouterr().out

    def test_time_limit_exit_code(self, tmp_path):
        out = tmp_path / "run"
        code = main(["solve", EX2, "--t-max", "0.001", "--out", str(out)])
        assert code == 2
        assert _summary(out / "summary.txt")["status"] == "t_max"

    def test_example2_end_to_end(self, tmp_path):
        out = tmp_path / "run1"
        code = main(["solve", EX2, "--out", str(out)])
        assert code == 0
        summary = _summary(out / "summary.txt")
        assert summary["status"] == "kkt_converged"
        x = np.array([float(v) for v in summary["x"].split()])
        assert abs(x[0] - x[1]) <= 1e-6 and abs(x[0] - x[3]) <= 1e-6
        assert float(summary["consensus_spread"]) <= 1e-6
        assert float(summary["res_consensus"]) <= 1e-6
        header = (out / "trajectory.csv").read_text(encoding="utf-8").splitlines()[0]
        assert header.startswith("t,x_1,")
        assert header.endswith("objective,res_stationarity,res_consensus,"
                               "res_complementarity,res_feasibility")

    def test_decentralized_matches_centralized(self, tmp_path):
        central = tmp_path / "central"
        decentral = tmp_path / "decentral"
        assert main(["solve", EX2, "--out", str(central), "--record-every", "100"]) == 0
        assert main([
            "solve", EX2, "--decentralized", "--log-messages",
            "--out", str(decentral), "--record-every", "100",
        ]) == 0
        s1, s2 = _summary(central / "summary.txt"), _summary(decentral / "summary.txt")
        assert s1["x"] == s2["x"]
        assert s1["objective"] == s2["objective"]
        assert (central / "trajectory.csv").read_bytes() == (
            decentral / "trajectory.csv"
        ).read_bytes()
        messages = (decentral / "messages.csv").read_text(encoding="utf-8").splitlines()
        assert messages[0] == "round,sender,receiver,payload"
        assert len(messages) - 1 == int(s2["messages_total"])
        assert int(s2["messages_per_step"]) == 16

    def test_message_log_builds_no_message(self, tmp_path, monkeypatch):
        def refuse(**fields):
            raise AssertionError("a Message was built")

        monkeypatch.setattr(pcons.network, "Message", refuse)
        out = tmp_path / "dec"
        assert main(["solve", EX2, "--decentralized", "--log-messages", "--out", str(out)]) == 0
        digest = hashlib.sha256((out / "messages.csv").read_bytes()).hexdigest()
        assert digest == "e5549694a2aba4f35e454c0fc0a8829abe0dff4bcd598cca529bb6665196ec6b"

    def test_decentralized_trajectory_reference_hash(self, tmp_path):
        out = tmp_path / "dec"
        assert main(["solve", EX2, "--decentralized", "--out", str(out)]) == 0
        digest = hashlib.sha256((out / "trajectory.csv").read_bytes()).hexdigest()
        assert digest == "fcef8f9ccfd3ad0ba911a1e0048f9875419f41d8717a5113b87c897caff1062b"

    def test_deterministic_output(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["solve", QUAD, "--out", str(a)]) == 0
        assert main(["solve", QUAD, "--out", str(b)]) == 0
        assert (a / "trajectory.csv").read_bytes() == (b / "trajectory.csv").read_bytes()

    def test_random_init_seeded(self, tmp_path, monkeypatch):
        a = tmp_path / "a"
        assert main(["solve", QUAD, "--out", str(a), "--init", "random", "--seed", "7"]) == 0
        monkeypatch.setenv("PCONS_SEED", "7")
        b = tmp_path / "b"
        assert main(["solve", QUAD, "--out", str(b), "--init", "random"]) == 0
        assert (a / "trajectory.csv").read_bytes() == (b / "trajectory.csv").read_bytes()

    def test_init_file(self, tmp_path):
        init = tmp_path / "init.json"
        init.write_text(json.dumps({"x": [1.9]}), encoding="utf-8")
        out = tmp_path / "run"
        assert main(["solve", QUAD, "--out", str(out), "--init", str(init)]) == 0
        first_row = (out / "trajectory.csv").read_text(encoding="utf-8").splitlines()[1]
        assert first_row.split(",")[1] == "1.8999999999999999"

    def test_negative_zero_lambda_init_gives_the_same_bytes_in_both_modes(self, tmp_path):
        # lambda_3 and lambda_5 are not shared on example2 and never move
        init = tmp_path / "init.json"
        init.write_text(json.dumps({"lambda": [0.0, -0.0, -0.0, 0.0, -0.0]}), encoding="utf-8")
        runs = {}
        for mode in ("central", "decentral"):
            out = tmp_path / mode
            argv = ["solve", EX2, "--init", str(init), "--t-max", "0.01", "--out", str(out)]
            assert main(argv + (["--decentralized"] if mode == "decentral" else [])) == 2
            runs[mode] = (out / "trajectory.csv").read_bytes()
        assert runs["central"] == runs["decentral"]
        last = runs["central"].decode().splitlines()[-1].split(",")
        assert last[1 + 5 + 2] == "-0" and last[1 + 5 + 4] == "-0"


class TestOracleCommand:
    def test_reports_optimum(self, capsys):
        assert main(["oracle", EX2, "--grid", "0.001"]) == 0
        out = capsys.readouterr().out
        value = float(next(l for l in out.splitlines() if l.startswith("oracle value:")).split(":")[1])
        assert value == pytest.approx(0.75, abs=1e-9)

    def test_compare_gap(self, tmp_path, capsys):
        run = tmp_path / "run"
        assert main(["solve", EX2, "--out", str(run), "--record-every", "1000"]) == 0
        capsys.readouterr()
        assert main(["oracle", EX2, "--grid", "0.001", "--compare",
                     str(run / "summary.txt")]) == 0
        out = capsys.readouterr().out
        gap = float(next(l for l in out.splitlines() if l.startswith("gap")).split(":")[1])
        assert abs(gap) <= 5e-3

    def test_output_does_not_depend_on_the_stripe_count(self, tmp_path, capsys, monkeypatch):
        summary = tmp_path / "summary.txt"
        summary.write_text("objective: 0.7500123\n", encoding="utf-8")
        argv = ["oracle", EX2, "--grid", "5e-4", "--refine", "2", "--compare", str(summary)]
        outs = []
        for cpus in (1, 2):
            monkeypatch.setattr(pcons.oracle, "_usable_cpus", lambda: cpus)
            assert main(argv) == 0
            outs.append(capsys.readouterr().out)
        assert "gap (solver - oracle):" in outs[0]
        assert outs[1] == outs[0]

    def test_single_agent(self, capsys):
        assert main(["oracle", QUAD, "--grid", "0.001"]) == 0
        out = capsys.readouterr().out
        assert "oracle value: 0" in out

    @pytest.mark.parametrize("argv, reason", [
        (["--grid", "nan"], "grid step must be finite and positive"),
        (["--grid", "inf"], "grid step must be finite and positive"),
        (["--refine", "-3"], "refine must be an integer >= 0"),
        (["--grid", "1e-300"], "grid too fine"),
    ])
    def test_oracle_rejects_bad_grid_and_refine(self, argv, reason, capsys):
        assert main(["oracle", EX2, *argv]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and reason in err

    def test_oracle_rejects_refine_past_the_normal_floats(self, capsys, recwarn):
        assert main(["oracle", EX2, "--grid", "1e-2", "--refine", "330"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: refine 330 is too deep for grid 0.01")
        assert not recwarn.list


class TestErrorPaths:
    def test_usage_error(self, capsys):
        assert main(["solve"]) == 1
        assert main(["frobnicate"]) == 1
        capsys.readouterr()

    def test_missing_file_is_io_error(self, tmp_path, capsys):
        assert main(["solve", str(tmp_path / "nope.json")]) == 4
        capsys.readouterr()

    def test_malformed_json(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json", encoding="utf-8")
        assert main(["solve", str(bad)]) == 1
        capsys.readouterr()

    def test_divergent_run_exit_code(self, tmp_path, capsys):
        doc = {
            "agents": [{"dim": 1, "objective": "(x1 - 1.5)^2"}],
            "laplacian": [[0]],
            "consensus_depth": 1,
            "init": {"x": [1e13]},
        }
        path = tmp_path / "far.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        out = tmp_path / "run"
        assert main(["solve", str(path), "--out", str(out)]) == 3
        assert _summary(out / "summary.txt")["status"] == "diverged"
        capsys.readouterr()

    def test_nonconvex_expression(self, tmp_path, capsys):
        doc = {
            "agents": [{"dim": 1, "objective": "(x1 - 1)^3"}],
            "laplacian": [[0]],
            "consensus_depth": 1,
        }
        path = tmp_path / "cubed.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["solve", str(path)]) == 1
        assert "non-convex" in capsys.readouterr().err

    def test_init_file_of_wrong_length(self, tmp_path, capsys):
        init = tmp_path / "init.json"
        init.write_text(json.dumps({"x": [1.5, 1.5]}), encoding="utf-8")
        out = tmp_path / "run"
        assert main(["solve", EX2, "--out", str(out), "--init", str(init)]) == 1
        assert "init.x must have length 5" in capsys.readouterr().err
        assert not (out / "trajectory.csv").exists()

    def test_init_file_with_non_finite_entry(self, tmp_path, capsys):
        init = tmp_path / "init.json"
        init.write_text('{"x": [1.5, NaN, 1.5, 1.5, 1.5]}', encoding="utf-8")
        assert main(["solve", EX2, "--out", str(tmp_path / "run"), "--init", str(init)]) == 1
        assert "non-finite" in capsys.readouterr().err

    def test_non_integer_seed_variable(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("PCONS_SEED", "abc")
        assert main(["solve", EX2, "--out", str(tmp_path / "run"), "--init", "random"]) == 1
        assert capsys.readouterr().err.startswith("error: PCONS_SEED must be an integer")

    def test_compare_summary_without_a_number(self, tmp_path, capsys):
        summary = tmp_path / "summary.txt"
        summary.write_text("objective: abc\n", encoding="utf-8")
        assert main(["oracle", EX2, "--grid", "0.01", "--compare", str(summary)]) == 1
        assert "error: 'objective:' in" in capsys.readouterr().err

    def test_compare_summary_is_read_before_the_search(self, tmp_path, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the grid search ran")

        monkeypatch.setattr(pcons.cli, "brute_force_solve", refuse)
        summary = tmp_path / "summary.txt"
        summary.write_text("objective: abc\n", encoding="utf-8")
        assert main(["oracle", EX2, "--grid", "0.01", "--compare", str(summary)]) == 1
        assert "oracle value:" not in capsys.readouterr().out

    def test_module_entry_point_reports_a_malformed_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"agents": 5, "laplacian": [[0]], "consensus_depth": 1}),
                        encoding="utf-8")
        pythonpath = os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")])
        done = subprocess.run(
            [sys.executable, "-m", "pcons.cli", "solve", str(path), "--out", str(tmp_path / "run")],
            capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": pythonpath},
        )
        assert done.returncode == 1
        assert done.stderr.startswith("error: ") and "Traceback" not in done.stderr

    def test_non_finite_settings(self, tmp_path, capsys):
        for flag in ("--h", "--t-max", "--kkt-tol"):
            argv = ["solve", QUAD, "--out", str(tmp_path / "run"), flag, "nan"]
            assert main(argv) == 1
            assert "must be finite and positive" in capsys.readouterr().err


class TestOneErrorLine:
    """Inputs that printed a Python traceback: each is one ``error:`` line
    and exit code 1."""

    @staticmethod
    def assert_one_error(capsys, argv, message):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert message in err

    @pytest.fixture
    def latin1(self, tmp_path):
        path = tmp_path / "latin1.json"
        path.write_bytes('{"x": [1.5], "name": "café"}'.encode("latin-1"))
        return str(path)

    def test_problem_file_that_is_not_utf8(self, tmp_path, capsys, latin1):
        self.assert_one_error(capsys, ["solve", latin1, "--out", str(tmp_path / "run")],
                              "is not UTF-8 text")
        self.assert_one_error(capsys, ["oracle", latin1], "is not UTF-8 text")

    def test_init_file_that_is_not_utf8(self, tmp_path, capsys, latin1):
        out = tmp_path / "run"
        self.assert_one_error(capsys, ["solve", EX2, "--out", str(out), "--init", latin1],
                              "--init file")
        assert not (out / "trajectory.csv").exists()

    def test_compare_file_that_is_not_utf8(self, capsys, latin1):
        self.assert_one_error(capsys, ["oracle", EX2, "--grid", "0.5", "--compare", latin1],
                              "--compare file")

    def test_negative_seed(self, tmp_path, capsys):
        argv = ["solve", EX2, "--out", str(tmp_path / "run"), "--init", "random"]
        self.assert_one_error(capsys, argv + ["--seed", "-1"], "--seed must be an integer >= 0")

    def test_negative_seed_variable(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("PCONS_SEED", "-5")
        self.assert_one_error(capsys, ["solve", EX2, "--out", str(tmp_path / "run"),
                                       "--init", "random"], "PCONS_SEED must be an integer >= 0")

    def test_seed_zero_is_a_seed(self, tmp_path, monkeypatch):
        a, b = tmp_path / "a", tmp_path / "b"
        argv = ["--init", "random", "--t-max", "0.002"]
        assert main(["solve", EX2, "--out", str(a), *argv, "--seed", "0"]) == 2
        monkeypatch.setenv("PCONS_SEED", "0")
        assert main(["solve", EX2, "--out", str(b), *argv]) == 2
        assert (a / "trajectory.csv").read_bytes() == (b / "trajectory.csv").read_bytes()


def test_exp_overflow_is_one_diverged_line(tmp_path):
    """exp(750) overflows in the first velocity: the run reports the
    non-finite state in one line, with no RuntimeWarning before it."""
    path = tmp_path / "exp.json"
    path.write_text(json.dumps({"agents": [{"dim": 1, "objective": "exp(x1)"}],
                                "laplacian": [[0]], "consensus_depth": 1,
                                "init": {"x": [750.0]}}), encoding="utf-8")
    pythonpath = os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")])
    done = subprocess.run(
        [sys.executable, "-m", "pcons.cli", "solve", str(path), "--out", str(tmp_path / "run")],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": pythonpath},
    )
    assert done.returncode == 3
    assert done.stderr.count("\n") == 1
    assert done.stderr.startswith("diverged: ") and "agent 1, x_1" in done.stderr
