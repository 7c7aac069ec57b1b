"""Read-only logged messages, the trajectory writer's dimension check,
``--log-messages`` without ``--decentralized``, and the order of the box
faults."""
import numpy as np
import pytest

import pcons
from pcons.cli import main
from pcons.convex import Box
from pcons.dynamics import integrate, write_trajectory_csv
from pcons.errors import InvalidInputError
from pcons.network import MessageLog, build_agents, synchronous_round, write_message_log_csv

EX2 = str(pcons.fixture_path("example2.json"))


class TestMessagesAreReadOnly:
    def test_writing_raises_and_the_log_is_unchanged(self, example2, tmp_path):
        log = MessageLog()
        agents = build_agents(example2.problem)
        for _ in range(3):
            synchronous_round(agents, 1e-3, "rk4", log=log)
        write_message_log_csv(log, tmp_path / "before.csv")
        for message in (log[0], log[-1], *log):
            for payload in (message.x_shared, message.lam_shared):
                with pytest.raises(ValueError):
                    payload[0] = 99.0
        write_message_log_csv(log, tmp_path / "after.csv")
        assert (tmp_path / "before.csv").read_bytes() == (tmp_path / "after.csv").read_bytes()

    def test_list_log_messages_are_read_only(self, example2):
        log = []
        synchronous_round(build_agents(example2.problem), 1e-3, "euler", log=log)
        assert log and all(not m.x_shared.flags.writeable and not m.lam_shared.flags.writeable
                           for m in log)


class TestTrajectoryWriterDimensions:
    def test_other_problem_rejected_before_the_file(self, example2, tmp_path):
        trajectory = integrate(example2.problem, h=1e-3, t_max=3e-3)
        quad = pcons.parse_problem(pcons.fixture_path("single_quadratic.json"),
                                   slater_probe=False).problem
        path = tmp_path / "trajectory.csv"
        with pytest.raises(InvalidInputError, match="multiplier"):
            write_trajectory_csv(trajectory, path, quad)
        assert not path.exists()
        write_trajectory_csv(trajectory, path, example2.problem)
        assert len(path.read_text(encoding="utf-8").splitlines()) == 5


class TestLogMessagesNeedsDecentralized:
    def test_usage_error(self, tmp_path, capsys):
        out = tmp_path / "run"
        code = main(["solve", EX2, "--log-messages", "--t-max", "0.001", "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

    def test_with_decentralized_writes_the_log(self, tmp_path):
        out = tmp_path / "run"
        code = main(["solve", EX2, "--decentralized", "--log-messages", "--t-max", "0.001",
                     "--out", str(out)])
        assert code == 2
        assert (out / "messages.csv").is_file()


class TestBoxFaults:
    @pytest.mark.parametrize("lower, upper, message", [
        ([0.0, np.nan], [1.0], "1-d arrays"),
        ([[0.0]], [[1.0]], "1-d arrays"),
        (0.0, 1.0, "1-d arrays"),
        ([np.inf, 0.0], [np.inf, np.nan], "NaN"),
        ([2.0, np.nan], [1.0, 1.0], "NaN"),
        ([2.0, np.inf], [1.0, np.inf], r"\+inf"),
        ([0.0, -np.inf], [1.0, -np.inf], r"\+inf"),
        ([np.inf], [-np.inf], r"\+inf"),
        ([0.0, 2.0], [1.0, 1.0], "exceeds"),
        ([1.0], [-1e300], "exceeds"),
    ])
    def test_first_fault_named(self, lower, upper, message):
        with pytest.raises(InvalidInputError, match=message):
            Box(np.array(lower), np.array(upper))

    @pytest.mark.parametrize("lower, upper", [
        ([-np.inf, 0.0, -1e308, -0.0], [np.inf, 0.0, 1e308, 0.0]),
        ([], []),
        ([-np.inf], [-1e308]),
        ([1e308], [np.inf]),
    ])
    def test_valid_boxes_kept(self, lower, upper):
        box = Box(np.array(lower), np.array(upper))
        assert box.dim == len(lower)
        assert not box.lower.flags.writeable and not box.upper.flags.writeable
        assert np.array_equal(box.lower, lower) and np.array_equal(box.upper, upper)


class TestTrajectoryWriterObjective:
    def test_objective_column_comes_from_the_problem_argument(self, tmp_path):
        lap = np.array([[1.0, -1.0], [-1.0, 1.0]])

        def two_agents(center):
            agents = [pcons.AgentProblem(pcons.quadratic(1, 0, center))] * 2
            return pcons.ProblemInstance(agents, lap, 1)

        trajectory = integrate(two_agents(0.5), h=1e-3, t_max=3e-3)
        other = two_agents(3.0)
        path = tmp_path / "trajectory.csv"
        write_trajectory_csv(trajectory, path, other)
        header, *rows = path.read_text(encoding="utf-8").splitlines()
        column = header.split(",").index("objective")
        written = [float(row.split(",")[column]) for row in rows]
        assert written[0] == other.objective_value(np.zeros(2)) == 18.0
        assert written == [other.objective_value(st.x) for st in trajectory.states]
