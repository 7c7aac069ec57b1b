"""README's "Library" code block runs as written and keeps its promises."""
import re
from pathlib import Path

import numpy as np

README = Path(__file__).resolve().parent.parent / "README.md"


def library_block() -> str:
    text = README.read_text(encoding="utf-8")
    return re.search(r"^## Library\n\n```python\n(.*?)^```", text, re.M | re.S).group(1)


def test_library_block(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    names = {}
    exec(compile(library_block(), str(README), "exec"), names)
    printed = capsys.readouterr().out.splitlines()

    traj, dec, log = names["traj"], names["dec"], names["log"]
    assert printed[0] == traj.stop_reason == "kkt_converged"
    assert len(log) == 157604 and printed[2].startswith("157604 Message(")
    assert names["value"] == 0.75
    # the two execution modes agree bit for bit
    assert dec.total_steps == traj.total_steps and dec.times == traj.times
    for a, b in ((dec.final.x, traj.final.x), (dec.final.lam, traj.final.lam),
                 (dec.final.mu, traj.final.mu)):
        assert np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))
    assert (tmp_path / "messages.csv").read_text().count("\n") == len(log) + 1
