"""The benchmark's traced replay keeps running against the library.

``perfbench/replay.py`` re-implements each verb from the library's
public layer calls, and the benchmark's ``--trace 1`` run depends on it.
This guard replays one fixture job per verb and expects the exit code
the verb itself gives.
"""

import importlib.util
from pathlib import Path

import pytest

from ditop.cli import main

ROOT = Path(__file__).parent.parent
FIXTURES = ROOT / "fixtures"


def _load_replay():
    spec = importlib.util.spec_from_file_location("replay", ROOT / "perfbench" / "replay.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


replay = _load_replay()

SWISS, FOLD2, PV = (str(FIXTURES / name) for name in ("swiss.json", "fold2_swiss.json", "swiss.pv"))
JOBS = {
    "paths": ["paths", SWISS, "--from", "c00", "--to", "c33", "--max-len", "6"],
    "classes": ["classes", SWISS, "--from", "c00", "--to", "c33", "--max-len", "6"],
    "preorder": ["preorder", SWISS],
    "unfold": ["unfold", SWISS, "--base", "c00", "--depth", "4"],
    "check-cover": ["check-cover", FOLD2, "--base", "c00"],
    "universal": ["universal", SWISS, "--base", "c00", "--depth", "4", "--against", FOLD2],
    "pv": ["pv", "compile", PV, "--deadlocks"],
}


def test_every_replica_has_a_job():
    assert set(JOBS) == set(replay.REPLICAS)


@pytest.mark.parametrize("verb", sorted(JOBS))
def test_replay_exits_as_the_verb_does(verb, capsys):
    argv = JOBS[verb]
    code, text, _ = replay.replay(replay.Tracer(), argv)
    assert code == main(argv), verb
    out = capsys.readouterr().out
    assert text and out
