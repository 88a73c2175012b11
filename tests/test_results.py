"""The committed results/ files are what the experiment scripts write.

Each script is rerun at its defaults into a temporary directory and its
output compared with the committed file. The sweep CSVs come from seeded
simulations alone, which are bit-reproducible, so they must match byte for
byte; the tradeoff files come from the exact solver, and must have the same
header and rows, numbers equal to a relative 1e-9. A stale result fails here
instead of going unnoticed.
"""

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]

SCRIPTS = {
    "channel_sweep": ("channel_sweep", ["channel_sweep.csv"]),
    "arrival_sweep": ("arrival_sweep", ["arrival_sweep.csv"]),
    "tradeoff_curve": ("tradeoff", ["tradeoff.csv", "constrained.json"]),
}
BYTE_EXACT = {"channel_sweep.csv", "arrival_sweep.csv"}


def same_value(fresh, committed):
    try:
        return float(fresh) == pytest.approx(float(committed), rel=1e-9, abs=0.0)
    except (TypeError, ValueError):  # a label, or a JSON null
        return fresh == committed


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


@pytest.mark.parametrize("script", sorted(SCRIPTS))
def test_committed_results_are_reproducible(script, tmp_path):
    subdir, names = SCRIPTS[script]
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(
               [str(REPO / "src"), *filter(None, [os.environ.get("PYTHONPATH")])])}
    subprocess.run([sys.executable, str(REPO / "scripts" / f"{script}.py"),
                    "--out", str(tmp_path)],
                   check=True, env=env, capture_output=True)
    for name in names:
        committed = REPO / "results" / subdir / name
        fresh = tmp_path / name
        if name in BYTE_EXACT:
            assert fresh.read_bytes() == committed.read_bytes(), name
            continue
        if name.endswith(".json"):
            new, old = json.loads(fresh.read_text()), json.loads(committed.read_text())
            assert new.keys() == old.keys(), name
            bad = [k for k in old if not same_value(new[k], old[k])]
        else:
            new, old = read_csv(fresh), read_csv(committed)
            assert new[0] == old[0], f"{name}: header"
            assert [len(r) for r in new] == [len(r) for r in old], f"{name}: shape"
            bad = [(i, col) for i, (a, b) in enumerate(zip(new[1:], old[1:]), 1)
                   for col, x, y in zip(old[0], a, b) if not same_value(x, y)]
        assert not bad, f"{name} differs from the committed file at {bad}"
