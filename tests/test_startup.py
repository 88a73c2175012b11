"""Start-up cost: scipy's sparse stack loads on the first use of the exact
solvers, never at import.

Each case runs in a fresh interpreter, since this test process has long
since loaded scipy. Importing the package, loading every shipped config,
sweeping and simulating a baseline must leave no scipy module loaded, and a
one-worker sweep no process pool either. solve and verify load the stack on
demand and write the same bytes as in this process.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from ehsched.cli import main

REPO = Path(__file__).resolve().parents[1]
CONFIGS = REPO / "configs"
SHIPPED = sorted(p.name for p in CONFIGS.glob("*.json"))


def fresh_modules(code: str, *argv) -> list[str]:
    """Run code in a fresh interpreter (argv as its sys.argv[1:]) and return
    the names of the modules loaded by the end."""
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(
               [str(REPO / "src"), *filter(None, [os.environ.get("PYTHONPATH")])])}
    code += "\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))\n"
    done = subprocess.run([sys.executable, "-c", code, *map(str, argv)],
                          check=True, env=env, capture_output=True, text=True)
    return json.loads(done.stdout.splitlines()[-1])


CLI = "import sys\nfrom ehsched.cli import main\nassert main(sys.argv[1:]) == 0"

SIMULATION_PATHS = {
    "import ehsched": ("import ehsched",),
    "import ehsched.cli": ("import ehsched.cli",),
    "load_model": ("import sys\nfrom ehsched import load_model\n"
                   "for path in sys.argv[1:]:\n    load_model(path)",
                   *(CONFIGS / name for name in SHIPPED)),
    **{f"sweep {axis}": (CLI, "sweep", "--config", CONFIGS / "channel.json",
                         "--axis", axis, "--points", point, *policy,
                         "--n-slots", 2000)
       for axis, point, policy in (("channel", "0.3", ()),
                                   ("arrival", "2", ("--policy", "mixed")),
                                   ("budget", "3000", ("--policy", "mixed")))},
    **{f"simulate {kind}": (CLI, "simulate", "--config", CONFIGS / "channel.json",
                            "--policy", kind, "--n-slots", 2000)
       for kind in ("radical", "conservative", "mixed")},
}


@pytest.mark.parametrize("case", sorted(SIMULATION_PATHS))
def test_simulation_paths_never_load_scipy(case, tmp_path):
    code, *argv = SIMULATION_PATHS[case]
    if code == CLI:
        argv += ["--out", tmp_path]
    modules = fresh_modules(code, *argv)
    assert "ehsched" in modules
    assert [m for m in modules if m.split(".")[0] == "scipy"] == []
    assert "concurrent.futures.process" not in modules


@pytest.mark.parametrize("argv", [("solve",), ("verify",)])
def test_exact_commands_load_scipy_on_demand(argv, tmp_path):
    here, fresh = tmp_path / "here", tmp_path / "fresh"
    argv = (*argv, "--config", CONFIGS / "desk.json")
    assert main([str(a) for a in (*argv, "--out", here)]) == 0
    modules = fresh_modules(CLI, *argv, "--out", fresh)
    assert "scipy.sparse.linalg" in modules
    names = sorted(p.name for p in here.iterdir())
    assert names == sorted(p.name for p in fresh.iterdir())
    for name in names:
        if name == "manifest.json":
            want = json.loads((here / name).read_text())
            got = json.loads((fresh / name).read_text())
            assert want.pop("out") != got.pop("out")
            assert got == want
        else:
            assert (fresh / name).read_bytes() == (here / name).read_bytes(), name
