#!/usr/bin/env python3
"""Fresh-process wall times of the start-up commands for one or two checkouts.

Each sample is one new interpreter, timed from its launch to its exit, with
PYTHONPATH set to the checkout's src/ and one BLAS thread. The commands are
README's start-up table: `import ehsched.cli` plus `load_model` of
channel.json, a one-point channel sweep on channel.json, a conservative
simulation on fig4.json, and `solve` and `verify` on desk.json. Runs are
interleaved: every round times each command once per checkout, and the
checkouts' order flips from one round to the next. Prints a markdown table
of the medians and writes one JSON document with every sample, the medians
and the quartiles (inclusive method), and the value of
PYTHONDONTWRITEBYTECODE, which decides whether the interpreters reuse
compiled bytecode.

Usage: python3 scripts/startup_times.py [CHECKOUT [CHECKOUT]] [--runs 10]
           [--out startup.json]

A CHECKOUT is a directory holding src/ehsched and configs/ (this checkout
by default); with two, the table's columns are the first and the second.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                "MKL_NUM_THREADS": "1"}
LOAD = ("import sys\nimport ehsched.cli as cli\n"
        "cli.load_model(sys.argv[1])")
CLI = "import sys\nfrom ehsched.cli import main\nsys.exit(main(sys.argv[1:]))"

# (label, code, argv relative to the checkout's configs/, takes --out)
COMMANDS = [
    ("`import ehsched.cli` + `load_model`, `channel.json`", LOAD,
     ["channel.json"], False),
    ("`sweep --axis channel --points 0.3 --n-slots 10000`, `channel.json`",
     CLI, ["sweep", "--config", "channel.json", "--axis", "channel",
           "--points", "0.3", "--n-slots", "10000"], True),
    ("`simulate --policy conservative --n-slots 10000`, `fig4.json`", CLI,
     ["simulate", "--config", "fig4.json", "--policy", "conservative",
      "--n-slots", "10000"], True),
    ("`solve`, `desk.json`", CLI, ["solve", "--config", "desk.json"], True),
    ("`verify`, `desk.json`", CLI, ["verify", "--config", "desk.json"], True),
]


def one_run(checkout: Path, code: str, argv: list[str], out: Path | None) -> float:
    configs = checkout / "configs"
    argv = [str(configs / a) if a.endswith(".json") else a for a in argv]
    if out is not None:
        argv += ["--out", str(out)]
    env = {**os.environ, **BLAS_THREADS, "PYTHONPATH": str(checkout / "src")}
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", code, *argv], check=True, env=env,
                   stdout=subprocess.DEVNULL)
    return time.perf_counter() - t0


def summary(runs: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(runs, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3, "runs": runs}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("checkouts", nargs="*", type=Path, default=[REPO])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--out", type=Path, default=None)
    args = p.parse_args(argv)
    if not 1 <= len(args.checkouts) <= 2:
        p.error("give one or two checkouts")
    if args.runs < 2:
        p.error("--runs needs at least 2 for quartiles")
    sides = [c.resolve() for c in args.checkouts]
    times = {label: [[] for _ in sides] for label, *_ in COMMANDS}
    with tempfile.TemporaryDirectory() as tmp:
        for k in range(args.runs):
            order = list(range(len(sides)))[::-1 if k % 2 else 1]
            for label, code, cmd, takes_out in COMMANDS:
                for i in order:
                    out = Path(tmp) / f"{k}-{i}" if takes_out else None
                    times[label][i].append(one_run(sides[i], code, cmd, out))
    result = {
        "checkouts": [str(s) for s in sides],
        "runs": args.runs,
        "design": "one fresh interpreter per sample, rounds interleaved, the "
                  "checkouts' order flipped every round",
        "environment": {
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE"),
            "blas_threads": BLAS_THREADS["OPENBLAS_NUM_THREADS"],
        },
        "commands": {label: [summary(t) for t in per_side]
                     for label, per_side in times.items()},
    }
    if args.out is not None:
        args.out.write_text(json.dumps(result, indent=2) + "\n")
    names = [s.name or str(s) for s in sides]
    print("| command | " + " | ".join(names) + " |")
    print("|---" * (len(sides) + 1) + "|")
    for label, per_side in result["commands"].items():
        print(f"| {label} | " + " | ".join(
            f"{s['median']:.3f} s ({s['q1']:.3f}–{s['q3']:.3f})"
            for s in per_side) + " |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
