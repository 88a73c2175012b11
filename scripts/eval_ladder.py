#!/usr/bin/env python3
"""Exact-stack scale ladder: build, solve and evaluate time and peak RSS.

Each rung runs in a fresh interpreter on configs/desk.json with a larger
backlog and battery (3,000, 22,032 and 96,400 states by default): it times
build_action_space, relative_value_iteration at one price, and evaluate_policy
of the solved policy with a fresh LU (the stored one is dropped before each
of --repeats evaluations; the median is reported), and reads the process's
peak RSS. ehsched is imported from PYTHONPATH, so the same script measures
any checkout. Writes one JSON document.

Usage: PYTHONPATH=src python3 scripts/eval_ladder.py --out ladder.json
           [--rungs 14:6,33:20,49:60] [--beta 1.0] [--repeats 5]
"""

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]


def rung(q_max: int, e_max: float, beta: float, repeats: int) -> dict:
    import numpy as np
    import scipy

    from ehsched.mdp import (SolverConfig, build_action_space, evaluate_policy,
                             relative_value_iteration)
    from ehsched.model import load_model

    model = load_model(REPO / "configs" / "desk.json")
    model = type(model)(params=type(model.params)(**{
        **{f: getattr(model.params, f) for f in model.params.__dataclass_fields__},
        "q_max": q_max, "e_max": e_max}), channel=model.channel,
        arrival=model.arrival, harvest=model.harvest,
        restrict_w_to_power=model.restrict_w_to_power)
    t0 = time.perf_counter()
    actions = build_action_space(model)
    t1 = time.perf_counter()
    res = relative_value_iteration(SolverConfig(beta=beta), model, actions)
    t2 = time.perf_counter()
    evals, gain = [], None
    for _ in range(repeats):
        actions.last_lu = None
        t = time.perf_counter()
        gain = evaluate_policy(res.policy, beta, model, actions=actions).gain_j
        evals.append(time.perf_counter() - t)
    return {
        "q_max": q_max, "e_max": e_max, "n_states": model.space.n_states,
        "n_lumped": getattr(actions, "n_lumped", None), "n_sa": actions.n_sa,
        "beta": beta, "build_s": t1 - t0, "solve_s": t2 - t1,
        "solve_evaluations": res.n_evaluations,
        "evaluate_s_median": statistics.median(evals), "evaluate_s": evals,
        "gain": gain, "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "numpy": np.__version__, "scipy": scipy.__version__,
    }


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", required=True)
    ap.add_argument("--rungs", default="14:6,33:20,49:60",
                    help="q_max:e_max pairs, comma separated")
    ap.add_argument("--beta", type=float, default=1.0)
    ap.add_argument("--repeats", type=int, default=5)
    ap.add_argument("--rung", help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.rung:  # one rung, in this (fresh) interpreter
        q, e = args.rung.split(":")
        print(json.dumps(rung(int(q), float(e), args.beta, args.repeats)))
        return
    rows = []
    for spec in args.rungs.split(","):
        out = subprocess.run(
            [sys.executable, __file__, "--out", "-", "--rung", spec,
             "--beta", str(args.beta), "--repeats", str(args.repeats)],
            check=True, capture_output=True, text=True, env=os.environ).stdout
        rows.append(json.loads(out.splitlines()[-1]))
        print(json.dumps(rows[-1]), flush=True)
    Path(args.out).write_text(json.dumps({
        "command": " ".join(sys.argv), "python": platform.python_version(),
        "machine": platform.machine(), "nproc": os.cpu_count(),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "rungs": rows}, indent=1) + "\n")


if __name__ == "__main__":
    main()
