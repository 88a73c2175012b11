"""Benchmark entry point: one workload, one seed, one process.

    python3 perfbench/run.py --workload exact-engine --seed 1 --seconds 45 --trace 0

Run from anywhere inside a checkout that holds ``src/ehsched`` and
``configs/``. The last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics. With ``--trace 0`` the metrics
are the end-to-end ones (wall_s, setup_s, peak_rss_mb); with ``--trace 1``
the run alternates untraced and traced passes over its inputs and reports
the per-layer metrics. The workloads and the metrics' names and units are
those listed in ``BENCHMARK.json`` at the root of the checkout. The run
record (environment, inputs, every operation and its time) and, for traced
runs, the spans go to
``.perfbench/results/`` in the checkout. See perfbench/README.md for the
workloads and what each metric should move.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import Patch, Recorder

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 7
# One BLAS thread: on two shared cores the second thread spin-waits between
# the many small dense solves and slows the main thread unevenly.
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                "MKL_NUM_THREADS": "1"}

# a fresh interpreter up to a loaded model: imports, config read, overrides
SETUP_CHILD = """
import json, sys
sys.path.insert(0, sys.argv[1])
import ehsched.cli as cli
with open(sys.argv[2]) as fh:
    cfg = json.load(fh)
cli.load_model(cli.apply_overrides(cfg, sys.argv[3:]))
"""


def parse_args(argv, spec: dict):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=[w["name"] for w in spec["workloads"]])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def measure_setup(config: Path, overrides) -> list[float]:
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        # no timeout: with one, Popen.wait polls in steps of up to 50 ms,
        # which would round every setup time up to that grid
        subprocess.run([sys.executable, "-c", SETUP_CHILD, str(ROOT / "src"),
                        str(config), *overrides],
                       check=True, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
    return times


def _read(path) -> str | None:
    try:
        return Path(path).read_text().strip()
    except OSError:
        return None


def environment() -> dict:
    import numpy
    import scipy

    sha = None
    if (ROOT / ".git").exists():
        res = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
        sha = res.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    cpu_model = None
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            cpu_model = line.split(":", 1)[1].strip()
            break
    llc = None
    caches = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(caches.glob("index*")):
        level, size = _read(index / "level"), _read(index / "size")
        if level and size and (llc is None or int(level) >= llc[0]):
            llc = (int(level), size)
    return {
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "llc": f"L{llc[0]} {llc[1]}" if llc else None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def run_passes(wl, seconds: float, traced: bool, recorder, targets):
    """Passes over the run's inputs, each operation timed on its own, until
    `seconds` have passed; the pass under way then stops after its current
    operation, but the first pass always runs whole. A traced run alternates
    untraced and traced passes and runs at least one of each whole. Returns
    the times of every input (untraced and traced) and every operation's
    result."""
    times = {False: [[] for _ in wl.inputs], True: [[] for _ in wl.inputs]}
    ops = []
    whole = 2 if traced else 1  # passes that always run whole
    start = time.perf_counter()
    k = 0
    while True:
        with_trace = traced and k % 2 == 1
        may_stop = k >= whole
        results = []
        with Patch(recorder, targets) if with_trace else contextlib.nullcontext():
            for i, inp in enumerate(wl.inputs):
                if may_stop and time.perf_counter() - start >= seconds:
                    break
                if with_trace:
                    recorder.run_id = f"{wl.name}:{k}:{i}"
                    span = recorder.open("bench.op")
                    try:
                        res = wl.op(inp, f"{k}-{i}")
                    finally:
                        recorder.close(span)
                    dt = span.duration
                else:
                    t0 = time.perf_counter()
                    res = wl.op(inp, f"{k}-{i}")
                    dt = time.perf_counter() - t0
                times[with_trace][i].append(dt)
                results.append(res)
        wl.check_pass(results)
        ops += results
        k += 1
        if time.perf_counter() - start >= seconds and k >= whole:
            return times, ops


def pass_seconds(times: list[list[float]]) -> float:
    """The time of one pass: the sum over the inputs of each input's mean
    operation time."""
    return sum(statistics.fmean(t) for t in times)


def verdict(untimed, ops) -> dict:
    """The run's outcome: a failed check (a wrong output or a crash) in the
    untimed or the timed operations makes it incorrect; attempted and failed
    count the timed operations, where a typed refusal only counts as failed."""
    return {"correct": not any(op.status == "check" for op in untimed + ops),
            "attempted": len(ops),
            "failed": sum(op.status != "ok" for op in ops)}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    args = parse_args(argv, spec)
    if not (ROOT / "src" / "ehsched" / "__init__.py").is_file() \
            or not (ROOT / "configs").is_dir():
        sys.stderr.write(f"perfbench: no src/ehsched or configs/ under {ROOT}\n")
        return 2
    os.environ.update(BLAS_THREADS)  # before numpy loads; children inherit it
    sys.path.insert(0, str(ROOT / "src"))

    import layers
    from workloads import WORKLOADS

    cls = WORKLOADS[args.workload]
    setup = measure_setup(ROOT / "configs" / cls.config, cls.overrides)
    out_dir = ROOT / ".perfbench"
    workdir = out_dir / f"work-{os.getpid()}"
    recorder = Recorder(run_id=args.workload)
    try:
        wl = cls(ROOT, args.seed, workdir)
        untimed = wl.prepare()
        times, ops = run_passes(wl, args.seconds, bool(args.trace),
                                recorder, layers.TARGETS)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    outcome = verdict(untimed, ops)
    wall = pass_seconds(times[False])
    if args.trace:
        traced_passes = sum(map(len, times[True])) / len(wl.inputs)
        m = layers.layer_metrics(recorder.spans, traced_passes)
        m["constrained.failed_points"] = sum(op.error == "ConstrainedSearchError"
                                             for op in untimed)
        m["slots_per_s"] = m["sim.slots"] / wall
        # the untimed operations count here, so the scan's refusals show
        m["error_rate"] = (sum(op.status != "ok" for op in untimed + ops)
                           / len(untimed + ops))
        m["traced_wall_s"] = pass_seconds(times[True])
        m["trace_overhead"] = m["traced_wall_s"] / wall - 1.0
        for key, name in (("mixed_over_budget", "heuristics.mixed_over_budget_points"),
                          ("fail_verdicts", "verify.fail_verdicts")):
            m[name] = sum(op.counters.get(key, 0) for op in ops) * len(wl.inputs) / len(ops)
        listed = spec["per_layer"]
    else:
        m = {"wall_s": wall, "setup_s": statistics.median(setup),
             "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
        listed = spec["end_to_end"]
    metrics = {d["name"]: {"value": float(m[d["name"]]), "unit": d["unit"]}
               for d in listed}

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": environment(),
        "inputs": wl.inputs, "setup_s": setup, "op_s": times[False],
        "traced_op_s": times[True], "untimed": [vars(op) for op in untimed],
        "ops": [vars(op) for op in ops], "metrics": metrics,
    }
    results_dir = out_dir / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (results_dir / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if args.trace:
        (results_dir / f"{stem}-spans.json").write_text(json.dumps(recorder.to_json()))

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"inputs={len(wl.inputs)} ops={sum(map(len, times[False]))}"
          f"+{sum(map(len, times[True]))} traced")
    print("environment " + json.dumps(record["environment"]))
    for op in untimed + ops:
        if op.status != "ok":
            print(f"failed {op.label}: {op.status} {op.error} {op.detail}")
    for name, metric in metrics.items():
        print(f"  {name:44s} {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({**outcome, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
