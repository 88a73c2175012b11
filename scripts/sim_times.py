#!/usr/bin/env python3
"""In-process times of the three baseline runs, standalone and on a shared
sample, per config and slot count, for one checkout or two side by side.

Rows are channel.json re-quantized at mean gains 0.1, 0.3 and 0.8 (eight
levels, as `ehsched sweep --axis channel` does), desk.json, mixed_budget.json
and fig4.json, each at 10,000 and 100,000 slots. Columns, in milliseconds
(median of --repeats runs after one untimed warm-up):

- `radical`, `conservative`, `mixed`: one standalone `run_simulation`, which
  draws its own paths; the mixed weight is MIXED_XI (0.3), since the
  calibrated weight is 0 or 1 on several rows;
- `point` and its parts `pt:r`, `pt:c`, `pt:m`: one sweep point
  (`sim._sweep_point`, channel axis for channel.json and budget axis at the
  config's own budget otherwise), which samples once and runs the three
  baselines on that sample; the point's mixed weight `xi` is calibrated from
  its radical and conservative runs (`=` marks a part that reuses one of
  them).

`rep:c` and `rep:m` are the shares of the standalone conservative and mixed
runs' slots that the per-slot loop ran, on checkouts whose simulator reports
them (`sim._baseline_slots` with a candidate), and `-` elsewhere.

With two checkouts, both are loaded into this one process (the second under
another package name) and every timed run alternates between them, so the
host's drift falls on both alike; a third table gives the second's medians
over the first's.

Usage: python3 scripts/sim_times.py [CHECKOUT [CHECKOUT]] [--repeats 7]
           [--seed 7]

A CHECKOUT is a directory holding src/ehsched and configs/ (this checkout by
default).
"""

import argparse
import importlib
import importlib.util
import statistics
import sys
import time
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
ROWS = [("channel.json", 0.1), ("channel.json", 0.3), ("channel.json", 0.8),
        ("desk.json", None), ("mixed_budget.json", None), ("fig4.json", None)]
SLOTS = (10_000, 100_000)
KINDS = ("radical", "conservative", "mixed")
MIXED_XI = 0.3
COLS = ["config", "slots", *KINDS, "point", "xi", "pt:r", "pt:c", "pt:m",
        "rep:c", "rep:m"]


def load(checkout: Path, name: str):
    """The checkout's ehsched package, imported as name: (sim, heuristics,
    model)."""
    init = checkout.resolve() / "src" / "ehsched" / "__init__.py"
    spec = importlib.util.spec_from_file_location(
        name, init, submodule_search_locations=[str(init.parent)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return tuple(importlib.import_module(f"{name}.{m}")
                 for m in ("sim", "heuristics", "model"))


def medians_ms(fns, repeats: int) -> list[float]:
    """Median time of each callable, the callables alternating run by run
    (their order reversed every other round) after one warm-up each."""
    for fn in fns:
        fn()
    times = [[] for _ in fns]
    for k in range(repeats):
        order = range(len(fns)) if k % 2 == 0 else reversed(range(len(fns)))
        for i in order:
            t0 = time.perf_counter()
            fns[i]()
            times[i].append(time.perf_counter() - t0)
    return [1e3 * statistics.median(t) for t in times]


class Side:
    """One checkout's run of a row: its model, baselines and timed calls."""

    def __init__(self, modules, checkout, name, hbar, n, seed):
        self.sim, heur, model_mod = modules
        base = model_mod.load_model(checkout / "configs" / name)
        self.axis, self.value = (("channel", hbar) if hbar is not None
                                 else ("budget", base.params.p_bar))
        self.model = self.sim._sweep_model(self.axis, base, self.value, 8)
        self.cfg = self.sim.SimConfig(n_slots=n, seed=seed)
        self.job = (self.axis, base, self.value, KINDS, self.cfg, 8)
        self.xi = heur.calibrate_xi(self.model, self.cfg).xi
        self.baselines = [heur.make_heuristic(heur.HeuristicKind(k), self.model)
                          for k in KINDS[:2]]
        self.baselines.append(heur.make_heuristic(
            heur.HeuristicKind("mixed", xi=MIXED_XI), self.model))
        self.parts = {}

    def alone(self, i):
        return lambda: self.sim.run_simulation(self.baselines[i], self.model,
                                               self.cfg)

    def point(self):
        return self.sim._sweep_point(self.job)

    def timed_point(self):
        """The point, each of its runs timed through the module name the
        point calls."""
        run = self.sim.run_simulation

        def timed(policy, m, c, sample=None):
            t0 = time.perf_counter()
            res = run(policy, m, c, sample=sample)
            self.parts.setdefault(policy.weight, []).append(
                time.perf_counter() - t0)
            return res

        self.sim.run_simulation = timed
        try:
            self.sim._sweep_point(self.job)
        finally:
            self.sim.run_simulation = run

    def repaired_share(self, weight):
        """Share of the standalone run's slots that the loop ran, or None
        where the simulator does not report it."""
        sim = self.sim
        if not hasattr(sim, "_radical_guess"):
            return None
        sample = sim.sample_paths(self.model, self.cfg)
        args = (sample.ih, sample.arrivals, sample.harvests, sample.coins)
        guess = sim._radical_guess(self.model, weight, *args,
                                   sim._radical_battery(self.model, sample))
        *_, n_loop = sim._baseline_slots(self.model, weight, *args, guess)
        return n_loop / self.cfg.n_slots

    def cells(self, alone, point):
        parts = {w: 1e3 * statistics.median(t) for w, t in self.parts.items()}
        inside = [parts[1.0], parts[0.0],
                  parts[self.xi] if 0 < self.xi < 1 else None]
        shares = [self.repaired_share(w) for w in (0.0, MIXED_XI)]
        return [*(f"{t:.2f}" for t in alone), f"{point:.2f}", f"{self.xi:.3g}",
                *("=" if t is None else f"{t:.2f}" for t in inside),
                *("-" if s is None else f"{s:.1%}" for s in shares)]


def table(title, rows):
    print(title)
    print("| " + " | ".join(COLS) + " |")
    print("|" + "---|" * len(COLS))
    for row in rows:
        print("| " + " | ".join(row) + " |")
    print()


def ratio(a: str, b: str) -> str:
    try:
        return f"{float(b) / float(a):.2f}"
    except ValueError:
        return b if a == b else f"{a}/{b}"


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("checkouts", nargs="*", type=Path, default=[REPO])
    p.add_argument("--repeats", type=int, default=7)
    p.add_argument("--seed", type=int, default=7)
    args = p.parse_args(argv)
    if len(args.checkouts) > 2:
        p.error("give at most two checkouts")
    modules = [load(c, f"ehsched_{i}") for i, c in enumerate(args.checkouts)]
    tables = [[] for _ in args.checkouts]
    for name, hbar in ROWS:
        for n in SLOTS:
            sides = [Side(m, c, name, hbar, n, args.seed)
                     for m, c in zip(modules, args.checkouts)]
            alone = [medians_ms([s.alone(i) for s in sides], args.repeats)
                     for i in range(len(KINDS))]
            point = medians_ms([s.point for s in sides], args.repeats)
            medians_ms([s.timed_point for s in sides], args.repeats)
            label = [name + (f" h̄ {hbar}" if hbar is not None else ""),
                     f"{n:,}"]
            for k, s in enumerate(sides):
                s.parts = {w: t[1:] for w, t in s.parts.items()}  # warm-up
                tables[k].append(label + s.cells([a[k] for a in alone],
                                                 point[k]))
            print(f"{label[0]}, {label[1]} slots done", file=sys.stderr,
                  flush=True)
    for c, rows in zip(args.checkouts, tables):
        table(f"checkout {c.resolve()}, seed {args.seed}, median of "
              f"{args.repeats}", rows)
    if len(tables) == 2:
        table("second over first (ratio of medians; xi and rep as "
              "first/second where they differ)",
              [a[:2] + [ratio(x, y) for x, y in zip(a[2:], b[2:])]
               for a, b in zip(*tables)])
    return 0


if __name__ == "__main__":
    sys.exit(main())
