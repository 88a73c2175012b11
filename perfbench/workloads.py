"""The benchmark workloads, their inputs and their correctness checks.

Two workloads run: `exact-engine`, whose passes hold the operations of three
parts (`SolveLarge`, `BudgetCurve`, `CertifyDesk`), and `sweep-channel`. A
run draws a fixed list of inputs from its seed and makes passes over them;
every operation (one solve, one budget point, one certificate battery, one
sweep point) runs on one input and is timed on its own, so every input is
timed several times over a run. Before the first pass, `prepare` does the
untimed work: a warm-up operation, or for `exact-engine` the budget scan
that keeps the budgets the search can solve. Each operation ends as ok, as
one of the program's own typed errors (`PROGRAM_ERRORS`), or as a failed
check: a wrong output, or any other exception. The checks are plain
functions over the outputs, so the self-tests can feed them corrupted
outputs.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import traceback
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

import ehsched
import ehsched.cli
import ehsched.mdp
import ehsched.sim

CHECK_SE = 4.0  # standard errors allowed by the statistical checks
SOLVE_OVERRIDES = ("params.q_max=14", "params.e_max=6")
BUDGET_BAND = (0.05, 0.23)
BUDGET_CANDIDATES = 16  # budgets the scan tries
BUDGET_POINTS = 8  # solvable budgets a pass times
BUDGET_SIM_SLOTS = 10_000
CHANNEL_POINTS = "0.1,0.2,0.3,0.5,0.8"
CHANNEL_SLOTS = 10_000
CERTIFY_GRID = (0.01, 0.1, 1.0, 10.0, 100.0)
CERTIFY_REPORTS = 9
# refusals the program raises on purpose; any other exception is a defect
PROGRAM_ERRORS = (
    ehsched.ConfigError, ehsched.CapacityError, ehsched.BudgetInfeasibleError,
    ehsched.ConstrainedSearchError, ehsched.NonConvergenceError,
    ehsched.mdp.MultichainError, ehsched.mdp.InstanceTooLargeError,
    ehsched.sim.PolicyDomainError,
)


@dataclass
class OpResult:
    label: str
    status: str  # "ok" | "error" (the program raised) | "check" (bad output)
    error: str | None = None
    detail: str = ""
    counters: dict = field(default_factory=dict)


def raised(label: str, exc: Exception, typed_status: str = "error") -> OpResult:
    """A typed program error gets typed_status; any other exception is a
    failed check, because the program crashed instead of answering."""
    status = typed_status if isinstance(exc, PROGRAM_ERRORS) else "check"
    where = traceback.extract_tb(exc.__traceback__)[-1]
    return OpResult(label, status, type(exc).__name__,
                    f"{str(exc)[:300]} (at {Path(where.filename).name}:"
                    f"{where.lineno} in {where.name})")


def run_op(label: str, fn, typed_status: str = "error") -> OpResult:
    """Run one operation; fn returns its check failures as (type, message)."""
    try:
        problems = fn()
    except Exception as exc:  # the operation boundary: record and go on
        return raised(label, exc, typed_status)
    if problems:
        kinds = sorted({kind for kind, _ in problems})
        return OpResult(label, "check", ",".join(kinds),
                        "; ".join(msg for _, msg in problems)[:300])
    return OpResult(label, "ok")


def _cli(argv) -> int:
    """ehsched.cli.main looked up at call time, so a traced pass sees the
    wrapped entry point; the verify table it prints is discarded."""
    with contextlib.redirect_stdout(io.StringIO()):
        return ehsched.cli.main([str(a) for a in argv])


# ---------------------------------------------------------------------------
# correctness checks


def check_solve(rc: int, ev: dict | None, epsilon: float) -> list[tuple[str, str]]:
    if rc != 0 or ev is None:
        return [("ExitCode", f"ehsched solve exited {rc}")]
    lo, hi = ev["gain_bounds"]
    out = []
    if not lo - 1e-9 <= ev["gain_j"] <= hi + 1e-9:
        out.append(("GainOutsideBounds",
                    f"gain_j {ev['gain_j']!r} outside [{lo!r}, {hi!r}]"))
    if hi - lo > epsilon:
        out.append(("BoundsTooWide", f"bound width {hi - lo:.3e} > {epsilon:.3e}"))
    return out


def k_tolerance(cfg, p_bar: float) -> float:
    """The solver's budget tolerance as ConstrainedSolverConfig documents it."""
    if cfg.k_tolerance is not None:
        return cfg.k_tolerance
    return 1e-3 * p_bar if p_bar > 0 else 1e-6


def check_budget_k(p_bar: float, k: float, k_tol: float) -> list[tuple[str, str]]:
    if abs(k - p_bar) > k_tol:
        return [("KOffBudget",
                 f"|K - p_bar| = {abs(k - p_bar):.3e} > k_tolerance {k_tol:.3e}")]
    return []


def check_simulated_k(k: float, simulate, seed: int) -> list[tuple[str, str]]:
    """Simulated grid power within CHECK_SE batch-means SE of the exact K.

    simulate(n_slots, seed) -> (mean grid power, its SE). A miss is
    confirmed on a ten times longer run with a fresh seed before it counts:
    a run has dozens of these checks, and the short runs' grid-power means
    have heavier tails than the normal law, so a single 4-SE miss is not
    rare enough to stand as a verdict. A real bias fails the longer run
    with more power, not less.
    """
    n = BUDGET_SIM_SLOTS
    for n_slots, s in ((n, seed), (10 * n, seed + 1)):
        mean, se = simulate(n_slots, s)
        if abs(mean - k) <= CHECK_SE * se:
            return []
    return [("SimulatedKOff", f"simulated K {mean:.6g} vs exact {k:.6g}, SE {se:.3g} "
                              f"over {10 * n} slots")]


def budget_order_violations(points: list[tuple[float, float]]) -> list[float]:
    """p_bar values at which the mean queue B rose although p_bar grew."""
    pts = sorted(points)
    return [p for (_, b0), (p, b1) in zip(pts, pts[1:]) if b1 > b0 + 1e-9]


def check_sweep_row(row: dict, mean_arrival: float) -> list[tuple[str, str]]:
    q = {k: row[f"mean_queue_{k}"] for k in ("radical", "mixed", "conservative")}
    se = {k: row[f"mean_queue_se_{k}"] for k in q}
    out = []
    for lo, hi in (("radical", "mixed"), ("mixed", "conservative")):
        slack = CHECK_SE * math.hypot(se[lo], se[hi])
        if q[lo] > q[hi] + slack:
            out.append(("QueueOrder", f"hbar {row['hbar']}: {lo} queue {q[lo]:.6g} "
                                      f"> {hi} queue {q[hi]:.6g}"))
    if abs(q["radical"] - mean_arrival) > CHECK_SE * se["radical"]:
        out.append(("RadicalQueue", f"hbar {row['hbar']}: radical queue "
                                    f"{q['radical']:.6g} vs mean arrival "
                                    f"{mean_arrival:.6g}"))
    return out


def check_battery(rc: int, reports: list[dict] | None) -> list[tuple[str, str]]:
    if rc not in (0, 4) or reports is None:
        return [("ExitCode", f"ehsched verify exited {rc}")]
    if len(reports) != CERTIFY_REPORTS:
        return [("ReportCount", f"{len(reports)} reports, expected {CERTIFY_REPORTS}")]
    return []


# ---------------------------------------------------------------------------
# workloads


class Workload:
    name: str
    config: str
    overrides: tuple[str, ...] = ()

    def __init__(self, root: Path, seed: int, workdir: Path):
        self.rng = np.random.default_rng(seed)
        self.workdir = workdir
        self.config_path = root / "configs" / self.config
        self.inputs: list = []

    def load_config(self) -> dict:
        with open(self.config_path) as fh:
            cfg = json.load(fh)
        return ehsched.cli.apply_overrides(cfg, list(self.overrides))

    def prepare(self) -> list[OpResult]:
        """Untimed operations before the first pass: a warm-up on the first
        input (budget-curve scans instead)."""
        return [self.op(self.inputs[0], "warmup")]

    def op(self, inp, tag: str) -> OpResult:
        """One timed operation on one input; tag names its output directory."""
        raise NotImplementedError

    def check_pass(self, results: list[OpResult]) -> None:
        """Checks across the operations of one pass, marked on `results`."""


class SolveLarge(Workload):
    """ehsched solve on a 3,000-state desk variant at one log-uniform price."""

    name = "solve-large"
    config = "desk.json"
    overrides = SOLVE_OVERRIDES

    def __init__(self, root, seed, workdir):
        super().__init__(root, seed, workdir)
        self.inputs = [float(np.exp(self.rng.uniform(math.log(0.5), math.log(2.0))))]

    def _argv(self, out, beta):
        return ["solve", "--config", self.config_path, "--out", out,
                "--beta", repr(beta),
                *[a for o in self.overrides for a in ("--set", o)]]

    def op(self, beta, tag):
        out = self.workdir / f"solve-{tag}"
        epsilon = ehsched.SolverConfig(beta=beta).epsilon

        def run():
            rc = _cli(self._argv(out, beta))
            ev = json.loads((out / "eval.json").read_text()) if rc == 0 else None
            return check_solve(rc, ev, epsilon)

        return run_op(f"beta={beta:.6g}", run)


class BudgetCurve(Workload):
    """solve_constrained at the budgets of the binding band that the search
    solves, each solved policy simulated as a cross-check."""

    name = "budget-curve"
    config = "desk.json"

    def __init__(self, root, seed, workdir):
        super().__init__(root, seed, workdir)
        self.solver_cfg = ehsched.ConstrainedSolverConfig()
        self.cfg = self.load_config()

    def candidates(self) -> list[float]:
        # one shared offset spaces the candidates evenly across the band, so
        # each is still uniform on it
        lo, hi = BUDGET_BAND
        u = self.rng.random()
        return [lo + (hi - lo) * (i + u) / BUDGET_CANDIDATES
                for i in range(BUDGET_CANDIDATES)]

    def prepare(self):
        """The untimed scan: one search per candidate budget. BUDGET_POINTS
        of the budgets it solves, spread evenly over them and each with its
        own simulation seed, are the inputs (with fewer solvable budgets,
        some repeat); a budget where the search raises is listed with its
        error and never timed, so the timed operations are searches that
        succeed."""
        model = ehsched.load_model(self.cfg)
        scan, solvable = [], []
        for p_bar in self.candidates():
            point = self._point(model, p_bar)

            def search():
                ehsched.solve_constrained(self.solver_cfg, point)
                return []

            scan.append(run_op(f"scan p_bar={p_bar:.6g}", search))
            if scan[-1].status == "ok":
                solvable.append(p_bar)
        if not solvable:
            raise RuntimeError("the constrained search failed at every budget")
        n = len(solvable)
        self.inputs = [(solvable[i * n // BUDGET_POINTS], int(self.rng.integers(2**31 - 2)))
                       for i in range(BUDGET_POINTS)]
        return scan

    @staticmethod
    def _point(model, p_bar):
        return replace(model, params=replace(model.params, p_bar=p_bar))

    def op(self, inp, tag):
        p_bar, sim_seed = inp
        counters = {}

        def run():
            point = self._point(ehsched.load_model(self.cfg), p_bar)
            sol = ehsched.solve_constrained(self.solver_cfg, point)
            counters["achieved_b"] = sol.achieved_b

            def simulate(n_slots, seed):
                out = ehsched.run_simulation(
                    sol.policy, point, ehsched.SimConfig(n_slots=n_slots, seed=seed))
                return out.mean_grid_power, out.mean_grid_power_se

            return (check_budget_k(p_bar, sol.achieved_k,
                                   k_tolerance(self.solver_cfg, p_bar))
                    + check_simulated_k(sol.achieved_k, simulate, sim_seed))

        res = run_op(f"p_bar={p_bar:.6g}", run)
        res.counters = counters
        return res

    def check_pass(self, results):
        solved = {(p_bar, r.counters["achieved_b"]): r
                  for (p_bar, _), r in zip(self.inputs, results)
                  if "achieved_b" in r.counters}
        rising = set(budget_order_violations(list(solved)))
        for (p_bar, b), r in solved.items():
            if p_bar in rising:
                r.status = "check"
                r.error = ",".join(filter(None, [r.error, "BudgetOrder"]))
                r.detail += "; mean queue rose with the budget"


class SweepChannel(Workload):
    """ehsched sweep over the channel axis, one point per call, all three
    baselines, one worker."""

    name = "sweep-channel"
    config = "channel.json"

    def __init__(self, root, seed, workdir):
        super().__init__(root, seed, workdir)
        model = ehsched.load_model(self.load_config())
        self.p_bar = model.params.p_bar
        self.mean_arrival = float(model.arrival.stationary()
                                  @ np.asarray(model.arrival.values))
        self.sim_seed = int(self.rng.integers(2**31 - 1))
        self.inputs = CHANNEL_POINTS.split(",")

    def _argv(self, out, n_slots, seed, points):
        return ["sweep", "--config", self.config_path, "--out", out,
                "--axis", "channel", "--points", points, "--n-workers", "1",
                "--n-slots", n_slots, "--seed", seed]

    def op(self, hbar, tag):
        out = self.workdir / f"sweep-{tag}"
        label = f"hbar={hbar}"
        try:
            rc = _cli(self._argv(out, CHANNEL_SLOTS, self.sim_seed, hbar))
        except Exception as exc:
            return raised(label, exc)
        if rc != 0:
            return OpResult(label, "check", "ExitCode", f"ehsched sweep exited {rc}")
        with open(out / "sweep_channel.csv") as fh:
            rows = [{key: float(v) for key, v in row.items()}
                    for row in csv.DictReader(fh)]
        if len(rows) != 1:
            return OpResult(label, "check", "RowCount", f"{len(rows)} sweep rows")
        res = run_op(label, lambda: check_sweep_row(rows[0], self.mean_arrival))
        res.counters["mixed_over_budget"] = int(rows[0]["mean_grid_power_mixed"]
                                                > self.p_bar)
        return res


class CertifyDesk(Workload):
    """ehsched verify on desk at every price of the acceptance grid."""

    name = "certify-desk"
    config = "desk.json"

    def __init__(self, root, seed, workdir):
        super().__init__(root, seed, workdir)
        # the seed orders the grid, so runs start their passes at other prices
        self.inputs = [float(b) for b in self.rng.permutation(CERTIFY_GRID)]

    def op(self, beta, tag):
        out = self.workdir / f"verify-{tag}"
        fails = []

        def run():
            rc = _cli(["verify", "--config", self.config_path, "--out", out,
                       "--beta", repr(beta)])
            path = out / "certificates.json"
            reports = json.loads(path.read_text()) if path.exists() else None
            fails.extend(r for r in reports or () if r["status"] == "fail")
            return check_battery(rc, reports)

        # a battery that raises is a failed check, even with a typed error
        res = run_op(f"beta={beta:g}", run, typed_status="check")
        res.counters["fail_verdicts"] = len(fails)
        return res


class ExactEngine(Workload):
    """The exact engine's three jobs in one pass: solve-large's solve, the
    budget-curve points and the certify-desk batteries, each input tagged
    with the part it belongs to."""

    name = "exact-engine"
    config = "desk.json"

    def __init__(self, root, seed, workdir):
        super().__init__(root, seed, workdir)
        self.parts = {part.name: part(root, seed, workdir)
                      for part in (SolveLarge, BudgetCurve, CertifyDesk)}

    def prepare(self):
        # the scan warms the desk stack; the first solve runs cold and
        # counts as one of the solve's repetitions
        scan = self.parts["budget-curve"].prepare()
        self.inputs = [(name, inp) for name, part in self.parts.items()
                       for inp in part.inputs]
        return scan

    def op(self, inp, tag):
        name, part_inp = inp
        return self.parts[name].op(part_inp, tag)

    def check_pass(self, results):
        for name, part in self.parts.items():
            part.check_pass([r for (n, _), r in zip(self.inputs, results) if n == name])


WORKLOADS = {w.name: w for w in (ExactEngine, SweepChannel)}
