"""Self-tests of the benchmark: span arithmetic, the correctness checks and
the wrappers. Run with ``python3 -m pytest perfbench -q`` from the root."""

from __future__ import annotations

import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import ehsched  # noqa: E402
import ehsched.cli  # noqa: E402
import layers  # noqa: E402
import workloads as wl  # noqa: E402
from spans import Patch, Recorder, Span, self_times  # noqa: E402

DESK = ROOT / "configs" / "desk.json"


def _span(i, name, start, end, parent=None):
    return Span(i, name, start, end, parent, "r")


def test_self_time_subtracts_children_once():
    spans = [
        _span(0, "bench.op", 0.0, 10.0),
        _span(1, "cli.main", 1.0, 9.0, parent=0),
        _span(2, "mdp.rvi", 2.0, 5.0, parent=1),
        _span(3, "mdp.build", 2.5, 3.5, parent=2),
        _span(4, "mdp.eval", 6.0, 8.0, parent=1),
    ]
    own = self_times(spans)
    assert own == {0: 2.0, 1: 3.0, 2: 2.0, 3: 1.0, 4: 2.0}
    assert sum(own.values()) == spans[0].duration


def test_self_time_counts_overlapping_children_as_their_union():
    spans = [_span(0, "a.x", 0.0, 10.0), _span(1, "b.y", 1.0, 4.0, parent=0),
             _span(2, "b.z", 3.0, 6.0, parent=0), _span(3, "b.w", 9.0, 12.0, parent=0)]
    assert self_times(spans)[0] == 10.0 - 5.0 - 1.0


def test_layer_metrics_split_rvi_from_the_build_it_calls():
    spans = [
        _span(0, "bench.op", 0.0, 10.0),
        _span(1, "mdp.rvi", 0.0, 8.0, parent=0),
        _span(2, "mdp.build", 0.0, 3.0, parent=1),
    ]
    spans[1].attrs["iters"] = 100
    spans[2].attrs.update(n_sa=7, bytes=2_000_000)
    m = layers.layer_metrics(spans, n_passes=1)
    assert m["mdp.rvi_s"] == 5.0
    assert m["mdp.rvi_sweep_ms"] == 50.0
    assert m["mdp.build_s"] == 3.0
    assert m["mdp.operator_mb"] == 2.0
    assert m["bench.self_s"] == 2.0
    assert m["trace.self_coverage"] == 0.8


def test_budget_check_rejects_k_off_by_twice_the_tolerance():
    cfg = ehsched.ConstrainedSolverConfig()
    p_bar = 0.12
    k_tol = wl.k_tolerance(cfg, p_bar)
    assert wl.check_budget_k(p_bar, p_bar + 0.5 * k_tol, k_tol) == []
    problems = wl.check_budget_k(p_bar, p_bar + 2 * k_tol, k_tol)
    assert [kind for kind, _ in problems] == ["KOffBudget"]


def test_simulation_check_confirms_a_miss_on_a_longer_run():
    calls = []

    def simulate(answers):
        def run(n_slots, seed):
            calls.append((n_slots, seed))
            return answers[len(calls) - 1]
        return run

    assert wl.check_simulated_k(0.1, simulate([(0.1 + 0.002, 0.002)]), 7) == []
    assert calls == [(wl.BUDGET_SIM_SLOTS, 7)]
    calls.clear()
    # a screening miss that the longer run does not confirm
    assert wl.check_simulated_k(0.1, simulate([(0.12, 0.002), (0.1005, 0.0007)]), 7) == []
    assert calls == [(wl.BUDGET_SIM_SLOTS, 7), (10 * wl.BUDGET_SIM_SLOTS, 8)]
    calls.clear()
    # a biased simulation misses both runs
    problems = wl.check_simulated_k(0.1, simulate([(0.12, 0.002), (0.12, 0.0007)]), 7)
    assert [kind for kind, _ in problems] == ["SimulatedKOff"]


def test_budget_order_check_rejects_a_rising_queue():
    assert wl.budget_order_violations([(0.1, 2.0), (0.2, 1.5), (0.15, 1.8)]) == []
    assert wl.budget_order_violations([(0.1, 2.0), (0.2, 1.9), (0.15, 1.8)]) == [0.2]


def _sweep_row(radical, mixed, conservative, se=0.05):
    row = {"hbar": 0.3}
    for kind, q in (("radical", radical), ("mixed", mixed),
                    ("conservative", conservative)):
        row[f"mean_queue_{kind}"] = q
        row[f"mean_queue_se_{kind}"] = se
    return row


def test_sweep_check_rejects_swapped_queue_ordering():
    assert wl.check_sweep_row(_sweep_row(14.0, 14.5, 15.3), 14.0) == []
    problems = wl.check_sweep_row(_sweep_row(14.0, 15.3, 14.5), 14.0)
    assert [kind for kind, _ in problems] == ["QueueOrder"]
    problems = wl.check_sweep_row(_sweep_row(15.0, 15.3, 15.5), 14.0)
    assert [kind for kind, _ in problems] == ["RadicalQueue"]


def test_certificate_check_rejects_a_raising_battery_and_a_short_one():
    def raising():
        raise FloatingPointError("certificate blew up")

    res = wl.run_op("beta=1", raising, typed_status="check")
    assert (res.status, res.error) == ("check", "FloatingPointError")
    assert wl.check_battery(4, [{}] * 9) == []
    assert [k for k, _ in wl.check_battery(4, [{}] * 8)] == ["ReportCount"]
    assert [k for k, _ in wl.check_battery(1, None)] == ["ExitCode"]


def test_solve_check_rejects_gain_outside_its_bounds():
    ev = {"gain_j": 1.0, "gain_bounds": [1.0 - 4e-10, 1.0 + 4e-10]}
    assert wl.check_solve(0, ev, 1e-9) == []
    assert [k for k, _ in wl.check_solve(0, dict(ev, gain_j=1.1), 1e-9)] == [
        "GainOutsideBounds"]
    assert [k for k, _ in wl.check_solve(3, None, 1e-9)] == ["ExitCode"]


def _target_bindings():
    """Every (module, attribute) in the package bound to a wrapped function."""
    import importlib

    originals = {id(getattr(importlib.import_module(m), a))
                 for m, a, _, _ in layers.TARGETS}
    return {(name, key): value
            for name, mod in sys.modules.items()
            if name == "ehsched" or name.startswith("ehsched.")
            for key, value in vars(mod).items() if id(value) in originals}


def test_unwrapping_restores_the_original_function_objects():
    before = _target_bindings()
    assert ("ehsched.constrained", "relative_value_iteration") in before
    with Patch(Recorder("t"), layers.TARGETS):
        import ehsched.constrained as constrained

        assert constrained.relative_value_iteration is not before[
            ("ehsched.constrained", "relative_value_iteration")]
    after = _target_bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_traced_cli_solve_records_nested_spans(tmp_path):
    rec = Recorder("t")
    with Patch(rec, layers.TARGETS):
        assert ehsched.cli.main(["solve", "--config", str(DESK), "--out",
                                 str(tmp_path), "--beta", "1.0"]) == 0
    assert rec.spans[0].name == "cli.main" and rec.spans[0].parent is None
    by_id = {s.id: s for s in rec.spans}
    for s in rec.spans[1:]:
        assert by_id[s.parent].start <= s.start <= s.end <= by_id[s.parent].end
    layers_seen = {s.layer for s in rec.spans}
    assert {"cli", "model", "mdp", "io"} <= layers_seen
    assert all(by_id[s.parent].layer == "mdp" for s in rec.spans
               if s.name == "mdp.build")
    written = sum(s.attrs.get("bytes", 0) for s in rec.spans if s.layer == "io")
    assert written == sum(p.stat().st_size for p in tmp_path.iterdir())


def test_a_crash_that_is_not_a_typed_error_makes_the_run_incorrect(tmp_path,
                                                                   monkeypatch):
    import run

    def crash(argv):
        raise IndexError("index 5544 is out of bounds")

    monkeypatch.setattr(ehsched.cli, "main", crash)
    solve = wl.SolveLarge(ROOT, 1, tmp_path)
    op = solve.op(solve.inputs[0], "0-0")
    assert (op.status, op.error) == ("check", "IndexError")
    assert run.verdict([], [op]) == {"correct": False, "attempted": 1, "failed": 1}


def test_scan_lists_failing_budgets_and_keeps_them_out_of_the_timed_inputs(
        tmp_path, monkeypatch):
    import run

    def search(cfg, model):
        if 0.10 < model.params.p_bar < 0.16:
            raise ehsched.ConstrainedSearchError("every straddling mixture misses")
        return None

    monkeypatch.setattr(ehsched, "solve_constrained", search)
    budget = wl.BudgetCurve(ROOT, 3, tmp_path)
    scan = budget.prepare()
    failed = [op for op in scan if op.status != "ok"]
    assert failed and all(op.status == "error" for op in failed)
    assert len(budget.inputs) == wl.BUDGET_POINTS
    assert all(not 0.10 < p < 0.16 for p, _ in budget.inputs)
    assert run.verdict(scan, []) == {"correct": True, "attempted": 0, "failed": 0}

    def broken(cfg, model):
        raise np.linalg.LinAlgError("singular matrix")

    monkeypatch.setattr(ehsched, "solve_constrained", broken)
    op = budget.op(budget.inputs[0], "0-0")
    assert (op.status, op.error) == ("check", "LinAlgError")
    assert not run.verdict(scan, [op])["correct"]


def test_a_pass_whose_queue_rises_with_the_budget_fails_its_check(tmp_path):
    budget = wl.BudgetCurve(ROOT, 3, tmp_path)
    budget.inputs = [(0.1, 1), (0.15, 2), (0.2, 3)]
    results = [wl.OpResult(f"p_bar={p}", "ok", counters={"achieved_b": b})
               for p, b in ((0.1, 2.0), (0.15, 1.5), (0.2, 1.7))]
    budget.check_pass(results)
    assert [(r.status, r.error) for r in results] == [
        ("ok", None), ("ok", None), ("check", "BudgetOrder")]


def test_the_exact_engine_routes_each_pass_to_the_part_it_checks(tmp_path,
                                                                monkeypatch):
    monkeypatch.setattr(ehsched, "solve_constrained", lambda cfg, model: None)
    exact = wl.ExactEngine(ROOT, 5, tmp_path)
    exact.prepare()
    kinds = [name for name, _ in exact.inputs]
    assert kinds == (["solve-large"] + ["budget-curve"] * wl.BUDGET_POINTS
                     + ["certify-desk"] * len(wl.CERTIFY_GRID))
    # a pass whose budget points show a rising queue; the other parts are ok
    results = [wl.OpResult(name, "ok") for name in kinds]
    budget_results = results[1:1 + wl.BUDGET_POINTS]
    for i, r in enumerate(budget_results):
        r.counters["achieved_b"] = 2.0 - 0.1 * i
    budget_results[-1].counters["achieved_b"] = 5.0
    exact.check_pass(results)
    assert [r.status for r in results].count("check") == 1
    assert budget_results[-1].error == "BudgetOrder"


class _Counting(wl.Workload):
    """A workload whose operations take a fixed time per input, plus a
    delay on the first pass."""

    name = "counting"

    def __init__(self, costs):
        self.inputs = list(costs)
        self.calls = []
        self.passes = []

    def op(self, inp, tag):
        import time

        first = not any(c[0] == inp for c in self.calls)
        self.calls.append((inp, tag))
        time.sleep(inp + (0.02 if first else 0.0))
        return wl.OpResult(f"x={inp}", "ok")

    def check_pass(self, results):
        self.passes.append(len(results))


def test_passes_time_every_input_and_report_the_mean_pass():
    import run

    work = _Counting([0.001, 0.004])
    times, ops = run.run_passes(work, 0.15, False, Recorder("t"), [])
    n0, n1 = map(len, times[False])
    assert n1 >= 2 and n0 in (n1, n1 + 1)  # the last pass may stop early
    assert times[True] == [[], []]
    assert sum(work.passes) == len(ops) == n0 + n1
    assert [tag for _, tag in work.calls[:4]] == ["0-0", "0-1", "1-0", "1-1"]
    per_pass = run.pass_seconds(times[False])
    assert per_pass == (statistics.fmean(times[False][0])
                        + statistics.fmean(times[False][1]))
    # the slow first pass counts once; 5 ms of slack for sleep's overshoot
    assert 0.005 <= per_pass < 0.005 + 0.04 / n1 + 0.005


def test_traced_passes_alternate_and_restore_the_package():
    import run

    work = _Counting([0.001])
    rec = Recorder("t")
    before = _target_bindings()
    times, ops = run.run_passes(work, 0.0, True, rec, layers.TARGETS)
    assert len(times[False][0]) == len(times[True][0]) == 1
    assert [s.name for s in rec.spans] == ["bench.op"]
    after = _target_bindings()
    assert all(after[k] is before[k] for k in before)


def test_traced_load_model_counts_states_without_enumerating_them():
    # channel.json has 32M states: enumerating them raises CapacityError
    rec = Recorder("t")
    with Patch(rec, layers.TARGETS):
        ehsched.load_model(str(ROOT / "configs" / "channel.json"))
    assert [(s.name, s.attrs["n_states"]) for s in rec.spans] == [
        ("model.load", 101 * 2501 * 8 * 4 * 4)]
