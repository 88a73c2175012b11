"""Which package functions the traced run wraps, and the per-layer metrics
derived from their spans.

A span's name is ``<layer>.<what>``; the layer is one of the package's
modules (cli, model, mdp, constrained, heuristics, sim, verify, io) or
``bench`` for the benchmark's own root span around each traced operation.
Heuristic actors are not wrapped: they run once per simulated slot, so a
wrapper would cost more than the call. Their cost shows in the simulator's
slots/s per policy kind.
"""

from __future__ import annotations

import numpy as np

from spans import Span, self_times

VERIFY_CHECKS = (
    "check_no_overflow_waste",
    "check_value_shape",
    "check_necessary_conditions",
    "check_special_states",
    "check_beta_monotonicity",
    "check_policy_monotonicity",
    "check_greedy_regimes",
)
SIM_KINDS = ("radical", "conservative", "mixed", "table")


def operator_bytes(actions) -> int:
    """Computed bytes of every array the ActionSpace holds (sparse matrices
    count data, indices and index pointer)."""
    total = 0
    for value in vars(actions).values():
        if isinstance(value, np.ndarray):
            total += value.nbytes
        elif hasattr(value, "indptr") and hasattr(value, "data"):
            total += value.data.nbytes + value.indices.nbytes + value.indptr.nbytes
    return total


def policy_kind(policy) -> str:
    """Actor kind as the simulator sees it: a table lookup, the mixed
    heuristic object, or a plain callable named by the baseline it calls."""
    cls = type(policy).__name__
    if cls in ("TablePolicy", "MixedPolicy"):
        return "table"
    if cls == "MixedHeuristic":
        return "mixed"
    names = getattr(getattr(policy, "__code__", None), "co_names", ())
    for kind in ("radical", "conservative"):
        if f"{kind}_policy" in names:
            return kind
    return "callable"


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _post_model(result, args, kwargs):
    # counted from the dimensions: touching result.space would enumerate the
    # states, which simulation-only configs never do (and cannot afford)
    p = result.params
    n = (p.q_max + 1) * p.n_battery_levels
    for chain in (result.channel, result.arrival, result.harvest):
        n *= len(chain.values)
    return {"n_states": n}


def _post_build(result, args, kwargs):
    return {"n_sa": int(result.n_sa), "bytes": operator_bytes(result)}


def _post_iters(result, args, kwargs):
    return {"iters": int(result.n_iters)}


def _post_sim(result, args, kwargs):
    cfg = _arg(args, kwargs, 2, "cfg")
    return {"slots": int(cfg.n_slots),
            "kind": policy_kind(_arg(args, kwargs, 0, "policy"))}


def _post_write(result, args, kwargs):
    return {"bytes": result.stat().st_size}


TARGETS = [
    ("ehsched.cli", "main", "cli.main", None),
    ("ehsched.model", "load_model", "model.load", _post_model),
    ("ehsched.mdp", "build_action_space", "mdp.build", _post_build),
    ("ehsched.mdp", "relative_value_iteration", "mdp.rvi", _post_iters),
    ("ehsched.mdp", "discounted_value_iteration", "mdp.dvi", _post_iters),
    ("ehsched.mdp", "discounted_backup", "mdp.backup", None),
    ("ehsched.mdp", "evaluate_policy", "mdp.eval", None),
    ("ehsched.constrained", "solve_constrained", "constrained.solve", None),
    ("ehsched.constrained", "beta_star_search", "constrained.search", None),
    ("ehsched.heuristics", "calibrate_xi", "heuristics.calibrate_xi", None),
    ("ehsched.heuristics", "solve_reduced_rate_mdp", "heuristics.reduced_solve", None),
    ("ehsched.sim", "run_simulation", "sim.run", _post_sim),
    ("ehsched.sim", "sweep_arrival", "sim.sweep", None),
    ("ehsched.sim", "sweep_budget", "sim.sweep", None),
    ("ehsched.sim", "sweep_channel", "sim.sweep", None),
    ("ehsched.verify", "run_all_checks", "verify.run_all_checks", None),
    *[("ehsched.verify", name, f"verify.{name}", None) for name in VERIFY_CHECKS],
    ("ehsched.io", "write_json", "io.write_json", _post_write),
    ("ehsched.io", "write_csv", "io.write_csv", _post_write),
    ("ehsched.io", "write_policy_artifacts", "io.write_policy", None),
]

def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def layer_metrics(spans: list[Span], n_passes: float) -> dict[str, float]:
    """Per-layer metrics from the spans of n_passes traced passes over the
    inputs (the last one may be partial; run.py adds the metrics that come
    from the operations' results rather than from spans).

    Times and counts are per traced pass; sizes are maxima; rates and
    percentiles pool every span of the run. Times are self times unless the
    metric says otherwise: constrained.search_s, constrained.point_s_p50,
    mdp.dvi_s and verify.check_s.* include their children.
    """
    own = self_times(spans)
    by_name: dict[str, list[Span]] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    def named(name):
        return by_name.get(name, [])

    def self_s(*names):
        return sum(own[s.id] for n in names for s in named(n))

    def total_s(name):
        return sum(s.duration for s in named(name))

    def attr_sum(name, key):
        return sum(s.attrs.get(key, 0) for s in named(name))

    def attr_max(name, key):
        return max((s.attrs.get(key, 0) for s in named(name)), default=0)

    per = 1.0 / n_passes
    m: dict[str, float] = {}
    m["model.load_s"] = self_s("model.load") * per
    m["model.n_states"] = attr_max("model.load", "n_states")
    m["mdp.build_calls"] = len(named("mdp.build")) * per
    m["mdp.build_s"] = self_s("mdp.build") * per
    m["mdp.n_sa"] = attr_max("mdp.build", "n_sa")
    m["mdp.operator_mb"] = attr_max("mdp.build", "bytes") / 1e6
    rvi_s, rvi_iters = self_s("mdp.rvi"), attr_sum("mdp.rvi", "iters")
    m["mdp.rvi_calls"] = len(named("mdp.rvi")) * per
    m["mdp.rvi_iters"] = rvi_iters * per
    m["mdp.rvi_s"] = rvi_s * per
    m["mdp.rvi_sweep_ms"] = 1e3 * _ratio(rvi_s, rvi_iters)
    m["mdp.eval_calls"] = len(named("mdp.eval")) * per
    m["mdp.eval_s"] = self_s("mdp.eval") * per
    sweeps_ms = np.array([1e3 * s.duration for s in named("mdp.backup")])
    m["mdp.dvi_iters"] = sweeps_ms.size * per
    m["mdp.dvi_s"] = self_s("mdp.dvi", "mdp.backup") * per
    m["mdp.dvi_sweep_ms_p50"] = float(np.percentile(sweeps_ms, 50)) if sweeps_ms.size else 0.0
    m["mdp.dvi_sweep_ms_p99"] = float(np.percentile(sweeps_ms, 99)) if sweeps_ms.size else 0.0

    points = named("constrained.solve")
    point_ids = {s.id for s in points}
    parent_of = {s.id: s.parent for s in spans}

    def under_point(span):
        p = span.parent
        while p is not None:
            if p in point_ids:
                return True
            p = parent_of[p]
        return False

    m["constrained.probes"] = sum(under_point(s) for s in named("mdp.rvi")) * per
    m["constrained.search_s"] = total_s("constrained.solve") * per
    m["constrained.point_s_p50"] = (float(np.median([s.duration for s in points]))
                                    if points else 0.0)

    sims = named("sim.run")
    m["sim.calls"] = len(sims) * per
    m["sim.slots"] = attr_sum("sim.run", "slots") * per
    m["sim.s"] = self_s("sim.run") * per
    for kind in SIM_KINDS:
        of_kind = [s for s in sims if s.attrs.get("kind") == kind]
        m[f"sim.slots_per_s.{kind}"] = _ratio(sum(s.attrs["slots"] for s in of_kind),
                                              sum(own[s.id] for s in of_kind))
    for check in VERIFY_CHECKS:
        m[f"verify.check_s.{check}"] = total_s(f"verify.{check}") * per
    m["io.write_s"] = sum(own[s.id] for s in spans if s.layer == "io") * per
    m["io.bytes_written"] = (attr_sum("io.write_json", "bytes")
                             + attr_sum("io.write_csv", "bytes")) * per
    m["cli.self_s"] = self_s("cli.main") * per
    m["bench.self_s"] = self_s("bench.op") * per
    op_s = total_s("bench.op")
    layer_s = sum(own[s.id] for s in spans if s.layer != "bench")
    m["trace.self_coverage"] = _ratio(layer_s, op_s)
    return m
