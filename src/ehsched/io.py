"""Deterministic artifact writers: CSV and JSON with stable formatting.

Every writer produces byte-identical output for identical inputs — floats are
rendered with repr-shortest (JSON, where a non-finite float is null) or
%.12g (CSV), keys are sorted, and nothing here looks at the clock. That property is load-bearing: reruns of the
same seeded command are compared byte-for-byte.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from .mdp import MixedPolicy, PolicyEvaluation, SolveResult, TablePolicy
from .model import Model


def format_float(x: float) -> str:
    return f"{float(x):.12g}"


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        # strict JSON has no NaN or Infinity
        return float(obj) if math.isfinite(obj) else None
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    return obj


def dump_json(obj) -> str:
    return json.dumps(_jsonable(obj), indent=2, sort_keys=True,
                      allow_nan=False) + "\n"


def write_json(path, obj) -> Path:
    path = Path(path)
    path.write_text(dump_json(obj))
    return path


def columns_to_csv(columns: dict) -> str:
    """Render a dict of equal-length columns as CSV, floats at %.12g.

    A column is any sequence; a numpy array is read through tolist(). A
    column of Python floats is formatted at once; any other column cell by
    cell (format_float for floats, str for the rest). Cells are numbers and
    names: none needs quoting.
    """
    cells = []
    for col in columns.values():
        col = col.tolist() if isinstance(col, np.ndarray) else list(col)
        if all(type(v) is float for v in col):
            cells.append([f"{v:.12g}" for v in col])
        else:
            cells.append([format_float(v) if isinstance(v, (float, np.floating))
                          else str(v) for v in col])
    lines = [",".join(columns), *map(",".join, zip(*cells))]
    return "\n".join(lines) + "\n"


def write_csv(path, rows) -> Path:
    """Write a dict of equal-length columns, or a list of dict rows keyed
    like the first row, as CSV."""
    if not isinstance(rows, dict):
        rows = list(rows)
        rows = {k: [row[k] for row in rows] for k in (rows[0] if rows else ())}
    path = Path(path)
    path.write_text(columns_to_csv(rows))
    return path


# ---------------------------------------------------------------------------
# domain-object renderings


def policy_columns(policy: TablePolicy, model: Model, values=None) -> dict:
    """One column per field, one cell per state: coordinates, chosen action,
    optionally the value.

    The coordinates come from the state space's index arrays; every cell is
    a Python int or float computed by the same expression as
    StateSpace.state_of (e_b = ib * delta_e, w = wq * delta_e / tau), so the
    CSV bytes match a per-state rendering.
    """
    space = model.space
    columns = {
        "state": range(space.n_states),
        "q": space.iq.tolist(),
        "h": np.asarray(space.h_values, dtype=float)[space.ih].tolist(),
        "a": space.arrival_pkts[space.ia].tolist(),
        "e_b": (space.ib * model.params.delta_e).tolist(),
        "e": np.asarray(model.harvest.values, dtype=float)[space.ie].tolist(),
        "r": np.asarray(policy.r).astype(np.int64).tolist(),
        "w": (np.asarray(policy.w_quanta, dtype=float) * policy.delta_e
              / policy.tau).tolist(),
    }
    if values is not None:
        columns["value"] = np.asarray(values, dtype=float).tolist()
    return columns


def evaluation_dict(ev: PolicyEvaluation) -> dict:
    return {
        "gain_j": ev.gain_j,
        "mean_queue_b": ev.mean_queue_b,
        "mean_grid_k": ev.mean_grid_k,
        "beta": ev.beta,
        "overflow_rate": ev.overflow_rate,
        "battery_spill_rate": ev.battery_spill_rate,
    }


def solve_trace_rows(result: SolveResult) -> list[dict]:
    return [{"iteration": it, "span": span, "gain_lower": lo, "gain_upper": hi}
            for it, span, lo, hi in result.trace]


def search_trace_rows(trace) -> list[dict]:
    return [{"iteration": t.iteration, "beta": t.beta, "gain_j": t.gain_j,
             "mean_queue_b": t.mean_queue_b, "mean_grid_k": t.mean_grid_k}
            for t in trace]


def sim_result_dict(res) -> dict:
    return {
        "mean_queue": res.mean_queue,
        "mean_grid_power": res.mean_grid_power,
        "mean_queue_se": res.mean_queue_se,
        "mean_grid_power_se": res.mean_grid_power_se,
        "overflow_fraction": res.overflow_fraction,
        "overflow_rate": res.overflow_rate,
        "battery_spill_rate": res.battery_spill_rate,
        "max_grid_power": res.max_grid_power,
        "n_slots": res.n_slots,
        "warmup": res.warmup,
        "seed": res.seed,
    }


def write_policy_artifacts(out_dir: Path, policy, model: Model,
                           values=None) -> list[str]:
    """Write the policy table(s); mixed policies get one file per component
    plus the weight in the accompanying evaluation JSON."""
    written = []
    if isinstance(policy, MixedPolicy):
        write_csv(out_dir / "policy_plus.csv",
                  policy_columns(policy.policy_plus, model, values))
        write_csv(out_dir / "policy_minus.csv",
                  policy_columns(policy.policy_minus, model))
        written += ["policy_plus.csv", "policy_minus.csv"]
    else:
        write_csv(out_dir / "policy.csv", policy_columns(policy, model, values))
        written.append("policy.csv")
    return written
