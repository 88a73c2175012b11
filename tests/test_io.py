import json

import numpy as np
import pytest

from ehsched.heuristics import HeuristicKind, make_heuristic
from ehsched.io import (
    columns_to_csv,
    dump_json,
    policy_columns,
    write_csv,
    write_policy_artifacts,
)
from ehsched.mdp import MixedPolicy, SolverConfig, relative_value_iteration
from ehsched.sim import SimConfig, run_simulation

from helpers import desk_model, large_desk_model, rows_to_csv


def per_state_policy_rows(policy, model, values=None):
    """Reference rendering: one state_of call per state."""
    space = model.space
    rows = []
    for i in range(space.n_states):
        x = space.state_of(i)
        row = {"state": i, "q": x.q, "h": x.h, "a": x.a, "e_b": x.e_b,
               "e": x.e, "r": int(policy.r[i]),
               "w": float(policy.w_quanta[i]) * policy.delta_e / policy.tau}
        if values is not None:
            row["value"] = float(values[i])
        rows.append(row)
    return rows


@pytest.mark.parametrize("make", [desk_model, large_desk_model],
                         ids=["desk", "desk-3000"])
@pytest.mark.parametrize("with_values", [False, True])
def test_policy_rows_match_per_state_rendering(make, with_values):
    m = make()
    res = relative_value_iteration(SolverConfig(beta=1.3), m)
    values = res.values.values if with_values else None
    columns = policy_columns(res.policy, m, values)
    got = [dict(zip(columns, cells)) for cells in zip(*columns.values())]
    want = per_state_policy_rows(res.policy, m, values)
    assert got == want
    for g, w in zip(got, want):
        assert [type(v) for v in g.values()] == [type(v) for v in w.values()]
    assert rows_to_csv(got) == rows_to_csv(want)
    assert np.unique([row["w"] for row in got]).size > 1


@pytest.mark.parametrize("make", [desk_model, large_desk_model],
                         ids=["desk", "desk-3000"])
def test_policy_csvs_written_by_column_match_dict_rows(make, tmp_path):
    m = make()
    plus = relative_value_iteration(SolverConfig(beta=1.3), m)
    minus = relative_value_iteration(SolverConfig(beta=13.0), m).policy
    values = plus.values.values
    assert write_policy_artifacts(tmp_path, plus.policy, m, values) == ["policy.csv"]
    assert (tmp_path / "policy.csv").read_text() == rows_to_csv(
        per_state_policy_rows(plus.policy, m, values))
    write_policy_artifacts(tmp_path, MixedPolicy(plus.policy, minus, 0.5), m, values)
    assert (tmp_path / "policy_plus.csv").read_text() == rows_to_csv(
        per_state_policy_rows(plus.policy, m, values))
    assert (tmp_path / "policy_minus.csv").read_text() == rows_to_csv(
        per_state_policy_rows(minus, m))


def test_columns_to_csv_matches_rows_to_csv_on_mixed_cells():
    columns = {"i": [0, 1, 2], "x": [0.1, 1e-20, float(np.float32(2.5))],
               "y": [np.float64(1 / 3), 2.0, 7], "z": ["a", "b", "c"]}
    rows = [dict(zip(columns, cells)) for cells in zip(*columns.values())]
    assert columns_to_csv(columns) == rows_to_csv(rows)


def test_sim_trace_columns_match_per_slot_rows(tmp_path):
    m = desk_model()
    res = run_simulation(make_heuristic(HeuristicKind("mixed", xi=0.4), m), m,
                         SimConfig(n_slots=3_000, seed=3, record_trace=True))
    path = write_csv(tmp_path / "sim_trace.csv",
                     {"slot": range(res.n_slots), **res.trace})
    rows = [{"slot": t, **{k: float(v[t]) for k, v in res.trace.items()}}
            for t in range(res.n_slots)]
    assert path.read_text() == rows_to_csv(rows)


def test_write_csv_renders_dict_rows_as_columns(tmp_path):
    rows = [{"abar": 0.0, "n": 3, "g": np.float64(1 / 3)},
            {"abar": 1.5, "n": 4, "g": 2.0}]
    path = write_csv(tmp_path / "rows.csv", rows)
    assert path == tmp_path / "rows.csv"
    assert path.read_text() == rows_to_csv(rows)
    assert write_csv(tmp_path / "empty.csv", []).read_text() == rows_to_csv([])


def test_dump_json_writes_non_finite_floats_as_null():
    obj = {"nan": float("nan"), "inf": np.float64("inf"), "row": [-np.inf, 0.5],
           "array": np.array([1.25, np.nan])}
    assert json.loads(dump_json(obj)) == {"nan": None, "inf": None,
                                          "row": [None, 0.5],
                                          "array": [1.25, None]}
