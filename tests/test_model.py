import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ehsched.model import (
    Action,
    CapacityError,
    ConfigError,
    MarkovChainSpec,
    Model,
    ModelParams,
    StateSpace,
    SystemState,
    battery_draw_cap_quanta,
    load_model,
    model_to_config,
    power_inverse,
    required_power,
    required_power_table,
)

from helpers import feasible_actions, grid_power, index_of, step_battery, step_queue

# reference parameter set used throughout: tau=1, b=1, N=5 (theta = 2 ln2 / 5),
# rho=1, sigma2=1, C=1
REF = ModelParams(tau=1.0, b=1.0, n_uses=5.0, rho=1.0, sigma2=1.0, circuit_c=1.0,
                  q_max=20, e_max=10.0, delta_e=1.0)


def test_theta_value():
    assert REF.theta == pytest.approx(0.27726, abs=5e-6)


def test_required_power_reference_values():
    # reference values quoted to 5 decimals (computed with theta rounded to
    # 0.27726, hence the 2e-5 window around the exact-theta result)
    assert required_power(REF, h=1.0, r=0) == 0.0
    assert required_power(REF, h=1.0, r=1) == pytest.approx(1.31951, abs=2e-5)
    assert required_power(REF, h=0.5, r=2) == pytest.approx(2.48221, abs=2e-5)


def test_required_power_rejects_bad_gain():
    with pytest.raises(ValueError):
        required_power(REF, h=0.0, r=1)
    with pytest.raises(ValueError):
        required_power(REF, h=-1.0, r=1)


@pytest.mark.parametrize("name", ["channel", "desk", "fig4", "mixed_budget"])
def test_required_power_table_is_the_per_entry_function(name):
    from pathlib import Path

    from ehsched.sim import discretize_rayleigh
    m = load_model(Path(__file__).resolve().parents[1] / "configs" / f"{name}.json")
    p = m.params
    for h in [m.channel.values, *(discretize_rayleigh(mu, k).values
                                  for mu in (0.05, 0.7, 3.0) for k in (1, 8))]:
        want = np.array([[required_power(p, x, r) for r in range(p.q_max + 1)]
                         for x in h])
        assert required_power_table(p, h).tobytes() == want.tobytes()
    with pytest.raises(ValueError, match="positive"):
        required_power_table(p, (0.5, 0.0))


def test_required_power_circuit_jump():
    # cost of switching the radio on: P(h,1) - C is the pure transmit part
    p1 = required_power(REF, h=1.0, r=1)
    assert p1 - REF.circuit_c > 0.0
    assert required_power(REF, h=1.0, r=0) == 0.0


def test_power_inverse_reference_values():
    assert power_inverse(REF, h=0.5, budget=2.48221) == 2
    assert power_inverse(REF, h=1.0, budget=0.5) == 0
    assert power_inverse(REF, h=1.0, budget=0.0) == 0
    assert power_inverse(REF, h=0.7, budget=-3.0) == 0


def test_grid_power_reference_values():
    x = SystemState(q=5, h=0.5, a=0, e_b=10.0, e=0.0)
    assert grid_power(REF, x, r=2, w=1.0) == pytest.approx(1.48221, abs=2e-5)
    assert grid_power(REF, x, r=2, w=3.0) == 0.0
    assert grid_power(REF, x, r=0, w=0.0) == 0.0


def test_grid_power_rejects_infeasible_pairs():
    x = SystemState(q=1, h=1.0, a=0, e_b=2.0, e=0.0)
    with pytest.raises(ValueError):
        grid_power(REF, x, r=2, w=0.0)       # r > q
    with pytest.raises(ValueError):
        grid_power(REF, x, r=1, w=3.0)       # w tau > e_b


def test_step_queue_reference_values():
    assert step_queue(5, 2, 3, q_max=20) == (6, 0)
    for q, a in [(0, 0), (4, 2), (20, 7)]:
        assert step_queue(q, q, a, q_max=20) == (a, 0)
    assert step_queue(19, 0, 4, q_max=20) == (20, 3)
    with pytest.raises(ValueError):
        step_queue(3, 4, 0, q_max=20)


def test_step_battery_reference_values():
    assert step_battery(9.0, 2.0, 1.0, REF) == (8.0, 0.0)
    assert step_battery(9.0, 0.0, 5.0, REF) == (10.0, 4.0)
    assert step_battery(6.0, 6.0, 0.0, REF) == (0.0, 0.0)
    with pytest.raises(ValueError):
        step_battery(1.0, 2.0, 0.0, REF)


def test_enumerate_states_counts():
    params = ModelParams(q_max=5, e_max=3.0, delta_e=1.0, circuit_c=1.0)
    chans = MarkovChainSpec.iid((0.5, 1.5), (0.5, 0.5))
    arr = MarkovChainSpec.iid((0.0, 2.0), (0.5, 0.5))
    har = MarkovChainSpec.iid((0.0, 1.0), (0.5, 0.5))
    space = StateSpace(params, chans, arr, har)
    assert space.n_states == 6 * 2 * 2 * 4 * 2 == 192

    tiny = StateSpace(
        ModelParams(q_max=0, e_max=0.0, delta_e=1.0),
        MarkovChainSpec.iid((1.0,), (1.0,)),
        MarkovChainSpec.iid((0.0,), (1.0,)),
        MarkovChainSpec.iid((0.0,), (1.0,)),
    )
    assert tiny.n_states == 1


def test_enumerate_states_round_trip():
    params = ModelParams(q_max=3, e_max=2.0, delta_e=0.5, circuit_c=0.2)
    chans = MarkovChainSpec.iid((0.5, 1.0, 2.0), (0.3, 0.4, 0.3))
    arr = MarkovChainSpec.iid((0.0, 1.0), (0.6, 0.4))
    har = MarkovChainSpec.iid((0.0, 0.5, 1.0), (0.5, 0.3, 0.2))
    space = StateSpace(params, chans, arr, har)
    for i in range(space.n_states):
        assert index_of(space, space.state_of(i)) == i


def test_enumerate_states_capacity_limit():
    params = ModelParams(q_max=100, e_max=50.0, delta_e=1.0)
    c = MarkovChainSpec.iid((1.0,), (1.0,))
    a = MarkovChainSpec.iid((0.0, 1.0), (0.5, 0.5))
    with pytest.raises(CapacityError):
        StateSpace(params, c, a, c, max_states=1000)


def test_feasible_actions_reference_cases():
    x0 = SystemState(q=0, h=1.0, a=0, e_b=0.0, e=0.0)
    assert feasible_actions(x0, REF) == [Action(0, 0.0)]

    x = SystemState(q=2, h=1.0, a=0, e_b=2.0, e=0.0)
    assert len(feasible_actions(x, REF, restrict_w_to_power=False)) == 9

    big = ModelParams(tau=1.0, circuit_c=1.0, q_max=20, e_max=10.0, delta_e=1.0)
    x1 = SystemState(q=1, h=1.0, a=0, e_b=10.0, e=0.0)
    acts = feasible_actions(x1, big, restrict_w_to_power=True)
    by_rate = {}
    for act in acts:
        by_rate.setdefault(act.r, []).append(act.w)
    assert by_rate[0] == [0.0]
    # w for r=1 capped at required_power ~ 1.3195 -> grid values {0, 1}
    assert max(by_rate[1]) <= required_power(big, 1.0, 1)
    assert by_rate[1] == [0.0, 1.0]


def test_feasible_actions_restriction_is_subset():
    x = SystemState(q=3, h=0.8, a=1, e_b=4.0, e=1.0)
    on = set(feasible_actions(x, REF, restrict_w_to_power=True))
    off = set(feasible_actions(x, REF, restrict_w_to_power=False))
    assert on <= off
    for r in range(x.q + 1):
        assert Action(r, 0.0) in on


# ---------------------------------------------------------------------------
# property tests

gains = st.floats(min_value=0.05, max_value=20.0, allow_nan=False)
rates = st.integers(min_value=1, max_value=30)


@given(h=gains, r=rates)
def test_required_power_strictly_increasing_in_rate(h, r):
    assert required_power(REF, h, r + 1) > required_power(REF, h, r)


@given(h=gains, r=rates)
def test_required_power_decreasing_in_gain(h, r):
    assert required_power(REF, h, r) >= required_power(REF, h * 1.5, r)


@given(h=gains, budget=st.floats(min_value=0.0, max_value=1e6, allow_nan=False))
def test_power_inverse_is_floor_of_required_power(h, budget):
    r = power_inverse(REF, h, budget)
    assert r >= 0
    if r > 0:
        assert required_power(REF, h, r) <= budget + 1e-6
    assert required_power(REF, h, r + 1) > budget - 1e-6


@given(q=st.integers(0, 25), r=st.integers(0, 25), a=st.integers(0, 10))
def test_step_queue_stays_in_range(q, r, a):
    if r > q:
        with pytest.raises(ValueError):
            step_queue(q, r, a, q_max=25)
        return
    nxt, lost = step_queue(q, r, a, q_max=25)
    assert 0 <= nxt <= 25
    assert lost >= 0
    assert nxt + lost == q - r + a


@given(ib=st.integers(0, 10), wq=st.integers(0, 10), eq=st.integers(0, 10))
def test_step_battery_stays_on_grid(ib, wq, eq):
    params = ModelParams(q_max=5, e_max=5.0, delta_e=0.5)
    e_b, w, e = ib * 0.5, wq * 0.5, eq * 0.5
    if w > e_b:
        with pytest.raises(ValueError):
            step_battery(e_b, w, e, params)
        return
    nxt, spill = step_battery(e_b, w, e, params)
    assert 0.0 - 1e-12 <= nxt <= params.e_max + 1e-12
    assert abs(nxt / params.delta_e - round(nxt / params.delta_e)) < 1e-9
    assert nxt + spill == pytest.approx(e_b - w + e, abs=1e-12)


@given(q=st.integers(0, 4), ib=st.integers(0, 4))
def test_grid_power_decomposition(q, ib):
    x = SystemState(q=q, h=0.9, a=0, e_b=float(ib), e=0.0)
    for r, w in feasible_actions(x, REF, restrict_w_to_power=False):
        g = grid_power(REF, x, r, w)
        assert g >= 0.0
        assert g + w >= required_power(REF, x.h, r) - 1e-12
        if w <= required_power(REF, x.h, r):
            assert g + w == pytest.approx(required_power(REF, x.h, r), abs=1e-12)


# ---------------------------------------------------------------------------
# chain + config validation

def test_chain_rejects_bad_rows():
    with pytest.raises(ConfigError):
        MarkovChainSpec((1.0, 2.0), np.array([[0.5, 0.4], [0.5, 0.5]]))
    with pytest.raises(ConfigError):
        MarkovChainSpec((1.0, 2.0), np.array([[1.2, -0.2], [0.5, 0.5]]))
    with pytest.raises(ConfigError):
        MarkovChainSpec((2.0, 1.0), np.eye(2))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_chain_rejects_non_finite_entries(bad):
    with pytest.raises(ConfigError, match="levels must be finite"):
        MarkovChainSpec((1.0, bad), np.eye(2))
    with pytest.raises(ConfigError, match="levels must be finite"):
        MarkovChainSpec.iid((bad,), (1.0,))
    with pytest.raises(ConfigError, match="probabilities must be finite"):
        MarkovChainSpec((1.0, 2.0), np.array([[bad, 0.5], [0.5, 0.5]]))
    with pytest.raises(ConfigError, match="probabilities must be finite"):
        MarkovChainSpec.iid((1.0, 2.0), (bad, 1.0))


def test_chain_stationary_law():
    c = MarkovChainSpec((0.0, 1.0), np.array([[0.5, 0.5], [0.35, 0.65]]))
    pi = c.stationary()
    assert pi @ c.transition == pytest.approx(pi, abs=1e-12)
    assert pi.sum() == pytest.approx(1.0)
    assert c.mean() == pytest.approx(pi[1])


def test_model_cross_validation():
    params = ModelParams(q_max=1, e_max=1.0, delta_e=0.5)
    good = dict(
        channel=MarkovChainSpec.iid((1.0,), (1.0,)),
        arrival=MarkovChainSpec.iid((0.0, 1.0), (0.5, 0.5)),
        harvest=MarkovChainSpec.iid((0.0, 0.5), (0.5, 0.5)),
    )
    Model(params=params, **good)

    with pytest.raises(ConfigError):
        Model(params=params, **{**good, "arrival": MarkovChainSpec.iid((0.0, 2.0), (0.5, 0.5))})
    with pytest.raises(ConfigError):
        Model(params=params, **{**good, "arrival": MarkovChainSpec.iid((0.0, 0.5), (0.5, 0.5))})
    with pytest.raises(ConfigError):
        Model(params=params, **{**good, "harvest": MarkovChainSpec.iid((0.0, 0.3), (0.5, 0.5))})
    with pytest.raises(ConfigError):
        Model(params=params, **{**good, "channel": MarkovChainSpec.iid((-1.0, 1.0), (0.5, 0.5))})


def test_model_tables_are_built_once_read_only_and_without_states():
    from pathlib import Path
    m = load_model(Path(__file__).resolve().parents[1] / "configs" / "channel.json")
    p, h = m.params, m.channel.values
    assert m.cap_table is m.cap_table and m.rate_table is m.rate_table
    for r in (0, 1, 7, p.q_max):
        for ih in (0, len(h) - 1):
            assert m.power_table[ih, r] == required_power(p, h[ih], r)
            top = p.n_battery_levels - 1
            assert m.cap_table[ih, r] == battery_draw_cap_quanta(p, h[ih], r, top)
    assert m.rate_table.shape == (len(h), p.n_battery_levels)
    for table in (m.power_table, m.cap_table, m.rate_table):
        with pytest.raises(ValueError):
            table[0, 0] = 1
    # 32M states: the tables never enumerate them
    assert "space" not in vars(m)


def test_load_model_round_trip(tmp_path):
    cfg = {
        "params": {"tau": 1.0, "q_max": 2, "e_max": 1.0, "delta_e": 0.5,
                   "circuit_c": 0.1, "p_bar": 0.4},
        "channel": {"values": [0.5, 1.5], "transition": [[0.7, 0.3], [0.4, 0.6]]},
        "arrival": {"values": [0, 1], "probs": [0.5, 0.5]},
        "harvest": {"values": [0.0, 0.5], "probs": [0.6, 0.4]},
    }
    m = load_model(cfg)
    assert m.params.q_max == 2
    assert m.space.n_states == 3 * 2 * 2 * 3 * 2

    path = tmp_path / "model.json"
    path.write_text(__import__("json").dumps(model_to_config(m)))
    m2 = load_model(str(path))
    assert m2.params == m.params
    assert m2.channel.values == m.channel.values
    np.testing.assert_allclose(m2.channel.transition, m.channel.transition)


def test_load_model_names_bad_section():
    cfg = {
        "params": {"q_max": 2, "e_max": 1.0, "delta_e": 0.5},
        "channel": {"values": [0.5, 1.5], "transition": [[0.7, 0.3], [0.4, 0.7]]},
        "arrival": {"values": [0, 1], "probs": [0.5, 0.5]},
        "harvest": {"values": [0.0, 0.5], "probs": [0.6, 0.4]},
    }
    with pytest.raises(ConfigError, match="channel"):
        load_model(cfg)
    with pytest.raises(ConfigError, match="params"):
        load_model({**cfg, "params": {"q_max": 2, "e_max": 1.0, "delta_e": 0.5, "bogus": 1}})
    good = {**cfg, "channel": {"values": [0.5, 1.5], "transition": [[0.7, 0.3], [0.4, 0.6]]}}
    with pytest.raises(ConfigError, match="harvest"):
        load_model({k: v for k, v in good.items() if k != "harvest"})


def test_load_model_refuses_unknown_section_and_non_boolean_flag():
    import io
    import json
    from pathlib import Path

    path = Path(__file__).resolve().parents[1] / "configs" / "desk.json"
    desk = json.loads(path.read_text())
    assert load_model({**desk, "restrict_w_to_power": False}).restrict_w_to_power is False
    for flag in ("false", "no", 0, None):
        with pytest.raises(ConfigError, match="restrict_w_to_power must be true or false"):
            load_model({**desk, "restrict_w_to_power": flag})
    misspelt = {k: v for k, v in desk.items() if k != "restrict_w_to_power"}
    with pytest.raises(ConfigError, match=r"unknown section\(s\) \['restrict_w_to_powr'\]"):
        load_model({**misspelt, "restrict_w_to_powr": False})
    with pytest.raises(ConfigError, match="a model config is a JSON object, not list"):
        load_model(io.StringIO("[{}]"))


@pytest.mark.parametrize("name", sorted(ModelParams.__dataclass_fields__))
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_params_reject_non_finite_fields(name, bad):
    with pytest.raises(ConfigError, match=f"{name} must be finite"):
        ModelParams(**{name: bad})


def test_params_validation():
    with pytest.raises(ConfigError):
        ModelParams(rho=0.5)
    with pytest.raises(ConfigError):
        ModelParams(e_max=1.0, delta_e=0.3)
    with pytest.raises(ConfigError):
        ModelParams(tau=0.0)
    with pytest.raises(ConfigError):
        ModelParams(q_max=-1)
