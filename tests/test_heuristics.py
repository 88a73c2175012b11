from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest

from ehsched.heuristics import (
    Baseline,
    CalibrationResult,
    HeuristicKind,
    calibrate_xi,
    conservative_policy,
    greedy_battery,
    make_heuristic,
    mixing_weight,
    solve_reduced_rate_mdp,
)
from ehsched.mdp import (
    SolverConfig,
    TablePolicy,
    build_action_space,
    evaluate_policy,
    relative_value_iteration,
)
from ehsched.model import Action, ConfigError, ModelParams, SystemState, required_power

from helpers import (
    assert_same_action_space,
    desk_lite_model,
    desk_model,
    loop_action_space,
    mixed_action,
    power_delay_model,
    radical_policy,
)

HALF_GRID = ModelParams(tau=1.0, circuit_c=1.0, q_max=20, e_max=10.0, delta_e=0.5)


def test_greedy_battery_reference_values():
    x = SystemState(q=5, h=0.5, a=0, e_b=10.0, e=0.0)
    # required power at r=2 is ~2.48; largest half-unit multiple below it is 2.0
    assert greedy_battery(x, 2, HALF_GRID) == 2.0
    assert greedy_battery(SystemState(5, 0.5, 0, 0.0, 0.0), 2, HALF_GRID) == 0.0
    assert greedy_battery(x, 0, HALF_GRID) == 0.0


def test_greedy_battery_caps_at_charge():
    x = SystemState(q=5, h=0.5, a=0, e_b=1.5, e=0.0)
    assert greedy_battery(x, 2, HALF_GRID) == 1.5


def test_radical_policy():
    assert radical_policy(SystemState(0, 1.0, 0, 3.0, 0.0), HALF_GRID) == Action(0, 0.0)
    x = SystemState(q=4, h=1.0, a=0, e_b=10.0, e=0.0)
    act = radical_policy(x, HALF_GRID)
    assert act.r == 4
    p4 = required_power(HALF_GRID, 1.0, 4)
    assert act.w == pytest.approx(np.floor(p4 / 0.5) * 0.5)


def test_conservative_policy_reference_cases():
    zero = ModelParams(tau=1.0, circuit_c=1.0, q_max=20, e_max=10.0, delta_e=0.5,
                       p_bar=0.0)
    assert conservative_policy(SystemState(7, 1.0, 0, 0.0, 0.0), zero) == Action(0, 0.0)

    # budget + battery rate exactly at the r=2 required power
    p2 = required_power(HALF_GRID, 0.5, 2)
    params = ModelParams(tau=1.0, circuit_c=1.0, q_max=20, e_max=10.0, delta_e=0.5,
                         p_bar=p2 - 2.0)
    x = SystemState(q=15, h=0.5, a=0, e_b=2.0, e=0.0)
    assert conservative_policy(x, params).r == 2

    x1 = SystemState(q=1, h=0.5, a=0, e_b=2.0, e=0.0)
    assert conservative_policy(x1, params).r == 1


def test_mixing_weight():
    assert mixing_weight(3000.0, 1000.0, 2500.0) == pytest.approx(0.75)
    assert mixing_weight(500.0, 100.0, 800.0) == 1.0     # radical already feasible
    assert mixing_weight(3000.0, 2999.9999999999, 100.0) == 0.0
    assert mixing_weight(3000.0, 1000.0, 500.0) == 0.0   # clipped, infeasible


def test_mixed_action_degenerate_weights():
    params = ModelParams(tau=1.0, circuit_c=0.5, q_max=10, e_max=5.0, delta_e=0.5,
                         p_bar=0.7)
    x = SystemState(q=6, h=0.8, a=1, e_b=3.0, e=0.5)
    for u in (0.0, 0.3, 0.999):
        assert mixed_action(x, params, 1.0, u) == radical_policy(x, params)
        assert mixed_action(x, params, 0.0, u) == conservative_policy(x, params)
    assert mixed_action(x, params, 0.5, 0.49) == radical_policy(x, params)
    assert mixed_action(x, params, 0.5, 0.51) == conservative_policy(x, params)


def test_heuristic_kind_validation():
    HeuristicKind("radical")
    HeuristicKind("mixed", xi=0.4)
    with pytest.raises(ValueError):
        HeuristicKind("bogus")
    with pytest.raises(ValueError):
        HeuristicKind("mixed")
    with pytest.raises(ValueError):
        HeuristicKind("mixed", xi=1.5)
    for kind in ("radical", "conservative"):
        with pytest.raises(ConfigError, match=f"mixed policy only, not {kind}"):
            HeuristicKind(kind, xi=0.5)


def test_make_heuristic_actors():
    # what each baseline plays is checked slot by slot against the per-state
    # functions in test_sim (test_baseline_tables_reproduce_per_state_actors)
    m = desk_lite_model()
    assert make_heuristic(HeuristicKind("radical"), m) == Baseline(m.params, 1.0)
    assert make_heuristic(HeuristicKind("conservative"), m) == Baseline(m.params, 0.0)
    assert make_heuristic(HeuristicKind("mixed", xi=0.8), m) == Baseline(m.params, 0.8)


def test_baseline_is_frozen_and_compares_by_value():
    m = desk_lite_model()
    a, b = Baseline(m.params, 0.25), Baseline(replace(m.params), 0.25)
    assert a == b and hash(a) == hash(b)
    assert len({a, b, Baseline(m.params, 0.5)}) == 2
    assert a != Baseline(replace(m.params, p_bar=m.params.p_bar + 1.0), 0.25)
    with pytest.raises(FrozenInstanceError):
        a.weight = 1.0


@pytest.mark.parametrize("weight", [-0.1, 1.5, float("nan"), float("inf")])
def test_baseline_weight_outside_unit_interval_is_refused(weight):
    with pytest.raises(ConfigError, match="weight must be in"):
        Baseline(desk_lite_model().params, weight)


# ---------------------------------------------------------------------------
# reduced rate-only solve

def test_calibration_equals_independent_runs():
    from ehsched.sim import SimConfig, run_simulation
    for m, p_bar in ((desk_model(), None), (desk_lite_model(), 0.25)):
        cfg = SimConfig(n_slots=3_000, seed=17)
        g_r, g_c = (run_simulation(make_heuristic(HeuristicKind(k), m), m,
                                   cfg).mean_grid_power
                    for k in ("radical", "conservative"))
        budget = m.params.p_bar if p_bar is None else p_bar
        assert calibrate_xi(m, cfg, p_bar) == CalibrationResult(
            xi=mixing_weight(g_r, g_c, budget), g_radical=g_r,
            g_conservative=g_c, feasible=min(g_r, g_c) <= budget)


def test_reduced_solve_equals_full_when_battery_is_trivial():
    m = power_delay_model()
    full = relative_value_iteration(SolverConfig(beta=1.0, epsilon=1e-11), m)
    red = solve_reduced_rate_mdp(1.0, m, epsilon=1e-11)
    assert red.gain == pytest.approx(full.gain, abs=1e-9)
    assert red.policy == full.policy


def test_reduced_solve_matches_full_at_large_beta():
    m = desk_lite_model()
    beta = 1e4
    full = relative_value_iteration(SolverConfig(beta=beta, epsilon=1e-8), m)
    red = solve_reduced_rate_mdp(beta, m, epsilon=1e-8)
    assert red.gain == pytest.approx(full.gain, abs=1e-6)
    # and the full optimum's battery draw is greedy everywhere
    space = m.space
    for s in range(space.n_states):
        x = space.state_of(s)
        w_greedy = greedy_battery(x, int(full.policy.r[s]), m.params)
        assert full.policy.w[s] == pytest.approx(w_greedy, abs=1e-12)


def test_reduced_solve_offers_the_greedy_draw_at_every_rate():
    m = desk_model(restrict=False)
    params = m.params

    def greedy_draws(s, r):
        wq = greedy_battery(m.space.state_of(s), r, params) * params.tau / params.delta_e
        return (int(round(wq)),)

    assert_same_action_space(solve_reduced_rate_mdp(1.0, m).actions,
                             loop_action_space(m, draws_of=greedy_draws))


def test_greedy_draw_beats_sampled_alternatives_for_fixed_rate_rule():
    # fix a battery-independent rate rule, then compare greedy battery draw
    # against 200 randomly sampled draw tables
    m = desk_lite_model()
    space = m.space
    beta = 1.0
    rate = np.minimum(space.iq, 1)

    actions = build_action_space(m)
    greedy = TablePolicy.from_callable(
        lambda x: Action(min(x.q, 1), greedy_battery(x, min(x.q, 1), m.params)), m)
    g_greedy = evaluate_policy(greedy, beta, m, actions=actions).gain_j

    rng = np.random.default_rng(42)
    _, caps = actions.window(rate)
    for _ in range(200):
        wq = rng.integers(0, caps + 1)
        pol = TablePolicy(r=rate.astype(np.int64), w_quanta=wq.astype(np.int64),
                          delta_e=m.params.delta_e, tau=m.params.tau)
        g = evaluate_policy(pol, beta, m, actions=actions).gain_j
        assert g_greedy <= g + 1e-9
