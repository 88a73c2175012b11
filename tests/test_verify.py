import json

import numpy as np
import pytest

from ehsched.mdp import (
    SolverConfig,
    TablePolicy,
    ValueTable,
    discounted_value_iteration,
    relative_value_iteration,
)
from ehsched.model import MarkovChainSpec, Model, ModelParams, battery_draw_cap_quanta
from ehsched.verify import (
    CertificateReport,
    _DifferenceContext,
    any_hard_failure,
    check_beta_monotonicity,
    check_greedy_regimes,
    check_necessary_conditions,
    check_no_overflow_waste,
    check_policy_monotonicity,
    check_special_states,
    check_value_shape,
    format_reports,
    reports_to_json,
    run_all_checks,
)

from helpers import (
    cold_discounted_value_iteration,
    desk_lite_model,
    desk_model,
    power_delay_model,
)


@pytest.fixture(scope="module")
def desk():
    return desk_model()


@pytest.fixture(scope="module")
def desk_discounted(desk):
    return discounted_value_iteration(
        SolverConfig(beta=1.0, alpha=0.999, epsilon=1e-9), desk)


@pytest.fixture(scope="module")
def desk_average(desk):
    return relative_value_iteration(SolverConfig(beta=1.0, epsilon=1e-9), desk)


def idle_policy(model):
    n = model.space.n_states
    return TablePolicy(r=np.zeros(n, dtype=np.int64),
                       w_quanta=np.zeros(n, dtype=np.int64),
                       delta_e=model.params.delta_e, tau=model.params.tau)


def test_report_invariants():
    with pytest.raises(ValueError):
        CertificateReport("x", "fail")  # fail without witness
    with pytest.raises(ValueError):
        CertificateReport("x", "maybe")
    rep = CertificateReport("x", "pass")
    assert rep.worst_violation == 0.0


# --- overflow waste ---------------------------------------------------------


def test_overflow_waste_passes_on_solved_policy(desk, desk_average):
    rep = check_no_overflow_waste(desk_average.policy, desk)
    assert rep.status == "pass"
    assert rep.details["n_recurrent"] > 0


def test_overflow_waste_catches_hoarding_policy():
    # never serve, never draw: the battery pins at the cap and every harvest
    # spills while data queues up
    params = ModelParams(q_max=2, e_max=1.0, delta_e=0.5, circuit_c=0.1)
    m = Model(params=params,
              channel=MarkovChainSpec.iid((1.0,), (1.0,)),
              arrival=MarkovChainSpec.iid((1.0,), (1.0,)),
              harvest=MarkovChainSpec.iid((0.5,), (1.0,)))
    rep = check_no_overflow_waste(idle_policy(m), m)
    assert rep.status == "fail"
    assert rep.witness is not None
    assert rep.witness["e_b"] == 1.0  # full battery
    assert rep.witness["q"] > 0
    assert rep.worst_violation > 0


def test_overflow_waste_vacuous_without_harvest():
    m = power_delay_model()
    rep = check_no_overflow_waste(idle_policy(m), m)
    assert rep.status == "not-applicable"


# --- value shape ------------------------------------------------------------


def test_value_shape_on_linear_backlog_table(desk):
    space = desk.space
    vt = ValueTable(values=space.iq.astype(float), kind="discounted",
                    beta=1.0, alpha=0.9)
    rq, rb, rc = check_value_shape(vt, desk)
    assert (rq.status, rb.status, rc.status) == ("pass", "pass", "pass")


def test_value_shape_on_converged_desk(desk, desk_discounted):
    rq, rb, rc = check_value_shape(desk_discounted.values, desk)
    assert rq.status == "pass"
    assert rb.status == "pass"
    assert rc.status == "pass"
    assert rq.details["n_compared"] > 0


def _einsum_ev(values, model):
    """The certificates' former expectation: one einsum over the three
    chain matrices, indexed [q', ih, ia, jb', ie]."""
    space = model.space
    V = values.reshape(space.nq, space.nh, space.na, space.nb, space.ne)
    return np.einsum("hH,aA,eE,qHAbE->qhabe", model.channel.transition,
                     model.arrival.transition, model.harvest.transition, V,
                     optimize=True)


@pytest.mark.parametrize("make", [desk_model, desk_lite_model,
                                  lambda: desk_model(restrict=False)])
def test_difference_context_ev_matches_einsum(make):
    model = make()
    v = np.random.default_rng(5).standard_normal(model.space.n_states) * 50
    ctx = _DifferenceContext(ValueTable(values=v, kind="discounted", beta=1.0,
                                        alpha=0.99), model)
    want = _einsum_ev(v, model).transpose(0, 3, 1, 2, 4)
    np.testing.assert_allclose(ctx.ev, want, rtol=0,
                               atol=1e-14 * float(np.abs(v).max()))


@pytest.mark.parametrize("beta", [1.0, 100.0])
def test_warm_started_solve_certifies_like_cold_sweeps(desk, beta):
    # at beta=100 value convexity fails on desk: the warm start must
    # reproduce the failure as well as the passes
    cfg = SolverConfig(beta=beta, alpha=0.999, epsilon=1e-9)
    warm = discounted_value_iteration(cfg, desk)
    cold = cold_discounted_value_iteration(cfg, desk, warm.actions)
    assert warm.policy == cold.policy

    def statuses(res):
        reports = [*check_value_shape(res.values, desk),
                   check_necessary_conditions(res.values, res.policy, desk),
                   check_special_states(res.values, res.policy, desk)]
        return [(r.name, r.status) for r in reports]

    assert statuses(warm) == statuses(cold)


def test_value_shape_convexity_gated_on_draw_restriction():
    m = desk_lite_model(restrict=False)
    res = discounted_value_iteration(
        SolverConfig(beta=1.0, alpha=0.99, epsilon=1e-7), m)
    _, _, rc = check_value_shape(res.values, m)
    assert rc.status == "not-applicable"


def test_value_shape_detects_decreasing_table(desk):
    space = desk.space
    vt = ValueTable(values=-space.iq.astype(float), kind="discounted",
                    beta=1.0, alpha=0.9)
    rq, _, _ = check_value_shape(vt, desk)
    assert rq.status == "fail"
    assert rq.witness is not None


def test_value_shape_rejects_average_values(desk, desk_average):
    with pytest.raises(ValueError):
        check_value_shape(desk_average.values, desk)


# --- first-order conditions -------------------------------------------------


def test_first_order_conditions_hold_on_desk(desk, desk_discounted):
    rep = check_necessary_conditions(desk_discounted.values,
                                     desk_discounted.policy, desk)
    assert rep.status == "pass"
    assert rep.details["n_sides_checked"] > 100
    assert rep.details["alpha"] == 0.999


def test_first_order_conditions_catch_perturbed_action(desk, desk_discounted):
    pol = desk_discounted.policy
    space = desk.space
    params = desk.params
    found = False
    tried = 0
    for s in range(space.n_states):
        if pol.r[s] < 1 or tried >= 12:
            continue
        tried += 1
        r2 = int(pol.r[s]) - 1
        cap = battery_draw_cap_quanta(params,
                                      float(space.h_values[space.ih[s]]),
                                      r2, int(space.ib[s]),
                                      desk.restrict_w_to_power)
        perturbed = TablePolicy(r=pol.r.copy(), w_quanta=pol.w_quanta.copy(),
                                delta_e=pol.delta_e, tau=pol.tau)
        perturbed.r[s] = r2
        perturbed.w_quanta[s] = min(int(pol.w_quanta[s]), cap)
        rep = check_necessary_conditions(desk_discounted.values, perturbed, desk)
        if rep.status == "fail":
            assert rep.witness is not None
            assert rep.witness["state_index"] == s
            found = True
            break
    assert found, "no single-step perturbation violated the certificate"


# --- special states ---------------------------------------------------------


def test_special_states_certify_serve_everything_region(desk, desk_discounted):
    rep = check_special_states(desk_discounted.values, desk_discounted.policy,
                               desk)
    assert rep.status == "pass"
    assert rep.details["n_serve_all_states"] > 0
    assert rep.details["n_empty_backlog_states"] > 0


def test_special_states_catch_idling_where_serving_certified(desk, desk_discounted):
    rep = check_special_states(desk_discounted.values, idle_policy(desk), desk)
    assert rep.status == "fail"
    assert rep.witness is not None
    assert rep.witness["regime"] == "serve-everything"


# --- price monotonicity -------------------------------------------------------


def test_price_monotonicity_on_grid(desk):
    rep = check_beta_monotonicity(desk, (0.01, 0.1, 1.0, 10.0, 100.0))
    assert rep.status == "pass"
    rows = rep.details["grid"]
    assert [r["beta"] for r in rows] == [0.01, 0.1, 1.0, 10.0, 100.0]
    ks = [r["mean_grid_k"] for r in rows]
    assert all(b <= a + 1e-9 for a, b in zip(ks, ks[1:]))


def test_price_monotonicity_single_point():
    rep = check_beta_monotonicity(power_delay_model(), (1.0,))
    assert rep.status == "pass"


# --- policy monotonicity ------------------------------------------------------


def test_policy_monotonicity_on_desk(desk, desk_average):
    rep = check_policy_monotonicity(desk_average.policy, desk)
    assert rep.status == "pass"
    assert rep.details["n_compared"] > 0


def test_policy_monotonicity_catches_rate_drop(desk, desk_average):
    pol = desk_average.policy
    space = desk.space
    top = np.flatnonzero((space.iq == space.nq - 1) & (pol.r >= 1))
    assert top.size > 0
    bad = TablePolicy(r=pol.r.copy(), w_quanta=pol.w_quanta.copy(),
                      delta_e=pol.delta_e, tau=pol.tau)
    bad.r[top[0]] = 0
    bad.w_quanta[top[0]] = 0
    rep = check_policy_monotonicity(bad, desk)
    assert rep.status == "fail"
    assert rep.witness["quantity"] in ("r", "w_quanta")


# --- greedy regimes -----------------------------------------------------------


def test_greedy_regimes_on_desk(desk):
    rep = check_greedy_regimes(desk, epsilon=1e-9)
    assert rep.status == "pass"
    assert rep.details["gain_gap"] <= 1e-6
    assert rep.details["n_non_greedy_at_beta_large"] == 0
    # the cheap-grid-power regime holds battery back somewhere on this instance
    assert rep.details["non_greedy_at_beta_small"] is True
    assert rep.details["beta_small_sample"]["e_b"] > 0


def test_greedy_regimes_trivial_without_battery():
    rep = check_greedy_regimes(power_delay_model(), epsilon=1e-9)
    assert rep.status == "pass"
    assert rep.details["non_greedy_at_beta_small"] is False


# --- orchestration ------------------------------------------------------------


def test_run_all_checks_and_rendering(desk):
    reports = run_all_checks(desk, beta=1.0, alpha=0.999, epsilon=1e-9)
    assert len(reports) == 9
    assert not any_hard_failure(reports)
    names = [r.name for r in reports]
    assert len(set(names)) == 9

    blob = reports_to_json(reports)
    parsed = json.loads(blob)
    assert [p["name"] for p in parsed] == names
    assert all(p["status"] in ("pass", "not-applicable") for p in parsed)
    # renders deterministically
    assert blob == reports_to_json(reports)

    table = format_reports(reports)
    for n in names:
        assert n in table
