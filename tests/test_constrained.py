import numpy as np
import pytest

from ehsched import constrained, mdp
from ehsched.constrained import (
    BudgetInfeasibleError,
    ConstrainedSearchError,
    ConstrainedSolverConfig,
    beta_star_search,
    solve_constrained,
)
from ehsched.mdp import (
    MixedPolicy,
    SolverConfig,
    build_action_space,
    evaluate_policy,
    relative_value_iteration,
)
from ehsched.model import MarkovChainSpec, Model, ModelParams

from helpers import desk_lite_model, desk_model, power_delay_model


def _with_pbar(model, p_bar):
    params = ModelParams(**{**{f: getattr(model.params, f)
                               for f in model.params.__dataclass_fields__},
                            "p_bar": p_bar})
    return Model(params=params, channel=model.channel, arrival=model.arrival,
                 harvest=model.harvest,
                 restrict_w_to_power=model.restrict_w_to_power)


def test_zero_arrivals_make_constraint_inactive():
    params = ModelParams(q_max=2, e_max=0.0, delta_e=1.0, circuit_c=0.1, p_bar=0.3)
    m = Model(params=params,
              channel=MarkovChainSpec.iid((1.0,), (1.0,)),
              arrival=MarkovChainSpec.iid((0.0,), (1.0,)),
              harvest=MarkovChainSpec.iid((0.0,), (1.0,)))
    res = beta_star_search(ConstrainedSolverConfig(), m)
    assert res.beta_star == 0.0
    assert res.evaluation.mean_grid_k == pytest.approx(0.0, abs=1e-12)


def test_harvest_covering_demand_gives_delay_optimal_policy():
    # circuit power tuned so P(h=1, r=1) is exactly one energy quantum per
    # slot, and the harvest delivers that quantum every slot: the battery can
    # pay for everything, K*=0, and the unconstrained delay optimum is kept
    theta = ModelParams().theta
    c = 2.0 - np.expm1(theta) - 1.0
    params = ModelParams(q_max=1, e_max=2.0, delta_e=1.0, circuit_c=c, p_bar=0.5)
    m = Model(params=params,
              channel=MarkovChainSpec.iid((1.0,), (1.0,)),
              arrival=MarkovChainSpec.iid((0.0, 1.0), (0.5, 0.5)),
              harvest=MarkovChainSpec.iid((1.0,), (1.0,)))
    res = beta_star_search(ConstrainedSolverConfig(), m)
    assert res.beta_star == 0.0
    assert res.evaluation.mean_grid_k == pytest.approx(0.0, abs=1e-12)
    assert res.evaluation.mean_queue_b == pytest.approx(m.mean_arrival(), abs=1e-9)


def test_budget_infeasible_at_small_beta_init():
    m = _with_pbar(power_delay_model(), 1e-6)
    cfg = ConstrainedSolverConfig(beta_init=0.01)
    with pytest.raises(BudgetInfeasibleError):
        beta_star_search(cfg, m)


def test_probe_trace_consistent_with_monotone_k():
    m = _with_pbar(power_delay_model(), 0.2)
    cfg = ConstrainedSolverConfig(beta_init=50.0, epsilon=1e-11)
    res = beta_star_search(cfg, m)
    assert res.evaluation.mean_grid_k <= 0.2 + 1e-12
    rows = sorted(res.trace, key=lambda t: t.beta)
    for a, b in zip(rows, rows[1:]):
        assert b.mean_grid_k <= a.mean_grid_k + 1e-9
        assert b.gain_j >= a.gain_j - 1e-9


def test_solve_constrained_feasible_and_interpolating():
    # the straddling policies differ on a handful of states, and the coin
    # reshapes the stationary law by more than 1e-3 * p_bar on this instance,
    # so the acceptance band is set explicitly
    m = _with_pbar(desk_lite_model(), 0.25)
    k_tol = 2e-3
    cfg = ConstrainedSolverConfig(epsilon=1e-11, k_tolerance=k_tol)
    sol = solve_constrained(cfg, m)
    assert sol.achieved_k <= 0.25 + k_tol
    if sol.kind == "mixed":
        assert isinstance(sol.policy, MixedPolicy)
        xi = sol.xi
        interp = xi * sol.eval_plus.mean_grid_k + (1 - xi) * sol.eval_minus.mean_grid_k
        assert interp == pytest.approx(0.25, abs=1e-12)
        assert sol.eval_minus.mean_grid_k > 0.25 >= sol.eval_plus.mean_grid_k
        # exact mixture evaluation within tolerance of the budget
        assert sol.achieved_k == pytest.approx(0.25, abs=k_tol)
    else:
        assert sol.kind == "single"
    # the gain identity holds on whatever was returned
    ev = sol.evaluation
    assert ev.gain_j == pytest.approx(ev.mean_queue_b + ev.beta * ev.mean_grid_k,
                                      abs=1e-12)


def test_solve_constrained_beats_feasible_pure_policies():
    m = _with_pbar(desk_lite_model(), 0.25)
    sol = solve_constrained(
        ConstrainedSolverConfig(epsilon=1e-11, k_tolerance=2e-3), m)
    for beta in (0.05, 0.2, 1.0, 5.0, 25.0):
        pol = relative_value_iteration(SolverConfig(beta=beta, epsilon=1e-11), m).policy
        ev = evaluate_policy(pol, beta, m)
        if ev.mean_grid_k <= 0.25:
            assert sol.achieved_b <= ev.mean_queue_b + 1e-9


def test_probe_cap_raises_with_bracket():
    # beta_init and beta_floor use up a cap of two on a binding budget, so the
    # first breakpoint probe is refused and the bracket is the witness
    m = _with_pbar(desk_model(), 0.12)
    with pytest.raises(ConstrainedSearchError) as err:
        solve_constrained(ConstrainedSolverConfig(max_outer_iters=2), m)
    beta_plus, beta_minus, k_plus, k_minus = err.value.witness
    assert (beta_plus, beta_minus) == (100.0, 1e-5)
    assert k_plus <= 0.12 < k_minus


def test_mixture_weight_is_regula_falsi_on_exact_k(monkeypatch):
    # each xi interpolates K linearly between the last weight that overspent
    # and the last that did not, starting from the two pure policies; p_bar
    # 0.182 takes three iterates
    p_bar = 0.182
    seen = []

    def record(policy, *args, **kwargs):
        ev = evaluate_policy(policy, *args, **kwargs)
        if isinstance(policy, MixedPolicy):
            seen.append((policy.xi, ev.mean_grid_k))
        return ev

    monkeypatch.setattr(constrained, "evaluate_policy", record)
    sol = solve_constrained(ConstrainedSolverConfig(), _with_pbar(desk_model(), p_bar))
    assert len(seen) == 3 and sol.xi == seen[-1][0]
    lo, k_lo = 0.0, sol.eval_minus.mean_grid_k
    hi, k_hi = 1.0, sol.eval_plus.mean_grid_k
    for xi, k in seen:
        assert xi == pytest.approx(lo + (k_lo - p_bar) * (hi - lo) / (k_lo - k_hi), abs=1e-12)
        if k > p_bar:
            lo, k_lo = xi, k
        else:
            hi, k_hi = xi, k


@pytest.mark.parametrize("model, budgets", [
    (desk_model(), np.linspace(0.05, 0.23, 16)),
    (power_delay_model(), (0.05, 0.1, 0.2)),
], ids=["desk", "power_delay"])
def test_budget_curve_meets_budget_with_zero_duality_gap(model, budgets):
    # the optimal mean queue is non-increasing in the budget, and at every
    # budget the returned policy is Lagrangian-optimal at beta_star
    cfg = ConstrainedSolverConfig()
    queues = []
    for p_bar in budgets:
        m = _with_pbar(model, float(p_bar))
        sol = solve_constrained(cfg, m)
        assert abs(sol.achieved_k - p_bar) <= 1e-3 * p_bar
        g_star = relative_value_iteration(
            SolverConfig(beta=sol.beta_star, epsilon=1e-12), m).gain
        assert sol.evaluation.gain_j - g_star <= 1e-9
        if sol.kind == "mixed":
            assert sol.eval_plus.mean_grid_k <= p_bar < sol.eval_minus.mean_grid_k
        queues.append(sol.achieved_b)
    assert all(b <= a for a, b in zip(queues, queues[1:]))


def test_budgeted_solves_reuse_policy_iteration_lus(monkeypatch):
    # a probe's evaluation reuses the LU policy iteration ended on whenever
    # the extracted policy is that one; n_evaluations counts the LUs made
    calls = {"lu": 0, "eval": 0, "reused": 0}
    real_lu, real_eval = mdp._bias_gain_lu, mdp.evaluate_policy

    def counting_lu(P, ref):
        calls["lu"] += 1
        return real_lu(P, ref)

    def counting_eval(*args, **kwargs):
        ev = real_eval(*args, **kwargs)
        calls["eval"] += 1
        calls["reused"] += ev.reused_lu
        return ev

    monkeypatch.setattr(mdp, "_bias_gain_lu", counting_lu)
    monkeypatch.setattr(constrained, "evaluate_policy", counting_eval)
    reported = 0
    for p_bar in np.linspace(0.05, 0.23, 16):
        sol = solve_constrained(ConstrainedSolverConfig(),
                                _with_pbar(desk_model(), float(p_bar)))
        reported += sol.n_evaluations
    assert calls["lu"] == reported
    assert calls["reused"] > calls["eval"] / 2


def test_budgeted_solves_factorise_each_chain_once_in_a_row():
    # LUs factorised over the 16 desk budgets: every policy-iteration step
    # and evaluation looks in the one stored LU first, so a warm start's
    # first step is a hit (510 LUs if only a probe's evaluation could reuse
    # policy iteration's last LU)
    total = 0
    for p_bar in np.linspace(0.05, 0.23, 16):
        m = _with_pbar(desk_model(), float(p_bar))
        actions = build_action_space(m)
        sol = solve_constrained(ConstrainedSolverConfig(), m, actions)
        assert sol.n_evaluations == actions.n_factorised
        total += sol.n_evaluations
    assert total == 404


class _ColdProber(constrained._Prober):
    """Every probe starts policy iteration from the greedy costs."""

    def _start(self, beta):
        return None


@pytest.mark.parametrize("p_bar", [0.08, 0.1, 0.12])
def test_warm_started_probes_match_cold_ones(p_bar, monkeypatch):
    m = _with_pbar(desk_model(), p_bar)
    warm = solve_constrained(ConstrainedSolverConfig(), m)
    monkeypatch.setattr(constrained, "_Prober", _ColdProber)
    cold = solve_constrained(ConstrainedSolverConfig(), m)
    assert warm.trace == cold.trace
    assert (warm.kind, warm.xi, warm.achieved_k) == (cold.kind, cold.xi, cold.achieved_k)
