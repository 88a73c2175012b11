from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ehsched import mdp, model as model_module
from ehsched.mdp import (
    InstanceTooLargeError,
    _bias_gain_lu,
    MixedPolicy,
    MultichainError,
    NonConvergenceError,
    SolverConfig,
    TablePolicy,
    brute_force_solve,
    build_action_space,
    discounted_backup,
    discounted_value_iteration,
    evaluate_policy,
    policy_chain,
    recurrent_classes,
    relative_value_iteration,
)
from ehsched.model import (
    Action,
    MarkovChainSpec,
    Model,
    ModelParams,
    SystemState,
    battery_draw_cap_quanta,
    draw_cap_table,
    load_model,
)

from helpers import (
    assert_policies_equivalent,
    battery_model,
    channel_model,
    cold_discounted_value_iteration,
    cold_relative_value_iteration,
    dense_stationary_distribution,
    desk_lite_model,
    desk_model,
    assert_same_action_space,
    assert_same_csr,
    large_desk_model,
    loop_action_space,
    loop_sa_of_policy,
    oracle_kernel,
    per_state_gains,
    power_delay_model,
    random_model,
    tiny_models,
    transition_kernel,
)


# ---------------------------------------------------------------------------
# transition kernel: the single-pair oracle and the rows' chain

def _chain_row(m, x, act):
    """Successor indices and probabilities of the pair's row in chain()."""
    actions = build_action_space(m)
    s = m.space.index_of(x)
    wq = int(round(act.w * m.params.tau / m.params.delta_e))
    seg = np.arange(actions.indptr[s], actions.indptr[s + 1])
    hit = seg[(actions.r_sa[seg] == act.r) & (actions.wq_sa[seg] == wq)]
    if hit.size == 0:
        return None
    row = actions.chain(hit)
    return row.indices, row.data


def test_kernel_singleton_chains():
    m = battery_model()
    x = SystemState(q=1, h=1.0, a=1, e_b=0.5, e=0.5)
    idx, probs = transition_kernel(x, Action(1, 0.5), m)
    assert idx.shape == (1,)
    assert probs[0] == 1.0
    nxt = m.space.state_of(int(idx[0]))
    assert nxt.q == 1            # 1 - 1 + 1
    assert nxt.e_b == 0.5        # 0.5 - 0.5 + 0.5
    cols, data = _chain_row(m, x, Action(1, 0.5))
    np.testing.assert_array_equal(cols, idx)
    np.testing.assert_array_equal(data, probs)


def test_kernel_product_probabilities():
    params = ModelParams(q_max=2, e_max=0.0, delta_e=1.0)
    m = Model(
        params=params,
        channel=MarkovChainSpec((0.5, 1.5), np.array([[0.9, 0.1], [0.9, 0.1]])),
        arrival=MarkovChainSpec.iid((0.0, 1.0), (0.5, 0.5)),
        harvest=MarkovChainSpec.iid((0.0,), (1.0,)),
    )
    x = SystemState(q=1, h=0.5, a=1, e_b=0.0, e=0.0)
    idx, probs = transition_kernel(x, Action(0, 0.0), m)
    assert sorted(probs.tolist()) == pytest.approx([0.05, 0.05, 0.45, 0.45])
    assert probs.sum() == pytest.approx(1.0, abs=1e-12)
    # all successors share the deterministic coordinates q'=2, e_b'=0
    for i in idx:
        assert m.space.state_of(int(i)).q == 2
    cols, data = _chain_row(m, x, Action(0, 0.0))
    np.testing.assert_array_equal(cols, idx)
    np.testing.assert_array_equal(data, probs)


def test_kernel_rejects_infeasible_and_offgrid():
    m = battery_model()
    x = SystemState(q=0, h=1.0, a=1, e_b=0.0, e=0.5)
    with pytest.raises(ValueError):
        transition_kernel(x, Action(1, 0.0), m)
    with pytest.raises(ValueError):
        transition_kernel(SystemState(1, 1.0, 1, 0.5, 0.5), Action(1, 0.3), m)
    # the enumeration offers no row for the infeasible pair either
    assert _chain_row(m, x, Action(1, 0.0)) is None


def test_bulk_kernel_matches_single_pair_route():
    # the ActionSpace chain and transition_kernel are independent codepaths;
    # they must produce identical rows
    m = desk_lite_model()
    actions = build_action_space(m)
    rng = np.random.default_rng(7)
    picks = rng.choice(actions.n_sa, size=200, replace=False)
    rows = actions.chain(picks)
    for k, sa in enumerate(picks):
        s = int(actions.state_of_sa[sa])
        x = m.space.state_of(s)
        act = Action(int(actions.r_sa[sa]),
                     float(actions.wq_sa[sa]) * m.params.delta_e / m.params.tau)
        idx, probs = transition_kernel(x, act, m)
        row = rows.getrow(k)
        assert np.array_equal(np.sort(row.indices), idx)
        dense = np.zeros(m.space.n_states)
        dense[idx] = probs
        np.testing.assert_allclose(row.toarray().ravel(), dense, atol=1e-15)


def test_kernel_rows_sum_to_one():
    for m in tiny_models() + [desk_lite_model()]:
        actions = build_action_space(m)
        sums = np.asarray(actions.chain(np.arange(actions.n_sa)).sum(axis=1)).ravel()
        np.testing.assert_allclose(sums, 1.0, atol=1e-12)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000))
def test_kernel_rows_sum_to_one_random_models(seed):
    m = random_model(seed)
    actions = build_action_space(m)
    sums = np.asarray(actions.chain(np.arange(actions.n_sa)).sum(axis=1)).ravel()
    np.testing.assert_allclose(sums, 1.0, atol=1e-12)


# ---------------------------------------------------------------------------
# vectorised state-action build against the per-state loop

MIXED_BUDGET_CONFIG = Path(__file__).resolve().parents[1] / "configs" / "mixed_budget.json"


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000), st.booleans())
def test_vectorised_build_matches_loop_random_models(seed, restrict):
    m = replace(random_model(seed), restrict_w_to_power=restrict)
    assert_same_action_space(build_action_space(m), loop_action_space(m))


@pytest.mark.parametrize("make", [
    desk_model, desk_lite_model, lambda: load_model(MIXED_BUDGET_CONFIG),
    large_desk_model, lambda: desk_model(restrict=False)],
    ids=["desk", "desk-lite", "mixed_budget", "desk-3000", "desk-unrestricted"])
def test_vectorised_build_matches_loop(make):
    m = make()
    assert_same_action_space(build_action_space(m), loop_action_space(m))


def test_keep_filter_matches_loop_draws_of_and_rates_of():
    m = desk_model()
    space = m.space
    cap = draw_cap_table(m.params, space.h_values)

    def greedy_draws(s, r):
        h = float(space.h_values[space.ih[s]])
        return (battery_draw_cap_quanta(m.params, h, r, int(space.ib[s])),)

    def greedy_keep(state, r, wq):
        return wq == np.minimum(space.ib[state], cap[space.ih[state], r])

    assert_same_action_space(build_action_space(m, keep=greedy_keep),
                             loop_action_space(m, draws_of=greedy_draws))
    rate = np.minimum(space.iq, 1)
    assert_same_action_space(
        build_action_space(m, keep=lambda state, r, wq: r == rate[state]),
        loop_action_space(m, rates_of=lambda s: (int(rate[s]),)))


def test_keep_filter_that_empties_a_state_raises():
    m = desk_lite_model()
    with pytest.raises(ValueError, match="^state 0 has no feasible action$"):
        build_action_space(m, keep=lambda state, r, wq: r > 0)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000), st.booleans(), st.floats(-1e6, 1e6))
def test_expected_next_matches_oracle_kernel_random_models(seed, restrict, scale):
    m = replace(random_model(seed), restrict_w_to_power=restrict)
    actions = build_action_space(m)
    v = scale * np.random.default_rng(seed).standard_normal(m.space.n_states)
    want = loop_action_space(m).kernel @ v
    tol = 1e-14 * max(1.0, float(np.abs(v).max()))
    np.testing.assert_allclose(actions.expected_next(v), want, rtol=0, atol=tol)


def test_action_space_stores_no_successor_lists():
    # the expectation is a contraction plus one index per row: no sparse
    # matrix and no array longer than the rows (or the exogenous chain)
    m = large_desk_model()
    actions = build_action_space(m)
    n_ex = m.space.nh * m.space.na * m.space.ne
    for name, value in vars(actions).items():
        assert not hasattr(value, "indptr"), name
        if isinstance(value, np.ndarray):
            assert value.size <= max(actions.n_sa + 1, n_ex * n_ex), name


def test_policy_chains_are_the_rows_chain():
    # policy_chain and the discounted policy iteration's direct chain(sa),
    # c[sa] give the same P and costs, bit for bit, mixtures included
    m = desk_model()
    actions = build_action_space(m)
    rng = np.random.default_rng(3)
    policy, sa = _random_table_policy(actions, rng)
    other, sa_other = _random_table_policy(actions, rng)
    c = actions.cost(1.3)
    P, per_state = policy_chain(policy, actions)
    assert_same_csr(P, actions.chain(sa))
    np.testing.assert_array_equal(per_state(c), c[sa])
    P, per_state = policy_chain(MixedPolicy(policy, other, xi=0.3), actions)
    K = oracle_kernel(actions)
    want = (0.3 * K[sa] + 0.7 * K[sa_other]).tocsr()
    want.eliminate_zeros()
    assert_same_csr(P, want)
    np.testing.assert_array_equal(per_state(c), 0.3 * c[sa] + 0.7 * c[sa_other])


def test_kernel_rows_are_canonical():
    # sorted, duplicate-free columns in every row: sum_duplicates has
    # nothing to merge
    actions = build_action_space(large_desk_model())
    K = actions.chain(np.arange(actions.n_sa))
    row = np.repeat(np.arange(K.shape[0]), np.diff(K.indptr))
    same_row = row[1:] == row[:-1]
    assert (np.diff(K.indices)[same_row] > 0).all()
    merged = K.copy()
    merged.has_canonical_format = False
    merged.sum_duplicates()
    for name in ("indptr", "indices", "data"):
        np.testing.assert_array_equal(getattr(merged, name), getattr(K, name))


def test_build_reads_the_cap_table_not_a_per_state_cap(monkeypatch):
    calls = []
    real = model_module.battery_draw_cap_quanta

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(model_module, "battery_draw_cap_quanta", counting)
    monkeypatch.setattr(mdp, "battery_draw_cap_quanta", counting, raising=False)
    m = desk_model()
    build_action_space(m)
    assert 0 < len(calls) <= m.space.nh * (m.params.q_max + 1)


# ---------------------------------------------------------------------------
# relative value iteration

def test_rvi_serve_all_when_grid_is_free():
    # beta=0: cost is queue only, so serving everything is pathwise optimal
    # and the mean queue equals the stationary mean arrival (= 1 packet).
    # At states the buffer clamp saturates either way, serving is only
    # tie-optimal, so compare up to ties.
    m = power_delay_model()
    res = relative_value_iteration(SolverConfig(beta=0.0, epsilon=1e-10), m)
    assert res.gain == pytest.approx(1.0, abs=1e-8)
    space = m.space
    clamp_free = space.iq + space.arrival_pkts[space.ia] <= m.params.q_max
    assert np.array_equal(res.policy.r[clamp_free], space.iq[clamp_free])
    serve_all = TablePolicy.from_callable(lambda x: Action(x.q, 0.0), m)
    assert_policies_equivalent(res.policy, serve_all, 0.0, m, tol=1e-9)
    oracle = brute_force_solve(0.0, m)
    assert oracle.gain == pytest.approx(res.gain, abs=1e-9)


def test_rvi_matches_oracle_on_tiny_instances():
    for m in tiny_models():
        for beta in (0.3, 1.0):
            res = relative_value_iteration(SolverConfig(beta=beta, epsilon=1e-11), m)
            oracle = brute_force_solve(beta, m)
            assert res.gain == pytest.approx(oracle.gain, abs=1e-6)
            assert_policies_equivalent(res.policy, oracle.policy, beta, m)


def test_rvi_no_harvest_pays_grid():
    m = power_delay_model()
    res = relative_value_iteration(SolverConfig(beta=1.0, epsilon=1e-10), m)
    ev = evaluate_policy(res.policy, 1.0, m)
    assert ev.mean_grid_k > 0.0


def test_rvi_gain_independent_of_reference_state():
    m = desk_lite_model()
    g0 = relative_value_iteration(SolverConfig(beta=1.0, epsilon=1e-10), m).gain
    g1 = relative_value_iteration(
        SolverConfig(beta=1.0, epsilon=1e-10, reference_state=77), m).gain
    assert g0 == pytest.approx(g1, abs=1e-8)


def test_rvi_bias_solves_optimality_equation():
    m = battery_model()
    res = relative_value_iteration(SolverConfig(beta=1.0, epsilon=1e-12), m)
    actions = build_action_space(m)
    h = res.values.values
    y = actions.cost(1.0) + oracle_kernel(actions) @ h
    mins = np.minimum.reduceat(y, actions.indptr[:-1])
    np.testing.assert_allclose(mins - h, res.gain, atol=1e-7)
    assert h[res.values.reference_state] == 0.0


def test_rvi_nonconvergence_raises():
    # max_iters bounds the policy evaluations too: one evaluation does not
    # reach the optimum here, and one sweep cannot close the span
    m = desk_lite_model()
    with pytest.raises(NonConvergenceError) as err:
        relative_value_iteration(SolverConfig(beta=1.0, epsilon=1e-12, max_iters=1), m)
    assert err.value.residual > 1.0


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000), st.floats(0.0, 10.0), st.booleans())
@example(seed=100, beta=9.0, with_start=True)
def test_rvi_matches_cold_sweeps_random_models(seed, beta, with_start):
    m = random_model(seed)
    actions = build_action_space(m)
    cfg = SolverConfig(beta=beta, epsilon=1e-9)
    start = None
    if with_start:  # any feasible table, multichain ones included
        start, _ = _random_table_policy(actions, np.random.default_rng(seed + 2))
    warm = relative_value_iteration(cfg, m, actions, start=start)
    cold = cold_relative_value_iteration(cfg, m, actions)
    assert len(warm.trace) == warm.n_iters
    assert abs(warm.gain - cold.gain) <= cfg.epsilon
    lo, hi = warm.gain_bounds
    assert 0.0 <= hi - lo <= cfg.epsilon
    try:
        assert_policies_equivalent(warm.policy, cold.policy, beta, m,
                                   actions=actions)
    except MultichainError:
        # where an optimal policy is multichain the bias is not unique (seed
        # 100, beta 9), so the two solves may end on different optimal
        # policies: each must earn the gain from every start state
        for res in (warm, cold):
            sa = actions.sa_of_policy(res.policy)
            gains = per_state_gains(oracle_kernel(actions)[sa],
                                    actions.cost(beta)[sa])
            np.testing.assert_allclose(gains, warm.gain, rtol=0, atol=1e-6)


@pytest.mark.parametrize("ref", [0, 77])
def test_rvi_from_solved_policy_takes_one_evaluation_and_one_sweep(ref):
    # policy iteration's bias is exact, so from the optimal policy it stops
    # after evaluating that policy and the first sweep already meets the span
    m = desk_lite_model()
    cfg = SolverConfig(beta=1.0, epsilon=1e-10, reference_state=ref)
    solved = relative_value_iteration(cfg, m)
    again = relative_value_iteration(cfg, m, solved.actions, start=solved.policy)
    assert (again.n_evaluations, again.n_iters) == (1, 1)
    assert again.policy == solved.policy


@pytest.mark.parametrize("beta", [1.0, 100.0])
def test_rvi_policy_iteration_start_leaves_few_sweeps(beta):
    # cold sweeps from V=0 need 74 (beta 1) and 124 (beta 100) here
    m = desk_model()
    res = relative_value_iteration(SolverConfig(beta=beta), m)
    assert res.n_iters < 10
    assert res.n_evaluations >= 1
    cold = cold_relative_value_iteration(SolverConfig(beta=beta), m, res.actions)
    assert res.policy == cold.policy


@pytest.mark.parametrize("name", ["channel", "arrival"])
def test_rvi_rejects_reducible_exogenous_chain(name):
    m = desk_lite_model()
    chain = getattr(m, name)
    m = replace(m, **{name: MarkovChainSpec(chain.values, np.eye(chain.n))})
    with pytest.raises(MultichainError, match=f"^{name} chain has 2 recurrent"):
        relative_value_iteration(SolverConfig(beta=1.0, max_iters=1000), m)
    # zero entries alone are fine: one absorbing level, one transient level
    one_class = np.array([[1.0, 0.0], [0.5, 0.5]])
    m = replace(m, **{name: MarkovChainSpec(chain.values, one_class)})
    relative_value_iteration(SolverConfig(beta=1.0), m)


def test_rvi_beta_monotonicity_small_grid():
    m = desk_lite_model()
    rows = []
    for beta in (0.1, 1.0, 10.0):
        res = relative_value_iteration(SolverConfig(beta=beta, epsilon=1e-11), m)
        ev = evaluate_policy(res.policy, beta, m)
        rows.append((ev.gain_j, ev.mean_queue_b, ev.mean_grid_k))
    for (j0, b0, k0), (j1, b1, k1) in zip(rows, rows[1:]):
        assert j1 >= j0 - 1e-9
        assert b1 >= b0 - 1e-9
        assert k1 <= k0 + 1e-9


# ---------------------------------------------------------------------------
# discounted value iteration

def test_dvi_first_sweep_is_min_single_step_cost():
    m = desk_lite_model()
    actions = build_action_space(m)
    v1, _ = discounted_backup(actions, np.zeros(m.space.n_states), beta=1.0, alpha=0.9)
    # states with empty buffer have a zero-cost action
    assert np.all(v1[m.space.iq == 0] == 0.0)
    # generally: min over actions of (q + beta * grid)
    mins = np.minimum.reduceat(actions.cost(1.0), actions.indptr[:-1])
    np.testing.assert_allclose(v1, mins)


def test_dvi_monotone_from_zero():
    m = desk_lite_model()
    actions = build_action_space(m)
    v = np.zeros(m.space.n_states)
    for _ in range(15):
        nxt, _ = discounted_backup(actions, v, beta=1.0, alpha=0.95)
        assert np.all(nxt >= v - 1e-12)
        v = nxt


def test_dvi_policy_approaches_average_cost_policy():
    m = battery_model()
    rvi = relative_value_iteration(SolverConfig(beta=1.0, epsilon=1e-11), m)
    dvi = discounted_value_iteration(SolverConfig(beta=1.0, epsilon=1e-9, alpha=0.999), m)
    assert_policies_equivalent(dvi.policy, rvi.policy, 1.0, m, tol=1e-5)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000), st.sampled_from([0.9, 0.99]), st.floats(0.0, 10.0))
def test_dvi_matches_cold_sweeps_random_models(seed, alpha, beta):
    m = random_model(seed)
    actions = build_action_space(m)
    cfg = SolverConfig(beta=beta, epsilon=1e-9, alpha=alpha)
    warm = discounted_value_iteration(cfg, m, actions)
    cold = cold_discounted_value_iteration(cfg, m, actions)
    v = warm.values.values
    np.testing.assert_allclose(v, cold.values.values, rtol=0, atol=cfg.epsilon)
    # the stopping rule's residual bound holds on the returned table
    tv, _ = discounted_backup(actions, v, beta, alpha)
    assert np.max(np.abs(tv - v)) < cfg.epsilon * (1 - alpha) / (2 * alpha)
    try:
        assert_policies_equivalent(warm.policy, cold.policy, beta, m,
                                   actions=actions)
    except MultichainError:
        assert warm.policy == cold.policy


def test_dvi_warm_start_leaves_few_sweeps():
    # cold sweeps from V=0 need 28,743 here; the policy-iteration start
    # leaves only its rounding error to mop up
    res = discounted_value_iteration(
        SolverConfig(beta=1.0, epsilon=1e-9, alpha=0.999), desk_model())
    assert res.n_iters < 100
    assert len(res.trace) == res.n_iters


def test_dvi_truncated_start_still_meets_the_stopping_rule():
    # max_iters bounds the policy evaluations too: one evaluation does not
    # reach the optimum here, and one sweep cannot close the gap
    cfg = SolverConfig(beta=1.0, epsilon=1e-9, alpha=0.999, max_iters=1)
    with pytest.raises(NonConvergenceError) as err:
        discounted_value_iteration(cfg, desk_model())
    assert err.value.residual > 1.0


def test_dvi_requires_alpha():
    with pytest.raises(ValueError):
        discounted_value_iteration(SolverConfig(beta=1.0), desk_lite_model())


# ---------------------------------------------------------------------------
# policy evaluation

def test_evaluate_radical_mean_queue_is_mean_arrival():
    m = desk_lite_model()
    space = m.space

    def radical(x):
        # serve everything, ignore the battery
        return Action(x.q, 0.0)

    ev = evaluate_policy(radical, 1.0, m)
    assert ev.mean_queue_b == pytest.approx(m.mean_arrival(), abs=1e-12)
    assert ev.gain_j == pytest.approx(ev.mean_queue_b + 1.0 * ev.mean_grid_k, abs=1e-12)
    assert ev.stationary_dist.sum() == pytest.approx(1.0, abs=1e-12)
    assert ev.overflow_rate == 0.0


def test_evaluate_idle_policy_saturates_buffer():
    m = desk_lite_model()
    ev = evaluate_policy(lambda x: Action(0, 0.0), 1.0, m)
    assert ev.mean_queue_b == pytest.approx(m.params.q_max, abs=1e-9)
    assert ev.overflow_rate == pytest.approx(m.mean_arrival(), abs=1e-9)
    # battery pinned at capacity, every harvested unit spills
    assert ev.battery_spill_rate == pytest.approx(m.mean_harvest(), abs=1e-9)


def test_evaluate_degenerate_mixture_equals_pure_policy():
    m = desk_lite_model()
    actions = build_action_space(m)
    serve = TablePolicy.from_callable(lambda x: Action(x.q, 0.0), m)
    idle = TablePolicy.from_callable(lambda x: Action(0, 0.0), m)
    ev_serve = evaluate_policy(serve, 1.0, m, actions=actions)
    ev_idle = evaluate_policy(idle, 1.0, m, actions=actions)

    all_plus = evaluate_policy(MixedPolicy(serve, idle, xi=1.0), 1.0, m, actions=actions)
    assert all_plus.gain_j == ev_serve.gain_j
    assert all_plus.mean_queue_b == ev_serve.mean_queue_b

    all_minus = evaluate_policy(MixedPolicy(serve, idle, xi=0.0), 1.0, m, actions=actions)
    assert all_minus.gain_j == ev_idle.gain_j


def test_evaluate_mixture_interpolates_costs_linearly_in_stationary_terms():
    m = desk_lite_model()
    actions = build_action_space(m)
    a = relative_value_iteration(SolverConfig(beta=0.5, epsilon=1e-10), m).policy
    b = relative_value_iteration(SolverConfig(beta=5.0, epsilon=1e-10), m).policy
    mid = evaluate_policy(MixedPolicy(a, b, xi=0.3), 1.0, m, actions=actions)
    assert 0.0 < mid.mean_grid_k
    assert mid.gain_j == pytest.approx(mid.mean_queue_b + mid.mean_grid_k, abs=1e-12)


def test_evaluate_rejects_infeasible_policy_action():
    m = battery_model()
    bad = TablePolicy(r=np.full(m.space.n_states, 1), w_quanta=np.zeros(m.space.n_states, dtype=int),
                      delta_e=0.5, tau=1.0)
    with pytest.raises(ValueError):
        evaluate_policy(bad, 1.0, m)  # r=1 infeasible where q=0


def _random_table_policy(actions, rng):
    counts = np.diff(actions.indptr)
    sa = actions.indptr[:-1] + (rng.random(counts.size) * counts).astype(np.int64)
    return actions.policy_from_sa(sa), sa


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000), st.floats(0.0, 10.0),
       st.one_of(st.none(), st.floats(0.01, 1.0)))
def test_evaluate_matches_dense_reference_random_models(seed, beta, xi):
    # xi stays above 0.01: a mixture with a multichain policy is nearly
    # decomposable at tiny xi (seed 240 at xi 1e-30 down to 2e-311), where
    # the dense reference's LU meets an exactly zero pivot
    m = random_model(seed)
    actions = build_action_space(m)
    rng = np.random.default_rng(seed + 1)
    policy, sa = _random_table_policy(actions, rng)
    K = oracle_kernel(actions)
    P = K[sa]
    c_pi = actions.cost(beta)[sa]
    if xi is not None:  # a two-policy mixture: the coin enters P and c
        other, sa_other = _random_table_policy(actions, rng)
        policy = MixedPolicy(policy, other, xi=xi)
        P = xi * P + (1.0 - xi) * K[sa_other]
        c_pi = xi * c_pi + (1.0 - xi) * actions.cost(beta)[sa_other]
    try:
        ev = evaluate_policy(policy, beta, m, actions=actions)
    except MultichainError:
        return
    pi = dense_stationary_distribution(P)
    np.testing.assert_allclose(ev.stationary_dist, pi, rtol=0, atol=1e-12)
    assert ev.gain_j == pytest.approx(float(pi @ c_pi), rel=0, abs=1e-12)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000), st.floats(0.0, 10.0), st.integers(0, 200))
def test_bias_gain_lu_gain_is_stationary_average(seed, beta, ref):
    m = random_model(seed)
    actions = build_action_space(m)
    _, sa = _random_table_policy(actions, np.random.default_rng(seed + 1))
    P = actions.chain(sa)
    if recurrent_classes(P)[1] != 1:
        return
    ref %= m.space.n_states
    c_pi = actions.cost(beta)[sa]
    x = _bias_gain_lu(P, ref).solve(c_pi)
    gain, bias = x[ref], x - x[ref]
    pi = dense_stationary_distribution(P)
    assert gain == pytest.approx(float(pi @ c_pi), rel=0, abs=1e-12)
    # (gain, bias) solve the evaluation equations g + h = c + P h
    np.testing.assert_allclose(gain + bias, c_pi + P @ bias, rtol=0, atol=1e-10)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000))
def test_sa_of_policy_matches_segment_scan(seed):
    m = random_model(seed)
    actions = build_action_space(m)
    policy, sa = _random_table_policy(actions, np.random.default_rng(seed))
    np.testing.assert_array_equal(actions.sa_of_policy(policy), sa)
    np.testing.assert_array_equal(loop_sa_of_policy(actions, policy), sa)


def test_sa_of_policy_names_first_infeasible_state():
    m = desk_lite_model()
    actions = build_action_space(m)
    serve = TablePolicy.from_callable(lambda x: Action(x.q, 0.0), m)
    full = np.flatnonzero(m.space.iq == m.params.q_max)
    # out-of-range actions must not alias another state's row in the key
    for r, wq in ((m.params.q_max + 1, 0), (0, 99), (-1, 0), (1, 0)):
        bad = TablePolicy(r=serve.r.copy(), w_quanta=serve.w_quanta.copy(),
                          delta_e=serve.delta_e, tau=serve.tau)
        s = int(full[1]) if r != 1 else 0  # rate 1 is infeasible at q = 0
        bad.r[[s, -1]] = r
        bad.w_quanta[[s, -1]] = wq
        for lookup in (actions.sa_of_policy,
                       lambda p: loop_sa_of_policy(actions, p)):
            with pytest.raises(ValueError, match=f"infeasible at state {s}$"):
                lookup(bad)


@pytest.mark.parametrize("beta", [0.3, 1.0, 30.0])
def test_evaluation_reusing_policy_iteration_lu_equals_a_fresh_one(beta):
    # restarted from its own optimum, policy iteration last factorises the
    # policy extraction returns (the budgeted search's warm start)
    m = desk_model()
    actions = build_action_space(m)
    cfg = SolverConfig(beta=beta)
    res = relative_value_iteration(cfg, m, actions=actions)
    res = relative_value_iteration(cfg, m, actions=actions, start=res.policy)
    P, _ = policy_chain(res.policy, actions)
    assert (actions.last_lu[0] != P).nnz == 0
    reused = evaluate_policy(res.policy, beta, m, actions=actions)
    fresh = evaluate_policy(res.policy, beta, m)
    assert reused.reused_lu and not fresh.reused_lu
    for name in ("gain_j", "mean_queue_b", "mean_grid_k", "beta",
                 "overflow_rate", "battery_spill_rate"):
        assert getattr(reused, name) == getattr(fresh, name), name
    np.testing.assert_array_equal(reused.stationary_dist, fresh.stationary_dist)


def test_policy_iteration_at_another_reference_state_leaves_no_lu():
    # its LU factorises I - P + 1 e_ref^T, whose transpose solve is not the
    # stationary law unless ref is 0
    m = desk_model()
    actions = build_action_space(m)
    cfg = SolverConfig(beta=1.0, reference_state=77)
    res = relative_value_iteration(cfg, m, actions=actions)
    res = relative_value_iteration(cfg, m, actions=actions, start=res.policy)
    assert actions.last_lu is None
    ev = evaluate_policy(res.policy, 1.0, m, actions=actions)
    assert not ev.reused_lu
    np.testing.assert_array_equal(ev.stationary_dist,
                                  evaluate_policy(res.policy, 1.0, m).stationary_dist)


def test_evaluation_with_another_chain_factorises_its_own():
    m = desk_model()
    actions = build_action_space(m)
    relative_value_iteration(SolverConfig(beta=1.0), m, actions=actions)
    idle = TablePolicy.from_callable(lambda x: Action(x.q, 0.0), m)
    ev = evaluate_policy(idle, 1.0, m, actions=actions)
    assert not ev.reused_lu
    assert ev.gain_j == evaluate_policy(idle, 1.0, m).gain_j


def test_reused_lu_keeps_the_residual_check():
    m = desk_model()
    actions = build_action_space(m)
    res = relative_value_iteration(SolverConfig(beta=100.0), m, actions=actions)
    assert evaluate_policy(res.policy, 100.0, m, actions=actions).reused_lu
    P, lu = actions.last_lu

    class Skewed:
        def solve(self, b, trans="N"):
            x = lu.solve(b, trans=trans)
            x[:5] += 1e-3
            return x

    actions.last_lu = (P, Skewed())
    with pytest.raises(NonConvergenceError):
        evaluate_policy(res.policy, 100.0, m, actions=actions)


def test_evaluate_multichain_detected():
    params = ModelParams(q_max=1, e_max=0.0, delta_e=1.0)
    m = Model(
        params=params,
        channel=MarkovChainSpec((0.5, 2.0), np.eye(2)),  # two absorbing channels
        arrival=MarkovChainSpec.iid((1.0,), (1.0,)),
        harvest=MarkovChainSpec.iid((0.0,), (1.0,)),
    )
    with pytest.raises(MultichainError):
        evaluate_policy(lambda x: Action(x.q, 0.0), 1.0, m)


# ---------------------------------------------------------------------------
# brute-force oracle

def test_oracle_policy_count_and_optimality():
    m = battery_model()
    beta = 1.0
    res = brute_force_solve(beta, m)
    assert res.n_policies + res.n_multichain_skipped == 18
    for heuristic in (lambda x: Action(x.q, 0.0),
                      lambda x: Action(0, 0.0)):
        ev = evaluate_policy(heuristic, beta, m)
        assert res.gain <= ev.gain_j + 1e-12


def test_oracle_cap():
    with pytest.raises(InstanceTooLargeError):
        brute_force_solve(1.0, desk_lite_model(), cap=1000)


def test_oracle_skips_multichain_policies():
    # with a persistent channel chain some policies may still be unichain;
    # identity channel makes every policy multichain except none -> all skipped
    params = ModelParams(q_max=0, e_max=0.0, delta_e=1.0)
    m = Model(
        params=params,
        channel=MarkovChainSpec((0.5, 2.0), np.eye(2)),
        arrival=MarkovChainSpec.iid((0.0,), (1.0,)),
        harvest=MarkovChainSpec.iid((0.0,), (1.0,)),
    )
    with pytest.raises(MultichainError):
        brute_force_solve(1.0, m)
