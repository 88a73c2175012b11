import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse
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
    post_decision_values,
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
    load_model,
)

from helpers import (
    assert_policies_equivalent,
    battery_model,
    channel_model,
    cold_discounted_value_iteration,
    cold_relative_value_iteration,
    count_backups,
    dense_stationary_distribution,
    desk_lite_model,
    desk_model,
    PAIR_ARRAYS,
    assert_same_action_space,
    expand_rows,
    first_hit,
    full_chain,
    full_chain_evaluation,
    gth_stationary_distribution,
    identity_minus,
    iid_random_model,
    index_of,
    assert_same_csr,
    large_desk_model,
    loop_action_space,
    loop_sa_of_policy,
    matching_oracle,
    nonzero_recurrent_classes,
    per_state_gains,
    policy_chain,
    power_delay_model,
    random_model,
    row_min,
    scipy_bias_gain_matrix,
    scipy_discount_matrix,
    tiny_models,
    transition_kernel,
)


# ---------------------------------------------------------------------------
# transition kernel: the single-pair oracle and the actions' chain

def _chain_row(m, x, act):
    """Successor indices and probabilities of the action's row in chain(),
    None when the state's draw windows do not hold it."""
    actions = build_action_space(m)
    s = np.array([index_of(m.space, x)])
    r = np.array([act.r])
    wq = np.array([int(round(act.w * m.params.tau / m.params.delta_e))])
    if not 0 <= act.r <= x.q:
        return None
    lo, cap = actions.window(r, s)
    if not lo[0] <= wq[0] <= cap[0]:
        return None
    row = full_chain(actions, actions.post_index(r, wq, s))
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
    # the draw windows offer no action for the infeasible pair either
    assert _chain_row(m, x, Action(1, 0.0)) is None


def test_bulk_kernel_matches_single_pair_route():
    # the ActionSpace chain and transition_kernel are independent codepaths;
    # they must produce identical rows
    m = desk_lite_model()
    actions = build_action_space(m)
    _, state, r, wq = expand_rows(actions)
    rng = np.random.default_rng(7)
    picks = rng.choice(actions.n_sa, size=200, replace=False)
    rows = full_chain(actions, actions.post_index(r[picks], wq[picks], state[picks]))
    for k, sa in enumerate(picks):
        x = m.space.state_of(int(state[sa]))
        act = Action(int(r[sa]), float(wq[sa]) * m.params.delta_e / m.params.tau)
        idx, probs = transition_kernel(x, act, m)
        row = rows.getrow(k)
        assert np.array_equal(np.sort(row.indices), idx)
        dense = np.zeros(m.space.n_states)
        dense[idx] = probs
        np.testing.assert_allclose(row.toarray().ravel(), dense, atol=1e-15)


def _chain_of_every_action(actions):
    _, state, r, wq = expand_rows(actions)
    return full_chain(actions, actions.post_index(r, wq, state))


def test_kernel_rows_sum_to_one():
    for m in tiny_models() + [desk_lite_model()]:
        sums = _chain_of_every_action(build_action_space(m)).sum(axis=1)
        np.testing.assert_allclose(np.asarray(sums).ravel(), 1.0, atol=1e-12)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000))
def test_kernel_rows_sum_to_one_random_models(seed):
    m = random_model(seed)
    sums = _chain_of_every_action(build_action_space(m)).sum(axis=1)
    np.testing.assert_allclose(np.asarray(sums).ravel(), 1.0, atol=1e-12)


# ---------------------------------------------------------------------------
# the pairs' draw windows against the per-state loop

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


@pytest.mark.parametrize("restrict", [True, False])
def test_greedy_draw_matches_loop_draws_of(restrict):
    # the reduced solve's one-draw windows hold the greedy draw, capped by
    # the rate's power on every model
    m = desk_model(restrict=restrict)
    space = m.space

    def greedy_draws(s, r):
        h = float(space.h_values[space.ih[s]])
        return (battery_draw_cap_quanta(m.params, h, r, int(space.ib[s])),)

    actions = build_action_space(m, greedy_draw=True)
    assert_same_action_space(actions, loop_action_space(m, draws_of=greedy_draws))
    assert actions.n_offering.tolist() == [actions.pair_q.size]
    assert (actions.pair_lo > 0).any()


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000), st.booleans(), st.floats(-1e6, 1e6))
def test_expected_next_matches_oracle_kernel_random_models(seed, restrict, scale):
    # the post-decision table at every action's post-decision index is the
    # oracle kernel's expectation
    m = replace(random_model(seed), restrict_w_to_power=restrict)
    actions = build_action_space(m)
    v = scale * np.random.default_rng(seed).standard_normal(m.space.n_states)
    want = loop_action_space(m).kernel @ v
    _, state, r, wq = expand_rows(actions)
    got = actions.next_values(v)[actions.post_index(r, wq, state)]
    tol = 1e-14 * max(1.0, float(np.abs(v).max()))
    np.testing.assert_allclose(got, want, rtol=0, atol=tol)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000), st.booleans(),
       st.sampled_from(["random", "zeros", "small-int"]),
       st.one_of(st.just(0.0), st.floats(0.0, 10.0)),
       st.sampled_from([0.0, 1e-8, 0.3]))
@example(seed=0, restrict=True, kind="zeros", beta=0.0, tie_tol=0.0)
def test_backup_matches_loop_oracle_row_min_and_first_hit(seed, restrict, kind,
                                                          beta, tie_tol):
    # the walk over draw offsets gives the oracle rows' minimum and first
    # hit in (r, w) order, bit for bit, also where many draws tie (V = 0 at
    # beta 0 makes every draw of a rate tie, small integers make ties
    # common)
    m = replace(random_model(seed), restrict_w_to_power=restrict)
    actions = build_action_space(m)
    oracle = loop_action_space(m)
    rng = np.random.default_rng(seed)
    n = m.space.n_states
    v = {"random": rng.standard_normal(n), "zeros": np.zeros(n),
         "small-int": rng.integers(-2, 3, n).astype(float)}[kind]
    scale = 0.9
    table = post_decision_values(v, m.space, actions.exogenous).ravel()
    y = table[oracle.post_sa] * scale + (oracle.queue_sa + beta * oracle.grid_sa)
    want_mins = row_min(y, oracle.indptr)
    mins, pick = actions.backup(table, beta, scale)
    np.testing.assert_array_equal(mins, want_mins)
    want_r, want_wq = first_hit(y, want_mins, oracle, tie_tol)
    # extraction runs on demand, changes nothing it reads and repeats
    for _ in range(2):
        r, wq = pick(tie_tol)
        np.testing.assert_array_equal(r, want_r)
        np.testing.assert_array_equal(wq, want_wq)
    np.testing.assert_array_equal(mins, want_mins)


def test_action_space_stores_no_successor_lists():
    # the expectation is a contraction plus one index per action: no sparse
    # matrix and no array longer than the pairs (or the exogenous chain)
    m = large_desk_model()
    actions = build_action_space(m)
    n_ex = m.space.nh * m.space.na * m.space.ne
    n_pairs = actions.pair_q.size
    assert n_pairs < actions.n_sa
    for name, value in vars(actions).items():
        assert not hasattr(value, "indptr"), name
        if isinstance(value, np.ndarray):
            assert value.size <= max(n_pairs + 1, n_ex * n_ex), name


def test_action_space_keeps_pair_arrays_only():
    # six pair arrays, PAIR_BYTES a pair: 1.06 MB for the 24,000 pairs
    # (185,724 actions) here. Build, solve and evaluate together peak at
    # 4.5-4.8 MB (11.0 MB with one row per action).
    m = large_desk_model()
    tracemalloc.start()
    try:
        actions = build_action_space(m)
        res = relative_value_iteration(SolverConfig(beta=1.0), m, actions)
        evaluate_policy(res.policy, 1.0, m, actions=actions)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 6e6
    n_pairs = actions.pair_q.size
    arrays = {k: v for k, v in vars(actions).items() if isinstance(v, np.ndarray)}
    per_pair = {k for k, v in arrays.items() if v.size == n_pairs}
    assert per_pair == set(PAIR_ARRAYS)
    assert sum(arrays[k].nbytes for k in per_pair) == mdp.PAIR_BYTES * n_pairs


def test_too_many_pairs_raise_before_any_pair_array_exists(monkeypatch):
    m = large_desk_model()
    n_pairs = int((m.space.iq + 1).sum())
    monkeypatch.setattr(mdp, "MAX_PAIR_BYTES", mdp.PAIR_BYTES * n_pairs - 1)
    tracemalloc.start()
    try:
        with pytest.raises(InstanceTooLargeError,
                           match=f"^{n_pairs} .* {mdp.PAIR_BYTES * n_pairs} bytes"):
            build_action_space(m)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # less than one 8-byte pair array: only state-sized arrays were made
    assert peak < 8 * n_pairs
    monkeypatch.setattr(mdp, "MAX_PAIR_BYTES", mdp.PAIR_BYTES * n_pairs)
    assert build_action_space(m).pair_q.size == n_pairs


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000), st.booleans(), st.floats(0.0, 100.0))
def test_cost_matches_loop_oracle_random_models(seed, restrict, beta):
    m = replace(random_model(seed), restrict_w_to_power=restrict)
    oracle = loop_action_space(m)
    actions = build_action_space(m)
    _, state, r, wq = expand_rows(actions)
    queue, grid, _, _ = actions.terms(r, wq, state)
    np.testing.assert_array_equal(queue + beta * grid,
                                  oracle.queue_sa + beta * oracle.grid_sa)


def _oracle_rows(oracle, sa):
    r, wq = sa
    return loop_sa_of_policy(oracle, TablePolicy(r=r, w_quanta=wq, delta_e=1.0, tau=1.0))


def _assert_row_averages_match_oracle(m, actions, oracle, policy, beta):
    # B, K, overflow and spill from the oracle's full per-row arrays, under
    # the same stationary law, equal evaluate_policy's bit for bit
    try:
        ev = evaluate_policy(policy, beta, m, actions=actions)
    except MultichainError:
        return
    terms = [(w, _oracle_rows(oracle, sa)) for w, sa in mdp._policy_terms(policy, actions)]
    for got, name in ((ev.mean_queue_b, "queue_sa"), (ev.mean_grid_k, "grid_sa"),
                      (ev.overflow_rate, "overflow_sa"),
                      (ev.battery_spill_rate, "spill_sa")):
        per_sa = getattr(oracle, name)
        want = float(ev.stationary_dist @ sum(w * per_sa[rows] for w, rows in terms))
        assert got == want, name


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000), st.floats(0.0, 10.0),
       st.one_of(st.none(), st.floats(0.0, 1.0)))
def test_evaluate_row_averages_match_loop_oracle_random_models(seed, beta, xi):
    m = random_model(seed)
    actions = build_action_space(m)
    rng = np.random.default_rng(seed + 3)
    policy, _ = _random_table_policy(actions, rng)
    if xi is not None:
        policy = MixedPolicy(policy, _random_table_policy(actions, rng)[0], xi=xi)
    _assert_row_averages_match_oracle(m, actions, loop_action_space(m), policy, beta)


def test_evaluate_row_averages_match_loop_oracle_desk():
    m = desk_model()
    actions = build_action_space(m)
    oracle = loop_action_space(m)
    rng = np.random.default_rng(11)
    solved = relative_value_iteration(SolverConfig(beta=1.0), m, actions).policy
    idle = TablePolicy.from_callable(lambda x: Action(0, 0.0), m)
    for policy in (solved, idle, MixedPolicy(solved, idle, xi=0.4),
                   _random_table_policy(actions, rng)[0],
                   MixedPolicy(_random_table_policy(actions, rng)[0], solved, xi=0.7)):
        _assert_row_averages_match_oracle(m, actions, oracle, policy, 1.0)


def test_policy_chains_are_the_rows_chain():
    # the reference chains policy_chain and full_chain of the post-decision
    # indices and the per-state terms give the oracle rows' P
    # and costs, bit for bit, mixtures included
    m = desk_model()
    actions = build_action_space(m)
    oracle = matching_oracle(actions)
    K = oracle.kernel
    c = oracle.queue_sa + 1.3 * oracle.grid_sa
    rng = np.random.default_rng(3)
    policy, rows = _random_table_policy(actions, rng)
    other, rows_other = _random_table_policy(actions, rng)
    sa = actions.sa_of_policy(policy)
    assert_same_csr(policy_chain(policy, actions), K[rows])
    assert_same_csr(full_chain(actions, actions.post_index(*sa)), K[rows])
    queue, grid, _, _ = actions.terms(*sa)
    np.testing.assert_array_equal(queue + 1.3 * grid, c[rows])
    P = policy_chain(MixedPolicy(policy, other, xi=0.3), actions)
    want = (0.3 * K[rows] + 0.7 * K[rows_other]).tocsr()
    want.eliminate_zeros()
    assert_same_csr(P, want)


def test_kernel_rows_are_canonical():
    # sorted, duplicate-free columns in every row: sum_duplicates has
    # nothing to merge
    K = _chain_of_every_action(build_action_space(large_desk_model()))
    row = np.repeat(np.arange(K.shape[0]), np.diff(K.indptr))
    same_row = row[1:] == row[:-1]
    assert (np.diff(K.indices)[same_row] > 0).all()
    merged = K.copy()
    merged.has_canonical_format = False
    merged.sum_duplicates()
    for name in ("indptr", "indices", "data"):
        np.testing.assert_array_equal(getattr(merged, name), getattr(K, name))


def test_build_reads_the_cap_table_not_a_per_state_cap(monkeypatch):
    # the draw windows 0..min(ib, cap[ih, r]) come from Model.cap_table, read
    # off the power table: no cap is worked out per state or per entry
    calls = []
    real = model_module.battery_draw_cap_quanta

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(model_module, "battery_draw_cap_quanta", counting)
    monkeypatch.setattr(mdp, "battery_draw_cap_quanta", counting, raising=False)
    m = desk_model()
    space = m.space
    actions = build_action_space(m)
    assert calls == []
    windows = np.minimum(space.ib[:, None], m.cap_table[space.ih]) + 1
    in_queue = np.arange(m.params.q_max + 1) <= space.iq[:, None]
    assert actions.n_sa == int(windows[in_queue].sum())
    # a cap table of zeros in its place leaves every pair the draw 0 alone
    zero_caps = replace(m)
    vars(zero_caps)["cap_table"] = np.zeros_like(m.cap_table)
    assert build_action_space(zero_caps).n_sa == int((space.iq + 1).sum())
    assert calls == []


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
    oracle = loop_action_space(m)
    h = res.values.values
    y = oracle.queue_sa + 1.0 * oracle.grid_sa + oracle.kernel @ h
    mins = row_min(y, oracle.indptr)
    np.testing.assert_allclose(mins - h, res.gain, atol=1e-7)
    assert h[res.values.reference_state] == 0.0


def test_rvi_nonconvergence_raises():
    # max_iters bounds the policy evaluations: one evaluation does not reach
    # the optimum here, and its backup's span is far above epsilon
    m = desk_lite_model()
    with pytest.raises(NonConvergenceError) as err:
        relative_value_iteration(SolverConfig(beta=1.0, epsilon=1e-12, max_iters=1), m)
    assert err.value.residual > 1.0
    # from this start the second policy's gains form 3 levels, so a run cut
    # short there has no single gain
    m = random_model(216)
    actions = build_action_space(m)
    start, _ = _random_table_policy(actions, np.random.default_rng(218))
    with pytest.raises(NonConvergenceError, match="ended on 3 gain levels") as err:
        relative_value_iteration(SolverConfig(beta=0.0, max_iters=2), m, actions,
                                 start=start)
    assert err.value.residual > 0.1


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000), st.floats(0.0, 10.0), st.booleans())
@example(seed=100, beta=9.0, with_start=True)
@example(seed=216, beta=0.0, with_start=True)
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
        oracle = matching_oracle(actions)
        c = oracle.queue_sa + beta * oracle.grid_sa
        for res in (warm, cold):
            rows = loop_sa_of_policy(oracle, res.policy)
            gains = per_state_gains(oracle.kernel[rows], c[rows])
            np.testing.assert_allclose(gains, warm.gain, rtol=0, atol=1e-6)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000), st.floats(0.0, 10.0), st.booleans())
@example(seed=354, beta=9.0, with_start=True)
@example(seed=216, beta=0.0, with_start=True)
def test_rvi_makes_at_most_two_backups_per_evaluation_random_models(seed, beta,
                                                                    with_start):
    # the greedy start, then per evaluation one backup, or at several gain
    # levels the gain backup and the bias stage's, one per level until some
    # state moves; from seed 354's random start at beta 9 a stage that
    # backed up every level made 8 for 3 evaluations
    m = random_model(seed)
    actions = build_action_space(m)
    start = None
    if with_start:
        start, _ = _random_table_policy(actions, np.random.default_rng(seed + 2))
    with pytest.MonkeyPatch.context() as patch:
        calls = count_backups(patch)
        res = relative_value_iteration(SolverConfig(beta=beta), m, actions,
                                       start=start)
    assert len(calls) <= 1 + 2 * res.n_evaluations


def test_rvi_ends_on_a_multichain_optimum_by_policy_iteration():
    # seed 100 at beta 9: the optimal policy has 3 recurrent classes, each
    # earning 2; damped sweeps from the first multichain policy took 286
    # backups to get within 5e-10. The multichain LU is not kept, so
    # evaluate_policy still refuses the policy
    m = random_model(100)
    actions = build_action_space(m)
    res = relative_value_iteration(SolverConfig(beta=9.0), m, actions)
    assert res.n_evaluations == 3 and res.n_iters == 1
    assert abs(res.gain - 2.0) <= 2 * np.spacing(2.0)
    assert recurrent_classes(policy_chain(res.policy, actions))[1] == 3
    assert recurrent_classes(actions.last_lu[0])[1] == 1
    with pytest.raises(MultichainError, match="3 recurrent classes"):
        evaluate_policy(res.policy, 9.0, m, actions=actions)


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


def test_rvi_from_solved_policy_extracts_only_the_final_policy(monkeypatch):
    # policy iteration's one step keeps every incumbent, so it makes one
    # backup and extracts only the returned policy from it
    m = desk_model()
    res = relative_value_iteration(SolverConfig(beta=1.0), m)
    calls = count_backups(monkeypatch)
    again = relative_value_iteration(SolverConfig(beta=1.0), m, res.actions,
                                     start=res.policy)
    assert again.n_evaluations == 1 and again.policy == res.policy
    assert calls == [[10.0 * SolverConfig(beta=1.0).epsilon]]


def test_rvi_cold_solve_makes_one_backup_per_evaluation_and_sweep(monkeypatch):
    # the greedy start, then one backup per policy evaluated; the last of
    # them gives the bounds, the bias and the policy
    calls = count_backups(monkeypatch)
    res = relative_value_iteration(SolverConfig(beta=1.0), desk_model())
    assert len(calls) == 1 + res.n_evaluations
    assert calls[-1] == [10.0 * SolverConfig(beta=1.0).epsilon]


@pytest.mark.parametrize("beta", [1.0, 100.0])
def test_rvi_policy_iteration_start_leaves_few_sweeps(beta):
    # cold sweeps from V=0 need 74 (beta 1) and 124 (beta 100) here; policy
    # iteration's last backup already meets the span rule
    m = desk_model()
    res = relative_value_iteration(SolverConfig(beta=beta), m)
    assert res.n_iters == 1
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
    # two period-2 chains have one class each, but their product two: the
    # joint chain is checked, before the first evaluation
    flip = np.array([[0.0, 1.0], [1.0, 0.0]])
    m = replace(m, channel=MarkovChainSpec(m.channel.values, flip),
                arrival=MarkovChainSpec(m.arrival.values, flip))
    actions = build_action_space(m)
    with pytest.raises(MultichainError, match="^exogenous chain has 2 recurrent"):
        relative_value_iteration(SolverConfig(beta=1.0, max_iters=1000), m, actions)
    assert actions.n_factorised == 0


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
    oracle = loop_action_space(m)
    mins = row_min(oracle.queue_sa + 1.0 * oracle.grid_sa, oracle.indptr)
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
@given(st.integers(0, 10_000), st.sampled_from([0.9, 0.99]), st.floats(0.0, 10.0),
       st.booleans())
@example(seed=1, alpha=0.99, beta=1e-11, restrict=True)
@example(seed=4, alpha=0.99, beta=1e-11, restrict=True)
def test_dvi_matches_cold_sweeps_random_models(seed, alpha, beta, restrict):
    # max_iters bounds policy iteration too, so a cycle fails, not hangs. At
    # beta 1e-11 the examples' tied incumbents lead the minimum by more than
    # the residual bound allows, unless the keep rule is held below it
    m = replace(random_model(seed), restrict_w_to_power=restrict)
    actions = build_action_space(m)
    cfg = SolverConfig(beta=beta, epsilon=1e-9, alpha=alpha, max_iters=20_000)
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


def test_dvi_policy_iteration_keeps_tied_incumbents_and_ends():
    # greedy at tie tolerance 0 alone alternates between two policies here,
    # one evaluation each, up to max_iters; keeping the incumbent where it
    # ties within rounding ends policy iteration
    m = replace(random_model(443), restrict_w_to_power=False)
    cfg = SolverConfig(beta=1.0, epsilon=1e-9, alpha=0.99, max_iters=100)
    res = discounted_value_iteration(cfg, m)
    assert res.n_evaluations < cfg.max_iters
    cold = cold_discounted_value_iteration(replace(cfg, max_iters=20_000), m)
    np.testing.assert_allclose(res.values.values, cold.values.values, rtol=0,
                               atol=cfg.epsilon)


def test_dvi_warm_start_leaves_few_sweeps():
    # cold sweeps from V=0 need 28,743 here; policy iteration needs none,
    # only the one backup that certifies its values
    res = discounted_value_iteration(
        SolverConfig(beta=1.0, epsilon=1e-9, alpha=0.999), desk_model())
    assert res.n_iters == 1
    assert res.trace == [(1, res.residual)]


def test_dvi_makes_no_sweep_after_policy_iteration(monkeypatch):
    # the greedy start, then one backup per policy evaluated; the last of
    # them gives the residual and the policy
    m = large_desk_model()
    actions = build_action_space(m)
    calls = count_backups(monkeypatch)
    res = discounted_value_iteration(
        SolverConfig(beta=100.0, epsilon=1e-9, alpha=0.999), m, actions)
    assert len(calls) == 1 + res.n_evaluations
    assert calls[-1] == [10.0 * 1e-9]


@pytest.mark.parametrize("make", [desk_model, large_desk_model])
def test_dvi_residual_meets_the_contract_at_grid_prices(make):
    # the a-posteriori bound or its rounding floor, whichever is larger: at
    # alpha 0.999 one ulp exceeds the bound once |V| passes 4,096
    m = make()
    actions = build_action_space(m)
    alpha, eps = 0.999, 1e-9
    for beta in (0.01, 0.1, 1.0, 10.0, 100.0):
        res = discounted_value_iteration(
            SolverConfig(beta=beta, epsilon=eps, alpha=alpha), m, actions)
        v = res.values.values
        tv, _ = discounted_backup(actions, v, beta, alpha)
        resid = np.max(np.abs(tv - v))
        assert resid == res.residual
        assert resid <= max(eps * (1 - alpha) / (2 * alpha),
                            mdp.RESIDUAL_ULPS * np.spacing(np.abs(v).max()))


def test_dvi_truncated_start_still_meets_the_stopping_rule():
    # max_iters bounds the policy evaluations: one evaluation does not reach
    # the optimum here, and the residual of its values fails the contract
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

    ev = evaluate_policy(TablePolicy.from_callable(radical, m), 1.0, m)
    assert ev.mean_queue_b == pytest.approx(m.mean_arrival(), abs=1e-12)
    assert ev.gain_j == pytest.approx(ev.mean_queue_b + 1.0 * ev.mean_grid_k, abs=1e-12)
    assert ev.stationary_dist.sum() == pytest.approx(1.0, abs=1e-12)
    assert ev.overflow_rate == 0.0


def test_evaluate_idle_policy_saturates_buffer():
    m = desk_lite_model()
    ev = evaluate_policy(TablePolicy.from_callable(lambda x: Action(0, 0.0), m),
                         1.0, m)
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


def test_evaluate_mixture_weight_below_rounding_plays_the_other_policy():
    # a weight at or below the float spacing at 1 is lost in the rounding
    # of the chain's rows: the mixture evaluates as its other policy
    m = desk_lite_model()
    actions = build_action_space(m)
    serve = TablePolicy.from_callable(lambda x: Action(x.q, 0.0), m)
    idle = TablePolicy.from_callable(lambda x: Action(0, 0.0), m)
    eps = mdp.MIX_WEIGHT_ROUNDING
    for xi, pure in ((1.0 - eps / 2, serve), (1.0 - eps, serve), (eps, idle),
                     (1e-30, idle)):
        got = evaluate_policy(MixedPolicy(serve, idle, xi=xi), 1.0, m, actions=actions)
        want = evaluate_policy(pure, 1.0, m, actions=actions)
        assert (got.gain_j, got.mean_grid_k) == (want.gain_j, want.mean_grid_k)
        np.testing.assert_array_equal(got.stationary_dist, want.stationary_dist)
    # just above it both policies enter the chain
    P_mixed = policy_chain(MixedPolicy(serve, idle, xi=1.0 - 2 * eps), actions)
    assert P_mixed.nnz > policy_chain(serve, actions).nnz
    # the dropped policy is still checked for feasibility
    bad = TablePolicy(r=idle.r + 1, w_quanta=idle.w_quanta, delta_e=idle.delta_e,
                      tau=idle.tau)
    with pytest.raises(ValueError, match="infeasible at state 0$"):
        evaluate_policy(MixedPolicy(serve, bad, xi=1.0), 1.0, m, actions=actions)


def test_evaluate_mixture_below_rounding_of_a_multichain_policy_is_multichain():
    # seed 2459: policy_plus has two recurrent classes, and 1 - xi = 1.1e-16
    # alone would join them; the balance equations' answer was rounding noise
    m = random_model(2459)
    actions = build_action_space(m)
    rng = np.random.default_rng(2460)
    plus, _ = _random_table_policy(actions, rng)
    minus, _ = _random_table_policy(actions, rng)
    assert recurrent_classes(policy_chain(plus, actions))[1] == 2
    with pytest.raises(MultichainError):
        evaluate_policy(MixedPolicy(plus, minus, xi=0.9999999999999999), 0.0, m,
                        actions=actions)


def test_singular_bias_gain_matrix_is_multichain():
    # two absorbing states: I - P + 1 e_0^T has a zero column
    with pytest.raises(MultichainError, match="singular"):
        _bias_gain_lu(scipy.sparse.identity(2, format="csr"), 0)


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


def test_evaluate_takes_tables_only():
    m = battery_model()
    for policy in (lambda x: Action(x.q, 0.0), "radical"):
        with pytest.raises(TypeError, match="from_callable"):
            evaluate_policy(policy, 1.0, m)


def _random_table_policy(actions, rng):
    """A policy drawing each state's action uniformly from its rows, and
    those rows' indices in the expanded (loop oracle) layout."""
    indptr, _, r, wq = expand_rows(actions)
    counts = np.diff(indptr)
    rows = indptr[:-1] + (rng.random(counts.size) * counts).astype(np.int64)
    return actions.policy_from_sa((r[rows], wq[rows])), rows


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000), st.floats(0.0, 10.0),
       st.one_of(st.none(), st.floats(0.01, 1.0)))
@example(seed=2459, beta=0.0, xi=0.9999999999999999)
def test_evaluate_matches_dense_reference_random_models(seed, beta, xi):
    # a mixture with a multichain policy is nearly decomposable when the
    # other policy's weight is tiny: at seed 2459, xi 1 - 1.1e-16 the balance
    # equations' dense LU returns entries down to -0.34, while the GTH
    # elimination, which never subtracts, agrees with evaluate_policy to
    # 1.1e-16 (as it does at 1 - xi from 1e-16 to 1e-2)
    m = random_model(seed)
    actions = build_action_space(m)
    rng = np.random.default_rng(seed + 1)
    policy, rows = _random_table_policy(actions, rng)
    oracle = matching_oracle(actions)
    K = oracle.kernel
    c = oracle.queue_sa + beta * oracle.grid_sa
    P = K[rows]
    c_pi = c[rows]
    if xi is not None:  # a two-policy mixture: the coin enters P and c
        other, rows_other = _random_table_policy(actions, rng)
        policy = MixedPolicy(policy, other, xi=xi)
        P = xi * P + (1.0 - xi) * K[rows_other]
        c_pi = xi * c_pi + (1.0 - xi) * c[rows_other]
    try:
        ev = evaluate_policy(policy, beta, m, actions=actions)
    except MultichainError:
        return
    pi = gth_stationary_distribution(P)
    np.testing.assert_allclose(ev.stationary_dist, pi, rtol=0, atol=1e-12)
    assert ev.gain_j == pytest.approx(float(pi @ c_pi), rel=0, abs=1e-12)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000), st.floats(0.0, 10.0), st.integers(0, 200))
def test_bias_gain_lu_gain_is_stationary_average(seed, beta, ref):
    m = random_model(seed)
    actions = build_action_space(m)
    policy, _ = _random_table_policy(actions, np.random.default_rng(seed + 1))
    P = policy_chain(policy, actions)
    if recurrent_classes(P)[1] != 1:
        return
    ref %= m.space.n_states
    queue, grid, _, _ = actions.terms(*actions.sa_of_policy(policy))
    c_pi = queue + beta * grid
    x = _bias_gain_lu(P, ref).solve(c_pi)
    gain, bias = x[ref], x - x[ref]
    pi = dense_stationary_distribution(P)
    assert gain == pytest.approx(float(pi @ c_pi), rel=0, abs=1e-12)
    # (gain, bias) solve the evaluation equations g + h = c + P h
    np.testing.assert_allclose(gain + bias, c_pi + P @ bias, rtol=0, atol=1e-10)


def _assert_assembly_matches_scipy(P):
    """identity_minus gives scipy's CSC arrays, dtypes too, for the
    bias-gain matrix at the first, second and last reference state and for
    two discount factors."""
    n = P.shape[0]
    for ref in sorted({0, 1 % n, n - 1}):
        assert_same_csr(identity_minus(P, ref=ref),
                        scipy_bias_gain_matrix(P, ref))
    for alpha in (0.5, 0.999):
        assert_same_csr(identity_minus(P, alpha),
                        scipy_discount_matrix(P, alpha))


@pytest.mark.parametrize("make", [desk_model, large_desk_model],
                         ids=["desk", "desk-3000"])
def test_identity_minus_matches_scipy_arithmetic(make):
    m = make()
    actions = build_action_space(m)
    solved = relative_value_iteration(SolverConfig(beta=1.0), m, actions).policy
    drawn, _ = _random_table_policy(actions, np.random.default_rng(3))
    _assert_assembly_matches_scipy(
        full_chain(actions, actions.post_index(*actions.sa_of_policy(solved))))
    _assert_assembly_matches_scipy(policy_chain(drawn, actions))
    _assert_assembly_matches_scipy(
        policy_chain(MixedPolicy(solved, drawn, xi=0.3), actions))


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000), st.floats(0.01, 0.99))
def test_identity_minus_matches_scipy_arithmetic_random_models(seed, xi):
    m = random_model(seed)
    actions = build_action_space(m)
    rng = np.random.default_rng(seed + 1)
    plus, _ = _random_table_policy(actions, rng)
    minus, _ = _random_table_policy(actions, rng)
    _assert_assembly_matches_scipy(policy_chain(plus, actions))
    _assert_assembly_matches_scipy(
        policy_chain(MixedPolicy(plus, minus, xi=xi), actions))


def test_identity_minus_drops_the_zeros_scipy_drops():
    # row 0 is absorbing (1 - p_00 = 0), row 1 moves to state 0 surely
    # (-1 + 1 = 0 in column 0 at ref 0), row 2 has no diagonal entry
    P = scipy.sparse.csr_matrix(np.array([[1.0, 0.0, 0.0, 0.0],
                                          [1.0, 0.0, 0.0, 0.0],
                                          [0.25, 0.75, 0.0, 0.0],
                                          [0.0, 0.0, 0.5, 0.5]]))
    _assert_assembly_matches_scipy(P)
    for ref in range(4):
        assert_same_csr(identity_minus(P, ref=ref),
                        scipy_bias_gain_matrix(P, ref))
    at0 = identity_minus(P, ref=0).toarray()
    assert at0[1, 0] == 0.0 and at0[0, 0] == 1.0 and at0[2, 2] == 1.0
    assert (identity_minus(P, ref=0).data != 0.0).all()
    assert 0 not in identity_minus(P, ref=3).indices[:2]  # (0, 0) dropped


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000))
def test_recurrent_classes_from_csr_arrays_match_nonzero_edges(seed):
    m = random_model(seed)
    actions = build_action_space(m)
    policy, _ = _random_table_policy(actions, np.random.default_rng(seed))
    P = policy_chain(policy, actions)
    got, want = recurrent_classes(P), nonzero_recurrent_classes(P)
    np.testing.assert_array_equal(got[0], want[0])
    assert got[1] == want[1]


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000))
def test_sa_of_policy_matches_segment_scan(seed):
    # the bounds check accepts what the oracle's rows hold, and nothing else:
    # a drawn policy, and the same with one state's action moved by a step
    m = random_model(seed)
    actions = build_action_space(m)
    oracle = loop_action_space(m)
    rng = np.random.default_rng(seed)
    policy, rows = _random_table_policy(actions, rng)
    r, wq = actions.sa_of_policy(policy)
    np.testing.assert_array_equal(r, policy.r)
    np.testing.assert_array_equal(wq, policy.w_quanta)
    np.testing.assert_array_equal(loop_sa_of_policy(oracle, policy), rows)
    for _ in range(20):
        moved = TablePolicy(r=policy.r.copy(), w_quanta=policy.w_quanta.copy(),
                            delta_e=policy.delta_e, tau=policy.tau)
        s = int(rng.integers(m.space.n_states))
        moved.r[s] += int(rng.integers(-1, 2))
        moved.w_quanta[s] += int(rng.integers(-1, 2))
        try:
            loop_sa_of_policy(oracle, moved)
        except ValueError:
            with pytest.raises(ValueError, match=f"infeasible at state {s}$"):
                actions.sa_of_policy(moved)
        else:
            actions.sa_of_policy(moved)


def test_sa_of_policy_names_first_infeasible_state():
    m = desk_lite_model()
    actions = build_action_space(m)
    oracle = loop_action_space(m)
    serve = TablePolicy.from_callable(lambda x: Action(x.q, 0.0), m)
    full = np.flatnonzero(m.space.iq == m.params.q_max)
    # out-of-range actions must not index past the cap table
    for r, wq in ((m.params.q_max + 1, 0), (0, 99), (-1, 0), (1, 0)):
        bad = TablePolicy(r=serve.r.copy(), w_quanta=serve.w_quanta.copy(),
                          delta_e=serve.delta_e, tau=serve.tau)
        s = int(full[1]) if r != 1 else 0  # rate 1 is infeasible at q = 0
        bad.r[[s, -1]] = r
        bad.w_quanta[[s, -1]] = wq
        for lookup in (actions.sa_of_policy,
                       lambda p: loop_sa_of_policy(oracle, p)):
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
    post = actions.post_index(*actions.sa_of_policy(res.policy))
    Q = actions.lumped_chain([(1.0, actions.lumped(post))])
    assert (actions.last_lu[0] != Q).nnz == 0
    reused = evaluate_policy(res.policy, beta, m, actions=actions)
    fresh = evaluate_policy(res.policy, beta, m)
    assert reused.reused_lu and not fresh.reused_lu
    for name in ("gain_j", "mean_queue_b", "mean_grid_k", "beta",
                 "overflow_rate", "battery_spill_rate"):
        assert getattr(reused, name) == getattr(fresh, name), name
    np.testing.assert_array_equal(reused.stationary_dist, fresh.stationary_dist)


@pytest.mark.parametrize("beta", [0.3, 30.0])
def test_memo_hit_gives_a_fresh_lus_bias_and_law_bit_for_bit(beta):
    # a warm start's first policy-iteration step and a repeated evaluation,
    # a mixture's included, take the stored LU: no chain is factorised, and
    # bias, gain and stationary law equal those of a fresh LU
    m = desk_model()
    actions = build_action_space(m)
    solved = relative_value_iteration(SolverConfig(beta=beta), m, actions).policy
    sa = actions.sa_of_policy(solved)
    evaluate_policy(solved, beta, m, actions=actions)
    before = actions.n_factorised
    h_hit = mdp._howard(actions, beta, sa, 1)[0]
    assert actions.n_factorised == before
    h_fresh = mdp._howard(build_action_space(m), beta, sa, 1)[0]
    np.testing.assert_array_equal(h_hit, h_fresh)

    other = relative_value_iteration(SolverConfig(beta=3.0 * beta), m).policy
    for policy in (solved, MixedPolicy(solved, other, xi=0.37)):
        evaluate_policy(policy, beta, m, actions=actions)
        before = actions.n_factorised
        hit = evaluate_policy(policy, beta, m, actions=actions)
        fresh = evaluate_policy(policy, beta, m)
        assert hit.reused_lu and not fresh.reused_lu
        assert actions.n_factorised == before
        np.testing.assert_array_equal(hit.stationary_dist, fresh.stationary_dist)
        assert (hit.gain_j, hit.mean_queue_b, hit.mean_grid_k) == (
            fresh.gain_j, fresh.mean_queue_b, fresh.mean_grid_k)


def test_memo_keys_on_the_chain_and_holds_one_entry():
    m = desk_model()
    actions = build_action_space(m)
    serve = TablePolicy.from_callable(lambda x: Action(x.q, 0.0), m)
    idle = TablePolicy.from_callable(lambda x: Action(0, 0.0), m)
    first = evaluate_policy(serve, 1.0, m, actions=actions)
    assert not first.reused_lu and actions.n_factorised == 1
    assert not evaluate_policy(idle, 1.0, m, actions=actions).reused_lu
    # idle's chain replaced serve's, so serve is factorised again
    assert not evaluate_policy(serve, 1.0, m, actions=actions).reused_lu
    # another price, the same chain: a hit
    assert evaluate_policy(serve, 7.0, m, actions=actions).reused_lu
    assert actions.n_factorised == 3
    # a mixture weight is part of the key
    mix = MixedPolicy(serve, idle, xi=0.5)
    evaluate_policy(mix, 1.0, m, actions=actions)
    assert evaluate_policy(mix, 1.0, m, actions=actions).reused_lu
    assert not evaluate_policy(MixedPolicy(serve, idle, xi=0.25), 1.0, m,
                               actions=actions).reused_lu
    assert actions.n_factorised == 5


def test_policies_with_one_chain_share_its_lu():
    # two draws that both fill the battery to its top leave the same next
    # state, so policies differing only there play one chain: the key is
    # the actions' post-decision indices, not the actions
    m = desk_model()
    actions = build_action_space(m)
    _, state, r, wq = expand_rows(actions)
    post = actions.post_index(r, wq, state)
    row = int(np.flatnonzero((np.diff(post) == 0) & (np.diff(state) == 0))[0])
    s = int(state[row])
    serve = TablePolicy.from_callable(lambda x: Action(x.q, 0.0), m)

    def playing(k):
        sa = tuple(t.copy() for t in actions.sa_of_policy(serve))
        sa[0][s], sa[1][s] = r[k], wq[k]
        return actions.policy_from_sa(sa)

    a, b = playing(row), playing(row + 1)
    assert a != b
    ev_a = evaluate_policy(a, 1.0, m, actions=actions)
    ev_b = evaluate_policy(b, 1.0, m, actions=actions)
    assert ev_b.reused_lu and actions.n_factorised == 1
    np.testing.assert_array_equal(ev_a.stationary_dist, ev_b.stationary_dist)
    assert ev_b.gain_j == evaluate_policy(b, 1.0, m).gain_j


def test_policy_iteration_at_another_reference_state_leaves_its_lu():
    # the lumped LU is taken at lumped state 0 whatever the reference state,
    # which only normalises the bias: the evaluation reuses it, and its
    # stationary law is a fresh LU's, bit for bit
    m = desk_model()
    actions = build_action_space(m)
    cfg = SolverConfig(beta=1.0, reference_state=77)
    res = relative_value_iteration(cfg, m, actions=actions)
    assert res.values.values[77] == 0.0
    res = relative_value_iteration(cfg, m, actions=actions, start=res.policy)
    assert actions.last_lu is not None
    ev = evaluate_policy(res.policy, 1.0, m, actions=actions)
    assert ev.reused_lu
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
    Q, lu, recurrent, key = actions.last_lu
    skewed = np.flatnonzero(recurrent)[:5]

    class Skewed:
        def solve(self, b, trans="N"):
            x = lu.solve(b, trans=trans)
            x[skewed] += 1e-3
            return x

    actions.last_lu = (Q, Skewed(), recurrent, key)
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
        evaluate_policy(TablePolicy.from_callable(lambda x: Action(x.q, 0.0), m),
                        1.0, m)


# ---------------------------------------------------------------------------
# the lumped post-decision chain against the full chain over the states

def _assert_lumped_matches_full_chain(m, actions, policy, beta, ref=0, alpha=0.99):
    """evaluate_policy (gain, stationary law, the multichain verdict) and,
    for a table policy, one policy-iteration evaluation (bias at ref, and
    discounted values) against one LU of the full chain P."""
    full = full_chain_evaluation(policy, beta, actions, ref=ref)
    if full is None:
        with pytest.raises(MultichainError):
            evaluate_policy(policy, beta, m, actions=actions)
        return
    gain, bias, pi = full
    ev = evaluate_policy(policy, beta, m, actions=actions)
    assert ev.gain_j == pytest.approx(gain, rel=1e-12, abs=1e-12)
    np.testing.assert_allclose(ev.stationary_dist, pi, rtol=0, atol=1e-12)
    # states outside the recurrent class get exact zeros
    recurrent = recurrent_classes(policy_chain(policy, actions))[0]
    assert (ev.stationary_dist[~recurrent] == 0.0).all()
    if isinstance(policy, MixedPolicy):
        return
    sa = actions.sa_of_policy(policy)
    h, n_eval = mdp._howard(actions, beta, sa, 1, ref=ref)[:2]
    assert n_eval == 1 and h[ref] == 0.0
    np.testing.assert_allclose(h, bias, rtol=0,
                               atol=1e-12 * max(1.0, np.abs(bias).max()))
    v = mdp._howard(actions, beta, sa, 1, alpha=alpha, epsilon=1e-9)[0]
    want = full_chain_evaluation(policy, beta, actions, alpha=alpha)
    np.testing.assert_allclose(v, want, rtol=0,
                               atol=1e-11 * max(1.0, np.abs(want).max()))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000), st.booleans(), st.floats(0.0, 10.0),
       st.one_of(st.none(), st.floats(0.0, 1.0)), st.sampled_from([0.9, 0.999]))
def test_lumped_evaluation_matches_full_chain_random_models(seed, iid, beta, xi, alpha):
    # Markov arrival and harvest: no two exogenous rows coincide and the
    # lumped chain is as large as the full one; i.i.d.: one class per
    # channel level
    m = iid_random_model(seed) if iid else random_model(seed)
    actions = build_action_space(m)
    space = m.space
    assert actions.n_lumped == (space.nq * space.nb * space.nh if iid
                                else space.n_states)
    rng = np.random.default_rng(seed + 1)
    policy, _ = _random_table_policy(actions, rng)
    ref = int(rng.integers(space.n_states))
    _assert_lumped_matches_full_chain(m, actions, policy, beta, ref, alpha)
    if xi is not None:
        policy = MixedPolicy(policy, _random_table_policy(actions, rng)[0], xi=xi)
        _assert_lumped_matches_full_chain(m, actions, policy, beta)


@pytest.mark.parametrize("make", [
    desk_model, desk_lite_model, lambda: desk_model(restrict=False),
    lambda: iid_random_model(7)],
    ids=["desk", "desk-lite", "desk-unrestricted", "iid-random"])
def test_lumped_evaluation_matches_full_chain(make):
    m = make()
    actions = build_action_space(m)
    space = m.space
    assert actions.n_lumped == space.nq * space.nb * space.nh
    rng = np.random.default_rng(11)
    idle = TablePolicy.from_callable(lambda x: Action(0, 0.0), m)
    for beta in (0.1, 1.0, 100.0):
        solved = relative_value_iteration(SolverConfig(beta=beta), m, actions).policy
        drawn, _ = _random_table_policy(actions, rng)
        for policy in (solved, drawn, idle, MixedPolicy(solved, drawn, xi=0.3),
                       MixedPolicy(drawn, idle, xi=0.8)):
            _assert_lumped_matches_full_chain(m, actions, policy, beta,
                                              int(rng.integers(space.n_states)))


def test_lumped_chain_has_the_full_chains_recurrent_classes():
    # AB and BA share their nonzero spectrum, so Q = R S has as many
    # recurrent classes as P = S R; here two absorbing channel levels make
    # every policy's chain multichain, on the full and the lumped chain
    m = replace(desk_lite_model(), channel=MarkovChainSpec((0.6, 1.4), np.eye(2)))
    actions = build_action_space(m)
    serve = TablePolicy.from_callable(lambda x: Action(x.q, 0.0), m)
    lp = actions.lumped(actions.post_index(*actions.sa_of_policy(serve)))
    assert recurrent_classes(actions.lumped_chain([(1.0, lp)]))[1] == 2
    assert recurrent_classes(policy_chain(serve, actions))[1] == 2
    with pytest.raises(MultichainError, match="2 recurrent classes"):
        evaluate_policy(serve, 1.0, m, actions=actions)


# ---------------------------------------------------------------------------
# brute-force oracle

def test_oracle_policy_count_and_optimality():
    m = battery_model()
    beta = 1.0
    res = brute_force_solve(beta, m)
    assert res.n_policies + res.n_multichain_skipped == 18
    for heuristic in (lambda x: Action(x.q, 0.0),
                      lambda x: Action(0, 0.0)):
        ev = evaluate_policy(TablePolicy.from_callable(heuristic, m), beta, m)
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
