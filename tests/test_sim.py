import math
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ehsched import heuristics
from ehsched import sim
from ehsched.heuristics import (
    HeuristicKind,
    conservative_policy,
    conservative_rate_table,
    make_heuristic,
    mixing_weight,
)
from ehsched.io import sim_result_dict
from ehsched.mdp import (
    MixedPolicy,
    SolverConfig,
    TablePolicy,
    evaluate_policy,
    relative_value_iteration,
)
from ehsched.model import (
    GRID_EPS,
    Action,
    ConfigError,
    MarkovChainSpec,
    ModelParams,
    StateSpace,
    battery_draw_cap_quanta,
    draw_cap_table,
    load_model,
    power_inverse,
    required_power,
    required_power_table,
)
from ehsched.sim import (
    PolicyDomainError,
    SimConfig,
    _chain_path,
    _clamped_walk,
    discretize_rayleigh,
    run_simulation,
    sweep_arrival,
    sweep_budget,
    sweep_channel,
)

from helpers import (
    baseline_tables,
    desk_lite_model,
    desk_model,
    index_of,
    large_desk_model,
    loop_baseline_slots,
    loop_chain_path,
    mixed_action,
    radical_policy,
    random_model,
    reference_simulation,
)

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


@pytest.fixture(scope="module")
def lite():
    return desk_lite_model()


@pytest.fixture(scope="module")
def lite_solved(lite):
    return relative_value_iteration(SolverConfig(beta=1.0, epsilon=1e-10), lite)


def radical(model):
    return make_heuristic(HeuristicKind("radical"), model)


# --- config plumbing ---------------------------------------------------------


def test_config_validation():
    assert SimConfig(n_slots=1000, seed=1).effective_warmup == 10
    assert SimConfig(n_slots=1000, seed=1, warmup=0).effective_warmup == 0
    with pytest.raises(ValueError):
        SimConfig(n_slots=0, seed=1)
    with pytest.raises(ValueError):
        SimConfig(n_slots=100, seed=1, warmup=100)


def test_same_seed_same_result_different_seed_not(lite):
    cfg = SimConfig(n_slots=20_000, seed=7)
    a = run_simulation(radical(lite), lite, cfg)
    b = run_simulation(radical(lite), lite, cfg)
    assert a == b
    c = run_simulation(radical(lite), lite, SimConfig(n_slots=20_000, seed=8))
    assert c.mean_queue != a.mean_queue


# --- dynamics bookkeeping ----------------------------------------------------


def test_trace_respects_recursions(lite):
    cfg = SimConfig(n_slots=3_000, seed=3, record_trace=True)
    res = run_simulation(radical(lite), lite, cfg)
    tr = res.trace
    params = lite.params
    de, tau = params.delta_e, params.tau

    # queue recursion with overflow accounting
    raw_q = tr["q"][:-1] - tr["r"][:-1] + tr["a"][:-1]
    np.testing.assert_array_equal(tr["q"][1:],
                                  np.minimum(raw_q, params.q_max))
    np.testing.assert_array_equal(tr["overflow_pkts"][:-1],
                                  np.maximum(raw_q - params.q_max, 0.0))

    # battery conservation, exact in quanta
    bq = np.round(tr["e_b"] / de).astype(np.int64)
    wq = np.round(tr["w"] * tau / de).astype(np.int64)
    eq = np.round(tr["e"] / de).astype(np.int64)
    sq = np.round(tr["spill_energy"] / de).astype(np.int64)
    np.testing.assert_array_equal(bq[1:], bq[:-1] - wq[:-1] + eq[:-1] - sq[:-1])
    assert bq.max() <= params.n_battery_levels - 1
    assert (sq[bq - wq + eq <= params.n_battery_levels - 1] == 0).all()

    # grid accounting: power is the hinge of required minus draw
    from ehsched.model import required_power
    want = np.array([max(required_power(params, h, int(r)) - w, 0.0)
                     for h, r, w in zip(tr["h"], tr["r"], tr["w"])])
    np.testing.assert_allclose(tr["grid_power"], want, rtol=0, atol=0)


def test_radical_mean_queue_is_mean_arrival(lite):
    cfg = SimConfig(n_slots=100_000, seed=11)
    res = run_simulation(radical(lite), lite, cfg)
    assert abs(res.mean_queue - lite.mean_arrival()) <= 3 * res.mean_queue_se
    assert res.overflow_fraction == 0.0


def test_conservative_respects_slot_budget(lite):
    cfg = SimConfig(n_slots=50_000, seed=5)
    res = run_simulation(make_heuristic(HeuristicKind("conservative"), lite),
                         lite, cfg)
    params = lite.params
    assert res.max_grid_power <= params.p_bar + params.delta_e / params.tau + 1e-12


def test_huge_budget_makes_conservative_act_radical(lite):
    from dataclasses import replace
    big = replace(lite, params=replace(lite.params, p_bar=1e9))
    cfg = SimConfig(n_slots=20_000, seed=9)
    res_c = run_simulation(make_heuristic(HeuristicKind("conservative"), big),
                           big, cfg)
    res_r = run_simulation(radical(big), big, cfg)
    assert res_c.mean_queue == res_r.mean_queue
    assert res_c.mean_grid_power == res_r.mean_grid_power


# --- statistical agreement with exact evaluation ------------------------------


def test_solved_table_policy_matches_exact_averages(lite, lite_solved):
    ev = evaluate_policy(lite_solved.policy, 1.0, lite)
    res = run_simulation(lite_solved.policy, lite, SimConfig(n_slots=100_000, seed=13))
    assert abs(res.mean_queue - ev.mean_queue_b) <= 3 * res.mean_queue_se
    assert abs(res.mean_grid_power - ev.mean_grid_k) <= 3 * res.mean_grid_power_se


def test_mixed_table_policy_matches_exact_averages(lite):
    plus = relative_value_iteration(SolverConfig(beta=6.0, epsilon=1e-10), lite)
    minus = relative_value_iteration(SolverConfig(beta=2.0, epsilon=1e-10), lite)
    mix = MixedPolicy(policy_plus=plus.policy, policy_minus=minus.policy, xi=0.4)
    ev = evaluate_policy(mix, 1.0, lite)
    res = run_simulation(mix, lite, SimConfig(n_slots=100_000, seed=17))
    assert abs(res.mean_queue - ev.mean_queue_b) <= 3 * res.mean_queue_se
    assert abs(res.mean_grid_power - ev.mean_grid_k) <= 3 * res.mean_grid_power_se


def _per_slot_table_actor(policy, model):
    """The table policy (or mixture of two) as an act(state, coin) object for
    the reference simulator, which builds a SystemState every slot: the
    action is looked up by the state's index."""
    space = model.space
    tables = ([(1.0, policy)] if isinstance(policy, TablePolicy)
              else [(policy.xi, policy.policy_plus), (1.0, policy.policy_minus)])

    def act(x, coin):
        pol = next(p for w, p in tables if coin < w)
        return pol.action(index_of(space, x))

    return SimpleNamespace(act=act)


def test_table_actors_match_per_slot_lookup_bit_for_bit(lite, lite_solved):
    other = relative_value_iteration(SolverConfig(beta=6.0, epsilon=1e-10), lite)
    cfg = SimConfig(n_slots=10_000, seed=29, record_trace=True)
    for policy in (lite_solved.policy,
                   MixedPolicy(lite_solved.policy, other.policy, xi=0.4)):
        got = run_simulation(policy, lite, cfg)
        want = reference_simulation(_per_slot_table_actor(policy, lite), lite,
                                    cfg)
        assert sim_result_dict(got) == sim_result_dict(want)
        for key, series in want.trace.items():
            np.testing.assert_array_equal(got.trace[key], series, err_msg=key)


def test_mixed_heuristic_edge_weights_reduce_to_pure(lite):
    cfg = SimConfig(n_slots=20_000, seed=23)
    always = run_simulation(make_heuristic(HeuristicKind("mixed", xi=1.0), lite),
                            lite, cfg)
    pure_r = run_simulation(radical(lite), lite, cfg)
    assert always.mean_queue == pure_r.mean_queue
    never = run_simulation(make_heuristic(HeuristicKind("mixed", xi=0.0), lite),
                           lite, cfg)
    pure_c = run_simulation(make_heuristic(HeuristicKind("conservative"), lite),
                            lite, cfg)
    assert never.mean_grid_power == pure_c.mean_grid_power


# --- baseline tables and pre-sampled chain paths -------------------------------


def assert_tables_match(params, h_values):
    """The cap and rate tables read off the power table against the per-entry
    functions: every battery level of a grid up to 5,000 levels; on a larger
    one both sides of every step of a rate row, its ends and every 1,000th
    level (the row is a step function of the budget)."""
    power = required_power_table(params, h_values)
    cap = draw_cap_table(params, power)
    rc = conservative_rate_table(params, power)
    nb = params.n_battery_levels
    assert cap.shape == (len(h_values), params.q_max + 1)
    assert rc.shape == (len(h_values), nb)
    for ih, h in enumerate(h_values):
        levels = range(nb)
        if nb > 5_000:
            steps = np.flatnonzero(np.diff(rc[ih]))
            levels = sorted({0, nb - 1, *range(0, nb, 1_000), *steps.tolist(),
                             *(steps + 1).tolist()})
        for ib in levels:
            budget = params.p_bar + ib * params.delta_e / params.tau
            assert rc[ih, ib] == min(power_inverse(params, h, budget),
                                     params.q_max), (ih, ib)
        for r in range(params.q_max + 1):
            c = int(cap[ih, r])
            # the battery levels where min(ib, cap) changes branch
            for ib in {b for b in (0, 1, c - 1, c, c + 1, nb - 1) if 0 <= b < nb}:
                assert (min(ib, c)
                        == battery_draw_cap_quanta(params, h, r, ib)), (ih, r, ib)


def test_baseline_tables_match_per_state_functions_on_configs():
    for name in ("desk", "channel", "fig4", "mixed_budget"):
        m = load_model(CONFIGS / f"{name}.json")
        assert_tables_match(m.params, m.channel.values)
        # the model's cached tables are these
        power = required_power_table(m.params, m.channel.values)
        assert np.array_equal(m.power_table, power)
        assert np.array_equal(m.cap_table, draw_cap_table(m.params, power))
        assert np.array_equal(m.rate_table, conservative_rate_table(m.params, power))
    # budgets on a required power or within GRID_EPS below it, and an empty
    # buffer
    h = (0.5, 1.0)
    base = ModelParams(circuit_c=1.0, q_max=6, e_max=3.0, delta_e=0.5)
    for r in (1, 2, 3):
        power = required_power(base, 0.5, r)
        for p_bar in (power - 1.0, power - 0.5 * GRID_EPS):
            assert_tables_match(replace(base, p_bar=p_bar), h)
    assert_tables_match(ModelParams(q_max=0, e_max=1.0, delta_e=0.5, p_bar=2.0), h)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000), st.floats(0.0, 20.0), st.integers(0, 8))
def test_baseline_tables_match_per_state_functions_random(seed, p_bar, q_max):
    rng = np.random.default_rng(seed)
    delta_e = float(rng.choice([0.1, 0.25, 0.5, 1.0]))
    params = ModelParams(q_max=q_max, e_max=delta_e * int(rng.integers(0, 17)),
                         delta_e=delta_e, tau=float(rng.choice([0.5, 1.0, 2.0])),
                         b=float(rng.uniform(0.2, 3.0)),
                         n_uses=float(rng.uniform(1.0, 10.0)),
                         sigma2=float(rng.uniform(0.1, 3.0)),
                         circuit_c=float(rng.random()), rho=1.0 + float(rng.random()),
                         p_bar=p_bar)
    h_values = tuple(sorted(float(v) for v in rng.uniform(0.05, 3.0, size=3)))
    assert_tables_match(params, h_values)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000), st.floats(0.0, 3.0), st.floats(0.0, 1.0))
def test_baseline_tables_reproduce_per_state_actors(seed, p_bar, xi):
    m = random_model(seed)
    m = replace(m, params=replace(m.params, p_bar=p_bar))
    params = m.params
    cfg = SimConfig(n_slots=2_000, seed=seed, warmup=0, record_trace=True)
    generic = {
        "radical": lambda x: radical_policy(x, params),
        "conservative": lambda x: conservative_policy(x, params),
        "mixed": SimpleNamespace(
            act=lambda x, coin: mixed_action(x, params, xi, coin)),
    }
    for name, slow in generic.items():
        kind = HeuristicKind(name, xi=xi if name == "mixed" else None)
        fast = run_simulation(make_heuristic(kind, m), m, cfg)
        ref = reference_simulation(slow, m, cfg)
        assert fast.trace.keys() == ref.trace.keys()
        for key in ref.trace:
            assert fast.trace[key].tobytes() == ref.trace[key].tobytes(), key
        assert replace(fast, trace=None) == replace(ref, trace=None)


def test_make_heuristic_actors_never_build_states_in_the_simulator(monkeypatch):
    m = desk_lite_model()
    actors = [make_heuristic(HeuristicKind(k), m)
              for k in ("radical", "conservative")]
    actors.append(make_heuristic(HeuristicKind("mixed", xi=0.5), m))

    def fail(*args):
        raise ValueError("per-state baseline called")

    monkeypatch.setattr(StateSpace, "state_of", fail)
    monkeypatch.setattr(heuristics, "conservative_policy", fail)
    monkeypatch.setattr(heuristics, "greedy_battery", fail)
    for actor in actors:
        run_simulation(actor, m, SimConfig(n_slots=500, seed=1))
    # an actor built for other params is refused before any slot runs
    other = replace(m, params=replace(m.params, p_bar=m.params.p_bar + 1.0))
    with pytest.raises(PolicyDomainError, match="other params"):
        run_simulation(actors[0], other, SimConfig(n_slots=10, seed=1))


BASELINE_MODELS = {
    "desk-lite": desk_lite_model,
    "desk": desk_model,
    "desk-unrestricted": lambda: desk_model(restrict=False),
}


def per_state_baseline_tables(model):
    params = model.params
    return (TablePolicy.from_callable(lambda x: radical_policy(x, params), model),
            TablePolicy.from_callable(lambda x: conservative_policy(x, params),
                                      model))


@pytest.mark.parametrize("make", [*BASELINE_MODELS.values(), large_desk_model],
                         ids=[*BASELINE_MODELS, "desk-3000"])
def test_baseline_state_tables_equal_per_state_functions(make):
    m = make()
    assert baseline_tables(m) == per_state_baseline_tables(m)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000), st.floats(0.0, 3.0))
def test_baseline_state_tables_equal_per_state_functions_random(seed, p_bar):
    m = random_model(seed)
    m = replace(m, params=replace(m.params, p_bar=p_bar))
    assert baseline_tables(m) == per_state_baseline_tables(m)


def equivalent_tables(model, xi=0.37):
    """Each make_heuristic baseline and the table data it plays."""
    rad, con = baseline_tables(model)
    return [(make_heuristic(HeuristicKind("radical"), model), rad),
            (make_heuristic(HeuristicKind("conservative"), model), con),
            (make_heuristic(HeuristicKind("mixed", xi=xi), model),
             MixedPolicy(rad, con, xi))]


@pytest.mark.parametrize("name", list(BASELINE_MODELS))
def test_baselines_simulate_bit_for_bit_as_their_tables(name):
    m = BASELINE_MODELS[name]()
    cfg = SimConfig(n_slots=20_000, seed=5, record_trace=True)
    for baseline, table in equivalent_tables(m):
        got = run_simulation(baseline, m, cfg)
        want = run_simulation(table, m, cfg)
        assert sim_result_dict(got) == sim_result_dict(want)
        for key, series in want.trace.items():
            assert got.trace[key].tobytes() == series.tobytes(), key


@pytest.mark.parametrize("name", list(BASELINE_MODELS))
def test_simulated_baselines_match_exact_averages(name):
    m = BASELINE_MODELS[name]()
    cfg = SimConfig(n_slots=100_000, seed=5)
    for baseline, table in equivalent_tables(m):
        ev = evaluate_policy(table, 1.0, m)
        res = run_simulation(baseline, m, cfg)
        assert abs(res.mean_queue - ev.mean_queue_b) <= 3 * res.mean_queue_se
        assert (abs(res.mean_grid_power - ev.mean_grid_k)
                <= 3 * res.mean_grid_power_se)


@pytest.mark.parametrize("chain", [
    desk_model().channel,
    MarkovChainSpec((0.0, 1.0, 2.0),
                    np.array([[0.0, 1.0, 0.0], [0.5, 0.0, 0.5], [0.0, 1.0, 0.0]])),
    MarkovChainSpec((1.0, 2.0, 3.0),
                    np.array([[0.2, 0.3, 0.5], [0.6, 0.4, 0.0], [0.1, 0.1, 0.8]])),
    MarkovChainSpec.iid((0.0, 1.0, 2.0, 3.0), (0.1, 0.5, 0.3, 0.1)),
    MarkovChainSpec.iid((1.0,), (1.0,)),
], ids=["desk-channel", "periodic", "dense", "iid", "single-level"])
def test_presampled_chain_path_matches_per_slot_walk(chain):
    for seed, n in ((3, 1), (4, 2), (5, 5_000)):
        def gen():
            return np.random.Generator(np.random.Philox(seed))
        path = _chain_path(chain, gen(), n)
        np.testing.assert_array_equal(path, loop_chain_path(chain, gen(), n))
        assert path.dtype == np.int64


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(-5, 5), min_size=1, max_size=200), st.integers(0, 8))
def test_clamped_walk_matches_slot_recursion(steps, top):
    x, want = 0, []
    for d in steps:
        want.append(x)
        x = min(x + d, top)
    got = _clamped_walk(np.array(steps, dtype=np.int64), top)
    np.testing.assert_array_equal(got, want)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 120).flatmap(lambda n: st.tuples(
    st.lists(st.integers(-40, 40), min_size=n, max_size=n),
    st.lists(st.integers(0, 9), min_size=n, max_size=n))), st.integers(0, 8),
    st.integers(0, 8), st.sampled_from([1, 2, 7, 64, sim.SIM_BLOCK]))
def test_clamp_scan_matches_slot_recursion(steps_floors, top, start, block):
    """From any start, in blocks of any size (the recursion's steps reach
    well past top, which the scan clips)."""
    steps, floors = steps_floors
    floors = [min(f, top) for f in floors]
    x, want = min(start, top), []
    for d, f in zip(steps, floors):
        want.append(x)
        x = min(max(x + d, f), top)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sim, "SIM_BLOCK", block)
        got = sim._clamp_scan(np.array(steps, dtype=np.int64),
                              np.array(floors, dtype=np.int64), top,
                              min(start, top))
    np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("top", [5, 2_500, 3 * 2**30])
def test_clamp_scan_over_several_blocks_of_the_real_size(top):
    """Blocks of SIM_BLOCK steps, and int64 sums where int32 could overflow."""
    rng = np.random.default_rng(top)
    n = 3 * sim.SIM_BLOCK + 5
    steps = rng.integers(-top - top // 2, top // 2 + 2, n)
    floors = np.minimum(rng.integers(0, top + 1, n), top)
    x, want = top // 3, []
    for d, f in zip(steps.tolist(), floors.tolist()):
        want.append(x)
        x = min(max(x + d, f), top)
    np.testing.assert_array_equal(sim._clamp_scan(steps, floors, top, top // 3),
                                  want)


# --- slot kernels against the per-slot reference ---------------------------------


def per_state_actors(model, xi):
    """Each policy kind as run_simulation takes it, and as the reference
    simulator takes it (a per-state function or act(state, coin) object)."""
    params = model.params
    yield (make_heuristic(HeuristicKind("radical"), model),
           lambda x: radical_policy(x, params))
    yield (make_heuristic(HeuristicKind("conservative"), model),
           lambda x: conservative_policy(x, params))
    yield (make_heuristic(HeuristicKind("mixed", xi=xi), model),
           SimpleNamespace(act=lambda x, coin: mixed_action(x, params, xi, coin)))


def random_feasible_table(model, seed):
    """A table drawing each state's rate in 0..q and its draw in the
    window the model allows for that rate, uniformly."""
    space = model.space
    rng = np.random.default_rng(seed)
    r = rng.integers(0, space.iq + 1)
    cap = space.ib
    if model.restrict_w_to_power:
        cap = np.minimum(cap, model.cap_table[space.ih, r])
    return TablePolicy(r=r, w_quanta=rng.integers(0, cap + 1),
                       delta_e=model.params.delta_e, tau=model.params.tau)


def assert_same_run(got, want):
    assert got.trace.keys() == want.trace.keys()
    for key in want.trace:
        assert got.trace[key].dtype == want.trace[key].dtype, key
        assert got.trace[key].tobytes() == want.trace[key].tobytes(), key
    # by repr, so the NaN standard errors of short runs compare equal
    assert repr(replace(got, trace=None)) == repr(replace(want, trace=None))


KERNEL_MODELS = {
    "desk-lite": desk_lite_model,
    "desk-unrestricted": lambda: desk_model(restrict=False),
    "mixed-budget": lambda: load_model(CONFIGS / "mixed_budget.json"),
}


@pytest.mark.parametrize("name", list(KERNEL_MODELS))
def test_every_kernel_matches_the_per_slot_reference(name):
    m = KERNEL_MODELS[name]()
    table = random_feasible_table(m, 0)
    other = random_feasible_table(m, 1)
    tables = [table, *(MixedPolicy(table, other, xi) for xi in (0.0, 0.37, 1.0))]
    for n in (1, 2, 3, 2_000):
        cfg = SimConfig(n_slots=n, seed=n + 3, warmup=0, record_trace=True)
        for xi in (0.0, 0.3, 1.0):
            for policy, slow in per_state_actors(m, xi):
                assert_same_run(run_simulation(policy, m, cfg),
                                reference_simulation(slow, m, cfg))
        for policy in tables:
            assert_same_run(run_simulation(policy, m, cfg),
                            reference_simulation(_per_slot_table_actor(policy, m),
                                                 m, cfg))


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 10_000), st.floats(0.0, 1.0), st.sampled_from([1, 2, 3, 500]),
       st.booleans())
def test_table_walk_matches_the_per_slot_reference_random(seed, xi, n, restrict):
    m = replace(random_model(seed), restrict_w_to_power=restrict)
    plus, minus = random_feasible_table(m, seed), random_feasible_table(m, seed + 1)
    cfg = SimConfig(n_slots=n, seed=seed, warmup=0, record_trace=True)
    for policy in (plus, MixedPolicy(plus, minus, xi)):
        assert_same_run(run_simulation(policy, m, cfg),
                        reference_simulation(_per_slot_table_actor(policy, m), m, cfg))


def candidates(model, exact, rng):
    """Whole-run (queue, battery) candidates: the exact path, all zeros,
    all full, random paths in range, and the exact path with its first
    state moved off (0, 0)."""
    q_max, b_top = model.params.q_max, model.params.n_battery_levels - 1
    n = exact[0].size
    moved = [c.copy() for c in exact]
    moved[0][0] = 1  # random_model's q_max is at least 1
    yield "exact", exact
    yield "zeros", (np.zeros(n, dtype=np.int64),) * 2
    yield "full", (np.full(n, q_max), np.full(n, b_top))
    yield "random", (rng.integers(0, q_max + 1, n), rng.integers(0, b_top + 1, n))
    yield "moved start", tuple(moved)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000), st.sampled_from([0.0, 1e-3, 0.3, 1 - 1e-3]),
       st.sampled_from([5, 64, sim.SIM_BLOCK]),
       st.sampled_from([-1, 0, 1, 2]), st.booleans())
def test_baseline_kernel_is_exact_for_any_candidate(seed, weight, block, edge,
                                                    restrict):
    """Speculation and repair give the per-slot loop's (r, wq) bit for bit,
    whatever the candidate, on runs of B - 1, B, B + 1 and 3B + 1 slots in
    blocks of B; the radical baseline's path is the shipped candidate."""
    m = replace(random_model(seed), restrict_w_to_power=restrict)
    n = {-1: block - 1, 0: block, 1: block + 1, 2: 3 * block + 1}[edge]
    if n > 3_000 and seed % 4:  # keep the long runs to a quarter of draws
        n = block - 1
    sample = sim.sample_paths(m, SimConfig(n_slots=n, seed=seed))
    args = (sample.ih, sample.arrivals, sample.harvests, sample.coins)
    want = loop_baseline_slots(m, weight, *args)
    q_max, b_top = m.params.q_max, m.params.n_battery_levels - 1
    exact = (_clamped_walk(sample.arrivals - want[0], q_max),
             _clamped_walk(sample.harvests - want[1], b_top))
    shipped = sim._radical_guess(m, weight, *args,
                                 sim._radical_battery(m, sample))
    guesses = [("radical", shipped)] + [
        (name, lambda at, end, q, b, battery, c=c: (c[0][at:end], c[1][at:end]))
        for name, c in candidates(m, exact, np.random.default_rng(seed))]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sim, "SIM_BLOCK", block)
        for name, guess in guesses:
            r, w, n_loop = sim._baseline_slots(m, weight, *args, guess)
            assert r.tobytes() == want[0].tobytes(), name
            assert w.tobytes() == want[1].tobytes(), name
            assert 0 <= n_loop <= n
            if name == "exact":
                assert n_loop == 0


@pytest.mark.parametrize("name", ["desk", "desk-lite"])
def test_a_presampled_run_equals_the_unshared_run(name):
    m = {"desk": desk_model, "desk-lite": desk_lite_model}[name]()
    table = random_feasible_table(m, 0)
    policies = [table, MixedPolicy(table, random_feasible_table(m, 1), 0.4),
                *(make_heuristic(kind, m) for kind in (
                    HeuristicKind("radical"), HeuristicKind("conservative"),
                    HeuristicKind("mixed", xi=0.3)))]
    for n in (1, 2, 3_000):
        cfg = SimConfig(n_slots=n, seed=n + 11, record_trace=True)
        sample = sim.sample_paths(m, cfg)
        for policy in policies:
            assert_same_run(run_simulation(policy, m, cfg, sample=sample),
                            run_simulation(policy, m, cfg))
        # read-only: no run can alter what the next one reads
        for key in ("ih", "ia", "ie", "coins", "arrivals", "harvests"):
            assert not getattr(sample, key).flags.writeable, key


def test_a_sample_drawn_for_another_run_is_refused(lite):
    cfg = SimConfig(n_slots=500, seed=3)
    sample = sim.sample_paths(lite, cfg)
    for other in (SimConfig(n_slots=500, seed=4), SimConfig(n_slots=501, seed=3)):
        with pytest.raises(ValueError, match="drawn for seed 3 and 500 slots"):
            run_simulation(radical(lite), lite, other, sample=sample)
    # desk has desk-lite's chains on a finer energy grid
    others = [desk_model(),
              replace(lite, channel=discretize_rayleigh(1.0, 2)),
              replace(lite, arrival=MarkovChainSpec.iid((0.0, 2.0), (0.4, 0.6))),
              replace(lite, harvest=MarkovChainSpec.iid((0.0, 1.0), (0.5, 0.5)))]
    for m in others:
        with pytest.raises(ValueError, match="other chains"):
            run_simulation(radical(m), m, cfg, sample=sample)
    # warmup and trace are not the sample's; equal chains are the same chains
    same = desk_lite_model(p_bar=0.3)
    assert same.channel is not lite.channel
    cfg = replace(cfg, warmup=7, record_trace=True)
    assert_same_run(run_simulation(radical(same), same, cfg, sample=sample),
                    run_simulation(radical(same), same, cfg))


# --- policy domain errors ------------------------------------------------------


def test_infeasible_action_raises_with_state(lite):
    def overdraw(x):
        return Action(x.q, x.e_b / lite.params.tau + lite.params.delta_e)

    with pytest.raises(PolicyDomainError) as err:
        reference_simulation(overdraw, lite, SimConfig(n_slots=100, seed=1))
    assert err.value.state is not None

    def off_grid(x):
        return Action(0, 0.1234567)

    with pytest.raises(PolicyDomainError):
        reference_simulation(off_grid, lite, SimConfig(n_slots=100, seed=1))


def test_infeasible_table_actions_are_refused_as_by_the_evaluator():
    m = desk_model()
    space = m.space
    de, tau = m.params.delta_e, m.params.tau
    cfg = SimConfig(n_slots=1_000, seed=1)
    idle = np.zeros(space.n_states, dtype=np.int64)
    negative_rate = TablePolicy(r=idle - 1, w_quanta=idle, delta_e=de, tau=tau)
    # serve one packet where there is one, drawing the whole charge: above
    # the rate's power wherever the charge exceeds cap[ih, 1]
    r = np.minimum(space.iq, 1)
    overdraw = TablePolicy(r=r, w_quanta=space.ib.copy(), delta_e=de, tau=tau)
    assert (space.ib > m.cap_table[space.ih, r]).any()
    for policy in (negative_rate, overdraw):
        with pytest.raises(ValueError, match="infeasible"):
            evaluate_policy(policy, 1.0, m)
        with pytest.raises(PolicyDomainError, match="infeasible") as err:
            run_simulation(policy, m, cfg)
        assert err.value.state is not None
    # without the power cap the whole charge may be drawn
    free = replace(m, restrict_w_to_power=False)
    run_simulation(overdraw, free, cfg)
    evaluate_policy(overdraw, 1.0, free)


def test_wrong_sized_table_raises(lite, lite_solved):
    from dataclasses import replace
    other = replace(lite, params=replace(lite.params, q_max=lite.params.q_max + 1))
    with pytest.raises(PolicyDomainError):
        run_simulation(lite_solved.policy, other, SimConfig(n_slots=10, seed=1))


def test_policy_returning_none_raises(lite):
    with pytest.raises(PolicyDomainError):
        reference_simulation(lambda x: None, lite, SimConfig(n_slots=10, seed=1))


def test_run_simulation_takes_policy_data_only(lite, lite_solved):
    cfg = SimConfig(n_slots=10, seed=1)
    per_state = (lambda x: radical_policy(x, lite.params),
                 SimpleNamespace(act=lambda x, coin: Action(x.q, 0.0)),
                 lite_solved.policy.r)
    for policy in per_state:
        with pytest.raises(TypeError, match="from_callable"):
            run_simulation(policy, lite, cfg)
    other = replace(lite, params=replace(lite.params, p_bar=2.0))
    for kind in (HeuristicKind("radical"), HeuristicKind("conservative"),
                 HeuristicKind("mixed", xi=0.5)):
        with pytest.raises(PolicyDomainError, match="other params"):
            run_simulation(make_heuristic(kind, other), lite, cfg)


# --- rayleigh quantizer --------------------------------------------------------


def test_rayleigh_two_levels_closed_form():
    ch = discretize_rayleigh(1.0, 2)
    # bin edge at ln 2; conditional means 2(1 - (ln2 + 1)/2) and (ln2 + 1)
    assert ch.values[0] == pytest.approx(0.30685281944005, abs=1e-12)
    assert ch.values[1] == pytest.approx(1.69314718055995, abs=1e-12)
    assert np.allclose(ch.transition, 0.5)


def test_rayleigh_preserves_mean_and_orders_levels():
    for mu, n in ((1.0, 1), (0.7, 8), (3.2, 5)):
        ch = discretize_rayleigh(mu, n)
        assert float(np.dot(ch.values, ch.stationary())) == pytest.approx(mu, abs=1e-12)
        assert list(ch.values) == sorted(ch.values)
    assert discretize_rayleigh(2.5, 1).values == (2.5,)
    with pytest.raises(ValueError):
        discretize_rayleigh(1.0, 0)
    with pytest.raises(ValueError):
        discretize_rayleigh(0.0, 4)


# --- sweeps --------------------------------------------------------------------


def test_sweep_arrival_rows(lite):
    cfg = SimConfig(n_slots=10_000, seed=29)
    rows = sweep_arrival(lite, [0.0, 1.0, 2.0], "radical", cfg)
    assert [r["abar"] for r in rows] == [0.0, 1.0, 2.0]
    assert all(set(r) >= {"abar", "mean_grid_power", "mean_queue"} for r in rows)
    assert rows[0]["mean_grid_power"] == 0.0  # no arrivals, nothing to send
    ks = [r["mean_grid_power"] for r in rows]
    assert ks == sorted(ks)


def test_sweep_arrival_parallel_matches_serial(lite):
    cfg = SimConfig(n_slots=4_000, seed=31)
    serial = sweep_arrival(lite, [1.0, 2.0], "radical", cfg, n_workers=1)
    parallel = sweep_arrival(lite, [1.0, 2.0], "radical", cfg, n_workers=2)
    assert serial == parallel


def test_sweeps_start_no_more_workers_than_points(lite, monkeypatch):
    import concurrent.futures

    pools = []

    class Recording:  # runs the jobs in this process; starts no worker
        def __init__(self, max_workers):
            pools.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs):
            return map(fn, jobs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Recording)
    cfg = SimConfig(n_slots=2_000, seed=31)
    serial = sweep_budget(lite, [0.1, 0.4, 5.0], "radical", cfg)
    assert sweep_budget(lite, [0.1, 0.4, 5.0], "radical", cfg,
                        n_workers=10_000) == serial
    assert sweep_budget(lite, [0.4], "radical", cfg, n_workers=10_000) == serial[1:2]
    assert pools == [3]
    for n_workers in (0, -1):
        with pytest.raises(ConfigError, match="n_workers must be at least 1"):
            sweep_budget(lite, [0.4], "radical", cfg, n_workers=n_workers)


def test_sweep_budget_rows(lite):
    cfg = SimConfig(n_slots=10_000, seed=37)
    rows = sweep_budget(lite, [0.1, 0.4, 5.0], "conservative", cfg)
    qs = [r["mean_queue"] for r in rows]
    assert qs[0] >= qs[1] >= qs[2]


def test_sweep_channel_rows_and_ordering(lite):
    cfg = SimConfig(n_slots=20_000, seed=41)
    rows = sweep_channel(lite, [0.5, 1.0], ("radical", "conservative", "mixed"),
                         cfg, n_levels=4)
    for row in rows:
        assert 0.0 <= row["xi"] <= 1.0
        assert (row["mean_queue_radical"]
                <= row["mean_queue_mixed"] + 3 * row["mean_queue_se_mixed"]
                + 3 * row["mean_queue_se_radical"])
        assert (row["mean_queue_mixed"]
                <= row["mean_queue_conservative"] + 3 * row["mean_queue_se_mixed"]
                + 3 * row["mean_queue_se_conservative"])


SWEEP_CELLS = {
    "arrival": ["abar", "mean_grid_power", "mean_grid_power_se", "mean_queue"],
    "budget": ["p_bar", "mean_queue", "mean_queue_se", "mean_grid_power"],
}
SWEEPS = {"arrival": sweep_arrival, "budget": sweep_budget}


@pytest.mark.parametrize("axis", list(SWEEPS))
def test_single_policy_sweep_headers(lite, axis):
    cfg = SimConfig(n_slots=2_000, seed=43)
    for kind in ("radical", "conservative"):
        rows = SWEEPS[axis](lite, [0.5, 1.0], kind, cfg)
        assert [list(r) for r in rows] == [SWEEP_CELLS[axis]] * 2
    rows = SWEEPS[axis](lite, [0.5, 1.0], "mixed", cfg)
    assert [list(r) for r in rows] == [SWEEP_CELLS[axis] + ["xi"]] * 2


def test_channel_sweep_header(lite):
    rows = sweep_channel(lite, [0.5], ("radical", "conservative", "mixed"),
                         SimConfig(n_slots=2_000, seed=43), n_levels=4)
    assert list(rows[0]) == [
        "hbar",
        "mean_queue_radical", "mean_queue_se_radical", "mean_grid_power_radical",
        "mean_queue_conservative", "mean_queue_se_conservative",
        "mean_grid_power_conservative",
        "xi",
        "mean_queue_mixed", "mean_queue_se_mixed", "mean_grid_power_mixed"]


def sweep_point_model(axis, model, value):
    if axis == "arrival":
        if value == 0.0:
            return replace(model, arrival=MarkovChainSpec.iid((0.0,), (1.0,)))
        return replace(model, arrival=MarkovChainSpec.iid((0.0, 2.0 * value),
                                                          (0.5, 0.5)))
    if axis == "budget":
        return replace(model, params=replace(model.params, p_bar=value))
    return replace(model, channel=discretize_rayleigh(value, 4))


@pytest.mark.parametrize("axis", ["arrival", "budget", "channel"])
def test_mixed_sweep_weight_comes_from_the_points_own_runs(lite, axis):
    cfg = SimConfig(n_slots=5_000, seed=47)
    value = {"arrival": 1.5, "budget": 0.2, "channel": 0.8}[axis]
    if axis == "channel":
        row = sweep_channel(lite, [value], ("mixed",), cfg, n_levels=4)[0]
    else:
        row = SWEEPS[axis](lite, [value], "mixed", cfg)[0]
    point = sweep_point_model(axis, lite, value)
    g = {k: run_simulation(make_heuristic(HeuristicKind(k), point), point,
                           cfg).mean_grid_power
         for k in ("radical", "conservative")}
    xi = mixing_weight(g["radical"], g["conservative"], point.params.p_bar)
    assert 0.0 < xi < 1.0
    assert row["xi"] == xi
    mixed = run_simulation(make_heuristic(HeuristicKind("mixed", xi=xi), point),
                           point, cfg)
    suffix = "_mixed" if axis == "channel" else ""
    assert row["mean_queue" + suffix] == mixed.mean_queue
    assert row["mean_grid_power" + suffix] == mixed.mean_grid_power


def test_sweeps_run_each_baseline_once_per_point(lite, monkeypatch):
    calls = []
    run = sim.run_simulation

    def counted(policy, model, cfg, sample=None):
        calls.append((model, policy))
        return run(policy, model, cfg, sample=sample)

    def weights_per_point():
        """The weights of each point's simulated baselines, in call order;
        each distinct Baseline once."""
        points = {}
        for model, policy in calls:
            points.setdefault(id(model), []).append(policy)
        for baselines in points.values():
            assert len(set(baselines)) == len(baselines)
        calls.clear()
        return [[b.weight for b in baselines] for baselines in points.values()]

    def mixed_point(xi):
        # at xi 1 or 0 the mixed baseline is the radical or conservative one
        return list(dict.fromkeys([1.0, 0.0, xi]))

    monkeypatch.setattr(sim, "run_simulation", counted)
    cfg = SimConfig(n_slots=1_000, seed=53)
    rows = sweep_channel(lite, [0.5, 1.0, 2.0],
                         ("radical", "conservative", "mixed"), cfg, n_levels=4)
    assert weights_per_point() == [mixed_point(row["xi"]) for row in rows]
    sweep_arrival(lite, [1.0, 2.0], "radical", cfg)
    assert weights_per_point() == [[1.0], [1.0]]
    # a budget above radical's draw makes xi 1, so that point runs twice
    rows = sweep_budget(lite, [0.2, 1e6], "mixed", cfg)
    assert 0.0 < rows[0]["xi"] < 1.0 and rows[1]["xi"] == 1.0
    assert weights_per_point() == [[1.0, 0.0, rows[0]["xi"]], [1.0, 0.0]]


def test_a_three_kind_channel_point_samples_its_paths_once(lite, monkeypatch):
    paths = []
    chain_path = sim._chain_path

    def counted(chain, gen, n):
        paths.append(chain)
        return chain_path(chain, gen, n)

    monkeypatch.setattr(sim, "_chain_path", counted)
    sweep_channel(lite, [0.8], ("radical", "conservative", "mixed"),
                  SimConfig(n_slots=1_000, seed=53), n_levels=4)
    assert len(paths) == 3


def test_a_point_and_a_calibration_compute_the_radical_path_once(lite,
                                                                  monkeypatch):
    paths = []
    radical_battery = sim._radical_battery

    def counted(model, sample):
        paths.append(sample)
        return radical_battery(model, sample)

    monkeypatch.setattr(sim, "_radical_battery", counted)
    cfg = SimConfig(n_slots=1_000, seed=53)
    sweep_channel(lite, [0.8, 1.5], ("radical", "conservative", "mixed"), cfg,
                  n_levels=4)
    assert len(paths) == 2
    paths.clear()
    heuristics.calibrate_xi(lite, cfg)
    assert len(paths) == 1
    # a standalone baseline run computes its own
    paths.clear()
    run_simulation(make_heuristic(HeuristicKind("conservative"), lite), lite,
                   cfg, sample=sim.sample_paths(lite, cfg))
    assert len(paths) == 1


def independent_sweep_row(axis, model, value, kinds, cfg):
    """A sweep row from one run_simulation per baseline on the point model,
    each drawing its own paths, and the mixed weight from radical's and
    conservative's grid draws."""
    point = sweep_point_model(axis, model, value)
    cells = {"arrival": SWEEP_CELLS["arrival"][1:],
             "budget": SWEEP_CELLS["budget"][1:],
             "channel": ["mean_queue", "mean_queue_se", "mean_grid_power"]}[axis]

    def run(kind):
        return run_simulation(make_heuristic(kind, point), point, cfg)

    row = {{"arrival": "abar", "budget": "p_bar", "channel": "hbar"}[axis]: value}
    for name in kinds:
        if name == "mixed":
            xi = mixing_weight(run(HeuristicKind("radical")).mean_grid_power,
                               run(HeuristicKind("conservative")).mean_grid_power,
                               point.params.p_bar)
            if axis == "channel":
                row["xi"] = xi
            res = run(HeuristicKind("mixed", xi=xi))
        else:
            res = run(HeuristicKind(name))
        suffix = f"_{name}" if axis == "channel" else ""
        for cell in cells:
            row[cell + suffix] = getattr(res, cell)
        if name == "mixed" and axis != "channel":
            row["xi"] = xi
    return row


def same_row(got, want):
    """Rows equal cell for cell with ==, with NaN equal to NaN (the standard
    errors of runs too short for two batches)."""
    return list(got) == list(want) and all(
        a == b or (math.isnan(a) and math.isnan(b))
        for a, b in zip(got.values(), want.values()))


def sweep_rows(axis, model, value, cfg):
    """(kinds, row) of each sweep the axis runs at one point."""
    if axis == "channel":
        kinds = ("radical", "conservative", "mixed")
        yield kinds, sweep_channel(model, [value], kinds, cfg, n_levels=4)[0]
        return
    for kind in ("radical", "conservative", "mixed"):
        yield (kind,), SWEEPS[axis](model, [value], kind, cfg)[0]


SWEEP_VALUES = {"arrival": st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.0]),
                "budget": st.floats(0.0, 3.0),
                "channel": st.floats(0.05, 4.0)}


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(sorted(SWEEP_VALUES)).flatmap(
           lambda axis: st.tuples(st.just(axis), SWEEP_VALUES[axis])),
       st.integers(0, 10_000), st.sampled_from([1, 2, 3, 40, 700]),
       st.sampled_from([None, 0.0, 1e6]))
def test_sweep_rows_equal_independent_runs(lite, axis_value, seed, n, p_bar):
    """A shared sample and reused runs give the row that independent runs
    give, bit for bit; a p_bar of 1e6 makes xi 1 and one of 0 makes it 0
    wherever conservative draws from the grid."""
    axis, value = axis_value
    model = lite
    if p_bar is not None:
        model = replace(lite, params=replace(lite.params, p_bar=p_bar))
    cfg = SimConfig(n_slots=n, seed=seed)
    for kinds, row in sweep_rows(axis, model, value, cfg):
        assert same_row(row, independent_sweep_row(axis, model, value, kinds,
                                                   cfg)), (kinds, row)


@pytest.mark.parametrize("axis", ["arrival", "budget", "channel"])
@pytest.mark.parametrize("xi", [0.0, 1.0])
def test_sweep_rows_at_xi_zero_and_one_reuse_a_run(lite, axis, xi, monkeypatch):
    p_bar = 1e6 if xi == 1.0 else 0.0
    model = replace(lite, params=replace(lite.params, p_bar=p_bar))
    value = 1.0 if axis == "channel" else p_bar if axis == "budget" else 1.5
    cfg = SimConfig(n_slots=2_000, seed=59)
    runs = []
    run = sim.run_simulation

    def counted(policy, model, cfg, sample=None):
        runs.append(policy)
        return run(policy, model, cfg, sample=sample)

    monkeypatch.setattr(sim, "run_simulation", counted)
    for kinds, row in sweep_rows(axis, model, value, cfg):
        assert row["xi"] == xi if "mixed" in kinds else "xi" not in row
        assert len(runs) == (2 if "mixed" in kinds else 1)
        runs.clear()
        assert same_row(row, independent_sweep_row(axis, model, value, kinds,
                                                   cfg))


@pytest.mark.parametrize("axis", ["channel", "arrival"])
def test_a_sweep_point_builds_each_table_once(lite, axis, monkeypatch):
    from ehsched import model as model_module
    builds = {}
    for name in ("required_power_table", "draw_cap_table",
                 "conservative_rate_table"):
        def counted(*args, _build=getattr(model_module, name), _name=name):
            builds[_name] = builds.get(_name, 0) + 1
            return _build(*args)
        monkeypatch.setattr(model_module, name, counted, raising=False)
    cfg = SimConfig(n_slots=1_000, seed=53)
    points = [0.5, 1.0, 2.0]
    if axis == "channel":
        sweep_channel(lite, points, ("radical", "conservative", "mixed"), cfg,
                      n_levels=4)
    else:
        sweep_arrival(lite, points, "mixed", cfg)
    assert builds == {"required_power_table": 3, "draw_cap_table": 3,
                      "conservative_rate_table": 3}


def test_baselines_never_enumerate_the_states():
    m = load_model(CONFIGS / "channel.json")  # 32M states
    for kind in (HeuristicKind("radical"), HeuristicKind("conservative"),
                 HeuristicKind("mixed", xi=0.5)):
        run_simulation(make_heuristic(kind, m), m, SimConfig(n_slots=100, seed=1))
    assert "space" not in vars(m)


def test_sweeps_take_kind_names_only(lite):
    cfg = SimConfig(n_slots=1_000, seed=1)
    with pytest.raises(ConfigError, match="kind must be one of"):
        sweep_arrival(lite, [1.0], HeuristicKind("mixed", xi=0.5), cfg)
    with pytest.raises(ConfigError, match="kind must be one of"):
        sweep_channel(lite, [1.0], ("radical", "greedy"), cfg)
