"""Shared instance builders and comparison helpers for the test suite."""

from dataclasses import replace

import numpy as np
import scipy.sparse as sp

from ehsched.mdp import (
    ActionSpace,
    NonConvergenceError,
    SolveResult,
    ValueTable,
    _greedy_sa,
    _segment_min,
    build_action_space,
    evaluate_policy,
)
from ehsched.model import (
    Action,
    MarkovChainSpec,
    Model,
    ModelParams,
    SystemState,
    battery_draw_cap_quanta,
    feasible_actions,
    required_power,
    step_battery,
    step_queue,
)

# --- tiny instances for the enumeration oracle (<= 6 states) ---------------


def power_delay_model(circuit_c=0.1, q_max=2):
    """No battery at all: the classic serve-now-or-wait power/delay tradeoff.

    States: (q in 0..2) x (a in {0,2}) = 6.
    """
    params = ModelParams(q_max=q_max, e_max=0.0, delta_e=1.0, circuit_c=circuit_c)
    return Model(
        params=params,
        channel=MarkovChainSpec.iid((1.0,), (1.0,)),
        arrival=MarkovChainSpec.iid((0.0, 2.0), (0.5, 0.5)),
        harvest=MarkovChainSpec.iid((0.0,), (1.0,)),
    )


def battery_model():
    """Deterministic arrivals and harvest, 3 battery levels: 6 states.

    One packet arrives and 0.5 energy units land every slot; the only choice
    is when to serve and whether to spend the battery.
    """
    params = ModelParams(q_max=1, e_max=1.0, delta_e=0.5, circuit_c=0.5)
    return Model(
        params=params,
        channel=MarkovChainSpec.iid((1.0,), (1.0,)),
        arrival=MarkovChainSpec.iid((1.0,), (1.0,)),
        harvest=MarkovChainSpec.iid((0.5,), (1.0,)),
    )


def channel_model():
    """Persistent two-level fading, one arrival per slot, no battery: 4 states."""
    params = ModelParams(q_max=1, e_max=0.0, delta_e=1.0, circuit_c=0.1)
    return Model(
        params=params,
        channel=MarkovChainSpec((0.5, 2.0), np.array([[0.8, 0.2], [0.3, 0.7]])),
        arrival=MarkovChainSpec.iid((1.0,), (1.0,)),
        harvest=MarkovChainSpec.iid((0.0,), (1.0,)),
    )


def tiny_models():
    return [power_delay_model(), battery_model(), channel_model()]


def random_model(seed):
    """Small model (up to 108 states) with random dense chains of 1-3 levels."""
    rng = np.random.default_rng(seed)
    nh, na, ne = rng.integers(1, 3, size=3)

    def chain(k, values):
        t = rng.random((k, k)) + 0.1
        t /= t.sum(axis=1, keepdims=True)
        return MarkovChainSpec(tuple(values[:k]), t)

    return Model(
        params=ModelParams(q_max=int(rng.integers(1, 4)), e_max=1.0, delta_e=0.5,
                           circuit_c=float(rng.random())),
        channel=chain(nh, (0.5, 1.5, 3.0)),
        arrival=chain(na, (0.0, 1.0, 2.0)),
        harvest=chain(ne, (0.0, 0.5, 1.0)),
    )


# --- mid-size instance for fast end-to-end unit tests -----------------------


def desk_lite_model(circuit_c=0.05, p_bar=0.4, restrict=True):
    """120 states: enough structure for solver tests, fast enough for units."""
    params = ModelParams(q_max=4, e_max=1.0, delta_e=0.5, circuit_c=circuit_c,
                         p_bar=p_bar)
    return Model(
        params=params,
        channel=MarkovChainSpec((0.6, 1.4), np.array([[0.7, 0.3], [0.4, 0.6]])),
        arrival=MarkovChainSpec.iid((0.0, 2.0), (0.5, 0.5)),
        harvest=MarkovChainSpec.iid((0.0, 0.5), (0.5, 0.5)),
        restrict_w_to_power=restrict,
    )


def desk_model(circuit_c=0.05, p_bar=0.4, restrict=True):
    """200 states: the workhorse mid-size instance for structural checks.

    Same chains as desk_lite but a finer battery grid (delta_e=0.25). The
    finer grid matters: with delta_e=0.5 a rate-1 transmission (P=0.28) can't
    draw from the battery at all and the value table picks up a quantization
    kink along q that breaks the convexity certificate.
    """
    params = ModelParams(q_max=4, e_max=1.0, delta_e=0.25, circuit_c=circuit_c,
                         p_bar=p_bar)
    return Model(
        params=params,
        channel=MarkovChainSpec((0.6, 1.4), np.array([[0.7, 0.3], [0.4, 0.6]])),
        arrival=MarkovChainSpec.iid((0.0, 2.0), (0.5, 0.5)),
        harvest=MarkovChainSpec.iid((0.0, 0.5), (0.5, 0.5)),
        restrict_w_to_power=restrict,
    )


def large_desk_model():
    """3,000 states: desk with q_max 14 and e_max 6, the benchmark's solve
    instance."""
    m = desk_model()
    return replace(m, params=replace(m.params, q_max=14, e_max=6.0))


# --- comparisons ------------------------------------------------------------


def assert_policies_equivalent(pol_a, pol_b, beta, model, actions=None, tol=1e-6):
    """Policies must agree except at states where either action is optimal.

    At every state where the two tables differ, substituting one action into
    the other policy must leave the exact gain unchanged within tol.
    """
    ev_a = evaluate_policy(pol_a, beta, model, actions=actions)
    ev_b = evaluate_policy(pol_b, beta, model, actions=actions)
    assert abs(ev_a.gain_j - ev_b.gain_j) <= tol
    diff = np.flatnonzero((pol_a.r != pol_b.r) | (pol_a.w_quanta != pol_b.w_quanta))
    for s in diff:
        hybrid_r = pol_a.r.copy()
        hybrid_w = pol_a.w_quanta.copy()
        hybrid_r[s] = pol_b.r[s]
        hybrid_w[s] = pol_b.w_quanta[s]
        hybrid = type(pol_a)(r=hybrid_r, w_quanta=hybrid_w,
                             delta_e=pol_a.delta_e, tau=pol_a.tau)
        ev_h = evaluate_policy(hybrid, beta, model, actions=actions)
        assert abs(ev_h.gain_j - ev_a.gain_j) <= tol, (
            f"state {s}: swapping the action changes the gain by "
            f"{ev_h.gain_j - ev_a.gain_j:.3e}")


ROW_ARRAYS = ("indptr", "state_of_sa", "r_sa", "wq_sa", "_keys", "post_sa",
              "grid_sa", "queue_sa", "overflow_sa", "spill_sa")


def assert_same_csr(got, want):
    """Same shape and the same CSR arrays, dtypes too."""
    assert got.shape == want.shape
    for name in ("indptr", "indices", "data"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype, name
        np.testing.assert_array_equal(a, b, err_msg=name)


def assert_same_action_space(got, want):
    """Every per-row array equal, dtypes too, and the chain of all of got's
    rows equal to the loop oracle's kernel (want must be one)."""
    assert got.n_sa == want.n_sa
    for name in ROW_ARRAYS:
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype, name
        np.testing.assert_array_equal(a, b, err_msg=name)
    assert_same_csr(got.chain(np.arange(got.n_sa)), want.kernel)


def oracle_kernel(actions):
    """The loop oracle's materialised one-step kernel over the rows of
    actions, which must be the full enumeration of its model."""
    oracle = loop_action_space(actions.model)
    np.testing.assert_array_equal(oracle._keys, actions._keys)
    return oracle.kernel


def transition_kernel(x: SystemState, act: Action, model: Model):
    """One-step successor distribution of a single (state, action) pair.

    Returns (state_indices, probabilities), built from the model's step
    functions and the three chain matrices, independently of ActionSpace.
    """
    params = model.params
    space = model.space
    wq = int(round(act.w * params.tau / params.delta_e))
    if abs(act.w - wq * params.delta_e / params.tau) > 1e-9:
        raise ValueError(f"battery draw {act.w} is off the w-grid")
    if Action(act.r, wq * params.delta_e / params.tau) not in feasible_actions(
            x, params, model.restrict_w_to_power):
        raise ValueError(f"action {act} infeasible in state {x}")

    q_next, _ = step_queue(x.q, act.r, x.a, params.q_max)
    eb_next, _ = step_battery(x.e_b, act.w, x.e, params)

    ih = int(np.argmin(np.abs(space.h_values - x.h)))
    ia = int(np.argmin(np.abs(space.arrival_pkts - x.a)))
    ie = int(np.argmin(np.abs(np.asarray(model.harvest.values) - x.e)))

    idx, probs = [], []
    for ih2, ph in enumerate(model.channel.transition[ih]):
        for ia2, pa in enumerate(model.arrival.transition[ia]):
            for ie2, pe in enumerate(model.harvest.transition[ie]):
                p = ph * pa * pe
                if p <= 0.0:
                    continue
                nxt = SystemState(q=q_next, h=float(space.h_values[ih2]),
                                  a=int(space.arrival_pkts[ia2]), e_b=eb_next,
                                  e=float(np.asarray(model.harvest.values)[ie2]))
                idx.append(space.index_of(nxt))
                probs.append(p)
    order = np.argsort(idx)
    return np.asarray(idx, dtype=np.int64)[order], np.asarray(probs)[order]


# --- reference implementations ----------------------------------------------


def dense_stationary_distribution(P):
    """Reference stationary law: dense LU of the balance equations pi P = pi
    with the last one replaced by sum(pi) = 1."""
    P = P.toarray()
    n = P.shape[0]
    A = P.T - np.eye(n)
    A[-1, :] = 1.0
    b = np.zeros(n)
    b[-1] = 1.0
    return np.linalg.solve(A, b)


def per_state_gains(P, c):
    """Long-run average of c from every start state, for any chain P,
    multichain ones included: the Cesaro limit of P's powers, taken as the
    limit of the lazy chain (I + P)/2 (aperiodic, same limit) by repeated
    squaring, rows renormalised against rounding drift."""
    Q = 0.5 * (np.eye(P.shape[0]) + P.toarray())
    for _ in range(60):
        Q = Q @ Q
        Q /= Q.sum(axis=1, keepdims=True)
    return Q @ c


def cold_discounted_value_iteration(cfg, model, actions=None):
    """Reference discounted solve: Bellman sweeps on the loop oracle's
    kernel from V=0 to the residual epsilon*(1-alpha)/(2*alpha), then the
    same tie-canonical extraction."""
    if actions is None:
        actions = build_action_space(model)
    alpha = cfg.alpha
    threshold = cfg.epsilon * (1.0 - alpha) / (2.0 * alpha)
    c = actions.cost(cfg.beta)
    K = oracle_kernel(actions)
    v = np.zeros(model.space.n_states)
    for it in range(1, cfg.max_iters + 1):
        mins = _segment_min(c + alpha * (K @ v), actions.indptr)
        resid = float(np.max(np.abs(mins - v)))
        v = mins
        if resid < threshold:
            break
    else:
        raise AssertionError(f"no convergence in {cfg.max_iters} sweeps")
    y = c + alpha * (K @ v)
    sa = _greedy_sa(y, _segment_min(y, actions.indptr), actions,
                    tie_tol=10.0 * cfg.epsilon)
    table = ValueTable(values=v, kind="discounted", beta=cfg.beta, alpha=alpha)
    return SolveResult(gain=float("nan"), values=table,
                       policy=actions.policy_from_sa(sa), n_iters=it,
                       residual=resid, actions=actions)


def cold_relative_value_iteration(cfg, model, actions=None):
    """Reference average-cost solve: damped relative VI sweeps on the loop
    oracle's kernel from V=0 to a span of T V - V below epsilon, then the
    same tie-canonical extraction and kappa-rescaled bias."""
    if actions is None:
        actions = build_action_space(model)
    ref, kappa = cfg.reference_state, cfg.kappa
    c = actions.cost(cfg.beta)
    K = oracle_kernel(actions)
    owner = actions.state_of_sa

    v = np.zeros(model.space.n_states)
    trace = []
    for it in range(1, cfg.max_iters + 1):
        y = c + kappa * (K @ v) + (1.0 - kappa) * v[owner]
        mins = _segment_min(y, actions.indptr)
        d = mins - v
        lo, hi = float(d.min()), float(d.max())
        span = hi - lo
        trace.append((it, span, lo, hi))
        v = mins - mins[ref]
        if span < cfg.epsilon:
            break
    else:
        raise NonConvergenceError(f"no convergence in {cfg.max_iters} sweeps",
                                  residual=span)
    y = c + kappa * (K @ v) + (1.0 - kappa) * v[owner]
    mins = _segment_min(y, actions.indptr)
    sa = _greedy_sa(y, mins, actions, tie_tol=10.0 * cfg.epsilon)
    d = mins - v
    lo, hi = float(d.min()), float(d.max())
    bias = ValueTable(values=kappa * (v - v[ref]), kind="relative-bias",
                      beta=cfg.beta, reference_state=ref)
    return SolveResult(gain=0.5 * (lo + hi), values=bias,
                       policy=actions.policy_from_sa(sa), n_iters=it,
                       residual=span, gain_bounds=(lo, hi), trace=trace,
                       actions=actions)


class _LoopActionSpace(ActionSpace):
    """Reference state-action builder: one Python pass per state, rate and
    draw, appending each pair's post-decision index and its materialised
    kernel row. rates_of(s) and draws_of(s, r), when given, replace the
    rates 0..q and the draws 0..cap."""

    def __init__(self, model: Model, rates_of=None, draws_of=None):
        space = model.space
        params = model.params
        self.model = model
        n = space.n_states

        hq = space.harvest_quanta
        nb = space.nb

        # chain part of the successor distribution, one block per (ih, ia, ie)
        ch_t = model.channel.transition
        ar_t = model.arrival.transition
        ha_t = model.harvest.transition
        blocks_cols = {}
        blocks_probs = {}
        for ih in range(space.nh):
            for ia in range(space.na):
                for ie in range(space.ne):
                    probs = (ch_t[ih][:, None, None]
                             * ar_t[ia][None, :, None]
                             * ha_t[ie][None, None, :]).ravel()
                    cols = (np.arange(space.nh)[:, None, None] * space.s_h
                            + np.arange(space.na)[None, :, None] * space.s_a
                            + np.arange(space.ne)[None, None, :]).ravel()
                    keep = probs > 0.0
                    blocks_cols[ih, ia, ie] = cols[keep]
                    blocks_probs[ih, ia, ie] = probs[keep]

        n_ex = space.nh * space.na * space.ne
        indptr = np.zeros(n + 1, dtype=np.int64)
        r_list, wq_list, owner, post = [], [], [], []
        kcols, kprobs, kptr = [], [], [0]
        nnz = 0
        for s in range(n):
            iq, ih, ia = int(space.iq[s]), int(space.ih[s]), int(space.ia[s])
            ib, ie = int(space.ib[s]), int(space.ie[s])
            h = float(space.h_values[ih])
            a_pkts = int(space.arrival_pkts[ia])
            e_quanta = int(hq[ie])
            bcols = blocks_cols[ih, ia, ie]
            bprobs = blocks_probs[ih, ia, ie]

            rates = range(iq + 1) if rates_of is None else rates_of(s)
            count = 0
            for r in rates:
                if draws_of is None:
                    cap = battery_draw_cap_quanta(params, h, r, ib,
                                                  model.restrict_w_to_power)
                    draws = range(cap + 1)
                else:
                    draws = draws_of(s, r)
                iq_next = min(iq - r + a_pkts, space.nq - 1)
                for wq in draws:
                    ib_next = min(ib - wq + e_quanta, nb - 1)
                    r_list.append(r)
                    wq_list.append(wq)
                    owner.append(s)
                    post.append((iq_next * nb + ib_next) * n_ex
                                + (ih * space.na + ia) * space.ne + ie)
                    kcols.append(iq_next * space.s_q + ib_next * space.s_b + bcols)
                    kprobs.append(bprobs)
                    nnz += bcols.size
                    kptr.append(nnz)
                    count += 1
            if count == 0:
                raise ValueError(f"state {s} has no feasible action")
            indptr[s + 1] = indptr[s] + count

        self.indptr = indptr
        self.n_sa = int(indptr[-1])
        self.state_of_sa = np.asarray(owner, dtype=np.int64)
        self.r_sa = np.asarray(r_list, dtype=np.int64)
        self.wq_sa = np.asarray(wq_list, dtype=np.int64)
        self.post_sa = np.asarray(post, dtype=np.int64)
        # (state, r, w) packed into one ascending key per row, for sa_of_policy
        self._n_r = int(self.r_sa.max()) + 1
        self._n_w = int(self.wq_sa.max()) + 1
        self._keys = (self.state_of_sa * self._n_r + self.r_sa) * self._n_w + self.wq_sa
        self.kernel = sp.csr_matrix(
            (np.concatenate(kprobs), np.concatenate(kcols), np.asarray(kptr)),
            shape=(self.n_sa, n))
        self.kernel.sum_duplicates()

        w = self.wq_sa * (params.delta_e / params.tau)
        power = np.array([[required_power(params, float(h), r) for r in range(space.nq)]
                          for h in space.h_values])
        p_req = power[space.ih[self.state_of_sa], self.r_sa]
        self.grid_sa = np.maximum(p_req - w, 0.0)
        self.queue_sa = space.iq[self.state_of_sa].astype(float)
        # per-slot clamp losses, used for evaluation diagnostics
        raw_q = (space.iq[self.state_of_sa] - self.r_sa
                 + space.arrival_pkts[space.ia[self.state_of_sa]])
        self.overflow_sa = np.maximum(raw_q - (space.nq - 1), 0).astype(float)
        raw_b = (space.ib[self.state_of_sa] - self.wq_sa
                 + hq[space.ie[self.state_of_sa]])
        self.spill_sa = np.maximum(raw_b - (nb - 1), 0).astype(float) * params.delta_e


def loop_action_space(model, rates_of=None, draws_of=None):
    return _LoopActionSpace(model, rates_of=rates_of, draws_of=draws_of)


def loop_sa_of_policy(actions, policy):
    """Reference row lookup: scan each state's segment for its stored action."""
    n = actions.indptr.size - 1
    out = np.empty(n, dtype=np.int64)
    for s in range(n):
        lo, hi = actions.indptr[s], actions.indptr[s + 1]
        hit = np.flatnonzero((actions.r_sa[lo:hi] == policy.r[s])
                             & (actions.wq_sa[lo:hi] == policy.w_quanta[s]))
        if hit.size == 0:
            raise ValueError(f"infeasible at state {s}")
        out[s] = lo + hit[0]
    return out


def loop_chain_path(chain, gen, n):
    """Reference chain walk: a stationary start, then one search of the
    current row's cumulative probabilities per slot."""
    def sample(cum_row, u):
        return min(int(np.searchsorted(cum_row, u, side="right")),
                   cum_row.size - 1)

    cum = np.cumsum(chain.transition, axis=1)
    i = sample(np.cumsum(chain.stationary()), gen.random())
    u = gen.random(n)
    path = []
    for t in range(n):
        path.append(i)
        i = sample(cum[i], u[t])
    return np.array(path)
