"""Shared instance builders and comparison helpers for the test suite."""

import csv
import io
import math
from dataclasses import replace

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

from ehsched import mdp
from ehsched.heuristics import conservative_policy, conservative_rate_table, greedy_battery
from ehsched.io import _jsonable, format_float
from ehsched.mdp import (
    NonConvergenceError,
    SolveResult,
    TablePolicy,
    ValueTable,
    build_action_space,
    evaluate_policy,
    exogenous_chain,
    post_decision_values,
    recurrent_classes,
)
from ehsched.model import (
    GRID_EPS,
    Action,
    MarkovChainSpec,
    Model,
    ModelParams,
    StateSpace,
    SystemState,
    battery_draw_cap_quanta,
    draw_cap_table,
    required_power,
    required_power_table,
)
from ehsched.sim import N_BATCHES, PolicyDomainError, SimResult, _batch_se
from ehsched.verify import FAIL, NOT_APPLICABLE, PASS, CertificateReport, _state_witness

# --- per-state reference semantics -------------------------------------------
#
# One state and one action at a time: the dynamics and baselines that the
# package runs as index arrays and integer tables.


def grid_power(params: ModelParams, x: SystemState, r: int, w: float) -> float:
    """Power bought from the grid this slot: (required - battery draw)+."""
    if r < 0 or r > x.q:
        raise ValueError(f"rate {r} infeasible at queue {x.q}")
    if w < -GRID_EPS or w * params.tau > x.e_b + GRID_EPS:
        raise ValueError(f"battery draw {w} infeasible at charge {x.e_b}")
    return max(required_power(params, x.h, r) - w, 0.0)


def step_queue(q: int, r: int, a: int, q_max: int) -> tuple[int, int]:
    """Next queue and the packets lost to the buffer clamp."""
    if r < 0 or r > q:
        raise ValueError(f"rate {r} infeasible at queue {q}")
    raw = q - r + a
    nxt = min(raw, q_max)
    return nxt, raw - nxt


def step_battery(e_b: float, w: float, e: float, params: ModelParams) -> tuple[float, float]:
    """Next battery charge and the harvest energy lost to the capacity clamp."""
    if w * params.tau > e_b + GRID_EPS:
        raise ValueError(f"battery draw {w} infeasible at charge {e_b}")
    raw = e_b - w * params.tau + e
    nxt = min(raw, params.e_max)
    return nxt, raw - nxt


def feasible_actions(x: SystemState, params: ModelParams,
                     restrict_w_to_power: bool = True) -> list[Action]:
    """All feasible (r, w) at state x; w on the delta_e/tau grid.

    r runs over 0..q; w over multiples of delta_e/tau up to the battery charge
    and (by default) the required power of the chosen rate. (0, 0) is always
    present.
    """
    ib = int(round(x.e_b / params.delta_e))
    acts = []
    for r in range(int(x.q) + 1):
        cap = battery_draw_cap_quanta(params, x.h, r, ib, restrict_w_to_power)
        for k in range(cap + 1):
            acts.append(Action(r, k * params.delta_e / params.tau))
    return acts


def index_of(space: StateSpace, x: SystemState) -> int:
    """Flat index of state x, the inverse of space.state_of; ValueError for
    a coordinate off the space's levels or grid."""
    iq = int(x.q)
    if not 0 <= iq < space.nq:
        raise ValueError(f"queue {x.q} outside [0, {space.nq - 1}]")
    ih = int(np.argmin(np.abs(space.h_values - x.h)))
    if abs(space.h_values[ih] - x.h) > 1e-9:
        raise ValueError(f"channel gain {x.h} is not a chain level")
    ia = int(np.argmin(np.abs(space.arrival_pkts - x.a)))
    if space.arrival_pkts[ia] != x.a:
        raise ValueError(f"arrival {x.a} is not a chain level")
    ib = int(round(x.e_b / space.params.delta_e))
    if not 0 <= ib < space.nb or abs(ib * space.params.delta_e - x.e_b) > GRID_EPS:
        raise ValueError(f"battery charge {x.e_b} is off-grid")
    ev = np.asarray(space.harvest.values)
    ie = int(np.argmin(np.abs(ev - x.e)))
    if abs(ev[ie] - x.e) > 1e-9:
        raise ValueError(f"harvest {x.e} is not a chain level")
    return ((iq * space.nh + ih) * space.na + ia) * space.nb * space.ne + ib * space.ne + ie


def radical_policy(x: SystemState, params: ModelParams) -> Action:
    """Serve the whole buffer, battery first."""
    return Action(x.q, greedy_battery(x, x.q, params))


def mixed_action(x: SystemState, params: ModelParams, xi: float, u: float) -> Action:
    """Radical when the uniform draw u falls below xi, else conservative."""
    if u < xi:
        return radical_policy(x, params)
    return conservative_policy(x, params)


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


def iid_random_model(seed):
    """random_model with i.i.d. arrival and harvest (each at its chain's
    first row): the exogenous rows repeat across (a, e), so the post-decision
    states lump to one class per channel level."""
    m = random_model(seed)
    iid = [MarkovChainSpec.iid(c.values, c.transition[0]) for c in (m.arrival, m.harvest)]
    return replace(m, arrival=iid[0], harvest=iid[1])


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


# the arrays an ActionSpace keeps per (state, rate) pair, and their dtypes
PAIR_ARRAYS = {"pair_lo": np.int32, "pair_post": np.intp, "pair_top": np.intp,
               "pair_p0": np.float64, "pair_q": np.float64, "_by_state": np.intp}


def assert_same_csr(got, want):
    """Same shape and the same CSR arrays, dtypes too."""
    assert got.shape == want.shape
    for name in ("indptr", "indices", "data"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype, name
        np.testing.assert_array_equal(a, b, err_msg=name)


def expand_rows(actions):
    """The draw windows of actions expanded into the loop oracle's rows:
    (indptr, state, r, wq), one entry per (state, rate, draw) action in
    (state, rate, draw) order. Pairs are (state, rate) for rates 0..q per
    state; each pair's first draw is read at its walk position, and its
    window length from n_offering (the pairs offering offset k are the
    first n_offering[k] in the walk), so the expansion checks the walk order
    too."""
    space = actions.model.space
    n_rates = space.iq + 1
    state = np.repeat(np.arange(space.n_states), n_rates)
    r = np.arange(state.size) - np.repeat(np.cumsum(n_rates) - n_rates, n_rates)
    length = np.zeros(state.size, dtype=np.int64)
    for m in actions.n_offering:
        length[:m] += 1
    at = actions._by_state
    lo, length = actions.pair_lo[at].astype(np.int64), length[at]
    first = np.cumsum(length) - length
    wq = np.repeat(lo, length) + np.arange(int(length.sum())) - np.repeat(first, length)
    state, r = np.repeat(state, length), np.repeat(r, length)
    counts = np.bincount(state, minlength=space.n_states)
    return np.concatenate(([0], np.cumsum(counts))), state, r, wq


def assert_same_action_space(got, want):
    """got's actions equal the loop oracle's rows (want must be one): each
    pair array in its own dtype; the windows, expanded into rows, equal the
    oracle's rows in order; the per-action quantities bit for bit against
    the oracle's full arrays; the post-decision indices; and the chain of
    all of got's actions equal to the oracle's kernel."""
    for name, dtype in PAIR_ARRAYS.items():
        assert getattr(got, name).dtype == dtype, name
    assert got.n_sa == want.n_sa
    indptr, state, r, wq = expand_rows(got)
    np.testing.assert_array_equal(indptr, want.indptr)
    np.testing.assert_array_equal(r, want.r_sa)
    np.testing.assert_array_equal(wq, want.wq_sa)
    np.testing.assert_array_equal(got.post_index(r, wq, state), want.post_sa)
    for name, a in zip(("queue_sa", "grid_sa", "overflow_sa", "spill_sa"),
                       got.terms(r, wq, state)):
        b = getattr(want, name)
        assert a.dtype == b.dtype, name
        np.testing.assert_array_equal(a, b, err_msg=name)
    assert_same_csr(full_chain(got, got.post_index(r, wq, state)), want.kernel)


def matching_oracle(actions):
    """The loop oracle of actions' model, checked to hold the same rows as
    actions' expanded windows, which must be the full enumeration."""
    oracle = loop_action_space(actions.model)
    indptr, _, r, wq = expand_rows(actions)
    np.testing.assert_array_equal(oracle.indptr, indptr)
    np.testing.assert_array_equal(oracle.r_sa, r)
    np.testing.assert_array_equal(oracle.wq_sa, wq)
    return oracle


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
                idx.append(index_of(space, nxt))
                probs.append(p)
    order = np.argsort(idx)
    return np.asarray(idx, dtype=np.int64)[order], np.asarray(probs)[order]


# --- reference implementations ----------------------------------------------


def full_chain(actions, post):
    """Sparse one-step transition matrix over the states of the actions with
    post-decision indices post, one row each: the positive entries of the
    exogenous chain's row for the action's (h, a, e), shifted to its next
    (q, battery) state index. Every row is canonical (sorted,
    duplicate-free). This is the chain P = S R that the solvers evaluate
    through the lumped chain Q = R S."""
    space = actions.model.space
    X = actions.exogenous
    n_ex = X.shape[0]
    offsets = (np.arange(space.nh)[:, None, None] * space.s_h
               + np.arange(space.na)[None, :, None] * space.s_a
               + np.arange(space.ne)[None, None, :]).ravel()
    ex_rows, ex_cols = np.nonzero(X > 0.0)
    block_ptr = np.concatenate(([0], np.cumsum(np.bincount(ex_rows, minlength=n_ex))))
    ex, qb = post % n_ex, post // n_ex
    base = (qb // space.nb) * space.s_q + (qb % space.nb) * space.s_b
    row_nnz = np.diff(block_ptr)[ex]
    ptr = np.concatenate(([0], np.cumsum(row_nnz)))
    gather = np.repeat(block_ptr[ex] - ptr[:-1], row_nnz) + np.arange(ptr[-1])
    cols = offsets[ex_cols[gather]] + np.repeat(base, row_nnz)
    return sp.csr_matrix((X[ex_rows, ex_cols][gather], cols, ptr),
                         shape=(post.size, space.n_states))


def policy_chain(policy, actions):
    """Sparse chain P over the states that a table or mixed policy induces;
    a mixture marginalizes its coin (xi P+ + (1 - xi) P-)."""
    terms = mdp._policy_terms(policy, actions)
    if len(terms) == 1:
        return full_chain(actions, actions.post_index(*terms[0][1]))
    P = sum(w * full_chain(actions, actions.post_index(*sa)) for w, sa in terms).tocsr()
    P.eliminate_zeros()
    return P


def identity_minus(P, scale=1.0, ref=None):
    """I - scale * P, plus 1 e_ref^T when ref is given, in CSC, built from
    the canonical CSR arrays of P without sparse arithmetic.

    Its entries are those of scipy's (I - scale * P (+ ones)).tocsc(), bit
    for bit: -(scale*p), then + 1 on the diagonal (1 - scale*p, the same
    double), then + 1 in column ref; the zeros scipy drops (1 - p_ii of an
    absorbing row, -p + 1 where p is 1) are dropped; and each column's rows
    ascend.
    """
    n = P.shape[0]
    entries = (np.repeat(np.arange(n), np.diff(P.indptr)),
               P.indices.astype(np.int64), -(P.data * scale))

    def plus_one(rows, cols, vals, target):
        # + 1 at (i, target[i]) in every row i: onto the entry there, or as
        # a new entry where there is none
        at = cols == target[rows]
        vals[at] += 1.0
        bare = np.ones(n, dtype=bool)
        bare[rows[at]] = False
        i = np.flatnonzero(bare)
        return (np.concatenate((rows, i)), np.concatenate((cols, target[i])),
                np.concatenate((vals, np.ones(i.size))))

    entries = plus_one(*entries, np.arange(n))
    if ref is not None:
        entries = plus_one(*entries, np.full(n, ref))
    rows, cols, vals = entries
    kept = vals != 0.0
    rows, cols, vals = rows[kept], cols[kept], vals[kept]
    order = np.argsort(cols * n + rows)
    indptr = np.concatenate(([0], np.cumsum(np.bincount(cols, minlength=n))))
    return sp.csc_matrix((vals[order], rows[order], indptr), shape=(n, n))


def full_chain_evaluation(policy, beta, actions, alpha=None, ref=0):
    """Reference evaluation on the full chain P over the states, one sparse
    LU of n states: with alpha None, (gain, bias normalised at ref,
    stationary law) from the bias-gain LU of P at ref 0, or None where P is
    multichain; with alpha, the discounted values of a table policy."""
    from scipy.sparse.linalg import splu

    P = policy_chain(policy, actions)
    c = sum(w * (q + beta * grid) for w, (q, grid, _, _) in
            ((w, actions.terms(*sa)) for w, sa in mdp._policy_terms(policy, actions)))
    if alpha is not None:
        return splu(identity_minus(P, alpha)).solve(c)
    if recurrent_classes(P)[1] != 1:
        return None
    lu = splu(identity_minus(P, ref=0))
    x = lu.solve(c)
    e = np.zeros(P.shape[0])
    e[0] = 1.0
    pi = np.maximum(lu.solve(e, trans="T"), 0.0)
    bias = x - x[ref]
    return x[0], bias, pi / pi.sum()


def scipy_bias_gain_matrix(P, ref):
    """I - P + 1 e_ref^T by scipy's sparse arithmetic, in CSC: the assembly
    identity_minus replaces."""
    n = P.shape[0]
    ones_col = sp.csr_matrix((np.ones(n), (np.arange(n), np.full(n, ref))),
                             shape=(n, n))
    return (sp.identity(n, format="csr") - P + ones_col).tocsc()


def scipy_discount_matrix(P, alpha):
    """I - alpha P by scipy's sparse arithmetic, in CSC."""
    return (sp.identity(P.shape[0], format="csc") - alpha * P).tocsc()


def nonzero_recurrent_classes(P):
    """recurrent_classes with its edges read through P.nonzero()."""
    n_comp, labels = connected_components(P, directed=True, connection="strong")
    rows, cols = P.nonzero()
    closed = np.ones(n_comp, dtype=bool)
    crossing = labels[rows] != labels[cols]
    closed[labels[rows[crossing]]] = False
    return closed[labels], int(np.count_nonzero(closed))


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


def gth_stationary_distribution(P):
    """Reference stationary law of a unichain P by Grassmann-Taksar-Heyman
    state elimination (Grassmann, Taksar & Heyman, Oper. Res. 33, 1985). It
    reads only the off-diagonal entries and never subtracts, so it stays
    accurate where P is nearly decomposable, e.g. a mixture whose weight on
    the policy joining another's recurrent classes is 1e-16. Recurrent
    states are eliminated last, so every state eliminated still leads to
    one that is left."""
    recurrent, n_classes = recurrent_classes(sp.csr_matrix(P))
    assert n_classes == 1
    order = np.concatenate((np.flatnonzero(recurrent), np.flatnonzero(~recurrent)))
    A = P.toarray()[np.ix_(order, order)]
    n = A.shape[0]
    for k in range(n - 1, 0, -1):
        A[:k, k] /= A[k, :k].sum()
        A[:k, :k] += np.outer(A[:k, k], A[k, :k])
    pi = np.zeros(n)
    pi[0] = 1.0
    for k in range(1, n):
        pi[k] = pi[:k] @ A[:k, k]
    out = np.empty(n)
    out[order] = pi / pi.sum()
    return out


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


def row_min(y, indptr):
    """Reference per-state minimum of the per-row values y."""
    return np.minimum.reduceat(y, indptr[:-1])


def first_hit(y, mins, oracle, tie_tol):
    """Reference tie-canonical extraction: each state's first row, in (r, w)
    order, with y <= mins + tie_tol + 1e-12 |mins|, as (r, wq) tables."""
    tol = tie_tol + 1e-12 * np.abs(mins)
    n = oracle.indptr.size - 1
    rows = np.empty(n, dtype=np.int64)
    for s in range(n):
        lo, hi = oracle.indptr[s], oracle.indptr[s + 1]
        rows[s] = lo + np.flatnonzero(y[lo:hi] <= mins[s] + tol[s])[0]
    return oracle.r_sa[rows], oracle.wq_sa[rows]


def count_backups(monkeypatch):
    """Wraps ActionSpace.backup for the test: returns a list that gains one
    entry per backup, the list of tie windows its pick is called with."""
    calls = []
    backup = mdp.ActionSpace.backup

    def counted(self, *args, **kwargs):
        mins, pick = backup(self, *args, **kwargs)
        picks = []
        calls.append(picks)
        return mins, lambda tie_tol, *rel: picks.append(tie_tol) or pick(tie_tol, *rel)
    monkeypatch.setattr(mdp.ActionSpace, "backup", counted)
    return calls


def cold_discounted_value_iteration(cfg, model, actions=None):
    """Reference discounted solve: Bellman sweeps on the loop oracle's
    kernel from V=0 to the residual epsilon*(1-alpha)/(2*alpha), then the
    same tie-canonical extraction."""
    if actions is None:
        actions = build_action_space(model)
    alpha = cfg.alpha
    threshold = cfg.epsilon * (1.0 - alpha) / (2.0 * alpha)
    oracle = matching_oracle(actions)
    c = oracle.queue_sa + cfg.beta * oracle.grid_sa
    K = oracle.kernel
    v = np.zeros(model.space.n_states)
    for it in range(1, cfg.max_iters + 1):
        mins = row_min(c + alpha * (K @ v), oracle.indptr)
        resid = float(np.max(np.abs(mins - v)))
        v = mins
        if resid < threshold:
            break
    else:
        raise AssertionError(f"no convergence in {cfg.max_iters} sweeps")
    y = c + alpha * (K @ v)
    sa = first_hit(y, row_min(y, oracle.indptr), oracle, 10.0 * cfg.epsilon)
    table = ValueTable(values=v, kind="discounted", beta=cfg.beta, alpha=alpha)
    return SolveResult(gain=float("nan"), values=table,
                       policy=actions.policy_from_sa(sa), n_iters=it,
                       residual=resid, actions=actions)


def cold_relative_value_iteration(cfg, model, actions=None):
    """Reference average-cost solve: relative VI sweeps of the damped
    operator (1 - kappa) V + kappa T V, kappa 0.5, which removes periodicity
    and keeps the gain and greedy policy (Puterman 1994, aperiodicity
    transformation), on the loop oracle's kernel from V=0 to a span of T V -
    V below epsilon, then the same tie-canonical extraction and
    kappa-rescaled bias."""
    if actions is None:
        actions = build_action_space(model)
    ref, kappa = cfg.reference_state, 0.5
    oracle = matching_oracle(actions)
    c = oracle.queue_sa + cfg.beta * oracle.grid_sa
    K = oracle.kernel
    owner = oracle.state_of_sa

    v = np.zeros(model.space.n_states)
    trace = []
    for it in range(1, cfg.max_iters + 1):
        y = c + kappa * (K @ v) + (1.0 - kappa) * v[owner]
        mins = row_min(y, oracle.indptr)
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
    mins = row_min(y, oracle.indptr)
    sa = first_hit(y, mins, oracle, 10.0 * cfg.epsilon)
    d = mins - v
    lo, hi = float(d.min()), float(d.max())
    bias = ValueTable(values=kappa * (v - v[ref]), kind="relative-bias",
                      beta=cfg.beta, reference_state=ref)
    return SolveResult(gain=0.5 * (lo + hi), values=bias,
                       policy=actions.policy_from_sa(sa), n_iters=it,
                       residual=span, gain_bounds=(lo, hi), trace=trace,
                       actions=actions)


class _LoopActionSpace:
    """Reference state-action builder: one Python pass per state, rate and
    draw, appending each row's post-decision index and its materialised
    kernel row. It keeps every per-row array in full and in int64/float64
    (the owning state, the rate and draw, the queue cost, the grid power,
    the clamp losses), as the reference for the actions ActionSpace's draw
    windows hold. draws_of(s, r), when given, replaces the draws 0..cap."""

    def __init__(self, model: Model, draws_of=None):
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

            count = 0
            for r in range(iq + 1):
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
            indptr[s + 1] = indptr[s] + count

        self.indptr = indptr
        self.n_sa = int(indptr[-1])
        self.state_of_sa = np.asarray(owner, dtype=np.int64)
        self.r_sa = np.asarray(r_list, dtype=np.int64)
        self.wq_sa = np.asarray(wq_list, dtype=np.int64)
        self.post_sa = np.asarray(post, dtype=np.int64)
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


def loop_action_space(model, draws_of=None):
    return _LoopActionSpace(model, draws_of=draws_of)


def loop_sa_of_policy(actions, policy):
    """Reference row lookup in a loop oracle's rows: scan each state's
    segment for its stored action."""
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


# --- reference simulator and baseline tables -------------------------------


def reference_simulation(policy, model, cfg):
    """run_simulation one slot at a time, for a per-state policy.

    policy is a function state -> Action, or an object with act(state,
    coin). Each slot builds the SystemState, asks the policy for its action
    and checks it: an exception or None from the policy, a rate that is not
    an integer, a draw off the energy grid, a rate above the backlog or a
    draw above the charge is a PolicyDomainError that carries the state.
    Then the queue and the battery step one slot. The chains walk by
    loop_chain_path from the same four Philox substreams as run_simulation,
    so the same actions give the same result and trace, bit for bit.
    """
    params = model.params
    de, tau = params.delta_e, params.tau
    w_scale = de / tau
    q_max, b_top = params.q_max, params.n_battery_levels - 1
    n, warmup = cfg.n_slots, cfg.effective_warmup
    act = policy.act if hasattr(policy, "act") else (lambda x, coin: policy(x))
    gens = [np.random.Generator(np.random.Philox(s))
            for s in np.random.SeedSequence(cfg.seed).spawn(4)]
    ih_path, ia_path, ie_path = (
        loop_chain_path(chain, gen, n).tolist()
        for chain, gen in zip((model.channel, model.arrival, model.harvest), gens))
    coins = gens[3].random(n).tolist()
    h_vals = [float(v) for v in model.channel.values]
    a_pkts = [int(round(v)) for v in model.arrival.values]
    e_vals = [float(v) for v in model.harvest.values]
    e_quanta = [int(round(v / de)) for v in model.harvest.values]

    cols = {key: [] for key in ("q", "h", "a", "e_b", "e", "r", "w",
                                "grid_power", "overflow", "spill")}
    q = ib = 0
    for ih, ia, ie, coin in zip(ih_path, ia_path, ie_path, coins):
        x = SystemState(q=q, h=h_vals[ih], a=a_pkts[ia], e_b=ib * de,
                        e=e_vals[ie])
        try:
            a = act(x, coin)
        except (KeyError, IndexError, ValueError) as exc:
            raise PolicyDomainError(f"policy failed at {x}: {exc}",
                                    state=x) from exc
        if a is None:
            raise PolicyDomainError(f"policy returned no action at {x}",
                                    state=x)
        r = int(a.r)
        wq = int(round(a.w * tau / de))
        if r != a.r:
            raise PolicyDomainError(f"rate {a.r} is not an integer at {x}",
                                    state=x)
        if abs(wq * de / tau - a.w) > GRID_EPS:
            raise PolicyDomainError(
                f"battery draw {a.w} is off the energy grid at {x}", state=x)
        if not 0 <= r <= q or not 0 <= wq <= ib:
            raise PolicyDomainError(f"action {a} infeasible at {x}", state=x)
        q_next = q + a_pkts[ia] - r
        b_next = ib + e_quanta[ie] - wq
        for key, value in (("q", float(q)), ("h", x.h), ("a", float(x.a)),
                           ("e_b", x.e_b), ("e", x.e), ("r", float(r)),
                           ("w", wq * w_scale),
                           ("grid_power", max(required_power(params, x.h, r)
                                              - wq * w_scale, 0.0)),
                           ("overflow", max(q_next - q_max, 0)),
                           ("spill", max(b_next - b_top, 0))):
            cols[key].append(value)
        q, ib = min(q_next, q_max), min(b_next, b_top)

    series = {key: np.array(col) for key, col in cols.items()}
    overflow, spill = series.pop("overflow"), series.pop("spill")
    q_meas = series["q"][warmup:]
    g_meas = series["grid_power"][warmup:]
    trace = None
    if cfg.record_trace:
        trace = {**series, "overflow_pkts": overflow.astype(float),
                 "spill_energy": spill * de}
    return SimResult(
        mean_queue=float(q_meas.mean()),
        mean_grid_power=float(g_meas.mean()),
        overflow_fraction=float((overflow[warmup:] > 0).mean()),
        mean_queue_se=_batch_se(q_meas, N_BATCHES),
        mean_grid_power_se=_batch_se(g_meas, N_BATCHES),
        overflow_rate=float(overflow[warmup:].mean()),
        battery_spill_rate=float(spill[warmup:].mean() * de),
        max_grid_power=float(series["grid_power"].max()),
        n_slots=n, warmup=warmup, seed=cfg.seed, trace=trace)


def loop_baseline_slots(model, weight, ih_path, a_slot, e_slot, coins):
    """Reference (r, wq) per slot of the conservative or mixed baseline, by
    one loop from an empty buffer and battery: the rate min(q, rc[ih, ib])
    (min(q, q_max) = q on the slots whose coin falls below the weight) and
    the draw min(ib, cap[ih, r])."""
    params = model.params
    q_max, b_top = params.q_max, params.n_battery_levels - 1
    rc, cap = model.rate_table.tolist(), model.cap_table.tolist()
    rs, ws = [], []
    q = ib = 0
    for ih, radical, a, e in zip(ih_path.tolist(), (coins < weight).tolist(),
                                 a_slot.tolist(), e_slot.tolist()):
        r = q if radical else min(rc[ih][ib], q)
        w = min(cap[ih][r], ib)
        rs.append(r)
        ws.append(w)
        q = min(q + a - r, q_max)
        ib = min(ib + e - w, b_top)
    return np.array(rs, dtype=np.int64), np.array(ws, dtype=np.int64)


def baseline_tables(model):
    """(radical, conservative) as TablePolicys over every state, from the
    two integer tables the simulator runs the baselines from: r = q, or
    min(q, rc[ih, ib]); wq = min(ib, cap[ih, r]). The draw is capped by the
    rate's power on every model, as greedy_battery caps it."""
    space = model.space
    params = model.params
    power = required_power_table(params, model.channel.values)
    cap = draw_cap_table(params, power)
    rc = conservative_rate_table(params, power)

    def table(r):
        return TablePolicy(r=r, w_quanta=np.minimum(space.ib, cap[space.ih, r]),
                           delta_e=params.delta_e, tau=params.tau)

    return (table(space.iq),
            table(np.minimum(space.iq, rc[space.ih, space.ib])))


def rows_to_csv(rows) -> str:
    """Reference CSV rendering: csv.DictWriter over dict rows, floats at
    %.12g, fields in the first row's order."""
    rows = list(rows)
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=list(rows[0]) if rows else [],
                            lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow({k: format_float(v) if isinstance(v, (float, np.floating))
                         else v for k, v in row.items()})
    return buf.getvalue()


# --- reference difference certificates -------------------------------------


class _LoopDifferences:
    """Reference difference algebra of the two difference certificates,
    one state at a time: per-state scalars, Python-float marginals and one
    battery_draw_cap_quanta call per feasibility test.

    The continuation of playing (leftover queue u, leftover battery j) from
    state x is W(u, j) = E[V(next)] where the current arrival and harvest
    enter deterministically (clamped) and the chains advance one step. All
    certificate quantities are algebraic combinations of W differences, of
    the circuit-cost steps, and of the grid-power price.
    """

    def __init__(self, values: ValueTable, model: Model):
        if values.alpha is None:
            raise ValueError("difference certificates expect discounted values")
        space = model.space
        # ev[q', jb', ih, ia, ie] = chain-expected next value, the solvers'
        # post-decision table
        self.ev = post_decision_values(values.values, space,
                                       exogenous_chain(model)).reshape(
            space.nq, space.nb, space.nh, space.na, space.ne)
        self.model = model
        self.space = space
        self.alpha = float(values.alpha)
        self.beta = float(values.beta)
        self.params = model.params
        self.theta = self.params.theta
        self.dstep = self.params.delta_e / self.params.tau

    def state_view(self, s: int) -> "_LoopStateDifferences":
        return _LoopStateDifferences(self, s)


class _LoopStateDifferences:
    def __init__(self, ctx: _LoopDifferences, s: int):
        space = ctx.space
        self.ctx = ctx
        self.s = s
        self.iq = int(space.iq[s])
        self.ih = int(space.ih[s])
        self.ia = int(space.ia[s])
        self.ib = int(space.ib[s])
        self.ie = int(space.ie[s])
        self.h = float(space.h_values[self.ih])
        self.a_pkts = int(space.arrival_pkts[self.ia])
        self.e_quanta = int(space.harvest_quanta[self.ie])
        p = ctx.params
        self.rate_price = (ctx.beta * p.rho * (p.sigma2 / self.h)
                           * math.exp(ctx.theta * self.iq)
                           * (math.exp(ctx.theta) - 1.0))
        self.draw_price = -ctx.beta * ctx.dstep

    def w(self, u: int, j: int) -> float | None:
        """Expected continuation; None when the backward shift leaves the grid."""
        space = self.ctx.space
        qn = u + self.a_pkts
        bn = j + self.e_quanta
        if qn < 0 or bn < 0:
            return None
        return float(self.ctx.ev[min(qn, space.nq - 1), min(bn, space.nb - 1),
                                 self.ih, self.ia, self.ie])

    def _circuit_step(self, u: int) -> float:
        # one-step circuit-cost change when serving one more packet from u
        c = self.ctx.params.circuit_c
        now = c if (self.iq - u) > 0 else 0.0
        more = c if (self.iq - u + 1) > 0 else 0.0
        return now - more

    def z_rate(self, u: int, j: int) -> float | None:
        """Normalised marginal of the one-step target along the queue axis."""
        w1, w0 = self.w(u, j), self.w(u - 1, j)
        if w1 is None or w0 is None:
            return None
        return math.exp(self.ctx.theta * u) * (
            self.ctx.alpha * (w1 - w0) + self.ctx.beta * self._circuit_step(u))

    def z_draw(self, u: int, j: int) -> float | None:
        """Marginal along the battery axis, per quantum."""
        w1, w0 = self.w(u, j), self.w(u, j - 1)
        if w1 is None or w0 is None:
            return None
        return self.ctx.alpha * (w1 - w0)

    def z_diag(self, u: int, j: int) -> float | None:
        """Marginal along the serve-one-more-paid-by-battery diagonal."""
        w1, w0 = self.w(u, j), self.w(u - 1, j - 1)
        if w1 is None or w0 is None:
            return None
        return math.exp(self.ctx.theta * u) * (
            self.ctx.alpha * (w1 - w0)
            + self.ctx.beta * self._circuit_step(u)
            + self.ctx.beta * self.ctx.dstep)

    def feasible(self, u: int, j: int) -> bool:
        """Leftover pair reachable without drawing beyond the required power.

        The cap is enforced for the certificate even when the model allows
        larger draws: past it the grid-power hinge is active and the smooth
        difference algebra no longer represents the one-step cost.
        """
        if not (0 <= u <= self.iq and 0 <= j <= self.ib):
            return False
        cap = battery_draw_cap_quanta(self.ctx.params, self.h, self.iq - u,
                                      self.ib, True)
        return self.ib - j <= cap


def _loop_cmp_tol(tol: float, *magnitudes: float) -> float:
    scale = 1.0
    for m in magnitudes:
        scale = max(scale, abs(m))
    return tol * scale


def loop_necessary_conditions(values: ValueTable, policy: TablePolicy,
                               model: Model,
                               tol: float = 1e-7) -> CertificateReport:
    """Reference for verify.check_necessary_conditions, one state at a time.

    Each feasible one-step perturbation of the action (serve one more/less,
    draw one quantum more/less, and the two paired moves) must not improve
    the one-step target; rewritten as marginal-vs-price comparisons. Sides
    whose perturbed action is infeasible are skipped (boundary states get
    one-sided checks). Tolerance is relative above unit scale.
    """
    name = "action-first-order-conditions"
    ctx = _LoopDifferences(values, model)
    n_checked = 0
    n_skipped = 0
    n_states_skipped = 0
    worst = 0.0
    witness = None

    for s in range(model.space.n_states):
        sd = ctx.state_view(s)
        r_star, wq_star = int(policy.r[s]), int(policy.w_quanta[s])
        u, j = sd.iq - r_star, sd.ib - wq_star
        if not sd.feasible(u, j):
            # stored action draws past the required power (only possible when
            # the model relaxes the draw cap); the marginal algebra does not
            # apply there
            n_states_skipped += 1
            continue
        t_rate = sd.rate_price
        t_draw = sd.draw_price
        sides = []
        if u + 1 <= sd.iq and sd.feasible(u + 1, j):
            z = sd.z_rate(u + 1, j)
            if z is not None:
                sides.append(("serve-one-less", t_rate - z, t_rate, z))
        if u >= 1 and sd.feasible(u - 1, j):
            z = sd.z_rate(u, j)
            if z is not None:
                sides.append(("serve-one-more", z - t_rate, t_rate, z))
        if j + 1 <= sd.ib and sd.feasible(u, j + 1):
            z = sd.z_draw(u, j + 1)
            if z is not None:
                sides.append(("draw-one-less", t_draw - z, t_draw, z))
        if j >= 1 and sd.feasible(u, j - 1):
            z = sd.z_draw(u, j)
            if z is not None:
                sides.append(("draw-one-more", z - t_draw, t_draw, z))
        if u + 1 <= sd.iq and j + 1 <= sd.ib and sd.feasible(u + 1, j + 1):
            z = sd.z_diag(u + 1, j + 1)
            if z is not None:
                sides.append(("serve-less-draw-less", t_rate - z, t_rate, z))
        if u >= 1 and j >= 1 and sd.feasible(u - 1, j - 1):
            z = sd.z_diag(u, j)
            if z is not None:
                sides.append(("serve-more-draw-more", z - t_rate, t_rate, z))

        for side_name, raw_violation, lhs, rhs in sides:
            n_checked += 1
            margin = raw_violation - _loop_cmp_tol(tol, lhs, rhs)
            if margin > 0 and raw_violation > worst:
                worst = raw_violation
                witness = _state_witness(model, s, r=r_star,
                                         w=wq_star * ctx.dstep,
                                         condition=side_name,
                                         marginal=rhs, price=lhs)
        n_skipped += 6 - len(sides)

    details = _jsonable({"n_sides_checked": n_checked,
                       "n_sides_skipped": n_skipped,
                       "n_states_skipped": n_states_skipped,
                       "alpha": ctx.alpha, "beta": ctx.beta,
                       "tolerance": tol})
    if witness is not None:
        return CertificateReport(name, FAIL, worst_violation=worst,
                                 witness=witness, details=details)
    return CertificateReport(name, PASS, details=details)


def loop_special_states(values: ValueTable, policy: TablePolicy,
                         model: Model, tol: float = 1e-7) -> CertificateReport:
    """Reference for verify.check_special_states, one state at a time.

    Two regimes admit closed forms: serve-everything with the largest
    feasible draw (when even the full-service marginals beat the prices
    strictly), and full idling (when even the idle marginals lose to the
    prices strictly). The certificates additionally require the marginal
    arrays to be extremal at the closed-form action over the whole feasible
    lattice -- the assumption the regimes rest on; states where that ordering
    fails numerically are excluded rather than failed. Premises must hold
    strictly beyond tolerance. The empty-backlog state pins the policy to
    (0, 0) whenever draws are capped by required power.
    """
    name = "closed-form-special-states"
    ctx = _LoopDifferences(values, model)
    params = model.params
    n_serve_all = n_idle = n_empty = 0
    n_side_excluded = 0
    n_unevaluable = 0
    worst = 0.0
    witness = None

    def _note(violation, wit):
        nonlocal worst, witness
        if violation > worst:
            worst = violation
            witness = wit

    for s in range(model.space.n_states):
        sd = ctx.state_view(s)
        r_star, wq_star = int(policy.r[s]), int(policy.w_quanta[s])
        q, ib = sd.iq, sd.ib

        if q == 0:
            if model.restrict_w_to_power:
                n_empty += 1
                if r_star != 0 or wq_star != 0:
                    _note(1.0, _state_witness(model, s, r=r_star,
                                              w=wq_star * ctx.dstep,
                                              expected="(0, 0)",
                                              regime="empty-backlog"))
            continue

        cap_full = min(ib, battery_draw_cap_quanta(params, sd.h, q, ib, True))
        j_full = ib - cap_full

        lattice_rate = []
        lattice_draw = []
        for uu in range(0, q + 1):
            for jj in range(0, ib + 1):
                if not sd.feasible(uu, jj):
                    continue
                if uu >= 1:
                    z = sd.z_rate(uu, jj)
                    if z is not None:
                        lattice_rate.append(z)
                if jj >= 1:
                    z = sd.z_draw(uu, jj)
                    if z is not None:
                        lattice_draw.append(z)

        # serve-everything regime: marginals at (0, j_full), strictly above price
        z1 = sd.z_rate(0, j_full)
        z2 = sd.z_draw(0, j_full)
        if z1 is not None and z2 is not None:
            prem = (z1 > sd.rate_price + _loop_cmp_tol(tol, sd.rate_price, z1)
                    and z2 > sd.draw_price + _loop_cmp_tol(tol, sd.draw_price, z2))
            if prem:
                ordered = ((not lattice_rate or z1 <= min(lattice_rate)
                            + _loop_cmp_tol(tol, z1, min(lattice_rate)))
                           and (not lattice_draw or z2 <= min(lattice_draw)
                                + _loop_cmp_tol(tol, z2, min(lattice_draw))))
                if not ordered:
                    n_side_excluded += 1
                else:
                    n_serve_all += 1
                    if r_star != q or abs(wq_star - cap_full) > 1:
                        _note(float(max(abs(q - r_star),
                                        abs(wq_star - cap_full))),
                              _state_witness(model, s, r=r_star,
                                             w=wq_star * ctx.dstep,
                                             expected_r=q,
                                             expected_w=cap_full * ctx.dstep,
                                             regime="serve-everything"))
        else:
            n_unevaluable += 1

        # idle regime: marginals at (q, ib), strictly below price
        z1 = sd.z_rate(q, ib)
        z2 = sd.z_draw(q, ib)
        if z1 is not None and z2 is not None:
            prem = (z1 < sd.rate_price - _loop_cmp_tol(tol, sd.rate_price, z1)
                    and z2 < sd.draw_price - _loop_cmp_tol(tol, sd.draw_price, z2))
            if prem:
                ordered = ((not lattice_rate or z1 >= max(lattice_rate)
                            - _loop_cmp_tol(tol, z1, max(lattice_rate)))
                           and (not lattice_draw or z2 >= max(lattice_draw)
                                - _loop_cmp_tol(tol, z2, max(lattice_draw))))
                if not ordered:
                    n_side_excluded += 1
                else:
                    n_idle += 1
                    if r_star != 0 or wq_star != 0:
                        _note(float(max(r_star, wq_star)),
                              _state_witness(model, s, r=r_star,
                                             w=wq_star * ctx.dstep,
                                             expected="(0, 0)",
                                             regime="idle"))
        else:
            n_unevaluable += 1

    details = _jsonable({"n_serve_all_states": n_serve_all,
                       "n_idle_states": n_idle,
                       "n_empty_backlog_states": n_empty,
                       "n_ordering_excluded": n_side_excluded,
                       "n_unevaluable": n_unevaluable,
                       "alpha": ctx.alpha, "beta": ctx.beta,
                       "tolerance": tol})
    if witness is not None:
        return CertificateReport(name, FAIL, worst_violation=worst,
                                 witness=witness, details=details)
    if n_serve_all + n_idle + n_empty == 0:
        return CertificateReport(name, NOT_APPLICABLE, details=details)
    return CertificateReport(name, PASS, details=details)
