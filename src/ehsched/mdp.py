"""Average-cost and discounted MDP machinery over the link model.

The decision problem: per slot, pay q + beta * grid_power. The solver works on
a flattened state-action enumeration; every expectation E[V(next) | s, a] is
one contraction of V with the exogenous chain and a gather at the row's
post-decision index, and a policy's sparse chain, for its LU, comes from the
same index. Both
solves run Howard policy iteration first, each policy evaluated by one sparse
LU, and start value iteration from the values of the policy it ends on; the
sweeps then only mop up rounding error before meeting their usual stopping
rules (the span of T V - V for the long-run average, the sup-norm residual
for the discounted solve behind the vanishing-discount route).
evaluate_policy computes exact stationary averages for any fixed (or
two-policy mixed) stationary policy from the same bias-gain LU.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components
from scipy.sparse.linalg import splu

from .model import (
    Action,
    ConfigError,
    Model,
    draw_cap_table,
    required_power,
)


class NonConvergenceError(RuntimeError):
    def __init__(self, msg, residual=None):
        super().__init__(msg)
        self.residual = residual


class MultichainError(RuntimeError):
    """The policy's chain has more than one recurrent class; long-run averages
    would depend on the initial state."""


class InstanceTooLargeError(RuntimeError):
    pass


@dataclass(frozen=True)
class SolverConfig:
    """Knobs for the value-iteration solvers.

    kappa is the damping weight of the averaged Bellman operator
    (1-kappa)*I + kappa*T used by relative VI; it removes periodicity without
    changing the gain or the greedy policy.
    """

    beta: float
    epsilon: float = 1e-9
    max_iters: int = 1_000_000
    reference_state: int = 0
    alpha: float | None = None
    kappa: float = 0.5

    def __post_init__(self):
        if self.beta < 0:
            raise ConfigError("beta must be >= 0")
        if self.epsilon <= 0:
            raise ConfigError("epsilon must be positive")
        if self.alpha is not None and not 0.0 < self.alpha < 1.0:
            raise ConfigError("alpha must be in (0, 1)")
        if not 0.0 < self.kappa <= 1.0:
            raise ConfigError("kappa must be in (0, 1]")
        if self.max_iters < 1:
            raise ConfigError("max_iters must be >= 1")


@dataclass
class ValueTable:
    values: np.ndarray
    kind: str  # "relative-bias" | "discounted"
    beta: float
    alpha: float | None = None
    reference_state: int | None = None


@dataclass
class TablePolicy:
    """Deterministic stationary policy stored as per-state (r, w-quanta)."""

    r: np.ndarray
    w_quanta: np.ndarray
    delta_e: float
    tau: float

    @property
    def w(self) -> np.ndarray:
        return self.w_quanta * (self.delta_e / self.tau)

    def action(self, i: int) -> Action:
        return Action(int(self.r[i]), float(self.w_quanta[i]) * self.delta_e / self.tau)

    @classmethod
    def from_callable(cls, fn, model: Model) -> "TablePolicy":
        space = model.space
        n = space.n_states
        r = np.zeros(n, dtype=np.int64)
        wq = np.zeros(n, dtype=np.int64)
        de, tau = model.params.delta_e, model.params.tau
        for i in range(n):
            act = fn(space.state_of(i))
            r[i] = int(act.r)
            wq[i] = int(round(act.w * tau / de))
        return cls(r=r, w_quanta=wq, delta_e=de, tau=tau)

    def __eq__(self, other):
        if not isinstance(other, TablePolicy):
            return NotImplemented
        return (np.array_equal(self.r, other.r)
                and np.array_equal(self.w_quanta, other.w_quanta))


@dataclass
class MixedPolicy:
    """Two-policy randomization: at every decision epoch play policy_plus with
    probability xi, else policy_minus (the coin is i.i.d. across slots)."""

    policy_plus: TablePolicy
    policy_minus: TablePolicy
    xi: float

    def __post_init__(self):
        if not 0.0 <= self.xi <= 1.0:
            raise ValueError("xi must be in [0, 1]")


@dataclass
class PolicyEvaluation:
    gain_j: float
    mean_queue_b: float
    mean_grid_k: float
    stationary_dist: np.ndarray
    beta: float
    overflow_rate: float = 0.0       # mean packets lost to the buffer clamp per slot
    battery_spill_rate: float = 0.0  # mean energy lost to the capacity clamp per slot
    reused_lu: bool = False  # the chain's LU was the ActionSpace's last one


# ---------------------------------------------------------------------------
# state-action enumeration + expectation operator


class ActionSpace:
    """Flat enumeration of feasible state-action pairs and their expectation
    operator.

    Row layout: actions of state s occupy rows indptr[s]:indptr[s+1], ordered
    by (r, w) ascending, so the first minimizer in a segment is the
    lexicographically smallest action.

    A row keeps four values, 24 bytes: its post-decision index post_sa
    (intp, the gather index of every sweep), its rate r_sa and battery draw
    wq_sa in quanta (int32), and its grid power grid_sa (float64). Whatever
    belongs to the row's state (the queue cost, the owning state itself, the
    clamp losses) is derived from the model's state arrays and indptr where
    it is needed.

    The enumeration is vectorised: rates 0..q per state, then draws 0..cap per
    (state, rate), with cap = min(ib, draw_cap_table[ih, r]) (= ib when the
    model does not restrict draws to the required power). The next (q,
    battery) is a deterministic function of the row and the chains move
    independently of it, so post_sa is the row's next (q, battery) base plus
    its state's own (h, a, e) offset in the table of post_decision_values.
    keep(state, r, wq), if given, maps the enumerated rows' arrays to a bool
    mask of the rows to keep; the kept rows stay in the same order.
    """

    # The last bias-gain LU factorised on these actions at reference state 0,
    # whoever made it (policy iteration or evaluate_policy): (P, lu, key),
    # key the weight and the rows' post-decision indices of each policy the
    # chain plays, which fix P. One entry: a new chain replaces it.
    last_lu = None
    # sparse LUs factorised on these actions, bias-gain and discounted
    n_factorised = 0

    def __init__(self, model: Model, keep=None):
        space = model.space
        params = model.params
        self.model = model
        n = space.n_states
        na, ne, nb = space.na, space.ne, space.nb

        # exogenous chain and, per row (ih, ia, ie), its positive entries with
        # columns as state-index offsets ascending (the blocks chain() shifts)
        self.exogenous = exogenous_chain(model)
        n_ex = self.exogenous.shape[0]
        offsets = (np.arange(space.nh)[:, None, None] * space.s_h
                   + np.arange(na)[None, :, None] * space.s_a
                   + np.arange(ne)[None, None, :]).ravel()
        ex_rows, ex_cols = np.nonzero(self.exogenous > 0.0)
        self.block_cols = offsets[ex_cols]
        self.block_probs = self.exogenous[ex_rows, ex_cols]
        self.block_ptr = np.concatenate(
            ([0], np.cumsum(np.bincount(ex_rows, minlength=n_ex))))

        # (state, rate) pairs: rates 0..iq per state, each with draws 0..cap
        n_rates = space.iq + 1
        first_rate = np.cumsum(n_rates) - n_rates
        sr_state = np.repeat(np.arange(n), n_rates)
        sr_r = np.arange(sr_state.size) - np.repeat(first_rate, n_rates)
        sr_cap = space.ib[sr_state]
        if model.restrict_w_to_power:
            cap = draw_cap_table(params, space.h_values)
            sr_cap = np.minimum(sr_cap, cap[space.ih[sr_state], sr_r])
        n_draws = sr_cap + 1
        # every int32 row value (draw, rate, next battery offset) is below
        # the row count, which is at least the state count
        n_rows = int(n_draws.sum())
        if n_rows > np.iinfo(np.int32).max:
            raise InstanceTooLargeError(f"{n_rows} state-action pairs exceed int32 rows")
        # what a row shares with its (state, rate): the next queue's part of
        # the post-decision index plus the state's (h, a, e) offset, the
        # battery level before the draw and clamp, and the required power
        ih, ia, ie = space.ih[sr_state], space.ia[sr_state], space.ie[sr_state]
        next_q = np.minimum(space.iq[sr_state] - sr_r + space.arrival_pkts[ia],
                            space.nq - 1)
        sr_post = next_q * (nb * n_ex) + (ih * na + ia) * ne + ie
        sr_b = space.ib[sr_state] + space.harvest_quanta[ie]
        power = np.array([[required_power(params, float(h), r) for r in range(space.nq)]
                          for h in space.h_values])
        sr_power = power[ih, sr_r]

        # rows, in int32 and in place, each row-sized temporary dropped
        # before the next is made
        wq = np.arange(n_rows, dtype=np.int32)
        wq -= np.repeat((np.cumsum(n_draws) - n_draws).astype(np.int32), n_draws)
        r = np.repeat(sr_r.astype(np.int32), n_draws)
        next_b = np.repeat(sr_b.astype(np.int32), n_draws)
        next_b -= wq
        np.minimum(next_b, nb - 1, out=next_b)
        next_b *= n_ex
        post = np.repeat(sr_post.astype(np.intp), n_draws)
        post += next_b
        del next_b
        grid = np.repeat(sr_power, n_draws)
        w = wq.astype(np.float64)
        w *= params.delta_e / params.tau
        grid -= w
        del w
        np.maximum(grid, 0.0, out=grid)
        if keep is None:
            counts = np.add.reduceat(n_draws, first_rate)
        else:
            owner = np.repeat(sr_state, n_draws)
            kept = keep(owner, r, wq)
            post, r, wq, grid = post[kept], r[kept], wq[kept], grid[kept]
            counts = np.bincount(owner[kept], minlength=n)
            del owner, kept
        if not counts.all():
            raise ValueError(f"state {int(np.argmin(counts))} has no feasible action")

        self.indptr = np.concatenate(([0], np.cumsum(counts)))
        self.n_sa = int(self.indptr[-1])
        self.post_sa = post
        self.r_sa = r
        self.wq_sa = wq
        self.grid_sa = grid
        # bounds of the (state, r, w) key sa_of_policy packs
        self._n_r = int(r.max()) + 1
        self._n_w = int(wq.max()) + 1

    def cost(self, beta: float) -> np.ndarray:
        """Per-row slot cost q + beta * grid power."""
        queue = self.model.space.iq.astype(float)
        return np.repeat(queue, np.diff(self.indptr)) + beta * self.grid_sa

    def row_terms(self, sa: np.ndarray):
        """Queue cost, grid power, packets lost to the buffer clamp and energy
        spilled at the battery's capacity, at the rows sa (one value each)."""
        space = self.model.space
        owner = np.searchsorted(self.indptr, sa, side="right") - 1
        iq = space.iq[owner]
        raw_q = iq - self.r_sa[sa] + space.arrival_pkts[space.ia[owner]]
        raw_b = space.ib[owner] - self.wq_sa[sa] + space.harvest_quanta[space.ie[owner]]
        return (iq.astype(float), self.grid_sa[sa],
                np.maximum(raw_q - (space.nq - 1), 0).astype(float),
                np.maximum(raw_b - (space.nb - 1), 0).astype(float)
                * self.model.params.delta_e)

    def expected_next(self, values: np.ndarray) -> np.ndarray:
        """E[values(next state) | row] for every row."""
        table = post_decision_values(values, self.model.space, self.exogenous)
        return table.ravel()[self.post_sa]

    def chain(self, sa: np.ndarray) -> sp.csr_matrix:
        """Sparse one-step transition matrix of the rows sa, one row each:
        the positive entries of the exogenous chain's row for the row's (h,
        a, e), shifted to its next (q, battery) state index."""
        space = self.model.space
        n_ex = self.exogenous.shape[0]
        post = self.post_sa[sa]
        ex, qb = post % n_ex, post // n_ex
        base = (qb // space.nb) * space.s_q + (qb % space.nb) * space.s_b
        row_nnz = np.diff(self.block_ptr)[ex]
        ptr = np.concatenate(([0], np.cumsum(row_nnz)))
        gather = np.repeat(self.block_ptr[ex] - ptr[:-1], row_nnz)
        gather += np.arange(ptr[-1])
        cols = self.block_cols[gather]
        cols += np.repeat(base, row_nnz)
        # each block's columns ascend and are unique, so every row is already
        # in canonical (sorted, duplicate-free) form
        return sp.csr_matrix((self.block_probs[gather], cols, ptr),
                             shape=(post.size, space.n_states))

    def sa_of_policy(self, policy: TablePolicy) -> np.ndarray:
        """Row index of each state's stored action; raises if one is infeasible.

        Rows are sorted by (state, r, w), so one search on the combined key,
        packed for this call, finds every state's row at once.
        """
        n = self.indptr.size - 1
        n_r, n_w = self._n_r, self._n_w
        keys = np.repeat(np.arange(n, dtype=np.int64) * n_r, np.diff(self.indptr))
        keys += self.r_sa
        keys *= n_w
        keys += self.wq_sa
        r = np.asarray(policy.r)
        wq = np.asarray(policy.w_quanta)
        want = (np.arange(n) * n_r + r) * n_w + wq
        rows = np.minimum(np.searchsorted(keys, want), self.n_sa - 1)
        ok = ((r >= 0) & (r < n_r) & (wq >= 0) & (wq < n_w)
              & (keys[rows] == want))
        if not ok.all():
            s = int(np.flatnonzero(~ok)[0])
            raise ValueError(
                f"policy action (r={policy.r[s]}, wq={policy.w_quanta[s]}) "
                f"infeasible at state {s}")
        return rows

    def policy_from_sa(self, sa: np.ndarray) -> TablePolicy:
        return TablePolicy(r=self.r_sa[sa].astype(np.int64),
                           w_quanta=self.wq_sa[sa].astype(np.int64),
                           delta_e=self.model.params.delta_e, tau=self.model.params.tau)


def build_action_space(model: Model, keep=None) -> ActionSpace:
    return ActionSpace(model, keep=keep)


def exogenous_chain(model: Model) -> np.ndarray:
    """Transition matrix of the joint (channel, arrival, harvest) chain, the
    product of the three; rows and columns are (ih, ia, ie), ie fastest."""
    space = model.space
    n_ex = space.nh * space.na * space.ne
    return (model.channel.transition[:, None, None, :, None, None]
            * model.arrival.transition[None, :, None, None, :, None]
            * model.harvest.transition[None, None, :, None, None, :]
            ).reshape(n_ex, n_ex)


def post_decision_values(values: np.ndarray, space, exogenous) -> np.ndarray:
    """Expected next value of every post-decision state: entry ((q, b), (ih,
    ia, ie)) is E[values(q, h', a', b, e') | h, a, e]; values, reshaped to
    (nq*nb) x (nh*na*ne), times the exogenous chain's transpose (Powell,
    Approximate Dynamic Programming, 2nd ed., 2011, ch. 4)."""
    nq, nb = space.nq, space.nb
    V = (values.reshape(nq, space.nh * space.na, nb, space.ne)
         .transpose(0, 2, 1, 3).reshape(nq * nb, exogenous.shape[0]))
    return V @ exogenous.T


# ---------------------------------------------------------------------------
# solvers


def _segment_min(y: np.ndarray, indptr: np.ndarray) -> np.ndarray:
    return np.minimum.reduceat(y, indptr[:-1])


# Tied backup values are common, not a corner case: whenever the marginal
# value of a stored quantum equals its grid replacement price, every feasible
# draw level is exactly optimal.  Exact argmin would let residual noise pick
# an arbitrary member of the tied set, so extraction takes the smallest
# (r, w) pair within a small window of the minimum instead.  The window must
# sit above the value-table error (order epsilon) but below any price gap
# the caller cares about; solvers pass 10x their stopping epsilon.
GREEDY_TIE_TOL = 1e-8


def _greedy_sa(y: np.ndarray, mins: np.ndarray, actions: ActionSpace,
               tie_tol: float = GREEDY_TIE_TOL) -> np.ndarray:
    tol = tie_tol + 1e-12 * np.abs(mins)
    n = actions.indptr.size - 1
    hits = np.flatnonzero(y <= np.repeat(mins + tol, np.diff(actions.indptr)))
    # hits ascend, so each state's first hit is its smallest
    owner = np.searchsorted(actions.indptr, hits, side="right") - 1
    first = np.ones(hits.size, dtype=bool)
    first[1:] = owner[1:] != owner[:-1]
    best = np.full(n, actions.n_sa, dtype=np.int64)
    best[owner[first]] = hits[first]
    return best


# a solve's trace keeps its last TRACE_ROWS sweeps; n_iters counts them all
TRACE_ROWS = 10_000


@dataclass
class SolveResult:
    gain: float
    values: ValueTable
    policy: TablePolicy
    n_iters: int
    residual: float
    gain_bounds: tuple[float, float] | None = None
    trace: list = field(default_factory=list)
    actions: ActionSpace | None = None  # the action space the policy indexes
    n_evaluations: int = 0  # policies evaluated by policy iteration


def _howard_bias(actions: ActionSpace, c: np.ndarray, ref: int,
                 sa: np.ndarray, max_iters: int) -> tuple[np.ndarray, int]:
    """Average-cost Howard policy iteration from the policy with rows sa.

    Evaluates each policy by one bias-gain LU of its chain actions.chain(sa)
    and improves on y = c + E[h(next)]. A state keeps its incumbent row
    wherever that row is within rounding of the segment minimum (the
    anti-cycling rule of Puterman 1994, sec. 8.6); elsewhere it takes the
    smallest minimizing row.
    Stops when the rows repeat, after max_iters evaluations, or at the first
    multichain policy, which has no single gain. Returns the bias of the
    last unichain policy evaluated (zeros if none) and the number of
    evaluations. At reference state 0 each step takes its LU from
    actions.last_lu when that is the same chain's (a warm start's first
    step) and leaves the LU it factorises there, where the next solve and
    evaluate_policy find it.
    """
    h = np.zeros(actions.indptr.size - 1)
    n_eval = 0
    for _ in range(max_iters):
        _, lu, _ = _chain_lu(actions, [(1.0, sa)], ref)
        if lu is None:
            break
        x = lu.solve(c[sa])
        h = x - x[ref]
        n_eval += 1
        y = actions.expected_next(h)
        y += c
        mins = _segment_min(y, actions.indptr)
        keep = y[sa] <= mins + 1e-12 * max(1.0, float(np.abs(mins).max()))
        better = np.where(keep, sa, _greedy_sa(y, mins, actions, tie_tol=0.0))
        if np.array_equal(better, sa):
            break
        sa = better
    return h, n_eval


def relative_value_iteration(cfg: SolverConfig, model: Model,
                             actions: ActionSpace | None = None,
                             start: TablePolicy | None = None) -> SolveResult:
    """Long-run average-cost solve; returns gain, bias values and greedy policy.

    Howard policy iteration (from the greedy rows of the one-step costs, or
    from the table policy start) runs until its rows repeat, for at most
    cfg.max_iters evaluations; value iteration on the damped operator
    (1-kappa) V + kappa T V then starts from that policy's bias, divided by
    kappa since that is the lazy chain's bias, and sweeps with span-seminorm
    stopping: the span of T V - V brackets the optimal gain, and normalizing
    at the reference state each sweep keeps the iterates bounded. Where
    policy iteration reaches the optimum, one sweep meets the rule. If it
    meets a multichain policy it stops there, and the sweeps start from the
    last unichain bias (or from 0). n_iters counts the sweeps and trace
    keeps the last TRACE_ROWS of them; n_evaluations counts the policies
    evaluated.

    Raises MultichainError before the first evaluation when an exogenous
    chain has more than one recurrent class: no policy can move the chain
    between them, so every policy is multichain and the long-run average
    cost depends on the start state.
    """
    for name in ("channel", "arrival", "harvest"):
        chain = getattr(model, name)
        if chain.transition.all():  # a positive matrix is irreducible
            continue
        _, n_classes = recurrent_classes(sp.csr_matrix(chain.transition))
        if n_classes > 1:
            raise MultichainError(
                f"{name} chain has {n_classes} recurrent classes, so every "
                f"policy is multichain")
    if actions is None:
        actions = build_action_space(model)
    n = model.space.n_states
    ref = cfg.reference_state
    if not 0 <= ref < n:
        raise ValueError(f"reference_state {ref} out of range")
    kappa = cfg.kappa
    c = actions.cost(cfg.beta)
    counts = np.diff(actions.indptr)

    def damped_backup(v):
        # c + kappa E[v(next)] + (1 - kappa) v, row by row, in place
        y = actions.expected_next(v)
        y *= kappa
        y += c
        t = np.repeat(v, counts)
        t *= 1.0 - kappa
        y += t
        return y

    if start is None:
        sa = _greedy_sa(c, _segment_min(c, actions.indptr), actions, tie_tol=0.0)
    else:
        sa = actions.sa_of_policy(start)
    h, n_eval = _howard_bias(actions, c, ref, sa, cfg.max_iters)

    v = h / kappa
    trace = deque(maxlen=TRACE_ROWS)
    span = np.inf
    for it in range(1, cfg.max_iters + 1):
        y = damped_backup(v)
        mins = _segment_min(y, actions.indptr)
        d = mins - v
        lo, hi = float(d.min()), float(d.max())
        span = hi - lo
        trace.append((it, span, lo, hi))
        v = mins - mins[ref]
        if span < cfg.epsilon:
            break
    else:
        raise NonConvergenceError(
            f"relative VI did not reach span {cfg.epsilon} in {cfg.max_iters} "
            f"iterations (final span {span:.3e})", residual=span)

    y = damped_backup(v)
    mins = _segment_min(y, actions.indptr)
    sa = _greedy_sa(y, mins, actions, tie_tol=10.0 * cfg.epsilon)
    d = mins - v
    lo, hi = float(d.min()), float(d.max())
    gain = 0.5 * (lo + hi)
    # v solves the optimality equation of the lazy kernel (1-kappa)I + kappa*P,
    # whose gain and greedy sets match the original chain's; its bias is the
    # original bias divided by kappa, so rescale before reporting
    bias = ValueTable(values=kappa * (v - v[ref]), kind="relative-bias",
                      beta=cfg.beta, reference_state=ref)
    return SolveResult(gain=float(gain), values=bias,
                       policy=actions.policy_from_sa(sa), n_iters=it,
                       residual=span, gain_bounds=(lo, hi), trace=list(trace),
                       actions=actions, n_evaluations=n_eval)


def discounted_backup(actions: ActionSpace, values: np.ndarray, beta: float,
                      alpha: float,
                      tie_tol: float = GREEDY_TIE_TOL) -> tuple[np.ndarray, np.ndarray]:
    """One discounted Bellman sweep; returns (new values, greedy sa rows)."""
    y = actions.expected_next(values)
    y *= alpha
    y += actions.cost(beta)
    mins = _segment_min(y, actions.indptr)
    return mins, _greedy_sa(y, mins, actions, tie_tol=tie_tol)


def _howard_values(actions: ActionSpace, beta: float, alpha: float,
                   max_iters: int) -> tuple[np.ndarray, int]:
    """Values of the policy Howard policy iteration ends on, and the number
    of policies it evaluated.

    Starts from the greedy policy of V=0, evaluates each policy exactly by
    one sparse LU of (I - alpha P_pi) v = c_pi and improves greedily until
    the greedy rows repeat, for at most max_iters evaluations.
    """
    n = actions.indptr.size - 1
    c = actions.cost(beta)
    _, sa = discounted_backup(actions, np.zeros(n), beta, alpha, tie_tol=0.0)
    for n_eval in range(1, max_iters + 1):
        v = splu(_identity_minus(actions.chain(sa), alpha)).solve(c[sa])
        actions.n_factorised += 1
        _, greedy = discounted_backup(actions, v, beta, alpha, tie_tol=0.0)
        if np.array_equal(greedy, sa):
            break
        sa = greedy
    return v, n_eval


def discounted_value_iteration(cfg: SolverConfig, model: Model,
                               actions: ActionSpace | None = None) -> SolveResult:
    """Discounted solve with the standard contraction stopping rule: sweep
    until the sup-norm residual is below epsilon*(1-alpha)/(2*alpha), which
    puts the values within epsilon of the optimum.

    The sweeps start from the exact values of the policy Howard policy
    iteration converges to (Puterman 1994, sec. 6.4) rather than from V=0,
    so they only mop up its rounding error: a handful of sweeps where a cold
    start needs tens of thousands at alpha=0.999. The start changes neither
    the stopping rule nor its guarantee; n_iters counts the sweeps and trace
    keeps the last TRACE_ROWS of them.
    """
    if cfg.alpha is None:
        raise ValueError("discounted mode requires alpha")
    if actions is None:
        actions = build_action_space(model)
    alpha = cfg.alpha
    threshold = cfg.epsilon * (1.0 - alpha) / (2.0 * alpha)

    v, n_eval = _howard_values(actions, cfg.beta, alpha, cfg.max_iters)
    resid = np.inf
    trace = deque(maxlen=TRACE_ROWS)
    for it in range(1, cfg.max_iters + 1):
        mins, _ = discounted_backup(actions, v, cfg.beta, alpha)
        resid = float(np.max(np.abs(mins - v)))
        trace.append((it, resid))
        v = mins
        if resid < threshold:
            break
    else:
        raise NonConvergenceError(
            f"discounted VI did not reach residual {threshold:.3e} in "
            f"{cfg.max_iters} iterations (final {resid:.3e})", residual=resid)

    _, sa = discounted_backup(actions, v, cfg.beta, alpha,
                              tie_tol=10.0 * cfg.epsilon)
    table = ValueTable(values=v, kind="discounted", beta=cfg.beta, alpha=alpha)
    return SolveResult(gain=float("nan"), values=table,
                       policy=actions.policy_from_sa(sa), n_iters=it,
                       residual=resid, trace=list(trace), actions=actions,
                       n_evaluations=n_eval)


# ---------------------------------------------------------------------------
# exact policy evaluation


def policy_chain(policy, actions: ActionSpace):
    """Chain a fixed stationary policy induces: its sparse matrix P, and a map
    from a per-(state, action) array to the policy's per-state array.

    Mixed policies marginalize the per-epoch coin into the chain and costs
    (xi*P+ + (1-xi)*P-), which equals the product chain of (state, coin)
    exactly since the coin is i.i.d.
    """
    terms = _policy_terms(policy, actions)

    def per_state(per_sa):
        return sum(w * per_sa[sa] for w, sa in terms)

    return _terms_chain(terms, actions), per_state


# The rows of a chain sum to one only within the spacing of floats at 1, so a
# mixture weight at or below it is lost in their rounding: where the other
# policy's chain is multichain, such a weight alone would join its classes,
# and the stationary law would be rounding noise.
MIX_WEIGHT_ROUNDING = float(np.finfo(float).eps)


def _policy_terms(policy, actions: ActionSpace) -> list:
    """(weight, rows) of each table policy a stationary policy plays. A
    mixture plays only its other policy where one weight is at or below
    MIX_WEIGHT_ROUNDING (both policies are still checked for feasibility)."""
    if not isinstance(policy, MixedPolicy):
        return [(1.0, actions.sa_of_policy(policy))]
    plus = actions.sa_of_policy(policy.policy_plus)
    minus = actions.sa_of_policy(policy.policy_minus)
    xi = policy.xi
    if 1.0 - xi <= MIX_WEIGHT_ROUNDING:
        return [(1.0, plus)]
    if xi <= MIX_WEIGHT_ROUNDING:
        return [(1.0, minus)]
    return [(xi, plus), (1.0 - xi, minus)]


def _terms_chain(terms, actions: ActionSpace) -> sp.csr_matrix:
    if len(terms) == 1:  # weight 1: the chain of the rows itself
        return actions.chain(terms[0][1])
    P = sum(w * actions.chain(sa) for w, sa in terms).tocsr()
    P.eliminate_zeros()
    return P


def _chain_lu(actions: ActionSpace, terms, ref: int = 0):
    """(P, lu, reused): the chain the (weight, rows) terms play, its
    bias-gain LU at reference state ref, and whether that LU was
    actions.last_lu. At ref 0 a chain whose key matches the stored one is
    neither built nor checked again; any other is built, checked and, when
    unichain, factorised (counted in actions.n_factorised) and stored in
    place of the last. lu is None when P is not unichain.
    """
    key = tuple((w, actions.post_sa[sa].tobytes()) for w, sa in terms)
    memo = actions.last_lu
    if ref == 0 and memo is not None and memo[2] == key:
        return memo[0], memo[1], True
    P = _terms_chain(terms, actions)
    if recurrent_classes(P)[1] != 1:
        return P, None, False
    lu = _bias_gain_lu(P, ref)
    actions.n_factorised += 1
    if ref == 0:
        actions.last_lu = (P, lu, key)
    return P, lu, False


def recurrent_classes(P: sp.csr_matrix) -> tuple[np.ndarray, int]:
    """Mask of the states in recurrent classes of P, and the number of them.

    A recurrent class is a strongly connected component with no edge leaving
    it. P must be CSR and hold no explicit zeros: every stored entry counts
    as an edge, read from its indptr and indices.
    """
    n_comp, labels = connected_components(P, directed=True, connection="strong")
    src = np.repeat(labels, np.diff(P.indptr))
    dst = labels[P.indices]
    crossing = src != dst
    closed = np.ones(n_comp, dtype=bool)
    closed[src[crossing]] = False
    return closed[labels], int(np.count_nonzero(closed))


def _identity_minus(P: sp.csr_matrix, scale: float = 1.0,
                    ref: int | None = None) -> sp.csc_matrix:
    """I - scale * P, plus 1 e_ref^T when ref is given, in CSC, built from
    the canonical CSR arrays of P (sorted, duplicate-free, no explicit
    zeros) without sparse arithmetic.

    Its entries are those of scipy's (I - scale * P (+ ones)).tocsc(), bit
    for bit: -(scale*p), then + 1 on the diagonal (1 - scale*p, the same
    double), then + 1 in column ref; the zeros scipy drops (1 - p_ii of an
    absorbing row, -p + 1 where p is 1) are dropped; and each column's rows
    ascend. SuperLU therefore factorises the same matrix.
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
    # the constructor narrows the indices to scipy's dtype, int32 where they fit
    return sp.csc_matrix((vals[order], rows[order], indptr), shape=(n, n))


def _bias_gain_lu(P: sp.csr_matrix, ref: int):
    """Sparse LU of A = I - P + 1 e_ref^T, nonsingular exactly when P is
    unichain.

    lu.solve(c) gives x with gain g = x[ref] and bias h = x - x[ref]
    (h[ref] = 0, g + h = c + P h), since (I - P) 1 = 0; the transpose solve
    lu.solve(e_ref, trans="T") gives the stationary law pi, since
    pi A = e_ref^T.
    """
    try:
        return splu(_identity_minus(P, ref=ref))
    except RuntimeError as exc:  # SuperLU's "Factor is exactly singular"
        raise MultichainError(f"bias-gain matrix is singular ({exc}): P is "
                              f"multichain in floating point") from exc


def stationary_distribution(P: sp.csr_matrix, lu=None) -> np.ndarray:
    """Stationary law of a unichain P from the transpose solve of its
    bias-gain LU at reference state 0: lu when given (evaluate_policy passes
    the one _chain_lu found or made), else _bias_gain_lu(P, 0). Either way
    the residual |pi P - pi| is checked against P."""
    n = P.shape[0]
    e = np.zeros(n)
    e[0] = 1.0
    if lu is None:
        lu = _bias_gain_lu(P, 0)
    pi = lu.solve(e, trans="T")
    pi = np.where(pi < 0, 0.0, pi)
    pi = pi / pi.sum()
    resid = np.max(np.abs(pi @ P - pi))
    if resid > 1e-10:
        raise NonConvergenceError(f"stationary solve residual {resid:.3e}",
                                  residual=resid)
    return pi


def evaluate_policy(policy, beta: float, model: Model,
                    actions: ActionSpace | None = None) -> PolicyEvaluation:
    """Exact long-run averages (J, B, K) of a TablePolicy or a MixedPolicy;
    raises MultichainError unless its chain is unichain.

    The per-slot quantities (queue, grid power, overflow, spill) are worked
    out at the policy's own rows only, n values per mixture term
    (ActionSpace.row_terms). The LU comes from actions.last_lu when that is
    the same chain's, whoever factorised it (policy iteration's last step,
    an earlier evaluation, a mixture iterate): the same P gives the same
    matrix A and so the same stationary law, bit for bit, and P was checked
    unichain when it was stored. Otherwise P is built, checked, factorised
    and stored there in its place.
    """
    if not isinstance(policy, (TablePolicy, MixedPolicy)):
        raise TypeError(
            f"evaluate_policy takes a TablePolicy or a MixedPolicy, not "
            f"{type(policy).__name__}; TablePolicy.from_callable turns a "
            f"per-state function into a TablePolicy")
    if actions is None:
        actions = build_action_space(model)
    terms = _policy_terms(policy, actions)
    P, lu, reused = _chain_lu(actions, terms)
    if lu is None:
        raise MultichainError(
            f"induced chain has {recurrent_classes(P)[1]} recurrent classes")
    pi = stationary_distribution(P, lu)

    at_rows = [actions.row_terms(sa) for _, sa in terms]
    b, k, overflow, spill = (
        float(pi @ sum(w * x[i] for (w, _), x in zip(terms, at_rows)))
        for i in range(4))
    return PolicyEvaluation(gain_j=b + beta * k, mean_queue_b=b, mean_grid_k=k,
                            stationary_dist=pi, beta=beta, overflow_rate=overflow,
                            battery_spill_rate=spill, reused_lu=reused)


# ---------------------------------------------------------------------------
# brute-force oracle


@dataclass
class OracleResult:
    gain: float
    policy: TablePolicy
    evaluation: PolicyEvaluation
    n_policies: int
    n_multichain_skipped: int


def brute_force_solve(beta: float, model: Model, cap: int = 10_000_000,
                      actions: ActionSpace | None = None) -> OracleResult:
    """Enumerate every stationary deterministic policy and keep the best.

    Iteration order is lexicographic in the per-state action index, and only a
    strictly better gain displaces the incumbent, so ties resolve to the
    lexicographically smallest policy — the same tie-break the solvers use.
    """
    if actions is None:
        actions = build_action_space(model)
    n = model.space.n_states
    counts = np.diff(actions.indptr)
    total = 1
    for m in counts:
        total *= int(m)
        if total > cap:
            raise InstanceTooLargeError(
                f"policy count exceeds cap {cap}")

    cost = actions.cost(beta)
    eye = np.eye(n)
    rhs = np.zeros(n)
    rhs[-1] = 1.0
    best_gain = np.inf
    best_sa = None
    skipped = 0
    n_eval = 0
    base = actions.indptr[:-1]
    for combo in itertools.product(*[range(int(m)) for m in counts]):
        sa = base + np.asarray(combo)
        P = actions.chain(sa)
        if recurrent_classes(P)[1] != 1:
            skipped += 1
            continue
        A = P.toarray().T - eye
        A[-1, :] = 1.0
        piv = np.linalg.solve(A, rhs)
        n_eval += 1
        g = float(piv @ cost[sa])
        if g < best_gain:
            best_gain = g
            best_sa = sa.copy()
    if best_sa is None:
        raise MultichainError("every enumerated policy was multichain")
    policy = actions.policy_from_sa(best_sa)
    ev = evaluate_policy(policy, beta, model, actions=actions)
    return OracleResult(gain=ev.gain_j, policy=policy, evaluation=ev,
                        n_policies=n_eval, n_multichain_skipped=skipped)
