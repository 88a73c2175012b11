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
    reused_lu: bool = False  # the chain's LU came from policy iteration


# ---------------------------------------------------------------------------
# state-action enumeration + expectation operator


class ActionSpace:
    """Flat enumeration of feasible state-action pairs and their expectation
    operator.

    Row layout: actions of state s occupy rows indptr[s]:indptr[s+1], ordered
    by (r, w) ascending, so the first minimizer in a segment is the
    lexicographically smallest action.

    The enumeration is vectorised: rates 0..q per state, then draws 0..cap per
    (state, rate), with cap = min(ib, draw_cap_table[ih, r]) (= ib when the
    model does not restrict draws to the required power). The next (q,
    battery) is a deterministic function of the row and the chains move
    independently of it, so a row stores one post-decision index, post_sa:
    its next (q, battery) base plus its state's own (h, a, e) offset in the
    table of post_decision_values. keep(state, r, wq), if given, maps the
    enumerated rows' arrays to a bool mask of the rows to keep; the kept
    rows stay in the same order.
    """

    # (P, LU) of the last chain policy iteration factorised at reference state
    # 0; evaluate_policy reuses it for the same chain
    last_lu = None

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

        # rows: rates 0..iq per state, then draws 0..cap per (state, rate)
        n_rates = space.iq + 1
        sr_state = np.repeat(np.arange(n), n_rates)
        sr_r = np.arange(sr_state.size) - np.repeat(np.cumsum(n_rates) - n_rates,
                                                    n_rates)
        sr_cap = space.ib[sr_state]
        if model.restrict_w_to_power:
            cap = draw_cap_table(params, space.h_values)
            sr_cap = np.minimum(sr_cap, cap[space.ih[sr_state], sr_r])
        n_draws = sr_cap + 1
        sr_of_row = np.repeat(np.arange(sr_state.size), n_draws)
        wq = np.arange(sr_of_row.size) - np.repeat(np.cumsum(n_draws) - n_draws,
                                                   n_draws)
        owner = sr_state[sr_of_row]
        r = sr_r[sr_of_row]
        if keep is not None:
            kept = keep(owner, r, wq)
            owner, r, wq = owner[kept], r[kept], wq[kept]
        counts = np.bincount(owner, minlength=n)
        if not counts.all():
            raise ValueError(f"state {int(np.argmin(counts))} has no feasible action")

        self.indptr = np.concatenate(([0], np.cumsum(counts)))
        self.n_sa = int(self.indptr[-1])
        self.state_of_sa = owner
        self.r_sa = r
        self.wq_sa = wq
        # (state, r, w) packed into one ascending key per row, for sa_of_policy
        self._n_r = int(self.r_sa.max()) + 1
        self._n_w = int(self.wq_sa.max()) + 1
        self._keys = (self.state_of_sa * self._n_r + self.r_sa) * self._n_w + self.wq_sa

        iq, ib = space.iq[owner], space.ib[owner]
        raw_q = iq - r + space.arrival_pkts[space.ia[owner]]
        raw_b = ib - wq + space.harvest_quanta[space.ie[owner]]
        self.post_sa = ((np.minimum(raw_q, space.nq - 1) * nb
                         + np.minimum(raw_b, nb - 1)) * n_ex
                        + (space.ih[owner] * na + space.ia[owner]) * ne
                        + space.ie[owner])

        w = self.wq_sa * (params.delta_e / params.tau)
        power = np.array([[required_power(params, float(h), r) for r in range(space.nq)]
                          for h in space.h_values])
        p_req = power[space.ih[owner], self.r_sa]
        self.grid_sa = np.maximum(p_req - w, 0.0)
        self.queue_sa = iq.astype(float)
        # per-slot clamp losses, used for evaluation diagnostics
        self.overflow_sa = np.maximum(raw_q - (space.nq - 1), 0).astype(float)
        self.spill_sa = np.maximum(raw_b - (nb - 1), 0).astype(float) * params.delta_e

    def cost(self, beta: float) -> np.ndarray:
        return self.queue_sa + beta * self.grid_sa

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

        Rows are sorted by (state, r, w), so one search on the combined key
        finds every state's row at once.
        """
        n = self.indptr.size - 1
        n_r, n_w = self._n_r, self._n_w
        r = np.asarray(policy.r)
        wq = np.asarray(policy.w_quanta)
        want = (np.arange(n) * n_r + r) * n_w + wq
        rows = np.minimum(np.searchsorted(self._keys, want), self.n_sa - 1)
        ok = ((r >= 0) & (r < n_r) & (wq >= 0) & (wq < n_w)
              & (self._keys[rows] == want))
        if not ok.all():
            s = int(np.flatnonzero(~ok)[0])
            raise ValueError(
                f"policy action (r={policy.r[s]}, wq={policy.w_quanta[s]}) "
                f"infeasible at state {s}")
        return rows

    def policy_from_sa(self, sa: np.ndarray) -> TablePolicy:
        return TablePolicy(r=self.r_sa[sa].copy(), w_quanta=self.wq_sa[sa].copy(),
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
    mask = y <= np.repeat(mins + tol, np.diff(actions.indptr))
    best = np.full(n, actions.n_sa, dtype=np.int64)
    hits = np.flatnonzero(mask)
    np.minimum.at(best, actions.state_of_sa[hits], hits)
    return best


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
    evaluations. At reference state 0 the last LU is left in
    actions.last_lu, where evaluate_policy finds it for the same chain.
    """
    h = np.zeros(actions.indptr.size - 1)
    n_eval = 0
    for _ in range(max_iters):
        P = actions.chain(sa)
        if recurrent_classes(P)[1] != 1:
            break
        lu = _bias_gain_lu(P, ref)
        if ref == 0:
            actions.last_lu = (P, lu)
        x = lu.solve(c[sa])
        h = x - x[ref]
        n_eval += 1
        y = c + actions.expected_next(h)
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
    last unichain bias (or from 0). n_iters and trace count the sweeps,
    n_evaluations the policies evaluated.

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
    owner = actions.state_of_sa

    if start is None:
        sa = _greedy_sa(c, _segment_min(c, actions.indptr), actions, tie_tol=0.0)
    else:
        sa = actions.sa_of_policy(start)
    h, n_eval = _howard_bias(actions, c, ref, sa, cfg.max_iters)

    v = h / kappa
    trace = []
    span = np.inf
    for it in range(1, cfg.max_iters + 1):
        y = c + kappa * actions.expected_next(v) + (1.0 - kappa) * v[owner]
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

    y = c + kappa * actions.expected_next(v) + (1.0 - kappa) * v[owner]
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
                       residual=span, gain_bounds=(lo, hi), trace=trace,
                       actions=actions, n_evaluations=n_eval)


def discounted_backup(actions: ActionSpace, values: np.ndarray, beta: float,
                      alpha: float,
                      tie_tol: float = GREEDY_TIE_TOL) -> tuple[np.ndarray, np.ndarray]:
    """One discounted Bellman sweep; returns (new values, greedy sa rows)."""
    y = actions.cost(beta) + alpha * actions.expected_next(values)
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
    eye = sp.identity(n, format="csc")
    _, sa = discounted_backup(actions, np.zeros(n), beta, alpha, tie_tol=0.0)
    for n_eval in range(1, max_iters + 1):
        v = splu((eye - alpha * actions.chain(sa)).tocsc()).solve(c[sa])
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
    the stopping rule nor its guarantee; n_iters and trace count the sweeps.
    """
    if cfg.alpha is None:
        raise ValueError("discounted mode requires alpha")
    if actions is None:
        actions = build_action_space(model)
    alpha = cfg.alpha
    threshold = cfg.epsilon * (1.0 - alpha) / (2.0 * alpha)

    v, n_eval = _howard_values(actions, cfg.beta, alpha, cfg.max_iters)
    resid = np.inf
    trace = []
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
                       residual=resid, trace=trace, actions=actions,
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
    if isinstance(policy, MixedPolicy):
        terms = [(policy.xi, actions.sa_of_policy(policy.policy_plus)),
                 (1.0 - policy.xi, actions.sa_of_policy(policy.policy_minus))]
    else:
        terms = [(1.0, actions.sa_of_policy(policy))]

    def per_state(per_sa):
        return sum(w * per_sa[sa] for w, sa in terms)

    P = sum(w * actions.chain(sa) for w, sa in terms).tocsr()
    P.eliminate_zeros()
    return P, per_state


def recurrent_classes(P: sp.csr_matrix) -> tuple[np.ndarray, int]:
    """Mask of the states in recurrent classes of P, and the number of them.

    A recurrent class is a strongly connected component with no edge leaving
    it. P must hold no explicit zeros: every stored entry counts as an edge.
    """
    n_comp, labels = connected_components(P, directed=True, connection="strong")
    rows, cols = P.nonzero()
    closed = np.ones(n_comp, dtype=bool)
    crossing = labels[rows] != labels[cols]
    closed[labels[rows[crossing]]] = False
    return closed[labels], int(np.count_nonzero(closed))


def _bias_gain_lu(P: sp.csr_matrix, ref: int):
    """Sparse LU of A = I - P + 1 e_ref^T, nonsingular exactly when P is
    unichain.

    lu.solve(c) gives x with gain g = x[ref] and bias h = x - x[ref]
    (h[ref] = 0, g + h = c + P h), since (I - P) 1 = 0; the transpose solve
    lu.solve(e_ref, trans="T") gives the stationary law pi, since
    pi A = e_ref^T.
    """
    n = P.shape[0]
    ones_col = sp.csr_matrix((np.ones(n), (np.arange(n), np.full(n, ref))),
                             shape=(n, n))
    return splu((sp.identity(n, format="csr") - P + ones_col).tocsc())


def stationary_distribution(P: sp.csr_matrix, lu=None) -> np.ndarray:
    """Stationary law of a unichain P from the transpose solve of its
    bias-gain LU at reference state 0 (_bias_gain_lu(P, 0), factorised here
    unless given)."""
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
    """Exact long-run averages (J, B, K) of a stationary (or two-policy
    mixed) policy; raises MultichainError unless its chain is unichain.

    When the policy's chain is the one policy iteration last factorised on
    these actions (actions.last_lu), its LU is reused: the same P gives the
    same matrix A and so the same stationary law, bit for bit, and policy
    iteration has already checked that P is unichain.
    """
    if actions is None:
        actions = build_action_space(model)
    if callable(policy) and not isinstance(policy, (TablePolicy, MixedPolicy)):
        policy = TablePolicy.from_callable(policy, model)

    P, per_state = policy_chain(policy, actions)
    lu = None
    if actions.last_lu is not None and _same_csr(actions.last_lu[0], P):
        lu = actions.last_lu[1]
    else:
        _, n_recurrent = recurrent_classes(P)
        if n_recurrent != 1:
            raise MultichainError(f"induced chain has {n_recurrent} recurrent classes")
    pi = stationary_distribution(P, lu)

    def average(per_sa):
        return float(pi @ per_state(per_sa))

    b = average(actions.queue_sa)
    k = average(actions.grid_sa)
    return PolicyEvaluation(gain_j=b + beta * k, mean_queue_b=b, mean_grid_k=k,
                            stationary_dist=pi, beta=beta,
                            overflow_rate=average(actions.overflow_sa),
                            battery_spill_rate=average(actions.spill_sa),
                            reused_lu=lu is not None)


def _same_csr(a: sp.csr_matrix, b: sp.csr_matrix) -> bool:
    return (a.shape == b.shape and a.nnz == b.nnz
            and np.array_equal(a.indptr, b.indptr)
            and np.array_equal(a.indices, b.indices)
            and np.array_equal(a.data, b.data))


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

    cost = actions.queue_sa + beta * actions.grid_sa
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
