"""Average-cost and discounted MDP machinery over the link model.

The decision problem: per slot, pay q + beta * grid_power. A policy is two
integer tables over the states, the rate r and the battery draw wq in quanta,
in the solvers as in the evaluator and the simulator, and each of them reads
a table through TablePolicy.actions_on, which raises PolicyDomainError unless
it fits the model. The solvers hold each state's actions as (state, rate)
pairs with a window of draws (draw_window), and one backup walks the draw
offsets over all pairs at once: every expectation E[V(next) | s, a] is one
contraction of V with the exogenous chain, gathered at the action's
post-decision index (Powell, Approximate Dynamic Programming, 2nd ed., 2011,
ch. 4).

Policies are evaluated exactly on the lumped post-decision chain. A policy's
chain over the n states factors as P = S R: S sends each state to its
action's post-decision state, and R is the expectation operator. Post-decision
states whose exogenous rows are identical have identical rows of R and lump
exactly (Kemeny & Snell, Finite Markov Chains, 1960, ch. 6), so every LU is
taken of Q = R S over the n_lumped = nq * nb * (distinct exogenous rows)
lumped post-decision states (q', b', class): a quarter of the states on desk,
whose i.i.d. arrival and harvest leave one class per channel level, and all
of them where no two rows coincide. Q keeps P's nonzero spectrum, so its
recurrent classes are as many, and the bias, the discounted values and the
stationary law follow from Q's solves by one gather or one small product.
Both solves are the same Howard policy iteration, which differs between them
only in how it evaluates a policy (one bias-gain LU of Q, or one LU of I -
alpha Q), and take their result from its last backup. It evaluates and
improves a multichain policy by the multichain rules (Puterman, Markov
Decision Processes, 1994, sec. 9.2), so it ends on any chain structure.
evaluate_policy computes exact stationary averages for any fixed (or
two-policy mixed) stationary unichain policy from the same bias-gain LU.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .model import GRID_EPS, Action, ConfigError, Model, PolicyDomainError

# scipy's sparse stack takes most of a fresh interpreter's start-up, and only
# the exact solvers use it: the functions that build a sparse matrix or
# factorise import it on first use, so loading a model, simulating and
# sweeping never load it.
if TYPE_CHECKING:
    import scipy.sparse as sp


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
    """Knobs for the solvers; max_iters bounds both solves' evaluations."""

    beta: float
    epsilon: float = 1e-9
    max_iters: int = 1_000_000
    reference_state: int = 0
    alpha: float | None = None

    def __post_init__(self):
        if self.beta < 0:
            raise ConfigError("beta must be >= 0")
        if self.epsilon <= 0:
            raise ConfigError("epsilon must be positive")
        if self.alpha is not None and not 0.0 < self.alpha < 1.0:
            raise ConfigError("alpha must be in (0, 1)")
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
        """The table of fn(state) -> Action; a rate off the integers or a draw
        off the energy grid raises PolicyDomainError naming the state."""
        space = model.space
        n = space.n_states
        r = np.zeros(n, dtype=np.int64)
        wq = np.zeros(n, dtype=np.int64)
        de, tau = model.params.delta_e, model.params.tau
        for i in range(n):
            act = fn(x := space.state_of(i))
            r[i], wq[i] = act.r, round(act.w * tau / de)
            if r[i] != act.r or abs(wq[i] * de / tau - act.w) > GRID_EPS:
                raise PolicyDomainError(f"action {act} is off the integer rates "
                                        f"or the energy grid at state {i}", state=x)
        return cls(r=r, w_quanta=wq, delta_e=de, tau=tau)

    def actions_on(self, model: Model, greedy: bool = False) -> tuple[np.ndarray, np.ndarray]:
        """The table's (r, wq) as int64 arrays, refused with PolicyDomainError
        unless they fit the model: an integer per state each, the model's
        energy grid and slot length, and at every state a rate in 0..q and a
        draw in its draw_window (greedy as in a greedy_draw ActionSpace). An infeasible
        action's error names the first such state and carries it."""
        space = model.space
        r, wq = np.asarray(self.r), np.asarray(self.w_quanta)
        if any(x.shape != (space.n_states,) or x.dtype.kind not in "iu" for x in (r, wq)):
            raise PolicyDomainError(
                f"policy table holds {r.shape} {r.dtype} rates and {wq.shape} "
                f"{wq.dtype} draws, model has {space.n_states} states")
        if abs(self.delta_e - model.params.delta_e) > GRID_EPS:
            raise PolicyDomainError("policy and model disagree on the energy grid")
        if abs(self.tau - model.params.tau) > GRID_EPS:
            raise PolicyDomainError("policy and model disagree on the slot length")
        r, wq = r.astype(np.int64, copy=False), wq.astype(np.int64, copy=False)
        ok = (r >= 0) & (r <= space.iq)
        lo, cap = draw_window(model, np.where(ok, r, 0), greedy=greedy)
        ok &= (wq >= lo) & (wq <= cap)
        if not ok.all():
            s = int(np.flatnonzero(~ok)[0])
            raise PolicyDomainError(f"policy action (r={r[s]}, wq={wq[s]}) "
                                    f"infeasible at state {s}",
                                    state=space.state_of(s))
        return r, wq

    def __eq__(self, other):
        if not isinstance(other, TablePolicy):
            return NotImplemented
        return (np.array_equal(self.r, other.r)
                and np.array_equal(self.w_quanta, other.w_quanta)
                and (self.delta_e, self.tau) == (other.delta_e, other.tau))


def draw_window(model: Model, r, at=slice(None), greedy: bool = False):
    """(lo, cap): the draws, in quanta, of rate r at the states at (default
    all): the greedy draw min(ib, model.cap_table[ih, r]) alone with greedy,
    else 0 to it, or to ib where the model does not cap draws by the power."""
    space = model.space
    top = np.minimum(space.ib[at], model.cap_table[space.ih[at], r])
    if greedy:
        return top, top
    if not model.restrict_w_to_power:
        top = space.ib[at]
    return np.zeros_like(top), top


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
# (state, rate) pairs with draw windows + the backup over them

# Bytes per (state, rate) pair: first draw (int32), post-decision index at it
# and at the battery's top, walk position (intp), power and queue (float64).
# Pair arrays over MAX_PAIR_BYTES raise InstanceTooLargeError before any is
# made; extraction walks EXTRACT_BLOCK draws at a time.
PAIR_BYTES = 4 + 3 * np.dtype(np.intp).itemsize + 2 * 8
MAX_PAIR_BYTES = 2 ** 31
EXTRACT_BLOCK = 2 ** 16


class ActionSpace:
    """Every state's feasible actions as (state, rate) pairs with draw
    windows, and the Bellman backup over them. A state offers the rates
    0..q, and the pair (s, r) the draws lo..cap of draw_window (with
    greedy_draw, the rate-only reduced solve, the greedy draw alone). Along a
    window the post-decision index steps
    down the battery axis (clamped at the top) and the grid power is
    max(p_req[h, r] - w * delta_e / tau, 0). Pairs are sorted by window
    length, longest first, so the pairs offering draw offset k = w - lo are
    the first n_offering[k], and backup walks k = 0..max window, one array
    expression on that prefix each. n_sa counts the actions. A policy is
    its (r, wq) tables, sa below (two rows): post_index, grid and terms
    work out its actions' quantities. For exact evaluation, exogenous rows
    that are identical form classes (rep_rows holds one row of each), and
    lumped maps post-decision indices to the n_lumped = nq * nb * classes
    lumped post-decision states; lumped_chain builds a policy's Q = R S over
    them, lumped_expectation gives R c, and state_measure carries a measure
    over them to the states (mu R). No successor list is stored: Q is built
    from the class rows' entries when a policy is evaluated.
    """

    # The last bias-gain LU factorised on these actions, whoever made it
    # (policy iteration or evaluate_policy): (Q, lu, recurrent, key), the
    # lumped chain, its LU at lumped state 0, the mask of its recurrent
    # states, and key the weight and the lumped indices of each policy the
    # chain plays, which fix Q. One entry: a new chain replaces it.
    last_lu = None
    # sparse LUs factorised on these actions, bias-gain and discounted
    n_factorised = 0

    def __init__(self, model: Model, greedy_draw: bool = False):
        space = model.space
        params = model.params
        self.model = model
        self.greedy_draw = greedy_draw
        n = space.n_states
        na, ne, nb = space.na, space.ne, space.nb

        self.exogenous = exogenous_chain(model)
        n_ex = self._n_ex = self.exogenous.shape[0]
        # exogenous rows that are identical, bit for bit, form one class,
        # numbered by its first row; rep_rows holds that row of each class
        _, first, inverse = np.unique(self.exogenous, axis=0, return_index=True,
                                      return_inverse=True)
        order = np.argsort(first)
        rank = np.empty_like(order)
        rank[order] = np.arange(order.size)
        self.rep_rows = self.exogenous[first[order]]
        self._class_of = rank[inverse.reshape(-1)]
        self._n_cls = order.size
        self.n_lumped = space.nq * nb * self._n_cls
        # each class row's positive entries (class, column as a state-index
        # offset, probability) and the state index of every (q, battery) at
        # (h, a, e) 0
        offsets = (np.arange(space.nh)[:, None, None] * space.s_h
                   + np.arange(na)[None, :, None] * space.s_a
                   + np.arange(ne)[None, None, :]).ravel()
        self._rep_class, ex_cols = np.nonzero(self.rep_rows > 0.0)
        self._rep_cols = offsets[ex_cols]
        self._rep_probs = self.rep_rows[self._rep_class, ex_cols]
        self._qb_base = (np.arange(space.nq)[:, None] * space.s_q
                         + np.arange(nb) * space.s_b).ravel()

        self._n_rates = n_rates = space.iq + 1
        n_pairs = int(n_rates.sum())
        if n_pairs * PAIR_BYTES > MAX_PAIR_BYTES:
            raise InstanceTooLargeError(
                f"{n_pairs} (state, rate) pairs would take {n_pairs * PAIR_BYTES} "
                f"bytes, over the limit of {MAX_PAIR_BYTES}")
        self._power = model.power_table
        self._draw_step = params.delta_e / params.tau
        # per state: the (h, a, e) part of its indices
        self._ex_of = (space.ih * na + space.ia) * ne + space.ie

        # pairs in (state, rate) order, then sorted by window length
        self._first_pair = np.cumsum(n_rates) - n_rates
        state = np.repeat(np.arange(n), n_rates)
        r = np.arange(n_pairs) - np.repeat(self._first_pair, n_rates)
        lo, cap = self.window(r, state)
        length = cap - lo + 1
        order = np.argsort(-length, kind="stable")
        self._by_state = np.empty_like(order)
        self._by_state[order] = np.arange(n_pairs)
        state, r, lo, length = state[order], r[order], lo[order], length[order]
        self.n_offering = np.cumsum(np.bincount(length)[::-1])[::-1][1:]
        self.n_sa = int(length.sum())

        base = np.minimum(space.q_in[state] - r, space.nq - 1) * (nb * n_ex)
        base += self._ex_of[state]
        self.pair_top = base + (nb - 1) * n_ex
        base += (space.b_in[state] - lo) * n_ex
        self.pair_post = base
        # below this draw offset some pair's next battery is clamped
        self._clamped = max(0, int((base - self.pair_top).max()) // n_ex)
        # exact where lo is 0 and where the window is lo alone, so the walk's
        # grid power is the action's bit for bit
        self.pair_p0 = self._power[space.ih[state], r] - lo * self._draw_step
        self.pair_q = space.iq[state].astype(float)
        self.pair_lo = lo.astype(np.int32)
        # the walk: each offset, whether to clamp, views of its prefix
        self._steps = [(k, k < self._clamped, self.pair_post[:m], self.pair_top[:m],
                        self.pair_p0[:m], self.pair_q[:m])
                       for k, m in enumerate(self.n_offering.tolist())]

    def window(self, r, at=slice(None)):
        """draw_window of rate r at the states at, on this space's model."""
        return draw_window(self.model, r, at, self.greedy_draw)

    def next_values(self, values: np.ndarray) -> np.ndarray:
        """The post-decision table of values, flattened: its entry at an
        action's post_index is E[values(next state) | state, action]."""
        return post_decision_values(values, self.model.space, self.exogenous).ravel()

    def _walk_step(self, table, beta, k, post, top, p0, queue, clamp=True):
        # table[post] + (q + beta * grid) of the pairs at draw offset k (or a
        # column of offsets, one row each), rounded as action by action
        post = post - k * self._n_ex
        if clamp:
            np.minimum(post, top, out=post)
        y = table[post]
        grid = p0 - k * self._draw_step
        np.maximum(grid, 0.0, out=grid)
        grid *= beta
        grid += queue
        y += grid
        return y

    def backup(self, table: np.ndarray, beta: float, scale: float = 1.0):
        """Bellman backup on the post-decision table: (mins, pick), mins[s]
        the least y = scale * table[post] + (q + beta * grid) over s's
        actions, and pick(tie_tol, rel) the smallest (r, w) with y <= mins +
        tie_tol + rel |mins| (rel 1e-12 unless given), extracted when
        called. Extraction takes the smallest rate whose pair minimum is in
        that window, then its first draw in it."""
        if scale != 1.0:
            table = table * scale  # entry by entry, as at each action
        pair_min = None
        for k, clamp, *prefix in self._steps:
            y = self._walk_step(table, beta, k, *prefix, clamp=clamp)
            if pair_min is None:
                pair_min = y
            else:
                np.minimum(pair_min[:y.size], y, out=pair_min[:y.size])
        by_state = pair_min[self._by_state]
        mins = np.minimum.reduceat(by_state, self._first_pair)
        n_rates = self._n_rates

        def pick(tie_tol: float, rel: float = 1e-12) -> np.ndarray:
            thr = mins + (tie_tol + rel * np.abs(mins))
            hits = np.flatnonzero(by_state <= np.repeat(thr, n_rates))
            # a state's minimum is a hit, so its first hit is in its own segment
            first_hit = hits[np.searchsorted(hits, self._first_pair)]
            pos = self._by_state[first_hit]
            sa = np.stack((first_hit - self._first_pair, self.pair_lo[pos]))
            # each chosen pair's draws again, all offsets at once for a block
            # of states: past a window the battery index stays above -nb (the
            # gather stays in the table), and the first hit comes before
            ks = np.arange(self.n_offering.size)[:, None]
            step = max(1, EXTRACT_BLOCK // ks.size)
            for i in range(0, pos.size, step):
                at = slice(i, i + step)
                y = self._walk_step(table, beta, ks, *(a[pos[at]] for a in (
                    self.pair_post, self.pair_top, self.pair_p0, self.pair_q)))
                sa[1, at] += (y <= thr[at]).argmax(axis=0)
            return sa

        return mins, pick

    def post_index(self, r, wq, at=slice(None)) -> np.ndarray:
        """Post-decision index of the action (r, wq) at the states at
        (default all): its next (q, battery) and the state's (h, a, e)."""
        space = self.model.space
        next_q = np.minimum(space.q_in[at] - r, space.nq - 1)
        next_b = np.minimum(space.b_in[at] - wq, space.nb - 1)
        return (next_q * space.nb + next_b) * self._n_ex + self._ex_of[at]

    def grid(self, r, wq, at=slice(None)) -> np.ndarray:
        """Grid power of (r, wq) at the states at (default all)."""
        w = np.asarray(wq, dtype=np.float64) * self._draw_step
        return np.maximum(self._power[self.model.space.ih[at], r] - w, 0.0)

    def terms(self, r, wq, at=slice(None)):
        """Queue, grid power, packets lost to the buffer clamp and energy
        spilled at the battery's top, of (r, wq) at the states at (default all)."""
        space = self.model.space
        return (space.iq[at].astype(float), self.grid(r, wq, at),
                np.maximum(space.q_in[at] - r - (space.nq - 1), 0).astype(float),
                np.maximum(space.b_in[at] - wq - (space.nb - 1), 0).astype(float)
                * self.model.params.delta_e)

    def lumped(self, post: np.ndarray) -> np.ndarray:
        """Lumped post-decision index (q', b', class) of each post-decision
        index in post: its (q', b') and the class of its exogenous row."""
        qb, ex = np.divmod(post, self._n_ex)
        qb *= self._n_cls
        qb += self._class_of[ex]
        return qb

    def lumped_expectation(self, values: np.ndarray) -> np.ndarray:
        """R values: E[values(next state)] at each lumped post-decision
        state, the post-decision table at the class rows."""
        return post_decision_values(values, self.model.space, self.rep_rows).ravel()

    def state_measure(self, mu: np.ndarray) -> np.ndarray:
        """mu R: a row vector over the lumped post-decision states carried
        one step to the states, whose (q', b') it keeps and whose (h, a, e)
        its class row draws."""
        space = self.model.space
        table = mu.reshape(space.nq * space.nb, self._n_cls) @ self.rep_rows
        return (table.reshape(space.nq, space.nb, space.nh * space.na, space.ne)
                .transpose(0, 2, 1, 3).ravel())

    def lumped_chain(self, terms) -> sp.csr_matrix:
        """Q = R S of the (weight, lumped indices) terms, one lumped index
        per state each: R the expectation rows of the lumped post-decision
        states, S the weighted sum of each term's 0/1 map from a state to its
        lumped index. The policy's own chain is P = S R, and Q keeps its
        nonzero spectrum, so its recurrent classes are as many. Row (q', b',
        class) holds, term by term, the weight times the class row's
        probability at the lumped index of every state that row reaches from
        (q', b'); the CSR conversion sums repeated entries (scipy's strong
        components loop forever on a repeated edge)."""
        import scipy.sparse as sp

        n_qb = self._qb_base.size
        reached = self._qb_base[:, None] + self._rep_cols
        rows = (np.arange(n_qb)[:, None] * self._n_cls + self._rep_class).ravel()
        Q = sp.csr_matrix(
            (np.concatenate([np.tile(w * self._rep_probs, n_qb) for w, _ in terms]),
             (np.tile(rows, len(terms)),
              np.concatenate([lp[reached].ravel() for _, lp in terms]))),
            shape=(self.n_lumped, self.n_lumped))
        Q.eliminate_zeros()  # a weight times a probability may underflow
        return Q

    def sa_of_policy(self, policy: TablePolicy) -> np.ndarray:
        """The policy's (r, wq) as rows, by TablePolicy.actions_on."""
        return np.stack(policy.actions_on(self.model, self.greedy_draw))

    def policy_from_sa(self, sa) -> TablePolicy:
        return TablePolicy(r=np.asarray(sa[0], dtype=np.int64),
                           w_quanta=np.asarray(sa[1], dtype=np.int64),
                           delta_e=self.model.params.delta_e, tau=self.model.params.tau)


def build_action_space(model: Model, greedy_draw: bool = False) -> ActionSpace:
    return ActionSpace(model, greedy_draw=greedy_draw)


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
    Approximate Dynamic Programming, 2nd ed., 2011, ch. 4). exogenous may
    be some of the chain's rows (ActionSpace.rep_rows): the table has a
    column per row given."""
    nq, nb = space.nq, space.nb
    V = (values.reshape(nq, space.nh * space.na, nb, space.ne)
         .transpose(0, 2, 1, 3).reshape(nq * nb, exogenous.shape[1]))
    return V @ exogenous.T


# ---------------------------------------------------------------------------
# solvers


# Tied backup values are common, not a corner case: whenever the marginal
# value of a stored quantum equals its grid replacement price, every feasible
# draw level is exactly optimal.  Exact argmin would let residual noise pick
# an arbitrary member of the tied set, so extraction takes the smallest
# (r, w) pair within a small window of the minimum instead.  The window must
# sit above the value-table error (order epsilon) but below any price gap
# the caller cares about; solvers pass 10x their stopping epsilon.
GREEDY_TIE_TOL = 1e-8


# gains within GAIN_LEVEL_TOL * max(1, max |g|) of each other form one level:
# far above the multichain LU's rounding, far below what epsilon resolves
GAIN_LEVEL_TOL = 1e-11

# rounding floor of the discounted solve's residual, in ulps of max |V|: the
# exact values of the optimal policy, rounded and backed up once, read 1 to 11
# ulps where epsilon (1 - alpha) / (2 alpha) is below one ulp (alpha 0.999)
RESIDUAL_ULPS = 64


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


def _residual_bound(epsilon: float, alpha: float, v: np.ndarray) -> float:
    """The discounted solve's residual bound on the values v: epsilon (1 -
    alpha) / (2 alpha), or RESIDUAL_ULPS ulps of max |v| where larger."""
    return max(epsilon * (1.0 - alpha) / (2.0 * alpha),
               RESIDUAL_ULPS * float(np.spacing(np.abs(v).max())))


def _howard(actions: ActionSpace, beta: float, sa, max_iters: int,
            alpha: float | None = None, ref: int = 0,
            epsilon: float | None = None):
    """Howard policy iteration, average-cost (alpha None) or discounted
    (alpha and epsilon given), from the policy sa = (r, wq), or with sa None
    from the greedy actions of the one-step costs.

    Evaluates each policy by one sparse LU on its lumped chain Q = R S
    (ActionSpace.lumped_chain), with c the one-step costs and lp each
    state's lumped index. Average cost: a unichain Q's bias-gain LU at
    lumped state 0 gives x = A^-1 R c, the gain g = x[0] and W = x - g = R
    h; a multichain Q's LU pins each recurrent class at its first state and
    the transient states at the first recurrent one, and gives the lumped
    gains gl = A^-1 x[pin], W = A^-1 (R c - gl) and g = gl[lp]
    (Puterman 1994, sec. 9.2). The bias h = c - g + W[lp] is normalised at
    reference state ref. Discounted: (I - alpha Q) W = R c, v = c + alpha
    W[lp].

    Improves on y = q + beta * grid + alpha E[v(next)] (alpha 1 for the
    bias), keeping the incumbent action wherever its y is within rounding
    of the state's minimum (the anti-cycling rule of sec. 8.6), 1e-12 of
    max |min y|, and discounted at most half the residual bound, since the
    kept incumbents' lead adds to the residual |T v - v| the solve returns;
    else taking the smallest minimizing (r, w), extracted only when some
    state moves. Where a multichain policy's gains split into levels
    (GAIN_LEVEL_TOL), it improves on E[g(next)] first, and only where no
    state moves there on y, level by level (sec. 9.2.1). Stops when no state
    moves or after max_iters evaluations; returns (v, n_eval, mins, pick),
    the last policy's values, the evaluations and the last backup of v. A
    unichain LU comes from actions.last_lu when that is the same chain's (a
    warm start's first step) and is left there for the next solve and
    evaluate_policy; a multichain one is not kept.
    """
    queue = actions.model.space.iq
    scale = 1.0 if alpha is None else alpha
    # a discounted state that moves takes a minimizer, so improves by tol
    rel = 1e-12 if alpha is None else 0.0
    if sa is None:
        sa = actions.backup(actions.next_values(np.zeros(queue.size)), beta)[1](0.0)
    n_eval = 0
    while n_eval < max_iters:
        post = actions.post_index(*sa)
        lp = actions.lumped(post)
        c = queue + beta * actions.grid(*sa)
        rc = actions.lumped_expectation(c)
        n_eval += 1
        tops = ()  # a multichain policy's gain levels, by their top gains
        if alpha is None:
            Q, lu = _chain_lu(actions, [(1.0, lp)])[:2]
            if lu is not None:
                x = lu.solve(rc)
                g = x[0]
                x -= g
            else:  # each class pinned apart, transient states at the first
                labels, closed = _components(Q)
                pin = np.unique(labels, return_index=True)[1][labels]
                pin[~closed[labels]] = np.flatnonzero(closed[labels])[0]
                lu = _bias_gain_lu(Q, pin)
                actions.n_factorised += 1
                gl = lu.solve(lu.solve(rc)[pin])
                x = lu.solve(rc - gl)
                g = gl[lp]
                tol = GAIN_LEVEL_TOL * max(1.0, float(np.abs(g).max()))
                ordered = np.sort(g)
                tops = ordered[np.r_[np.flatnonzero(np.diff(ordered) > tol), g.size - 1]]
            v = c - g
            v += x[lp]
            v -= v[ref]
        else:
            W = _factorise(actions.lumped_chain([(1.0, lp)]), alpha).solve(rc)
            actions.n_factorised += 1
            v = c + alpha * W[lp]
        table = actions.next_values(v)
        # (post-decision table, states it leaves alone) of each backup that
        # may move the policy: the table alone at one gain level
        steps = [(table, False)]
        if len(tops) > 1:
            if n_eval == max_iters:
                raise NonConvergenceError(
                    f"policy iteration ended on {tops.size} gain levels from "
                    f"{g.min()} to {g.max()}", residual=float(np.ptp(g)))
            # Puterman's first stage: any state whose E[g(next)] can fall
            # moves; else the second, one level at a time, top first, over
            # the actions that keep E[g(next)] at the state's level
            g_table = actions.next_values(g)
            mins, pick = actions.backup(g_table, 0.0)
            keep = g_table[post] + queue <= mins + tol
            if not keep.all():
                sa = np.where(keep, sa, pick(0.0))
                continue
            level = np.searchsorted(tops, g)
            steps = [(np.where(g_table <= top + tol, table, np.inf), level != k)
                     for k, top in reversed(list(enumerate(tops)))]
        for step, outside in steps:
            mins, pick = actions.backup(step, beta, scale)
            y = step[post] * scale
            y += c
            tol = 1e-12 * max(1.0, float(np.where(outside, 0.0, np.abs(mins)).max()))
            if alpha is not None:
                tol = min(tol, 0.5 * _residual_bound(epsilon, alpha, v))
            keep = y <= mins + tol
            keep |= outside
            if not keep.all():
                break
        else:
            if len(steps) > 1:
                raise MultichainError(
                    f"policy iteration ends on {len(steps)} gain levels from "
                    f"{g.min()} to {g.max()}: the optimal gain varies between states")
            break
        sa = np.where(keep, sa, pick(0.0, rel))
    return v, n_eval, mins, pick


def relative_value_iteration(cfg: SolverConfig, model: Model,
                             actions: ActionSpace | None = None,
                             start: TablePolicy | None = None) -> SolveResult:
    """Long-run average-cost solve; returns gain, bias values and greedy policy.

    Howard policy iteration (_howard, from the greedy actions of the one-step
    costs or from the table policy start) runs until no state moves, for at
    most cfg.max_iters evaluations. Its last backup T h of the last bias h
    gives the gain bounds (min and max of T h - h, which bracket the optimal
    gain), the bias and the greedy policy; a span of T h - h not below
    cfg.epsilon raises NonConvergenceError. n_iters is 1 and trace [(1,
    span, min, max)]; n_evaluations counts the policies evaluated.

    Raises MultichainError before the first evaluation when the exogenous
    chain, or one of its three factors (named first), has more than one
    recurrent class: every policy is then multichain.
    """
    import scipy.sparse as sp

    if actions is None:
        actions = build_action_space(model)
    ref = cfg.reference_state
    if not 0 <= ref < model.space.n_states:
        raise ValueError(f"reference_state {ref} out of range")
    for name in ("channel", "arrival", "harvest", "exogenous"):
        t = actions.exogenous if name == "exogenous" else getattr(model, name).transition
        # a positive matrix is irreducible
        if not t.all() and (k := recurrent_classes(sp.csr_matrix(t))[1]) > 1:
            raise MultichainError(f"{name} chain has {k} recurrent classes, "
                                  f"so every policy is multichain")

    sa = None if start is None else actions.sa_of_policy(start)
    h, n_eval, mins, pick = _howard(actions, cfg.beta, sa, cfg.max_iters, ref=ref)
    d = mins - h
    lo, hi = float(d.min()), float(d.max())
    span = hi - lo
    if not span < cfg.epsilon:
        raise NonConvergenceError(
            f"policy iteration did not reach span {cfg.epsilon} in {n_eval} "
            f"evaluations (final span {span:.3e})", residual=span)
    bias = ValueTable(values=h, kind="relative-bias", beta=cfg.beta,
                      reference_state=ref)
    return SolveResult(gain=0.5 * (lo + hi), values=bias,
                       policy=actions.policy_from_sa(pick(10.0 * cfg.epsilon)),
                       n_iters=1, residual=span, gain_bounds=(lo, hi),
                       trace=[(1, span, lo, hi)], actions=actions,
                       n_evaluations=n_eval)


def discounted_backup(actions: ActionSpace, values: np.ndarray, beta: float,
                      alpha: float, tie_tol: float = GREEDY_TIE_TOL):
    """One discounted Bellman sweep; returns (new values, greedy (r, wq))."""
    mins, pick = actions.backup(actions.next_values(values), beta, alpha)
    return mins, pick(tie_tol)


def discounted_value_iteration(cfg: SolverConfig, model: Model,
                               actions: ActionSpace | None = None) -> SolveResult:
    """Discounted solve by Howard policy iteration (_howard, Puterman 1994,
    sec. 6.4), from the greedy actions of the one-step costs, for at most
    cfg.max_iters evaluations. Returns the values of the policy it ends on
    and the tie-canonical greedy policy of policy iteration's last backup of
    them, which also gives their residual |T V - V|.

    Contract: the residual is at most epsilon * (1 - alpha) / (2 * alpha),
    which puts the values within epsilon of the optimum (sec. 6.3), or its
    rounding floor RESIDUAL_ULPS ulps of max |V| where that is larger (at
    alpha 0.999 and epsilon 1e-9, one ulp is larger above |V| = 4,096).
    Otherwise, as after policy iteration cut short by max_iters, it raises
    NonConvergenceError. n_iters is 1 and trace [(1, residual)].
    """
    if cfg.alpha is None:
        raise ValueError("discounted mode requires alpha")
    if actions is None:
        actions = build_action_space(model)
    alpha = cfg.alpha

    v, n_eval, tv, pick = _howard(actions, cfg.beta, None, cfg.max_iters,
                                  alpha=alpha, epsilon=cfg.epsilon)
    resid = float(np.max(np.abs(tv - v)))
    bound = _residual_bound(cfg.epsilon, alpha, v)
    if resid > bound:
        raise NonConvergenceError(
            f"discounted policy iteration did not reach residual {bound:.3e} "
            f"in {n_eval} evaluations (final {resid:.3e})", residual=resid)
    table = ValueTable(values=v, kind="discounted", beta=cfg.beta, alpha=alpha)
    return SolveResult(gain=float("nan"), values=table,
                       policy=actions.policy_from_sa(pick(10.0 * cfg.epsilon)),
                       n_iters=1, residual=resid, trace=[(1, resid)], actions=actions,
                       n_evaluations=n_eval)


# ---------------------------------------------------------------------------
# exact policy evaluation


# The rows of a chain sum to one only within the spacing of floats at 1, so a
# mixture weight at or below it is lost in their rounding: where the other
# policy's chain is multichain, such a weight alone would join its classes,
# and the stationary law would be rounding noise.
MIX_WEIGHT_ROUNDING = float(np.finfo(float).eps)


def _policy_terms(policy, actions: ActionSpace) -> list:
    """(weight, (r, wq)) of each table policy a stationary policy plays. A
    mixture plays only its other policy where one weight is at or below
    MIX_WEIGHT_ROUNDING (both policies are still checked for feasibility).
    Mixed policies marginalize the per-epoch coin into the chain (xi P+ +
    (1-xi) P-), which equals the product chain of (state, coin) exactly since
    the coin is i.i.d."""
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


def _chain_lu(actions: ActionSpace, terms):
    """(Q, lu, recurrent, reused): the lumped chain the (weight, lumped
    indices) terms play, its bias-gain LU at lumped state 0, the mask of Q's
    recurrent states, and whether this was actions.last_lu. A chain whose
    key matches the stored one is neither built nor checked again; any other
    is built, checked and, when unichain, factorised (counted in
    actions.n_factorised) and stored in place of the last. lu is None when Q
    is not unichain.
    """
    key = tuple((w, lp.tobytes()) for w, lp in terms)
    memo = actions.last_lu
    if memo is not None and memo[3] == key:
        return (*memo[:3], True)
    Q = actions.lumped_chain(terms)
    recurrent, n_classes = recurrent_classes(Q)
    if n_classes != 1:
        return Q, None, recurrent, False
    lu = _bias_gain_lu(Q, 0)
    actions.n_factorised += 1
    actions.last_lu = (Q, lu, recurrent, key)
    return Q, lu, recurrent, False


def recurrent_classes(P: sp.csr_matrix) -> tuple[np.ndarray, int]:
    """Mask of the states in recurrent classes of P, and the number of them.

    A recurrent class is a strongly connected component with no edge leaving
    it. P must be CSR and hold no explicit zeros: every stored entry counts
    as an edge, read from its indptr and indices.
    """
    labels, closed = _components(P)
    return closed[labels], int(np.count_nonzero(closed))


def _components(P: sp.csr_matrix) -> tuple[np.ndarray, np.ndarray]:
    """P's strongly connected component of each state, and which are closed."""
    from scipy.sparse.csgraph import connected_components

    n_comp, labels = connected_components(P, directed=True, connection="strong")
    src = np.repeat(labels, np.diff(P.indptr))
    dst = labels[P.indices]
    closed = np.ones(n_comp, dtype=bool)
    closed[src[src != dst]] = False
    return labels, closed


def _factorise(P: sp.csr_matrix, scale: float = 1.0, ref=None):
    """Sparse LU of I - scale * P, plus 1 at (s, ref), or (s, ref[s]), in
    every row s when ref is given; from P's CSR arrays, repeats summed."""
    import scipy.sparse as sp
    from scipy.sparse.linalg import splu

    n = P.shape[0]
    diag = np.arange(n)
    rows = [np.repeat(diag, np.diff(P.indptr)), diag]
    cols = [P.indices, diag]
    vals = [P.data * -scale, np.ones(n)]
    if ref is not None:
        rows.append(diag)
        cols.append(np.full(n, ref))
        vals.append(np.ones(n))
    return splu(sp.csc_matrix((np.concatenate(vals),
                               (np.concatenate(rows), np.concatenate(cols))),
                              shape=(n, n)))


def _bias_gain_lu(P: sp.csr_matrix, ref):
    """Sparse LU of A = I - P + 1 e_ref^T, nonsingular exactly when P is
    unichain.

    lu.solve(c) gives x with gain g = x[ref] and bias h = x - x[ref]
    (h[ref] = 0, g + h = c + P h), since (I - P) 1 = 0; the transpose solve
    lu.solve(e_ref, trans="T") gives the stationary law pi, since
    pi A = e_ref^T. With ref an array of per-state pins (as _howard's), row
    s gains a 1 at column ref[s] instead.
    """
    try:
        return _factorise(P, ref=ref)
    except RuntimeError as exc:  # SuperLU's "Factor is exactly singular"
        raise MultichainError(f"bias-gain matrix is singular ({exc}): P is "
                              f"multichain in floating point") from exc


def stationary_distribution(actions: ActionSpace, Q: sp.csr_matrix, lu,
                            recurrent: np.ndarray) -> np.ndarray:
    """Stationary law of the states under a unichain policy, from its lumped
    chain Q, Q's bias-gain LU at lumped state 0 and the mask of Q's
    recurrent states (evaluate_policy passes what _chain_lu found or made).
    The transpose solve gives Q's law mu, set to 0 outside its recurrent
    class, so that states no recurrent state reaches get exact zeros; the
    residual |mu Q - mu| is checked against Q; and pi = mu R, since pi P =
    mu R S R = mu Q R = pi.
    """
    e = np.zeros(Q.shape[0])
    e[0] = 1.0
    mu = lu.solve(e, trans="T")
    mu = np.where(recurrent & (mu > 0), mu, 0.0)
    mu /= mu.sum()
    resid = np.max(np.abs(mu @ Q - mu))
    if resid > 1e-10:
        raise NonConvergenceError(f"stationary solve residual {resid:.3e}",
                                  residual=resid)
    return actions.state_measure(mu)


def evaluate_policy(policy, beta: float, model: Model,
                    actions: ActionSpace | None = None) -> PolicyEvaluation:
    """Exact long-run averages (J, B, K) of a TablePolicy or a MixedPolicy;
    raises MultichainError unless its chain is unichain.

    The stationary law comes from the policy's lumped chain Q = R S
    (stationary_distribution), n_lumped square, whose recurrent classes are
    as many as those of the chain P = S R over the states. The per-slot
    quantities (queue, grid power, overflow, spill) are worked out at the
    policy's own actions only, n values per mixture term
    (ActionSpace.terms). The LU comes from actions.last_lu when that is the
    same chain's, whoever factorised it (policy iteration's last step, an
    earlier evaluation, a mixture iterate): the same Q gives the same matrix
    and so the same stationary law, bit for bit, and Q was checked unichain
    when it was stored. Otherwise Q is built, checked, factorised and stored
    there in its place.
    """
    if not isinstance(policy, (TablePolicy, MixedPolicy)):
        raise TypeError(
            f"evaluate_policy takes a TablePolicy or a MixedPolicy, not "
            f"{type(policy).__name__}; TablePolicy.from_callable turns a "
            f"per-state function into a TablePolicy")
    if actions is None:
        actions = build_action_space(model)
    terms = _policy_terms(policy, actions)
    Q, lu, recurrent, reused = _chain_lu(
        actions, [(w, actions.lumped(actions.post_index(*sa))) for w, sa in terms])
    if lu is None:
        raise MultichainError(
            f"induced chain has {recurrent_classes(Q)[1]} recurrent classes")
    pi = stationary_distribution(actions, Q, lu, recurrent)

    at = [actions.terms(*sa) for _, sa in terms]
    b, k, overflow, spill = (
        float(pi @ sum(w * x[i] for (w, _), x in zip(terms, at)))
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

    Iteration order is lexicographic in the per-state actions, each state's
    in (r, w) order, and only a strictly better gain displaces the
    incumbent, so ties resolve to the lexicographically smallest policy --
    the same tie-break the solvers use.
    """
    if actions is None:
        actions = build_action_space(model)
    space = model.space
    n = space.n_states
    options = []
    for s in range(n):
        r = np.arange(space.iq[s] + 1)
        lo, hi = actions.window(r, np.full(r.size, s))
        options.append([(ri, w) for ri, a, b in zip(r.tolist(), lo.tolist(), hi.tolist())
                        for w in range(a, b + 1)])
    if math.prod(map(len, options)) > cap:
        raise InstanceTooLargeError(f"policy count exceeds cap {cap}")

    m = actions.n_lumped
    eye = np.eye(m)
    rhs = np.zeros(m)
    rhs[-1] = 1.0
    best_gain = np.inf
    best_sa = None
    skipped = 0
    n_eval = 0
    for combo in itertools.product(*options):
        sa = np.array(combo).T
        Q = actions.lumped_chain([(1.0, actions.lumped(actions.post_index(*sa)))])
        if recurrent_classes(Q)[1] != 1:
            skipped += 1
            continue
        A = Q.toarray().T - eye
        A[-1, :] = 1.0
        mu = np.linalg.solve(A, rhs)
        n_eval += 1
        # the gain pi c = mu R c
        g = float(mu @ actions.lumped_expectation(space.iq + beta * actions.grid(*sa)))
        if g < best_gain:
            best_gain = g
            best_sa = sa
    if best_sa is None:
        raise MultichainError("every enumerated policy was multichain")
    policy = actions.policy_from_sa(best_sa)
    ev = evaluate_policy(policy, beta, model, actions=actions)
    return OracleResult(gain=ev.gain_j, policy=policy, evaluation=ev,
                        n_policies=n_eval, n_multichain_skipped=skipped)
