"""Budgeted solve: price grid power with a multiplier beta, find the price at
which the Lagrangian optimum crosses the budget, and randomise between the two
policies optimal there (Beutler & Ross 1985, J. Math. Anal. Appl. 112; Altman,
Constrained Markov Decision Processes, 1999). The price search is Kelley's
cutting plane (1960, J. SIAM 8) on the concave, piecewise-linear dual
min_pi (B_pi + beta*K_pi) - beta*p_bar. Every probe solves the priced problem
to convergence, warm-started from the nearest price already solved, and
evaluates the greedy policy exactly, so the (beta, J, B, K) trace is noise-free.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .mdp import (
    ActionSpace,
    MixedPolicy,
    PolicyEvaluation,
    SolverConfig,
    TablePolicy,
    build_action_space,
    evaluate_policy,
    relative_value_iteration,
)
from .model import Model


class BudgetInfeasibleError(RuntimeError):
    """K exceeds the budget even at beta_init; raise beta_init."""


class ConstrainedSearchError(RuntimeError):
    """Probes plus mixture-weight iterates reached max_outer_iters; witness is
    the bracket (beta_plus, beta_minus, k_plus, k_minus) held at that point."""

    def __init__(self, message: str, witness: tuple | None = None):
        if witness is not None:
            message += f"; bracket (beta+, beta-, K+, K-) = {witness}"
        super().__init__(message)
        self.witness = witness


class TraceRow(NamedTuple):
    iteration: int
    beta: float
    gain_j: float
    mean_queue_b: float
    mean_grid_k: float


class Probe(NamedTuple):
    """A price, the policy solved there and its exact evaluation."""

    beta: float
    policy: TablePolicy
    evaluation: PolicyEvaluation


@dataclass(frozen=True)
class ConstrainedSolverConfig:
    """Outer-loop knobs; each price probe's relative-VI solve runs at epsilon.

    k_tolerance=None resolves to 1e-3 * p_bar (absolute 1e-6 when the budget
    is zero). max_outer_iters caps price probes plus mixture-weight iterates.
    A probe marks the breakpoint when its gain is within epsilon (relative
    above 1) of the bracket's crossing value. beta_floor keeps probes strictly
    positive and must price one battery quantum (beta * delta_e / tau) above
    the solver's greedy tie window, or the smallest-(r, w) tie-break idles
    the battery and inflates K.
    """

    beta_init: float = 100.0
    k_tolerance: float | None = None
    max_outer_iters: int = 100
    beta_floor: float = 1e-5
    epsilon: float = 1e-10

    def __post_init__(self):
        if self.beta_init <= 0:
            raise ValueError("beta_init must be positive")
        if self.k_tolerance is not None and self.k_tolerance <= 0:
            raise ValueError("k_tolerance must be positive")
        if self.beta_floor <= 0:
            raise ValueError("beta_floor must be positive")


@dataclass
class BetaSearchResult:
    """policy/evaluation: the feasible side, solved at beta_plus. minus: the
    infeasible policy also optimal at beta_star, None if one policy suffices."""

    beta_star: float
    policy: TablePolicy
    evaluation: PolicyEvaluation
    trace: list[TraceRow]
    beta_plus: float
    minus: Probe | None = None
    n_evaluations: int = 0  # LUs factorised: policy iteration's and evaluate_policy's


@dataclass
class ConstrainedSolution:
    kind: str  # "single" | "mixed"
    policy: TablePolicy | MixedPolicy
    beta_star: float
    evaluation: PolicyEvaluation
    achieved_b: float
    achieved_k: float
    trace: list[TraceRow]
    xi: float | None = None
    beta_plus: float | None = None
    beta_minus: float | None = None
    eval_plus: PolicyEvaluation | None = None
    eval_minus: PolicyEvaluation | None = None
    n_evaluations: int = 0  # LUs factorised: the search's and the mixture iterates'


def _k_tolerance(cfg: ConstrainedSolverConfig, model: Model) -> float:
    if cfg.k_tolerance is not None:
        return cfg.k_tolerance
    return 1e-3 * model.params.p_bar if model.params.p_bar > 0 else 1e-6


class _Prober:
    """Solve-and-evaluate at a trial beta, recording the trace.

    Every call solves and adds a trace row, even at a price already solved,
    so max_outer_iters, which counts the rows, bounds the search. Each solve
    starts its policy iteration from the policy of the nearest beta already
    solved. The start only saves evaluations: the span rule and
    the tie-canonical extraction still pick the policy.
    """

    def __init__(self, cfg: ConstrainedSolverConfig, model: Model,
                 actions: ActionSpace | None):
        self.cfg = cfg
        self.model = model
        self.actions = actions if actions is not None else build_action_space(model)
        self.trace: list[TraceRow] = []
        self._probes: list[Probe] = []
        self._lu_start = self.actions.n_factorised

    @property
    def n_evaluations(self) -> int:
        """LUs factorised on the actions since this prober was made."""
        return self.actions.n_factorised - self._lu_start

    def __call__(self, beta: float) -> Probe:
        res = relative_value_iteration(
            SolverConfig(beta=beta, epsilon=self.cfg.epsilon), self.model,
            actions=self.actions, start=self._start(beta))
        ev = evaluate_policy(res.policy, beta, self.model, actions=self.actions)
        self.trace.append(TraceRow(len(self.trace) + 1, beta, ev.gain_j,
                                   ev.mean_queue_b, ev.mean_grid_k))
        self._probes.append(Probe(beta, res.policy, ev))
        return self._probes[-1]

    def _start(self, beta: float) -> TablePolicy | None:
        if not self._probes:
            return None
        return min(self._probes, key=lambda p: abs(p.beta - beta)).policy


def beta_star_search(cfg: ConstrainedSolverConfig, model: Model,
                     actions: ActionSpace | None = None) -> BetaSearchResult:
    """The Lagrangian breakpoint beta_star and the two policies optimal there.

    beta_init must meet the budget within k_tolerance; if the beta_floor
    policy meets it, the constraint is inactive and beta_star is 0. Otherwise
    it holds a feasible probe (B+, K+ <= p_bar) and an infeasible one (B-,
    K- > p_bar) and probes where their gain lines meet, (B+ - B-)/(K- - K+).
    If the optimal gain there equals the lines' value, that price is the
    breakpoint; else the new policy replaces the side its K falls on. A
    feasible probe within k_tolerance of the budget ends it as a single.
    """
    p_bar = model.params.p_bar
    k_tol = _k_tolerance(cfg, model)
    probe = _Prober(cfg, model, actions)

    def result(beta_star: float, plus: Probe, minus: Probe | None = None):
        return BetaSearchResult(beta_star, plus.policy, plus.evaluation,
                                probe.trace, plus.beta, minus,
                                probe.n_evaluations)

    plus = probe(max(cfg.beta_init, cfg.beta_floor))
    if plus.evaluation.mean_grid_k > p_bar + k_tol:
        raise BudgetInfeasibleError(
            f"K={plus.evaluation.mean_grid_k:.6g} > p_bar={p_bar:.6g} at "
            f"beta_init={plus.beta:.6g}; raise beta_init")

    minus = probe(cfg.beta_floor)
    if minus.evaluation.mean_grid_k <= p_bar + 1e-15:
        # constraint inactive: the (essentially) unpriced optimum already fits
        return result(0.0, minus)

    while p_bar - plus.evaluation.mean_grid_k > k_tol:
        ev_p, ev_m = plus.evaluation, minus.evaluation
        if len(probe.trace) >= cfg.max_outer_iters:
            raise ConstrainedSearchError(
                f"the price search reached max_outer_iters={cfg.max_outer_iters}",
                (plus.beta, minus.beta, ev_p.mean_grid_k, ev_m.mean_grid_k))
        beta_x = ((ev_p.mean_queue_b - ev_m.mean_queue_b)
                  / (ev_m.mean_grid_k - ev_p.mean_grid_k))
        j_x = ev_p.mean_queue_b + beta_x * ev_p.mean_grid_k
        new = probe(beta_x)
        if new.evaluation.gain_j >= j_x - cfg.epsilon * max(1.0, abs(j_x)):
            return result(beta_x, plus, minus)
        if new.evaluation.mean_grid_k <= p_bar:
            plus = new
        else:
            minus = new
    return result(plus.beta, plus)


def solve_constrained(cfg: ConstrainedSolverConfig, model: Model,
                      actions: ActionSpace | None = None) -> ConstrainedSolution:
    """Full budgeted solve: the breakpoint search, then, unless one policy
    meets the budget, the mixture of the two breakpoint policies that spends it.

    xi is the probability of the feasible policy pi+ (found at beta_plus; pi-
    at beta_minus). Every per-slot mixture of the two is optimal at beta_star,
    and K(xi) runs continuously, though not linearly, from K- at xi = 0 to K+
    at xi = 1. Regula falsi on exact evaluations of the mixture stops at the
    first xi within k_tolerance; its first iterate is the linear
    interpolation xi*K+ + (1-xi)*K- = p_bar.
    """
    p_bar = model.params.p_bar
    k_tol = _k_tolerance(cfg, model)
    if actions is None:
        actions = build_action_space(model)
    lu_start = actions.n_factorised
    search = beta_star_search(cfg, model, actions)
    ev_plus, minus = search.evaluation, search.minus

    if minus is None:
        return ConstrainedSolution(
            kind="single", policy=search.policy, beta_star=search.beta_star,
            evaluation=ev_plus, achieved_b=ev_plus.mean_queue_b,
            achieved_k=ev_plus.mean_grid_k, trace=search.trace,
            n_evaluations=search.n_evaluations)

    xi_lo, k_lo = 0.0, minus.evaluation.mean_grid_k
    xi_hi, k_hi = 1.0, ev_plus.mean_grid_k
    for _ in range(cfg.max_outer_iters - len(search.trace)):
        xi = xi_lo + (k_lo - p_bar) * (xi_hi - xi_lo) / (k_lo - k_hi)
        mixed = MixedPolicy(search.policy, minus.policy, xi)
        ev = evaluate_policy(mixed, search.beta_star, model, actions=actions)
        k = ev.mean_grid_k
        if abs(k - p_bar) <= k_tol:
            return ConstrainedSolution(
                kind="mixed", policy=mixed, beta_star=search.beta_star,
                evaluation=ev, achieved_b=ev.mean_queue_b, achieved_k=k,
                trace=search.trace, xi=xi, beta_plus=search.beta_plus,
                beta_minus=minus.beta, eval_plus=ev_plus, eval_minus=minus.evaluation,
                n_evaluations=actions.n_factorised - lu_start)
        if k > p_bar:
            xi_lo, k_lo = xi, k
        else:
            xi_hi, k_hi = xi, k
    raise ConstrainedSearchError(
        f"the mixture weight search reached max_outer_iters={cfg.max_outer_iters}",
        (search.beta_plus, minus.beta, ev_plus.mean_grid_k,
         minus.evaluation.mean_grid_k))
