"""Budgeted solve: price grid power with a multiplier, search the multiplier,
and mix two neighbouring policies when no single one meets the budget exactly.

The multiplier search exploits that the optimal mean grid power K is
non-increasing in beta: bisection brackets the critical multiplier. Every
probe solves the priced problem to convergence, starting policy iteration
from the nearest price already solved, and evaluates the greedy policy
exactly, so the recorded (beta, J, B, K) trace is noise-free.
"""

from __future__ import annotations

from dataclasses import dataclass, field
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
    """Perturbed solves would not straddle the budget after widening retries."""


class TraceRow(NamedTuple):
    iteration: int
    beta: float
    gain_j: float
    mean_queue_b: float
    mean_grid_k: float


@dataclass(frozen=True)
class ConstrainedSolverConfig:
    """Outer-loop knobs; inner relative-VI settings are forwarded verbatim.

    nu=None computes the perturbation as 1% of beta_star with an absolute
    floor. k_tolerance=None resolves to 1e-3 * p_bar (absolute 1e-6 when the
    budget is zero). beta_floor keeps probes strictly positive and must price
    one battery quantum (beta * delta_e / tau) above the solver's greedy tie
    window, or the smallest-(r, w) tie-break idles the battery and inflates K.
    """

    beta_init: float = 100.0
    nu: float | None = None
    nu_floor: float = 1e-6
    k_tolerance: float | None = None
    max_outer_iters: int = 100
    beta_floor: float = 1e-5
    beta_rel_tol: float = 1e-6
    widen_retries: int = 10
    epsilon: float = 1e-10
    max_inner_iters: int = 1_000_000
    kappa: float = 0.5

    def __post_init__(self):
        if self.beta_init <= 0:
            raise ValueError("beta_init must be positive")
        if self.nu is not None and self.nu <= 0:
            raise ValueError("nu must be positive")
        if self.k_tolerance is not None and self.k_tolerance <= 0:
            raise ValueError("k_tolerance must be positive")
        if self.beta_floor <= 0:
            raise ValueError("beta_floor must be positive")


@dataclass
class BetaSearchResult:
    beta_star: float
    policy: TablePolicy
    evaluation: PolicyEvaluation
    trace: list[TraceRow]


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
    nu_used: float | None = None
    beta_plus: float | None = None
    beta_minus: float | None = None
    eval_plus: PolicyEvaluation | None = None
    eval_minus: PolicyEvaluation | None = None


def _k_tolerance(cfg: ConstrainedSolverConfig, model: Model) -> float:
    if cfg.k_tolerance is not None:
        return cfg.k_tolerance
    return 1e-3 * model.params.p_bar if model.params.p_bar > 0 else 1e-6


class _Prober:
    """Solve-and-evaluate at a trial beta, recording the trace.

    Each solve starts its policy iteration from the policy of the nearest
    beta already solved. The start only saves evaluations: the sweeps'
    stopping rule and the tie-canonical extraction still pick the policy.
    """

    def __init__(self, cfg: ConstrainedSolverConfig, model: Model,
                 actions: ActionSpace | None):
        self.cfg = cfg
        self.model = model
        self.actions = actions if actions is not None else build_action_space(model)
        self.trace: list[TraceRow] = []
        self._count = 0
        self._cache: dict[float, tuple[TablePolicy, PolicyEvaluation]] = {}

    def __call__(self, beta: float) -> tuple[TablePolicy, PolicyEvaluation]:
        if beta in self._cache:
            return self._cache[beta]
        sc = SolverConfig(beta=beta, epsilon=self.cfg.epsilon,
                          max_iters=self.cfg.max_inner_iters, kappa=self.cfg.kappa)
        res = relative_value_iteration(sc, self.model, actions=self.actions,
                                       start=self._start(beta))
        ev = evaluate_policy(res.policy, beta, self.model, actions=self.actions)
        self._count += 1
        self.trace.append(TraceRow(self._count, beta, ev.gain_j,
                                   ev.mean_queue_b, ev.mean_grid_k))
        self._cache[beta] = (res.policy, ev)
        return res.policy, ev

    def _start(self, beta: float) -> TablePolicy | None:
        if not self._cache:
            return None
        nearest = min(self._cache, key=lambda b: abs(b - beta))
        return self._cache[nearest][0]


def beta_star_search(cfg: ConstrainedSolverConfig, model: Model,
                     actions: ActionSpace | None = None,
                     _prober: "_Prober | None" = None) -> BetaSearchResult:
    """Smallest multiplier whose optimal policy respects the budget.

    Bisection keeps the feasible (high) end of the bracket, so the returned
    policy always satisfies K <= p_bar. When even the beta_floor probe is
    feasible the constraint is inactive and beta_star is reported as 0.
    """
    p_bar = model.params.p_bar
    k_tol = _k_tolerance(cfg, model)
    probe = _prober if _prober is not None else _Prober(cfg, model, actions)

    hi = max(cfg.beta_init, cfg.beta_floor)
    pol_hi, ev_hi = probe(hi)
    if ev_hi.mean_grid_k > p_bar + k_tol:
        raise BudgetInfeasibleError(
            f"K={ev_hi.mean_grid_k:.6g} > p_bar={p_bar:.6g} at beta_init={hi:.6g}; "
            f"raise beta_init")

    lo = cfg.beta_floor
    pol_lo, ev_lo = probe(lo)
    if ev_lo.mean_grid_k <= p_bar + 1e-15:
        # constraint inactive: the (essentially) unpriced optimum already fits
        return BetaSearchResult(beta_star=0.0, policy=pol_lo, evaluation=ev_lo,
                                trace=probe.trace)

    best = (hi, pol_hi, ev_hi)
    for _ in range(cfg.max_outer_iters):
        if hi - lo <= cfg.beta_rel_tol * max(hi, 1.0):
            break
        mid = 0.5 * (lo + hi)
        pol_mid, ev_mid = probe(mid)
        if ev_mid.mean_grid_k <= p_bar:
            hi, best = mid, (mid, pol_mid, ev_mid)
            if abs(ev_mid.mean_grid_k - p_bar) <= k_tol:
                break
        else:
            lo = mid
    beta_star, policy, ev = best
    return BetaSearchResult(beta_star=beta_star, policy=policy, evaluation=ev,
                            trace=probe.trace)


def solve_constrained(cfg: ConstrainedSolverConfig, model: Model,
                      actions: ActionSpace | None = None) -> ConstrainedSolution:
    """Full budgeted solve: multiplier search, then (if the budget is not met
    exactly) a two-policy mixture whose coin weight interpolates the budget.

    xi is the probability of the beta-plus policy (the feasible, lower-power
    side): xi*K+ + (1-xi)*K- = p_bar. The perturbation nu is doubled up to
    widen_retries times; every straddling pair found along the way is turned
    into a mixture and re-evaluated exactly (the coin reshapes the stationary
    law, so the achieved K is not the linear interpolation). The candidate
    with the smallest |K - p_bar| wins; it must sit within k_tolerance, else
    the search reports the best residual it could reach.
    """
    p_bar = model.params.p_bar
    k_tol = _k_tolerance(cfg, model)
    probe = _Prober(cfg, model, actions)
    search = beta_star_search(cfg, model, actions, _prober=probe)
    ev_star = search.evaluation

    if abs(ev_star.mean_grid_k - p_bar) <= k_tol or search.beta_star == 0.0:
        return ConstrainedSolution(
            kind="single", policy=search.policy, beta_star=search.beta_star,
            evaluation=ev_star, achieved_b=ev_star.mean_queue_b,
            achieved_k=ev_star.mean_grid_k, trace=probe.trace)

    nu = cfg.nu if cfg.nu is not None else max(0.01 * search.beta_star, cfg.nu_floor)
    best: ConstrainedSolution | None = None
    straddles = 0
    for _ in range(cfg.widen_retries + 1):
        beta_plus = search.beta_star + nu
        beta_minus = max(search.beta_star - nu, cfg.beta_floor)
        pol_p, ev_p = probe(beta_plus)
        pol_m, ev_m = probe(beta_minus)
        k_p, k_m = ev_p.mean_grid_k, ev_m.mean_grid_k
        if k_p <= p_bar < k_m:
            straddles += 1
            xi = (k_m - p_bar) / (k_m - k_p)
            mixed = MixedPolicy(policy_plus=pol_p, policy_minus=pol_m, xi=xi)
            ev_mix = evaluate_policy(mixed, search.beta_star, model,
                                     actions=probe.actions)
            cand = ConstrainedSolution(
                kind="mixed", policy=mixed, beta_star=search.beta_star,
                evaluation=ev_mix, achieved_b=ev_mix.mean_queue_b,
                achieved_k=ev_mix.mean_grid_k, trace=probe.trace, xi=xi,
                nu_used=nu, beta_plus=beta_plus, beta_minus=beta_minus,
                eval_plus=ev_p, eval_minus=ev_m)
            if best is None or (abs(cand.achieved_k - p_bar)
                                < abs(best.achieved_k - p_bar)):
                best = cand
            if abs(best.achieved_k - p_bar) <= k_tol:
                return best
        elif beta_minus <= cfg.beta_floor and k_m <= p_bar:
            break  # the whole multiplier axis below is feasible; no straddle exists
        nu *= 2.0

    if best is not None:
        if abs(best.achieved_k - p_bar) <= k_tol:
            return best
        raise ConstrainedSearchError(
            f"every straddling mixture misses the budget: best |K - p_bar| = "
            f"{abs(best.achieved_k - p_bar):.6g} > k_tolerance = {k_tol:.6g} "
            f"({straddles} straddles around beta_star={search.beta_star:.6g}); "
            f"widen k_tolerance or adjust nu")
    raise ConstrainedSearchError(
        f"could not bracket the budget around beta_star={search.beta_star:.6g} "
        f"after {cfg.widen_retries + 1} perturbation retries (final nu={nu:.3g})")
