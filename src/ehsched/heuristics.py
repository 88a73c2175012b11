"""Closed-form baseline policies and the rate-only reduced solve.

Three baselines: radical (serve everything), conservative (cap the rate so the
slot's grid draw stays within the budget), and their per-slot randomization
calibrated so the average grid power meets the budget. All three spend the
battery greedily. The reduced solve optimizes the rate alone with the battery
draw forced greedy, collapsing the two-dimensional action to one.

A baseline is data: make_heuristic returns a Baseline, the params it was
built for and the probability of playing radical in a slot (1 radical, 0
conservative, xi mixed). run_simulation runs it, on a model with the same
params only, from two small integer tables built once per model: the greedy
draw cap per (channel level, rate) (Model.cap_table) and the conservative
rate per (channel level, battery level) (Model.rate_table, from
conservative_rate_table). conservative_policy and greedy_battery are the
per-state form of the same rules; TablePolicy.from_callable turns them into
a table for exact evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mdp import SolveResult, SolverConfig, build_action_space, relative_value_iteration
from .model import (
    Action,
    ConfigError,
    Model,
    ModelParams,
    SystemState,
    battery_draw_cap_quanta,
    conservative_rate_table,
    power_inverse,
)

VALID_KINDS = ("radical", "conservative", "mixed")


@dataclass(frozen=True)
class HeuristicKind:
    kind: str
    xi: float | None = None  # probability of playing radical (mixed only)

    def __post_init__(self):
        if self.kind not in VALID_KINDS:
            raise ConfigError(f"kind must be one of {VALID_KINDS}")
        if self.kind == "mixed":
            if self.xi is None or not 0.0 <= self.xi <= 1.0:
                raise ConfigError("mixed policy needs xi in [0, 1]")
        elif self.xi is not None:
            raise ConfigError(f"xi applies to the mixed policy only, not "
                              f"{self.kind}")


@dataclass(frozen=True)
class Baseline:
    """A baseline as run_simulation runs it: the params it was built for and
    the probability of playing radical in a slot, conservative otherwise."""

    params: ModelParams
    weight: float

    def __post_init__(self):
        if not 0.0 <= self.weight <= 1.0:
            raise ConfigError(f"baseline weight must be in [0, 1], got "
                              f"{self.weight!r}")


def greedy_battery(x: SystemState, r: int, params: ModelParams) -> float:
    """Largest grid-valued battery draw: floor of min(e_b/tau, P(x,r))."""
    ib = int(round(x.e_b / params.delta_e))
    wq = battery_draw_cap_quanta(params, x.h, r, ib, restrict=True)
    return wq * params.delta_e / params.tau


def conservative_policy(x: SystemState, params: ModelParams) -> Action:
    """Largest rate whose grid draw stays within the slot budget p_bar.

    The battery is spent greedily, so the grid pays at most p_bar plus one
    w-grid quantum (the flooring residue).
    """
    r = min(x.q, power_inverse(params, x.h, params.p_bar + x.e_b / params.tau))
    return Action(r, greedy_battery(x, r, params))


def mixing_weight(g_radical: float, g_conservative: float, p_bar: float) -> float:
    """Weight xi solving xi*G_r + (1-xi)*G_c = p_bar, clipped to [0, 1]."""
    if g_radical <= p_bar:
        return 1.0
    if abs(g_radical - g_conservative) < 1e-12:
        return 0.0
    return float(np.clip((p_bar - g_conservative) / (g_radical - g_conservative),
                         0.0, 1.0))


@dataclass
class CalibrationResult:
    xi: float
    g_radical: float
    g_conservative: float
    feasible: bool  # False when even the conservative baseline overshoots p_bar


def calibrate_xi(model: Model, sim_cfg, p_bar: float | None = None,
                 sample=None) -> CalibrationResult:
    """Measure G_r and G_c by simulation on one sample of the exogenous
    paths (common random numbers) and interpolate the mixing weight.

    sample: the run's sample_paths(model, sim_cfg), when the caller has
    drawn it already; drawn here when None."""
    # local: sim imports Baseline, HeuristicKind, make_heuristic and
    # mixing_weight from this module, so a module-level import here would be
    # circular
    from .sim import run_simulation, sample_paths

    if p_bar is None:
        p_bar = model.params.p_bar
    if sample is None:
        sample = sample_paths(model, sim_cfg)
    res_r = run_simulation(make_heuristic(HeuristicKind("radical"), model),
                           model, sim_cfg, sample=sample)
    res_c = run_simulation(make_heuristic(HeuristicKind("conservative"), model),
                           model, sim_cfg, sample=sample)
    g_r, g_c = res_r.mean_grid_power, res_c.mean_grid_power
    xi = mixing_weight(g_r, g_c, p_bar)
    return CalibrationResult(xi=xi, g_radical=g_r, g_conservative=g_c,
                             feasible=min(g_r, g_c) <= p_bar)


def make_heuristic(kind: HeuristicKind, model: Model) -> Baseline:
    """The baseline of the given kind for the model's params: weight 1 for
    radical, 0 for conservative, xi for mixed."""
    if kind.kind == "mixed":
        return Baseline(model.params, kind.xi)
    return Baseline(model.params, 1.0 if kind.kind == "radical" else 0.0)


def solve_reduced_rate_mdp(beta: float, model: Model, epsilon: float = 1e-9) -> SolveResult:
    """Average-cost solve over the rate alone, battery draw forced greedy.

    Each (state, rate) pair's draw window is the one greedy draw
    min(e_b, cap[h, r]) (build_action_space with greedy_draw), so the solve
    chooses among the rates only. Returns the usual SolveResult; its policy
    is a full (r, w) table with w = greedy_battery(x, r*(x)).
    """
    actions = build_action_space(model, greedy_draw=True)
    return relative_value_iteration(SolverConfig(beta=beta, epsilon=epsilon),
                                    model, actions=actions)
