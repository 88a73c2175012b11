"""Scheduling for an energy-harvesting transmitter.

Solvers (average-cost and discounted value iteration, constrained search),
structural certificates, baseline heuristics and a slot-level simulator for a
buffered link that splits transmit power between a harvesting battery and the
grid.

Importing the package loads none of its modules. Each public name below is
imported from its module on first access (PEP 562), so a process pays only
for the modules it uses; `from ehsched import X`, `ehsched.X` and
`import ehsched.<module>` work as they would with eager imports.
"""

import importlib

_EXPORTS = {
    "constrained": (
        "BudgetInfeasibleError", "ConstrainedSearchError", "ConstrainedSolution",
        "ConstrainedSolverConfig", "beta_star_search", "solve_constrained",
    ),
    "heuristics": (
        "Baseline", "CalibrationResult", "HeuristicKind", "calibrate_xi",
        "conservative_policy", "greedy_battery", "make_heuristic",
        "mixing_weight", "solve_reduced_rate_mdp",
    ),
    "mdp": (
        "ActionSpace", "MixedPolicy", "NonConvergenceError", "PolicyEvaluation",
        "SolveResult", "SolverConfig", "TablePolicy", "ValueTable",
        "brute_force_solve", "build_action_space", "discounted_value_iteration",
        "evaluate_policy", "relative_value_iteration",
    ),
    "model": (
        "Action", "CapacityError", "ConfigError", "MarkovChainSpec", "Model",
        "ModelParams", "StateSpace", "SystemState", "load_model",
        "model_to_config", "power_inverse", "required_power",
    ),
    "sim": (
        "PolicyDomainError", "SimConfig", "SimResult", "discretize_rayleigh",
        "run_simulation", "sweep_arrival", "sweep_budget", "sweep_channel",
    ),
    "verify": (
        "CertificateReport", "check_beta_monotonicity", "check_greedy_regimes",
        "check_necessary_conditions", "check_no_overflow_waste",
        "check_policy_monotonicity", "check_special_states", "check_value_shape",
        "format_reports", "run_all_checks",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)

__version__ = "0.1.0"


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # not cached here: a name patched in its module reads patched here too
    return getattr(importlib.import_module(f".{module}", __name__), name)


def __dir__():
    return sorted({*globals(), *__all__})
