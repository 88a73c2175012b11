"""The benchmark's traced run wraps package functions by (module, name); a
rename or deletion in the package must fail here, not silently in the trace."""

import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_traced_targets_resolve(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    layers = importlib.import_module("layers")
    for module, attr, _span, _post in layers.TARGETS:
        assert callable(getattr(importlib.import_module(module), attr)), (module, attr)
    # constrained.probes counts the solves made through this imported name
    constrained = importlib.import_module("ehsched.constrained")
    assert constrained.relative_value_iteration is importlib.import_module(
        "ehsched.mdp").relative_value_iteration


def test_config_fields_read_at_run_time_resolve():
    # the exact-engine checks read the solve's epsilon and the budget
    # tolerance off the package's config classes
    ehsched = importlib.import_module("ehsched")
    for cfg, field in ((ehsched.SolverConfig(beta=1.0), "epsilon"),
                       (ehsched.ConstrainedSolverConfig(), "k_tolerance")):
        assert hasattr(cfg, field), (type(cfg).__name__, field)
