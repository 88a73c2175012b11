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
