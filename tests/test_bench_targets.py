"""The benchmark's traced run wraps package functions by (module, name); a
rename or deletion in the package must fail here, not silently in the trace."""

import importlib
import pkgutil
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


def test_typed_refusals_are_benchmark_program_errors(monkeypatch):
    # the benchmark scores a typed refusal as an error and anything else as
    # a wrong output: every error class of the package that the CLI exits 2
    # or 3 on must be one of its PROGRAM_ERRORS
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads = importlib.import_module("workloads")
    ehsched = importlib.import_module("ehsched")
    cli = importlib.import_module("ehsched.cli")
    modules = [importlib.import_module(f"ehsched.{info.name}")
               for info in pkgutil.iter_modules(ehsched.__path__)
               if info.name != "__main__"]  # importing it runs the CLI
    classes = {obj for module in modules for obj in vars(module).values()
               if isinstance(obj, type) and issubclass(obj, Exception)
               and obj.__module__.startswith("ehsched.")}
    typed = {cls for cls in classes if cli._exit_code(cls.__new__(cls)) in (2, 3)}
    assert ehsched.PolicyDomainError in typed
    assert sorted(cls.__name__ for cls in typed
                  if not issubclass(cls, workloads.PROGRAM_ERRORS)) == []
