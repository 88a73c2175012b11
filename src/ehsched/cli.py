"""Command-line front end: solve, simulate, sweep, verify.

Every run resolves its configuration (JSON file + --set overrides), writes
its artifacts into --out, and finishes with a manifest.json echoing the
resolved config, seed and artifact list — enough to reproduce the run
bit-exactly. Exit codes: 0 success, 2 validation (also a policy that has no
feasible action at a state the simulator reached, and an instance too large
to build), 3 non-convergence (also a multichain model, whose long-run
averages depend on the start state), 4 certificate failure. Every typed
error also lands in --out as error.json.

Only `model` is imported with this module, since every command loads a
model. Each command imports the modules it runs when it runs, so a sweep or
a baseline simulation loads neither the constrained search nor the
certificates. The typed errors' classes are imported only once an exception
arrives, to map it to its exit code.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

from .model import ConfigError, load_model

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NO_CONVERGENCE = 3
EXIT_CERTIFICATE = 4

FORMAT_VERSION = 1


def apply_overrides(cfg: dict, assignments: list[str]) -> dict:
    """--set key=value with dotted paths; the key must already exist.

    Values parse as JSON when possible (numbers, lists, booleans), otherwise
    they stay strings.
    """
    for item in assignments:
        path, sep, raw = item.partition("=")
        if not sep:
            raise ConfigError(f"--set needs key=value, got {item!r}")
        keys = path.split(".")
        node = cfg
        for k in keys[:-1]:
            if not isinstance(node, dict) or k not in node:
                raise ConfigError(f"--set {path}: no such config section {k!r}")
            node = node[k]
        leaf = keys[-1]
        if not isinstance(node, dict) or leaf not in node:
            raise ConfigError(f"--set {path}: no such config key {leaf!r}")
        try:
            node[leaf] = json.loads(raw)
        except json.JSONDecodeError:
            node[leaf] = raw
    return cfg


def _load(args):
    with open(args.config) as fh:
        cfg = json.load(fh)
    cfg = apply_overrides(cfg, args.set or [])
    return load_model(cfg), cfg


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_manifest(out: Path, args, cfg: dict, artifacts: list[str],
                    extra: dict | None = None) -> None:
    from .io import write_json

    manifest = {
        "format_version": FORMAT_VERSION,
        "subcommand": args.subcommand,
        "config_path": str(args.config),
        "config": cfg,
        "out": str(args.out),
        "seed": args.seed,
        "overrides": list(args.set or []),
        "artifacts": sorted(artifacts + ["manifest.json"]),
    }
    if extra:
        manifest.update(extra)
    write_json(out / "manifest.json", manifest)


def _price(args) -> float:
    """--beta resolved: 1.0 when not given; refused where the price is
    searched for (--constrained)."""
    if args.constrained and args.beta is not None:
        raise ConfigError("beta applies to the unconstrained solve only, not "
                          "constrained")
    return 1.0 if args.beta is None else args.beta


def cmd_solve(args) -> int:
    from .io import (evaluation_dict, search_trace_rows, solve_trace_rows,
                     write_csv, write_json, write_policy_artifacts)
    from .mdp import SolverConfig, evaluate_policy, relative_value_iteration

    beta = _price(args)
    model, cfg = _load(args)
    out = _out_dir(args)
    artifacts: list[str] = []
    if args.constrained:
        from .constrained import ConstrainedSolverConfig, solve_constrained

        sol = solve_constrained(ConstrainedSolverConfig(), model)
        artifacts += write_policy_artifacts(out, sol.policy, model)
        ev = evaluation_dict(sol.evaluation)
        ev.update({"kind": sol.kind, "beta_star": sol.beta_star, "xi": sol.xi,
                   "achieved_b": sol.achieved_b, "achieved_k": sol.achieved_k,
                   "n_probes": len(sol.trace), "n_evaluations": sol.n_evaluations,
                   "beta_plus": sol.beta_plus, "beta_minus": sol.beta_minus})
        write_json(out / "eval.json", ev)
        write_csv(out / "search_trace.csv", search_trace_rows(sol.trace))
        artifacts += ["eval.json", "search_trace.csv"]
        flags = {"constrained": True}
    else:
        res = relative_value_iteration(SolverConfig(beta=beta), model)
        exact = evaluate_policy(res.policy, beta, model, actions=res.actions)
        artifacts += write_policy_artifacts(out, res.policy, model,
                                            values=res.values.values)
        ev = evaluation_dict(exact)
        ev.update({"gain": res.gain, "n_iters": res.n_iters,
                   "n_evaluations": res.n_evaluations,
                   "residual": res.residual,
                   "gain_bounds": list(res.gain_bounds)})
        write_json(out / "eval.json", ev)
        write_csv(out / "solve_trace.csv", solve_trace_rows(res))
        artifacts += ["eval.json", "solve_trace.csv"]
        flags = {"constrained": False, "beta": beta}
    _write_manifest(out, args, cfg, artifacts, flags)
    return EXIT_OK


def _simulation_policy(args, model, sim_cfg):
    """Resolve --policy into a policy; returns (policy, metadata dict,
    exogenous sample or None).

    A calibrated mixed policy returns the sample its calibration ran on, and
    the run itself reuses it (common random numbers, one sampling).
    """
    from .heuristics import HeuristicKind, calibrate_xi, make_heuristic

    if args.policy == "optimal":
        if args.xi is not None:
            raise ConfigError("xi applies to the mixed policy only, not "
                              "optimal")
        beta = _price(args)
        if args.constrained:
            from .constrained import ConstrainedSolverConfig, solve_constrained

            sol = solve_constrained(ConstrainedSolverConfig(), model)
            return sol.policy, {"kind": sol.kind, "beta_star": sol.beta_star,
                                "xi": sol.xi}, None
        from .mdp import SolverConfig, relative_value_iteration

        res = relative_value_iteration(SolverConfig(beta=beta), model)
        return res.policy, {"beta": beta}, None
    if args.constrained:
        raise ConfigError(f"constrained applies to the optimal policy only, "
                          f"not {args.policy}")
    if args.beta is not None:
        raise ConfigError(f"beta applies to the optimal policy only, not "
                          f"{args.policy}")
    if args.policy == "mixed":
        if args.xi is not None:
            return make_heuristic(HeuristicKind("mixed", xi=args.xi), model), \
                {"xi": args.xi}, None
        from .sim import sample_paths

        sample = sample_paths(model, sim_cfg)
        cal = calibrate_xi(model, sim_cfg, sample=sample)
        meta = {"xi": cal.xi, "g_radical": cal.g_radical,
                "g_conservative": cal.g_conservative,
                "calibration_feasible": cal.feasible}
        return make_heuristic(HeuristicKind("mixed", xi=cal.xi), model), meta, \
            sample
    return make_heuristic(HeuristicKind(args.policy, xi=args.xi), model), {}, None


def cmd_simulate(args) -> int:
    from .io import sim_result_dict, write_csv, write_json
    from .sim import SimConfig, run_simulation

    model, cfg = _load(args)
    out = _out_dir(args)
    sim_cfg = SimConfig(n_slots=args.n_slots, seed=args.seed,
                        warmup=args.warmup, record_trace=args.trace)
    policy, meta, sample = _simulation_policy(args, model, sim_cfg)
    res = run_simulation(policy, model, sim_cfg, sample=sample)
    summary = sim_result_dict(res)
    summary["policy"] = args.policy
    summary.update(meta)
    write_json(out / "sim.json", summary)
    artifacts = ["sim.json"]
    if args.trace:
        write_csv(out / "sim_trace.csv",
                  {"slot": range(res.n_slots), **res.trace})
        artifacts.append("sim_trace.csv")
    _write_manifest(out, args, cfg, artifacts,
                    {"policy": args.policy, "n_slots": args.n_slots})
    return EXIT_OK


def cmd_sweep(args) -> int:
    from .heuristics import VALID_KINDS
    from .io import write_csv
    from .sim import SimConfig, sweep_arrival, sweep_budget, sweep_channel

    model, cfg = _load(args)
    out = _out_dir(args)
    try:
        points = [float(p) for p in args.points.split(",") if p.strip()]
    except ValueError:
        points = []
    if not points or not all(map(math.isfinite, points)):
        raise ConfigError("--points needs a comma-separated list of finite "
                          "numbers")
    sim_cfg = SimConfig(n_slots=args.n_slots, seed=args.seed)
    if args.axis == "channel":
        if args.policy is not None:
            raise ConfigError("--policy applies to the arrival and budget axes only")
        policy = list(VALID_KINDS)
        n_levels = 8 if args.n_levels is None else args.n_levels
        rows = sweep_channel(model, points, VALID_KINDS, sim_cfg,
                             n_levels=n_levels, n_workers=args.n_workers)
    else:
        if args.n_levels is not None:
            raise ConfigError("--n-levels applies to the channel axis only")
        policy = args.policy or "radical"
        sweep = sweep_arrival if args.axis == "arrival" else sweep_budget
        rows = sweep(model, points, policy, sim_cfg, n_workers=args.n_workers)
    name = f"sweep_{args.axis}.csv"
    write_csv(out / name, rows)
    _write_manifest(out, args, cfg, [name],
                    {"axis": args.axis, "points": points,
                     "policy": policy, "n_slots": args.n_slots})
    return EXIT_OK


def cmd_verify(args) -> int:
    from .verify import any_hard_failure, format_reports, reports_to_json, run_all_checks

    model, cfg = _load(args)
    out = _out_dir(args)
    reports = run_all_checks(model, beta=args.beta, alpha=args.alpha,
                             epsilon=args.epsilon)
    (out / "certificates.json").write_text(reports_to_json(reports))
    table = format_reports(reports)
    (out / "certificates.txt").write_text(table + "\n")
    print(table)
    _write_manifest(out, args, cfg, ["certificates.json", "certificates.txt"],
                    {"beta": args.beta, "alpha": args.alpha})
    return EXIT_CERTIFICATE if any_hard_failure(reports) else EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    from .heuristics import VALID_KINDS

    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--config", required=True, help="model config JSON")
    shared.add_argument("--out", required=True, help="artifact directory")
    shared.add_argument("--seed", type=int, default=0)
    shared.add_argument("--set", action="append", metavar="KEY=VALUE",
                        help="override a config key (dotted path)")

    parser = argparse.ArgumentParser(
        prog="ehsched",
        description="Solve, simulate and certify grid-assisted "
                    "energy-harvesting transmission schedules.")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p_solve = sub.add_parser("solve", parents=[shared],
                             help="solve for an optimal policy")
    p_solve.add_argument("--beta", type=float, default=None,
                         help="grid-power price (unconstrained solve, "
                              "default 1.0)")
    p_solve.add_argument("--constrained", action="store_true",
                         help="meet the configured power budget p_bar")
    p_solve.set_defaults(func=cmd_solve)

    p_sim = sub.add_parser("simulate", parents=[shared],
                           help="roll a policy forward under the chains")
    p_sim.add_argument("--policy", default="optimal",
                       choices=("optimal", "radical", "conservative", "mixed"))
    p_sim.add_argument("--beta", type=float, default=None,
                       help="grid-power price (unconstrained optimal policy, "
                            "default 1.0)")
    p_sim.add_argument("--constrained", action="store_true")
    p_sim.add_argument("--xi", type=float, default=None,
                       help="fixed mixing weight (skip calibration)")
    p_sim.add_argument("--n-slots", type=int, default=100_000)
    p_sim.add_argument("--warmup", type=int, default=None)
    p_sim.add_argument("--trace", action="store_true",
                       help="also write the per-slot trace CSV")
    p_sim.set_defaults(func=cmd_simulate)

    p_sweep = sub.add_parser("sweep", parents=[shared],
                             help="simulate over a parameter grid")
    p_sweep.add_argument("--axis", required=True,
                         choices=("arrival", "budget", "channel"))
    p_sweep.add_argument("--points", required=True,
                         help="comma-separated sweep values")
    p_sweep.add_argument("--policy", choices=VALID_KINDS,
                         help="arrival and budget axes (default radical)")
    p_sweep.add_argument("--n-slots", type=int, default=100_000)
    p_sweep.add_argument("--n-levels", type=int, default=None,
                         help="channel quantizer levels (channel axis, "
                              "default 8)")
    p_sweep.add_argument("--n-workers", type=int, default=1)
    p_sweep.set_defaults(func=cmd_sweep)

    p_verify = sub.add_parser("verify", parents=[shared],
                              help="run the structural certificates")
    p_verify.add_argument("--beta", type=float, default=1.0)
    p_verify.add_argument("--alpha", type=float, default=0.999)
    p_verify.add_argument("--epsilon", type=float, default=1e-9)
    p_verify.set_defaults(func=cmd_verify)
    return parser


def _exit_code(exc: Exception) -> int | None:
    """The exit code of a typed error, None for any other exception.

    The error classes are imported only here, once an exception has arrived.
    """
    from .constrained import BudgetInfeasibleError, ConstrainedSearchError
    from .mdp import InstanceTooLargeError, MultichainError, NonConvergenceError
    from .model import CapacityError, PolicyDomainError

    if isinstance(exc, (ConfigError, CapacityError, BudgetInfeasibleError,
                        PolicyDomainError, InstanceTooLargeError,
                        FileNotFoundError, json.JSONDecodeError)):
        return EXIT_VALIDATION
    if isinstance(exc, (NonConvergenceError, ConstrainedSearchError,
                        MultichainError)):
        return EXIT_NO_CONVERGENCE
    return None


def _report_error(args, exc: Exception) -> None:
    from .io import dump_json, write_json

    payload = {"error": type(exc).__name__, "message": str(exc)}
    sys.stderr.write(dump_json(payload))
    try:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        write_json(out / "error.json", payload)
    except OSError:
        pass


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:
        code = _exit_code(exc)
        if code is None:
            raise
        _report_error(args, exc)
        return code


if __name__ == "__main__":
    sys.exit(main())
