import csv
import json
from pathlib import Path

import pytest

from ehsched import mdp, sim
from ehsched.cli import main
from ehsched.sim import PolicyDomainError

DESK_CONFIG = Path(__file__).resolve().parents[1] / "configs" / "desk.json"


def run(*argv):
    return main([str(a) for a in argv])


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


def test_solve_writes_expected_artifacts(tmp_path):
    out = tmp_path / "run"
    assert run("solve", "--config", DESK_CONFIG, "--out", out, "--beta", "1.0") == 0
    for name in ("policy.csv", "eval.json", "solve_trace.csv", "manifest.json"):
        assert (out / name).exists()

    ev = read_json(out / "eval.json")
    assert ev["gain"] == pytest.approx(ev["mean_queue_b"] + ev["mean_grid_k"], abs=1e-8)
    assert ev["n_evaluations"] >= 1 and ev["n_iters"] >= 1

    with open(out / "policy.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 200
    assert {"state", "q", "h", "a", "e_b", "e", "r", "w", "value"} <= set(rows[0])

    manifest = read_json(out / "manifest.json")
    assert manifest["subcommand"] == "solve"
    assert manifest["config"]["params"]["q_max"] == 4
    assert "manifest.json" in manifest["artifacts"]


def test_solve_is_byte_reproducible(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert run("solve", "--config", DESK_CONFIG, "--out", out) == 0
    for name in ("policy.csv", "eval.json", "solve_trace.csv"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_simulate_same_seed_is_byte_identical(tmp_path):
    out = tmp_path / "run"
    argv = ("simulate", "--config", DESK_CONFIG, "--out", out,
            "--seed", 7, "--policy", "radical", "--n-slots", 20000)
    assert run(*argv) == 0
    first = {n: (out / n).read_bytes() for n in ("sim.json", "manifest.json")}
    assert run(*argv) == 0
    for name, blob in first.items():
        assert (out / name).read_bytes() == blob


def test_short_simulation_writes_strict_json(tmp_path):
    # one measured slot has no batch standard error: it is written as null,
    # not as the NaN that strict JSON parsers reject
    out = tmp_path / "run"
    assert run("simulate", "--config", DESK_CONFIG, "--out", out,
               "--policy", "conservative", "--n-slots", 10, "--warmup", 9) == 0

    def refuse(name):
        raise ValueError(f"non-standard JSON constant {name}")

    parsed = {name: json.loads((out / name).read_text(), parse_constant=refuse)
              for name in ("sim.json", "manifest.json")}
    assert parsed["sim.json"]["mean_queue_se"] is None
    assert parsed["sim.json"]["mean_grid_power_se"] is None


def test_simulate_constrained_optimal_reports_multiplier(tmp_path):
    out = tmp_path / "run"
    assert run("simulate", "--config", DESK_CONFIG, "--out", out,
               "--policy", "optimal", "--constrained", "--n-slots", 5000) == 0
    summary = read_json(out / "sim.json")
    assert summary["policy"] == "optimal"
    assert "beta_star" in summary


def test_solve_constrained_reports_probes(tmp_path):
    out = tmp_path / "run"
    assert run("solve", "--config", DESK_CONFIG, "--out", out, "--constrained",
               "--set", "params.p_bar=0.12") == 0
    ev = read_json(out / "eval.json")
    assert ev["kind"] == "mixed"
    assert ev["n_probes"] <= 12
    assert ev["n_evaluations"] > 0
    assert "nu_used" not in ev


def test_sweep_arrival_writes_rows(tmp_path):
    out = tmp_path / "run"
    assert run("sweep", "--config", DESK_CONFIG, "--out", out,
               "--axis", "arrival", "--points", "0.5,1.0", "--policy", "radical",
               "--n-slots", "5000") == 0
    with open(out / "sweep_arrival.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["abar"] for r in rows] == ["0.5", "1"]


def test_sweep_manifest_names_the_baselines_run(tmp_path):
    for axis, policy in (("arrival", "radical"), ("channel",
                         ["radical", "conservative", "mixed"])):
        out = tmp_path / axis
        assert run("sweep", "--config", DESK_CONFIG, "--out", out,
                   "--axis", axis, "--points", "0.5", "--n-slots", "1000") == 0
        assert read_json(out / "manifest.json")["policy"] == policy


def test_calibrated_mixed_simulation_samples_its_paths_once(tmp_path,
                                                           monkeypatch):
    calls = []
    sample_paths = sim.sample_paths

    def counted(*args, **kwargs):
        calls.append(args)
        return sample_paths(*args, **kwargs)

    monkeypatch.setattr(sim, "sample_paths", counted)
    assert run("simulate", "--config", DESK_CONFIG, "--out", tmp_path,
               "--policy", "mixed", "--n-slots", 5000) == 0
    assert len(calls) == 1
    assert "g_radical" in read_json(tmp_path / "sim.json")


def test_malformed_transition_row_fails_validation(tmp_path):
    cfg = read_json(DESK_CONFIG)
    cfg["channel"]["transition"] = [[0.7, 0.2], [0.4, 0.6]]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(cfg))
    out = tmp_path / "run"
    assert run("solve", "--config", bad, "--out", out) == 2
    err = read_json(out / "error.json")
    assert err["error"] == "ConfigError"
    assert "row 0" in err["message"]


@pytest.mark.parametrize("argv, message", [
    (("solve", "--beta", "-1"), "beta must be >= 0"),
    (("simulate", "--policy", "mixed", "--xi", "2", "--n-slots", "100"),
     "mixed policy needs xi in [0, 1]"),
    (("simulate", "--policy", "radical", "--xi", "0.5", "--n-slots", "100"),
     "xi applies to the mixed policy only, not radical"),
    (("simulate", "--policy", "optimal", "--xi", "0.5", "--n-slots", "100"),
     "xi applies to the mixed policy only, not optimal"),
    (("simulate", "--policy", "radical", "--constrained", "--n-slots", "100"),
     "constrained applies to the optimal policy only, not radical"),
    (("sweep", "--axis", "channel", "--points", "0.5", "--policy",
      "conservative", "--n-slots", "100"),
     "--policy applies to the arrival and budget axes only"),
    (("sweep", "--axis", "channel", "--points", "0.5", "--n-levels", "0",
      "--n-slots", "100"), "n_levels must be at least 1"),
    (("sweep", "--axis", "arrival", "--points", "0.5,x", "--n-slots", "100"),
     "--points needs a comma-separated list of finite numbers"),
    (("sweep", "--axis", "arrival", "--points", "nan", "--n-slots", "100"),
     "--points needs a comma-separated list of finite numbers"),
    (("sweep", "--axis", "budget", "--points", "0.1,inf", "--n-slots", "100"),
     "--points needs a comma-separated list of finite numbers"),
    (("sweep", "--axis", "channel", "--points", "nan", "--n-slots", "100"),
     "--points needs a comma-separated list of finite numbers"),
    (("solve", "--constrained", "--set", "params.p_bar=NaN"),
     "p_bar must be finite, got nan"),
    (("solve", "--set", "params.tau=NaN"), "tau must be finite, got nan"),
    (("solve", "--set", "params.circuit_c=Infinity"),
     "circuit_c must be finite, got inf"),
    (("solve", "--set", "channel.values=[NaN,1.4]"),
     "channel: chain levels must be finite, got (nan, 1.4)"),
    (("solve", "--set", "channel.transition=[[NaN,0.3],[0.4,0.6]]"),
     "channel: transition probabilities must be finite"),
    (("solve", "--set", "restrict_w_to_power=no"),
     "restrict_w_to_power must be true or false, got 'no'"),
    (("sweep", "--axis", "arrival", "--points", "0.5", "--n-levels", "8",
      "--n-slots", "100"), "--n-levels applies to the channel axis only"),
    (("simulate", "--policy", "radical", "--beta", "5", "--n-slots", "100"),
     "beta applies to the optimal policy only, not radical"),
    (("solve", "--constrained", "--beta", "3"),
     "beta applies to the unconstrained solve only, not constrained"),
    (("simulate", "--policy", "optimal", "--constrained", "--beta", "3",
      "--n-slots", "100"),
     "beta applies to the unconstrained solve only, not constrained"),
    (("sweep", "--axis", "budget", "--points", "0.1", "--n-workers", "0",
      "--n-slots", "100"), "n_workers must be at least 1, got 0"),
], ids=["negative-beta", "xi-above-one", "xi-on-radical", "xi-on-optimal",
        "constrained-on-radical", "policy-on-channel-axis",
        "no-channel-levels",
        "points-not-a-number", "points-nan-arrival", "points-inf-budget",
        "points-nan-channel", "nan-budget", "nan-slot-length",
        "inf-circuit-power", "nan-channel-level", "nan-transition-entry",
        "non-boolean-restrict", "levels-on-arrival-axis", "beta-on-radical",
        "beta-on-constrained-solve", "beta-on-constrained-simulate",
        "no-sweep-workers"])
def test_bad_arguments_fail_validation(tmp_path, argv, message):
    out = tmp_path / "run"
    assert run(*argv, "--config", DESK_CONFIG, "--out", out) == 2
    err = read_json(out / "error.json")
    assert err["error"] == "ConfigError"
    assert err["message"] == message


def test_multichain_model_exits_three(tmp_path):
    out = tmp_path / "run"
    assert run("solve", "--config", DESK_CONFIG, "--out", out,
               "--set", "channel.transition=[[1,0],[0,1]]") == 3
    err = read_json(out / "error.json")
    assert err["error"] == "MultichainError"
    assert "channel" in err["message"]


def test_override_must_reference_existing_key(tmp_path):
    out = tmp_path / "run"
    assert run("solve", "--config", DESK_CONFIG, "--out", out,
               "--set", "params.nonsense=1") == 2
    assert run("solve", "--config", DESK_CONFIG, "--out", out,
               "--set", "params.q_max=3") == 0
    manifest = read_json(out / "manifest.json")
    assert manifest["config"]["params"]["q_max"] == 3
    assert manifest["overrides"] == ["params.q_max=3"]


def test_verify_passes_on_desk(tmp_path, capsys):
    out = tmp_path / "run"
    assert run("verify", "--config", DESK_CONFIG, "--out", out) == 0
    reports = read_json(out / "certificates.json")
    assert len(reports) == 9
    assert all(r["status"] in ("pass", "not-applicable") for r in reports)
    assert "policy-monotonicity" in capsys.readouterr().out


def test_verify_exit_code_flags_certificate_failure(tmp_path, capsys):
    # coarsening the battery grid to 0.5 puts a quantization kink in the
    # value table, which the convexity certificate must catch
    cfg = read_json(DESK_CONFIG)
    cfg["params"]["delta_e"] = 0.5
    coarse = tmp_path / "coarse.json"
    coarse.write_text(json.dumps(cfg))
    out = tmp_path / "run"
    assert run("verify", "--config", coarse, "--out", out) == 4
    reports = {r["name"]: r for r in read_json(out / "certificates.json")}
    assert reports["value-convex-in-backlog-battery"]["status"] == "fail"


def test_policy_domain_error_exits_two(tmp_path, monkeypatch):
    def fail(*args, **kwargs):
        raise PolicyDomainError("action (3, 0.0) infeasible at state 17")

    monkeypatch.setattr(sim, "run_simulation", fail)
    out = tmp_path / "run"
    assert run("simulate", "--config", DESK_CONFIG, "--out", out,
               "--policy", "radical", "--n-slots", 100) == 2
    err = read_json(out / "error.json")
    assert err == {"error": "PolicyDomainError",
                   "message": "action (3, 0.0) infeasible at state 17"}


def test_instance_too_large_exits_two(tmp_path, monkeypatch):
    # desk's 600 (state, rate) pairs over a lowered limit: the build raises
    # before it makes any pair array
    monkeypatch.setattr(mdp, "MAX_PAIR_BYTES", 1000)
    out = tmp_path / "run"
    assert run("solve", "--config", DESK_CONFIG, "--out", out) == 2
    err = read_json(out / "error.json")
    assert err == {"error": "InstanceTooLargeError",
                   "message": f"600 (state, rate) pairs would take "
                              f"{600 * mdp.PAIR_BYTES} bytes, over the limit of 1000"}
