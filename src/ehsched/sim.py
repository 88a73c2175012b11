"""Seeded Monte-Carlo rollout of any scheduling policy, plus sweep runners.

The three exogenous chains are stepped from independent substreams of one
counter-based generator (Philox), so runs are bit-reproducible and every
sweep point / policy kind sees the same random numbers — differences between
curves are then policy effects, not sampling noise. The slot loop mirrors the
solver's transition convention exactly: the current state already carries the
arrival and harvest that land this slot, and the chains advance afterwards.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .heuristics import HeuristicKind, calibrate_xi, make_heuristic, mixing_weight
from .mdp import MixedPolicy, TablePolicy
from .model import (
    GRID_EPS,
    ConfigError,
    MarkovChainSpec,
    Model,
    SystemState,
    required_power,
)


class PolicyDomainError(RuntimeError):
    """The policy produced no feasible action at a state the rollout reached."""

    def __init__(self, message: str, state: SystemState | None = None):
        super().__init__(message)
        self.state = state


@dataclass(frozen=True)
class SimConfig:
    """Rollout horizon and bookkeeping.

    warmup=None discards the first 1% of the horizon (the rollout starts from
    an empty buffer and an empty battery, so the early slots are transient).
    Standard errors come from non-overlapping batch means over the measured
    span.
    """

    n_slots: int
    seed: int
    warmup: int | None = None
    record_trace: bool = False
    n_batches: int = 32

    def __post_init__(self):
        if self.n_slots <= 0:
            raise ConfigError("n_slots must be positive")
        if not 0 <= self.effective_warmup < self.n_slots:
            raise ConfigError("need n_slots > warmup >= 0")
        if self.n_batches < 1:
            raise ConfigError("n_batches must be positive")

    @property
    def effective_warmup(self) -> int:
        return self.n_slots // 100 if self.warmup is None else self.warmup


@dataclass
class SimResult:
    """Long-run averages over the measured (post-warmup) span.

    overflow_fraction is the fraction of measured slots whose buffer clipped;
    overflow_rate / battery_spill_rate are the per-slot means of the clipped
    amounts, matching the exact-evaluation diagnostics. max_grid_power covers
    every simulated slot, warmup included.
    """

    mean_queue: float
    mean_grid_power: float
    overflow_fraction: float
    mean_queue_se: float
    mean_grid_power_se: float
    overflow_rate: float
    battery_spill_rate: float
    max_grid_power: float
    n_slots: int
    warmup: int
    seed: int
    trace: dict[str, np.ndarray] | None = None


def _cumulative_rows(chain: MarkovChainSpec) -> np.ndarray:
    return np.cumsum(chain.transition, axis=1)


def _sample_index(cum_row: np.ndarray, u: float) -> int:
    return min(int(np.searchsorted(cum_row, u, side="right")),
               cum_row.size - 1)


def _table_lookup(policy: TablePolicy, model: Model):
    space = model.space
    if policy.r.size != space.n_states:
        raise PolicyDomainError(
            f"policy table has {policy.r.size} states, model has "
            f"{space.n_states}")
    if abs(policy.delta_e - model.params.delta_e) > GRID_EPS:
        raise PolicyDomainError("policy and model disagree on the energy grid")
    bad = np.flatnonzero((policy.r > space.iq) | (policy.w_quanta > space.ib))
    if bad.size:
        raise PolicyDomainError(
            f"policy action infeasible at state {int(bad[0])}",
            state=space.state_of(int(bad[0])))
    return policy.r, policy.w_quanta


def _make_actor(policy, model: Model):
    """Normalize the accepted policy forms to act(q, ih, ia, ib, ie, coin).

    Accepted: TablePolicy, MixedPolicy, anything with act(state, coin), or a
    plain callable state -> Action. Returns integer (r, w_quanta).
    """
    params = model.params
    de, tau = params.delta_e, params.tau

    if isinstance(policy, TablePolicy):
        r_tab, wq_tab = _table_lookup(policy, model)
        space = model.space
        sq, sh, sa, sb = space.s_q, space.s_h, space.s_a, space.s_b

        def act(q, ih, ia, ib, ie, coin):
            i = q * sq + ih * sh + ia * sa + ib * sb + ie
            return int(r_tab[i]), int(wq_tab[i])

        return act

    if isinstance(policy, MixedPolicy):
        rp, wp = _table_lookup(policy.policy_plus, model)
        rm, wm = _table_lookup(policy.policy_minus, model)
        xi = policy.xi
        space = model.space
        sq, sh, sa, sb = space.s_q, space.s_h, space.s_a, space.s_b

        def act(q, ih, ia, ib, ie, coin):
            i = q * sq + ih * sh + ia * sa + ib * sb + ie
            if coin < xi:
                return int(rp[i]), int(wp[i])
            return int(rm[i]), int(wm[i])

        return act

    h_vals = [float(v) for v in model.channel.values]
    a_vals = [int(round(v)) for v in model.arrival.values]
    e_vals = [float(v) for v in model.harvest.values]

    if hasattr(policy, "act"):
        raw = policy.act
        takes_coin = True
    elif callable(policy):
        raw = policy
        takes_coin = False
    else:
        raise TypeError(f"unsupported policy object {type(policy).__name__}")

    def act(q, ih, ia, ib, ie, coin):
        x = SystemState(q=q, h=h_vals[ih], a=a_vals[ia], e_b=ib * de,
                        e=e_vals[ie])
        try:
            a = raw(x, coin) if takes_coin else raw(x)
        except (KeyError, IndexError, ValueError) as exc:
            raise PolicyDomainError(f"policy failed at {x}: {exc}",
                                    state=x) from exc
        if a is None:
            raise PolicyDomainError(f"policy returned no action at {x}",
                                    state=x)
        r = int(a.r)
        wq = int(round(a.w * tau / de))
        if abs(wq * de / tau - a.w) > GRID_EPS:
            raise PolicyDomainError(
                f"battery draw {a.w} is off the energy grid at {x}", state=x)
        if not 0 <= r <= q or not 0 <= wq <= ib:
            raise PolicyDomainError(f"action {a} infeasible at {x}", state=x)
        return r, wq

    return act


def _batch_se(series: np.ndarray, n_batches: int) -> float:
    nb = min(n_batches, series.size)
    if nb < 2:
        return float("nan")
    length = series.size // nb
    means = series[:nb * length].reshape(nb, length).mean(axis=1)
    return float(means.std(ddof=1) / math.sqrt(nb))


def run_simulation(policy, model: Model, cfg: SimConfig) -> SimResult:
    """Roll the system forward cfg.n_slots slots under the given policy.

    Bit-reproducible for a fixed (policy, model, cfg): the channel, arrival,
    harvest and coin streams are the four spawned substreams of
    SeedSequence(cfg.seed), in that order, and each consumes one initial
    uniform (stationary start of the chains) followed by one uniform per slot.
    The buffer and battery start empty. The coin stream is consumed every
    slot regardless of the policy kind, so deterministic and randomized
    policies see identical chain paths under the same seed.
    """
    params = model.params
    de, tau = params.delta_e, params.tau
    q_max = params.q_max
    nb_levels = params.n_battery_levels
    n = cfg.n_slots
    warmup = cfg.effective_warmup

    act = _make_actor(policy, model)

    h_vals = [float(v) for v in model.channel.values]
    a_vals = [int(round(v)) for v in model.arrival.values]
    e_vals = [float(v) for v in model.harvest.values]
    e_quanta = [int(round(v / de)) for v in model.harvest.values]
    p_tab = [[required_power(params, h, r) for r in range(q_max + 1)]
             for h in h_vals]

    streams = np.random.SeedSequence(cfg.seed).spawn(4)
    gen_h, gen_a, gen_e, gen_coin = (
        np.random.Generator(np.random.Philox(s)) for s in streams)

    cum_h, cum_a, cum_e = (_cumulative_rows(c) for c in
                           (model.channel, model.arrival, model.harvest))
    ih = _sample_index(np.cumsum(model.channel.stationary()), gen_h.random())
    ia = _sample_index(np.cumsum(model.arrival.stationary()), gen_a.random())
    ie = _sample_index(np.cumsum(model.harvest.stationary()), gen_e.random())

    u_h = gen_h.random(n)
    u_a = gen_a.random(n)
    u_e = gen_e.random(n)
    coins = gen_coin.random(n)

    q_series = np.empty(n)
    g_series = np.empty(n)
    overflow_pkts = np.zeros(n, dtype=np.int64)
    spill_quanta = np.zeros(n, dtype=np.int64)
    trace = None
    if cfg.record_trace:
        trace = {k: np.empty(n) for k in
                 ("q", "h", "a", "e_b", "e", "r", "w", "grid_power")}

    q = 0
    ib = 0
    w_scale = de / tau
    for t in range(n):
        r, wq = act(q, ih, ia, ib, ie, coins[t])
        g = p_tab[ih][r] - wq * w_scale
        if g < 0.0:
            g = 0.0
        q_series[t] = q
        g_series[t] = g
        if trace is not None:
            trace["q"][t] = q
            trace["h"][t] = h_vals[ih]
            trace["a"][t] = a_vals[ia]
            trace["e_b"][t] = ib * de
            trace["e"][t] = e_vals[ie]
            trace["r"][t] = r
            trace["w"][t] = wq * w_scale
            trace["grid_power"][t] = g

        raw_q = q - r + a_vals[ia]
        if raw_q > q_max:
            overflow_pkts[t] = raw_q - q_max
            q = q_max
        else:
            q = raw_q
        raw_b = ib - wq + e_quanta[ie]
        if raw_b > nb_levels - 1:
            spill_quanta[t] = raw_b - (nb_levels - 1)
            ib = nb_levels - 1
        else:
            ib = raw_b

        ih = _sample_index(cum_h[ih], u_h[t])
        ia = _sample_index(cum_a[ia], u_a[t])
        ie = _sample_index(cum_e[ie], u_e[t])

    if trace is not None:
        trace["overflow_pkts"] = overflow_pkts.astype(float)
        trace["spill_energy"] = spill_quanta * de

    q_meas = q_series[warmup:]
    g_meas = g_series[warmup:]
    of_meas = overflow_pkts[warmup:]
    sp_meas = spill_quanta[warmup:]
    return SimResult(
        mean_queue=float(q_meas.mean()),
        mean_grid_power=float(g_meas.mean()),
        overflow_fraction=float((of_meas > 0).mean()),
        mean_queue_se=_batch_se(q_meas, cfg.n_batches),
        mean_grid_power_se=_batch_se(g_meas, cfg.n_batches),
        overflow_rate=float(of_meas.mean()),
        battery_spill_rate=float(sp_meas.mean() * de),
        max_grid_power=float(g_series.max()),
        n_slots=n,
        warmup=warmup,
        seed=cfg.seed,
        trace=trace,
    )


# ---------------------------------------------------------------------------
# channel discretization


def discretize_rayleigh(mean_gain: float, n_levels: int) -> MarkovChainSpec:
    """Equiprobable-bin quantizer for an exponentially distributed power gain
    (Rayleigh amplitude fading).

    Each level is the conditional mean of its probability-1/n bin, so the
    quantizer preserves the mean exactly; the chain is i.i.d. with uniform
    level probabilities.
    """
    if n_levels < 1:
        raise ConfigError("n_levels must be at least 1")
    if mean_gain <= 0:
        raise ConfigError("mean_gain must be positive")
    mu = mean_gain
    # bin edges at the 1/n quantiles of Exp(mu); the partial-mean primitive
    # int_a^b x f(x) dx = (a+mu) e^{-a/mu} - (b+mu) e^{-b/mu}
    edges = [-mu * math.log1p(-k / n_levels) for k in range(n_levels)]
    edges.append(math.inf)

    def partial_mean(a: float, b: float) -> float:
        lo = (a + mu) * math.exp(-a / mu)
        hi = 0.0 if math.isinf(b) else (b + mu) * math.exp(-b / mu)
        return lo - hi

    levels = tuple(n_levels * partial_mean(edges[k], edges[k + 1])
                   for k in range(n_levels))
    return MarkovChainSpec.iid(levels, (1.0 / n_levels,) * n_levels)


# ---------------------------------------------------------------------------
# sweep runners


def _resolve_kind(policy_kind) -> HeuristicKind:
    if isinstance(policy_kind, HeuristicKind):
        return policy_kind
    if policy_kind == "mixed":
        # placeholder weight; sweeps calibrate xi per point from measured
        # radical/conservative grid draws
        return HeuristicKind("mixed", xi=0.5)
    return HeuristicKind(policy_kind)


def _measure_kind(kind: HeuristicKind, model: Model, cfg: SimConfig,
                  calibrate: bool) -> tuple[SimResult, float | None]:
    """One sweep-point measurement; returns (result, xi used or None)."""
    if kind.kind != "mixed":
        return run_simulation(make_heuristic(kind, model), model, cfg), None
    if calibrate:
        kind = HeuristicKind("mixed", xi=calibrate_xi(model, cfg).xi)
    return run_simulation(make_heuristic(kind, model), model, cfg), kind.xi


def _arrival_point(args):
    model, abar, kind, cfg, calibrate = args
    if abar == 0.0:
        chain = MarkovChainSpec.iid((0.0,), (1.0,))
    else:
        chain = MarkovChainSpec.iid((0.0, 2.0 * abar), (0.5, 0.5))
    point = replace(model, arrival=chain)
    res, xi = _measure_kind(kind, point, cfg, calibrate)
    row = {"abar": abar,
           "mean_grid_power": res.mean_grid_power,
           "mean_grid_power_se": res.mean_grid_power_se,
           "mean_queue": res.mean_queue}
    if xi is not None:
        row["xi"] = xi
    return row


def _budget_point(args):
    model, p_bar, kind, cfg, calibrate = args
    point = replace(model, params=replace(model.params, p_bar=p_bar))
    res, xi = _measure_kind(kind, point, cfg, calibrate)
    row = {"p_bar": p_bar,
           "mean_queue": res.mean_queue,
           "mean_queue_se": res.mean_queue_se,
           "mean_grid_power": res.mean_grid_power}
    if xi is not None:
        row["xi"] = xi
    return row


def _channel_point(args):
    model, hbar, kinds, cfg, n_levels = args
    point = replace(model, channel=discretize_rayleigh(hbar, n_levels))
    params = point.params
    row = {"hbar": hbar}
    # radical and conservative double as the calibration measurements for
    # the mixed point, sharing the seed (common random numbers)
    cache = {}
    for name in ("radical", "conservative"):
        cache[name] = run_simulation(make_heuristic(HeuristicKind(name), point),
                                     point, cfg)
    xi = mixing_weight(cache["radical"].mean_grid_power,
                       cache["conservative"].mean_grid_power, params.p_bar)
    for kind in kinds:
        kind = _resolve_kind(kind)
        if kind.kind == "mixed":
            res = run_simulation(
                make_heuristic(HeuristicKind("mixed", xi=xi), point),
                point, cfg)
            row["xi"] = xi
        else:
            res = cache[kind.kind]
        row[f"mean_queue_{kind.kind}"] = res.mean_queue
        row[f"mean_queue_se_{kind.kind}"] = res.mean_queue_se
        row[f"mean_grid_power_{kind.kind}"] = res.mean_grid_power
    return row


def _run_points(worker, jobs, n_workers: int):
    if n_workers <= 1:
        return [worker(j) for j in jobs]
    with ProcessPoolExecutor(max_workers=n_workers) as pool:
        return list(pool.map(worker, jobs))


def sweep_arrival(model_template: Model, abar_list, policy_kind,
                  cfg: SimConfig, n_workers: int = 1) -> list[dict]:
    """Mean grid power against the mean arrival rate.

    Each point replaces the arrival chain with the two-point burst law
    {0, 2*abar} at equal probability (so the mean is abar) and reruns the
    simulation under the same seed.
    """
    kind = _resolve_kind(policy_kind)
    calibrate = isinstance(policy_kind, str) and policy_kind == "mixed"
    jobs = [(model_template, float(ab), kind, cfg, calibrate)
            for ab in abar_list]
    return _run_points(_arrival_point, jobs, n_workers)


def sweep_budget(model: Model, pbar_list, policy_kind, cfg: SimConfig,
                 n_workers: int = 1) -> list[dict]:
    """Mean queue against the grid-power budget, one simulation per budget."""
    kind = _resolve_kind(policy_kind)
    calibrate = isinstance(policy_kind, str) and policy_kind == "mixed"
    jobs = [(model, float(pb), kind, cfg, calibrate) for pb in pbar_list]
    return _run_points(_budget_point, jobs, n_workers)


def sweep_channel(model: Model, hbar_list, policy_kinds, cfg: SimConfig,
                  n_levels: int = 8, n_workers: int = 1) -> list[dict]:
    """Mean queue of several baselines against the mean channel gain.

    Each point re-quantizes the channel at the given mean; the mixed
    baseline's weight is recomputed per point from the measured radical and
    conservative grid draws.
    """
    jobs = [(model, float(hb), tuple(policy_kinds), cfg, n_levels)
            for hb in hbar_list]
    return _run_points(_channel_point, jobs, n_workers)
