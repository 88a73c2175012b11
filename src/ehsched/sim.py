"""Seeded Monte-Carlo rollout of a scheduling policy, plus sweep runners.

The simulator runs policies as data: a TablePolicy, a MixedPolicy of two,
or one of make_heuristic's baselines, whose actions come from two integer
tables of the model (draw_cap_table and conservative_rate_table). A
per-state function is turned into a table first (TablePolicy.from_callable).

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

from .heuristics import (
    HeuristicKind,
    conservative_rate_table,
    make_heuristic,
    mixing_weight,
)
from .mdp import MixedPolicy, TablePolicy
from .model import (
    GRID_EPS,
    ConfigError,
    MarkovChainSpec,
    Model,
    SystemState,
    draw_cap_table,
    required_power,
)


class PolicyDomainError(RuntimeError):
    """The policy's data do not fit the model: a table of another size or
    grid, an infeasible action, or a baseline built for other params."""

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


def _chain_path(chain: MarkovChainSpec, gen: np.random.Generator,
                n: int) -> np.ndarray:
    """The chain's level index in each of n slots.

    Draws one uniform for a stationary start, then n uniforms, one step per
    slot (the step after the last slot is never used). A step is the first
    level whose cumulative transition probability from the current row
    exceeds the uniform. An i.i.d. chain (all rows equal) steps by one
    vectorised search; otherwise every row's next index is found for every
    slot and the path walks through those lists.
    """
    top = chain.n - 1
    start = min(int(np.searchsorted(np.cumsum(chain.stationary()),
                                    gen.random(), side="right")), top)
    u = gen.random(n)[:-1]
    cum = np.cumsum(chain.transition, axis=1)

    def steps(row):
        return np.minimum(np.searchsorted(row, u, side="right"), top)

    if (cum == cum[0]).all():
        return np.concatenate(([start], steps(cum[0])))
    rows = [steps(row).tolist() for row in cum]
    path = [start]
    for t in range(n - 1):
        path.append(rows[path[-1]][t])
    return np.array(path, dtype=np.int64)


def _clamped_walk(steps: np.ndarray, top: int) -> np.ndarray:
    """x[0] = 0 and x[t+1] = min(x[t] + steps[t], top), in closed form.

    With S[t] the sum of the first t steps, S - x is what the clamp has cut
    so far; it grows only where the clamp binds, to S - top there. So
    x = S + min(0, running minimum of top - S), exact in integers.
    """
    s = np.concatenate(([0], np.cumsum(steps[:-1])))
    return s + np.minimum(np.minimum.accumulate(top - s), 0)


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
    # lists of Python ints, made once: the slot loop indexes them per slot
    return (np.asarray(policy.r).astype(np.int64).tolist(),
            np.asarray(policy.w_quanta).astype(np.int64).tolist())


def _baseline_actor(radical_weight: float, model: Model):
    """act() of a make_heuristic baseline, from its two integer tables: radical
    when the coin falls below radical_weight, else conservative; the battery
    draw is greedy either way."""
    params = model.params
    cap = draw_cap_table(params, model.channel.values).tolist()
    rc = (conservative_rate_table(params, model.channel.values).tolist()
          if radical_weight < 1.0 else None)

    def act(q, ih, ia, ib, ie, coin):
        if coin < radical_weight:
            r = q
        else:
            r = rc[ih][ib]
            if r > q:
                r = q
        c = cap[ih][r]
        return r, (c if c < ib else ib)

    return act


def _make_actor(policy, model: Model):
    """act(q, ih, ia, ib, ie, coin) -> integer (r, w_quanta) of the policy.

    The simulator runs policy data of three kinds: a TablePolicy, a
    MixedPolicy, or a make_heuristic baseline built for the model's params
    (run from draw_cap_table and conservative_rate_table). A baseline built
    for other params is a PolicyDomainError; anything else is a TypeError.
    """
    if isinstance(policy, TablePolicy):
        r_tab, wq_tab = _table_lookup(policy, model)
        space = model.space
        sq, sh, sa, sb = space.s_q, space.s_h, space.s_a, space.s_b

        def act(q, ih, ia, ib, ie, coin):
            i = q * sq + ih * sh + ia * sa + ib * sb + ie
            return r_tab[i], wq_tab[i]

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
                return rp[i], wp[i]
            return rm[i], wm[i]

        return act

    weight = getattr(policy, "radical_weight", None)
    if weight is None:
        raise TypeError(
            f"run_simulation takes a TablePolicy, a MixedPolicy or a "
            f"make_heuristic baseline, not {type(policy).__name__}; "
            f"TablePolicy.from_callable turns a per-state function into a "
            f"TablePolicy")
    if getattr(policy, "params", None) != model.params:
        raise PolicyDomainError(
            "baseline was built for other params than the model's; build it "
            "with make_heuristic for this model")
    return _baseline_actor(weight, model)


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

    The chains do not depend on the policy, so their paths are sampled before
    the slot loop. The loop runs the queue and battery recursions and records
    only the actions; the queue and battery series, grid power, clipping and
    trace are computed from those afterwards.
    """
    params = model.params
    de, tau = params.delta_e, params.tau
    q_max = params.q_max
    b_top = params.n_battery_levels - 1
    n = cfg.n_slots
    warmup = cfg.effective_warmup

    act = _make_actor(policy, model)

    a_pkts = [int(round(v)) for v in model.arrival.values]
    e_quanta = [int(round(v / de)) for v in model.harvest.values]
    p_tab = np.array([[required_power(params, h, r) for r in range(q_max + 1)]
                      for h in model.channel.values])

    streams = np.random.SeedSequence(cfg.seed).spawn(4)
    gen_h, gen_a, gen_e, gen_coin = (
        np.random.Generator(np.random.Philox(s)) for s in streams)
    ih_path = _chain_path(model.channel, gen_h, n)
    ia_path = _chain_path(model.arrival, gen_a, n)
    ie_path = _chain_path(model.harvest, gen_e, n)
    coins = gen_coin.random(n)

    rs, ws = [], []
    q = 0
    ib = 0
    for ih, ia, ie, coin in zip(memoryview(ih_path), memoryview(ia_path),
                                memoryview(ie_path), memoryview(coins)):
        r, wq = act(q, ih, ia, ib, ie, coin)
        rs.append(r)
        ws.append(wq)
        q += a_pkts[ia] - r
        if q > q_max:
            q = q_max
        ib += e_quanta[ie] - wq
        if ib > b_top:
            ib = b_top

    r_slot = np.array(rs, dtype=np.int64)
    w_slot = np.array(ws, dtype=np.int64)
    del rs, ws  # free the per-slot ints before the accounting arrays exist
    q_step = np.asarray(a_pkts, dtype=np.int64)[ia_path] - r_slot
    b_step = np.asarray(e_quanta, dtype=np.int64)[ie_path] - w_slot
    q_slot = _clamped_walk(q_step, q_max)
    b_slot = _clamped_walk(b_step, b_top)
    overflow_pkts = np.maximum(q_slot + q_step - q_max, 0)
    spill_quanta = np.maximum(b_slot + b_step - b_top, 0)
    w_scale = de / tau
    g_series = p_tab[ih_path, r_slot] - w_slot * w_scale
    g_series[g_series < 0.0] = 0.0
    q_series = q_slot.astype(float)
    trace = None
    if cfg.record_trace:
        trace = {"q": q_series,
                 "h": np.asarray(model.channel.values)[ih_path],
                 "a": (q_step + r_slot).astype(float),
                 "e_b": b_slot * de,
                 "e": np.asarray(model.harvest.values)[ie_path],
                 "r": r_slot.astype(float),
                 "w": w_slot * w_scale,
                 "grid_power": g_series,
                 "overflow_pkts": overflow_pkts.astype(float),
                 "spill_energy": spill_quanta * de}

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


# Per axis: the swept column's name, and one policy's cells in column order
# ("xi" for the mixed baseline only). The channel axis runs several policies
# in one row and suffixes each cell but xi with its policy's name.
_SWEEP_COLUMNS = {
    "arrival": ("abar", ("mean_grid_power", "mean_grid_power_se", "mean_queue",
                         "xi")),
    "budget": ("p_bar", ("mean_queue", "mean_queue_se", "mean_grid_power",
                         "xi")),
    "channel": ("hbar", ("xi", "mean_queue", "mean_queue_se",
                         "mean_grid_power")),
}


def _sweep_model(axis: str, model: Model, value: float, n_levels: int) -> Model:
    if axis == "arrival":
        # the two-point burst law {0, 2*abar} at equal probability
        chain = (MarkovChainSpec.iid((0.0,), (1.0,)) if value == 0.0
                 else MarkovChainSpec.iid((0.0, 2.0 * value), (0.5, 0.5)))
        return replace(model, arrival=chain)
    if axis == "budget":
        return replace(model, params=replace(model.params, p_bar=value))
    return replace(model, channel=discretize_rayleigh(value, n_levels))


def _sweep_point(args) -> dict:
    """One sweep row: each named baseline simulated on the point's model.

    Radical and conservative run at most once each. A mixed baseline takes
    its weight from those two runs (mixing_weight at the point's budget),
    which share cfg's seed with it (common random numbers).
    """
    axis, model, value, kinds, cfg, n_levels = args
    point = _sweep_model(axis, model, value, n_levels)
    column, cells = _SWEEP_COLUMNS[axis]
    runs = {}

    def simulate(name, xi=None):
        if name not in runs:
            actor = make_heuristic(HeuristicKind(name, xi=xi), point)
            runs[name] = run_simulation(actor, point, cfg)
        return runs[name]

    row = {column: value}
    for name in kinds:
        xi = None
        if name == "mixed":
            xi = mixing_weight(simulate("radical").mean_grid_power,
                               simulate("conservative").mean_grid_power,
                               point.params.p_bar)
        res = simulate(name, xi)
        suffix = f"_{name}" if axis == "channel" else ""
        for cell in cells:
            if cell != "xi":
                row[cell + suffix] = getattr(res, cell)
            elif xi is not None:
                row[cell] = xi
    return row


def _sweep(axis: str, model: Model, points, kinds, cfg: SimConfig,
           n_workers: int, n_levels: int = 8) -> list[dict]:
    kinds = tuple(kinds)
    jobs = [(axis, model, float(v), kinds, cfg, n_levels) for v in points]
    if n_workers <= 1:
        return [_sweep_point(j) for j in jobs]
    with ProcessPoolExecutor(max_workers=n_workers) as pool:
        return list(pool.map(_sweep_point, jobs))


def sweep_arrival(model_template: Model, abar_list, policy_kind: str,
                  cfg: SimConfig, n_workers: int = 1) -> list[dict]:
    """Mean grid power against the mean arrival rate.

    Each point replaces the arrival chain with the two-point burst law
    {0, 2*abar} at equal probability (so the mean is abar) and reruns the
    simulation under the same seed.
    """
    return _sweep("arrival", model_template, abar_list, (policy_kind,), cfg,
                  n_workers)


def sweep_budget(model: Model, pbar_list, policy_kind: str, cfg: SimConfig,
                 n_workers: int = 1) -> list[dict]:
    """Mean queue against the grid-power budget, one simulation per budget
    (three for mixed: radical and conservative calibrate its weight)."""
    return _sweep("budget", model, pbar_list, (policy_kind,), cfg, n_workers)


def sweep_channel(model: Model, hbar_list, policy_kinds, cfg: SimConfig,
                  n_levels: int = 8, n_workers: int = 1) -> list[dict]:
    """Mean queue of several baselines against the mean channel gain.

    Each point re-quantizes the channel at the given mean; the mixed
    baseline's weight is recomputed per point from the measured radical and
    conservative grid draws.
    """
    return _sweep("channel", model, hbar_list, policy_kinds, cfg, n_workers,
                  n_levels)
