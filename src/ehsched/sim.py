"""Seeded Monte-Carlo rollout of a scheduling policy, plus sweep runners.

The simulator runs policies as data: a TablePolicy, a MixedPolicy of two,
or a Baseline from make_heuristic, whose actions come from two integer
tables the model builds once (Model.cap_table and Model.rate_table). A
per-state function is turned into a table first (TablePolicy.from_callable),
and a table is checked as the evaluator checks it (TablePolicy.actions_on).
No kernel calls a function per slot: a table policy walks a precomputed
next-state table, and the radical baseline runs in closed form (a clamp scan).
The conservative and mixed baselines run by speculation and exact repair:
numpy computes a candidate path from the radical baseline's battery path
and finds the slots where the candidate's own transition disagrees with it,
and an inline loop over flat tables runs only from those slots until the
true path rejoins the candidate.

The three exogenous chains are stepped from independent substreams of one
counter-based generator (Philox), so runs are bit-reproducible and every
sweep point / policy kind sees the same random numbers — differences between
curves are then policy effects, not sampling noise. The paths do not depend
on the policy, so sample_paths draws them before any slot runs, and
run_simulation takes them presampled: a sweep point samples once and runs
each distinct Baseline once on that sample (a mixed weight of exactly 1 or 0
is the radical or conservative baseline, whose run it reuses); the sample
carries the radical battery path, so the point computes it once. The slot loop
mirrors the solver's transition convention exactly: the current state already
carries the arrival and harvest that land this slot, and the chains advance
afterwards.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_right
from dataclasses import dataclass, fields, replace
from itertools import islice, repeat

import numpy as np

from .heuristics import Baseline, HeuristicKind, make_heuristic, mixing_weight
from .mdp import MixedPolicy, TablePolicy
from .model import (ConfigError, MarkovChainSpec, Model, ModelParams,
                    PolicyDomainError, level_units)


@dataclass(frozen=True)
class SimConfig:
    """Rollout horizon and bookkeeping.

    warmup=None discards the first 1% of the horizon (the rollout starts from
    an empty buffer and an empty battery, so the early slots are transient).
    Standard errors come from the means of N_BATCHES (32) non-overlapping
    batches of the measured span.
    """

    n_slots: int
    seed: int
    warmup: int | None = None
    record_trace: bool = False

    def __post_init__(self):
        if self.n_slots <= 0:
            raise ConfigError("n_slots must be positive")
        if not 0 <= self.effective_warmup < self.n_slots:
            raise ConfigError("need n_slots > warmup >= 0")

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


@dataclass(frozen=True, eq=False)
class ExogenousSample:
    """The exogenous paths of one run, as sample_paths draws them: each
    chain's level index per slot (ih, ia, ie), the policy coin per slot,
    and the arrivals (packets) and harvests (energy quanta) of those levels.

    seed, n_slots, chains (channel, arrival, harvest) and delta_e record
    what the sample was drawn for. The arrays are read-only, so the runs
    that share a sample cannot alter it.
    """

    seed: int
    n_slots: int
    chains: tuple[MarkovChainSpec, MarkovChainSpec, MarkovChainSpec]
    delta_e: float
    ih: np.ndarray
    ia: np.ndarray
    ie: np.ndarray
    coins: np.ndarray
    arrivals: np.ndarray
    harvests: np.ndarray


def sample_paths(model: Model, cfg: SimConfig) -> ExogenousSample:
    """Draw the exogenous paths of a cfg.n_slots run on the model.

    The channel, arrival, harvest and coin streams are the four spawned
    substreams of SeedSequence(cfg.seed), in that order; each chain consumes
    one initial uniform (its stationary start) and then one uniform per
    slot, and the coin stream one uniform per slot.
    """
    n = cfg.n_slots
    chains = (model.channel, model.arrival, model.harvest)
    gens = [np.random.Generator(np.random.Philox(s))
            for s in np.random.SeedSequence(cfg.seed).spawn(4)]
    ih, ia, ie = (_chain_path(chain, gen, n) for chain, gen in zip(chains, gens))
    coins = gens[3].random(n)
    de = model.params.delta_e
    a_pkts, e_quanta = level_units(model.arrival, model.harvest, de)
    arrays = (ih, ia, ie, coins, a_pkts[ia], e_quanta[ie])
    for a in arrays:
        a.setflags(write=False)
    return ExogenousSample(cfg.seed, n, chains, de, *arrays)


@dataclass(frozen=True, eq=False)
class _SharedSample(ExogenousSample):
    """A sample with the radical baseline's battery path for params on it,
    which every baseline run on the sample with those params reads."""

    params: ModelParams
    radical_battery: np.ndarray


def _share_radical(model: Model, cfg: SimConfig,
                   sample: ExogenousSample | None = None) -> ExogenousSample:
    """sample_paths(model, cfg), or the given sample checked as
    run_simulation checks it, with the radical baseline's battery path on
    it: the baseline runs that share the sample then compute that path
    (their candidate, and the radical run itself) once. A sample that
    carries the path for the model's params already is returned as is."""
    if sample is None:
        sample = sample_paths(model, cfg)
    else:
        _check_sample(sample, model, cfg)
        if isinstance(sample, _SharedSample) and sample.params == model.params:
            return sample
    return _SharedSample(**{f.name: getattr(sample, f.name)
                            for f in fields(ExogenousSample)},
                         params=model.params,
                         radical_battery=_radical_battery(model, sample))


def _same_chain(a: MarkovChainSpec, b: MarkovChainSpec) -> bool:
    return a is b or (a.values == b.values
                      and np.array_equal(a.transition, b.transition))


def _check_sample(sample: ExogenousSample, model: Model, cfg: SimConfig):
    """ValueError unless sample_paths(model, cfg) would draw this sample."""
    if (sample.seed, sample.n_slots) != (cfg.seed, cfg.n_slots):
        raise ValueError(
            f"sample was drawn for seed {sample.seed} and {sample.n_slots} "
            f"slots, not seed {cfg.seed} and {cfg.n_slots} slots")
    chains = (model.channel, model.arrival, model.harvest)
    if (sample.delta_e != model.params.delta_e
            or not all(map(_same_chain, sample.chains, chains))):
        raise ValueError("sample was drawn for other chains or another energy "
                         "grid than the model's")


def _clamped_walk(steps: np.ndarray, top: int) -> np.ndarray:
    """x[0] = 0 and x[t+1] = min(x[t] + steps[t], top), in closed form.

    With S[t] the sum of the first t steps, S - x is what the clamp has cut
    so far; it grows only where the clamp binds, to S - top there. So
    x = S + min(0, running minimum of top - S), exact in integers.
    """
    s = np.concatenate(([0], np.cumsum(steps[:-1])))
    return s + np.minimum(np.minimum.accumulate(top - s), 0)


# Slots per block of a clamp scan and of the conservative/mixed kernel; it
# bounds their temporaries (8192 int64 stay below glibc's mmap threshold).
SIM_BLOCK = 8192
# The kernel rebuilds a block's candidate once, from the candidate's own
# battery path, where more than this share of the block's slots are
# inconsistent.
REFINE_SHARE = 0.04
# A block whose loop ran on more than this share of its slots makes the
# kernel run the loop alone, without a candidate, on the next 1, 2, 4, ...
# blocks (doubling while the blocks after such a wait still fail).
REPAIR_CUTOFF = 0.5
# Between two repairs in a block, a gap of more slots than this is jumped
# (a fresh iterator) rather than stepped through.
JUMP = 16


def _clamp_scan(steps: np.ndarray, floor: np.ndarray, top: int,
                start: int = 0) -> np.ndarray:
    """x[0] = start and x[t+1] = min(max(x[t] + steps[t], floor[t]), top),
    for 0 <= start <= top and 0 <= floor <= top, in closed form.

    Each step is a clamp x -> min(max(x + u, lo), hi), and clamps compose
    into clamps: the one after the other is (u1 + u2, clip(lo1 + u2, lo2,
    hi2), clip(hi1 + u2, lo2, hi2)). An inclusive prefix scan over that
    associative operator (Hillis and Steele's log-step form; Blelloch,
    Prefix Sums and Their Applications, 1990) gives every x[t] exactly in
    integers. The scan runs SIM_BLOCK steps at a time, each block from the
    last one's end, and stops early once every map still to be composed
    with earlier ones is constant (lo == hi), which composing cannot change.
    """
    x = np.empty(steps.size, dtype=np.int64)
    x[0] = start
    # A step beyond top + 1 either way acts as one of top + 1 on [0, top],
    # so a block's sums stay within SIM_BLOCK * (top + 1).
    dtype = np.int32 if SIM_BLOCK * (top + 1) < 2**31 else np.int64
    for at in range(0, steps.size - 1, SIM_BLOCK):
        end = min(at + SIM_BLOCK, steps.size - 1)
        u = np.maximum(steps[at:end], -top - 1).astype(dtype)
        np.minimum(u, top + 1, out=u)
        # rows lo and hi of every slot's map; each level writes the other
        # buffer of each pair
        bounds = np.empty((2, u.size), dtype=dtype)
        bounds[0] = floor[at:end]
        bounds[1] = top
        u2, bounds2 = np.empty_like(u), np.empty_like(bounds)
        d = 1
        while d < u.size:
            # the map at t - d (covering the slots before it) goes first
            after = bounds2[:, d:]
            np.add(bounds[:, :-d], u[d:], out=after)
            np.maximum(after, bounds[0, d:], out=after)
            np.minimum(after, bounds[1, d:], out=after)
            bounds2[:, :d] = bounds[:, :d]
            np.add(u[:-d], u[d:], out=u2[d:])
            u2[:d] = u[:d]
            u, u2, bounds, bounds2 = u2, u, bounds2, bounds
            d *= 2
            if (bounds[0, d:] == bounds[1, d:]).all():
                break
        u += x[at]
        np.maximum(u, bounds[0], out=u)
        np.minimum(u, bounds[1], out=u)
        x[at + 1:end + 1] = u
    return x


def _walk_tables(tables, model: Model, keys: np.ndarray):
    """(r, wq) per slot of table policies, by one walk of a next-state table.

    tables are the (r, wq) arrays of one policy, or of a mixture's two (the
    second at offset n_states); keys[t] is slot t's (h, a, e) index part plus
    the offset of the table it plays. nxt[i] is the (q, battery) index part
    after state i's action, clamps included, so the slot's state index is
    x + keys[t] with x = nxt[previous state index], from x = 0.
    """
    space, k = model.space, len(tables)
    r, wq = (np.concatenate(column) for column in zip(*tables))
    # 8 bytes a state, and each slot's lookup gives a plain int
    nxt = array("q", (np.minimum(np.tile(space.q_in, k) - r, space.nq - 1) * space.s_q
                      + np.minimum(np.tile(space.b_in, k) - wq, space.nb - 1) * space.s_b
                      ).astype(np.int64).tobytes())
    x = 0
    at = np.empty(keys.size, dtype=np.int64)  # int64 even when n_slots is 1
    at[0] = 0
    at[1:] = [x := nxt[x + key] for key in memoryview(keys[:-1])]
    at += keys
    return r[at], wq[at]


def _radical_battery(model: Model, sample: ExogenousSample) -> np.ndarray:
    """The radical baseline's battery level (quanta) per slot of the sample,
    in closed form: its queue after a slot is min(a, q_max), so its rate and
    draw cap are known, and its battery steps by the clamp b -> min(max(b -
    cap, 0) + e, b_top)."""
    b_top = model.params.n_battery_levels - 1
    e = sample.harvests
    cap = model.cap_table[sample.ih, _radical_rates(model, sample.arrivals)]
    b = _clamp_scan(e - cap, np.minimum(e, b_top), b_top)
    b.setflags(write=False)
    return b


def _radical_rates(model: Model, a_slot: np.ndarray) -> np.ndarray:
    return np.concatenate(([0], np.minimum(a_slot[:-1], model.params.q_max)))


def _row_offsets(model: Model, weight: float, ih_path, coins):
    """Per slot, the offset of its row in each flat table of
    Model.baseline_rows: the rate row (radical_row where the coin falls
    below the weight, ih elsewhere) and the cap row (ih)."""
    radical_row = model.baseline_rows[2]
    return (np.where(coins < weight, radical_row, ih_path)
            * model.params.n_battery_levels,
            ih_path * (model.params.q_max + 1))


def _radical_guess(model: Model, weight: float, ih_path, a_slot, e_slot,
                   coins, b_radical):
    """The candidate of _baseline_slots for the baseline of this weight.

    guess(at, end, q, b, battery) is the path from (q, b) over the slots
    at..end-1 that the baseline would take if its battery followed battery
    (the radical baseline's path b_radical when None). Its rate cap is then
    known (q_max on radical slots, rate_table[ih, battery] on the others),
    so its queue is a clamp scan, and with the queue its draw cap, so its
    battery is another.
    """
    q_max, b_top = model.params.q_max, model.params.n_battery_levels - 1
    rates, caps, _ = model.baseline_rows
    ro, co = _row_offsets(model, weight, ih_path, coins)

    def guess(at, end, q, b, battery=None):
        a, e = a_slot[at:end], e_slot[at:end]
        if battery is None:
            battery = b_radical[at:end]
        rc = rates.take(ro[at:end] + battery)
        qc = _clamp_scan(a - rc, np.minimum(a, q_max), q_max, q)
        np.minimum(rc, qc, out=rc)
        return qc, _clamp_scan(e - caps.take(co[at:end] + rc),
                               np.minimum(e, b_top), b_top, b)

    return guess


def _baseline_slots(model: Model, weight: float, ih_path, a_slot, e_slot,
                    coins, guess):
    """(r, wq) per slot of the conservative or mixed baseline, and the count
    of slots the per-slot loop ran, by speculation and exact repair.

    A run is cut into blocks of SIM_BLOCK slots, each from the last one's
    exact end state (q, b). guess(at, end, q, b, battery) gives a candidate
    (queue, battery) path for the block's slots at..end-1, as integer
    arrays within the model's grid; battery is None, or the block's first
    candidate battery path when more than REFINE_SHARE of its slots were
    inconsistent (a second candidate then replaces the first). The
    candidate's own actions and successors are computed for every slot at
    once; a slot is inconsistent where its predecessor's successor is not
    its candidate state (the block's first slot where the candidate is not
    (q, b)). From each inconsistent slot that no repair has passed, the loop
    body runs from the true state there until the true state equals the
    candidate's again. So the result is exact for any candidate
    (Rauchwerger and Padua's speculative run with an exact check, PLDI
    1995). A block on which the candidates are all wrong costs the loop plus
    the candidates; REPAIR_CUTOFF bounds how often that happens.

    The loop reads flat tables (Model.baseline_rows): row ih of the rate
    table on conservative slots, an extra row of q_max (serve everything)
    on the slots whose coin falls below the weight.
    """
    q_max, b_top = model.params.q_max, model.params.n_battery_levels - 1
    rate_rows, cap_rows, _ = model.baseline_rows
    row_at, col_at = _row_offsets(model, weight, ih_path, coins)
    n = ih_path.size
    r_out = np.empty(n, dtype=np.int64)
    w_out = np.empty(n, dtype=np.int64)
    # memoryviews hand out and take one int per slot
    rates, caps, ro, co, av, ev, rv, wv = map(memoryview, (
        rate_rows, cap_rows, row_at, col_at, a_slot, e_slot, r_out, w_out))
    never = repeat(-1)

    def loop(slots, q, b):
        """The loop body over slots, tuples (t, row, col, a, e, cq, cb), from
        the true state (q, b), up to the first slot whose state is the
        candidate's (cq, cb): that slot and state, or None and the state
        after the last slot."""
        for t, row, col, a, e, cq, cb in slots:
            if q == cq and b == cb:
                return t, q, b
            r = rates[row + b]
            if r > q:
                r = q
            w = caps[col + r]
            if w > b:
                w = b
            rv[t] = r
            wv[t] = w
            q += a - r
            if q > q_max:
                q = q_max
            b += e - w
            if b > b_top:
                b = b_top
        return None, q, b

    def check(at, end, qc, bc):
        """The candidate's actions and successors, and its inconsistent
        slots after the block's first (block offsets)."""
        r = np.minimum(rate_rows.take(row_at[at:end] + bc), qc)
        w = np.minimum(cap_rows.take(col_at[at:end] + r), bc)
        qn = np.minimum(qc + a_slot[at:end] - r, q_max)
        bn = np.minimum(bc + e_slot[at:end] - w, b_top)
        wrong = np.flatnonzero((qn[:-1] != qc[1:]) | (bn[:-1] != bc[1:])) + 1
        return r, w, qn, bn, wrong

    q = b = n_loop = wait = backoff = 0
    for at in range(0, n, SIM_BLOCK):
        end = min(at + SIM_BLOCK, n)
        if wait:
            _, q, b = loop(zip(range(at, end), ro[at:end], co[at:end],
                               av[at:end], ev[at:end], never, never), q, b)
            n_loop += end - at
            wait -= 1
            continue
        qc, bc = guess(at, end, q, b, None)
        r, w, qn, bn, wrong = check(at, end, qc, bc)
        if wrong.size > REFINE_SHARE * (end - at):
            qc, bc = guess(at, end, q, b, bc)
            r, w, qn, bn, wrong = check(at, end, qc, bc)
        r_out[at:end] = r
        w_out[at:end] = w
        qc, bc, qn, bn = map(memoryview, (qc, bc, qn, bn))

        def slots(t):
            """The block's slots from t on, with the candidate's states."""
            return zip(range(t, end), ro[t:end], co[t:end], av[t:end],
                       ev[t:end], qc[t - at:], bc[t - at:])

        starts = wrong.tolist()
        if (qc[0], bc[0]) != (q, b):
            starts.insert(0, 0)
        # the slots up to done are exact (none yet), so a start after done
        # has an exact predecessor; it yields slot pos next
        done, block_loop, it, pos, k = at - 1, 0, None, end, 0
        while (k := bisect_right(starts, done - at, k)) < len(starts):
            s = starts[k]
            t = at + s
            if it is None or t - pos > JUMP:
                it = slots(t)
            else:
                next(islice(it, t - pos, t - pos), None)
            if s:
                q, b = qn[s - 1], bn[s - 1]
            stop, q, b = loop(it, q, b)
            if stop is None:
                block_loop += end - t
                done = end
                break
            block_loop += stop - t
            done, pos = stop, stop + 1
        if done < end:
            q, b = qn[-1], bn[-1]
        n_loop += block_loop
        if block_loop > REPAIR_CUTOFF * (end - at):
            backoff = 2 * backoff or 1
            wait = backoff
        else:
            backoff = 0
    return r_out, w_out, n_loop


N_BATCHES = 32  # batch means per standard error (fewer on a shorter span)


def _batch_se(series: np.ndarray, n_batches: int) -> float:
    nb = min(n_batches, series.size)
    if nb < 2:
        return float("nan")
    length = series.size // nb
    means = series[:nb * length].reshape(nb, length).mean(axis=1)
    return float(means.std(ddof=1) / math.sqrt(nb))


def run_simulation(policy, model: Model, cfg: SimConfig,
                   sample: ExogenousSample | None = None) -> SimResult:
    """Roll the system forward cfg.n_slots slots under the given policy.

    Bit-reproducible for a fixed (policy, model, cfg): the exogenous paths
    are sample_paths(model, cfg), drawn here unless given as sample. A
    presampled set makes the same run as drawing it here; it raises
    ValueError if it was drawn for another seed, n_slots, set of chains or
    energy grid. The buffer and battery start empty. The coin stream is
    consumed every slot regardless of the policy kind, so deterministic and
    randomized policies see identical chain paths under the same seed.

    The policy's data are checked before any slot runs. The chains do not
    depend on the policy, so their paths are sampled first, or shared by
    the caller's runs; then one kernel per policy kind finds every slot's
    action: a table policy or mixture by walking its next-state table, the
    radical baseline in closed form, the conservative and mixed baselines by
    speculation and exact repair (_baseline_slots: a vectorised candidate
    path from the radical baseline's battery path, and the per-slot loop
    over the model's two baseline tables only where the candidate is
    wrong), which gives the loop's actions bit for bit. The queue and
    battery series, grid power, clipping and trace are computed from the
    actions afterwards.
    """
    params = model.params
    de, tau = params.delta_e, params.tau
    q_max = params.q_max
    b_top = params.n_battery_levels - 1
    n = cfg.n_slots
    warmup = cfg.effective_warmup

    if isinstance(policy, TablePolicy):
        tables = [policy.actions_on(model)]
    elif isinstance(policy, MixedPolicy):
        tables = [p.actions_on(model) for p in (policy.policy_plus, policy.policy_minus)]
    elif isinstance(policy, Baseline):
        if policy.params != model.params:
            raise PolicyDomainError(
                "baseline was built for other params than the model's; build "
                "it with make_heuristic for this model")
        tables = None
    else:
        raise TypeError(
            f"run_simulation takes a TablePolicy, a MixedPolicy or a "
            f"Baseline, not {type(policy).__name__}; "
            f"TablePolicy.from_callable turns a per-state function into a "
            f"TablePolicy")

    if sample is None:
        sample = sample_paths(model, cfg)
    else:
        _check_sample(sample, model, cfg)
    ih_path, ia_path, ie_path = sample.ih, sample.ia, sample.ie
    coins, a_slot, e_slot = sample.coins, sample.arrivals, sample.harvests

    if tables is not None:
        space = model.space
        keys = ih_path * space.s_h + ia_path * space.s_a + ie_path
        if isinstance(policy, MixedPolicy):
            keys += space.n_states * (coins >= policy.xi)
        r_slot, w_slot = _walk_tables(tables, model, keys)
        del keys
    else:
        b_radical = (sample.radical_battery
                     if isinstance(sample, _SharedSample)
                     and sample.params == model.params
                     else _radical_battery(model, sample))
        if policy.weight >= 1.0:
            r_slot = _radical_rates(model, a_slot)
            w_slot = np.minimum(b_radical, model.cap_table[ih_path, r_slot])
        else:
            guess = _radical_guess(model, policy.weight, ih_path, a_slot,
                                   e_slot, coins, b_radical)
            r_slot, w_slot, _ = _baseline_slots(model, policy.weight, ih_path,
                                                a_slot, e_slot, coins, guess)

    q_step = a_slot - r_slot
    b_step = e_slot - w_slot
    q_slot = _clamped_walk(q_step, q_max)
    b_slot = _clamped_walk(b_step, b_top)
    overflow_pkts = np.maximum(q_slot + q_step - q_max, 0)
    spill_quanta = np.maximum(b_slot + b_step - b_top, 0)
    w_scale = de / tau
    g_series = model.power_table[ih_path, r_slot] - w_slot * w_scale
    g_series[g_series < 0.0] = 0.0
    q_series = q_slot.astype(float)
    trace = None
    if cfg.record_trace:
        trace = {"q": q_series,
                 "h": np.asarray(model.channel.values)[ih_path],
                 "a": a_slot.astype(float),
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
        mean_queue_se=_batch_se(q_meas, N_BATCHES),
        mean_grid_power_se=_batch_se(g_meas, N_BATCHES),
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

    The point's exogenous paths are sampled once, and every run shares them
    (common random numbers). Each distinct Baseline runs once: radical and
    conservative at most once each, and a mixed baseline takes its weight
    from those two runs (mixing_weight at the point's budget). A weight of
    exactly 1 or 0 makes the mixed baseline equal to the radical or the
    conservative one, so it reuses that run.
    """
    axis, model, value, kinds, cfg, n_levels = args
    point = _sweep_model(axis, model, value, n_levels)
    column, cells = _SWEEP_COLUMNS[axis]
    sample = _share_radical(point, cfg)
    runs = {}

    def simulate(name, xi=None):
        baseline = make_heuristic(HeuristicKind(name, xi=xi), point)
        if baseline not in runs:
            runs[baseline] = run_simulation(baseline, point, cfg, sample=sample)
        return runs[baseline]

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
    if n_workers < 1:
        raise ConfigError(f"n_workers must be at least 1, got {n_workers}")
    kinds = tuple(kinds)
    jobs = [(axis, model, float(v), kinds, cfg, n_levels) for v in points]
    n_workers = min(n_workers, len(jobs))  # no idle worker processes
    if n_workers <= 1:
        return [_sweep_point(j) for j in jobs]
    # imported here, so that a one-worker sweep does not pay for loading it
    from concurrent.futures import ProcessPoolExecutor

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
    (three for mixed: radical and conservative calibrate its weight, and a
    weight of 1 or 0 reuses their run)."""
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
