"""Physical model of the energy-harvesting transmitter link.

A slot-level model of a point-to-point link: packets arrive into a finite
buffer, a Markov fading channel sets the energy price of transmission, and the
transmitter pays for each slot's transmit power from a finite battery (fed by
a Markov harvest process) plus, for the remainder, from the power grid.

The state is ``(q, h, a, e_b, e)`` -- queue length, channel gain, current
arrival, battery charge, current harvest -- and the action ``(r, w)`` --
packets served and battery draw (power) this slot. The solvers, certificates
and simulator work on the states' flat enumeration (StateSpace: one index
array per coordinate, and the queue and battery every action lands from) and
on per-channel-level tables the Model builds once (required power, greedy
draw cap, conservative rate). SystemState and Action are the per-state form,
used by StateSpace.state_of, by heuristics.conservative_policy and by
TablePolicy.from_callable. PolicyDomainError refuses a policy that does not
fit the model.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

GRID_EPS = 1e-9  # absolute guard used when snapping continuous values to grids


class ConfigError(ValueError):
    """Invalid model configuration (bad field, bad chain row, off-grid value)."""


class PolicyDomainError(ValueError):
    """The policy's data do not fit the model: a table of another size or
    grid, an infeasible action (state: where), or a baseline for other params."""

    def __init__(self, message: str, state: SystemState | None = None):
        super().__init__(message)
        self.state = state


class CapacityError(RuntimeError):
    """State-space enumeration would exceed the configured limit."""


class SystemState(NamedTuple):
    q: int      # queue length, packets
    h: float    # channel power gain
    a: int      # arrivals landing this slot, packets
    e_b: float  # battery charge, energy units
    e: float    # harvest landing in the battery this slot, energy units


class Action(NamedTuple):
    r: int      # packets transmitted this slot
    w: float    # battery power drawn this slot (energy w * tau leaves the battery)


@dataclass(frozen=True)
class ModelParams:
    """Scalar link parameters.

    tau       slot length (seconds)
    b         bandwidth-equivalent rate constant in the power law exponent
    n_uses    channel uses per slot in the power law exponent
    rho       power amplifier inefficiency (>= 1)
    sigma2    receiver noise power
    circuit_c constant circuitry power added whenever r > 0
    q_max     buffer size, packets
    e_max     battery capacity, energy units
    delta_e   battery energy quantum; e_b, harvest values and w*tau live on
              this grid
    p_bar     long-run average grid-power budget (used by the constrained
              solver and the conservative heuristic)
    """

    tau: float = 1.0
    b: float = 1.0
    n_uses: float = 5.0
    rho: float = 1.0
    sigma2: float = 1.0
    circuit_c: float = 0.0
    q_max: int = 10
    e_max: float = 0.0
    delta_e: float = 1.0
    p_bar: float = 0.0

    def __post_init__(self):
        for name in self.__dataclass_fields__:
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ConfigError(f"{name} must be finite, got {value!r}")
        if self.tau <= 0:
            raise ConfigError("tau must be positive")
        if self.b <= 0 or self.n_uses <= 0:
            raise ConfigError("b and n_uses must be positive")
        if self.rho < 1.0:
            raise ConfigError("rho must be >= 1")
        if self.sigma2 <= 0:
            raise ConfigError("sigma2 must be positive")
        if self.circuit_c < 0:
            raise ConfigError("circuit_c must be >= 0")
        if int(self.q_max) != self.q_max or self.q_max < 0:
            raise ConfigError("q_max must be a nonnegative integer")
        if self.delta_e <= 0:
            raise ConfigError("delta_e must be positive")
        if self.e_max < 0:
            raise ConfigError("e_max must be >= 0")
        if abs(self.e_max / self.delta_e - round(self.e_max / self.delta_e)) > GRID_EPS:
            raise ConfigError("e_max must be an integer multiple of delta_e")
        if self.p_bar < 0:
            raise ConfigError("p_bar must be >= 0")

    @property
    def theta(self) -> float:
        """Exponent of the power-rate law: 2 ln2 * b / n_uses."""
        return 2.0 * math.log(2.0) * self.b / self.n_uses

    @property
    def n_battery_levels(self) -> int:
        return int(round(self.e_max / self.delta_e)) + 1


def _as_prob_matrix(transition, n: int) -> np.ndarray:
    t = np.asarray(transition, dtype=float)
    if t.shape != (n, n):
        raise ConfigError(f"transition matrix must be {n}x{n}, got {t.shape}")
    if not np.isfinite(t).all():
        raise ConfigError("transition probabilities must be finite")
    if np.any(t < -GRID_EPS):
        raise ConfigError("transition probabilities must be nonnegative")
    rowsums = t.sum(axis=1)
    bad = np.where(np.abs(rowsums - 1.0) > 1e-9)[0]
    if bad.size:
        raise ConfigError(f"transition row {bad[0]} sums to {float(rowsums[bad[0]])!r}, expected 1")
    return np.clip(t, 0.0, None)


@dataclass(frozen=True)
class MarkovChainSpec:
    """A finite-state Markov chain given by its levels and transition matrix."""

    values: tuple
    transition: np.ndarray = field(repr=False)

    def __post_init__(self):
        values = tuple(float(v) for v in self.values)
        if not values:
            raise ConfigError("chain needs at least one level")
        if not all(map(math.isfinite, values)):
            raise ConfigError(f"chain levels must be finite, got {values!r}")
        if any(b <= a for a, b in zip(values, values[1:])):
            raise ConfigError("chain levels must be strictly increasing")
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "transition", _as_prob_matrix(self.transition, len(values)))

    @classmethod
    def iid(cls, values, probs) -> "MarkovChainSpec":
        p = np.asarray(probs, dtype=float)
        if p.shape != (len(values),):
            raise ConfigError("iid chain needs one probability per level")
        return cls(tuple(values), np.tile(p, (len(values), 1)))

    @property
    def n(self) -> int:
        return len(self.values)

    def stationary(self) -> np.ndarray:
        """Stationary law of the chain (unique for the irreducible chains we use)."""
        n = self.n
        if n == 1:
            return np.ones(1)
        a = np.vstack([self.transition.T - np.eye(n), np.ones(n)])
        b = np.zeros(n + 1)
        b[-1] = 1.0
        pi, *_ = np.linalg.lstsq(a, b, rcond=None)
        pi = np.clip(pi, 0.0, None)
        return pi / pi.sum()

    def mean(self) -> float:
        return float(np.dot(self.stationary(), self.values))


def required_power(params: ModelParams, h: float, r: int) -> float:
    """Transmit power needed to move r packets in one slot over gain h.

    Exponential in r (Shannon-style inversion) plus constant circuitry power
    whenever the radio is on; zero exactly at r = 0.
    """
    if h <= 0:
        raise ValueError("channel gain must be positive")
    if r < 0:
        raise ValueError("rate must be nonnegative")
    if r == 0:
        return 0.0
    return params.rho * (params.sigma2 / h) * math.expm1(params.theta * r) + params.circuit_c


def power_inverse(params: ModelParams, h: float, budget: float) -> int:
    """Largest integer rate whose required power fits within `budget`.

    Always >= 0; r = 0 when even one packet costs more than the budget.
    """
    if h <= 0:
        raise ValueError("channel gain must be positive")
    if budget < required_power(params, h, 1) - GRID_EPS:
        return 0
    # closed form, then a local float-safety correction
    x = (budget - params.circuit_c) * h / (params.rho * params.sigma2)
    r = int(math.floor(math.log1p(max(x, 0.0)) / params.theta + GRID_EPS))
    r = max(r, 1)
    while required_power(params, h, r + 1) <= budget + GRID_EPS:
        r += 1
    while r > 1 and required_power(params, h, r) > budget + GRID_EPS:
        r -= 1
    return r


def level_units(arrival: MarkovChainSpec, harvest: MarkovChainSpec, delta_e: float):
    """The arrival levels as packets and the harvest levels as delta_e quanta (int64)."""
    return tuple(np.array([int(round(v / unit)) for v in chain.values], dtype=np.int64)
                 for chain, unit in ((arrival, 1.0), (harvest, delta_e)))


class StateSpace:
    """Flat enumeration of (q, h, a, e_b, e) with mixed-radix index arithmetic.

    Index layout: q is the slowest coordinate, then h, a, e_b (as quanta of
    delta_e), and e fastest.
    """

    def __init__(self, params: ModelParams, channel: MarkovChainSpec,
                 arrival: MarkovChainSpec, harvest: MarkovChainSpec,
                 max_states: int = 2_000_000):
        self.params = params
        self.channel = channel
        self.arrival = arrival
        self.harvest = harvest

        self.nq = params.q_max + 1
        self.nh = channel.n
        self.na = arrival.n
        self.nb = params.n_battery_levels
        self.ne = harvest.n
        n = self.nq * self.nh * self.na * self.nb * self.ne
        if n > max_states:
            raise CapacityError(f"{n} states exceeds limit {max_states}")
        self.n_states = n

        self.h_values = np.asarray(channel.values)
        self.arrival_pkts, self.harvest_quanta = level_units(
            arrival, harvest, params.delta_e)

        # index = iq*s_q + ih*s_h + ia*s_a + ib*s_b + ie
        self.s_q = self.nh * self.na * self.nb * self.ne
        self.s_h = self.na * self.nb * self.ne
        self.s_a = self.nb * self.ne
        self.s_b = self.ne

        idx = np.arange(n)
        self.iq = idx // self.s_q
        rem = idx % self.s_q
        self.ih = rem // self.s_h
        rem = rem % self.s_h
        self.ia = rem // self.s_a
        rem = rem % self.s_a
        self.ib = rem // self.s_b
        self.ie = rem % self.s_b
        # the queue after the arrival and the battery after the harvest
        # (before service, draw and clamps): every action lands from these
        self.q_in = self.iq + self.arrival_pkts[self.ia]
        self.b_in = self.ib + self.harvest_quanta[self.ie]

    def state_of(self, i: int) -> SystemState:
        if not 0 <= i < self.n_states:
            raise IndexError(i)
        return SystemState(
            q=int(self.iq[i]),
            h=float(self.h_values[self.ih[i]]),
            a=int(self.arrival_pkts[self.ia[i]]),
            e_b=float(self.ib[i] * self.params.delta_e),
            e=float(np.asarray(self.harvest.values)[self.ie[i]]),
        )


@dataclass(frozen=True)
class Model:
    """Parameters plus the three exogenous chains, with cross-field validation.

    restrict_w_to_power: when True (default), battery draw is capped at the
    required power of the chosen rate, so the battery never pushes grid power
    below zero (the regime all the structural results assume). When False the
    only caps on w are the battery charge and the grid step.
    """

    params: ModelParams
    channel: MarkovChainSpec
    arrival: MarkovChainSpec
    harvest: MarkovChainSpec
    restrict_w_to_power: bool = True

    def __post_init__(self):
        if any(v <= 0 for v in self.channel.values):
            raise ConfigError("channel gains must be positive")
        for v in self.arrival.values:
            if abs(v - round(v)) > 1e-9 or v < 0:
                raise ConfigError(f"arrival level {v} must be a nonnegative integer")
        if max(self.arrival.values) > self.params.q_max:
            raise ConfigError("q_max must be at least the largest arrival burst")
        for v in self.harvest.values:
            if v < -GRID_EPS:
                raise ConfigError(f"harvest level {v} must be nonnegative")
            if abs(v / self.params.delta_e - round(v / self.params.delta_e)) > GRID_EPS:
                raise ConfigError(f"harvest level {v} must sit on the delta_e grid")

    @cached_property
    def space(self) -> StateSpace:
        return StateSpace(self.params, self.channel, self.arrival, self.harvest)

    # The per-channel-level tables below are built on first use and kept
    # read-only, like space; none of them enumerates the states.

    @cached_property
    def power_table(self) -> np.ndarray:
        """required_power_table of the params and channel levels."""
        return _read_only(required_power_table(self.params, self.channel.values))

    @cached_property
    def cap_table(self) -> np.ndarray:
        """draw_cap_table of the params and power_table."""
        return _read_only(draw_cap_table(self.params, self.power_table))

    @cached_property
    def rate_table(self) -> np.ndarray:
        """conservative_rate_table of the params and power_table."""
        return _read_only(conservative_rate_table(self.params, self.power_table))

    @cached_property
    def baseline_rows(self) -> tuple[tuple[int, ...], tuple[int, ...], int]:
        """(rates, caps, radical_row): rate_table with a row of q_max (the
        radical rate) appended as row radical_row, and cap_table, each
        flattened row by row to a tuple of ints, for the simulator's
        baseline loop, which reads one entry of each per slot."""
        radical = np.full(self.params.n_battery_levels, self.params.q_max)
        return (tuple(np.concatenate((self.rate_table.ravel(), radical)).tolist()),
                tuple(self.cap_table.ravel().tolist()), self.rate_table.shape[0])

    def mean_arrival(self) -> float:
        return self.arrival.mean()

    def mean_harvest(self) -> float:
        return self.harvest.mean()


def battery_draw_cap_quanta(params: ModelParams, h: float, r: int, ib: int,
                            restrict: bool = True) -> int:
    """Largest battery draw, in energy quanta per slot, feasible at (h, r, ib)."""
    cap = ib
    if restrict:
        p = required_power(params, h, r)
        cap = min(cap, int(math.floor(p * params.tau / params.delta_e + GRID_EPS)))
    return max(cap, 0)


def required_power_table(params: ModelParams, h_values) -> np.ndarray:
    """required_power per (channel level, rate 0..q_max), bit for bit: one
    math.expm1 per rate, then required_power's operations in its order."""
    h = np.asarray(h_values, dtype=float)
    if (h <= 0).any():
        raise ValueError("channel gain must be positive")
    # math.expm1, not np.expm1: the two differ in the last bit on some inputs
    grow = np.array([math.expm1(params.theta * r)
                     for r in range(1, params.q_max + 1)])
    table = np.zeros((h.size, params.q_max + 1))
    table[:, 1:] = params.rho * (params.sigma2 / h)[:, None] * grow + params.circuit_c
    return table


def draw_cap_table(params: ModelParams, power: np.ndarray) -> np.ndarray:
    """Greedy battery draw cap, in quanta, per (channel level, rate), read off
    power = required_power_table(params, h_values).

    min(ib, cap[ih, r]) equals battery_draw_cap_quanta(params, h_values[ih], r,
    ib) at every battery level ib of the params' grid. It is the one cap table
    the state-action builder, the simulator's baselines and the greedy-regime
    certificate all read.
    """
    cap = np.floor(power * params.tau / params.delta_e + GRID_EPS)
    return np.clip(cap, 0, params.n_battery_levels - 1).astype(np.int64)


def conservative_rate_table(params: ModelParams, power: np.ndarray) -> np.ndarray:
    """Conservative rate cap per (channel level, battery level), read off
    power = required_power_table(params, h_values).

    rc[ih, ib] equals min(power_inverse(params, h_values[ih], p_bar +
    ib * delta_e / tau), q_max): the count of rates whose required power fits
    the budget, with power_inverse's floor of one once a single packet fits.
    """
    rc = np.zeros((len(power), params.n_battery_levels), dtype=np.int64)
    if params.q_max == 0:  # rate 0 alone
        return rc
    budget = params.p_bar + np.arange(params.n_battery_levels) * params.delta_e / params.tau
    for row, p in zip(rc, power):
        fits = np.searchsorted(p[1:], budget + GRID_EPS, side="right")
        row[:] = np.where(budget < p[1] - GRID_EPS, 0, np.maximum(fits, 1))
    return rc


def _read_only(table: np.ndarray) -> np.ndarray:
    table.setflags(write=False)
    return table


# ---------------------------------------------------------------------------
# configuration loading

def _chain_from_config(cfg: dict, name: str) -> MarkovChainSpec:
    try:
        values = cfg["values"]
    except KeyError:
        raise ConfigError(f"{name}: missing 'values'") from None
    try:
        if "probs" in cfg:
            return MarkovChainSpec.iid(values, cfg["probs"])
        return MarkovChainSpec(tuple(values), np.asarray(cfg["transition"], dtype=float))
    except KeyError:
        raise ConfigError(f"{name}: needs either 'probs' or 'transition'") from None
    except ConfigError as exc:
        raise ConfigError(f"{name}: {exc}") from None


_PARAM_FIELDS = {f for f in ModelParams.__dataclass_fields__}
_SECTIONS = {"params", "channel", "arrival", "harvest", "restrict_w_to_power"}


def load_model(source) -> Model:
    """Build a Model from a dict or a JSON file path.

    Expected shape::

        {"params": {"tau": 1.0, "q_max": 8, ...},
         "channel": {"values": [...], "transition": [[...], ...]},
         "arrival": {"values": [...], "probs": [...]},
         "harvest": {"values": [...], "probs": [...]},
         "restrict_w_to_power": true}
    """
    if isinstance(source, (str, os.PathLike)) or hasattr(source, "read"):
        if hasattr(source, "read"):
            cfg = json.load(source)
        else:
            with open(source) as fh:
                cfg = json.load(fh)
    elif isinstance(source, dict):
        cfg = source
    else:
        raise ConfigError(f"cannot load a model from {type(source).__name__}")

    if not isinstance(cfg, dict):
        raise ConfigError(f"a model config is a JSON object, not {type(cfg).__name__}")
    unknown = set(cfg) - _SECTIONS
    if unknown:
        raise ConfigError(f"unknown section(s) {sorted(unknown)}")
    if "params" not in cfg:
        raise ConfigError("missing 'params' section")
    unknown = set(cfg["params"]) - _PARAM_FIELDS
    if unknown:
        raise ConfigError(f"params: unknown field(s) {sorted(unknown)}")
    try:
        params = ModelParams(**cfg["params"])
    except TypeError as exc:
        raise ConfigError(f"params: {exc}") from None

    chains = {}
    for name in ("channel", "arrival", "harvest"):
        if name not in cfg:
            raise ConfigError(f"missing '{name}' section")
        chains[name] = _chain_from_config(cfg[name], name)

    restrict = cfg.get("restrict_w_to_power", True)
    if not isinstance(restrict, bool):
        raise ConfigError(f"restrict_w_to_power must be true or false, got {restrict!r}")
    return Model(params=params, restrict_w_to_power=restrict, **chains)


def model_to_config(model: Model) -> dict:
    """Inverse of load_model, for manifests and round-tripping."""
    def chain_cfg(c: MarkovChainSpec) -> dict:
        return {"values": list(c.values), "transition": c.transition.tolist()}

    p = model.params
    return {
        "params": {name: getattr(p, name) for name in _PARAM_FIELDS},
        "channel": chain_cfg(model.channel),
        "arrival": chain_cfg(model.arrival),
        "harvest": chain_cfg(model.harvest),
        "restrict_w_to_power": model.restrict_w_to_power,
    }
