"""Numerical certificates for structural facts about solved instances.

Each check inspects a solved policy / value table and returns a
CertificateReport instead of asserting, so a runner can collect the whole
battery of results and render them as JSON or a table. Checks are
deterministic and independent; they never mutate their inputs.

The finite-difference machinery mirrors the grid: queue differences step one
packet, battery differences step one quantum (delta_e of energy, delta_e/tau
of power), and clamped coordinates are differenced after clamping, so a
saturated transition contributes a zero difference rather than an
out-of-range lookup. It is array code over all states at once: marginals are
gathered from the solvers' post-decision table at per-state leftover
(queue, battery) arrays, and feasibility reads the one draw-cap table
(Model.cap_table, from model.draw_cap_table) the state-action builder and the
baselines read.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .heuristics import solve_reduced_rate_mdp
from .io import _jsonable
from .mdp import (
    ActionSpace,
    SolverConfig,
    TablePolicy,
    ValueTable,
    build_action_space,
    discounted_value_iteration,
    evaluate_policy,
    exogenous_chain,
    post_decision_values,
    recurrent_classes,
    relative_value_iteration,
)
from .model import Model

PASS = "pass"
FAIL = "fail"
NOT_APPLICABLE = "not-applicable"


@dataclass
class CertificateReport:
    name: str
    status: str
    worst_violation: float = 0.0
    witness: dict | None = None
    details: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.status not in (PASS, FAIL, NOT_APPLICABLE):
            raise ValueError(f"unknown certificate status {self.status!r}")
        if self.status == FAIL and self.witness is None:
            raise ValueError("a failing certificate must carry a witness")


def _state_witness(model: Model, i: int, **extra) -> dict:
    x = model.space.state_of(int(i))
    out = {"state_index": int(i), "q": x.q, "h": x.h, "a": x.a,
           "e_b": x.e_b, "e": x.e}
    out.update(extra)
    return _jsonable(out)


# ---------------------------------------------------------------------------
# recurrence structure under a fixed policy


def check_no_overflow_waste(policy: TablePolicy, model: Model,
                            actions: ActionSpace | None = None) -> CertificateReport:
    """No recurrent state may spill battery energy while leaving data queued.

    A policy that overflows the battery in a state with leftover backlog is
    strictly improvable (the spilled energy could have transmitted for free),
    so the solved optimum must avoid the combination. If no recurrent state
    can overflow at all, the certificate is vacuous and reported as such.
    """
    name = "no-overflow-waste"
    space = model.space
    actions = actions if actions is not None else build_action_space(model)
    r, wq = sa = actions.sa_of_policy(policy)
    # a state is recurrent exactly when a recurrent lumped state reaches it
    lp = actions.lumped(actions.post_index(*sa))
    closed = recurrent_classes(actions.lumped_chain([(1.0, lp)]))[0]
    rec = np.flatnonzero(actions.state_measure(closed.astype(float)) > 0.0)
    b_in = space.b_in[rec]
    if not (b_in > space.nb - 1).any():
        return CertificateReport(name, NOT_APPLICABLE, details=_jsonable({
            "reason": "no recurrent state can overflow the battery",
            "n_recurrent": rec.size}))
    leftover = space.iq[rec] - r[rec]
    spill = b_in - wq[rec] - (space.nb - 1)
    bad = (leftover != 0) & (spill > 0)
    if bad.any():
        spill_energy = spill * model.params.delta_e
        worst_pos = int(np.flatnonzero(bad)[np.argmax(spill_energy[bad])])
        s = int(rec[worst_pos])
        return CertificateReport(
            name, FAIL, worst_violation=float(spill_energy[worst_pos]),
            witness=_state_witness(model, s, r=r[s],
                                   w=wq[s] * model.params.delta_e
                                   / model.params.tau,
                                   spilled_energy=spill_energy[worst_pos],
                                   leftover_packets=leftover[worst_pos]),
            details=_jsonable({"n_recurrent": rec.size,
                             "n_violations": int(bad.sum())}))
    return CertificateReport(name, PASS, details=_jsonable({
        "n_recurrent": rec.size,
        "n_overflowing": int(((spill > 0)).sum())}))


# ---------------------------------------------------------------------------
# value-table shape

# the values are solved to epsilon 1e-9: a shape miss within it is rounding
VALUE_SHAPE_TOL = 1e-9


def _shape_report(name: str, viols: list, model: Model) -> CertificateReport:
    """Fails on the worst violation over the arrays viols, each indexed by
    the first corner of its difference in the value table's (q, h, a, b, e)
    shape. The witness is the smallest state index within the tolerance of
    the worst, so rounding-level moves of the values cannot move it among
    tied violations."""
    tol = VALUE_SHAPE_TOL
    worst = max((float(v.max()) for v in viols if v.size), default=0.0)
    if worst > 0.0:
        space = model.space
        shape = (space.nq, space.nh, space.na, space.nb, space.ne)
        idx = min(int(np.ravel_multi_index(np.nonzero(v >= worst - tol), shape).min())
                  for v in viols if v.size and v.max() >= worst - tol)
        return CertificateReport(name, FAIL, worst_violation=worst,
                                 witness=_state_witness(model, idx),
                                 details={"tolerance": tol})
    return CertificateReport(name, PASS, details={
        "tolerance": tol, "n_compared": sum(int(v.size) for v in viols)})


def check_value_shape(values: ValueTable, model: Model) -> tuple[
        CertificateReport, CertificateReport, CertificateReport]:
    """Monotonicity and midpoint convexity of the discounted value table.

    Returns three reports: strictly increasing in backlog, non-increasing in
    stored battery energy, and midpoint convexity in the (backlog, battery)
    plane (axis and both diagonal directions). Convexity relies on draws
    never exceeding the required power, so it is reported not-applicable when
    that restriction is disabled on the model.
    """
    if values.alpha is None:
        raise ValueError("value-shape checks expect discounted values")
    space = model.space
    V = values.values.reshape(space.nq, space.nh, space.na, space.nb, space.ne)
    tol = VALUE_SHAPE_TOL

    if space.nq > 1:
        rep_q = _shape_report("value-increasing-in-backlog",
                              [np.maximum(0.0, tol - (V[1:] - V[:-1]))], model)
    else:
        rep_q = CertificateReport("value-increasing-in-backlog", NOT_APPLICABLE,
                                  details={"reason": "single backlog level"})

    if space.nb > 1:
        d = V[:, :, :, 1:, :] - V[:, :, :, :-1, :]
        rep_b = _shape_report("value-non-increasing-in-battery",
                              [np.maximum(0.0, d - tol)], model)
    else:
        rep_b = CertificateReport("value-non-increasing-in-battery",
                                  NOT_APPLICABLE,
                                  details={"reason": "single battery level"})

    name_c = "value-convex-in-backlog-battery"
    if not model.restrict_w_to_power:
        rep_c = CertificateReport(name_c, NOT_APPLICABLE, details={
            "reason": "draw-above-required-power allowed; convexity not implied"})
    else:
        segments = []
        if space.nq > 2:
            segments.append(V[2:] - 2 * V[1:-1] + V[:-2])
        if space.nb > 2:
            segments.append(V[:, :, :, 2:, :] - 2 * V[:, :, :, 1:-1, :]
                            + V[:, :, :, :-2, :])
        if space.nq > 2 and space.nb > 2:
            segments.append(V[2:, :, :, 2:, :] - 2 * V[1:-1, :, :, 1:-1, :]
                            + V[:-2, :, :, :-2, :])
            segments.append(V[2:, :, :, :-2, :] - 2 * V[1:-1, :, :, 1:-1, :]
                            + V[:-2, :, :, 2:, :])
        if not segments:
            rep_c = CertificateReport(name_c, NOT_APPLICABLE, details={
                "reason": "grids too small for curvature"})
        else:
            rep_c = _shape_report(name_c, [np.maximum(0.0, -seg - tol)
                                           for seg in segments], model)
    return rep_q, rep_b, rep_c


# ---------------------------------------------------------------------------
# backward-difference optimality certificates


def _post_decision_table(values: ValueTable, model: Model) -> np.ndarray:
    """The solvers' post-decision table, indexed [q', jb', ih, ia, ie]: the
    chain-expected next value after leaving q' packets and jb' quanta."""
    if values.alpha is None:
        raise ValueError("difference certificates expect discounted values")
    space = model.space
    return post_decision_values(values.values, space,
                                exogenous_chain(model)).reshape(
        space.nq, space.nb, space.nh, space.na, space.ne)


# the state axis's index when a difference function takes every state
_ALL_STATES = slice(None)


def _difference_algebra(values: ValueTable, model: Model):
    """Marginals, feasibility and prices of every state, as array functions.

    Leaving u packets queued and j quanta stored at state x continues with
    W(u, j) = ev[u + a, j + e, h, a, e]: the current arrival and harvest enter
    deterministically (clamped at the top) and the chains advance one step.
    u and j are per-state integer arrays or scalars; each function returns
    one entry per state, and indices off the grid are clipped only where the
    returned validity mask is False. Given at, a basic index into the state
    axis (a slice, perhaps with a new trailing axis), the functions work on
    those states alone and u, j broadcast against their arrays. All
    certificate quantities are combinations of W differences, of the
    circuit-cost step and of the grid-power price.
    """
    ev = _post_decision_table(values, model)
    space = model.space
    p = model.params
    alpha, beta = float(values.alpha), float(values.beta)
    dstep = p.delta_e / p.tau
    nq, nb = space.nq, space.nb
    iq, ih, ia, ib, ie = space.iq, space.ih, space.ia, space.ib, space.ie
    a_pkts = space.arrival_pkts[ia]
    e_quanta = space.harvest_quanta[ie]
    cap = model.cap_table
    # math.exp, not np.exp: the two may differ in the last ulp
    exp_theta = np.array([math.exp(p.theta * u) for u in range(nq + 1)])

    def w(u, j, at):
        qn, bn = u + a_pkts[at], j + e_quanta[at]
        return (ev[np.clip(qn, 0, nq - 1), np.clip(bn, 0, nb - 1),
                   ih[at], ia[at], ie[at]],
                (qn >= 0) & (bn >= 0))

    def marginal(u, j, du, dj, at=_ALL_STATES):
        """alpha (W(u, j) - W(u - du, j - dj)) plus the one-step cost change
        of the move; a move that serves a packet (du = 1) is normalised by
        exp(theta u). Valid where both continuations stay on the grid."""
        w1, ok1 = w(u, j, at)
        w0, ok0 = w(u - du, j - dj, at)
        z = alpha * (w1 - w0)
        if du:
            # circuit-cost change when serving one more packet from u
            q = iq[at]
            circuit_step = (np.where(q - u > 0, p.circuit_c, 0.0)
                            - np.where(q - u + 1 > 0, p.circuit_c, 0.0))
            z = z + beta * circuit_step
            if dj:
                z = z + beta * dstep
            z = exp_theta[np.clip(u, 0, nq)] * z
        return z, ok1 & ok0

    def feasible(u, j, at=_ALL_STATES):
        """Leftover pair reachable without drawing beyond the required power.

        The cap is enforced for the certificate even when the model allows
        larger draws: past it the grid-power hinge is active and the smooth
        difference algebra no longer represents the one-step cost.
        """
        q, b = iq[at], ib[at]
        inside = (0 <= u) & (u <= q) & (0 <= j) & (j <= b)
        r = np.clip(q - u, 0, nq - 1)
        return inside & (b - j <= np.minimum(b, cap[ih[at], r]))

    rate_price = (beta * p.rho * (p.sigma2 / space.h_values)[ih]
                  * exp_theta[iq] * (math.exp(p.theta) - 1.0))
    draw_price = np.full(space.n_states, -beta * dstep)
    return marginal, feasible, rate_price, draw_price


# relative slack of marginal against price: a marginal differences two values
MARGINAL_TOL = 1e-7


def _cmp_tol(a, b):
    return MARGINAL_TOL * np.maximum(np.maximum(1.0, np.abs(a)), np.abs(b))


def _first_worst(viol: np.ndarray):
    """Row, column and value of the first strict maximum of a per-state
    violation table in (state, column) order, or None when none is positive:
    the entry a sequential `violation > worst` scan would keep."""
    k = int(np.argmax(viol))
    s, col = divmod(k, viol.shape[1])
    return (s, col, float(viol[s, col])) if viol[s, col] > 0.0 else None


# (condition, du, dj): the perturbed action leaves (u + du, j + dj)
_SIDES = (("serve-one-less", 1, 0), ("serve-one-more", -1, 0),
          ("draw-one-less", 0, 1), ("draw-one-more", 0, -1),
          ("serve-less-draw-less", 1, 1), ("serve-more-draw-more", -1, -1))


def check_necessary_conditions(values: ValueTable, policy: TablePolicy,
                               model: Model) -> CertificateReport:
    """First-order optimality of the stored action at every state.

    Each feasible one-step perturbation of the action (serve one more/less,
    draw one quantum more/less, and the two paired moves) must not improve
    the one-step target; rewritten as marginal-vs-price comparisons. Sides
    whose perturbed action is infeasible are skipped (boundary states get
    one-sided checks). Tolerance is relative above unit scale.
    """
    name = "action-first-order-conditions"
    marginal, feasible, rate_price, draw_price = _difference_algebra(values,
                                                                     model)
    space = model.space
    r, wq = policy.actions_on(model)
    u, j = space.iq - r, space.ib - wq
    # a stored action that draws past the required power (only possible when
    # the model relaxes the draw cap) is skipped: the algebra does not apply
    at_action = feasible(u, j)
    sides = []
    for _, du, dj in _SIDES:
        # the marginal of a move sits at its upper end
        z, ok = marginal(np.maximum(u, u + du), np.maximum(j, j + dj),
                         abs(du), abs(dj))
        price = rate_price if du else draw_price
        sides.append((at_action & feasible(u + du, j + dj) & ok,
                      price - z if du + dj > 0 else z - price, price, z))
    # (state, side) tables
    checked, raw, prices, zs = (np.stack(col, axis=1) for col in zip(*sides))
    bad = checked & (raw - _cmp_tol(prices, zs) > 0)

    n_checked = int(checked.sum())
    n_at_action = int(at_action.sum())
    details = _jsonable({"n_sides_checked": n_checked,
                         "n_sides_skipped": 6 * n_at_action - n_checked,
                         "n_states_skipped": space.n_states - n_at_action,
                         "alpha": float(values.alpha),
                         "beta": float(values.beta), "tolerance": MARGINAL_TOL})
    worst = _first_worst(np.where(bad, raw, 0.0))
    if worst is None:
        return CertificateReport(name, PASS, details=details)
    s, k, violation = worst
    dstep = model.params.delta_e / model.params.tau
    witness = _state_witness(model, s, r=int(r[s]), w=int(wq[s]) * dstep,
                             condition=_SIDES[k][0], marginal=zs[s, k],
                             price=prices[s, k])
    return CertificateReport(name, FAIL, worst_violation=violation,
                             witness=witness, details=details)


def check_special_states(values: ValueTable, policy: TablePolicy,
                         model: Model) -> CertificateReport:
    """Closed-form actions where the marginal prices certify them.

    Two regimes admit closed forms: serve-everything with the largest
    feasible draw (when even the full-service marginals beat the prices
    strictly), and full idling (when even the idle marginals lose to the
    prices strictly). The certificates additionally require the marginal
    arrays to be extremal at the closed-form action over the whole feasible
    lattice -- the assumption the regimes rest on; states where that ordering
    fails numerically are excluded rather than failed. Premises must hold
    strictly beyond tolerance. The empty-backlog state pins the policy to
    (0, 0) whenever draws are capped by required power.
    """
    name = "closed-form-special-states"
    marginal, feasible, rate_price, draw_price = _difference_algebra(values,
                                                                     model)
    space = model.space
    q, ib = space.iq, space.ib
    r, wq = policy.actions_on(model)
    busy = q > 0

    # extremes of the rate and draw marginals over each state's feasible
    # lattice 0 <= u <= q, 0 <= j <= e_b; an empty lattice keeps lo > hi.
    # Offset u belongs to the lattices of the states with q >= u, a suffix of
    # the state order (q varies slowest): each step takes those states, one
    # row each, against every j at once
    n = space.n_states
    rate_lo, draw_lo = np.full(n, np.inf), np.full(n, np.inf)
    rate_hi, draw_hi = np.full(n, -np.inf), np.full(n, -np.inf)
    jj = np.arange(space.nb)
    for uu in range(space.nq):
        at = np.s_[uu * space.s_q:, None]
        reach = feasible(uu, jj, at)
        for du, dj, lo, hi in ((1, 0, rate_lo, rate_hi),
                               (0, 1, draw_lo, draw_hi)):
            if uu >= du:
                z, ok = marginal(uu, jj, du, dj, at)
                use = reach & ok & (jj >= dj)
                np.minimum(lo[at[0]], z.min(axis=1, initial=np.inf, where=use),
                           out=lo[at[0]])
                np.maximum(hi[at[0]], z.max(axis=1, initial=-np.inf, where=use),
                           out=hi[at[0]])

    # serve-everything regime: marginals at (0, j_full), strictly above price
    cap_full = np.minimum(ib, model.cap_table[space.ih, q])
    z1, ok1 = marginal(0, ib - cap_full, 1, 0)
    z2, ok2 = marginal(0, ib - cap_full, 0, 1)
    serve_eval = busy & ok1 & ok2
    prem = ((z1 > rate_price + _cmp_tol(rate_price, z1))
            & (z2 > draw_price + _cmp_tol(draw_price, z2)))
    ordered = (((rate_lo > rate_hi)
                | (z1 <= rate_lo + _cmp_tol(z1, rate_lo)))
               & ((draw_lo > draw_hi)
                  | (z2 <= draw_lo + _cmp_tol(z2, draw_lo))))
    serve_all = serve_eval & prem & ordered
    serve_excluded = serve_eval & prem & ~ordered

    # idle regime: marginals at (q, e_b), strictly below price
    z1, ok1 = marginal(q, ib, 1, 0)
    z2, ok2 = marginal(q, ib, 0, 1)
    idle_eval = busy & ok1 & ok2
    prem = ((z1 < rate_price - _cmp_tol(rate_price, z1))
            & (z2 < draw_price - _cmp_tol(draw_price, z2)))
    ordered = (((rate_lo > rate_hi)
                | (z1 >= rate_hi - _cmp_tol(z1, rate_hi)))
               & ((draw_lo > draw_hi)
                  | (z2 >= draw_hi - _cmp_tol(z2, draw_hi))))
    idle = idle_eval & prem & ordered
    idle_excluded = idle_eval & prem & ~ordered

    empty = ~busy if model.restrict_w_to_power else np.zeros_like(busy)
    acts = (r != 0) | (wq != 0)

    details = _jsonable({"n_serve_all_states": serve_all.sum(),
                         "n_idle_states": idle.sum(),
                         "n_empty_backlog_states": empty.sum(),
                         "n_ordering_excluded": serve_excluded.sum()
                         + idle_excluded.sum(),
                         "n_unevaluable": (busy & ~serve_eval).sum()
                         + (busy & ~idle_eval).sum(),
                         "alpha": float(values.alpha),
                         "beta": float(values.beta), "tolerance": MARGINAL_TOL})
    off_serve_all = serve_all & ((r != q) | (np.abs(wq - cap_full) > 1))
    viol = np.stack([
        np.where(empty & acts, 1.0, 0.0),
        np.where(off_serve_all,
                 np.maximum(np.abs(q - r), np.abs(wq - cap_full)), 0),
        np.where(idle & acts, np.maximum(r, wq), 0)], axis=1)
    worst = _first_worst(viol)
    if worst is None:
        status = PASS if (serve_all | idle | empty).any() else NOT_APPLICABLE
        return CertificateReport(name, status, details=details)
    s, k, violation = worst
    dstep = model.params.delta_e / model.params.tau
    expected = ({"expected": "(0, 0)", "regime": "empty-backlog"},
                {"expected_r": int(q[s]),
                 "expected_w": int(cap_full[s]) * dstep,
                 "regime": "serve-everything"},
                {"expected": "(0, 0)", "regime": "idle"})[k]
    witness = _state_witness(model, s, r=int(r[s]), w=int(wq[s]) * dstep,
                             **expected)
    return CertificateReport(name, FAIL, worst_violation=violation,
                             witness=witness, details=details)


# ---------------------------------------------------------------------------
# monotonicity across the price and across the state lattice

# solves at 1e-11 whatever the battery's epsilon, so 1e-9 comparisons hold
MONOTONICITY_TOL = 1e-9
MONOTONICITY_EPSILON = 1e-11


def check_beta_monotonicity(model: Model, beta_grid,
                            actions: ActionSpace | None = None) -> CertificateReport:
    """Exact per-policy averages must move monotonically with the price.

    Raising the grid-power price never lowers the optimal combined gain,
    never lowers the backlog average, and never raises the grid-power
    average. Each grid point is solved and then evaluated exactly (stationary
    law). The grid is walked in ascending order and each solve's policy
    iteration starts from the previous price's policy, whose LU the previous
    evaluation left on the actions; as in the budgeted search, the start only
    saves evaluations.
    """
    name = "price-monotonicity"
    betas = sorted(float(b) for b in beta_grid)
    if len(betas) == 0:
        raise ValueError("beta_grid must be non-empty")
    actions = actions if actions is not None else build_action_space(model)
    rows = []
    policy = None
    for b in betas:
        res = relative_value_iteration(
            SolverConfig(beta=b, epsilon=MONOTONICITY_EPSILON), model,
            actions=actions, start=policy)
        policy = res.policy
        ev = evaluate_policy(policy, b, model, actions=actions)
        rows.append({"beta": b, "gain_j": ev.gain_j,
                     "mean_queue_b": ev.mean_queue_b,
                     "mean_grid_k": ev.mean_grid_k})
    worst = 0.0
    witness = None
    for lo, hi in zip(rows, rows[1:]):
        checks = [("gain_j", lo["gain_j"] - hi["gain_j"]),
                  ("mean_queue_b", lo["mean_queue_b"] - hi["mean_queue_b"]),
                  ("mean_grid_k", hi["mean_grid_k"] - lo["mean_grid_k"])]
        for label, raw in checks:
            if raw > MONOTONICITY_TOL and raw > worst:
                worst = raw
                witness = _jsonable({"quantity": label, "beta_low": lo["beta"],
                                   "beta_high": hi["beta"],
                                   "value_low": lo[label],
                                   "value_high": hi[label]})
    details = _jsonable({"grid": rows, "tolerance": MONOTONICITY_TOL})
    if witness is not None:
        return CertificateReport(name, FAIL, worst_violation=worst,
                                 witness=witness, details=details)
    return CertificateReport(name, PASS, details=details)


def check_policy_monotonicity(policy: TablePolicy,
                              model: Model) -> CertificateReport:
    """Served rate and battery draw are non-decreasing in backlog and charge."""
    name = "policy-monotonicity"
    space = model.space
    shape = (space.nq, space.nh, space.na, space.nb, space.ne)
    R, W = (x.reshape(shape) for x in policy.actions_on(model))
    if space.nq == 1 and space.nb == 1:
        return CertificateReport(name, NOT_APPLICABLE, details={
            "reason": "no comparable lattice pairs"})
    worst = 0.0
    witness = None
    n_compared = 0
    for arr, label in ((R, "r"), (W, "w_quanta")):
        for axis, axis_name in ((0, "backlog"), (3, "battery")):
            if shape[axis] < 2:
                continue
            d = np.diff(arr, axis=axis)
            n_compared += d.size
            drop = -d
            m = int(drop.max()) if drop.size else 0
            if m > 0 and float(m) > worst:
                worst = float(m)
                at = np.unravel_index(int(np.argmax(drop)), drop.shape)
                witness = _state_witness(model,
                                         np.ravel_multi_index(at, shape),
                                         quantity=label, axis=axis_name,
                                         drop=m)
    if witness is not None:
        return CertificateReport(name, FAIL, worst_violation=worst,
                                 witness=witness,
                                 details={"n_compared": n_compared})
    return CertificateReport(name, PASS, details={"n_compared": n_compared})


# ---------------------------------------------------------------------------
# price regimes for the battery draw

BETA_GRID = (0.01, 0.1, 1.0, 10.0, 100.0)  # two decades around price 1
BETA_LARGE = 1e4  # grid power outweighs any backlog
BETA_SMALL = 1e-6  # grid power is nearly free
GAIN_TOL = 1e-6  # each gain is bracketed to epsilon by its own solve


def check_greedy_regimes(model: Model, beta_large: float = BETA_LARGE,
                         beta_small: float = BETA_SMALL, epsilon: float = 1e-9,
                         actions: ActionSpace | None = None) -> CertificateReport:
    """Battery-draw structure at extreme grid-power prices.

    At a large price the optimal draw must be greedy in every state, and the
    rate-only reduction (battery drawn greedily inside the dynamics) must
    reproduce the full gain -- both hard requirements. At a tiny price the
    certificate only reports whether some state holds battery back (draws
    less than greedy with charge available); that regime is instance-
    dependent, so it never fails the check.
    """
    name = "greedy-battery-regimes"
    space = model.space
    params = model.params
    actions = actions if actions is not None else build_action_space(model)

    full = relative_value_iteration(
        SolverConfig(beta=beta_large, epsilon=epsilon), model,
        actions=actions)
    _, caps = actions.window(full.policy.r)  # the greedy draws
    non_greedy = full.policy.w_quanta != caps
    reduced = solve_reduced_rate_mdp(beta_large, model, epsilon=epsilon)
    gain_gap = abs(full.gain - reduced.gain)

    small = relative_value_iteration(
        SolverConfig(beta=beta_small, epsilon=epsilon), model,
        actions=actions)
    _, caps_small = actions.window(small.policy.r)
    held_back = (small.policy.w_quanta < caps_small) & (space.ib > 0)
    sample = None
    if held_back.any():
        i = int(np.flatnonzero(held_back)[0])
        sample = _state_witness(model, i, r=small.policy.r[i],
                                w=float(small.policy.w_quanta[i])
                                * params.delta_e / params.tau,
                                greedy_w=float(caps_small[i]) * params.delta_e
                                / params.tau)

    details = _jsonable({
        "beta_large": beta_large, "beta_small": beta_small,
        "full_gain_at_beta_large": full.gain,
        "reduced_gain_at_beta_large": reduced.gain,
        "gain_gap": gain_gap, "gain_tolerance": GAIN_TOL,
        "n_non_greedy_at_beta_large": int(non_greedy.sum()),
        "non_greedy_at_beta_small": bool(held_back.any()),
        "beta_small_sample": sample})

    if non_greedy.any():
        i = int(np.flatnonzero(non_greedy)[0])
        return CertificateReport(
            name, FAIL,
            worst_violation=float(np.abs(full.policy.w_quanta - caps)
                                  .max() * params.delta_e / params.tau),
            witness=_state_witness(model, i, r=full.policy.r[i],
                                   w=float(full.policy.w_quanta[i])
                                   * params.delta_e / params.tau,
                                   greedy_w=float(caps[i]) * params.delta_e
                                   / params.tau,
                                   regime="large-price"),
            details=details)
    if gain_gap > GAIN_TOL:
        return CertificateReport(
            name, FAIL, worst_violation=float(gain_gap),
            witness=_jsonable({"regime": "large-price-reduction",
                             "full_gain": full.gain,
                             "reduced_gain": reduced.gain}),
            details=details)
    return CertificateReport(name, PASS, details=details)


# ---------------------------------------------------------------------------
# orchestration + rendering


def run_all_checks(model: Model, beta: float = 1.0, alpha: float = 0.999,
                   epsilon: float = 1e-9) -> list[CertificateReport]:
    """Solve once and run the whole certificate battery."""
    actions = build_action_space(model)
    avg = relative_value_iteration(
        SolverConfig(beta=beta, epsilon=epsilon), model, actions=actions)
    disc = discounted_value_iteration(
        SolverConfig(beta=beta, alpha=alpha, epsilon=epsilon), model,
        actions=actions)
    reports = [check_no_overflow_waste(avg.policy, model, actions=actions)]
    reports.extend(check_value_shape(disc.values, model))
    reports.append(check_necessary_conditions(disc.values, disc.policy, model))
    reports.append(check_special_states(disc.values, disc.policy, model))
    reports.append(check_beta_monotonicity(model, BETA_GRID, actions=actions))
    reports.append(check_policy_monotonicity(avg.policy, model))
    reports.append(check_greedy_regimes(model, epsilon=epsilon,
                                        actions=actions))
    return reports


def report_to_dict(report: CertificateReport) -> dict:
    return _jsonable({"name": report.name, "status": report.status,
                    "worst_violation": report.worst_violation,
                    "witness": report.witness, "details": report.details})


def reports_to_json(reports) -> str:
    return json.dumps([report_to_dict(r) for r in reports], indent=2,
                      sort_keys=True) + "\n"


def format_reports(reports) -> str:
    """Fixed-width human-readable summary table."""
    width = max(len(r.name) for r in reports) if reports else 4
    lines = [f"{'check'.ljust(width)}  {'status'.ljust(14)}  worst violation"]
    lines.append("-" * len(lines[0]))
    for r in reports:
        v = "-" if r.worst_violation == 0.0 else f"{r.worst_violation:.3e}"
        lines.append(f"{r.name.ljust(width)}  {r.status.ljust(14)}  {v}")
    return "\n".join(lines) + "\n"


def any_hard_failure(reports) -> bool:
    return any(r.status == FAIL for r in reports)
