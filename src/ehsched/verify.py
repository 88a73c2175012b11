"""Numerical certificates for structural facts about solved instances.

Each check inspects a solved policy / value table and returns a
CertificateReport instead of asserting, so a runner can collect the whole
battery of results and render them as JSON or a table. Checks are
deterministic and independent; they never mutate their inputs.

The finite-difference machinery mirrors the grid: queue differences step one
packet, battery differences step one quantum (delta_e of energy, delta_e/tau
of power), and clamped coordinates are differenced after clamping, so a
saturated transition contributes a zero difference rather than an
out-of-range lookup.
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
    policy_chain,
    post_decision_values,
    recurrent_classes,
    relative_value_iteration,
)
from .model import Model, battery_draw_cap_quanta, draw_cap_table

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
    P, _ = policy_chain(policy, actions)
    rec = np.flatnonzero(recurrent_classes(P)[0])
    ib = space.ib[rec]
    eq = space.harvest_quanta[space.ie[rec]]
    if not (ib + eq > space.nb - 1).any():
        return CertificateReport(name, NOT_APPLICABLE, details=_jsonable({
            "reason": "no recurrent state can overflow the battery",
            "n_recurrent": rec.size}))
    leftover = space.iq[rec] - policy.r[rec]
    spill = ib - policy.w_quanta[rec] + eq - (space.nb - 1)
    bad = (leftover != 0) & (spill > 0)
    if bad.any():
        spill_energy = spill * model.params.delta_e
        worst_pos = int(np.flatnonzero(bad)[np.argmax(spill_energy[bad])])
        s = int(rec[worst_pos])
        return CertificateReport(
            name, FAIL, worst_violation=float(spill_energy[worst_pos]),
            witness=_state_witness(model, s, r=policy.r[s],
                                   w=policy.w_quanta[s] * model.params.delta_e
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


def _shape_report(name: str, viol: np.ndarray, model: Model,
                  coords_shape: tuple, tol: float) -> CertificateReport:
    worst = float(viol.max()) if viol.size else 0.0
    if viol.size and worst > 0.0:
        at = np.unravel_index(int(np.argmax(viol)), coords_shape)
        space = model.space
        idx = (at[0] * space.s_q + at[1] * space.s_h + at[2] * space.s_a
               + at[3] * space.s_b + at[4])
        return CertificateReport(name, FAIL, worst_violation=worst,
                                 witness=_state_witness(model, idx),
                                 details={"tolerance": tol})
    return CertificateReport(name, PASS, details={"tolerance": tol,
                                                  "n_compared": int(viol.size)})


def check_value_shape(values: ValueTable, model: Model,
                      tol: float = 1e-9) -> tuple[CertificateReport,
                                                  CertificateReport,
                                                  CertificateReport]:
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

    if space.nq > 1:
        d = V[1:] - V[:-1]
        viol = np.maximum(0.0, tol - d)
        rep_q = _shape_report("value-increasing-in-backlog", viol, model,
                              d.shape, tol)
    else:
        rep_q = CertificateReport("value-increasing-in-backlog", NOT_APPLICABLE,
                                  details={"reason": "single backlog level"})

    if space.nb > 1:
        d = V[:, :, :, 1:, :] - V[:, :, :, :-1, :]
        viol = np.maximum(0.0, d - tol)
        rep_b = _shape_report("value-non-increasing-in-battery", viol, model,
                              d.shape, tol)
    else:
        rep_b = CertificateReport("value-non-increasing-in-battery",
                                  NOT_APPLICABLE,
                                  details={"reason": "single battery level"})

    name_c = "value-convex-in-backlog-battery"
    if not model.restrict_w_to_power:
        rep_c = CertificateReport(name_c, NOT_APPLICABLE, details={
            "reason": "draw-above-required-power allowed; convexity not implied"})
    else:
        worst, at_shape, at_idx = 0.0, None, None
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
            n_compared = 0
            worst_report = None
            for seg in segments:
                viol = np.maximum(0.0, -(seg) - tol)
                n_compared += viol.size
                m = float(viol.max()) if viol.size else 0.0
                if m > worst:
                    worst = m
                    at = np.unravel_index(int(np.argmax(viol)), seg.shape)
                    worst_report = _state_witness(
                        model,
                        (at[0] * space.s_q + at[1] * space.s_h
                         + at[2] * space.s_a + at[3] * space.s_b + at[4]))
            if worst > 0.0:
                rep_c = CertificateReport(name_c, FAIL, worst_violation=worst,
                                          witness=worst_report,
                                          details={"tolerance": tol})
            else:
                rep_c = CertificateReport(name_c, PASS, details={
                    "tolerance": tol, "n_compared": n_compared})
    return rep_q, rep_b, rep_c


# ---------------------------------------------------------------------------
# backward-difference optimality certificates


class _DifferenceContext:
    """Per-state access to expected-continuation differences.

    The continuation of playing (leftover queue u, leftover battery j) from
    state x is W(u, j) = E[V(next)] where the current arrival and harvest
    enter deterministically (clamped) and the chains advance one step. All
    certificate quantities are algebraic combinations of W differences, of
    the circuit-cost steps, and of the grid-power price.
    """

    def __init__(self, values: ValueTable, model: Model):
        if values.alpha is None:
            raise ValueError("difference certificates expect discounted values")
        space = model.space
        # ev[q', jb', ih, ia, ie] = chain-expected next value, the solvers'
        # post-decision table
        self.ev = post_decision_values(values.values, space,
                                       exogenous_chain(model)).reshape(
            space.nq, space.nb, space.nh, space.na, space.ne)
        self.model = model
        self.space = space
        self.alpha = float(values.alpha)
        self.beta = float(values.beta)
        self.params = model.params
        self.theta = self.params.theta
        self.dstep = self.params.delta_e / self.params.tau

    def state_view(self, s: int) -> "_StateDifferences":
        return _StateDifferences(self, s)


class _StateDifferences:
    def __init__(self, ctx: _DifferenceContext, s: int):
        space = ctx.space
        self.ctx = ctx
        self.s = s
        self.iq = int(space.iq[s])
        self.ih = int(space.ih[s])
        self.ia = int(space.ia[s])
        self.ib = int(space.ib[s])
        self.ie = int(space.ie[s])
        self.h = float(space.h_values[self.ih])
        self.a_pkts = int(space.arrival_pkts[self.ia])
        self.e_quanta = int(space.harvest_quanta[self.ie])
        p = ctx.params
        self.rate_price = (ctx.beta * p.rho * (p.sigma2 / self.h)
                           * math.exp(ctx.theta * self.iq)
                           * (math.exp(ctx.theta) - 1.0))
        self.draw_price = -ctx.beta * ctx.dstep

    def w(self, u: int, j: int) -> float | None:
        """Expected continuation; None when the backward shift leaves the grid."""
        space = self.ctx.space
        qn = u + self.a_pkts
        bn = j + self.e_quanta
        if qn < 0 or bn < 0:
            return None
        return float(self.ctx.ev[min(qn, space.nq - 1), min(bn, space.nb - 1),
                                 self.ih, self.ia, self.ie])

    def _circuit_step(self, u: int) -> float:
        # one-step circuit-cost change when serving one more packet from u
        c = self.ctx.params.circuit_c
        now = c if (self.iq - u) > 0 else 0.0
        more = c if (self.iq - u + 1) > 0 else 0.0
        return now - more

    def z_rate(self, u: int, j: int) -> float | None:
        """Normalised marginal of the one-step target along the queue axis."""
        w1, w0 = self.w(u, j), self.w(u - 1, j)
        if w1 is None or w0 is None:
            return None
        return math.exp(self.ctx.theta * u) * (
            self.ctx.alpha * (w1 - w0) + self.ctx.beta * self._circuit_step(u))

    def z_draw(self, u: int, j: int) -> float | None:
        """Marginal along the battery axis, per quantum."""
        w1, w0 = self.w(u, j), self.w(u, j - 1)
        if w1 is None or w0 is None:
            return None
        return self.ctx.alpha * (w1 - w0)

    def z_diag(self, u: int, j: int) -> float | None:
        """Marginal along the serve-one-more-paid-by-battery diagonal."""
        w1, w0 = self.w(u, j), self.w(u - 1, j - 1)
        if w1 is None or w0 is None:
            return None
        return math.exp(self.ctx.theta * u) * (
            self.ctx.alpha * (w1 - w0)
            + self.ctx.beta * self._circuit_step(u)
            + self.ctx.beta * self.ctx.dstep)

    def feasible(self, u: int, j: int) -> bool:
        """Leftover pair reachable without drawing beyond the required power.

        The cap is enforced for the certificate even when the model allows
        larger draws: past it the grid-power hinge is active and the smooth
        difference algebra no longer represents the one-step cost.
        """
        if not (0 <= u <= self.iq and 0 <= j <= self.ib):
            return False
        cap = battery_draw_cap_quanta(self.ctx.params, self.h, self.iq - u,
                                      self.ib, True)
        return self.ib - j <= cap


def _cmp_tol(tol: float, *magnitudes: float) -> float:
    scale = 1.0
    for m in magnitudes:
        scale = max(scale, abs(m))
    return tol * scale


def check_necessary_conditions(values: ValueTable, policy: TablePolicy,
                               model: Model,
                               tol: float = 1e-7) -> CertificateReport:
    """First-order optimality of the stored action at every state.

    Each feasible one-step perturbation of the action (serve one more/less,
    draw one quantum more/less, and the two paired moves) must not improve
    the one-step target; rewritten as marginal-vs-price comparisons. Sides
    whose perturbed action is infeasible are skipped (boundary states get
    one-sided checks). Tolerance is relative above unit scale.
    """
    name = "action-first-order-conditions"
    ctx = _DifferenceContext(values, model)
    n_checked = 0
    n_skipped = 0
    n_states_skipped = 0
    worst = 0.0
    witness = None

    for s in range(model.space.n_states):
        sd = ctx.state_view(s)
        r_star, wq_star = int(policy.r[s]), int(policy.w_quanta[s])
        u, j = sd.iq - r_star, sd.ib - wq_star
        if not sd.feasible(u, j):
            # stored action draws past the required power (only possible when
            # the model relaxes the draw cap); the marginal algebra does not
            # apply there
            n_states_skipped += 1
            continue
        t_rate = sd.rate_price
        t_draw = sd.draw_price
        sides = []
        if u + 1 <= sd.iq and sd.feasible(u + 1, j):
            z = sd.z_rate(u + 1, j)
            if z is not None:
                sides.append(("serve-one-less", t_rate - z, t_rate, z))
        if u >= 1 and sd.feasible(u - 1, j):
            z = sd.z_rate(u, j)
            if z is not None:
                sides.append(("serve-one-more", z - t_rate, t_rate, z))
        if j + 1 <= sd.ib and sd.feasible(u, j + 1):
            z = sd.z_draw(u, j + 1)
            if z is not None:
                sides.append(("draw-one-less", t_draw - z, t_draw, z))
        if j >= 1 and sd.feasible(u, j - 1):
            z = sd.z_draw(u, j)
            if z is not None:
                sides.append(("draw-one-more", z - t_draw, t_draw, z))
        if u + 1 <= sd.iq and j + 1 <= sd.ib and sd.feasible(u + 1, j + 1):
            z = sd.z_diag(u + 1, j + 1)
            if z is not None:
                sides.append(("serve-less-draw-less", t_rate - z, t_rate, z))
        if u >= 1 and j >= 1 and sd.feasible(u - 1, j - 1):
            z = sd.z_diag(u, j)
            if z is not None:
                sides.append(("serve-more-draw-more", z - t_rate, t_rate, z))

        for side_name, raw_violation, lhs, rhs in sides:
            n_checked += 1
            margin = raw_violation - _cmp_tol(tol, lhs, rhs)
            if margin > 0 and raw_violation > worst:
                worst = raw_violation
                witness = _state_witness(model, s, r=r_star,
                                         w=wq_star * ctx.dstep,
                                         condition=side_name,
                                         marginal=rhs, price=lhs)
        n_skipped += 6 - len(sides)

    details = _jsonable({"n_sides_checked": n_checked,
                       "n_sides_skipped": n_skipped,
                       "n_states_skipped": n_states_skipped,
                       "alpha": ctx.alpha, "beta": ctx.beta,
                       "tolerance": tol})
    if witness is not None:
        return CertificateReport(name, FAIL, worst_violation=worst,
                                 witness=witness, details=details)
    return CertificateReport(name, PASS, details=details)


def check_special_states(values: ValueTable, policy: TablePolicy,
                         model: Model, tol: float = 1e-7) -> CertificateReport:
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
    ctx = _DifferenceContext(values, model)
    params = model.params
    n_serve_all = n_idle = n_empty = 0
    n_side_excluded = 0
    n_unevaluable = 0
    worst = 0.0
    witness = None

    def _note(violation, wit):
        nonlocal worst, witness
        if violation > worst:
            worst = violation
            witness = wit

    for s in range(model.space.n_states):
        sd = ctx.state_view(s)
        r_star, wq_star = int(policy.r[s]), int(policy.w_quanta[s])
        q, ib = sd.iq, sd.ib

        if q == 0:
            if model.restrict_w_to_power:
                n_empty += 1
                if r_star != 0 or wq_star != 0:
                    _note(1.0, _state_witness(model, s, r=r_star,
                                              w=wq_star * ctx.dstep,
                                              expected="(0, 0)",
                                              regime="empty-backlog"))
            continue

        cap_full = min(ib, battery_draw_cap_quanta(params, sd.h, q, ib, True))
        j_full = ib - cap_full

        lattice_rate = []
        lattice_draw = []
        for uu in range(0, q + 1):
            for jj in range(0, ib + 1):
                if not sd.feasible(uu, jj):
                    continue
                if uu >= 1:
                    z = sd.z_rate(uu, jj)
                    if z is not None:
                        lattice_rate.append(z)
                if jj >= 1:
                    z = sd.z_draw(uu, jj)
                    if z is not None:
                        lattice_draw.append(z)

        # serve-everything regime: marginals at (0, j_full), strictly above price
        z1 = sd.z_rate(0, j_full)
        z2 = sd.z_draw(0, j_full)
        if z1 is not None and z2 is not None:
            prem = (z1 > sd.rate_price + _cmp_tol(tol, sd.rate_price, z1)
                    and z2 > sd.draw_price + _cmp_tol(tol, sd.draw_price, z2))
            if prem:
                ordered = ((not lattice_rate or z1 <= min(lattice_rate)
                            + _cmp_tol(tol, z1, min(lattice_rate)))
                           and (not lattice_draw or z2 <= min(lattice_draw)
                                + _cmp_tol(tol, z2, min(lattice_draw))))
                if not ordered:
                    n_side_excluded += 1
                else:
                    n_serve_all += 1
                    if r_star != q or abs(wq_star - cap_full) > 1:
                        _note(float(max(abs(q - r_star),
                                        abs(wq_star - cap_full))),
                              _state_witness(model, s, r=r_star,
                                             w=wq_star * ctx.dstep,
                                             expected_r=q,
                                             expected_w=cap_full * ctx.dstep,
                                             regime="serve-everything"))
        else:
            n_unevaluable += 1

        # idle regime: marginals at (q, ib), strictly below price
        z1 = sd.z_rate(q, ib)
        z2 = sd.z_draw(q, ib)
        if z1 is not None and z2 is not None:
            prem = (z1 < sd.rate_price - _cmp_tol(tol, sd.rate_price, z1)
                    and z2 < sd.draw_price - _cmp_tol(tol, sd.draw_price, z2))
            if prem:
                ordered = ((not lattice_rate or z1 >= max(lattice_rate)
                            - _cmp_tol(tol, z1, max(lattice_rate)))
                           and (not lattice_draw or z2 >= max(lattice_draw)
                                - _cmp_tol(tol, z2, max(lattice_draw))))
                if not ordered:
                    n_side_excluded += 1
                else:
                    n_idle += 1
                    if r_star != 0 or wq_star != 0:
                        _note(float(max(r_star, wq_star)),
                              _state_witness(model, s, r=r_star,
                                             w=wq_star * ctx.dstep,
                                             expected="(0, 0)",
                                             regime="idle"))
        else:
            n_unevaluable += 1

    details = _jsonable({"n_serve_all_states": n_serve_all,
                       "n_idle_states": n_idle,
                       "n_empty_backlog_states": n_empty,
                       "n_ordering_excluded": n_side_excluded,
                       "n_unevaluable": n_unevaluable,
                       "alpha": ctx.alpha, "beta": ctx.beta,
                       "tolerance": tol})
    if witness is not None:
        return CertificateReport(name, FAIL, worst_violation=worst,
                                 witness=witness, details=details)
    if n_serve_all + n_idle + n_empty == 0:
        return CertificateReport(name, NOT_APPLICABLE, details=details)
    return CertificateReport(name, PASS, details=details)


# ---------------------------------------------------------------------------
# monotonicity across the price and across the state lattice


def check_beta_monotonicity(model: Model, beta_grid,
                            tol: float = 1e-9, epsilon: float = 1e-11,
                            kappa: float = 0.5,
                            actions: ActionSpace | None = None) -> CertificateReport:
    """Exact per-policy averages must move monotonically with the price.

    Raising the grid-power price never lowers the optimal combined gain,
    never lowers the backlog average, and never raises the grid-power
    average. Each grid point is solved and then evaluated exactly (stationary
    law), so comparisons are meaningful at 1e-9.
    """
    name = "price-monotonicity"
    betas = sorted(float(b) for b in beta_grid)
    if len(betas) == 0:
        raise ValueError("beta_grid must be non-empty")
    actions = actions if actions is not None else build_action_space(model)
    rows = []
    for b in betas:
        res = relative_value_iteration(
            SolverConfig(beta=b, epsilon=epsilon, kappa=kappa), model,
            actions=actions)
        ev = evaluate_policy(res.policy, b, model, actions=actions)
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
            if raw > tol and raw > worst:
                worst = raw
                witness = _jsonable({"quantity": label, "beta_low": lo["beta"],
                                   "beta_high": hi["beta"],
                                   "value_low": lo[label],
                                   "value_high": hi[label]})
    details = _jsonable({"grid": rows, "tolerance": tol})
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
    R = policy.r.reshape(shape)
    W = policy.w_quanta.reshape(shape)
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
                idx = (at[0] * space.s_q + at[1] * space.s_h
                       + at[2] * space.s_a + at[3] * space.s_b + at[4])
                witness = _state_witness(model, idx, quantity=label,
                                         axis=axis_name, drop=m)
    if witness is not None:
        return CertificateReport(name, FAIL, worst_violation=worst,
                                 witness=witness,
                                 details={"n_compared": n_compared})
    return CertificateReport(name, PASS, details={"n_compared": n_compared})


# ---------------------------------------------------------------------------
# price regimes for the battery draw


def check_greedy_regimes(model: Model, beta_large: float = 1e4,
                         beta_small: float = 1e-6, epsilon: float = 1e-9,
                         kappa: float = 0.5, gain_tol: float = 1e-6,
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

    cap = draw_cap_table(params, space.h_values)

    def greedy_draws(policy):
        if not model.restrict_w_to_power:
            return space.ib
        return np.minimum(space.ib, cap[space.ih, policy.r])

    full = relative_value_iteration(
        SolverConfig(beta=beta_large, epsilon=epsilon, kappa=kappa), model,
        actions=actions)
    caps = greedy_draws(full.policy)
    non_greedy = full.policy.w_quanta != caps
    reduced = solve_reduced_rate_mdp(beta_large, model, epsilon=epsilon)
    gain_gap = abs(full.gain - reduced.gain)

    small = relative_value_iteration(
        SolverConfig(beta=beta_small, epsilon=epsilon, kappa=kappa), model,
        actions=actions)
    caps_small = greedy_draws(small.policy)
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
        "gain_gap": gain_gap, "gain_tolerance": gain_tol,
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
    if gain_gap > gain_tol:
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
                   beta_grid=(0.01, 0.1, 1.0, 10.0, 100.0),
                   epsilon: float = 1e-9, kappa: float = 0.5,
                   beta_large: float = 1e4,
                   beta_small: float = 1e-6) -> list[CertificateReport]:
    """Solve once and run the whole certificate battery."""
    actions = build_action_space(model)
    avg = relative_value_iteration(
        SolverConfig(beta=beta, epsilon=epsilon, kappa=kappa), model,
        actions=actions)
    disc = discounted_value_iteration(
        SolverConfig(beta=beta, alpha=alpha, epsilon=epsilon, kappa=kappa),
        model, actions=actions)
    reports = [check_no_overflow_waste(avg.policy, model, actions=actions)]
    reports.extend(check_value_shape(disc.values, model))
    reports.append(check_necessary_conditions(disc.values, disc.policy, model))
    reports.append(check_special_states(disc.values, disc.policy, model))
    reports.append(check_beta_monotonicity(model, beta_grid, actions=actions))
    reports.append(check_policy_monotonicity(avg.policy, model))
    reports.append(check_greedy_regimes(model, beta_large=beta_large,
                                        beta_small=beta_small,
                                        epsilon=epsilon, kappa=kappa,
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
