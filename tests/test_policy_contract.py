"""One table contract: every reader of a TablePolicy refuses a table that
does not fit the model, and by the same error."""

import numpy as np
import pytest

import ehsched
from ehsched import (
    PolicyDomainError,
    SimConfig,
    SolverConfig,
    TablePolicy,
    check_necessary_conditions,
    check_no_overflow_waste,
    check_policy_monotonicity,
    check_special_states,
    discounted_value_iteration,
    evaluate_policy,
    relative_value_iteration,
    run_simulation,
)
from ehsched.model import Action

from helpers import desk_model, reference_simulation


@pytest.fixture(scope="module")
def desk_solved():
    """desk, its solved beta = 1 table and its discounted values."""
    m = desk_model()
    policy = relative_value_iteration(SolverConfig(beta=1.0), m).policy
    values = discounted_value_iteration(
        SolverConfig(beta=1.0, alpha=0.999), m).values
    return m, policy, values


def bad_table(kind: str, policy: TablePolicy) -> TablePolicy:
    """The solved table made not to fit desk in one way."""
    r, wq, de, tau = policy.r, policy.w_quanta, policy.delta_e, policy.tau
    if kind == "another-grid":
        de *= 2
    elif kind == "another-slot":
        tau *= 2
    elif kind == "wrong-size":
        r, wq = r[:-1], wq[:-1]
    elif kind == "non-integer":
        r, wq = r.astype(float), wq.astype(float)
    else:  # state 0 has an empty buffer, so it cannot serve a packet
        r = r.copy()
        r[0] = 1
    return TablePolicy(r=r, w_quanta=wq, delta_e=de, tau=tau)


CONSUMERS = {
    "evaluate_policy": lambda p, m, v: evaluate_policy(p, 1.0, m),
    "run_simulation": lambda p, m, v: run_simulation(
        p, m, SimConfig(n_slots=100, seed=1)),
    "relative_value_iteration": lambda p, m, v: relative_value_iteration(
        SolverConfig(beta=1.0), m, start=p),
    "check_necessary_conditions": lambda p, m, v: check_necessary_conditions(v, p, m),
    "check_special_states": lambda p, m, v: check_special_states(v, p, m),
    "check_policy_monotonicity": lambda p, m, v: check_policy_monotonicity(p, m),
    "check_no_overflow_waste": lambda p, m, v: check_no_overflow_waste(p, m),
}


@pytest.mark.parametrize("consumer", CONSUMERS)
@pytest.mark.parametrize("kind", ["another-grid", "another-slot", "wrong-size",
                                  "non-integer", "infeasible"])
def test_every_consumer_refuses_a_table_that_does_not_fit(desk_solved, kind,
                                                          consumer):
    m, policy, values = desk_solved
    CONSUMERS[consumer](policy, m, values)  # the solved table itself fits
    with pytest.raises(PolicyDomainError) as err:
        CONSUMERS[consumer](bad_table(kind, policy), m, values)
    if kind == "infeasible":
        assert str(err.value).endswith("infeasible at state 0")
        assert err.value.state == m.space.state_of(0)


def test_tables_equal_only_on_the_same_grid_and_slot():
    z = np.zeros(3, dtype=np.int64)
    assert TablePolicy(z, z, 0.25, 1.0) == TablePolicy(z.copy(), z, 0.25, 1.0)
    assert TablePolicy(z, z, 0.25, 1.0) != TablePolicy(z, z, 0.5, 1.0)
    assert TablePolicy(z, z, 0.25, 1.0) != TablePolicy(z, z, 0.25, 2.0)


def test_policy_domain_error_is_one_class():
    assert ehsched.PolicyDomainError is ehsched.sim.PolicyDomainError
    assert ehsched.PolicyDomainError is ehsched.model.PolicyDomainError
    assert issubclass(PolicyDomainError, ValueError)


@pytest.mark.parametrize("action", [Action(0, 0.1234567), Action(0, 0.3),
                                    Action(0.5, 0.0)])
def test_from_callable_refuses_rates_and_draws_off_the_grid(action):
    # desk's grid step is delta_e / tau = 0.25: 0.1234567 used to land on 0
    # quanta and 0.3 on 1, and the rate 0.5 on 0 packets; the reference
    # simulator refuses the same actions
    m = desk_model()
    with pytest.raises(PolicyDomainError, match="at state 0$") as err:
        TablePolicy.from_callable(lambda x: action, m)
    assert err.value.state == m.space.state_of(0)
    with pytest.raises(PolicyDomainError):
        reference_simulation(lambda x: action, m, SimConfig(n_slots=10, seed=1))


def test_from_callable_keeps_on_grid_actions():
    m = desk_model()
    step = m.params.delta_e / m.params.tau
    policy = TablePolicy.from_callable(
        lambda x: Action(float(x.q), min(x.e_b / m.params.tau, step)), m)
    np.testing.assert_array_equal(policy.r, m.space.iq)
    np.testing.assert_array_equal(policy.w_quanta, np.minimum(m.space.ib, 1))
