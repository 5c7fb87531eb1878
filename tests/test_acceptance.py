"""The acceptance gate: one test per criterion, at the stated tolerances.

The expensive closed-loop runs are shared through a session-scoped cache,
and every criterion prints its pass/fail line so a verbose run doubles as
the acceptance report.
"""

import numpy as np
import pytest

from expstab.acceptance import CRITERIA, AcceptanceCache
from expstab.sim import Trajectory


@pytest.fixture(scope="session")
def cache():
    return AcceptanceCache()


@pytest.mark.parametrize("number", sorted(CRITERIA))
def test_criterion(number, cache):
    result = CRITERIA[number](cache)
    print(result.line())
    assert result.passed, result.line()


def _hand_built(u, aux):

    t = np.linspace(0.0, 15.0, 1501)
    decay = np.exp(-t)
    return Trajectory(
        scenario_name="hand-built", controller="theorem1", status="completed",
        failure_time=None, t=t, x=np.c_[-decay, 2.5 * decay], u=u(t, decay),
        theta_hat=np.zeros((len(t), 2)), aux=np.full((len(t), 1), aux),
        aux_name="rho_hat", mu=np.exp(0.6 * t), s=np.zeros((len(t), 2)), diag={},
        monitors={"steps": len(t) - 1, "xi_min_increment": 0.0}, meta={},
    )


@pytest.mark.parametrize("number,key,aux", [(1, "wr-t1", -0.5), (2, "wr-t2", 1.0)])
def test_input_checks_reject_a_non_decaying_input(number, key, aux):
    for u, passes in ((lambda t, d: 4.0 * d, True),
                      (lambda t, d: 0.0 * t + 0.5, False),
                      (lambda t, d: 4.0 * np.exp(-0.3 * t), False)):
        fake = AcceptanceCache()
        fake._store[key] = _hand_built(u, aux)
        fake.wall[key] = 1.0
        result = CRITERIA[number](fake)
        assert result.passed is passes, result.line()
        assert ("FAILED: input decays with the state" in result.line()) is not passes
