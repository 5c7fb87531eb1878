import numpy as np
import pytest
from hypothesis import settings

from expstab import BacksteppingEngine, GainConfig
from expstab.acceptance import AcceptanceCache
from expstab.scenarios import build_synthetic, build_wing_rock, wing_rock_model


@pytest.fixture(scope="session")
def wr_model():
    return wing_rock_model()


@pytest.fixture(scope="session")
def wr_config():
    return GainConfig(
        k=(1.0, 1.0),
        lam=0.6,
        delta_theta=0.6,
        eps_psi=1.0,
        Gamma=0.001 * np.eye(2),
        gamma_rho=1.0,
        sign_b=-1,
    )


@pytest.fixture(scope="session")
def wr_engine(wr_model, wr_config):
    return BacksteppingEngine(wr_model, wr_config)


@pytest.fixture(scope="session")
def syn_scenario():
    return build_synthetic("theorem1", seed=0)


@pytest.fixture(scope="session")
def syn_engine(syn_scenario):
    return BacksteppingEngine(syn_scenario.model, syn_scenario.gains)


@pytest.fixture(scope="session")
def wr_short_t1():
    """A short benchmark run shared by the cheaper closed-loop tests."""
    from expstab.sim import simulate

    return simulate(build_wing_rock("theorem1", horizon=2.0))


@pytest.fixture(scope="session")
def cache():
    """The acceptance runs, simulated once and shared by the acceptance and golden tests."""
    return AcceptanceCache()


# property tests draw the same examples on every run, and few of them
settings.register_profile("expstab", derandomize=True, max_examples=20, deadline=None)
settings.load_profile("expstab")
