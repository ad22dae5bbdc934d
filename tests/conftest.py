import numpy as np
import pytest

from dswlab import params_from_kappa
from dswlab.index_engine import build_varphi


@pytest.fixture(scope="session")
def wave_2_01():
    return params_from_kappa(2.0, 0.1)


@pytest.fixture(scope="session")
def wave_2_03():
    return params_from_kappa(2.0, 0.3)


@pytest.fixture(scope="session")
def wave_1_05():
    return params_from_kappa(1.0, 0.5)


@pytest.fixture(scope="session")
def varphi_1_05(wave_1_05):
    return build_varphi(wave_1_05)


@pytest.fixture(scope="session")
def spectrum_2_03(wave_2_03):
    from dswlab.spectra import unstable_modes

    return unstable_modes(wave_2_03, N=256)


@pytest.fixture
def fresh_records():
    """An empty quadrature record for one test, so every modulus it meets is sampled."""
    import dswlab.index_engine as ie

    ie._quarter_period_record.cache_clear()
    return ie._quarter_period_record


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20240811)
