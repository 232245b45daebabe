import math

import pytest

from hgspdc import engine, reference
from hgspdc.channel import OpticalConfig, derive_constants, turbulence_strength


@pytest.fixture(scope="session")
def ref_cfg():
    return reference.reference_config()


@pytest.fixture(scope="session")
def vac_consts(ref_cfg):
    return derive_constants(ref_cfg)


@pytest.fixture(scope="session")
def turb_consts(ref_cfg):
    return derive_constants(ref_cfg, turbulence_strength(reference.REFERENCE_RYTOV))


@pytest.fixture(scope="session")
def near_field_cfgs(ref_cfg):
    """Fresnel ratio -> the reference wavelength and distance with the W0
    that gives it; near field, a cancelling cascade loses c1 == c2 in vacuum."""
    return {lam0: OpticalConfig.from_w0(
                ref_cfg.wavelength, ref_cfg.distance,
                math.sqrt(2 * ref_cfg.distance / (ref_cfg.wavenumber * lam0)))
            for lam0 in (1e-2, 4.7e-4, 3.5e-4, 3e-5)}


@pytest.fixture
def corrupt_seeds(monkeypatch):
    """corrupt_seeds(transform) passes the seeds of every set whose seeds
    are computed from now on through transform(seeds, consts), ahead of
    pi_seeds' guard. The derived sets are dropped before and after, so
    derive_constants returns sets that compute their seeds afresh and none
    that keeps changed seeds; a set a test already holds keeps its own."""
    values = engine._seed_values

    def install(transform):
        engine._clear_tables()
        monkeypatch.setattr(engine, "_seed_values",
                            lambda consts: transform(values(consts), consts))

    yield install
    engine._clear_tables()
