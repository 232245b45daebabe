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
    """corrupt_seeds(transform) passes the seeds of every fill and anchor from
    now on through transform(seeds, gamma), ahead of pi_seeds' guard. The derived
    sets are dropped before and after, so derive_constants returns sets with
    empty tables and none that keeps rows filled from changed seeds; a set a
    test already holds keeps the rows it has, and fills any further row
    from the changed seeds."""
    values = engine._seed_values

    def install(transform):
        engine._clear_tables()
        monkeypatch.setattr(engine, "_seed_values", lambda cfg, gamma, w_variant:
                            transform(values(cfg, gamma, w_variant), gamma))

    yield install
    engine._clear_tables()
