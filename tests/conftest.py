import math

import pytest

from hgspdc import channel, engine, reference
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
    """corrupt_seeds(transform) passes the seeds of every constant set built
    from now on through transform(seeds, gamma), ahead of pi_seeds' guard,
    and makes its anchor C * C of its link's vacuum seeds passed through
    transform(vacuum seeds, 0.0). The derived sets are dropped before and
    after, so derive_constants returns sets built with the changed seeds; a
    set a test already holds keeps its own, and _replace() builds a copy
    with the changed ones."""
    values = channel._seed_values

    def install(transform):
        def corrupted(cfg, gamma, w_variant):
            vacuum = transform(values(cfg, 0.0, w_variant)[0], 0.0)
            return transform(values(cfg, gamma, w_variant)[0], gamma), vacuum.c * vacuum.c

        engine._clear_tables()
        monkeypatch.setattr(channel, "_seed_values", corrupted)

    yield install
    engine._clear_tables()
