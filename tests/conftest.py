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
def fill_k(monkeypatch):
    """fill_k(transform) passes the values of every K fill through
    transform(values, cells, p, consts), below pi_factor's sign gate. The
    engine's tables are emptied before and after, so every set fills afresh
    and none keeps a changed K."""
    fill = engine._k_values

    def install(transform):
        engine._clear_tables()
        monkeypatch.setattr(engine, "_k_values", lambda cells, p, consts, rows: transform(
            fill(cells, p, consts, rows), cells, p, consts))

    yield install
    engine._clear_tables()


@pytest.fixture
def negate_k(fill_k):
    """negate_k(when) negates every parity-p K filled for a set where
    when(p, consts) holds, so each nonzero Pi reading them is negative far
    past the floor."""
    def install(when=lambda p, consts: True):
        fill_k(lambda values, cells, p, consts:
               [-v for v in values] if when(p, consts) else values)
    return install
