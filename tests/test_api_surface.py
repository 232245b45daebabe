"""The package's public surface: every exported name resolves, and the
value types keep their constructors' checks, fields and reprs."""

import copy
import pickle

import pytest

import hgspdc
from hgspdc import (
    DomainError,
    ModeIndex,
    ModePair,
    OpticalConfig,
    QuadratureSpec,
    TurbulenceSpec,
    build_matrix,
    derive_constants,
)
from hgspdc.cli import RunConfig
from hgspdc.validate import CheckResult


def test_star_import_and_all_resolve():
    namespace = {}
    # a stale name in __all__ makes the star import raise AttributeError
    exec("from hgspdc import *", namespace)
    assert set(hgspdc.__all__) <= namespace.keys()


@pytest.mark.parametrize("value, bad", [
    (OpticalConfig(1e-6, 1e3, 1e-2), {"wavelength": -1.0}),
    (TurbulenceSpec(rytov=0.02), {"cn2": 1e-16}),
    (ModeIndex(0, 1), {"m": -1}),
    (QuadratureSpec(1.0), {"nodes": 10}),
], ids=["OpticalConfig", "TurbulenceSpec", "ModeIndex", "QuadratureSpec"])
def test_replace_and_make_check_fields(value, bad):
    # a namedtuple's own _make, which _replace calls, skips __new__ and its
    # checks; these build through the constructor
    assert value._replace() == value
    with pytest.raises(DomainError):
        value._replace(**bad)
    with pytest.raises(DomainError):
        type(value)._make({**value._asdict(), **bad}.values())


def test_reprs():
    cfg = OpticalConfig(1e-6, 1e3, 1e-2)
    assert repr(ModeIndex(0, 1)) == "ModeIndex(m=0, n=1)"
    assert repr(cfg) == "OpticalConfig(wavelength=1e-06, distance=1000.0, pump_waist=0.01)"
    # the Pi table, filled or not, stays out of the repr
    consts = derive_constants(cfg, 0.1)
    hgspdc.pi_factor(2, 2, consts)
    assert repr(consts) == (
        f"DerivedConstants(cfg={cfg!r}, gamma=0.1, w_variant='propagated')")


_MATRIX = build_matrix(OpticalConfig(1e-6, 1e3, 1e-2), TurbulenceSpec(rytov=0.02))


_VALUES = pytest.mark.parametrize("value", [
    OpticalConfig(1e-6, 1e3, 1e-2), TurbulenceSpec(cn2=1e-16), _MATRIX.turbulence,
    ModeIndex(2, 1), ModePair(ModeIndex(0, 0), ModeIndex(1, 1)), _MATRIX.normalization,
    _MATRIX, QuadratureSpec(1.0, 256),
    RunConfig(OpticalConfig(1e-6, 1e3, 1e-2), TurbulenceSpec(rytov=0.02), (ModeIndex(0, 0),),
              "calibrated", "json", None),
    CheckResult("x", False, 1e-3, "detail", 0.5, {"n": 1}),
], ids=lambda v: type(v).__name__)


@_VALUES
def test_values_survive_pickle_and_copy(value):
    for twin in (pickle.loads(pickle.dumps(value)), copy.copy(value), copy.deepcopy(value)):
        assert type(twin) is type(value) and twin == value and repr(twin) == repr(value)


@_VALUES
def test_values_are_immutable(value):
    for field in type(value)._fields:
        with pytest.raises(AttributeError):
            setattr(value, field, getattr(value, field))
    with pytest.raises(AttributeError):
        value.extra = None
