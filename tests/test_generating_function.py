"""The generating-function fill against the closed form's per-term double sum.

Pi(mu, nu) = P0 / (mu! nu! 2^(mu+nu)) sum_(s,t) g_s g_t* K(N - s, N - t),
N = mu + nu, with g_s the sum of the per-term f_kernel(mu, nu, k, s - k) over
k and K the per-term k_kernel: the form the engine summed before the fill.
Built here term by term in floats, it differs from the fill by the double
sum's own rounding, which grows with the cancellation among its terms
(Sum|terms| / Pi reaches ~1e8 at order 10 in turbulence); each bound below
is the worst difference measured over its channels. Three entries are
pinned against the 50-digit per-order form of test_engine's oracle.
"""

import math
import random

import pytest

from hgspdc import engine, perterm, reference
from hgspdc.channel import OpticalConfig, derive_constants, turbulence_strength
from hgspdc.engine import DEFAULT_MAX_ORDER, pi_factor
from hgspdc.perterm import f_kernel, k_kernel

from test_engine import _per_order_pi

ORDERS = range(DEFAULT_MAX_ORDER + 1)


def fsum(terms):
    return complex(math.fsum(t.real for t in terms), math.fsum(t.imag for t in terms))


def double_sum(mu, nu, consts):
    """Pi(mu, nu) as the per-term double sum over even s, t, in floats."""
    n = mu + nu
    g = [fsum([f_kernel(mu, nu, k, s - k, consts) for k in range(max(0, s - nu), min(mu, s) + 1)])
         for s in range(0, n + 1, 2)]
    terms = [ga * gb.conjugate() * k_kernel(n - 2 * a, n - 2 * b, consts)
             for a, ga in enumerate(g) for b, gb in enumerate(g)]
    cfg = consts.cfg
    b1 = perterm.constants(*consts).b1
    pref = 1.0 / (cfg.wavelength ** 2 * cfg.distance ** 2 * math.sqrt(math.pi * b1)
                  * math.factorial(mu) * math.factorial(nu) * 2 ** (mu + nu))
    return pref * math.fsum(t.real for t in terms)


def worst_difference(consts):
    """The largest |Pi - double sum| / Pi over mu <= nu <= 10; a Pi the fill
    makes exactly 0 must be an exact 0 of the double sum too."""
    worst = 0.0
    for mu in ORDERS:
        for nu in range(mu, DEFAULT_MAX_ORDER + 1):
            got, want = pi_factor(mu, nu, consts), double_sum(mu, nu, consts)
            if got == 0.0:
                assert want == 0.0, (mu, nu, want)
            else:
                worst = max(worst, abs(got - want) / got)
    return worst


def at_fresnel_ratio(lam0):
    """The reference wavelength and distance with the W0 that gives lam0."""
    ref = reference.reference_config()
    w0 = math.sqrt(2 * ref.distance / (ref.wavenumber * lam0))
    return OpticalConfig.from_w0(ref.wavelength, ref.distance, w0)


def highorder_channels(count=40, seed=1):
    """Fresh channels drawn as the highorder benchmark draws them: lambda
    0.6-1.6 um, z 1-20 km, W0 0.05-0.2 m and rytov 0-0.1."""
    rng = random.Random(seed)
    return [(OpticalConfig.from_w0(rng.uniform(0.6e-6, 1.6e-6), rng.uniform(1e3, 2e4),
                                   rng.uniform(0.05, 0.2)), rng.uniform(0.0, 0.1))
            for _ in range(count)]


@pytest.mark.parametrize("rytov", [0.0, 0.02, 0.1, 1.0])
def test_reference_geometry(ref_cfg, rytov):
    consts = derive_constants(ref_cfg, turbulence_strength(rytov))
    assert worst_difference(consts) <= 1.6e-9


@pytest.mark.parametrize("lam0,bound", [
    (3e-5, 3.2e-11), (0.005, 5.1e-11), (0.127, 2.2e-9), (0.99, 5.7e-9), (3.95, 4.4e-10),
    (40, 2.3e-12), (395, 7.5e-12)])
def test_fresnel_ratios(lam0, bound):
    cfg = at_fresnel_ratio(lam0)
    worst = max(worst_difference(derive_constants(cfg, turbulence_strength(rytov)))
                for rytov in (0.0, 0.02, 0.1, 1.0))
    assert worst <= bound


def test_highorder_channels():
    worst = max(worst_difference(derive_constants(cfg, turbulence_strength(rytov)))
                for cfg, rytov in highorder_channels())
    assert worst <= 1.7e-8


# the fill against 50 digits, where the double sum's rounding is largest:
# vacuum Pi(10, 10), whose bracket rounding left the double sum 7.8e-11 off,
# the order-10 entries the double sum missed by ~1e-8 in turbulence, and
# Pi(8, 9) at Lambda0 = 3.95, the worst entry of that group (Sum|terms| / Pi
# is 1.2e7 there: with every K correctly rounded the double sum is 3.0e-10 off)
@pytest.mark.parametrize("lam0,rytov,mu,nu", [
    (None, 0.0, 10, 10), (0.99, 0.02, 9, 10), (0.99, 1.0, 10, 9), (3.95, 0.02, 8, 9)])
def test_against_oracle(ref_cfg, lam0, rytov, mu, nu):
    cfg = at_fresnel_ratio(lam0) if lam0 else ref_cfg
    consts = derive_constants(cfg, turbulence_strength(rytov))
    want = _per_order_pi(mu, nu, consts)
    assert abs(want.imag) < 1e-30 * abs(want)
    assert pi_factor(mu, nu, consts) == pytest.approx(float(want.real), rel=1e-13, abs=0)


def test_vacuum_is_mehler(ref_cfg):
    # delta is exactly 0 in vacuum, so Pi = C mu! nu! / 2^(mu+nu) |v_0|^2:
    # the odd mu + nu are exact zeros, and the table is symmetric bitwise
    consts = derive_constants(ref_cfg)
    assert engine.pi_seeds(consts).delta == 0.0
    for mu in ORDERS:
        for nu in ORDERS:
            value = pi_factor(mu, nu, consts)
            assert value == pi_factor(nu, mu, consts)
            assert (value == 0.0) == ((mu + nu) % 2 == 1), (mu, nu)
