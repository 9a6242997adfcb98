"""Tests of the analytic test profiles and their one sample per grid."""

import math

import mpmath
import numpy as np
import pytest

from ab_spectral import bumps
from ab_spectral.bumps import GaussianBump, GaussianProfile
from ab_spectral.measures import ExtensionParams, discretize, gauss_legendre, spectral_measure
from ab_spectral.special import ZETA_BOUND
from ab_spectral.transform import RadialFunction, apply_l_q

mpmath.mp.dps = 30

BUMP = GaussianBump(0.5, 3.0)
SHIFTED = GaussianBump(-2.0, 5.0, center=1.0, width=1.2)  # verify's continuity profile
CHI = GaussianProfile(center=0.3, width=0.7)
PROFILES = (BUMP, SHIFTED, CHI)


def misses():
    return bumps._sampled.cache_info().misses


def grids():
    """The grids the profiles are sampled on: the 64- and 480-node r rules,
    1,001 points partly outside [0.5, 3], the 417-node spectral grid of an
    extension with an atom, and the 96-node x3 rule."""
    quad = discretize(spectral_measure(ExtensionParams(0.3, 1.0)), ZETA_BOUND / 9.0, 32)
    assert len(quad.nodes) == 417 and len(quad.atoms) == 1
    return {
        "r64": gauss_legendre(0.5, 3.0, 64)[0],
        "r480": gauss_legendre(0.5, 3.0, 480)[0],
        "line": np.linspace(0.0, 3.5, 1001),
        "spectral": quad.nodes,
        "x3": gauss_legendre(*CHI.support, 96)[0],
    }


def reference(profile, x):
    """The value and second derivative, as closed forms written out apart
    from the library's: the bump's value as its own product, and the second
    derivatives by the product rule."""
    x = np.asarray(x, dtype=float)
    if isinstance(profile, GaussianProfile):
        t = (x - profile.center) / profile.width
        value = np.exp(-(((x - profile.center) / profile.width) ** 2))
        return value, value * (4.0 * t * t - 2.0) / profile.width**2
    a, b, c, w = profile._floats()
    inside = (x >= a) & (x <= b)
    poly = (x - a) ** 3 * (b - x) ** 3
    value = np.where(inside, poly * np.exp(-(((x - c) / w) ** 2)), 0.0)
    g = np.exp(-(((x - c) / w) ** 2))
    dg = g * (-2.0 * (x - c) / w**2)
    d2g = g * (4.0 * (x - c) ** 2 / w**4 - 2.0 / w**2)
    ra, br = x - a, b - x
    dp = 3 * ra**2 * br**3 - 3 * ra**3 * br**2
    d2p = 6 * ra * br**3 - 18.0 * ra**2 * br**2 + 6 * ra**3 * br
    return value, np.where(inside, d2p * g + 2.0 * dp * dg + poly * d2g, 0.0)


def mp_profile(profile):
    if isinstance(profile, GaussianProfile):
        c, w = mpmath.mpf(profile.center), mpmath.mpf(profile.width)
        return lambda x: mpmath.exp(-(((x - c) / w) ** 2))
    a, b, c, w = (mpmath.mpf(v) for v in profile._floats())
    return lambda x: ((x - a) * (b - x)) ** 3 * mpmath.exp(-(((x - c) / w) ** 2))


class TestClosedForms:
    @pytest.mark.parametrize("profile", PROFILES, ids=["bump", "shifted", "gaussian"])
    def test_second_derivative_against_mpmath(self, profile):
        """derivative2 against mpmath's numerical second derivative of the
        30-digit profile, inside the support, to 2e-15 of the largest
        |second derivative| (2.7e-16 measured), and the value to 1e-15."""
        lo, hi = (profile.a, profile.b) if isinstance(profile, GaussianBump) else profile.support
        x = np.linspace(lo, hi, 41)[1:-1]
        f = mp_profile(profile)
        exact = np.array([float(mpmath.diff(f, mpmath.mpf(float(v)), 2)) for v in x])
        values = np.array([float(f(mpmath.mpf(float(v)))) for v in x])
        d2 = profile.derivative2(x)
        assert np.max(np.abs(d2 - exact)) <= 2e-15 * np.max(np.abs(exact))
        assert np.max(np.abs(profile(x) - values)) <= 1e-15 * np.max(np.abs(values))

    def test_bump_is_zero_outside_its_support(self):
        x = np.array([-1.0, 0.0, 0.5, 3.0, 3.5])
        assert np.array_equal(BUMP(x), np.zeros(5))
        assert np.array_equal(BUMP.derivative2(x), np.zeros(5))


class TestSampleCache:
    """A profile's value and second derivative are formed once per grid and
    kept read-only; what a call returns must be the closed form's bits."""

    @pytest.mark.parametrize("name", ["r64", "r480", "line", "spectral", "x3"])
    @pytest.mark.parametrize("profile", PROFILES, ids=["bump", "shifted", "gaussian"])
    def test_cached_equals_the_closed_form(self, profile, name):
        x = grids()[name]
        value, d2 = reference(profile, x)
        for _ in range(2):  # the miss, then the hit
            assert profile(x).tobytes() == value.tobytes()
            assert profile.derivative2(x).tobytes() == d2.tobytes()
            assert profile(x).shape == x.shape

    def test_shape_is_part_of_the_key(self):
        x = np.linspace(0.6, 2.9, 12)
        flat, square = BUMP(x), BUMP(x.reshape(3, 4))
        assert flat.shape == (12,) and square.shape == (3, 4)
        assert square.tobytes() == flat.tobytes()

    @pytest.mark.parametrize("point", [1.7, 0.2, 0.5])
    def test_a_scalar_keeps_its_return_type(self, point):
        """A scalar point gives what numpy gives: a 0-d array from the bump's
        np.where, a numpy float from the Gaussian's exp."""
        for profile in (BUMP, CHI):
            value, d2 = reference(profile, point)
            for _ in range(2):
                got = (profile(point), profile.derivative2(point))
                assert [type(v) for v in got] == [type(value), type(d2)]
                assert [np.asarray(v).tobytes() for v in got] == [value.tobytes(), d2.tobytes()]
        assert type(CHI(1.0)) is np.float64 and np.ndim(BUMP(1.0)) == 0

    def test_results_are_read_only_and_cannot_be_unlocked(self):
        x = grids()["r64"]
        for part in (BUMP(x), BUMP.derivative2(x), CHI(x), CHI.derivative2(x), BUMP(1.0)):
            assert not part.flags.writeable
            with pytest.raises(ValueError):
                part[...] = 0.0
            with pytest.raises(ValueError):
                part.setflags(write=True)

    def test_a_hit_returns_the_same_arrays(self):
        x = grids()["r64"]
        first, d2 = BUMP(x), BUMP.derivative2(x)
        before = misses()
        assert BUMP(x.copy()) is first and BUMP.derivative2(list(x)) is d2
        assert misses() == before

    def test_value_and_second_derivative_share_one_miss(self):
        x = np.linspace(0.7, 2.8, 33)
        before = misses()
        CHI(x)
        CHI.derivative2(x)
        assert misses() == before + 1

    def test_resolved_parameters_share_one_entry(self):
        """The key holds the parameters as resolved floats: the default center
        and width of [0.5, 3] are 1.75 and 0.5, and 3 is 3.0."""
        explicit = GaussianBump(0.5, 3.0, center=1.75, width=0.5)
        assert explicit.key == BUMP.key == GaussianBump(0.5, 3).key
        assert explicit._floats() == (0.5, 3.0, 1.75, 0.5)
        x = np.linspace(0.55, 2.95, 17)
        first = GaussianBump(0.5, 3)(x)
        before = misses()
        assert explicit(x) is first and BUMP(x) is first
        assert misses() == before

    def test_other_parameters_or_class_miss(self):
        x = np.linspace(0.55, 2.95, 19)
        BUMP(x)
        before = misses()
        GaussianBump(0.5, 3.0, width=0.6)(x)
        GaussianProfile(center=1.75, width=0.5)(x)
        assert misses() == before + 2

    def test_a_one_ulp_change_misses(self):
        x = grids()["r64"]
        first = BUMP(x)
        moved = x.copy()
        moved[10] = np.nextafter(moved[10], math.inf)
        before = misses()
        other = BUMP(moved)
        assert misses() == before + 1 and other is not first
        assert other.tobytes() == reference(BUMP, moved)[0].tobytes()

    def test_writing_to_the_points_afterwards_moves_nothing(self):
        """The key holds a copy of the points' bits: a caller's later write to
        its array leaves the cached sample as it was."""
        x = np.linspace(0.6, 2.9, 23)
        kept = x.copy()
        first = BUMP(x)
        x *= 1.01
        assert BUMP(kept) is first
        assert BUMP(x).tobytes() == reference(BUMP, x)[0].tobytes()

    def test_repeated_apply_l_q_adds_no_miss(self):
        """l_q psi on the suite's rule reads psi'' from the cache, the same
        bits on every call."""
        psi = RadialFunction.from_callable(BUMP, 0.5, 3.0, 64, second_derivative=BUMP.derivative2)
        first = apply_l_q(0.3, psi)
        before = misses()
        for kappa in (0.3, -0.7, 1.5, 0.3):
            image = apply_l_q(kappa, psi)
        assert misses() == before
        assert image.values.tobytes() == first.values.tobytes()
