import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import minimize_scalar

from grushin3d import DomainError, sector_count, sobolev
from grushin3d.fields import cosine_bump, radial_field, random_bump_corpus
from grushin3d.grids import GridFunction3D
from grushin3d.rearrangement import grushin_energy, weighted_lq_norm
from grushin3d.sobolev import (
    SectorExtremalFamily,
    _fminbound,
    minimize_rayleigh,
    rayleigh_quotient,
    scaling_exponent,
    sobolev_lower_bound,
    talenti_constant_general,
    talenti_radial_constant,
)

CLOSED_FORM = math.sqrt(3.0) * (math.pi / 16.0) ** (1.0 / 3.0)


class TestTalentiConstant:
    def test_closed_form(self):
        assert talenti_radial_constant() == pytest.approx(CLOSED_FORM, abs=1e-15)
        # Beta-integral oracle: int r^4 (1+r^2)^{-3} = 3 pi/16, int r^2 (1+r^2)^{-3} = pi/16
        num = quad(lambda r: r**4 / (1 + r * r) ** 3, 0, np.inf)[0]
        den = quad(lambda r: r**2 / (1 + r * r) ** 3, 0, np.inf)[0]
        assert num == pytest.approx(3 * math.pi / 16, abs=1e-12)
        assert den == pytest.approx(math.pi / 16, abs=1e-12)
        assert num**0.5 / den ** (1 / 6) == pytest.approx(CLOSED_FORM, abs=1e-12)

    def test_quadrature_family_invariance(self):
        vals = [talenti_constant_general(a, b) for a in (0.5, 1, 2) for b in (0.5, 1, 2)]
        assert max(vals) - min(vals) <= 1e-5
        assert all(abs(v - CLOSED_FORM) <= 1e-9 for v in vals)

    def test_full_space_anchor(self):
        # restoring the angular factor 4 pi reproduces the classical sharp
        # ratio ||grad u|| / ||u||_6 on R^3, computed here by independent
        # quadrature of the full-space extremal
        phi = lambda r: (1 + r * r) ** -0.5  # noqa: E731
        dphi = lambda r: -r * (1 + r * r) ** -1.5  # noqa: E731
        num = 4 * math.pi * quad(lambda r: r * r * dphi(r) ** 2, 0, np.inf)[0]
        den = 4 * math.pi * quad(lambda r: r * r * phi(r) ** 6, 0, np.inf)[0]
        classical = num**0.5 / den ** (1 / 6)
        assert (4 * math.pi) ** (1 / 3) * talenti_radial_constant() == pytest.approx(
            classical, abs=1e-9
        )

    def test_general_parameters(self):
        # the defaults a = b = 1 give the closed form
        assert talenti_constant_general() == talenti_constant_general(1.0, 1.0)
        assert talenti_constant_general() == pytest.approx(CLOSED_FORM, rel=1e-14, abs=0.0)

    def test_profile_rescaling_invariance(self):
        base = talenti_constant_general(a=1.0, b=1.0)
        # r -> c r is the same as scaling (a, b) jointly
        assert talenti_constant_general(a=1.0, b=4.0) == pytest.approx(base, abs=1e-5)

    def test_exp_sinh_rule_matches_adaptive_quadrature(self):
        # the fixed 257-node rule against scipy's adaptive quad on [0, inf)
        # for the nine (a, b) pairs of the sobolev command
        for a in (0.5, 1.0, 2.0):
            for b in (0.5, 1.0, 2.0):
                num = quad(lambda r: r**2 * (b * r * (a + b * r * r) ** -1.5) ** 2, 0, np.inf)[0]
                den = quad(lambda r: r**2 * (a + b * r * r) ** -3, 0, np.inf)[0]
                ref = num**0.5 / den ** (1 / 6)
                assert abs(talenti_constant_general(a, b) - ref) <= 1e-14 * ref

    def test_exp_sinh_rule_at_the_edges_of_its_range(self):
        # the corners of a, b in [1e-3, 1e3] against the Beta-function
        # values of both integrals, which do not depend on a, b:
        # int r^4 (1+r^2)^-3 = B(5/2, 1/2) / 2, int r^2 (1+r^2)^-3 = B(3/2, 3/2) / 2
        def beta(s, t):
            return math.exp(math.lgamma(s) + math.lgamma(t) - math.lgamma(s + t))

        ref = (beta(2.5, 0.5) / 2) ** 0.5 / (beta(1.5, 1.5) / 2) ** (1 / 6)
        for a in (1e-3, 0.5, 1.0, 2.0, 1e3):
            for b in (1e-3, 0.5, 1.0, 2.0, 1e3):
                assert abs(talenti_constant_general(a, b) - ref) <= 1e-14 * ref

    def test_rejects_bad_parameters(self):
        # a NaN fails every comparison, so it is rejected like 0 and -1
        for bad in (math.nan, math.inf, -math.inf, 0.0, -1.0):
            for a, b in ((bad, 1.0), (1.0, bad)):
                with pytest.raises(DomainError, match=r"must lie in \[1e-3, 1e3\]"):
                    talenti_constant_general(a, b)

    def test_rejects_parameters_outside_the_checked_range(self):
        # the rule gave NaN, 0 and 1.2803 (true value 1.00671) on these
        for a, b in ((1e300, 1.0), (1.0, 1e300), (1.0, 1e-300), (1e-300, 1.0)):
            with pytest.raises(DomainError, match=r"must lie in \[1e-3, 1e3\]"):
                talenti_constant_general(a, b)
        for a, b in ((1.0, math.nextafter(1e3, math.inf)), (math.nextafter(1e-3, 0.0), 1.0)):
            with pytest.raises(DomainError):
                talenti_constant_general(a, b)
        # both ends of the range are accepted
        for a, b in ((1e-3, 1e-3), (1e-3, 1e3), (1e3, 1e-3), (1e3, 1e3)):
            assert talenti_constant_general(a, b) == pytest.approx(CLOSED_FORM, rel=1e-14)


class TestLowerBound:
    @pytest.mark.parametrize(
        "alpha,n",
        [(0.5, 2), (1.0, 2), (2.0, 3)],
    )
    def test_formula(self, alpha, n):
        L = sobolev_lower_bound(alpha)
        assert L == pytest.approx(
            (2 * math.pi / n) ** (1 / 3) * (alpha + 1) ** (1 / 3) * CLOSED_FORM, abs=1e-14
        )

    def test_known_values(self):
        assert sobolev_lower_bound(1.0) == pytest.approx(1.857650, abs=1e-6)
        assert sobolev_lower_bound(0.5) == pytest.approx(1.687787, abs=1e-6)

    def test_alpha_two_equals_alpha_one(self):
        # n jumps from 2 to 3 exactly as (alpha+1) goes 2 to 3: the bound is equal
        assert sobolev_lower_bound(2.0) == pytest.approx(sobolev_lower_bound(1.0), rel=1e-14)

    def test_rejects_nonpositive_alpha(self):
        with pytest.raises(DomainError):
            sobolev_lower_bound(-1.0)


class TestScalingExponent:
    def test_examples(self):
        assert scaling_exponent(6, 1.0) == 0.0
        assert scaling_exponent(2, 1.0) == pytest.approx(2.0, abs=1e-14)
        assert scaling_exponent(6, 0.5) == 0.0
        assert scaling_exponent(6, 3.0) == 0.0

    def test_one_dim_radial_family_measured(self):
        # measured exponent of the quotient under the anisotropic dilation,
        # via 1D quadrature on the radial reduction; lam = 2, compactly
        # supported profile so all integrals are finite for every q
        phi = lambda r: np.where(r < 1.0, np.cos(np.pi * r / 2) ** 2, 0.0)  # noqa: E731
        dphi = lambda r: np.where(r < 1.0, -np.pi / 2 * np.sin(np.pi * r), 0.0)  # noqa: E731
        for alpha in (0.5, 1.0, 2.0):
            n = sector_count(alpha)
            mu = 2.0 ** (alpha + 1.0)
            for q in (2.0, 6.0):

                def quotient(scale):
                    num = 2 * math.pi / n * quad(
                        lambda r: r * r * scale**2 * dphi(scale * r) ** 2, 0, 1.0 / scale
                    )[0]
                    den = (
                        2 * math.pi / (n * (alpha + 1) ** 2)
                        * quad(lambda r: r * r * phi(scale * r) ** q, 0, 1.0 / scale)[0]
                    ) ** (1.0 / q)
                    return num**0.5 / den

                measured = math.log(quotient(mu) / quotient(1.0)) / math.log(2.0)
                assert abs(measured - scaling_exponent(q, alpha)) <= 1e-10


class TestRayleighQuotient:
    def test_sector_extremal_close_to_bound(self):
        alpha = 1.0
        u = SectorExtremalFamily(alpha, 96)(4.0)
        rep = rayleigh_quotient(u, 6, alpha)
        assert rep.quotient == pytest.approx(sobolev_lower_bound(alpha), rel=3e-2)

    def test_amplitude_invariance(self):
        alpha = 1.0
        u = SectorExtremalFamily(alpha, 48)(4.0)
        r1 = rayleigh_quotient(u, 6, alpha).quotient
        r2 = rayleigh_quotient(GridFunction3D(u.bbox, 3.7 * u.values, u.mask), 6, alpha).quotient
        assert abs(r2 - r1) <= 1e-12 * r1

    def test_zero_rejected(self):
        grid = GridFunction3D(np.array([(-1, 1)] * 3), np.zeros((8, 8, 8)))
        with pytest.raises(DomainError):
            rayleigh_quotient(grid, 6, 1.0)

    def test_grid_scaling_law(self):
        # resample the radial family anisotropically; quotient ratio follows
        # the scaling exponent to grid accuracy
        alpha = 1.0
        lam = 2.0
        mu = lam ** (alpha + 1.0)
        u1 = radial_field(cosine_bump, alpha, 1.0, resolution=96)
        u2 = radial_field(lambda rho: cosine_bump(rho), alpha, 1.0 / mu, resolution=96)
        for q in (2.0, 6.0):
            c1 = rayleigh_quotient(u1, q, alpha).quotient
            c2 = rayleigh_quotient(u2, q, alpha).quotient
            measured = math.log(c2 / c1) / math.log(lam)
            assert abs(measured - scaling_exponent(q, alpha)) <= 1e-3

    def test_sobolev_inequality_on_corpus(self):
        alpha = 1.0
        L = sobolev_lower_bound(alpha)
        for field in random_bump_corpus(10, resolution=48):
            lhs = weighted_lq_norm(field, 6, alpha)
            rhs = math.sqrt(grushin_energy(field, alpha)) / L
            assert lhs <= rhs * 1.02


class TestMinimizeRayleigh:
    def test_extremal_family_minimum(self):
        alpha = 1.0
        rep = minimize_rayleigh(alpha, resolution=64)
        L = sobolev_lower_bound(alpha)
        assert rep.estimate == pytest.approx(L, rel=3e-2)
        assert rep.estimate >= L * 0.97


def same_grid(u, v):
    """Bit-for-bit equal values, bbox and mask."""
    return (
        u.values.tobytes() == v.values.tobytes()
        and u.bbox.tobytes() == v.bbox.tobytes()
        and np.array_equal(u.mask, v.mask)
    )


class TestSectorExtremalFamily:
    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
    def test_family_matches_fresh_grids(self, alpha):
        # one family serves every call; α = 2 has a sector wall inside the box
        family = SectorExtremalFamily(alpha, resolution=32)
        for b in (0.7, 4.0, 22.77):
            got = family(b)
            fresh = SectorExtremalFamily(alpha, resolution=32)(b)
            assert same_grid(got, fresh)
        if alpha == 2.0:
            assert not got.mask.all()


class TestHalfGridQuotient:
    @pytest.mark.parametrize("resolution", [2, 3, 4, 25, 32, 96])
    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
    def test_matches_full_grid(self, alpha, resolution):
        # even n: the y >= 0 half with its mirror plane; odd n: the full grid
        # (n = 2 differences with edge order 1); α = 2 has a sector wall
        family = SectorExtremalFamily(alpha, resolution=resolution)
        for b in (0.7, 4.0, 22.77):
            half = family.quotient(b)
            full = rayleigh_quotient(family(b), 6, alpha)
            assert half.quotient == pytest.approx(full.quotient, rel=1e-13, abs=0.0)
            assert half.numerator_sq == pytest.approx(full.numerator_sq, rel=1e-13, abs=0.0)
            assert half.denominator == pytest.approx(full.denominator, rel=1e-13, abs=0.0)
            if resolution % 2:
                assert half == full

    def test_half_grid_drops_mirror_plane(self):
        family = SectorExtremalFamily(2.0, resolution=8)
        half = family._half
        assert half.dims == (8, 8, 5)
        assert half.spacing == pytest.approx(family.cells.spacing, rel=1e-15, abs=0.0)
        assert not half.mask[:, :, 0].any()
        assert np.array_equal(half.mask[:, :, 1:], family.mask[:, :, 4:])
        assert np.shares_memory(family._half_r, family.r)

    def test_copies_scale_the_quotient(self):
        # twice both integrals: the quotient grows by 2^(1/2 - 1/q)
        u = SectorExtremalFamily(1.0, 16)(4.0)
        one, two = rayleigh_quotient(u, 6, 1.0), rayleigh_quotient(u, 6, 1.0, copies=2)
        assert two.numerator_sq == 2 * one.numerator_sq
        assert two.quotient == pytest.approx(2 ** (1 / 3) * one.quotient, rel=1e-15)


def golden_reference(alpha, resolution):
    """Reference search: scipy's golden section on log b, a fresh grid per
    value; returns (log b, quotient, evaluations)."""

    def quotient(log_b):
        u = SectorExtremalFamily(alpha, resolution)(math.exp(log_b))
        return rayleigh_quotient(u, 6, alpha).quotient

    res = minimize_scalar(
        quotient, bracket=(math.log(0.5), math.log(32.0)), method="golden", options={"xtol": 1e-3}
    )
    return res.x, res.fun, res.nfev


class TestBrentSearch:
    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
    def test_matches_golden_section(self, alpha):
        rep = minimize_rayleigh(alpha, resolution=48)
        _, golden, golden_evals = golden_reference(alpha, 48)
        assert rep.estimate == pytest.approx(golden, rel=1e-9)
        assert rep.evaluations <= 12 < golden_evals

    def test_evaluations_count_quotients(self, monkeypatch):
        # the report's count and minimum are those of the quotients taken
        seen = {}
        quotient = SectorExtremalFamily.quotient

        def counted(self, b):
            rep = quotient(self, b)
            seen[b] = rep.quotient
            return rep

        monkeypatch.setattr(SectorExtremalFamily, "quotient", counted)
        rep = minimize_rayleigh(1.0, resolution=16)
        assert rep.evaluations == len(seen)
        assert rep.estimate == seen[rep.profile_scale] == min(seen.values())


def same_bits(got, res):
    """_fminbound's (x, f(x), nfev) equal scipy's result bit for bit."""
    x, fun, nfev = got
    return float(x).hex() == float(res.x).hex() and float(fun).hex() == float(res.fun).hex() and nfev == res.nfev


class TestBoundedBrentPort:
    """``_fminbound`` reproduces scipy's bounded minimize_scalar."""

    @staticmethod
    def scipy_bounded(fn, lo, hi):
        options = {"xatol": sobolev._BRENT_XATOL, "maxiter": sobolev._BRENT_MAXFUN}
        return minimize_scalar(fn, bounds=(lo, hi), method="bounded", options=options)

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
    def test_sector_rayleigh_objective(self, alpha):
        family = SectorExtremalFamily(alpha, resolution=16)

        def fn(log_b):
            return family.quotient(math.exp(log_b)).quotient

        lo, hi = math.log(0.5), math.log(32.0)
        assert same_bits(_fminbound(fn, lo, hi), self.scipy_bounded(fn, lo, hi))

    @pytest.mark.parametrize(
        "fn,lo,hi",
        [
            # smooth interior minima: mostly parabolic steps, one clamped
            # where the step would land within tol of the bracket's end
            (lambda x: (x - 0.3) ** 2, -1.0, 2.0),
            (lambda x: (x - 0.3) ** 4 + 0.1 * x, -1.0, 2.0),
            (math.cos, 0.0, 10.0),
            # kinks: rejected parabolas fall back to golden sections
            (lambda x: abs(x - 0.3), -1.0, 2.0),
            (lambda x: math.sqrt(abs(x - 0.3)), -1.0, 2.0),
            # minimum on the lower bound: golden steps close in on it
            (lambda x: x, 0.0, 1.0),
            (math.exp, -2.0, 3.0),
        ],
    )
    def test_analytic_functions(self, fn, lo, hi):
        assert same_bits(_fminbound(fn, lo, hi), self.scipy_bounded(fn, lo, hi))

    @pytest.mark.parametrize("maxfun", [1, 2, 5])
    def test_stops_at_maxfun(self, maxfun, monkeypatch):
        # a tolerance that cannot be met before the evaluation budget runs out
        monkeypatch.setattr(sobolev, "_BRENT_XATOL", 1e-12)
        monkeypatch.setattr(sobolev, "_BRENT_MAXFUN", maxfun)
        fn = lambda x: (x - 0.3) ** 2  # noqa: E731
        got = _fminbound(fn, -1.0, 2.0)
        res = self.scipy_bounded(fn, -1.0, 2.0)
        assert res.status == 1 and got[2] == max(maxfun, 2)
        assert same_bits(got, res)
