import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.integrate import quad

from grushin3d import DomainError, rearrangement, sector_count
from grushin3d.fields import compact_bump, cosine_bump, radial_field, random_bump_corpus
from grushin3d.grids import GridFunction3D
from grushin3d.rearrangement import (
    MAX_LEVELS,
    DistributionFunction,
    RadialProfile,
    anisotropic_radius,
    distribution_function,
    grushin_energy,
    polya_szego_gap,
    radius_from_measure,
    rearrange,
    sector_measure_of_radius,
    weighted_lq_norm,
)
from grushin3d.sobolev import rayleigh_quotient, scaling_exponent
from grid_reference import gradient_energy, sorted_distribution


def cylinder_indicator(resolution=64):
    """Grid indicator of {|x| < 1, |y| < 1} inside a slightly larger box."""
    bbox = np.array([(-1.1, 1.1)] * 3)
    fn = lambda X1, X2, Y: ((X1**2 + X2**2 < 1.0) & (np.abs(Y) < 1.0)).astype(float)  # noqa: E731
    return GridFunction3D.from_callable(fn, bbox, (resolution,) * 3)


class TestDistributionFunction:
    def test_zero_field(self):
        grid = GridFunction3D(np.array([(-1, 1)] * 3), np.zeros((8, 8, 8)))
        dist = distribution_function(grid, 1.0)
        assert np.all(dist.measures == 0.0)

    def test_level_cap(self):
        # rejected before any level array exists; only cap + 1 is tried
        grid = GridFunction3D(np.array([(-1, 1)] * 3), np.ones((2, 2, 2)))
        with pytest.raises(DomainError, match="at most 1048576"):
            distribution_function(grid, 1.0, MAX_LEVELS + 1)

    @pytest.mark.parametrize(
        "levels", [2.7, math.nan, None, np.array([0.25, 0.5])], ids=["float", "nan", "None", "array"]
    )
    def test_levels_must_be_a_count(self, levels):
        grid = GridFunction3D(np.array([(-1, 1)] * 3), np.ones((2, 2, 2)))
        with pytest.raises(DomainError, match="integer count"):
            distribution_function(grid, 1.0, levels)

    def test_plateau_cylinder(self):
        # indicator of the unit cylinder: lambda(t) = weighted volume pi below 1
        # at every level t = k/100 < 1, and 0 at the top level t = 1
        grid = cylinder_indicator(96)
        dist = distribution_function(grid, 1.0, levels=100)
        assert dist.levels[-1] == 1.0
        assert np.allclose(dist.measures[:-1], math.pi, rtol=2e-2)
        assert dist.measures[-1] == 0.0

    def test_monotone_nonincreasing(self):
        for field in random_bump_corpus(3, resolution=32):
            dist = distribution_function(field, 1.0)
            assert np.all(np.diff(dist.measures) <= 1e-15)

    @pytest.mark.parametrize("field", ["dyadic", "zero"])
    @pytest.mark.parametrize("levels", [1, 7, 8, 256], ids=lambda k: f"levels{k}")
    def test_counts_match_full_sort_on_dyadic_grid(self, levels, field):
        # on [-1, 1]^3 with n = 8 and alpha = 1 every weighted cell measure
        # (x1^2 + x2^2) / 64 and every partial sum of them is exact, so the
        # level count and a sort of every cell must agree bit for bit; the
        # values are multiples of 1/16 up to 1, so many tie with each other
        # and, at 8 levels, with the levels themselves (a zero field has the
        # one level 0, above which no cell lies)
        rng = np.random.default_rng(8)
        values = rng.integers(0, 17, size=(8, 8, 8)) / 16.0
        values[0, 0, 0] = 1.0
        if field == "zero":
            values[...] = 0.0
        mask = rng.uniform(size=values.shape) < 0.9
        grid = GridFunction3D(np.array([(-1.0, 1.0)] * 3), values, mask)
        dist = distribution_function(grid, 1.0, levels=levels)
        ref = sorted_distribution(grid, 1.0, levels)
        assert dist.levels.tobytes() == ref.levels.tobytes()
        assert dist.measures.tobytes() == ref.measures.tobytes()
        assert dist.top == ref.top
        assert len(dist.levels) == (levels if field == "dyadic" else 1)

    @pytest.mark.parametrize("levels", [1, 7, 256, 4096], ids=lambda k: f"levels{k}")
    def test_counts_match_full_sort_on_random_grid(self, levels):
        # the two routes add the same positive cell measures in other orders,
        # so each level's measure may differ by the rounding of N additions:
        # at most 2 N eps relative for N cells
        rng = np.random.default_rng(8)
        values = np.maximum(rng.standard_normal((6, 8, 10)), 0.0)
        mask = rng.uniform(size=values.shape) < 0.9
        grid = GridFunction3D(np.array([(-1.0, 1.2), (-0.5, 1.0), (-1.0, 1.0)]), values, mask)
        dist = distribution_function(grid, 1.0, levels=levels)
        ref = sorted_distribution(grid, 1.0, levels)
        assert dist.levels.tobytes() == ref.levels.tobytes()
        bound = 2 * values.size * np.finfo(float).eps
        assert np.all(np.abs(dist.measures - ref.measures) <= bound * ref.measures)
        assert np.count_nonzero(ref.measures) == levels - 1  # every level below the top

    def test_top_is_the_weighted_essential_supremum(self):
        # on 3^3 cells of [-1.5, 1.5]^3 the centre column lies on the y-axis,
        # where the weight |x|^{2a} is 0: its 1.0 measures nothing, and the
        # levels end at 0.5, the largest value of positive weight
        values = np.full((3, 3, 3), 0.5)
        values[1, 1, :] = 1.0
        grid = GridFunction3D(np.array([(-1.5, 1.5)] * 3), values)
        dist = distribution_function(grid, 1.0, levels=4)
        ref = sorted_distribution(grid, 1.0, 4)
        assert dist.top == ref.top == 0.5
        assert dist.levels.tobytes() == ref.levels.tobytes()
        assert dist.measures.tobytes() == ref.measures.tobytes()
        # an even grid has no centre on the axis: the top is max u
        for field in random_bump_corpus(2, resolution=16):
            assert distribution_function(field, 1.0).top == float(field.values.max())

    def test_rejects_negative_values(self):
        grid = GridFunction3D(np.array([(-1, 1)] * 3), -np.ones((4, 4, 4)))
        with pytest.raises(DomainError):
            distribution_function(grid, 1.0)


class TestRadiusFromMeasure:
    def test_reference_measure(self):
        # the unit sector ball has anisotropic radius a+1
        assert radius_from_measure(2 * math.pi / 3, 1.0) == pytest.approx(2.0, abs=1e-13)

    def test_zero(self):
        assert radius_from_measure(0.0, 1.0) == 0.0

    def test_rejects_negative(self):
        with pytest.raises(DomainError):
            radius_from_measure(-1e-9, 1.0)

    @given(st.floats(min_value=1e-6, max_value=1e6))
    def test_cube_root_homogeneity(self, m):
        assert radius_from_measure(8 * m, 1.0) == pytest.approx(
            2 * radius_from_measure(m, 1.0), rel=1e-12
        )

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
    def test_inverts_sector_measure(self, alpha):
        for R in (0.3, 1.0, 2.7):
            m = sector_measure_of_radius(R, alpha)
            assert radius_from_measure(m, alpha) == pytest.approx(R, rel=1e-12)

    def test_sector_measure_against_voxels(self):
        # voxel quadrature of {r < R} in the first sector
        from grushin3d.shapes import ball_sector
        from voxel_reference import voxel_integral, weighted

        shape = ball_sector(1.0, j=1)  # r < 2 for alpha = 1
        vol = sector_measure_of_radius(2.0, 1.0)
        voxels = voxel_integral(shape.level, shape.bbox, weighted(1.0), 64, 2)
        assert voxels == pytest.approx(vol, rel=5e-3)


class TestRearrange:
    def test_zero_field(self):
        grid = GridFunction3D(np.array([(-1, 1)] * 3), np.zeros((8, 8, 8)))
        prof = rearrange(grid, 1.0)
        assert prof.max_value == 0.0
        assert prof.dirichlet_energy() == 0.0

    @pytest.mark.parametrize("levels", [8, 256])
    def test_zero_field_gives_tiny_profile(self, levels):
        grid = GridFunction3D(np.array([(-1, 1)] * 3), np.zeros((4, 4, 4)))
        prof = rearrange(grid, 1.0, levels)
        assert prof.radii.tolist() == [np.finfo(float).tiny]
        assert prof.values.tolist() == [0.0]

    def test_one_level_is_refused(self):
        # the one level of K = 1 is the top, and lambda(top) = 0: the profile
        # would be zero although the field is not
        u = random_bump_corpus(1, resolution=24, seed=7)[0]
        for call in (
            lambda: rearrange(u, 1.0, 1),
            lambda: polya_szego_gap(u, 1.0, 1),
            lambda: RadialProfile.from_distribution(distribution_function(u, 1.0, 1), 1.0),
        ):
            with pytest.raises(DomainError, match="at least 2"):
                call()
        top = distribution_function(u, 1.0, 2).top
        assert rearrange(u, 1.0, 2).max_value == top > 0.8
        # a zero field has the one level 0 whatever K is, and its zero profile
        zero = GridFunction3D(u.bbox, np.zeros(u.dims))
        assert RadialProfile.from_distribution(distribution_function(zero, 1.0, 1), 1.0).max_value == 0.0

    def test_max_preserved_exactly(self):
        u = radial_field(cosine_bump, 1.0, 1.0, resolution=48)
        prof = rearrange(u, 1.0)
        assert prof.max_value == float(u.values.max())

    def test_radial_profile_law(self):
        # radial nonincreasing u = g(r): profile is g(r / (2n)^{1/3})
        alpha = 1.0
        u = radial_field(cosine_bump, alpha, 1.0, resolution=96)
        prof = rearrange(u, alpha)
        rs = np.linspace(0.05, 1.5, 40)
        expected = cosine_bump(rs / (2 * sector_count(alpha)) ** (1 / 3))
        assert np.abs(prof(rs) - expected).max() <= 6e-3  # one level step + grid noise

    def test_profile_monotone_right_continuous(self):
        for field in random_bump_corpus(3, resolution=32):
            prof = rearrange(field, 1.0)
            assert np.all(np.diff(prof.values) <= 0)
            assert np.all(np.diff(prof.radii) > 0)
            # right-continuity: value at a breakpoint comes from the interval
            # to its right
            mid = len(prof.radii) // 2
            if mid + 1 < len(prof.values):
                assert prof(prof.radii[mid]) == prof.values[mid + 1]

    def test_near_tie_radii_merge_like_exact_ties(self):
        # two levels whose measures tie exactly, and the same two 1 ulp apart,
        # as a reordered sum can leave them: the later radius is dropped in
        # both cases, so the profiles and their energies agree byte for byte
        levels = np.linspace(0.125, 1.0, 8)
        tie = [2.0, 1.7, 1.4, 0.5, 0.5, 0.3, 0.1, 0.02]
        near = list(tie)
        near[3] = np.nextafter(0.5, np.inf)
        assert radius_from_measure(near[3], 1.0) != radius_from_measure(near[4], 1.0)
        a, b = (RadialProfile.from_distribution(DistributionFunction(levels, np.array(m), 1.0), 1.0) for m in (tie, near))
        assert len(a.radii) == len(levels) - 2  # the tie and the repeated support radius
        assert a.radii.tobytes() == b.radii.tobytes()
        assert a.values.tobytes() == b.values.tobytes()
        assert a.dirichlet_energy() == b.dirichlet_energy()

    def test_equimeasurability_at_levels(self):
        alpha = 1.0
        u = radial_field(compact_bump, alpha, 1.0, resolution=64)
        prof = rearrange(u, alpha)
        dist = distribution_function(u, alpha)
        gap = np.abs(dist.measures - prof.measure_above(dist.levels)).max()
        assert gap <= 1e-12 * dist.measures[0]


class TestNorms:
    def test_plateau_l6_norm(self):
        grid = cylinder_indicator(96)
        # weighted measure of the support is pi, so the L6 norm is pi^{1/6}
        assert weighted_lq_norm(grid, 6, 1.0) == pytest.approx(math.pi ** (1 / 6), rel=5e-3)

    def test_zero_field(self):
        grid = GridFunction3D(np.array([(-1, 1)] * 3), np.zeros((8, 8, 8)))
        assert weighted_lq_norm(grid, 2, 1.0) == 0.0

    def test_rejects_q_below_one(self):
        grid = cylinder_indicator(16)
        with pytest.raises(DomainError):
            weighted_lq_norm(grid, 0.5, 1.0)

    @pytest.mark.parametrize("q", [math.nan, math.inf, 0.0], ids=["nan", "inf", "zero"])
    @pytest.mark.parametrize(
        "call",
        [
            lambda g, q: g.power_integral(g.values, q, 1.0),
            lambda g, q: weighted_lq_norm(g, q, 1.0),
            lambda g, q: rayleigh_quotient(g, q, 1.0),
            lambda g, q: RadialProfile(np.array([0.5, 1.0]), np.array([2.0, 1.0]), 1.0).lq_norm(q),
            lambda g, q: scaling_exponent(q, 1.0),
        ],
        ids=["power_integral", "weighted_lq_norm", "rayleigh_quotient", "profile_lq_norm", "scaling_exponent"],
    )
    def test_rejects_exponents_out_of_range(self, call, q):
        # each exponent check is written so that NaN fails too, and runs
        # before q is used (1 / q at q = 0)
        with pytest.raises(DomainError):
            call(cylinder_indicator(16), q)

    @pytest.mark.parametrize("q", [2, 4, 6])
    def test_rearrangement_preserves_norms(self, q):
        alpha = 1.0
        u = radial_field(cosine_bump, alpha, 1.0, resolution=96)
        prof = rearrange(u, alpha)
        n_u = weighted_lq_norm(u, q, alpha)
        n_p = prof.lq_norm(q)
        assert n_p == pytest.approx(n_u, rel=1e-2)


@st.composite
def energy_grids(draw):
    """Grids of 2 to 7 cells per axis (edge order 1 where an axis has 2),
    C- or F-ordered values, unequal spacings, with or without a mask."""
    dims = draw(st.tuples(*[st.integers(2, 7)] * 3))
    values = draw(arrays(np.float64, dims, elements=st.floats(-1e3, 1e3)))
    if draw(st.booleans()):
        values = np.asfortranarray(values)
    lo = np.array(draw(st.tuples(*[st.floats(-2.0, 2.0)] * 3)))
    width = np.array(draw(st.tuples(*[st.floats(0.125, 3.0)] * 3)))
    mask = draw(st.none() | arrays(np.bool_, dims))
    return GridFunction3D(np.column_stack([lo, lo + width]), values, mask)


class TestGrushinEnergy:
    @given(energy_grids(), st.sampled_from([0.5, 1.0, 2.0, 7.3]))
    def test_equals_gradient_route(self, u, alpha):
        assert grushin_energy(u, alpha) == gradient_energy(u, alpha)

    def test_scratch_blocks_span_the_grid(self, monkeypatch):
        # blocks of 1, 2 and 3 x1 slabs, the last one short
        u = random_bump_corpus(1, resolution=7, seed=2)[0]
        for cells in (1, 98, 147):
            monkeypatch.setattr(rearrangement, "_ENERGY_BLOCK_CELLS", cells)
            assert grushin_energy(u, 1.0) == gradient_energy(u, 1.0)

    def test_zero_field(self):
        grid = GridFunction3D(np.array([(-1, 1)] * 3), np.zeros((8, 8, 8)))
        assert grushin_energy(grid, 1.0) == 0.0

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
    def test_full_space_radial_identity(self, alpha):
        # for u = g(r) the full-space energy is 4 pi int r^2 g'(r)^2 dr
        u = radial_field(cosine_bump, alpha, 1.0, resolution=96)
        eps = 1e-7
        gp = lambda r: (cosine_bump(r + eps) - cosine_bump(r - eps)) / (2 * eps)  # noqa: E731
        exact = 4 * math.pi * quad(lambda r: r * r * gp(r) ** 2, 0, 1, limit=200)[0]
        assert grushin_energy(u, alpha) == pytest.approx(exact, rel=2e-2)

    def test_richardson_order(self):
        # smooth bump: grid energy converges at order >= 1.8
        alpha = 1.0
        eps = 1e-7
        gp = lambda r: (cosine_bump(r + eps) - cosine_bump(r - eps)) / (2 * eps)  # noqa: E731
        exact = 4 * math.pi * quad(lambda r: r * r * gp(r) ** 2, 0, 1, limit=200)[0]
        errs = []
        for n in (32, 64, 128):
            u = radial_field(cosine_bump, alpha, 1.0, resolution=n)
            errs.append(abs(grushin_energy(u, alpha) - exact))
        order = math.log2(errs[0] / errs[2]) / 2
        assert order >= 1.8


def quotient_grids():
    """Fields whose quotients sum every cell (no mask, an all-true mask, a
    broadcast one as on the sector grids, Fortran order as load_grid gives)
    or a masked copy (a partial mask)."""
    rng = np.random.default_rng(1)
    # a wide range of values, so that summing in another order changes bits
    values = np.exp(2.0 * rng.standard_normal((10, 12, 9)))
    bbox = np.array([(-1.0, 1.0), (-0.5, 1.5), (0.0, 1.0)])
    yield GridFunction3D(bbox, values)
    yield GridFunction3D(bbox, np.asfortranarray(values))
    yield GridFunction3D(bbox, values, np.ones(values.shape, bool))
    yield GridFunction3D(bbox, values, np.broadcast_to(np.ones((10, 12, 1), bool), values.shape))
    yield GridFunction3D(bbox, np.asfortranarray(values), rng.uniform(size=values.shape) < 0.7)


@pytest.mark.parametrize("grid", list(quotient_grids()), ids=["none", "fortran", "all", "broadcast", "partial"])
def test_quotients_match_masked_copy_sums(grid):
    # the reference: whole arrays, then a masked copy of the density, in C order
    active = np.ones(grid.dims, bool) if grid.mask is None else grid.mask
    w = grid.weight2d(1.0)[:, :, None]
    assert grushin_energy(grid, 1.0) == gradient_energy(grid, 1.0)
    # an integer q powers |u| by multiplication: each squaring doubles the
    # rounding error of a term, so a term is within q ulps of libm's pow and
    # the norm within 1e-14 relative; any other q calls pow itself
    for q in (2.0, 3.0, 3.5, 4.0, 5.0, 6.0, 20.0):
        norm = (float(np.sum((w * np.abs(grid.values) ** q)[active])) * grid.cell_volume) ** (1.0 / q)
        if q.is_integer() and q <= 16:
            assert weighted_lq_norm(grid, q, 1.0) == pytest.approx(norm, rel=1e-14, abs=0.0)
        else:
            assert weighted_lq_norm(grid, q, 1.0) == norm


class TestPolyaSzego:
    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
    def test_radial_family_ratio(self, alpha):
        u = radial_field(cosine_bump, alpha, 1.0, resolution=96)
        prof = rearrange(u, alpha)
        ratio = prof.dirichlet_energy() / grushin_energy(u, alpha)
        target = (2.0 * sector_count(alpha)) ** (-2.0 / 3.0)
        assert ratio == pytest.approx(target, rel=2e-2)

    def test_zero_field(self):
        grid = GridFunction3D(np.array([(-1, 1)] * 3), np.zeros((8, 8, 8)))
        assert polya_szego_gap(grid, 1.0) == 0.0

    def test_random_bumps_gap_nonnegative(self):
        alpha = 1.0
        for field in random_bump_corpus(5, resolution=48):
            gap = polya_szego_gap(field, alpha)
            assert gap >= -0.02 * grushin_energy(field, alpha)


class TestAnisotropicRadius:
    def test_matches_definition(self):
        r = anisotropic_radius(1.0, 1.0, 0.5, 1.0)
        assert r == pytest.approx(math.sqrt(4.0 + 4 * 0.25))
