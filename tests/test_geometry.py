import math
import time
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from grushin3d import (
    DomainError,
    ImplicitShape,
    anisotropic_scale,
    isoperimetric_deficit,
    isoperimetric_quotient,
    measure,
    reference_quotient,
    sector_count,
)
from grushin3d import geometry
from grushin3d.geometry import reference_ball_values, sector_index
from grushin3d.grids import CellGrid
from grushin3d.shapes import ball, ball_sector, box, corpus_shapes, cylinder, ellipsoid, make_shape
from patch_reference import area_integrand, flatten_shape, gauss_axis, gauss_st, midpoint_measure, volume_flux
from voxel_reference import REFINE_CHUNK, refine_chunk, voxel_integral, weighted


def midpoint_weighted_volume(level, bbox, alpha, n):
    """Independent oracle: plain midpoint voxel sum, no refinement."""
    bbox = np.asarray(bbox, dtype=float).reshape(3, 2)
    hs = (bbox[:, 1] - bbox[:, 0]) / n
    axes = [bbox[i, 0] + (np.arange(n) + 0.5) * hs[i] for i in range(3)]
    X1, X2, Y = np.meshgrid(*axes, indexing="ij")
    pts = np.column_stack([X1.ravel(), X2.ravel(), Y.ravel()])
    inside = level(pts) < 0
    w = (pts[:, 0] ** 2 + pts[:, 1] ** 2) ** alpha
    return float(np.sum(w[inside])) * float(hs.prod())


class TestSectorCount:
    def test_examples(self):
        assert sector_count(1.0) == 2
        assert sector_count(0.5) == 2
        assert sector_count(2.5) == 4

    def test_rejects_nonpositive(self):
        with pytest.raises(DomainError):
            sector_count(0.0)
        with pytest.raises(DomainError):
            sector_count(-1.0)

    def test_cap(self):
        assert sector_count(16383.0) == 16384
        with pytest.raises(DomainError):
            sector_count(16383.5)
        with pytest.raises(DomainError, match="got 16383.000000000002"):
            sector_count(16383.000000000002)
        with pytest.raises(DomainError):
            sector_count(1e300)

    def test_alpha_near_integers(self):
        # alpha + 1.0 rounds these to an integer, but n >= alpha + 1 holds
        # in exact arithmetic only for the larger n
        assert sector_count(1e-300) == 2
        assert sector_count(1.0000000000000002) == 3
        assert sector_count(math.nextafter(2.0, 0.0)) == 3

    @given(st.floats(min_value=1e-3, max_value=50.0, allow_nan=False))
    def test_minimality(self, alpha):
        # n - 1 and n - 2 are exact integers, so these compare alpha + 1
        # with n without rounding it
        n = sector_count(alpha)
        assert n - 1 >= alpha
        assert n - 2 < alpha


class TestSectorOfPoint:
    """``sector_index``: the 1-based sector of each point, 0 on a wall or
    the y-axis."""

    def test_examples(self):
        pts = np.array([(1.0, 1.0, 0.0), (-1.0, 1e-4, 5.0), (0.0, 0.0, 1.0)])
        assert list(sector_index(pts, 1.0)) == [1, 2, 0]

    def test_walls_excluded(self):
        pts = np.array([(1.0, 0.0, 0.0), (0.0, 1.0, 0.0)])
        assert list(sector_index(pts, 1.0)) == [0, 0]

    def test_covers_all_sectors(self):
        n = sector_count(2.0)
        thetas = (np.arange(2 * n) + 0.5) * (math.pi / n)
        pts = np.column_stack([np.cos(thetas), np.sin(thetas), np.zeros_like(thetas)])
        assert list(sector_index(pts, 2.0)) == list(range(1, 2 * n + 1))

    def test_angle_reduction_matches_np_mod(self):
        # every angle arctan2 can give, reduced to [0, 2 pi], keeps the bits
        # np.mod gives it, signed zeros included
        special = [0.0, -0.0, math.pi, -math.pi, 5e-324, -5e-324, np.nextafter(-math.pi, 0.0)]
        draws = np.random.default_rng(30).uniform(-math.pi, math.pi, 10**5)
        theta = np.concatenate([special, draws])
        assert geometry._wrap_angle(theta).tobytes() == np.mod(theta, 2.0 * math.pi).tobytes()


class TestWeightedVolume:
    def test_cylinder_closed_form(self, fast_m):
        # int over the unit cylinder of |x|^2 = 2 pi * 2 * int_0^1 s^3 ds = pi
        shape = cylinder(1.0, 1.0)
        vol = measure(shape, 1.0, fast_m).volume
        assert vol == pytest.approx(math.pi, rel=5e-3)

    def test_against_midpoint_oracle(self):
        shape = ellipsoid((1.3, 0.8, 0.6))
        vol = voxel_integral(shape.level, shape.bbox, weighted(1.0), 64, 2)
        oracle_lo = midpoint_weighted_volume(shape.level, shape.bbox, 1.0, 48)
        oracle_hi = midpoint_weighted_volume(shape.level, shape.bbox, 1.0, 96)
        assert abs(vol - oracle_hi) <= 2.5 * abs(oracle_hi - oracle_lo) + 1e-12
        assert vol == pytest.approx(oracle_hi, rel=2e-2)

    def test_reference_sector_value(self, fast_m):
        shape = ball_sector(1.0, 1)
        vals = reference_ball_values(1.0)
        assert vals.volume == pytest.approx(2 * math.pi / 3, abs=1e-15)
        assert measure(shape, 1.0, fast_m).volume == pytest.approx(vals.volume, rel=5e-3)

    def test_empty_shape(self, fast_m):
        # |x|^2 and the area elements underflow to 0 on a ball of radius 1e-200
        assert measure(ball(1e-200), 1.0, fast_m).volume == 0.0

    def test_degenerate_bbox_rejected(self):
        with pytest.raises(DomainError):
            ImplicitShape(level=lambda p: p[:, 0], bbox=np.array([(0, 0), (0, 1), (0, 1)]), patches=ball(1.0).patches)

    @pytest.mark.parametrize("patches", [None, []])
    def test_shape_without_patches_rejected(self, patches):
        with pytest.raises(DomainError, match="carries no surface patches"):
            ImplicitShape(level=lambda p: p[:, 0], bbox=np.array([(-1, 1)] * 3), patches=patches)

    def test_quadrature_convergence_order(self):
        shape = ellipsoid((1.3, 0.8, 0.6))
        exact = 4 * math.pi / 15 * 1.3 * 0.8 * 0.6 * (1.3**2 + 0.8**2)
        errs = {}
        for n in (32, 128):
            errs[n] = abs(voxel_integral(shape.level, shape.bbox, weighted(1.0), n, 2) - exact)
        # two resolution doublings; order >= 1 means a factor >= ~4
        assert errs[128] <= errs[32] / 2.5

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
    def test_patch_shapes_take_the_patch_route(self, alpha, fast_m, monkeypatch):
        sweeps = []
        original = geometry._patch_blocks
        monkeypatch.setattr(geometry, "_patch_blocks", lambda *a: sweeps.append(a) or original(*a))
        shapes = corpus_shapes(alpha)
        for shape in shapes:
            measures = measure(shape, alpha, fast_m)
            assert measures.volume > 0.0 and measures.perimeter > 0.0
        # one sweep of the patch nodes per shape gives all of its measures
        assert len(sweeps) == len(shapes)


def _integral(shape, integrand, m, n):
    """The patch integral of ``integrand`` by the package's own sweep, panels
    cut at the sector walls of n."""
    (total,) = geometry._sweep(shape, m, lambda pts, nu, w: [np.sum(integrand(pts, nu) * w)], n)
    return total


class TestMeasure:
    @pytest.mark.parametrize("alpha", [0.5, 2.5])
    def test_one_sweep_matches_one_sweep_per_measure(self, alpha):
        # reference: a sweep per measure on the same panels; at m = 192 each
        # patch spans two blocks, whose partials both routes reduce in order
        m, n = 192, sector_count(alpha)
        flux, density = volume_flux(alpha), area_integrand(alpha)
        for shape in corpus_shapes(alpha):
            measures = measure(shape, alpha, m)
            assert measures.volume == _integral(shape, flux, m, n)
            assert measures.perimeter == _integral(shape, density, m, n)

    @pytest.mark.parametrize("shape", [ellipsoid((1.3, 0.8, 0.6)), ball_sector(2.5, 3)], ids=["ellipsoid", "sector-3"])
    def test_sector_split_matches_masked_integrals(self, shape, fast_m):
        measures = measure(shape, 2.5, fast_m)
        for j, part in enumerate(measures.sectors, start=1):

            def in_sector(points, normals, j=j):
                return np.where(sector_index(points, 2.5) == j, area_integrand(2.5)(points, normals), 0.0)

            assert part == pytest.approx(_integral(shape, in_sector, fast_m, sector_count(2.5)), rel=1e-13)


class TestRefinementChunks:
    def test_chunking_does_not_change_the_sum(self):
        # crossed cells of a ball, as voxel_integral finds them
        shape = ball(1.0)
        n = 96
        cells = CellGrid(shape.bbox, (n, n, n))
        lo, h = cells.bbox[:, 0], cells.spacing
        corners = np.meshgrid(*(lo[k] + np.arange(n + 1) * h[k] for k in range(3)), indexing="ij")
        neg = (shape.level(np.stack(corners, axis=-1).reshape(-1, 3)) < 0).reshape((n + 1,) * 3)
        cnt = sum(neg[i : n + i, j : n + j, k : n + k].astype(int) for i in (0, 1) for j in (0, 1) for k in (0, 1))
        origins = lo + np.argwhere((cnt > 0) & (cnt < 8)) * h
        assert len(origins) > REFINE_CHUNK
        weight = lambda x1, x2: x1 * x1 + x2 * x2  # noqa: E731
        chunked = refine_chunk(shape.level, weight, origins, h, 2)
        whole = refine_chunk(shape.level, weight, origins, h, 2, chunk=len(origins))
        assert chunked == pytest.approx(whole, rel=1e-14)


class TestWeightedPerimeter:
    def test_cylinder_closed_form(self, fast_m):
        # lateral 4 pi plus two caps of pi/2 each
        shape = cylinder(1.0, 1.0)
        per = measure(shape, 1.0, fast_m).perimeter
        assert per == pytest.approx(5 * math.pi, rel=1e-4)

    def test_ball_patches_vs_closed_form(self):
        # Euclidean unit ball, weighted area via 1D reduction:
        # 2 pi int_{-1}^{1} (1 - c^2) sqrt(1 + c^2) dc
        from scipy.integrate import quad

        exact = 2 * math.pi * quad(lambda c: (1 - c * c) * math.sqrt(1 + c * c), -1, 1)[0]
        assert measure(ball(1.0), 1.0).perimeter == pytest.approx(exact, rel=1e-6)

    def test_patch_normals_are_unit(self):
        m = 17
        for shape in (ellipsoid((1.3, 0.8, 0.6)), cylinder(0.7, 1.4), box((1, 0.7, 0.9)), ball_sector(1.0)):
            for _, nu, _ in geometry._patch_blocks(shape, m, 2):
                norms = np.linalg.norm(nu, axis=1)
                assert np.abs(norms - 1.0).max() <= 1e-12


def half_degenerate_square():
    """A flat unit square whose area element vanishes for s < 1/2."""
    patch = geometry.SurfacePatch(
        param=lambda s, t: geometry._stack(s, t, s, t, 0.0),
        cross=lambda s, t: geometry._stack(s, t, 0.0, 0.0, (s > 0.5).astype(float)),
        s_range=(0.0, 1.0),
        t_range=(0.0, 1.0),
    )
    return ImplicitShape(level=lambda p: np.ones(len(p)), bbox=np.array([(0, 1), (0, 1), (-1, 1)]), patches=[patch])


def _block_cases():
    """(shape, m, n): three cuts of the block reference shapes, and m = 37 on
    the patches of every other shape family, panels cut at the breaks of n."""
    for name, shape in [
        ("ellipsoid", ellipsoid((1.3, 0.8, 0.6))),
        ("ball-sector", ball_sector(1.0)),
        ("half-degenerate", half_degenerate_square()),
    ]:
        for m in (96, 256, 300):
            yield pytest.param(shape, m, 2, id=f"{name}-{m}")
    for alpha in (0.5, 1.0, 2.5):
        n = sector_count(alpha)
        for k, shape in enumerate(corpus_shapes(alpha)):
            yield pytest.param(shape, 37, n, id=f"corpus{k}-{shape.name}-{alpha}")
        yield pytest.param(anisotropic_scale(ellipsoid((1.3, 0.8, 0.6)), 1.7, alpha), 37, n, id=f"scaled-{alpha}")
        yield pytest.param(anisotropic_scale(ball_sector(alpha), 0.6, alpha), 37, n, id=f"scaled-sector-{alpha}")
        yield pytest.param(flatten_shape(ball_sector(alpha), alpha), 37, n, id=f"flat-sector-{alpha}")
        yield pytest.param(flatten_shape(ball(0.2, center=(0.7, 0.3, 0.0)), alpha), 37, n, id=f"flat-ball-{alpha}")
    # the axis pierces the off-centre balls: panels in s and in t
    yield pytest.param(ball(0.6, center=(0.4, 0.4, 0.3)), 300, 2, id="off-centre-ball-300")
    # 2n = 802 walls, one of them at t = 0: 802 one-node panels on the t axis
    yield pytest.param(ellipsoid((1.3, 0.8, 0.6)), 64, sector_count(400.0), id="ellipsoid-alpha400")


class TestPatchBlocks:
    @pytest.mark.parametrize("shape, m, n", list(_block_cases()))
    def test_blocks_match_whole_patch_reference(self, shape, m, n):
        # one block at m = 37 and 96, two of 128 rows at m = 256, and three
        # of 109, 109 and 82 rows at m = 300; at alpha = 400 a block of the
        # ellipsoid is 40 rows of 802 nodes.  The blocks evaluate whole
        # rows, the reference node by node
        evaluated = []

        def spied(patch, k):
            def param(s, t):
                evaluated.append((k, np.broadcast(s, t).size))
                return patch.param(s, t)

            return replace(patch, param=param)

        spy = replace(shape, patches=[spied(p, k) for k, p in enumerate(shape.patches)])
        blocks = geometry._patch_blocks(spy, m, n)
        block = 1 << 15
        for k, patch in enumerate(shape.patches):
            # the reference builds every Gauss node at once, then cuts it
            # into blocks of max(1, 32768 // mt) whole rows of mt nodes
            st, weight = gauss_st(patch, m, n)
            mt = len(gauss_axis(*patch.t_range, patch.breaks(n)[1], m)[0])
            rows = max(1, block // mt)
            for start in range(0, len(st), rows * mt):
                st_, w_ = st[start : start + rows * mt], weight[start : start + rows * mt]
                cross = patch.cross(*st_.T)
                area = np.linalg.norm(cross, axis=1)
                ok = area > 0
                pts, nu, got = next(blocks)
                assert np.array_equal(pts, patch.param(*st_.T)[ok])
                assert np.array_equal(nu, cross[ok] / area[ok, None])
                assert np.array_equal(got, area[ok] * w_[ok])
            # each block is evaluated on exactly its own rows
            sizes = [size for j, size in evaluated if j == k]
            assert len(sizes) == -(-len(st) // (rows * mt))
            assert sum(sizes) == len(st)
            assert max(sizes) <= max(block, mt)
        assert next(blocks, None) is None

    @pytest.mark.parametrize("m", [1, 7, 64, 1024])
    @pytest.mark.parametrize(
        "cuts",
        [(), (0.5,), (0.7, -1.0, 0.3, 0.3, 2.0, 0.0, 1.0), tuple(np.linspace(0.0, 1.0, 803)[1:-1])],
        ids=["none", "one", "repeated-and-outside", "801"],
    )
    def test_panel_axis(self, cuts, m):
        nodes, weights = geometry._panel_axis(0.0, 1.0, cuts, m)
        want_nodes, want_weights = gauss_axis(0.0, 1.0, cuts, m)
        assert np.array_equal(nodes, want_nodes) and np.array_equal(weights, want_weights)
        # k panels of ceil(m / k) nodes: at most m + k - 1, none on a cut
        inner = sorted({c for c in cuts if 0.0 < c < 1.0})
        assert len(nodes) <= m + len(inner)
        edges = np.searchsorted(nodes, inner)
        assert np.array_equal(np.diff([0, *edges, len(nodes)]), [-(-m // (len(inner) + 1))] * (len(inner) + 1))
        assert not set(nodes) & set(inner) and 0.0 < nodes.min() and nodes.max() < 1.0
        assert math.fsum(weights) == pytest.approx(1.0, rel=1e-14)


class TestGaussRule:
    """The Gauss panels against the midpoint rule they replace, and the
    values the split at the walls makes exact to rounding."""

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.5])
    def test_within_the_midpoint_doubling_difference(self, alpha):
        # the midpoint rule's m = 96 vs 192 difference bounds its own error
        # at 192; where it is exact to rounding the bound is 1e-12.  Sector
        # parts are left out: a wall that cuts a midpoint cell makes that
        # rule's error O(1/m) and erratic
        for shape in corpus_shapes(alpha):
            gauss = measure(shape, alpha)
            coarse, fine = midpoint_measure(shape, alpha, 96), midpoint_measure(shape, alpha, 192)
            for name in ("volume", "perimeter"):
                g, c, f = (getattr(ms, name) for ms in (gauss, coarse, fine))
                assert abs(g - f) <= abs(c - f) + 1e-12 * abs(f), (shape.name, name)

    def test_unit_ball_sectors_agree(self):
        # alpha = 2: six sectors, equal by symmetry; the midpoint rule at
        # m = 256 put them 2.3% apart
        sectors = measure(ball(1.0), 2.0).sectors
        assert len(sectors) == 6
        assert max(sectors) - min(sectors) <= 1e-12 * min(sectors)

    @pytest.mark.parametrize(
        "alpha, shape",
        [
            *((alpha, ellipsoid((1.3, 0.8, 0.6))) for alpha in (0.5, 1.0, 2.5)),
            *((alpha, cylinder(0.7, 1.4)) for alpha in (0.5, 1.0, 2.5)),
            # alpha = 1: every wall of the box is a parameter line of its faces
            (1.0, box((1.2, 0.7, 0.9))),
            (1.0, box((1.0, 1.0, 1.0), center=(1.0, 0.5, 0.0))),
        ],
    )
    def test_sectors_converge_where_the_walls_are_breaks(self, alpha, shape):
        # a wall inside a panel would leave an O(1/m) error, ~1e-2 here
        got, ref = (np.array(measure(shape, alpha, m).sectors) for m in (64, 256))
        assert np.abs(got - ref).max() <= 1e-9 * np.abs(ref).max()

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 7.3, 400.0])
    def test_ball_sector_closed_forms(self, alpha):
        shape = ball_sector(alpha)
        ref = reference_ball_values(alpha)
        measures = measure(shape, alpha)
        assert measures.volume == pytest.approx(ref.volume, rel=1e-13)
        assert measures.sectors[0] == pytest.approx(ref.sector_perimeter, rel=1e-13)
        assert isoperimetric_quotient(shape, alpha) == pytest.approx(reference_quotient(alpha), rel=1e-13)

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.5])
    def test_off_centre_ball_perimeter(self, alpha):
        # panels cut at the two points where the axis pierces the sphere
        shape = ball(0.6, center=(0.4, 0.4, 0.3))
        assert measure(shape, alpha).perimeter == pytest.approx(measure(shape, alpha, 1024).perimeter, rel=1e-6)

    def test_largest_alpha_ball_sector_is_fast(self):
        # 2n = 32768 sectors summed by one bincount per block; the sort and
        # split it replaced took 1.09 s at the former default m = 256
        times = []
        for _ in range(3):
            start = time.perf_counter()
            measure(ball_sector(16383, 1), 16383)
            times.append(time.perf_counter() - start)
        assert min(times) <= 0.5


class TestSectorPerimeter:
    def test_reference_sector_values(self, fast_m):
        shape = ball_sector(1.0, 1)
        vals = reference_ball_values(1.0)
        assert vals.sector_perimeter == pytest.approx(2 * math.pi, abs=1e-15)
        assert measure(shape, 1.0, fast_m).sectors[0] == pytest.approx(2 * math.pi, rel=1e-4)

    @pytest.mark.parametrize("alpha, j", [(1.0, 1), (1.0, 2), (2.5, 3)])
    def test_ball_sector_reads_zero_elsewhere(self, alpha, j, fast_m):
        per = measure(ball_sector(alpha, j), alpha, fast_m)
        n = sector_count(alpha)
        assert len(per.sectors) == 2 * n
        assert per.sectors[j - 1] > 0.0
        assert [p for k, p in enumerate(per.sectors, start=1) if k != j] == [0.0] * (2 * n - 1)
        # the two walls count in the total only
        assert per.perimeter > per.sectors[j - 1]

    def test_index_range_checked(self, fast_m):
        # the quotient reads the sector a shape is marked with
        shape = ball_sector(1.0, 1)
        for bad in (0, 5):
            with pytest.raises(DomainError):
                isoperimetric_quotient(replace(shape, sector=bad), 1.0, fast_m)

    def test_additivity_and_superadditivity(self, fast_m):
        # no corpus shape but the ball sectors has boundary on a sector wall,
        # so its sector parts add up to the whole perimeter
        for alpha in (0.5, 1.0, 2.0):
            for shape in corpus_shapes(alpha):
                if shape.sector is not None:
                    continue
                per = measure(shape, alpha, fast_m)
                assert sum(per.sectors) == pytest.approx(per.perimeter, rel=1e-12)
                assert per.perimeter**1.5 >= sum(p**1.5 for p in per.sectors) - 1e-9


class TestReferenceBall:
    @pytest.mark.parametrize(
        "alpha,vol,per",
        [
            (1.0, 2 * math.pi / 3, 2 * math.pi),
            (0.5, math.pi / 2, 1.5 * math.pi),
            (2.0, 2 * math.pi / 3, 2 * math.pi),
        ],
    )
    def test_analytic_record(self, alpha, vol, per):
        vals = reference_ball_values(alpha)
        assert vals.volume == pytest.approx(vol, abs=1e-14)
        assert vals.sector_perimeter == pytest.approx(per, abs=1e-14)

    def test_quadrature_agrees(self, fast_m):
        for alpha in (0.5, 2.0):
            shape = ball_sector(alpha, 1)
            vals = reference_ball_values(alpha)
            measures = measure(shape, alpha, fast_m)
            assert measures.volume == pytest.approx(vals.volume, rel=8e-3)
            assert measures.sectors[0] == pytest.approx(vals.sector_perimeter, rel=1e-3)


class TestIsoperimetry:
    def test_reference_quotient_closed_form(self):
        assert reference_quotient(1.0) == pytest.approx(3 * math.sqrt(2 * math.pi), abs=1e-12)

    def test_ball_sector_quotient(self, fast_m):
        shape = ball_sector(1.0, 1)
        q = isoperimetric_quotient(shape, 1.0, fast_m)
        assert q == pytest.approx(3 * math.sqrt(2 * math.pi), rel=5e-3)

    def test_cylinder_quotient_and_deficit(self, fast_m):
        shape = cylinder(1.0, 1.0)
        q = isoperimetric_quotient(shape, 1.0, fast_m)
        assert q == pytest.approx((5 * math.pi) ** 1.5 / math.pi, rel=6e-3)
        deficit = isoperimetric_deficit(shape, 1.0, fast_m)
        assert deficit == pytest.approx(q - 3 * math.sqrt(2 * math.pi), rel=1e-9)
        assert deficit > 10.0

    def test_reference_deficit_near_zero(self, fast_m):
        shape = ball_sector(1.0, 1)
        q_ref = reference_quotient(1.0)
        assert abs(isoperimetric_deficit(shape, 1.0, fast_m)) <= 0.01 * q_ref

    def test_small_ellipsoid_sweep_nonnegative(self, fast_m):
        rng = np.random.default_rng(7)
        q_ref = reference_quotient(1.0)
        for _ in range(3):
            axes = rng.uniform(0.5, 1.5, size=3)
            shape = ellipsoid(tuple(axes))
            assert isoperimetric_deficit(shape, 1.0, fast_m) >= -0.01 * q_ref

    def test_zero_volume_rejected(self, fast_m):
        # |x|^2 underflows to 0 on a ball of radius 1e-200
        with pytest.raises(DomainError):
            isoperimetric_quotient(ball(1e-200), 1.0, fast_m)


class TestAnisotropicScale:
    def test_identity_at_one(self):
        shape = ellipsoid((1.2, 0.8, 0.9))
        scaled = anisotropic_scale(shape, 1.0, 1.0)
        pts = np.random.default_rng(3).uniform(-1, 1, size=(50, 3))
        assert np.allclose(scaled.level(pts), shape.level(pts), atol=1e-14)
        assert np.allclose(scaled.bbox, shape.bbox)

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
    def test_measured_scaling_exponents(self, alpha, fast_m):
        shape = ellipsoid((1.3, 0.8, 0.6))
        scaled = anisotropic_scale(shape, 2.0, alpha)
        m1, m2 = measure(shape, alpha, fast_m), measure(scaled, alpha, fast_m)
        assert abs(math.log2(m2.volume / m1.volume) - (3 * alpha + 3)) <= 1e-3
        assert abs(math.log2(m2.perimeter / m1.perimeter) - (2 * alpha + 2)) <= 1e-3

    def test_quotient_invariance(self, fast_m):
        shape = ellipsoid((1.1, 0.9, 0.8))
        scaled = anisotropic_scale(shape, 1.7, 1.0)
        q1 = isoperimetric_quotient(shape, 1.0, fast_m)
        q2 = isoperimetric_quotient(scaled, 1.0, fast_m)
        assert q2 == pytest.approx(q1, rel=2e-3)

    def test_rejects_nonpositive_factor(self):
        with pytest.raises(DomainError):
            anisotropic_scale(ball(1.0), 0.0, 1.0)


class TestPatchVolumeRoute:
    def test_divergence_identity_matches_voxels(self, fast_m):
        # flat axis-aligned faces (box) sit at one fixed grid offset, so the
        # voxel route carries a systematic O(h/2^depth) bias there; curved
        # shapes average it out
        for shape, rel in (
            (cylinder(1.0, 1.0), 6e-3),
            (ellipsoid((1.3, 0.8, 0.6)), 6e-3),
            (box((1, 0.7, 0.9)), 3e-2),
        ):
            v_patch = measure(shape, 1.0, fast_m).volume
            v_voxel = voxel_integral(shape.level, shape.bbox, weighted(1.0), 64, 2)
            assert v_voxel == pytest.approx(v_patch, rel=rel)

    def test_box_closed_form_via_patches(self, fast_m):
        # int over the box of |x|^2 has the closed form V (a1^2 + a2^2)/3;
        # midpoint quadrature of the quadratic flux carries an O(h^2) error
        a1, a2, a3 = 1.0, 0.7, 0.9
        exact = 8 * a1 * a2 * a3 * (a1**2 + a2**2) / 3
        v = measure(box((a1, a2, a3)), 1.0, fast_m).volume
        assert v == pytest.approx(exact, rel=1e-4)

    def test_cylinder_exact(self, fast_m):
        assert measure(cylinder(1.0, 1.0), 1.0, fast_m).volume == pytest.approx(
            math.pi, rel=1e-12
        )


class TestCorpus:
    def test_make_shape_known_and_unknown(self):
        assert make_shape("ball", radius=0.5).name == "ball"
        with pytest.raises(DomainError):
            make_shape("dodecahedron")

    def test_corpus_size_and_kinds(self):
        shapes = corpus_shapes(1.0)
        assert len(shapes) >= 12
        names = {s.name for s in shapes}
        assert {"ellipsoid", "cylinder", "box", "ball", "ball-sector"} <= names
