import math

import numpy as np
import pytest

from grushin3d import DomainError, ImplicitShape, geometry, measure, sector_count, transform
from grushin3d.geometry import reference_ball_values, sector_index
from grushin3d.shapes import ball, ball_sector, corpus_shapes, ellipsoid
from grushin3d.transform import pushforward_checks
from patch_reference import (
    area_integrand,
    cofactor,
    euclidean_flux,
    flatten_point,
    flatten_shape,
    gauss_st,
    midpoint_st,
    patch_integral,
    unflatten_point,
    volume_flux,
)
from voxel_reference import unit, voxel_integral


def small_sector_ball(alpha):
    """Euclidean ball strictly inside the first sector, away from the axis."""
    width = math.pi / sector_count(alpha)
    ctr = (math.cos(width / 2), math.sin(width / 2), 0.0)
    return ball(0.3 * math.sin(width / 2), center=ctr)


class TestFlattenRoundTrip:
    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
    def test_roundtrip_random_points(self, alpha):
        rng = np.random.default_rng(11)
        th = rng.uniform(1e-6, math.pi / sector_count(alpha) - 1e-6, 1000)
        r = rng.uniform(0.05, 4.0, 1000)
        y = rng.uniform(-3.0, 3.0, 1000)
        pts = np.column_stack([r * np.cos(th), r * np.sin(th), y])
        back = unflatten_point(flatten_point(pts, alpha), alpha)
        assert np.abs(back - pts).max() <= 1e-10

    def test_angle_dilation(self):
        alpha = 1.0
        rng = np.random.default_rng(5)
        th = rng.uniform(1e-4, math.pi / sector_count(alpha) - 1e-4, 200)
        pts = np.column_stack([np.cos(th), np.sin(th), np.zeros_like(th)])
        image = flatten_point(pts, alpha)
        assert np.abs(np.arctan2(image[:, 1], image[:, 0]) - 2 * th).max() <= 1e-12

    def test_radius_map(self):
        # alpha = 1: |x| = sqrt(2) at 45 degrees maps to radius |x|^2/2 = 1
        p = flatten_point(np.array([1.0, 1.0, 0.0]), 1.0)
        assert np.hypot(p[0], p[1]) == pytest.approx(1.0, abs=1e-14)


class TestReferenceBallImage:
    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
    def test_cap_maps_to_unit_sphere(self, alpha):
        shape = ball_sector(alpha, 1)
        cap = shape.patches[0]
        st, _ = midpoint_st(cap, 40)
        pts = cap.param(*st.T)
        image = flatten_point(pts, alpha)
        radii = np.linalg.norm(image, axis=1)
        assert np.abs(radii - 1.0).max() <= 1e-10

    def test_image_wedge_angle(self):
        alpha = 2.0
        shape = ball_sector(alpha, 1)
        cap = shape.patches[0]
        st, _ = midpoint_st(cap, 60)
        image = flatten_point(cap.param(*st.T), alpha)
        ang = np.arctan2(image[:, 1], image[:, 0])
        width = (alpha + 1.0) * (math.pi / sector_count(alpha))
        assert ang.min() > 0 and ang.max() < width


class TestPushforward:
    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
    def test_reference_sector_volume(self, alpha):
        m = 128
        shape = ball_sector(alpha, 1)
        vals = reference_ball_values(alpha)
        rep, _ = pushforward_checks(shape, alpha, m)
        assert rep.rel_gap <= 1e-3
        assert rep.weighted == pytest.approx(vals.volume, rel=5e-3)

    def test_reference_sector_perimeter(self):
        m = 160
        shape = ball_sector(1.0, 1)
        vals = reference_ball_values(1.0)
        _, rep = pushforward_checks(shape, 1.0, m)
        assert rep.rel_gap <= 1e-2
        assert rep.weighted == pytest.approx(vals.sector_perimeter, rel=1e-3)

    def test_small_ball_far_from_axis(self):
        m = 128
        shape = small_sector_ball(1.0)
        volume, perimeter = pushforward_checks(shape, 1.0, m)
        assert volume.rel_gap <= 1e-3
        assert perimeter.rel_gap <= 1e-2

    def test_scaled_sector_ball_half_radius(self):
        m = 128
        shape = ball_sector(1.0, j=1, radius=0.5)
        _, rep = pushforward_checks(shape, 1.0, m)
        # spherical wedge of radius 1/2: area scales by 1/4
        assert rep.euclidean == pytest.approx(0.25 * 2 * math.pi, rel=1e-3)
        assert rep.rel_gap <= 1e-2

    def test_empty_shape(self):
        # both volumes of a ball sector of radius 1e-200 underflow to 0
        rep, _ = pushforward_checks(ball_sector(1.0, j=1, radius=1e-200), 1.0)
        assert (rep.weighted, rep.euclidean, rep.rel_gap) == (0.0, 0.0, 0.0)

    def test_shape_outside_sector_rejected(self):
        with pytest.raises(DomainError):
            pushforward_checks(ball(0.5), 1.0)  # straddles all sectors

    @pytest.mark.parametrize("m", [16, 64])
    def test_sliver_outside_sector_rejected(self, m):
        # the ellipsoid dips 0.01 below x2 = 0, into sector 4, and some of
        # its patch nodes lie there
        shape = ellipsoid((0.5, 0.3, 0.5), center=(1.0, 0.29, 0.0))
        outside = sum(
            int(np.count_nonzero(sector_index(pts, 1.0) > 1)) for pts, _, _ in geometry._patch_blocks(shape, m, 2)
        )
        assert outside > 0
        with pytest.raises(DomainError, match="not contained in the first sector"):
            pushforward_checks(shape, 1.0, m)

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.5, 400.0])
    def test_sector_shapes_on_the_walls_accepted(self, alpha):
        # the ball sector's wall patches lie on both walls of sector 1, and
        # a sector-j ball sector is refused for every j > 1
        pushforward_checks(ball_sector(alpha, 1), alpha, 16)
        with pytest.raises(DomainError, match="not contained in the first sector"):
            pushforward_checks(ball_sector(alpha, 2), alpha, 16)

    @pytest.mark.parametrize("bbox", [[(0, math.inf), (0, 1), (-1, 1)], [(-1e308, 1e308), (0, 1), (-1, 1)]])
    def test_shape_with_infinite_bbox_rejected(self, bbox):
        # the shape is refused when it is built
        inner = ball(0.2, center=(0.5, 0.1, 0.0))
        with pytest.raises(DomainError, match="must be finite"):
            ImplicitShape(inner.level, np.array(bbox, dtype=float), inner.patches)

    def test_image_with_infinite_bbox_rejected(self):
        # the image bbox grows like r^{a+1}; the checks never build the image
        with pytest.raises(DomainError, match="must be finite"):
            flatten_shape(ball_sector(16383.0, 1), 16383.0)

    def test_flatten_shape_volume_identity(self):
        # direct check that the image's Lebesgue volume equals the weighted one
        shape = small_sector_ball(0.5)
        rep, _ = pushforward_checks(shape, 0.5)
        flat = flatten_shape(shape, 0.5)
        assert flat.name.startswith("flat(")
        assert rep.euclidean > 0


def _image_shapes(alphas=(0.5, 1.0, 2.0)):
    for alpha in alphas:
        yield alpha, ball_sector(alpha, 1)
        yield alpha, small_sector_ball(alpha)


class TestImagePatches:
    @pytest.mark.parametrize("alpha, shape", list(_image_shapes()))
    def test_cross_matches_central_differences(self, alpha, shape):
        # reference: finite-difference tangents of flatten_point o param
        flat = flatten_shape(shape, alpha)
        assert len(flat.patches) == len(shape.patches)
        for patch, image in zip(shape.patches, flat.patches):
            st, _ = midpoint_st(patch, 64)
            hs = (patch.s_range[1] - patch.s_range[0]) / 64 * 1e-4
            ht = (patch.t_range[1] - patch.t_range[0]) / 64 * 1e-4

            def f(st_):
                return flatten_point(patch.param(*st_.T), alpha)

            ds = (f(st + [hs, 0.0]) - f(st - [hs, 0.0])) / (2 * hs)
            dt = (f(st + [0.0, ht]) - f(st - [0.0, ht])) / (2 * ht)
            fd = np.cross(ds, dt)
            closed = image.cross(*st.T)
            sign = np.sign(np.sum(fd * closed))  # patches may be parametrised inward
            err = np.linalg.norm(closed - sign * fd, axis=1) / np.linalg.norm(closed, axis=1)
            assert err.max() <= 1e-6
            assert np.array_equal(image.param(*st.T), f(st))

    @pytest.mark.parametrize("alpha, shape", list(_image_shapes()))
    def test_perimeter_check_matches_per_patch_loop(self, alpha, shape):
        # reference: the image patches' area elements summed patch by patch
        # over the source's Gauss nodes that lie in sector 1
        m = 300
        total = 0.0
        for patch, image in zip(shape.patches, flatten_shape(shape, alpha).patches):
            st, weight = gauss_st(patch, m, sector_count(alpha))
            inside = sector_index(patch.param(*st.T), alpha) == 1
            total += float(np.sum(np.linalg.norm(image.cross(*st[inside].T), axis=1) * weight[inside]))
        _, rep = pushforward_checks(shape, alpha, m)
        assert abs(rep.euclidean - total) <= 1e-14 * total

    @pytest.mark.parametrize("alpha, shape", list(_image_shapes()))
    def test_patch_volume_matches_voxels(self, alpha, shape):
        rep, _ = pushforward_checks(shape, alpha)
        flat = flatten_shape(shape, alpha)
        voxels = voxel_integral(flat.level, flat.bbox, unit, 64, 3)
        assert abs(rep.euclidean - voxels) <= 1e-4 * voxels

    @pytest.mark.parametrize("m", [7, 96, 192, 256])
    @pytest.mark.parametrize("alpha, shape", list(_image_shapes((0.5, 1.0, 2.0, 400.0))))
    def test_weighted_sides_match_measure(self, alpha, shape, m):
        # reference for the weighted sides: the geometry sweep, whose sector
        # sums both sweeps share.  Reference for the image volume: the flux
        # of xi / 3 through the image patches, on their whole Gauss grids;
        # neither shape has a break, so both take the same nodes
        volume, perimeter = pushforward_checks(shape, alpha, m)
        measures = measure(shape, alpha, m)
        assert volume.weighted == measures.volume
        assert perimeter.weighted == measures.sectors[0]
        image = patch_integral(flatten_shape(shape, alpha), euclidean_flux, m, sector_count(alpha))
        assert abs(volume.euclidean - image) <= 1e-14 * abs(image)


def _composed_sectors(points, a):
    """Sector of each node from its own hypot and np.mod(arctan2), with an
    int64 index: the reference of the polar frame's sector test."""
    n = sector_count(a)
    r = np.hypot(points[:, 0], points[:, 1])
    w = np.mod(np.arctan2(points[:, 1], points[:, 0]), 2.0 * np.pi) / (math.pi / n)
    frac = w - np.floor(w)
    on_wall = (frac <= 1e-12) | (frac >= 1.0 - 1e-12)
    idx = np.clip(np.floor(w).astype(np.int64) + 1, 1, 2 * n)
    return np.where((r > 0) & ~on_wall, idx, 0)


def _composed_measure(a):
    """measure's partials, each node function computing its own polar values."""
    n = sector_count(a)
    flux, density = volume_flux(a), area_integrand(a)

    def partials(pts, nu, area):
        vals = density(pts, nu) * area
        parts = np.bincount(_composed_sectors(pts, a), weights=vals, minlength=2 * n + 1)[1:]
        return [np.sum(flux(pts, nu) * area), np.sum(vals), *parts]

    return partials


def _composed_pushforward(a):
    """pushforward_checks' partials from stacked point and cofactor arrays,
    with the count of nodes outside sector 1 and off its walls."""
    flux, density = volume_flux(a), area_integrand(a)

    def partials(pts, nu, area):
        idx = _composed_sectors(pts, a)
        cof, image = cofactor(pts, nu, a), flatten_point(pts, a)
        return (
            np.sum(flux(pts, nu) * area),
            np.bincount(idx, weights=density(pts, nu) * area, minlength=2)[1],
            np.bincount(idx, weights=np.linalg.norm(cof, axis=1) * area, minlength=2)[1],
            np.sum(np.sum(image * cof, axis=1) / 3.0 * area),
            np.count_nonzero(idx > 1),
        )

    return partials


def _handed_partials(monkeypatch, module, run):
    """The partials that ``run()`` hands to ``module._sweep``; the stand-in
    sweep reports no node outside sector 1."""
    handed = []
    monkeypatch.setattr(module, "_sweep", lambda shape, m, partials, n: handed.append(partials) or [1.0] * 4 + [0.0])
    run()
    monkeypatch.undo()
    return handed[0]


def _nodes_agree(shape, fused, composed, n, m=7):
    """Both partials on every node of the shape alone, bit for bit."""
    for pts, nu, area in geometry._patch_blocks(shape, m, n):
        for k in range(len(area)):
            node = pts[k : k + 1], nu[k : k + 1], area[k : k + 1]
            if np.array(fused(*node)).tobytes() != np.array(composed(*node)).tobytes():
                return False
    return True


def _kernel_nodes(alpha, m=33):
    """Points and unit normals of every Gauss node of the corpus shapes and
    ``ball_sector`` at alpha."""
    blocks = [
        (pts, nu)
        for shape in [*corpus_shapes(alpha), ball_sector(alpha)]
        for pts, nu, _ in geometry._patch_blocks(shape, m, sector_count(alpha))
    ]
    return np.concatenate([b[0] for b in blocks]), np.concatenate([b[1] for b in blocks])


def _same_bits(got, want):
    return np.asarray(got, dtype=float).tobytes() == np.asarray(want, dtype=float).tobytes()


KERNEL_ALPHAS = (0.5, 1.0, 2.5, 7.3, 400.0)


class TestReferenceKernels:
    """Each fused kernel, fed the polar frame or r^2 that its sweep
    computes once, gives the bits of the reference node function, which
    computes its own; so the references check the sweeps with ``==``."""

    @pytest.mark.parametrize("alpha", KERNEL_ALPHAS)
    def test_flat_at_matches_flatten_point(self, alpha):
        pts, _ = _kernel_nodes(alpha)
        want = flatten_point(pts, alpha)
        assert _same_bits(np.stack(transform._flat_at(*geometry._polar(pts), alpha), axis=-1), want[:, :2])

    @pytest.mark.parametrize("alpha", KERNEL_ALPHAS)
    def test_cofactor_at_matches_cofactor(self, alpha):
        pts, nu = _kernel_nodes(alpha)
        got = np.stack(transform._cofactor_at(*geometry._polar(pts), nu, alpha), axis=-1)
        assert _same_bits(got, cofactor(pts, nu, alpha))

    @pytest.mark.parametrize("alpha", KERNEL_ALPHAS)
    def test_flux_at_matches_volume_flux(self, alpha):
        pts, nu = _kernel_nodes(alpha)
        _, r2a = geometry._radial(pts, alpha)
        assert _same_bits(geometry._flux_at(pts, nu, r2a, alpha), volume_flux(alpha)(pts, nu))

    @pytest.mark.parametrize("alpha", KERNEL_ALPHAS)
    def test_density_at_matches_area_integrand(self, alpha):
        pts, nu = _kernel_nodes(alpha)
        got = geometry._density_at(nu, *geometry._radial(pts, alpha), alpha)
        assert _same_bits(got, area_integrand(alpha)(pts, nu))


IMAGE_ALPHAS = (0.5, 1.0, 2.5, 400.0)


class TestPolarFrame:
    """The fused sweeps compute each node's polar frame once; every node
    value, and so every sum, keeps the bits of the per-function
    composition.  A one-ulp change at a node can vanish in a sum, so the
    node values are compared on their own too."""

    @pytest.mark.parametrize("m", [7, 192])
    @pytest.mark.parametrize("alpha", IMAGE_ALPHAS)
    def test_measure_matches_composition(self, alpha, m):
        for shape in corpus_shapes(alpha):
            got = measure(shape, alpha, m)
            want = geometry._sweep(shape, m, _composed_measure(alpha), sector_count(alpha))
            assert [got.volume, got.perimeter, *got.sectors] == want

    @pytest.mark.parametrize("m", [7, 192])
    @pytest.mark.parametrize("alpha, shape", list(_image_shapes(IMAGE_ALPHAS)))
    def test_pushforward_matches_composition(self, alpha, shape, m):
        volume, perimeter = pushforward_checks(shape, alpha, m)
        got = [volume.weighted, perimeter.weighted, perimeter.euclidean, volume.euclidean, 0.0]
        assert got == geometry._sweep(shape, m, _composed_pushforward(alpha), sector_count(alpha))

    # at alpha = 400 every node alone splits into 804 sectors, a second per
    # shape; the sums above cover it
    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.5])
    def test_measure_node_values_match_composition(self, alpha, monkeypatch):
        for shape in corpus_shapes(alpha):
            fused = _handed_partials(monkeypatch, geometry, lambda: measure(shape, alpha, 7))
            assert _nodes_agree(shape, fused, _composed_measure(alpha), sector_count(alpha)), shape.name

    @pytest.mark.parametrize("alpha, shape", list(_image_shapes(IMAGE_ALPHAS)))
    def test_pushforward_node_values_match_composition(self, alpha, shape, monkeypatch):
        fused = _handed_partials(monkeypatch, transform, lambda: pushforward_checks(shape, alpha, 7))
        assert _nodes_agree(shape, fused, _composed_pushforward(alpha), sector_count(alpha))
