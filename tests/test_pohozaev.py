import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from grushin3d import DomainError
from grushin3d.pohozaev import (
    PohozaevReport,
    nonexistence_classify,
    pohozaev_coefficient,
    pohozaev_lhs,
    pohozaev_residual,
    pohozaev_rhs,
    star_shaped_check,
)
from grushin3d.shapes import ball, ellipsoid
from grushin3d.grids import CellGrid, GridFunction3D
from grushin3d.sobolev import scaling_exponent
from grushin3d.solver import Domain
from patch_reference import shape_star_check

ALPHA = 1.0


def cosine_field(domain):
    X1, X2, Y = domain.centers()
    L = domain.bbox[0, 1]
    c = lambda z: np.cos(np.pi * z / (2 * L))  # noqa: E731
    return domain.grid_function(c(X1) * c(X2) * c(Y))


class TestCoefficient:
    def test_zero_at_critical_power(self):
        for alpha in (0.3, 0.5, 1.0, 2.0, 3.7):
            assert pohozaev_coefficient(5.0, alpha) == 0.0

    def test_examples(self):
        assert pohozaev_coefficient(3.0, 1.0) == pytest.approx(0.5, abs=1e-15)
        assert pohozaev_coefficient(7.0, 1.0) == pytest.approx(-0.25, abs=1e-15)

    @given(
        st.floats(min_value=1.0, max_value=20.0),
        st.floats(min_value=0.1, max_value=5.0),
    )
    def test_sign_rule(self, p, alpha):
        coef = pohozaev_coefficient(p, alpha)
        if p < 5.0 - 1e-12:
            assert coef > 0
        elif p > 5.0 + 1e-12:
            assert coef < 0

    def test_rejects_small_p(self):
        with pytest.raises(DomainError):
            pohozaev_coefficient(0.5, 1.0)

    def test_is_the_scaling_exponent_at_p_plus_one(self):
        # one dilation: the identity's coefficient is the quotient's
        # scaling exponent at q = p + 1, bit for bit
        for p in (1.0, 1.7, 2.0, 3.0, 4.9, 5.0, 5.1, 7.0, 19.3):
            for alpha in (0.1, 0.3, 0.5, 1.0, 2.0, 3.7, 7.3):
                got = pohozaev_coefficient(p, alpha)
                assert got.hex() == scaling_exponent(p + 1.0, alpha).hex()


class TestClassification:
    def test_examples(self):
        assert nonexistence_classify(4.0) == "subcritical"
        assert nonexistence_classify(5.0) == "critical"
        assert nonexistence_classify(6.0) == "supercritical"


class TestStarShaped:
    def test_cube(self):
        margin = star_shaped_check(Domain.cube(1.0, 8), ALPHA)
        assert type(margin) is float
        assert margin == pytest.approx(1.0, abs=1e-12)

    def test_box_faces(self):
        # g is sign * coef * bbox[axis, side] on each face, coef = 1 + a on y faces
        dom = Domain(np.array([(-1.0, 2.0), (-0.5, 3.0), (-0.2, 1.0)]), (4, 4, 4))
        assert star_shaped_check(dom, ALPHA) == 2.0 * 0.2
        assert star_shaped_check(dom, 2.0) == 0.5

    def test_box_off_the_origin_is_not_star_shaped(self):
        # the face x1 = 0.5 has outward normal -e1: X . nu = -0.5
        box = CellGrid(np.array([(0.5, 2.0), (-1.0, 1.0), (-1.0, 1.0)]), (4, 4, 4))
        assert star_shaped_check(box, ALPHA) == -0.5 < -1e-10

    def test_masked_grid_rejected(self):
        # the box faces are not the boundary of a masked grid: 8 cells
        # inside |x1|, |x2|, |y| < 0.3 would read as the whole cube's 1.0
        dom = Domain.cube(1.0, 8)
        x1, x2, y = dom.centers()
        mask = (np.abs(x1) < 0.3) & (np.abs(x2) < 0.3) & (np.abs(y) < 0.3)
        assert mask.sum() == 8
        with pytest.raises(DomainError, match="box domains only"):
            star_shaped_check(Domain(dom.bbox, dom.dims, mask), ALPHA)

    def test_origin_ball(self):
        assert shape_star_check(ball(1.0), ALPHA) >= 1.0 - 1e-6

    def test_offset_ball_rejected(self):
        with pytest.raises(DomainError):
            shape_star_check(ball(1.0, center=(10.0, 0.0, 0.0)), ALPHA)

    def test_invariant_under_anisotropic_scaling(self):
        # the dilation (x, y) -> (2x, 2^{a+1} y) maps an ellipsoid to the
        # ellipsoid of the dilated semi-axes
        shape = ellipsoid((1.0, 0.8, 0.6))
        scaled = ellipsoid((2.0, 1.6, 0.6 * 2.0 ** (ALPHA + 1.0)))
        assert shape_star_check(shape, ALPHA) >= -1e-10
        assert shape_star_check(scaled, ALPHA) > 0


class TestBoundaryIntegral:
    def test_zero_solution(self):
        dom = Domain.cube(1.0, 16)
        zero = dom.grid_function(np.zeros(dom.dims))
        assert pohozaev_rhs(zero, ALPHA) == 0.0
        assert pohozaev_lhs(zero, 3.0, ALPHA) == 0.0

    def test_box_read_from_the_field(self):
        # a plain grid function on the cube's box gives the domain's numbers
        dom = Domain.cube(1.0, 16)
        u = cosine_field(dom)
        plain = GridFunction3D(dom.bbox, u.values)
        assert pohozaev_rhs(plain, ALPHA) == pohozaev_rhs(u, ALPHA)
        assert star_shaped_check(plain, ALPHA) == star_shaped_check(dom, ALPHA)

    def test_critical_coefficient_kills_lhs(self):
        dom = Domain.cube(1.0, 16)
        u = cosine_field(dom)
        assert pohozaev_lhs(u, 5.0, ALPHA) == 0.0

    def test_flux_of_analytic_field(self):
        # half the weighted boundary flux of the cosine bump has the closed
        # form value 1/2 * 12.449341 (two x-faces of 2 pi^2/4 * ... computed
        # by 2D quadrature below)
        from scipy.integrate import dblquad

        c = lambda z: math.cos(math.pi * z / 2)  # noqa: E731
        # face x1 = 1: integrand (pi/2)^2 cos^2 cos^2, X.nu = 1, Anu.nu = 1
        face_x = dblquad(
            lambda y, x2: (math.pi / 2) ** 2 * c(x2) ** 2 * c(y) ** 2, -1, 1, -1, 1
        )[0]
        # face y = 1: X.nu = (1+1)*1, Anu.nu = |x|^2
        face_y = dblquad(
            lambda x2, x1: 2 * (x1**2 + x2**2) * (math.pi / 2) ** 2 * c(x1) ** 2 * c(x2) ** 2,
            -1,
            1,
            -1,
            1,
        )[0]
        exact_half_flux = 0.5 * (4 * face_x + 2 * face_y)
        dom = Domain.cube(1.0, 64)
        rhs = pohozaev_rhs(cosine_field(dom), ALPHA)
        assert rhs == pytest.approx(exact_half_flux, rel=5e-3)

    def test_dilation_identity_on_analytic_field(self):
        # int (Lu)(X . grad u) = -(a+1)/2 int |grad_G u|^2 - (boundary flux)/2,
        # the computation behind the one-half normalisation of the rhs
        dom = Domain.cube(1.0, 96)
        X1, X2, Y = dom.centers()
        c = lambda z: np.cos(np.pi * z / 2)  # noqa: E731
        s = lambda z: np.sin(np.pi * z / 2)  # noqa: E731
        u = c(X1) * c(X2) * c(Y)
        ux1 = -np.pi / 2 * s(X1) * c(X2) * c(Y)
        ux2 = -np.pi / 2 * c(X1) * s(X2) * c(Y)
        uy = -np.pi / 2 * c(X1) * c(X2) * s(Y)
        w = X1**2 + X2**2
        Lu = (np.pi**2 / 4) * (2.0 + w) * u
        M = X1 * ux1 + X2 * ux2 + 2.0 * Y * uy
        vol = dom.cell_volume
        lhs = float(np.sum(Lu * M)) * vol
        Q = float(np.sum(ux1**2 + ux2**2 + w * uy**2)) * vol
        half_flux = pohozaev_rhs(dom.grid_function(u), ALPHA)
        assert lhs == pytest.approx(-Q - half_flux, rel=2e-3)


class TestResidualOnSolutions:
    def test_converged_subcritical_solution(self, ground_states):
        sol = ground_states(48)
        rep = pohozaev_residual(sol.u, 3.0, ALPHA)
        assert float(np.max(np.abs(sol.u.values))) > 0.0
        assert rep.star_shaped >= -1e-10
        assert pohozaev_coefficient(3.0, ALPHA) == pytest.approx(0.5)
        assert rep.residual <= 0.10

    def test_report_fields(self):
        names = [f.name for f in dataclasses.fields(PohozaevReport)]
        assert names == ["lhs", "rhs", "residual", "star_shaped"]

    def test_zero_solution(self):
        dom = Domain.cube(1.0, 8)
        zero = dom.grid_function(np.zeros(dom.dims))
        rep = pohozaev_residual(zero, 3.0, ALPHA)
        assert float(np.max(np.abs(zero.values))) == 0.0
        assert rep.residual == 0.0

    def test_masked_domain_rejected(self):
        mask = np.ones((8, 8, 8), dtype=bool)
        dom = Domain(np.array([(-1, 1)] * 3), (8, 8, 8), mask=mask)
        zero = dom.grid_function(np.zeros(dom.dims))
        with pytest.raises(DomainError):
            pohozaev_rhs(zero, ALPHA)
