import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given
from hypothesis import strategies as st

import grushin3d
from grushin3d import DegeneracyError, DomainError, IterationError
from grushin3d.fields import random_bump_corpus
from grushin3d.grids import GridFunction3D
from grushin3d.solver import (
    Domain,
    GrushinOperator,
    Problem,
    _dirichlet_spectrum,
    _line_quadratic,
    _minres,
    linear_solve,
    poincare_constant,
    solve_ground_state,
)
from grushin3d.sobolev import sobolev_lower_bound

ALPHA = 1.0


def manufactured(domain):
    """u = cos(pi x1 / 2L) ... vanishing on the cube boundary, with its
    exact right-hand side for the weighted operator."""
    L = domain.bbox[0, 1]
    X1, X2, Y = domain.centers()
    c = lambda z: np.cos(np.pi * z / (2 * L))  # noqa: E731
    u = c(X1) * c(X2) * c(Y)
    w = (X1**2 + X2**2) ** 1.0
    rhs = (np.pi / (2 * L)) ** 2 * (2.0 + w) * u
    return u, rhs


def assembled_stencil(domain, alpha):
    """The stencil as a sparse matrix over all cells, entry by entry from the
    ghost rule, without GrushinOperator: c = 1/h^2 (times |x|^{2a} on the y
    axis) per side of an active cell; a neighbour inside the box and active
    couples with -c, a missing one is a ghost -u and adds c more to the
    diagonal.  Rows and columns of inactive cells are empty."""
    dims, h, active = domain.dims, domain.spacing, domain.active()
    x1, x2 = domain.axis_centers(0), domain.axis_centers(1)
    rows, cols, vals = [], [], []
    for cell in np.ndindex(dims):
        if not active[cell]:
            continue
        row = np.ravel_multi_index(cell, dims)
        for axis in range(3):
            c = 1.0 / h[axis] ** 2
            if axis == 2:
                c *= (x1[cell[0]] ** 2 + x2[cell[1]] ** 2) ** alpha
            for step in (-1, 1):
                nb = list(cell)
                nb[axis] += step
                if 0 <= nb[axis] < dims[axis] and active[tuple(nb)]:
                    rows += [row, row]
                    cols += [row, np.ravel_multi_index(nb, dims)]
                    vals += [c, -c]
                else:
                    rows.append(row)
                    cols.append(row)
                    vals.append(2.0 * c)
    size = int(np.prod(dims))
    return sp.coo_matrix((vals, (rows, cols)), shape=(size, size)).tocsr()


def check_against_assembled(domain, alpha, seed=0):
    op = GrushinOperator(domain, alpha)
    u = np.random.default_rng(seed).standard_normal(domain.dims)
    out = op(u)
    ref = (assembled_stencil(domain, alpha) @ u.ravel()).reshape(domain.dims)
    assert np.abs(out - ref).max() <= 1e-13 * np.abs(ref).max()
    assert np.all(out[~domain.active()] == 0.0)
    assert np.all(op(np.zeros(domain.dims)) == 0.0)


ANISOTROPIC_BOX = np.array([(-1.0, 1.2), (-0.8, 0.9), (-1.3, 1.1)])


def ball_domain(n, radius=0.95):
    box = Domain.cube(1.0, n)
    X1, X2, Y = box.centers()
    return Domain(box.bbox, box.dims, X1**2 + X2**2 + Y**2 < radius**2)


@st.composite
def masked_domains(draw):
    """Small masked domains with random bits and an active origin cell."""
    dims = (2 * draw(st.integers(1, 4)), 2 * draw(st.integers(1, 4)), draw(st.integers(2, 7)))
    bits = draw(st.lists(st.booleans(), min_size=int(np.prod(dims)), max_size=int(np.prod(dims))))
    mask = np.array(bits).reshape(dims)
    origin = np.floor(-ANISOTROPIC_BOX[:, 0] / ((ANISOTROPIC_BOX[:, 1] - ANISOTROPIC_BOX[:, 0]) / dims))
    mask[tuple(origin.astype(int))] = True
    return Domain(ANISOTROPIC_BOX, dims, mask)


def check_against_direct_solve(domain, alpha, seed=0):
    """linear_solve against a sparse direct solve on the active block of the
    assembled stencil; inactive cells of the solution stay 0."""
    from scipy.sparse.linalg import spsolve

    act = domain.active()
    rhs = np.random.default_rng(seed).standard_normal(domain.dims)
    x = linear_solve(GrushinOperator(domain, alpha), rhs, 1e-12)
    A = assembled_stencil(domain, alpha)[act.ravel()][:, act.ravel()]
    ref = spsolve(A.tocsc(), rhs[act])
    assert np.abs(x[act] - ref).max() <= 1e-10 * np.abs(ref).max()
    assert np.all(x[~act] == 0.0)


class CountingOperator:
    """Forwards to a GrushinOperator and counts its applications."""

    def __init__(self, op):
        self.op = op
        self.calls = 0

    def __call__(self, u):
        self.calls += 1
        return self.op(u)

    def __getattr__(self, name):
        return getattr(self.op, name)


class NegatedOperator(CountingOperator):
    """-A: negative definite, so CG must report a breakdown."""

    def __call__(self, u):
        return -super().__call__(u)


class TestDomain:
    def test_cube(self):
        dom = Domain.cube(1.0, 16)
        assert dom.dims == (16, 16, 16)
        assert dom.cell_volume == pytest.approx((2 / 16) ** 3)

    def test_requires_origin_inside(self):
        with pytest.raises(DomainError):
            Domain(np.array([(0.5, 1.0), (-1, 1), (-1, 1)]), (4, 4, 4))

    def test_requires_even_x_dims(self):
        with pytest.raises(DomainError):
            Domain(np.array([(-1, 1)] * 3), (5, 4, 4))

    def test_cell_cap(self):
        # checked before any field exists, so the rejected grid costs nothing
        assert Domain.cube(1.0, 256).dims == (256, 256, 256)
        with pytest.raises(DomainError):
            Domain(np.array([(-1, 1)] * 3), (256, 256, 257))

    @pytest.mark.parametrize("x1", [(-np.inf, np.inf), (-1e308, 1e308), (-1.0, np.nan)])
    def test_bbox_must_be_finite(self, x1):
        # an infinite entry, or finite entries whose extent overflows
        with pytest.raises(DomainError, match="must be finite"):
            Domain(np.array([x1, (-1, 1), (-1, 1)]), (4, 4, 4))
        with pytest.raises(DomainError, match="must be finite"):
            Domain.cube(x1[1], 8)

    @pytest.mark.parametrize("half_width", [1e-160, 1e-200])
    @pytest.mark.parametrize(
        "run",
        [lambda dom: solve_ground_state(dom, 4.0, 1.0), lambda dom: poincare_constant(dom, 1.0)],
        ids=["solve_ground_state", "poincare_constant"],
    )
    def test_couplings_must_be_finite(self, half_width, run):
        # the cells of such a cube are finite, but 1/h^2 overflows: the
        # domain is refused before the solver would fail on it (with a
        # DegeneracyError, an IterationError or scipy's ValueError)
        with pytest.raises(DomainError, match=r"1/h\^2 is not finite"):
            run(Domain.cube(half_width, 8))
        # one thin axis is enough
        with pytest.raises(DomainError, match=r"1/h\^2 is not finite"):
            run(Domain(np.array([(-1.0, 1.0), (-1.0, 1.0), (-half_width, half_width)]), (8, 8, 8)))

    def test_origin_cell_must_be_active(self):
        mask = np.ones((4, 4, 4), dtype=bool)
        mask[2, 2, 2] = False
        with pytest.raises(DomainError):
            Domain(np.array([(-1, 1)] * 3), (4, 4, 4), mask=mask)

    @pytest.mark.parametrize("masked", [False, True])
    def test_geometry_shared_with_grid_functions(self, masked):
        # Domain and GridFunction3D take their geometry from one CellGrid
        bbox = np.array([(-1.0, 1.2), (-0.8, 0.9), (-1.3, 1.1)])
        dims = (12, 16, 10)
        mask = None
        if masked:
            mask = np.random.default_rng(3).uniform(size=dims) < 0.8
            mask[4:7, 6:9, 4:7] = True
        dom = Domain(bbox, dims, mask)
        grid = GridFunction3D(bbox, np.zeros(dims), mask)
        assert np.array_equal(dom.spacing, grid.spacing)
        assert dom.cell_volume == grid.cell_volume
        for axis in range(3):
            assert np.array_equal(dom.axis_centers(axis), grid.axis_centers(axis))
        assert np.array_equal(dom.active(), grid.active())
        for alpha in (0.5, 1.0, 2.0):
            assert np.array_equal(dom.weight2d(alpha), grid.weight2d(alpha))
            assert np.array_equal(GrushinOperator(dom, alpha).weight2d, grid.weight2d(alpha))


class TestOperator:
    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
    def test_matches_assembled_on_box(self, alpha):
        check_against_assembled(Domain(ANISOTROPIC_BOX, (12, 16, 10)), alpha)

    def test_matches_assembled_on_full_mask(self):
        check_against_assembled(Domain(ANISOTROPIC_BOX, (12, 16, 10), np.ones((12, 16, 10), dtype=bool)), 1.0)

    @pytest.mark.parametrize("alpha", [0.5, 2.0])
    def test_matches_assembled_on_ball(self, alpha):
        check_against_assembled(ball_domain(16, 0.9), alpha)

    @given(masked_domains(), st.sampled_from([0.5, 1.0, 2.0]), st.integers(0, 2**32 - 1))
    def test_matches_assembled_on_drawn_masks(self, domain, alpha, seed):
        check_against_assembled(domain, alpha, seed)

    @given(masked_domains(), st.sampled_from([0.5, 1.0, 2.0]), st.integers(0, 2**32 - 1))
    def test_masked_preconditioner_is_spd(self, domain, alpha, seed):
        # z = P M^{-1} P r on active cells and z = r on inactive ones
        op = GrushinOperator(domain, alpha)
        act = domain.active()
        rng = np.random.default_rng(seed)
        u, v = (np.where(act, rng.standard_normal(domain.dims), 0.0) for _ in range(2))
        Mu, Mv = op._precondition(u), op._precondition(v)
        scale = np.linalg.norm(u) * np.linalg.norm(Mv) + np.linalg.norm(v) * np.linalg.norm(Mu)
        assert abs(float(np.sum(v * Mu)) - float(np.sum(u * Mv))) <= 1e-12 * scale
        assert float(np.sum(u * Mu)) > 0
        r = rng.standard_normal(domain.dims)
        z = op._precondition(r)
        assert np.array_equal(z[~act], r[~act])
        assert np.array_equal(z[act], op._precondition(np.where(act, r, 0.0))[act])
        assert float(np.sum(r * z)) > 0

    def test_dirichlet_spectrum(self):
        # eigenvalues of the 1D second difference with a ghost -u at each end
        n, h = 9, 0.3
        T = (np.diag(np.r_[3.0, np.full(n - 2, 2.0), 3.0]) - np.eye(n, k=1) - np.eye(n, k=-1)) / h**2
        k = np.arange(1, n + 1)
        assert np.allclose(np.linalg.eigvalsh(T), _dirichlet_spectrum(n, h, k), rtol=1e-13, atol=0)

    def test_exact_on_quadratics(self):
        dom = Domain.cube(1.0, 16)
        op = GrushinOperator(dom, ALPHA)
        X1, X2, Y = dom.centers()
        inner = (slice(2, -2),) * 3
        assert np.abs(op(X1)[inner]).max() <= 1e-12
        Au = op(Y**2)
        assert np.abs(Au[inner] + 2 * (X1**2 + X2**2)[inner]).max() <= 1e-10

    def test_symmetry_and_positivity(self):
        dom = Domain.cube(1.0, 12)
        op = GrushinOperator(dom, ALPHA)
        rng = np.random.default_rng(4)
        u = rng.standard_normal(dom.dims)
        v = rng.standard_normal(dom.dims)
        uv = float(np.sum(v * op(u)))
        vu = float(np.sum(u * op(v)))
        assert uv == pytest.approx(vu, rel=1e-12)
        assert float(np.sum(u * op(u))) > 0

    def test_masked_domain_stays_symmetric(self):
        mask = np.ones((8, 8, 8), dtype=bool)
        mask[:2, :3, :2] = False
        dom = Domain(np.array([(-1, 1)] * 3), (8, 8, 8), mask=mask)
        op = GrushinOperator(dom, ALPHA)
        rng = np.random.default_rng(9)
        u = np.where(mask, rng.standard_normal(dom.dims), 0.0)
        v = np.where(mask, rng.standard_normal(dom.dims), 0.0)
        assert float(np.sum(v * op(u))) == pytest.approx(float(np.sum(u * op(v))), rel=1e-12)


class TestSolverConfig:
    """The solver's two settable values: the CG tolerance of ``linear_solve``
    (cg_tol) and the weak-residual tolerance of ``solve_ground_state``
    (outer_tol)."""

    @pytest.mark.parametrize("key", ["cg_tol", "outer_tol"])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), 0.0, -1e-8])
    def test_rejects_bad_tolerances(self, key, bad):
        dom = Domain.cube(1.0, 8)
        with pytest.raises(DomainError):
            if key == "cg_tol":
                linear_solve(GrushinOperator(dom, ALPHA), np.ones(dom.dims), bad)
            else:
                solve_ground_state(dom, 4.0, ALPHA, bad)


class TestLinearSolve:
    def test_recovers_known_field(self):
        dom = Domain.cube(1.0, 16)
        op = GrushinOperator(dom, ALPHA)
        rng = np.random.default_rng(1)
        u_known = rng.standard_normal(dom.dims)
        x = linear_solve(op, op(u_known), 1e-12)
        assert np.abs(x - u_known).max() <= 1e-8 * np.abs(u_known).max()

    def test_zero_rhs(self):
        dom = Domain.cube(1.0, 8)
        op = GrushinOperator(dom, ALPHA)
        assert np.all(linear_solve(op, np.zeros(dom.dims)) == 0.0)

    def test_manufactured_convergence_order(self):
        errs = []
        for n in (12, 24, 48):
            dom = Domain.cube(1.0, n)
            op = GrushinOperator(dom, ALPHA)
            u_exact, rhs = manufactured(dom)
            u_h = linear_solve(op, rhs, 1e-11)
            errs.append(math.sqrt(float(np.sum((u_h - u_exact) ** 2)) * dom.cell_volume))
        order = math.log2(errs[0] / errs[2]) / 2
        assert order >= 1.8

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
    def test_matches_direct_solve_on_box(self, alpha):
        check_against_direct_solve(Domain(ANISOTROPIC_BOX, (12, 16, 10)), alpha)

    @pytest.mark.parametrize("alpha", [0.5, 2.0])
    def test_matches_direct_solve_on_ball(self, alpha):
        check_against_direct_solve(ball_domain(16, 0.9), alpha)

    @given(masked_domains(), st.sampled_from([0.5, 1.0, 2.0]), st.integers(0, 2**32 - 1))
    def test_matches_direct_solve_on_drawn_masks(self, domain, alpha, seed):
        check_against_direct_solve(domain, alpha, seed)

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
    def test_masked_applications_bounded(self, alpha):
        # the box solver restricted to the mask keeps this to about 30 applications
        dom = ball_domain(32)
        op = CountingOperator(GrushinOperator(dom, alpha))
        rhs = np.random.default_rng(5).standard_normal(dom.dims)
        x = linear_solve(op, rhs, 1e-10)
        assert op.calls <= 50
        b = np.where(dom.mask, rhs, 0.0)
        assert np.linalg.norm(op.op(x) - b) <= 1e-10 * np.linalg.norm(b)

    @pytest.mark.parametrize("n", [16, 48])
    @pytest.mark.parametrize("alpha, limit", [(0.5, 25), (1.0, 2), (2.0, 25)])
    def test_pcg_applications_independent_of_grid(self, n, alpha, limit):
        # the separable preconditioner is exact at alpha = 1 and within a
        # factor 2^|alpha - 1| of the operator otherwise
        dom = Domain.cube(1.0, n)
        op = CountingOperator(GrushinOperator(dom, alpha))
        rhs = np.random.default_rng(5).standard_normal(dom.dims)
        x = linear_solve(op, rhs, 1e-11)
        assert op.calls <= limit
        assert np.linalg.norm(op.op(x) - rhs) <= 1e-11 * np.linalg.norm(rhs)

    @pytest.mark.parametrize("masked", [False, True])
    def test_non_finite_input_raises_at_once(self, masked):
        mask = np.ones((8, 8, 8), dtype=bool) if masked else None
        dom = Domain(np.array([(-1, 1)] * 3), (8, 8, 8), mask=mask)
        rhs = np.ones(dom.dims)
        for bad_rhs, x0 in ((np.full(dom.dims, np.nan), None), (rhs, np.full(dom.dims, np.nan))):
            op = CountingOperator(GrushinOperator(dom, ALPHA))
            with pytest.raises(IterationError) as err:
                linear_solve(op, bad_rhs, x0=x0)
            assert op.calls <= 1
            assert err.value.last_residual is not None

    @pytest.mark.parametrize("masked", [False, True])
    def test_indefinite_operator_breaks_down(self, masked):
        mask = np.ones((8, 8, 8), dtype=bool) if masked else None
        dom = Domain(np.array([(-1, 1)] * 3), (8, 8, 8), mask=mask)
        op = NegatedOperator(GrushinOperator(dom, ALPHA))
        with pytest.raises(IterationError) as err:
            linear_solve(op, np.ones(dom.dims))
        assert op.calls <= 2
        assert err.value.last_residual == pytest.approx(1.0)

    @pytest.mark.parametrize("masked", [False, True])
    def test_cold_start_skips_zero_application(self, masked):
        # x0 = 0 costs one application of the operator to the zero vector;
        # the cold start begins from r = b and must give the same bits
        mask = np.ones((8, 8, 8), dtype=bool) if masked else None
        dom = Domain(np.array([(-1, 1)] * 3), (8, 8, 8), mask=mask)
        rhs = np.random.default_rng(2).standard_normal(dom.dims)
        cold = CountingOperator(GrushinOperator(dom, ALPHA))
        warm = CountingOperator(GrushinOperator(dom, ALPHA))
        x_cold = linear_solve(cold, rhs)
        x_warm = linear_solve(warm, rhs, x0=np.zeros(dom.dims))
        assert np.array_equal(x_cold, x_warm)
        assert cold.calls == warm.calls - 1

    def test_discrete_maximum_principle(self):
        dom = Domain.cube(1.0, 12)
        op = GrushinOperator(dom, ALPHA)
        rng = np.random.default_rng(3)
        rhs = rng.uniform(0.0, 1.0, dom.dims)
        x = linear_solve(op, rhs, 1e-12)
        assert x.min() >= -1e-10


class TestEnergyAndGradient:
    def test_energy_zero_at_zero(self):
        dom = Domain.cube(1.0, 12)
        assert Problem(dom, ALPHA, 4.0).energy(np.zeros(dom.dims)) == 0.0

    def test_power_homogeneity(self):
        dom = Domain.cube(1.0, 12)
        prob = Problem(dom, ALPHA, 4.0)
        op = prob.op
        X1, X2, Y = dom.centers()
        v = np.exp(-3 * (X1**2 + X2**2 + Y**2))
        a = op.quadratic_form(v)
        w = op.weight2d[:, :, None]
        b = float(np.sum(w * np.abs(v) ** 4)) * dom.cell_volume
        for t in (0.5, 1.0, 2.0):
            direct = prob.energy(t * v)
            assert direct == pytest.approx(t**2 / 2 * a - t**4 / 4 * b, rel=1e-10)

    def test_energy_tends_to_minus_infinity(self):
        dom = Domain.cube(1.0, 12)
        X1, X2, Y = dom.centers()
        v = np.exp(-3 * ((X1 - 0.4) ** 2 + (X2 - 0.4) ** 2 + Y**2))
        assert Problem(dom, ALPHA, 4.0).energy(1e3 * v) < 0

    def test_gradient_matches_finite_differences(self):
        dom = Domain.cube(1.0, 12)
        rng = np.random.default_rng(8)
        for q in (4.0, 3.0):
            prob = Problem(dom, ALPHA, q)
            u = rng.standard_normal(dom.dims) * 0.5
            v = rng.standard_normal(dom.dims)
            eps = 1e-5
            fd = (prob.energy(u + eps * v) - prob.energy(u - eps * v)) / (2 * eps)
            an = float(np.sum(prob.gradient(u) * v)) * dom.cell_volume
            assert fd == pytest.approx(an, rel=1e-6)

    def test_gradient_zero_at_zero(self):
        dom = Domain.cube(1.0, 8)
        assert np.all(Problem(dom, ALPHA, 4.0).gradient(np.zeros(dom.dims)) == 0.0)

    @pytest.mark.parametrize("masked", [False, True])
    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("q", [3.0, 4.5])
    def test_closed_form_weight_times_power(self, q, alpha, masked):
        # f = |x|^{2a} |u|^{q-2} u and the power term sum |x|^{2a} |u|^q dV
        # bit for bit, with the weight from the sparse cell centres; the
        # energy is 1/2 <A u, u> dV minus that term over q, and the gradient
        # is A u - f exactly
        bbox = np.array([(-1.0, 1.2), (-0.8, 0.9), (-1.3, 1.1)])
        rng = np.random.default_rng(2)
        mask = None
        if masked:
            mask = rng.uniform(size=(12, 16, 10)) < 0.9
            mask[4:7, 6:9, 4:7] = True  # around the origin cell
        dom = Domain(bbox, (12, 16, 10), mask)
        prob = Problem(dom, alpha, q)
        u = np.where(dom.active(), rng.standard_normal(dom.dims), 0.0)
        X1, X2, _ = dom.centers(sparse=True)
        w = (X1**2 + X2**2) ** alpha
        f = w * np.abs(u) ** (q - 2.0) * u
        # an integer q is powered by multiplication (|u|^2 |u| at q = 3),
        # any other q by pow
        au = np.abs(u)
        power = au * au * au if q == 3.0 else au**q
        b = float(np.sum((w * power)[dom.active()])) * dom.cell_volume
        Au, fu, g = prob.evaluate(u)
        assert np.all(fu == f)
        assert np.all(Au == prob.op(u))
        assert np.all(g == np.where(dom.active(), Au - f, 0.0))
        assert np.all(prob.gradient(u) == g)
        assert prob.power_term(u) == b
        assert prob.energy(u) == 0.5 * prob.op.quadratic_form(u) - b / q

    @pytest.mark.parametrize("q", [2.0, 1.0, math.nan, math.inf])
    def test_problem_rejects_bad_exponents(self, q):
        with pytest.raises(DomainError):
            Problem(Domain.cube(1.0, 8), ALPHA, q)

    def test_weak_residual_of_solved_system(self):
        # the manufactured right-hand side is met by a linear solve
        dom = Domain.cube(1.0, 16)
        op = GrushinOperator(dom, ALPHA)
        _, rhs = manufactured(dom)
        u = linear_solve(op, rhs, 1e-12)
        rel = math.sqrt(float(np.sum((op(u) - rhs) ** 2)) / float(np.sum(rhs**2)))
        assert rel <= 1e-8

    def test_weak_residual_zero_function(self):
        dom = Domain.cube(1.0, 8)
        assert Problem(dom, ALPHA, 4.0).residual(np.zeros(dom.dims)) == 0.0


def descent_alone(dom, q, alpha, tol):
    """The descent-only reference the Newton finish is tested against:
    every Newton try is rejected, which leaves u unchanged and only lowers
    the gate, so the iterates are those of the descent."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(grushin3d.solver, "_newton_step", lambda *args: (None, 0))
        return solve_ground_state(dom, q, alpha, tol)


def nehari_scale(prob, u):
    """t with t u on the Nehari set, <Phi'(t u), t u> = 0."""
    return prob.nehari_factor(prob.op.quadratic_form(u), prob.power_term(u))


class TestNehari:
    def test_scale_one_when_balanced(self):
        dom = Domain.cube(1.0, 16)
        prob = Problem(dom, ALPHA, 4.0)
        X1, X2, Y = dom.centers()
        u = np.exp(-4 * ((X1 - 0.4) ** 2 + (X2 - 0.4) ** 2 + Y**2))
        t = nehari_scale(prob, u)
        assert nehari_scale(prob, t * u) == pytest.approx(1.0, abs=1e-10)

    def test_amplitude_scaling_law(self):
        dom = Domain.cube(1.0, 16)
        prob = Problem(dom, ALPHA, 4.0)
        X1, X2, Y = dom.centers()
        u = np.exp(-4 * ((X1 - 0.4) ** 2 + X2**2 + Y**2))
        assert nehari_scale(prob, 2 * u) == pytest.approx(nehari_scale(prob, u) / 2, rel=1e-12)

    def test_projection_annihilates_pairing(self):
        dom = Domain.cube(1.0, 16)
        prob = Problem(dom, ALPHA, 4.0)
        op = prob.op
        X1, X2, Y = dom.centers()
        u = np.exp(-4 * ((X1 - 0.3) ** 2 + (X2 + 0.2) ** 2 + Y**2))
        t = nehari_scale(prob, u)
        ut = t * u
        a = op.quadratic_form(ut)
        b = float(np.sum(op.weight2d[:, :, None] * np.abs(ut) ** 4)) * dom.cell_volume
        assert abs(a - b) <= 1e-10 * (a + b)

    def test_zero_rejected(self):
        dom = Domain.cube(1.0, 8)
        with pytest.raises(DegeneracyError):
            solve_ground_state(dom, 4.0, ALPHA, initial=np.zeros(dom.dims))


class TestGroundState:
    def test_small_run(self):
        dom = Domain.cube(1.0, 24)
        q = 4.0
        sol = solve_ground_state(dom, q, ALPHA, 1e-6)
        assert sol.gradient_norm <= 1e-6
        assert sol.energy > 0
        assert float(np.abs(sol.u.values).max()) > 1.0
        # modulus has no larger energy: facewise |a - b| <= |a| + |b|
        prob = Problem(dom, ALPHA, q)
        e_u = prob.energy(sol.u.values)
        e_abs = prob.energy(np.abs(sol.u.values))
        assert e_abs <= e_u + 1e-10
        # the path max over t -> t u equals the critical level on the manifold
        assert sol.mountain_pass_level == pytest.approx(sol.energy, rel=1e-10)

    @pytest.mark.parametrize("masked", [False, True])
    def test_report_comes_from_problem_algebra(self, masked):
        # the solver loop must not fork its own copy of the energy algebra
        bbox = np.array([(-1.0, 1.1), (-0.9, 1.0), (-1.05, 1.0)])
        mask = None
        if masked:
            X1, X2, Y = Domain(bbox, (16, 16, 16)).centers()
            mask = X1**2 + X2**2 + Y**2 < 0.9**2
        dom = Domain(bbox, (16, 16, 16), mask)
        q = 4.0
        sol = solve_ground_state(dom, q, ALPHA, 1e-6)
        prob = Problem(dom, ALPHA, q)
        assert sol.gradient_norm == prob.residual(sol.u.values)
        assert sol.energy == pytest.approx(prob.energy(sol.u.values), rel=1e-12)
        assert sol.newton_steps > 0
        if masked:
            # the descent alone is the reference the Newton finish is tested against
            ref = descent_alone(dom, q, ALPHA, 1e-6)
            assert ref.newton_steps == 0
            assert sol.energy == pytest.approx(ref.energy, rel=1e-12)
            assert np.abs(sol.u.values - ref.u.values).max() <= 1e-6 * np.abs(ref.u.values).max()

    @pytest.mark.parametrize("alpha, q", [(0.5, 3.0), (2.0, 4.0)])
    def test_masked_newton_converges_where_descent_stalls(self, alpha, q):
        # on this ball the descent alone stalls near 4e-6; no descent reference
        # exists, so the witnesses are the Nehari identity, positivity and the
        # energy of a tighter solve
        dom = ball_domain(16, 0.9)
        sol = solve_ground_state(dom, q, alpha, 1e-6)
        assert sol.gradient_norm <= 1e-6 and sol.newton_steps > 0
        assert sol.nehari_residual <= 1e-12 * sol.energy
        assert float(sol.u.values.min()) >= 0.0
        tight = solve_ground_state(dom, q, alpha, 1e-8)
        assert sol.energy == pytest.approx(tight.energy, rel=1e-12)

    def test_newton_finish_converges_where_descent_stalls(self):
        # at alpha = 0.5, q = 3 the descent alone stalls near 2.8e-4
        alpha = 0.5
        dom = Domain.cube(1.0, 16)
        q = 3.0
        with pytest.raises(IterationError):
            descent_alone(dom, q, alpha, 1e-6)
        sol = solve_ground_state(dom, q, alpha, 1e-6)
        assert sol.gradient_norm <= 1e-6
        assert sol.newton_steps > 0 and sol.minres_iterations >= sol.newton_steps
        assert sol.nehari_residual <= 1e-12 * sol.energy
        assert float(sol.u.values.min()) >= 0.0

    @pytest.mark.parametrize(
        "alpha, q", [(a, q) for a in (0.5, 1.0, 2.0) for q in (3.0, 4.0, 5.0) if (a, q) != (0.5, 3.0)]
    )
    def test_newton_finish_matches_descent(self, alpha, q):
        dom = Domain.cube(1.0, 16)
        sol = solve_ground_state(dom, q, alpha, 1e-6)
        ref = descent_alone(dom, q, alpha, 1e-6)
        assert sol.newton_steps > 0
        assert ref.newton_steps == ref.minres_iterations == 0
        assert sol.energy == pytest.approx(ref.energy, rel=1e-12)
        assert np.abs(sol.u.values - ref.u.values).max() <= 1e-6 * np.abs(ref.u.values).max()
        assert sol.nehari_residual <= 1e-12 * sol.energy
        assert sol.gradient_norm <= 1e-6

    def test_line_search_quadratic_matches_direct_form(self):
        bbox = np.array([(-1.0, 1.2), (-0.8, 0.9), (-1.3, 1.1)])
        rng = np.random.default_rng(12)
        holed = rng.uniform(size=(12, 16, 10)) < 0.9
        holed[4:7, 6:9, 4:7] = True  # around the origin cell
        for mask in (None, holed):
            dom = Domain(bbox, (12, 16, 10), mask=mask)
            op = GrushinOperator(dom, 0.5)
            u = np.where(dom.active(), rng.standard_normal(dom.dims), 0.0)
            d = np.where(dom.active(), rng.standard_normal(dom.dims), 0.0)
            a0, a1, a2 = _line_quadratic(op(u), op(d), u, d, dom.cell_volume)
            for tau in (4.0, 1.0, 0.3, 2.0**-15):
                assert a0 + tau * (a1 + tau * a2) == pytest.approx(op.quadratic_form(u + tau * d), rel=1e-12)

    def test_rejects_bad_exponents(self):
        dom = Domain.cube(1.0, 8)
        for q in (2.0, 6.0, 7.0):
            with pytest.raises(DomainError):
                solve_ground_state(dom, q, ALPHA)

    def test_zero_initial_guess_degenerate(self):
        dom = Domain.cube(1.0, 8)
        with pytest.raises(DegeneracyError):
            solve_ground_state(dom, 4.0, ALPHA, initial=np.zeros(dom.dims))


class TestMinres:
    @pytest.mark.parametrize("masked", [False, True])
    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
    def test_matches_scipy(self, alpha, masked):
        # the Jacobian system of _newton_step at an n = 16 ground-state iterate
        from scipy.sparse.linalg import LinearOperator, minres

        dom = ball_domain(16, 0.9) if masked else Domain.cube(1.0, 16)
        q = 4.0
        u = solve_ground_state(dom, q, alpha, 1e-3).u.values
        prob = Problem(dom, alpha, q)
        Au, fu, _ = prob.evaluate(u)
        rhs = fu - Au
        fprime = (q - 1.0) * prob.op.weight2d[:, :, None] * np.abs(u) ** (q - 2.0)

        def jacobian(x):
            return prob.op(x) - fprime * x

        x, iters = _minres(jacobian, prob.op._precondition, rhs)
        size, dims = rhs.size, dom.dims
        calls = []
        ref, info = minres(
            LinearOperator((size, size), matvec=lambda v: jacobian(v.reshape(dims)).ravel(), dtype=float),
            rhs.ravel(),
            rtol=1e-3,
            maxiter=50,
            M=LinearOperator((size, size), matvec=lambda v: prob.op._precondition(v.reshape(dims)).ravel(), dtype=float),
            callback=calls.append,
        )
        assert info == 0 and iters == len(calls) > 1
        assert np.linalg.norm(x.ravel() - ref) <= 1e-10 * np.linalg.norm(ref)

    def test_zero_rhs(self):
        op = GrushinOperator(Domain.cube(1.0, 8), ALPHA)
        x, iters = _minres(op, op._precondition, np.zeros(op.domain.dims))
        assert iters == 0 and np.all(x == 0.0)


POINCARE_DOMAINS = {
    "cube": lambda: Domain.cube(1.0, 24),
    "slab": lambda: Domain(np.array([(-1.0, 1.0), (-0.8, 0.8), (-1.3, 1.3)]), (24, 24, 24)),
    "tall": lambda: Domain(np.array([(-0.7, 0.7), (-0.7, 0.7), (-1.5, 1.5)]), (24, 24, 24)),
    "ball": lambda: ball_domain(24),
}


def lanczos_lambda1(domain, alpha):
    """Smallest eigenvalue of the stencil on the active cells by ARPACK
    Lanczos, without preconditioner or shift: the reference for LOBPCG."""
    from scipy.sparse.linalg import LinearOperator, eigsh

    op = GrushinOperator(domain, alpha)
    act = domain.active()
    size = int(act.sum())

    def apply(x):
        u = np.zeros(domain.dims)
        u[act] = x.ravel()
        return op(u)[act]

    A = LinearOperator((size, size), matvec=apply, dtype=float)
    return float(eigsh(A, k=1, which="SA", tol=1e-13, v0=np.ones(size), ncv=40, maxiter=100_000)[0][0])


class TestPoincare:
    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("name", sorted(POINCARE_DOMAINS))
    def test_matches_lanczos(self, name, alpha):
        dom = POINCARE_DOMAINS[name]()
        assert poincare_constant(dom, alpha) == pytest.approx(lanczos_lambda1(dom, alpha), rel=1e-9)

    def test_deterministic(self):
        dom = ball_domain(16)
        assert repr(poincare_constant(dom, 2.0)) == repr(poincare_constant(dom, 2.0))

    def test_iteration_limit(self, monkeypatch):
        monkeypatch.setattr(grushin3d.solver, "_LOBPCG_MAX_ITER", 1)
        with pytest.raises(IterationError) as info:
            poincare_constant(ball_domain(16), ALPHA)
        assert math.isfinite(info.value.last_residual) and info.value.last_residual > 1e-9

    def test_without_search_direction(self, monkeypatch):
        # a Gram limit of 1 drops p at every step: preconditioned steepest
        # descent, slower but converging to the same eigenvalue
        dom = ball_domain(16)
        ref = poincare_constant(dom, ALPHA)
        monkeypatch.setattr(grushin3d.solver, "_GRAM_COND_LIMIT", 1.0)
        assert poincare_constant(dom, ALPHA) == pytest.approx(ref, rel=1e-9)

    def test_operator_applications(self, monkeypatch):
        calls = []
        apply = GrushinOperator.__call__

        def counting(self, u):
            calls.append(None)
            return apply(self, u)

        monkeypatch.setattr(GrushinOperator, "__call__", counting)
        poincare_constant(ball_domain(32), ALPHA)
        assert 0 < len(calls) <= 100

    def test_positive_and_domain_monotone(self):
        lam1 = poincare_constant(Domain.cube(1.0, 16), ALPHA)
        lam2 = poincare_constant(Domain.cube(2.0, 16), ALPHA)
        assert lam1 > 0 and lam2 > 0
        assert lam2 < lam1

    def test_resolution_stability(self):
        lam_a = poincare_constant(Domain.cube(1.0, 24), ALPHA)
        lam_b = poincare_constant(Domain.cube(1.0, 36), ALPHA)
        assert lam_b == pytest.approx(lam_a, rel=1e-2)


def run_with_blas_threads(threads, args):
    """stdout of ``python args`` in a fresh process whose BLAS may use
    ``threads`` threads."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(grushin3d.__file__)))
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True, check=True)
    return done.stdout


class TestBlasThreadCount:
    """The solve path makes no threaded BLAS reduction, so its numbers do
    not depend on how many threads the BLAS may use."""

    @pytest.mark.parametrize(
        "args",
        [
            ["solve", "--alpha", "1", "--q", "4", "--grid", "24"],
            ["pohozaev", "--p", "3", "--alpha", "1", "--solve", "--grid", "24"],
        ],
    )
    def test_cli_reports(self, args):
        reports = [json.loads(run_with_blas_threads(t, ["-m", "grushin3d.cli", *args])) for t in (1, 2)]
        kept = [json.dumps({k: r[k] for k in ("results", "checks")}, sort_keys=True) for r in reports]
        assert kept[0] == kept[1]

    def test_poincare_constant(self):
        code = (
            "from grushin3d.solver import Domain, poincare_constant\n"
            "box = Domain.cube(1.0, 32)\n"
            "X1, X2, Y = box.centers()\n"
            "ball = Domain(box.bbox, box.dims, X1**2 + X2**2 + Y**2 < 0.95**2)\n"
            "print(repr(poincare_constant(ball, 1.0)))"
        )
        assert run_with_blas_threads(1, ["-c", code]) == run_with_blas_threads(2, ["-c", code])


def critical_ratios(dom, fields):
    """L_w(alpha) ||u||_{L6_w} / ||grad_G u|| per field, with the stencil's
    own gradient: the critical embedding bounds each by 1."""
    prob = Problem(dom, ALPHA, 6.0)
    L = sobolev_lower_bound(ALPHA)
    us = [f.values for f in fields]
    return np.array([prob.power_term(u) ** (1.0 / 6.0) * L / math.sqrt(prob.op.quadratic_form(u)) for u in us])


class TestEmbedding:
    def test_critical_exponent_no_violations(self):
        dom = Domain.cube(1.0, 32)
        fields = random_bump_corpus(8, resolution=32)
        assert np.all(critical_ratios(dom, fields) <= 1.02)

    def test_truncated_extremal_has_smallest_margin(self):
        # the near-extremal profile sits closest to the critical bound
        from grushin3d.rearrangement import anisotropic_radius

        dom = Domain.cube(1.0, 32)
        X1, X2, Y = dom.centers()
        r = anisotropic_radius(X1, X2, Y, ALPHA)
        shift = (1 + 4 * 1.0) ** -0.5  # truncation radius 1 fits in the cube
        extremal = dom.grid_function(np.maximum((1 + 4 * r * r) ** -0.5 - shift, 0.0))
        ratios = critical_ratios(dom, random_bump_corpus(6, resolution=32) + [extremal])
        assert np.all(ratios <= 1.02)
        assert ratios[-1] == ratios.max()
