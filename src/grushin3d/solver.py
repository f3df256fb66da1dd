"""Finite-difference machinery for the degenerate Dirichlet problem

    -Delta_x u - |x|^{2a} u_yy = f(x, y, u)   in Omega,   u = 0 on bd(Omega).

Discretisation: uniform cell-centred grid, 7-point stencil; the second
y-difference is scaled by |x|^{2a} evaluated at cell centres (grid counts
in x1, x2 are kept even so centres never sit on the degeneracy line x = 0).
Dirichlet data is imposed at cell faces through odd-reflection ghosts
(ghost = -u_inner): each ghost adds one more 1/h^2 (times |x|^{2a} along
y) to the diagonal D, built once per operator, so A u is D u minus the
couplings to active neighbours.  That keeps the operator symmetric
positive definite and the scheme second order in L2; plain ghost-centre
zeros would shift the boundary by h/2 and drop to first order.

The domain is a ``Domain``, whose cell geometry (spacing, centres, active
mask, the weight |x|^{2a} at the centres) is the shared ``CellGrid`` of
the grids module.  A ``Problem`` ties a domain, alpha and the exponent q
of the power nonlinearity f(x, y, u) = |x|^{2a} |u|^{q-2} u together,
builds the stencil operator A once, and holds the discrete algebra of (P):
the energy functional

    Phi(u) = 1/2 <A u, u> dV - sum F(x, y, u) dV,   F = |x|^{2a} |u|^q / q,

its sum of |x|^{2a} |u|^q dV taken by ``CellGrid.power_integral``, its
gradient A u - f(., u) (the exact derivative of the discrete energy) and
the Nehari scaling.  Ground states are computed by preconditioned descent
on the Nehari manifold: move toward A^{-1} f(u), line-search on Phi,
rescale so <Phi'(u), u> = 0.  The descent converges
only linearly, so it is finished by Newton steps on A u - f(u) = 0, each
solved by MINRES (the Jacobian A - f'(u) is indefinite at a mountain-pass
point) and projected back onto the Nehari set: the descent-then-Newton
split of Choi & McKenna.  The descent alone (every Newton try rejected)
is the reference the Newton finish is tested against.  The solver loop
uses the same ``Problem`` methods, so its reported residual is
``norm(gradient(u))``, the L2 norm of the gradient.

Linear systems are solved by conjugate gradients, preconditioned with the
exact inverse of the box operator whose weight is replaced by the separable
|x1|^{2a} + |x2|^{2a}: a DST-II in y and two tridiagonal eigenbases per
y-mode (the fast direct solver of Buzbee, Golub & Nielsen, used as a
preconditioner as in Concus & Golub).  Because (s + t)^a lies within a
factor 2^{|a-1|} of s^a + t^a, the preconditioned condition number on a box
is at most 2^{|a-1|}, independent of the grid; at a = 1 the preconditioner
is A^{-1}.  On a mask the box solver is restricted to the active cells,
z = P M^{-1} P r, and is the identity on inactive ones, which keeps it SPD.
MINRES and LOBPCG use the same preconditioner.  Both are written here and
take every inner product as a numpy pairwise sum (``_dot``), like CG, so no
long reduction goes to a threaded BLAS and the results do not depend on the
BLAS thread count.  LOBPCG's 3x3 Rayleigh-Ritz problem is reduced by a numpy
Cholesky factor, so scipy supplies only the DST and ``eigh_tridiagonal``.
The three iterations update their vectors in place and the stencil builds
no padded copy of its input, with the arithmetic of the copying forms, so
each result keeps its bits.  Tests check the stencil against the padded
form bit for bit and against a sparse matrix assembled entry by entry, CG
against a sparse direct solve, MINRES against scipy's, and the Poincare
constant lambda_1 (the smallest eigenvalue, from LOBPCG with block size 1
on the active cells, Knyazev 2001) against ARPACK Lanczos.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from scipy.fft import dst, idst
from scipy.linalg import eigh_tridiagonal

from .errors import DegeneracyError, DomainError, IterationError
from .geometry import _alpha
from .grids import CellGrid, GridFunction3D, check_grid
from .pohozaev import DEFAULT_GROUND_STATE_TOL


@dataclass(frozen=True)
class Domain(CellGrid):
    """Axis-aligned box (optionally masked) containing the origin strictly.

    ``mask`` selects active cells; None means the full box.  Dirichlet data
    lives on the faces between active and inactive/outside cells.  The cell
    geometry is ``CellGrid``'s; a domain adds the solver's rules: the origin
    strictly inside, even x1/x2 counts, finite couplings 1/h^2 and an active
    origin cell.  Like every grid it has at most ``grids.MAX_CELLS`` cells,
    checked before any field is allocated.
    """

    bbox: np.ndarray  # (3, 2)
    dims: tuple[int, int, int]
    mask: Optional[np.ndarray] = None

    def __post_init__(self):
        for name, value in zip(("bbox", "dims", "mask"), check_grid(self.bbox, self.dims, self.mask)):
            object.__setattr__(self, name, value)
        bbox = self.bbox
        if not (np.all(bbox[:, 0] < 0) and np.all(bbox[:, 1] > 0)):
            raise DomainError("domain must contain the origin strictly inside")
        if self.dims[0] % 2 or self.dims[1] % 2:
            raise DomainError("dims in x1 and x2 must be even (centres off the y-axis)")
        with np.errstate(over="ignore", divide="ignore", under="ignore"):
            if not np.all(np.isfinite(1.0 / self.spacing**2)):
                raise DomainError(f"cell spacing {float(self.spacing.min())!r} is too small: 1/h^2 is not finite")
        if self.mask is not None:
            ctr = np.floor((0 - bbox[:, 0]) / self.spacing).astype(int)
            if not self.mask[tuple(ctr)]:
                raise DomainError("origin cell must be active")

    def grid_function(self, values) -> GridFunction3D:
        return GridFunction3D(self.bbox, values, self.mask)

    @classmethod
    def cube(cls, half_width: float, n: int) -> "Domain":
        b = float(half_width)
        return cls(np.array([(-b, b)] * 3), (n, n, n))


def _dirichlet_faces(active: np.ndarray, axis: int) -> np.ndarray:
    """How many of each cell's two faces along ``axis`` are Dirichlet faces
    (0, 1 or 2): faces whose neighbour is outside the box or inactive."""
    pad = [(0, 0)] * active.ndim
    pad[axis] = (1, 1)
    outside = np.moveaxis(~np.pad(active, pad), axis, 0)
    return np.moveaxis(outside[:-2].astype(np.int8) + outside[2:], 0, axis)


def _dirichlet_spectrum(n: int, h: float, k):
    """Eigenvalues 4 sin^2(pi k / 2n) / h^2, k = 1..n, of the second
    difference on n cells of width h with a Dirichlet face at both ends."""
    return 4.0 * np.sin(np.pi * k / (2 * n)) ** 2 / h**2


def _neighbour_sum(u: np.ndarray, axis: int, out: np.ndarray) -> None:
    """out = u[i - 1] + u[i + 1] along ``axis``, a neighbour outside the box
    counting as 0: the sum of a zero-padded copy of u, bit for bit, since
    the edge cells take 0 + u (which turns -0 into +0) and not a bare copy."""
    if u.shape[axis] == 1:
        out.fill(0.0)
        return
    lead = (slice(None),) * axis
    np.add(u[lead + (slice(None, -2),)], u[lead + (slice(2, None),)], out=out[lead + (slice(1, -1),)])
    np.add(0.0, u[lead + (slice(1, 2),)], out=out[lead + (slice(None, 1),)])
    np.add(u[lead + (slice(-2, -1),)], 0.0, out=out[lead + (slice(-1, None),)])


class GrushinOperator:
    """Matrix-free SPD stencil for -Delta_x - |x|^{2a} d2/dy2 with Dirichlet faces."""

    def __init__(self, domain: Domain, alpha):
        self.domain = domain
        self.alpha = _alpha(alpha)
        self.weight2d = domain.weight2d(self.alpha)
        self._mask = domain.mask
        self._inactive = None if domain.mask is None else ~domain.mask
        self._box_basis = None
        h = domain.spacing
        # neighbour couplings 1/h^2 (times |x|^{2a} along y); D holds two per axis and one per ghost
        self._coupling = (1.0 / h[0] ** 2, 1.0 / h[1] ** 2, self.weight2d[:, :, None] / h[2] ** 2)
        active = domain.active()
        self._diagonal = sum(c * (2 + _dirichlet_faces(active, axis)) for axis, c in enumerate(self._coupling))

    def __call__(self, u: np.ndarray) -> np.ndarray:
        """A u = D u minus the neighbour couplings; inactive cells read and return 0."""
        if self._mask is not None:
            u = np.where(self._mask, u, 0.0)
        out = self._diagonal * u
        nsum = np.empty_like(out)
        for axis, c in enumerate(self._coupling):
            _neighbour_sum(u, axis, nsum)
            nsum *= c
            out -= nsum
        if self._inactive is not None:
            np.copyto(out, 0.0, where=self._inactive)
        return out

    def quadratic_form(self, u: np.ndarray) -> float:
        return _dot(u, self(u)) * self.domain.cell_volume

    def _precondition(self, r: np.ndarray) -> np.ndarray:
        """Solve the box system whose weight |x|^{2a} is replaced by
        |x1|^{2a} + |x2|^{2a}: the SPD preconditioner of CG, MINRES and
        LOBPCG.  On a mask it is P M^{-1} P r on active cells and r on
        inactive ones.

        The odd-reflection y-difference is diagonalised by the DST-II: mode
        k = 1..n3 has eigenvalue mu_k = 4 sin^2(pi k / 2 n3) / h3^2.  Per
        mode the separable weight splits the 2D system into
        (T1 + mu_k |x1|^{2a}) (x) I + I (x) (T2 + mu_k |x2|^{2a}), solved in
        the eigenbases of the two tridiagonal factors.
        """
        if self._box_basis is None:
            self._box_basis = self._build_box_basis()
        V1, V2, inv = self._box_basis
        g = r if self._mask is None else np.where(self._mask, r, 0.0)
        g = dst(g, type=2, axis=2, norm="ortho").transpose(2, 0, 1)
        g = V1.transpose(0, 2, 1) @ g @ V2
        g *= inv
        g = V1 @ g @ V2.transpose(0, 2, 1)
        z = idst(g.transpose(1, 2, 0), type=2, axis=2, norm="ortho")
        if self._inactive is not None:
            np.copyto(z, r, where=self._inactive)
        return z

    def _build_box_basis(self):
        """Per y-mode eigenbases of the x1 and x2 factors and the inverse
        eigenvalue sums: n3 (n1^2 + n2^2 + n1 n2) floats."""
        n3 = self.domain.dims[2]
        h = self.domain.spacing
        mu = _dirichlet_spectrum(n3, h[2], np.arange(1, n3 + 1))
        lams, vecs = [], []
        for axis in (0, 1):
            n = self.domain.dims[axis]
            wx = np.abs(self.domain.axis_centers(axis)) ** (2.0 * self.alpha)
            diag = (2 + _dirichlet_faces(np.ones(n, dtype=bool), 0)) / h[axis] ** 2
            off = np.full(n - 1, -1.0 / h[axis] ** 2)
            lam, V = np.empty((n3, n)), np.empty((n3, n, n))
            for k in range(n3):
                lam[k], V[k] = eigh_tridiagonal(diag + mu[k] * wx, off)
            lams.append(lam)
            vecs.append(V)
        inv = 1.0 / (lams[0][:, :, None] + lams[1][:, None, :])
        return vecs[0], vecs[1], inv


# limits and shape of the CG, MINRES and ground-state iterations; only the CG
# and outer tolerances are arguments, since no caller sets any of these to
# another value
_CG_TOL = 1e-10
_CG_MAX_ITER = 8000
_OUTER_MAX_ITER = 400
_LINE_SEARCH_START = 4.0
_LINE_SEARCH_HALVINGS = 16
_INITIAL_WIDTH = 0.25  # Gaussian start, in units of the box's smallest half-width
_COLLAPSE_THRESHOLD = 1e-12
_MINRES_RTOL = 1e-3
_MINRES_MAX_ITER = 50


def _check_tol(tol):
    # written so that NaN fails too: every comparison with NaN is false
    if not 0.0 < tol < math.inf:
        raise DomainError(f"tolerance must be positive and finite, got {tol}")


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    """<a, b> as numpy's pairwise sum: one thread, the same bits whatever
    the BLAS thread count, unlike a BLAS ddot that splits long vectors."""
    return float(np.add.reduce(a * b, axis=None))


def linear_solve(op: GrushinOperator, rhs: np.ndarray, tol: float = _CG_TOL, x0=None):
    """Conjugate gradients on the SPD stencil, preconditioned with the box
    solver (restricted to the mask on a masked domain); stops once the
    residual is at most ``tol`` times ||rhs||.  Breakdown (a non-positive
    curvature or a non-finite reduction) raises IterationError at once
    instead of iterating on NaNs.
    """
    _check_tol(tol)
    mask = op.domain.mask
    b = rhs if mask is None else np.where(mask, rhs, 0.0)
    bnorm = math.sqrt(_dot(b, b))
    if bnorm == 0.0:
        return np.zeros_like(b)
    if not math.isfinite(bnorm):
        raise IterationError("CG right-hand side is not finite", last_residual=bnorm)
    if x0 is None:
        x, r = np.zeros_like(b), b.copy()  # op(0) == 0 exactly
    else:
        x = x0.copy()
        r = b - op(x)
    rs = _dot(r, r)
    if math.sqrt(rs) <= tol * bnorm:
        return x
    z = op._precondition(r)
    rz = _dot(r, z)
    p, step = z, np.empty_like(b)  # z is a fresh array each step; step holds alpha_k p and alpha_k A p
    for _ in range(_CG_MAX_ITER):
        # comparisons with NaN are false, so these also catch non-finite values
        if not 0.0 < rz < math.inf:
            raise IterationError(f"CG broke down: <r, z> = {rz!r}", last_residual=math.sqrt(rs) / bnorm)
        Ap = op(p)
        pAp = _dot(p, Ap)
        if not 0.0 < pAp < math.inf:
            raise IterationError(f"CG broke down: <p, A p> = {pAp!r}", last_residual=math.sqrt(rs) / bnorm)
        alpha_k = rz / pAp
        x += np.multiply(p, alpha_k, out=step)
        r -= np.multiply(Ap, alpha_k, out=step)
        rs = _dot(r, r)
        if math.sqrt(rs) <= tol * bnorm:
            return x
        z = op._precondition(r)
        rz_new = _dot(r, z)
        p *= rz_new / rz
        p += z
        rz = rz_new
    raise IterationError(
        f"CG did not reach {tol:g} in {_CG_MAX_ITER} iterations",
        last_residual=math.sqrt(rs) / bnorm,
    )


@dataclass(frozen=True)
class Problem:
    """Problem (P) on a domain with the power nonlinearity of exponent q:
    the stencil operator A, built once, and the discrete energy algebra on
    it.

    f(x, y, u) = w |u|^{q-2} u and F(x, y, u) = w |u|^q / q, with the weight
    w = |x|^{2a} = ``op.weight2d`` at the cell centres.  Integrals run over
    active cells with the cell volume dV; sum w |u|^q dV is ``power_term``,
    the domain's ``power_integral``.
    """

    domain: Domain
    alpha: float
    q: float
    op: GrushinOperator = field(init=False, repr=False)

    def __post_init__(self):
        q = float(self.q)
        # written so that NaN fails too
        if not 2.0 < q < math.inf:
            raise DomainError(f"power exponent needs 2 < q < inf, got q={q}")
        a = _alpha(self.alpha)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "alpha", a)
        object.__setattr__(self, "op", GrushinOperator(self.domain, a))

    def energy(self, u: np.ndarray) -> float:
        """Phi(u) = 1/2 <A u, u> dV - power_term(u) / q."""
        return 0.5 * self.op.quadratic_form(u) - self.power_term(u) / self.q

    def evaluate(self, u: np.ndarray):
        """(A u, f(., u), the L2 gradient density A u - f(., u)); the
        gradient is zero on inactive cells."""
        Au = self.op(u)
        fu = self.op.weight2d[:, :, None] * np.abs(u) ** (self.q - 2.0) * u
        g = Au - fu
        if self.op._inactive is not None:
            np.copyto(g, 0.0, where=self.op._inactive)
        return Au, fu, g

    def gradient(self, u: np.ndarray) -> np.ndarray:
        return self.evaluate(u)[2]

    def norm(self, v: np.ndarray) -> float:
        """Discrete L2 norm (sum v^2 dV)^{1/2}."""
        return math.sqrt(_dot(v, v) * self.domain.cell_volume)

    def power_term(self, u: np.ndarray) -> float:
        """sum |x|^{2a} |u|^q dV, the domain's ``power_integral``."""
        return self.domain.power_integral(u, self.q, self.alpha)

    def nehari_factor(self, a: float, b: float) -> float:
        """t with t v on the Nehari set, given a = <A v, v> dV and
        b = power_term(v): t = (a/b)^{1/(q-2)}."""
        return (a / b) ** (1.0 / (self.q - 2.0))


@dataclass
class SolutionReport:
    u: GridFunction3D
    energy: float
    gradient_norm: float
    nehari_residual: float
    iterations: int
    mountain_pass_level: float
    newton_steps: int
    minres_iterations: int


def _default_initial(domain: Domain) -> np.ndarray:
    X1, X2, Y = domain.centers(sparse=True)
    half = 0.5 * (domain.bbox[:, 1] - domain.bbox[:, 0])
    # off the degeneracy axis, well inside the boundary
    c = np.array([0.45 * half[0], 0.45 * half[1], 0.0])
    width = _INITIAL_WIDTH * float(half.min())
    return np.exp(-((X1 - c[0]) ** 2 + (X2 - c[1]) ** 2 + (Y - c[2]) ** 2) / (2 * width**2))


def solve_ground_state(
    domain: Domain,
    q: float,
    alpha,
    tol: float = DEFAULT_GROUND_STATE_TOL,
    initial: Optional[np.ndarray] = None,
) -> SolutionReport:
    """Nehari-projected preconditioned descent with a Newton finish, for the
    subcritical problem, run until the weak residual is at most ``tol``.

    f = |x|^{2a} |u|^{q-2} u with 2 < q < 6 (the compact embedding range).
    A descent step moves toward A^{-1} f(u), line-searches the energy along
    that direction (a halving ladder of step factors), and
    projects back onto the Nehari set; its line search keeps only candidates
    that lower the energy.  Each outer step first tries a Newton step
    (``_newton_step``) while the residual is at most a gate, which starts at
    the initial residual: it is kept when it halves the residual and stays
    in the positive cone, so Newton steps are guarded by the residual, not
    by the energy.  A rejected try sets the gate to a tenth of the residual,
    and that outer step descends instead from the same u, so with every
    try rejected the iterates are the descent's alone.  ``iterations``
    counts outer steps, Newton or descent.  Boxes and masked domains take
    the same path.
    """
    _check_tol(tol)
    if not 2.0 < q < 6.0:
        raise DomainError(f"subcritical existence run needs 2 < q < 6, got q={q}")
    prob = Problem(domain, alpha, q)
    op, b_term, q = prob.op, prob.power_term, prob.q
    vol = domain.cell_volume

    def nehari_factor(a, b):
        if b <= _COLLAPSE_THRESHOLD:
            raise DegeneracyError("iterate collapsed toward zero")
        return prob.nehari_factor(a, b)

    def evaluate(v):
        Av, fv, g = prob.evaluate(v)
        return Av, fv, prob.norm(g)

    u = initial.copy() if initial is not None else _default_initial(domain)
    if domain.mask is not None:
        u = np.where(domain.mask, u, 0.0)
    if float(np.max(np.abs(u))) <= 0:
        raise DegeneracyError("initial guess is identically zero")
    u = nehari_factor(op.quadratic_form(u), b_term(u)) * u
    Au, fu, residual = evaluate(u)
    sqrt_vol = math.sqrt(vol)
    gate = residual  # Newton is tried while residual <= gate
    newton_steps = minres_iterations = 0

    def inner_tol(f):
        # solve the inner system just accurately enough that CG error stays
        # two orders below the current outer residual (both measured in the
        # volume-weighted L2 norm)
        fnorm = math.sqrt(_dot(f, f)) * sqrt_vol
        rel = 0.01 * residual / fnorm if fnorm > 0 else 1e-6
        return float(np.clip(rel, _CG_TOL, 1e-6))

    it = 0
    for it in range(1, _OUTER_MAX_ITER + 1):
        if residual <= gate:
            cand, iters = _newton_step(prob, u, fu - Au)
            minres_iterations += iters
            # kept only if it stays in the positive cone and halves the residual
            if cand is not None and cand.min() >= 0:
                A_cand, f_cand, cand_res = evaluate(cand)
                if cand_res < 0.5 * residual:
                    u, Au, fu, residual = cand, A_cand, f_cand, cand_res
                    newton_steps += 1
                    if residual <= tol:
                        break
                    continue
            gate = residual / 10
        v = linear_solve(op, fu, inner_tol(fu), x0=u)
        d = v - u
        # <A(u + tau d), u + tau d> dV = a0 + tau (a1 + tau a2); A d comes
        # from the operator, not from f - A u, since inner solves are inexact
        a0, a1, a2 = _line_quadratic(Au, op(d), u, d, vol)
        phi0 = 0.5 * a0 - b_term(u) / q
        # walk the step ladder, keep the best candidate; the profile in tau
        # is close to unimodal, so stop after two consecutive non-improvements
        tau = _LINE_SEARCH_START
        best, best_phi, worse_streak = None, phi0 - 1e-14 * abs(phi0), 0
        for _ in range(_LINE_SEARCH_HALVINGS):
            cand = u + tau * d
            a, b = a0 + tau * (a1 + tau * a2), b_term(cand)
            t = nehari_factor(a, b)
            cand_phi = 0.5 * t * t * a - t**q * b / q
            if cand_phi < best_phi:
                best, best_phi, worse_streak = t * cand, cand_phi, 0
            else:
                worse_streak += 1
                if best is not None and worse_streak >= 2:
                    break
            tau *= 0.5
        if best is None:
            # energy differences are below float noise; fall back to the
            # plain fixed-point step as long as it reduces the residual
            cand = nehari_factor(a0 + a1 + a2, b_term(v)) * v
            A_cand, f_cand, cand_res = evaluate(cand)
            if cand_res < 0.999 * residual:
                u, Au, fu, residual = cand, A_cand, f_cand, cand_res
                if residual <= tol:
                    break
                continue
            break
        u = best
        Au, fu, residual = evaluate(u)
        if residual <= tol:
            break

    if prob.norm(u) <= _COLLAPSE_THRESHOLD:
        raise DegeneracyError("solver collapsed onto the trivial solution")
    if residual > tol:
        raise IterationError("ground-state iteration stalled", last_residual=residual)

    a = _dot(u, Au) * vol
    b = b_term(u)
    return SolutionReport(
        u=domain.grid_function(u),
        energy=0.5 * a - b / q,
        gradient_norm=residual,
        nehari_residual=abs(a - b),
        iterations=it,
        # max of Phi along t -> t u, attained at t = 1 on the Nehari set
        mountain_pass_level=(0.5 - 1.0 / q) * a,
        newton_steps=newton_steps,
        minres_iterations=minres_iterations,
    )


def _newton_step(prob: Problem, u: np.ndarray, rhs: np.ndarray):
    """One inexact Newton step on A u - f(u) = 0, projected back onto the
    Nehari set.

    Solves (A - f'(u)) delta = rhs = f(u) - A u, with
    f'(u) = (q - 1) |x|^{2a} |u|^{q-2}, by ``_minres``: the Jacobian is
    symmetric but indefinite at a mountain-pass point, so CG does not apply.
    MINRES is preconditioned with the operator's SPD box solver (restricted
    to the active cells on a mask) and stops at a relative residual of 1e-3
    or after 50 iterations.
    Returns (candidate, MINRES iterations); the candidate is None when
    u + delta has no finite, nonzero Nehari multiple.
    """
    op, q = prob.op, prob.q
    fprime = (q - 1.0) * op.weight2d[:, :, None] * np.abs(u) ** (q - 2.0)
    delta, iters = _minres(lambda x: op(x) - fprime * x, op._precondition, rhs)
    cand = u + delta
    a, b = op.quadratic_form(cand), prob.power_term(cand)
    # written so that NaN fails too
    if not (0.0 < a < math.inf and 0.0 < b < math.inf):
        return None, iters
    return prob.nehari_factor(a, b) * cand, iters


def _minres(apply, precondition, b):
    """Preconditioned MINRES (Paige & Saunders 1975) for the symmetric,
    possibly indefinite system apply(x) = b, from x = 0.

    The recurrences and stopping tests are those of scipy 1.17's
    ``scipy.sparse.linalg.minres`` without shift, at rtol = 1e-3 and at most
    50 iterations; the inner products and norms reduce with ``_dot``.
    ``precondition`` must be SPD.  Returns (x, iterations).
    """
    eps = np.finfo(float).eps
    x = np.zeros_like(b)
    r1 = b
    y = precondition(r1)
    beta1 = _dot(r1, y)
    if beta1 < 0:
        raise IterationError("MINRES preconditioner is not positive definite")
    if beta1 == 0:
        return x, 0
    beta1 = math.sqrt(beta1)

    oldb, beta, dbar, epsln, phibar = 0.0, beta1, 0.0, 0.0, beta1
    tnorm2, gmax, gmin = 0.0, 0.0, np.finfo(float).max
    cs, sn = -1.0, 0.0
    # w1 only lends its buffer to the first update of w; v and tmp are
    # scratch, so the vectors below are updated in place, in scipy's order
    w1, w2, w = np.empty_like(b), np.zeros_like(b), np.zeros_like(b)
    v, tmp = np.empty_like(b), np.empty_like(b)
    r2 = r1
    for itn in range(1, _MINRES_MAX_ITER + 1):
        # Lanczos step: v_k and the next preconditioned vector
        np.multiply(y, 1.0 / beta, out=v)
        y = apply(v)
        if itn >= 2:
            y -= np.multiply(r1, beta / oldb, out=tmp)
        alfa = _dot(v, y)
        y -= np.multiply(r2, alfa / beta, out=tmp)
        r1, r2 = r2, y
        y = precondition(r2)
        oldb, beta = beta, _dot(r2, y)
        if beta < 0:
            raise IterationError("MINRES preconditioner is not positive definite")
        beta = math.sqrt(beta)
        tnorm2 += alfa**2 + oldb**2 + beta**2

        # apply the previous rotation, then compute the next one
        oldeps = epsln
        delta = cs * dbar + sn * alfa
        gbar = sn * dbar - cs * alfa
        epsln = sn * beta
        dbar = -cs * beta
        root = math.sqrt(gbar * gbar + dbar * dbar)
        gamma = max(math.sqrt(gbar * gbar + beta * beta), eps)
        cs, sn = gbar / gamma, beta / gamma
        phi, phibar = cs * phibar, sn * phibar

        # w = (v - oldeps w1 - delta w2) / gamma in the buffer of the old w1
        w1, w2, w = w2, w, w1
        np.subtract(v, np.multiply(w1, oldeps, out=w), out=w)
        w -= np.multiply(w2, delta, out=tmp)
        w *= 1.0 / gamma
        x += np.multiply(w, phi, out=tmp)

        gmax, gmin = max(gmax, gamma), min(gmin, gamma)
        anorm = math.sqrt(tnorm2)  # > 0: tnorm2 includes beta1^2
        ynorm = math.sqrt(_dot(x, x))
        # scipy's tests: b is an eigenvector (first step only), ||r|| / (||A|| ||x||)
        # or ||A r|| / (||A|| ||r||) at most rtol, cond(A) near 1/eps, or x so
        # large that ||A|| ||x|| eps reaches ||b||
        if (
            (itn == 1 and beta / beta1 <= 10 * eps)
            or (ynorm > 0 and phibar / (anorm * ynorm) <= _MINRES_RTOL)
            or root / anorm <= _MINRES_RTOL
            or gmax / gmin >= 0.1 / eps
            or anorm * ynorm * eps >= beta1
        ):
            break
    return x, itn


def _line_quadratic(Au, Ad, u, d, vol):
    """(a0, a1, a2) with <A(u + tau d), u + tau d> dV = a0 + a1 tau + a2 tau^2."""
    return _dot(u, Au) * vol, 2.0 * _dot(d, Au) * vol, _dot(d, Ad) * vol


# LOBPCG steps of poincare_constant; each applies the operator once
_LOBPCG_MAX_ITER = 200


def poincare_constant(domain: Domain, alpha) -> float:
    """Smallest eigenvalue lambda_1 of the discrete operator, the constant of
    ||u||_L2 <= lambda_1^{-1/2} ||grad_G u||.

    ``_lobpcg`` on the active cells, preconditioned with the operator's box
    solver (restricted to the mask, P M^{-1} P, on a masked domain) and
    started from the ones vector, so runs are deterministic.  It stops once
    ||A x - lambda x|| <= 1e-9 lambda ||x||: its absolute tolerance is 1e-9
    times the lowest -Delta_x eigenvalue of the bounding box, a lower bound
    of lambda_1 for every mask.  Raises IterationError when
    ``_LOBPCG_MAX_ITER`` steps do not get there.
    """
    op = GrushinOperator(domain, alpha)
    h, n = domain.spacing, domain.dims
    lower = sum(_dirichlet_spectrum(n[i], h[i], 1) for i in (0, 1))
    lam, x = _lobpcg(op, domain.active().astype(float), 1e-9 * lower)
    r = op(x) - lam * x
    rel = math.sqrt(_dot(r, r) / _dot(x, x)) / abs(lam)
    # written so that NaN fails too
    if not rel <= 1e-9:
        raise IterationError(f"LOBPCG did not converge in {_LOBPCG_MAX_ITER} iterations", last_residual=rel)
    return lam


# a Rayleigh-Ritz basis whose Gram matrix has a larger condition number drops
# its search direction p
_GRAM_COND_LIMIT = 1e10


def _lobpcg(op: GrushinOperator, x: np.ndarray, tol: float):
    """LOBPCG with block size 1 (Knyazev 2001) for the smallest eigenpair of
    ``op``, preconditioned with ``op._precondition``, from ``x``.

    Each step applies the operator once, to w = M r, and runs Rayleigh-Ritz
    on span{x, w, p}: the symmetric 3x3 Gram and stiffness matrices from
    the ``_dot`` products of their upper triangles, and the generalised
    eigenproblem by ``_ritz_pairs``.  A x and A p are carried along as the
    same combinations.  Stops when the residual of the unit vector x is at
    most ``tol`` or after ``_LOBPCG_MAX_ITER`` steps.  Returns (lambda, x),
    with ||x|| = 1.
    """
    x = x / math.sqrt(_dot(x, x))
    ax = op(x)
    lam = _dot(x, ax)
    p = ap = None
    for _ in range(_LOBPCG_MAX_ITER):
        r = np.multiply(x, lam)
        np.subtract(ax, r, out=r)
        if math.sqrt(_dot(r, r)) <= tol:
            break
        w = op._precondition(r)
        # r, and w and A w below, are dropped as soon as they are used, and
        # every vector is updated in place: this sets the peak memory
        del r
        w /= math.sqrt(_dot(w, w))
        aw = op(w)
        basis, images = [x, w], [ax, aw]
        if p is not None:
            basis.append(p)
            images.append(ap)
        gram = _symmetric_products(basis, basis)
        if len(basis) == 3 and np.linalg.cond(gram) > _GRAM_COND_LIMIT:
            del basis[2], images[2]
            gram = gram[:2, :2]
        vals, vecs = _ritz_pairs(_symmetric_products(basis, images), gram)
        c = vecs[:, 0]
        # the new direction p = c1 w + c2 p is the step away from x; x takes it
        w *= c[1]
        aw *= c[1]
        if len(c) == 3:
            p *= c[2]
            p += w
            ap *= c[2]
            ap += aw
        else:
            p, ap = w, aw
        del w, aw, basis, images
        x *= c[0]
        x += p
        ax *= c[0]
        ax += ap
        scale = 1.0 / math.sqrt(_dot(x, x))
        x *= scale
        ax *= scale
        scale = 1.0 / math.sqrt(_dot(p, p))
        p *= scale
        ap *= scale
        lam = float(vals[0])
    return lam, x


def _symmetric_products(vectors, images) -> np.ndarray:
    """The symmetric matrix m[i, j] = <vectors[i], images[j]>, with the
    products of its upper triangle (i <= j) mirrored below the diagonal."""
    k = len(vectors)
    m = np.empty((k, k))
    for i in range(k):
        for j in range(i, k):
            m[i, j] = m[j, i] = _dot(vectors[i], images[j])
    return m


def _ritz_pairs(a: np.ndarray, b: np.ndarray):
    """Eigenpairs of the small generalised problem a c = theta b c, a
    symmetric and b SPD, by Cholesky reduction: with b = L L^T, theta and
    L^T c are the eigenpairs of L^{-1} a L^{-T}.  Returns (theta ascending,
    C) with C^T b C = I; raises ``np.linalg.LinAlgError`` when b is not
    positive definite.
    """
    linv = np.linalg.inv(np.linalg.cholesky(b))
    vals, vecs = np.linalg.eigh(linv @ a @ linv.T)
    return vals, linv.T @ vecs
