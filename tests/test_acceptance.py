"""Acceptance gate: one test per criterion, at the stated tolerances.

Each test prints a single PASS/FAIL line (visible with pytest -s or in the
captured output of failures).  Heavy artifacts (ground states) are shared
through session fixtures.
"""

import math
import time

import numpy as np
from scipy.integrate import quad

from grushin3d import (
    isoperimetric_deficit,
    measure,
    reference_quotient,
    sector_count,
)
from grushin3d.fields import cosine_bump, radial_field, random_bump_corpus
from grushin3d.geometry import anisotropic_scale
from grushin3d.pohozaev import (
    nonexistence_classify,
    pohozaev_coefficient,
    pohozaev_residual,
)
from grushin3d.rearrangement import (
    distribution_function,
    grushin_energy,
    polya_szego_gap,
    rearrange,
    weighted_lq_norm,
)
from grushin3d.shapes import ball_sector, corpus_shapes, ellipsoid
from grushin3d.sobolev import (
    SectorExtremalFamily,
    rayleigh_quotient,
    scaling_exponent,
    sobolev_lower_bound,
    talenti_constant_general,
)
from grushin3d.solver import (
    Domain,
    GrushinOperator,
    Problem,
    linear_solve,
    poincare_constant,
)

ALPHAS = (0.5, 1.0, 2.0)
CLOSED_FORM = math.sqrt(3.0) * (math.pi / 16.0) ** (1.0 / 3.0)


def report(number, name, ok, detail):
    print(f"[criterion {number:02d}] {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {number}: {name} failed ({detail})"


def test_criterion_01_talenti_radial_constant():
    t0 = time.perf_counter()
    vals = [talenti_constant_general(a, b) for a in (0.5, 1.0, 2.0) for b in (0.5, 1.0, 2.0)]
    elapsed = time.perf_counter() - t0
    spread = max(vals) - min(vals)
    err = max(abs(v - CLOSED_FORM) for v in vals)
    ok = spread <= 1e-5 and err <= 1e-9 and elapsed < 1.0
    report(1, "talenti radial constant", ok, f"spread={spread:.2e} err={err:.2e} t={elapsed:.2f}s")


def test_criterion_02_sobolev_lower_bound_vs_grid():
    details = []
    ok = True
    for alpha in ALPHAS:
        L = sobolev_lower_bound(alpha)
        u = SectorExtremalFamily(alpha, 128)(4.0)
        q = rayleigh_quotient(u, 6, alpha).quotient
        rel = abs(q - L) / L
        ok &= rel <= 0.03
        details.append(f"a={alpha}: |{q:.4f}-{L:.4f}|/L={rel:.2%}")
    report(2, "lower bound vs grid Rayleigh quotient", ok, "; ".join(details))


def test_criterion_03_isoperimetric_sweep():
    m = 192
    worst = math.inf
    ref_gap = 0.0
    count = 0
    ok = True
    for alpha in ALPHAS:
        q_ref = reference_quotient(alpha)
        for shape in corpus_shapes(alpha):
            deficit = isoperimetric_deficit(shape, alpha, m)
            count += 1
            worst = min(worst, deficit / q_ref)
            ok &= deficit >= -0.01 * q_ref
        ref_deficit = isoperimetric_deficit(ball_sector(alpha, j=1), alpha, m)
        ref_gap = max(ref_gap, abs(ref_deficit) / q_ref)
        ok &= abs(ref_deficit) <= 0.01 * q_ref
    report(
        3,
        "isoperimetric sweep",
        ok,
        f"{count} shapes, worst deficit/Q_ref={worst:+.4f}, reference |deficit|/Q_ref={ref_gap:.4f}",
    )


def test_criterion_04_scaling_laws():
    m = 192
    shape = ellipsoid((1.3, 0.8, 0.6))
    worst_vol = worst_per = 0.0
    for alpha in ALPHAS:
        m1, m2 = measure(shape, alpha, m), measure(anisotropic_scale(shape, 2.0, alpha), alpha, m)
        ev = abs(math.log2(m2.volume / m1.volume) - (3 * alpha + 3))
        ep = abs(math.log2(m2.perimeter / m1.perimeter) - (2 * alpha + 2))
        worst_vol = max(worst_vol, ev)
        worst_per = max(worst_per, ep)

    # 1D radial family: measured exponent of the Rayleigh quotient
    phi = lambda r: np.where(r < 1.0, np.cos(np.pi * r / 2) ** 2, 0.0)  # noqa: E731
    dphi = lambda r: np.where(r < 1.0, -np.pi / 2 * np.sin(np.pi * r), 0.0)  # noqa: E731
    worst_ray = 0.0
    exact_zero = True
    for alpha in ALPHAS:
        n = sector_count(alpha)
        mu = 2.0 ** (alpha + 1.0)
        for q in (2.0, 4.0, 6.0):

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
            worst_ray = max(worst_ray, abs(measured - scaling_exponent(q, alpha)))
        exact_zero &= scaling_exponent(6, alpha) == 0.0

    ok = worst_vol <= 1e-3 and worst_per <= 1e-3 and worst_ray <= 1e-10 and exact_zero
    report(
        4,
        "scaling laws",
        ok,
        f"vol={worst_vol:.1e} per={worst_per:.1e} rayleigh={worst_ray:.1e} zero@6={exact_zero}",
    )


def test_criterion_05_polya_szego():
    details = []
    ok = True
    for alpha in ALPHAS:
        u = radial_field(cosine_bump, alpha, 1.0, resolution=96)
        ratio = rearrange(u, alpha).dirichlet_energy() / grushin_energy(u, alpha)
        target = (2.0 * sector_count(alpha)) ** (-2.0 / 3.0)
        rel = abs(ratio - target) / target
        ok &= rel <= 0.02
        details.append(f"a={alpha}: {rel:.2%}")
    worst_gap = math.inf
    for field in random_bump_corpus(20, resolution=48):
        gap = polya_szego_gap(field, 1.0)
        margin = gap / grushin_energy(field, 1.0)
        worst_gap = min(worst_gap, margin)
        ok &= margin >= -0.02
    report(
        5,
        "polya-szego",
        ok,
        f"radial ratio errors {'; '.join(details)}; worst bump gap/energy={worst_gap:+.3f}",
    )


def test_criterion_06_rearrangement_fidelity():
    ok = True
    details = []
    for alpha in (0.5, 1.0):
        u = radial_field(cosine_bump, alpha, 1.0, resolution=96)
        profile = rearrange(u, alpha)
        dist = distribution_function(u, alpha)
        gap = float(np.abs(dist.measures - profile.measure_above(dist.levels)).max())
        support = float(dist.measures[0])
        ok &= gap <= 0.01 * support
        worst_norm = 0.0
        for q in (2, 4, 6):
            nu = weighted_lq_norm(u, q, alpha)
            npf = profile.lq_norm(q)
            worst_norm = max(worst_norm, abs(npf - nu) / nu)
        ok &= worst_norm <= 0.01
        details.append(f"a={alpha}: gap/supp={gap / support:.1e} norms={worst_norm:.2%}")
    report(6, "rearrangement fidelity", ok, "; ".join(details))


def test_criterion_07_transform_identities():
    from grushin3d.shapes import ball
    from grushin3d.transform import pushforward_checks

    m = 192
    ok = True
    worst_v = worst_p = 0.0
    for alpha in ALPHAS:
        width = math.pi / sector_count(alpha)
        shapes = [
            ball_sector(alpha, j=1),
            ball(0.3 * math.sin(width / 2), center=(math.cos(width / 2), math.sin(width / 2), 0.0)),
        ]
        for shape in shapes:
            v, p = (rep.rel_gap for rep in pushforward_checks(shape, alpha, m))
            worst_v = max(worst_v, v)
            worst_p = max(worst_p, p)
            ok &= v <= 1e-3 and p <= 1e-2
    report(7, "transform identities", ok, f"worst vol gap={worst_v:.1e} per gap={worst_p:.1e}")


def test_criterion_08_solver_correctness(ground_states):
    alpha = 1.0
    errs = []
    for n in (12, 24, 48, 96):
        dom = Domain.cube(1.0, n)
        op = GrushinOperator(dom, alpha)
        X1, X2, Y = dom.centers()
        c = lambda z: np.cos(np.pi * z / 2)  # noqa: E731
        u_exact = c(X1) * c(X2) * c(Y)
        rhs = (np.pi**2 / 4) * (2.0 + op.weight2d[:, :, None]) * u_exact
        u_h = linear_solve(op, rhs, 1e-11)
        errs.append(math.sqrt(float(np.sum((u_h - u_exact) ** 2)) * dom.cell_volume))
    order = math.log2(errs[0] / errs[-1]) / 3.0

    dom = Domain.cube(1.0, 24)
    prob = Problem(dom, alpha, 4.0)
    rng = np.random.default_rng(6)
    grad_rel = 0.0
    for _ in range(3):
        u = rng.standard_normal(dom.dims) * 0.5
        v = rng.standard_normal(dom.dims)
        eps = 1e-5
        fd = (prob.energy(u + eps * v) - prob.energy(u - eps * v)) / (2 * eps)
        an = float(np.sum(prob.gradient(u) * v)) * dom.cell_volume
        grad_rel = max(grad_rel, abs(fd - an) / abs(an))

    sol48 = ground_states(48)
    sol32 = ground_states(32)
    unorm = float(np.sqrt(np.sum(sol48.u.values**2)))
    stable = abs(sol48.energy - sol32.energy) / abs(sol48.energy)
    ok = (
        order >= 1.8
        and grad_rel <= 1e-6
        and unorm > 0
        and sol48.energy > 0
        and sol48.gradient_norm <= 1e-6
        and stable <= 0.05
    )
    report(
        8,
        "solver correctness",
        ok,
        f"L2 order={order:.2f} grad fd={grad_rel:.1e} residual={sol48.gradient_norm:.1e} "
        f"Phi={sol48.energy:.3f} stability={stable:.2%}",
    )


def test_criterion_09_pohozaev_identity(ground_states):
    exact_zero = all(pohozaev_coefficient(5.0, a) == 0.0 for a in (0.3, 0.5, 1.0, 2.0, 3.5))
    signs = (
        nonexistence_classify(4.0) == "subcritical"
        and nonexistence_classify(5.0) == "critical"
        and nonexistence_classify(6.0) == "supercritical"
        and pohozaev_coefficient(4.9, 1.0) > 0
        and pohozaev_coefficient(5.1, 1.0) < 0
    )
    alpha = 1.0
    residuals = {}
    for n in (64, 96):
        sol = ground_states(n)
        residuals[n] = pohozaev_residual(sol.u, 3.0, alpha).residual
    ok = exact_zero and signs and residuals[64] <= 0.10 and residuals[96] < residuals[64]
    report(
        9,
        "pohozaev identity",
        ok,
        f"zero@5={exact_zero} signs={signs} residual64={residuals[64]:.2%} residual96={residuals[96]:.2%}",
    )


def test_criterion_10_embedding_property():
    alpha = 1.0
    fields = random_bump_corpus(50, resolution=48)
    L = sobolev_lower_bound(alpha)
    violations = 0
    worst = 0.0
    for field in fields:
        lhs = weighted_lq_norm(field, 6, alpha)
        rhs = math.sqrt(grushin_energy(field, alpha)) / L * 1.02
        worst = max(worst, lhs / rhs)
        violations += lhs > rhs
    ok = violations == 0
    report(10, "embedding property", ok, f"50 fields, violations={violations}, worst ratio={worst:.3f}")


def test_criterion_11_norm_equivalence():
    alpha = 1.0
    domains = {
        "cube": Domain.cube(1.0, 24),
        "slab": Domain(np.array([(-1.0, 1.0), (-0.8, 0.8), (-1.3, 1.3)]), (24, 24, 24)),
        "tall": Domain(np.array([(-0.7, 0.7), (-0.7, 0.7), (-1.5, 1.5)]), (24, 24, 24)),
    }
    ok = True
    details = []
    for name, dom in domains.items():
        lam = poincare_constant(dom, alpha)
        finer = Domain(dom.bbox, tuple(d * 3 // 2 for d in dom.dims))
        lam_f = poincare_constant(finer, alpha)
        rel = abs(lam_f - lam) / lam_f
        ok &= lam > 0 and rel <= 0.01
        details.append(f"{name}: lam1={lam:.4f} drift={rel:.2%}")
    report(11, "norm equivalence", ok, "; ".join(details))
