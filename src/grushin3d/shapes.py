"""Built-in shape corpus with analytic surface patches.

Every builder returns an ImplicitShape whose ``level`` is vectorised and
whose ``patches`` carry exact parametrisations, so surface quadrature is
limited only by the Gauss rule, not by the shape description.  Each
patch takes broadcast (s, t) arrays (see ``SurfacePatch``) and computes
every function of one parameter on that parameter's own array, so a sweep
evaluates them once per row or column of nodes.  Shapes are addressable
by name through ``make_shape`` for the CLI.  Each builder also gives its
patches' ``breaks``: the parameter lines of the sector walls where a patch
is centred on the y-axis, and the points where the y-axis pierces a patch
off it.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError
from .geometry import ImplicitShape, SurfacePatch, _alpha, _stack, _wrap_angle, sector_count
from .grids import _count

# bbox padding factor; non-round so flat faces avoid the cell planes of the
# voxel reference in tests/voxel_reference.py, the only code that grids a bbox
_PAD = 1.0731


def _walls(n):
    """cos and sin of the 2n sector wall angles k pi / n."""
    theta = np.arange(2 * n) * (math.pi / n)
    return np.cos(theta), np.sin(theta)


def ellipsoid(semiaxes=(1.0, 1.0, 1.0), center=(0.0, 0.0, 0.0)) -> ImplicitShape:
    a, b, c = (float(s) for s in semiaxes)
    cx, cy, cz = (float(s) for s in center)
    if min(a, b, c) <= 0:
        raise DomainError("ellipsoid semiaxes must be positive")

    def level(p):
        p = np.asarray(p, dtype=float)
        return (
            ((p[..., 0] - cx) / a) ** 2
            + ((p[..., 1] - cy) / b) ** 2
            + ((p[..., 2] - cz) / c) ** 2
            - 1.0
        )

    def param(s, t):
        sin_s = np.sin(s)
        return _stack(s, t, cx + a * sin_s * np.cos(t), cy + b * sin_s * np.sin(t), cz + c * np.cos(s))

    def cross(s, t):
        sin_s = np.sin(s)
        return _stack(
            s,
            t,
            b * c * sin_s**2 * np.cos(t),
            a * c * sin_s**2 * np.sin(t),
            a * b * sin_s * np.cos(s),
        )

    def breaks(n):
        if cx == 0.0 and cy == 0.0:
            # a wall theta_k meets the surface on the line t = t_k where
            # (a cos t, b sin t) points along theta_k
            cos, sin = _walls(n)
            return (), _wrap_angle(np.arctan2(a * sin, b * cos))
        # the axis meets the surface where sin(s) (cos t, sin t) = -(cx/a, cy/b)
        rho = math.hypot(cx / a, cy / b)
        if rho > 1.0:
            return (), ()
        s_axis = math.asin(rho)
        return (s_axis, math.pi - s_axis), (float(_wrap_angle(math.atan2(-cy / b, -cx / a))),)

    patch = SurfacePatch(param, cross, (0.0, math.pi), (0.0, 2.0 * math.pi), breaks)
    bbox = [
        (cx - _PAD * a, cx + _PAD * a),
        (cy - _PAD * b, cy + _PAD * b),
        (cz - _PAD * c, cz + _PAD * c),
    ]
    return ImplicitShape(level, np.array(bbox), patches=[patch], name="ellipsoid")


def ball(radius=1.0, center=(0.0, 0.0, 0.0)) -> ImplicitShape:
    shape = ellipsoid((radius, radius, radius), center)
    return ImplicitShape(shape.level, shape.bbox, patches=shape.patches, name="ball")


def cylinder(radius=1.0, half_height=1.0, center=(0.0, 0.0, 0.0)) -> ImplicitShape:
    R, H = float(radius), float(half_height)
    cx, cy, cz = (float(s) for s in center)
    if R <= 0 or H <= 0:
        raise DomainError("cylinder radius and half_height must be positive")

    def level(p):
        p = np.asarray(p, dtype=float)
        rad = np.hypot(p[..., 0] - cx, p[..., 1] - cy) - R
        return np.maximum(rad, np.abs(p[..., 2] - cz) - H)

    def lateral_param(t, z):
        return _stack(t, z, cx + R * np.cos(t), cy + R * np.sin(t), z)

    def lateral_cross(t, z):
        return _stack(t, z, R * np.cos(t), R * np.sin(t), 0.0)

    on_axis = cx == 0.0 and cy == 0.0

    def wall_angles(n):
        # on a cylinder centred on the axis a wall theta_k is the line t = theta_k
        return np.arange(2 * n) * (math.pi / n) if on_axis else ()

    def cap_breaks(n):
        if on_axis or math.hypot(cx, cy) >= R:
            return (), wall_angles(n)
        return (math.hypot(cx, cy),), (float(_wrap_angle(math.atan2(-cy, -cx))),)

    patches = [
        SurfacePatch(
            lateral_param, lateral_cross, (0.0, 2.0 * math.pi), (cz - H, cz + H), lambda n: (wall_angles(n), ())
        )
    ]
    for sign in (1.0, -1.0):

        def cap_param(rho, t, sign=sign):
            return _stack(rho, t, cx + rho * np.cos(t), cy + rho * np.sin(t), cz + sign * H)

        def cap_cross(rho, t, sign=sign):
            return _stack(rho, t, 0.0, 0.0, sign * rho)

        patches.append(SurfacePatch(cap_param, cap_cross, (0.0, R), (0.0, 2.0 * math.pi), cap_breaks))

    bbox = [
        (cx - _PAD * R, cx + _PAD * R),
        (cy - _PAD * R, cy + _PAD * R),
        (cz - _PAD * H, cz + _PAD * H),
    ]
    return ImplicitShape(level, np.array(bbox), patches=patches, name="cylinder")


def box(half_widths=(1.0, 1.0, 1.0), center=(0.0, 0.0, 0.0)) -> ImplicitShape:
    hw = np.asarray(half_widths, dtype=float)
    ctr = np.asarray(center, dtype=float)
    if np.any(hw <= 0):
        raise DomainError("box half_widths must be positive")

    def level(p):
        p = np.asarray(p, dtype=float)
        return np.max(np.abs(p - ctr) - hw, axis=-1)

    patches = []
    for axis in range(3):
        t_axes = [ax for ax in range(3) if ax != axis]
        for sign in (1.0, -1.0):

            def param(s, t, axis=axis, sign=sign, t_axes=t_axes):
                comps = [0.0] * 3
                comps[axis] = ctr[axis] + sign * hw[axis]
                comps[t_axes[0]], comps[t_axes[1]] = s, t
                return _stack(s, t, *comps)

            def cross(s, t, axis=axis, sign=sign):
                comps = [0.0] * 3
                comps[axis] = sign  # unit outward normal, area element 1
                return _stack(s, t, *comps)

            def breaks(n, axis=axis, sign=sign):
                face = ctr[axis] + sign * hw[axis]
                if axis == 2:
                    # a horizontal face (s, t) = (x1, x2): the axis pierces it at (0, 0)
                    return (0.0,), (0.0,)
                # a vertical face x_axis = face, s the other horizontal
                # coordinate: the wall ray along u meets it at s = face u_s / u_axis
                if face == 0.0:
                    return (0.0,), ()
                cos, sin = _walls(n)
                u_face, u_s = (cos, sin) if axis == 0 else (sin, cos)
                hit = u_face * face > 0
                return face / u_face[hit] * u_s[hit], ()

            ranges = [(ctr[a] - hw[a], ctr[a] + hw[a]) for a in t_axes]
            patches.append(SurfacePatch(param, cross, tuple(ranges[0]), tuple(ranges[1]), breaks))

    bbox = [(ctr[i] - _PAD * hw[i], ctr[i] + _PAD * hw[i]) for i in range(3)]
    return ImplicitShape(level, np.array(bbox), patches=patches, name="box")


def ball_sector(alpha, j: int = 1, radius: float = 1.0) -> ImplicitShape:
    """Anisotropic ball sector of sector j.

    The set { |x|^{2a+2} + (a+1)^2 y^2 < rho^2 } cut to the open angular
    sector, with rho = radius * (a+1); radius = 1 is the unit reference
    shape.  Patches: the curved cap inside the sector plus two flat walls.
    ``radius`` equals the Euclidean radius of the shape's flattened image.
    """
    a = _alpha(alpha)
    n = sector_count(a)
    j = _count(j, "sector index", 1, 2 * n)
    if radius <= 0:
        raise DomainError("radius must be positive")
    rho = float(radius) * (a + 1.0)
    z_scale = rho / (a + 1.0)  # half-extent in y; also flattened image radius
    th0 = (j - 1) * math.pi / n
    th1 = j * math.pi / n

    def level(p):
        p = np.asarray(p, dtype=float)
        x1, x2, y = p[..., 0], p[..., 1], p[..., 2]
        r2 = x1 * x1 + x2 * x2
        rad = r2 ** (a + 1.0) + (a + 1.0) ** 2 * y * y - rho * rho
        theta = _wrap_angle(np.arctan2(x2, x1))
        wedge = np.maximum(th0 - theta, theta - th1)
        return np.maximum(rad, np.where(r2 > 0, wedge, 0.0))

    def cap_radius(s):
        return (rho * np.sin(s)) ** (1.0 / (a + 1.0))

    def cap_param(s, t):
        R = cap_radius(s)
        return _stack(s, t, R * np.cos(t), R * np.sin(t), z_scale * np.cos(s))

    def cap_cross(s, t):
        R, sin_s = cap_radius(s), np.sin(s)
        dR = R * np.cos(s) / ((a + 1.0) * sin_s)
        return _stack(s, t, z_scale * R * sin_s * np.cos(t), z_scale * R * sin_s * np.sin(t), R * dR)

    # no breaks: the cap lies in one sector, and the axis and the walls
    # bound every patch
    patches = [SurfacePatch(cap_param, cap_cross, (0.0, math.pi), (th0, th1))]

    for theta_w, outward_sign in ((th0, 1.0), (th1, -1.0)):
        ct, st_ = math.cos(theta_w), math.sin(theta_w)
        normal = outward_sign * np.array([st_, -ct, 0.0])

        def wall_param(u, v, ct=ct, st_=st_):
            rr = (rho * u * np.sin(v)) ** (1.0 / (a + 1.0))
            return _stack(u, v, rr * ct, rr * st_, z_scale * u * np.cos(v))

        def wall_cross(u, v, normal=normal):
            rr = (rho * u * np.sin(v)) ** (1.0 / (a + 1.0))
            jac = z_scale * z_scale * u * rr ** (-a)
            return jac[..., None] * normal

        patches.append(SurfacePatch(wall_param, wall_cross, (0.0, 1.0), (0.0, math.pi)))

    rx = rho ** (1.0 / (a + 1.0))
    th_samples = np.linspace(th0, th1, 721)
    x1s = np.append(rx * np.cos(th_samples), 0.0)
    x2s = np.append(rx * np.sin(th_samples), 0.0)
    pad = 0.06731 * rx

    def padded(lo_, hi_):
        # axis-aligned sector walls sit exactly on bbox faces, which keeps
        # the voxel reference of the tests (tests/voxel_reference.py)
        # bias-free there
        lo_ = 0.0 if abs(lo_) < 1e-12 * rx else lo_ - pad
        hi_ = 0.0 if abs(hi_) < 1e-12 * rx else hi_ + pad
        return (lo_, hi_)

    bbox = [
        padded(float(x1s.min()), float(x1s.max())),
        padded(float(x2s.min()), float(x2s.max())),
        (-_PAD * z_scale, _PAD * z_scale),
    ]
    return ImplicitShape(level, np.array(bbox), patches=patches, sector=j, name="ball-sector")


SHAPE_BUILDERS = {
    "ball": ball,
    "ellipsoid": ellipsoid,
    "cylinder": cylinder,
    "box": box,
    "ball-sector": ball_sector,
}


def make_shape(name: str, **params) -> ImplicitShape:
    """Corpus lookup by name; raises DomainError for unknown names."""
    try:
        builder = SHAPE_BUILDERS[name]
    except KeyError:
        known = ", ".join(sorted(SHAPE_BUILDERS))
        raise DomainError(f"unknown shape {name!r} (known: {known})") from None
    return builder(**params)


def corpus_shapes(alpha) -> list[ImplicitShape]:
    """The standard sweep corpus: >= 12 shapes covering all supported kinds."""
    a = _alpha(alpha)
    return [
        ellipsoid((1.0, 1.0, 1.0)),
        ellipsoid((1.3, 0.8, 0.6)),
        ellipsoid((0.7, 1.2, 1.0)),
        ellipsoid((1.1, 1.1, 0.5)),
        cylinder(1.0, 1.0),
        cylinder(0.7, 1.4),
        box((1.0, 1.0, 1.0)),
        box((1.2, 0.7, 0.9)),
        ball(0.8, center=(0.5, 0.0, 0.0)),
        ball(0.6, center=(0.4, 0.4, 0.3)),
        ball_sector(a, j=1),
        ball_sector(a, j=2),
    ]
