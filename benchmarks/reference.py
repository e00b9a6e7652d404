"""Reference values and output checks, computed apart from the program.

Nothing here imports taubnut.  The distance reference solves the implicit
geodesic relations of the geodesics module docstring at 30 digits with
mpmath; the energy and volume references are closed forms derived in this
file.  Every checker returns a list of failure messages (empty when the
output is right), so a perturbed output can be shown to be rejected.
"""

from __future__ import annotations

import math
import xml.etree.ElementTree as ET

DIGITS = 30
SQRT2 = math.sqrt(2.0)
M = SQRT2   # the mass parameter of every metric the benchmark runs


# --------------------------------------------------------------------------
# distance from the origin, at 30 digits
# --------------------------------------------------------------------------

def _launch_angle(mp, height):
    """(cos eta, sin eta) of the root of height(c, s), increasing in eta.

    The bisection runs on the angle to the nearer axis, geometrically, so
    that cos(eta) or sin(eta) keeps its full relative precision however
    close the geodesic runs to an axis."""
    quarter = mp.pi / 4
    below = height(mp.cos(quarter), mp.sin(quarter)) >= 0
    if below:       # eta in (0, pi/4]: theta = eta
        def f(t):
            return height(mp.cos(t), mp.sin(t))
    else:           # eta in (pi/4, pi/2): theta = pi/2 - eta
        def f(t):
            return -height(mp.sin(t), mp.cos(t))
    lo, hi = mp.mpf(10) ** -1000, quarter
    for _ in range(400):
        mid = mp.sqrt(lo * hi)
        if f(mid) < 0:
            lo = mid
        else:
            hi = mid
        if hi - lo <= mp.mpf(10) ** (-DIGITS - 5) * lo:
            break
    t = mp.sqrt(lo * hi)
    return (mp.cos(t), mp.sin(t)) if below else (mp.sin(t), mp.cos(t))


def mp_distance(family: str, u: float, v: float, k: float = 0.0) -> float:
    """Distance from the origin to (u, v), solved at 30 digits.

    family is "GeneralizedTN", "ExceptionalTN", "ExceptionalHalfPlane" or
    "Flat".  The launch angle eta of the geodesic through (u, v) solves

        GeneralizedTN:  sin(eta) sinh((b/a) asinh(a u / cos(eta))) = b v,
        exceptional:    sin(eta) asinh(u / cos(eta))               = v,

    with a = sqrt(1+k), b = sqrt(1-k), by bisection on eta.  The distance is
    then read off the radial parameter of that geodesic: s with
    u = cos(eta) sinh(a s)/a, v = sin(eta) sinh(b s)/b and

        sqrt(M/(2 sqrt2)) R = cos^2/(2a) (sinh(2as)/2 + as)
                            + sin^2/(2b) (sinh(2bs)/2 + bs),

    or sigma with u = cos(eta) sinh(sigma), v = sigma sin(eta) and
    R = cos^2(eta) sinh(2 sigma)/4 + (1 + sin^2(eta)) sigma / 2.
    """
    import mpmath as mp
    mp.mp.dps = DIGITS + 10
    u, v = mp.mpf(u), mp.mpf(v)
    if family == "Flat":
        return float(mp.sqrt(u * u + v * v))
    if family == "ExceptionalHalfPlane":
        family, v = "ExceptionalTN", abs(v)
    if family == "GeneralizedTN":
        a, b = mp.sqrt(1 + mp.mpf(k)), mp.sqrt(1 - mp.mpf(k))
        scale = mp.sqrt(mp.mpf(M) / (2 * mp.sqrt(2)))

        def lhs(c, s, p):
            return (c * c / (2 * a) * (mp.sinh(2 * a * p) / 2 + a * p)
                    + s * s / (2 * b) * (mp.sinh(2 * b * p) / 2 + b * p))

        if v == 0:
            return float(lhs(1, 0, mp.asinh(a * u) / a) / scale)
        if u == 0:
            return float(lhs(0, 1, mp.asinh(b * v) / b) / scale)
        c, s = _launch_angle(
            mp, lambda c, s: s * mp.sinh(b / a * mp.asinh(a * u / c)) - b * v)
        p = mp.asinh(a * u / c) / a if c >= s else mp.asinh(b * v / s) / b
        return float(lhs(c, s, p) / scale)
    if family != "ExceptionalTN":
        raise ValueError(f"unknown family {family!r}")

    def radius(c, s, sigma):
        return c * c * mp.sinh(2 * sigma) / 4 + (1 + s * s) * sigma / 2

    if v == 0:
        return float(radius(1, 0, mp.asinh(u)))
    if u == 0:
        return float(v)
    c, s = _launch_angle(mp, lambda c, s: s * mp.asinh(u / c) - v)
    sigma = mp.asinh(u / c) if c >= s else v / s
    return float(radius(c, s, sigma))


# --------------------------------------------------------------------------
# closed forms
# --------------------------------------------------------------------------

def l2_ricci_closed(k: float) -> float:
    """Total L^2 Ricci energy of GeneralizedTN(k): 4 pi^2 k^2 / (1 - k^2)."""
    return 4.0 * math.pi ** 2 * k * k / (1.0 - k * k)


def almost_ball_volume_closed(family: str, R: float, k: float = 0.0) -> float:
    """Volume of {Rtilde <= R}: 4 pi^2 times the integral of lam * x.

    GeneralizedTN: lam x = 4 D u v / M^2 with D = 1 + (1+k)u^2 + (1-k)v^2.
    With X = sqrt(1+k) u^2, Y = sqrt(1-k) v^2 the region is the triangle
    X + Y <= rho = sqrt(sqrt2 M) R, u v du dv = dX dY / (4 sqrt(1-k^2)),
    and D = 1 + sqrt(1+k) X + sqrt(1-k) Y, whose triangle integral is
    rho^2/2 + (sqrt(1+k) + sqrt(1-k)) rho^3/6.
    ExceptionalTN: lam x = (1 + u^2) u v / 2 over v <= R - u^2/2; with
    w = u^2/2 the integral is (1/4) int_0^R (1 + 2w)(R - w)^2 dw
    = R^3/12 + R^4/24.
    """
    if family == "GeneralizedTN":
        a, b = math.sqrt(1.0 + k), math.sqrt(1.0 - k)
        rho = math.sqrt(SQRT2 * M) * R
        tri = rho ** 2 / 2.0 + (a + b) * rho ** 3 / 6.0
        return 4.0 * math.pi ** 2 * 4.0 / (M * M) * tri / (4.0 * a * b)
    if family == "ExceptionalTN":
        return 4.0 * math.pi ** 2 * (R ** 3 / 12.0 + R ** 4 / 24.0)
    raise ValueError(f"no almost-ball volume for {family!r}")


# --------------------------------------------------------------------------
# checkers: each returns a list of failure messages
# --------------------------------------------------------------------------

def rel_err(got: float, want: float) -> float:
    if want == 0.0:
        return abs(got)
    return abs(got - want) / abs(want)


def check_distance_reference(rows):
    """rows: (family, k, u, v, distance) -> matches the mpmath solve."""
    tol = 1e-10
    bad = []
    for fam, k, u, v, got in rows:
        want = mp_distance(fam, u, v, k)
        if not rel_err(got, want) <= tol:
            bad.append(f"distance-mpmath: {fam} k={k} ({u!r}, {v!r}) gives {got!r}, "
                       f"reference {want!r}")
    return bad


def check_flat_hypot(rows):
    """rows: (u, v, distance) for Flat -> equals hypot(u, v)."""
    tol = 1e-14
    return [f"flat-hypot: ({u!r}, {v!r}) gives {d!r}, hypot {math.hypot(u, v)!r}"
            for u, v, d in rows if not rel_err(d, math.hypot(u, v)) <= tol]


def check_polar_roundtrip(rows):
    """rows: (label, R, eta, u, v, distance(u, v)) -> |d/R - 1| <= tol."""
    tol = 1e-8
    bad = []
    for label, R, eta, u, v, d in rows:
        if not (math.isfinite(u) and math.isfinite(v) and abs(d / R - 1.0) <= tol):
            bad.append(f"polar-roundtrip: {label} R={R!r} eta={eta!r} -> "
                       f"({u!r}, {v!r}), distance {d!r}")
    return bad


def check_bracket(rows):
    """rows: (family, R, k, lo, hi) with the exact almost-ball volume
    between lo and hi."""
    bad = []
    for fam, R, k, lo, hi in rows:
        mid = almost_ball_volume_closed(fam, R, k)
        if not lo <= mid <= hi:
            bad.append(f"ball-bracket: {fam} R={R!r} bracket [{lo!r}, {hi!r}] "
                       f"misses {mid!r}")
    return bad


def parse_contour_csv(text: str):
    lines = text.strip().splitlines()
    if not lines or lines[0] != "curve,kind,param,u,v,value":
        raise ValueError("contour CSV header missing")
    rows = []
    for line in lines[1:]:
        name, kind, *nums = line.split(",")
        rows.append((name, kind, *(float(x) for x in nums)))
    return rows


def check_contour_geodesics(rows, distance):
    """Geodesic rows (curve, "geodesic", t, u, v, eta) have distance = t."""
    tol = 1e-8
    bad = []
    n = 0
    for name, kind, t, u, v, _ in rows:
        if kind != "geodesic":
            continue
        n += 1
        d = distance(u, v)
        if not abs(d - t) <= tol * max(1.0, t):
            bad.append(f"contour-geodesic: {name} t={t!r} at ({u!r}, {v!r}) "
                       f"has distance {d!r}")
    if n == 0:
        bad.append("contour-geodesic: no geodesic rows")
    return bad


def check_l2_ricci(rows):
    """rows: (k, quadrature value) -> matches 4 pi^2 k^2/(1-k^2)."""
    tol = 1e-6
    return [f"l2-ricci: k={k!r} quadrature {q!r}, closed form {l2_ricci_closed(k)!r}"
            for k, q in rows if not rel_err(q, l2_ricci_closed(k)) <= tol]


def check_growth(rows):
    """rows: (label, fitted exponent, expected exponent)."""
    tol = 0.05
    return [f"energy-growth: {label} exponent {got!r}, expected {want}"
            for label, got, want in rows if not abs(got - want) <= tol]


def check_almost_ball(rows):
    """rows: (family, k, R, quadrature volume)."""
    tol = 1e-8
    bad = []
    for fam, k, R, q in rows:
        want = almost_ball_volume_closed(fam, R, k)
        if not rel_err(q, want) <= tol:
            bad.append(f"almost-ball: {fam} k={k} R={R!r} quadrature {q!r}, "
                       f"closed form {want!r}")
    return bad


def check_shoot(rows):
    """rows: (label, eta, t_end, ODE endpoint u, v, polar u, v)."""
    tol = 1e-8
    bad = []
    for label, eta, t, u, v, pu, pv in rows:
        if not (abs(u - pu) <= tol * max(1.0, abs(pu))
                and abs(v - pv) <= tol * max(1.0, abs(pv))):
            bad.append(f"shoot-endpoint: {label} eta={eta!r} t={t!r} ODE ({u!r}, {v!r}) "
                       f"vs polar ({pu!r}, {pv!r})")
    return bad


def check_scalar_flat(rows):
    """rows: (label, u, v, FD scalar curvature); every metric is scalar-flat."""
    tol = 1e-3
    return [f"scalar-flat: {label} ({u!r}, {v!r}) scalar {s!r}"
            for label, u, v, s in rows if not abs(s) <= tol]


def check_gauss_fd(rows):
    """rows: (k, u, v, FD Gauss curvature) of GeneralizedTN(k) at M = sqrt2.

    K = -Laplacian(log lam)/(2 lam) with lam = 2 D (M = sqrt2) and
    D = 1 + (1+k)u^2 + (1-k)v^2 works out to
    (-1 + k(1+k)u^2 - k(1-k)v^2) / D^3."""
    tol = 1e-4
    bad = []
    for k, u, v, got in rows:
        D = 1.0 + (1.0 + k) * u * u + (1.0 - k) * v * v
        want = (-1.0 + k * (1.0 + k) * u * u - k * (1.0 - k) * v * v) / D ** 3
        if not abs(got - want) <= tol * max(abs(want), 1e-3):
            bad.append(f"gauss-fd: k={k!r} ({u!r}, {v!r}) FD {got!r}, exact {want!r}")
    return bad


def check_finite(name, rows):
    """Every number of every row is finite."""
    return [f"{name}: non-finite output {row!r}" for row in rows
            if not all(math.isfinite(x) for x in row)]


def check_decay(rows):
    """rows: (k, eta, fitted |Rm| exponent): -3 at k = 0, -2 at k != 0."""
    tol = 0.15
    bad = []
    for k, eta, rate in rows:
        want = -3.0 if k == 0.0 else -2.0
        if not abs(rate - want) <= tol:
            bad.append(f"rm-decay: k={k} eta={eta!r} exponent {rate!r}, expected {want}")
    return bad


def check_eval(doc, distance_ref):
    tol = 1e-10
    q = doc["quantities"]
    bad = []
    if not rel_err(q["distance"], distance_ref) <= tol:
        bad.append(f"cli-eval: distance {q['distance']!r}, reference {distance_ref!r}")
    x = q["axial_coordinate"]
    if not rel_err(q["fiber_det"], x * x) <= 1e-10:
        bad.append(f"cli-eval: fiber_det {q['fiber_det']!r} != axial^2 {x * x!r}")
    return bad


def check_energy(doc, k):
    tol = 1e-6
    closed = l2_ricci_closed(k)
    bad = []
    for key in ("l2_ricci_closed", "l2_ricci_quadrature"):
        if not rel_err(doc[key], closed) <= (1e-12 if key == "l2_ricci_closed" else tol):
            bad.append(f"cli-energy: {key} {doc[key]!r}, closed form {closed!r}")
    riem = 32.0 * math.pi ** 2 + 4.0 * closed
    if not rel_err(doc["l2_riemann"], riem) <= 1e-12:
        bad.append(f"cli-energy: l2_riemann {doc['l2_riemann']!r}, expected {riem!r}")
    return bad


def check_geodesic_csv(text):
    tol = 1e-8
    lines = text.strip().splitlines()
    if not lines or lines[0] != "t,u,v,R,distance_residual,unparam_residual":
        return ["cli-geodesic: CSV header missing"]
    bad = []
    for line in lines[1:]:
        t, u, v, R, dres, gres = (float(x) for x in line.split(","))
        if not abs(R - t) <= tol:
            bad.append(f"cli-geodesic: t={t!r} distance {R!r}")
    return bad


def check_volume_csv(text):
    """`volume --family generalized --R ...` rows: the closed form, and the
    measured bracket around it from R = 10 on."""
    lines = text.strip().splitlines()
    if not lines or lines[0] != "R,vol,bracket_lo,bracket_hi":
        return ["cli-volume: CSV header missing"]
    bad = []
    for line in lines[1:]:
        R, vol, lo, hi = line.split(",")
        R, vol = float(R), float(vol)
        want = almost_ball_volume_closed("GeneralizedTN", R)
        if not rel_err(vol, want) <= 1e-12:
            bad.append(f"cli-volume: R={R!r} volume {vol!r}, closed form {want!r}")
        if R >= 10.0 and not float(lo) <= want <= float(hi):
            bad.append(f"cli-volume: R={R!r} bracket [{lo}, {hi}] misses {want!r}")
    return bad


def check_svg(text):
    try:
        root = ET.fromstring(text)
    except ET.ParseError as exc:
        return [f"cli-contour: SVG does not parse: {exc}"]
    if not root.tag.endswith("svg") or not len(root):
        return ["cli-contour: SVG has no curves"]
    return []


def check_verify(text):
    last = text.strip().splitlines()[-1] if text.strip() else ""
    parts = last.split()
    if (len(parts) == 3 and parts[1:] == ["checks", "passed"] and "/" in parts[0]):
        n, m = parts[0].split("/")
        if n == m and int(n) > 0:
            return []
    return [f"cli-verify: last line {last!r}"]
