"""Exact and approximate Birkhoff-James orthogonality checks.

Two routes: convex scalar minimization of the defining inequality (13
probes that certify most orthogonal pairs outright, then golden section on
the rest), and norm-one support-functional certificates built on the duality kernel
(blockspace.duality_weights), with the closed-form minimum over the zero-block
freedom when p = 1.  For p > 1 the certificate value is the
semi-inner-product value |[y, x]|/||x||, so certificate_check is also the
semi-inner-product criterion (sip.sip_orthogonality_criterion calls it) and
only the minimization is an independent route.
"""

from __future__ import annotations

import math

import numpy as np

from .blockspace import (
    BOUNDARY_BAND,
    DEFAULT_TOL,
    ONE_SIDED_NOISE_FLOOR,
    BlockFunctional,
    BochnerElement,
    CheckResult,
    SpaceSpec,
    _duality_rows,
    _norm_arr,
    _norm_from_block_norms,
    _pairing,
    _support_rows,
    block_norms,
    check_shape,
)
from .errors import BadSpec, NonFiniteValue, ZeroElement

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


def epsilon_value(eps) -> float:
    """eps as a float in [0, 1), where 0 recovers the exact relation; raises
    BadSpec outside that range, NaN included."""
    eps = float(eps)
    if not 0.0 <= eps < 1.0:
        raise BadSpec(f"epsilon must lie in [0, 1), got {eps}")
    return eps


def _finite(phi):
    """phi as a float-valued function that raises NonFiniteValue on inf/nan
    or overflow."""
    def f(alpha: float) -> float:
        try:
            val = float(phi(alpha))
        except OverflowError as exc:  # a Python float power out of range
            raise NonFiniteValue(f"objective overflowed at alpha={alpha}") from exc
        if not math.isfinite(val):
            raise NonFiniteValue(f"objective returned {val} at alpha={alpha}")
        return val
    return f


def minimize_convex_1d(phi, radius: float, tol: float = 1e-12,
                       max_iter: int = 200) -> tuple[float, float]:
    """Golden-section minimum of a convex phi over [-radius, radius].

    tol is the terminal bracket width relative to radius.  Returns the best
    (alpha, phi(alpha)) over all probe points, endpoints and 0 included, so
    the reported value never exceeds any evaluated one.
    """
    if not (radius > 0.0 and math.isfinite(radius)):
        raise BadSpec(f"radius must be positive and finite, got {radius}")
    f = _finite(phi)
    a, b = -radius, radius
    best_a, best_v = 0.0, f(0.0)  # probe the kink/expansion point first
    for alpha in (a, b):
        v = f(alpha)
        if v < best_v:
            best_a, best_v = alpha, v
    c = b - _INV_PHI * (b - a)
    d = a + _INV_PHI * (b - a)
    fc, fd = f(c), f(d)
    width_goal = tol * radius
    for _ in range(max_iter):
        if fc < best_v:
            best_a, best_v = c, fc
        if fd < best_v:
            best_a, best_v = d, fd
        if (b - a) <= width_goal:
            break
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - _INV_PHI * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INV_PHI * (b - a)
            fd = f(d)
    return best_a, best_v


def _secant_lower_bound(alphas, values) -> float:
    """Lower bound on the minimum over [alphas[0], alphas[-1]] of a convex
    function sampled at increasing alphas.

    A convex function lies above every secant extended beyond its own
    interval, so on each interval it lies above the larger of the two
    neighbouring secants; the smallest value of that maximum sits at an
    endpoint or where the two lines cross.  Returns -inf when a slope is not
    finite.
    """
    m = len(alphas) - 1
    widths = [alphas[j + 1] - alphas[j] for j in range(m)]
    slopes = [(values[j + 1] - values[j]) / widths[j] for j in range(m)]
    if not all(map(math.isfinite, slopes)):
        return -math.inf
    bound = math.inf
    for i in range(m):
        w = widths[i]
        # the neighbouring secants as (value at alphas[i], slope); an edge
        # interval has one neighbour, which then stands for both
        left = (values[i], slopes[i - 1]) if i > 0 else None
        right = ((values[i + 1] - slopes[i + 1] * w, slopes[i + 1])
                 if i + 1 < m else None)
        (c0, k0), (c1, k1) = left or right, right or left
        low = min(max(c0, c1), max(c0 + k0 * w, c1 + k1 * w))
        if k1 != k0:  # the lines cross
            u = min(max((c0 - c1) / (k1 - k0), 0.0), w)
            low = min(low, max(c0 + k0 * u, c1 + k1 * u))
        bound = min(bound, low)
    return bound


# Probe points as fractions of the radius: 0, then pairs on either side of
# it, wide enough to see a violation anywhere in the bracket and fine enough
# that the secant bound of a function vanishing at 0 closes to within the
# noise floor.
_PROBE_OFFSETS = (0.0,) + tuple(side * scale
                                for scale in (1.0, 1e-2, 1e-4, 1e-6, 1e-7, 1e-8)
                                for side in (-1.0, 1.0))


def _certified_probe(phi, radius: float, level: float
                     ) -> tuple[float, float] | None:
    """Certify min phi >= level over [-radius, radius] from 13 probes.

    Evaluates a convex phi at radius*_PROBE_OFFSETS, stopping at the first
    value below level.  If every value reaches level and so does their
    secant lower bound, returns the best probe (alpha, phi(alpha)), ties
    going to 0; otherwise None, and the caller minimizes in full.  Any
    minimizer's value is at least the true minimum, hence at least level, so
    a certified pair gets the verdict and boundary flag full minimization
    would give it.
    """
    if not (radius > 0.0 and math.isfinite(radius)):
        return None  # minimize_convex_1d reports the bad radius
    f = _finite(phi)
    probes = []
    for offset in _PROBE_OFFSETS:
        alpha = offset * radius
        value = f(alpha)
        if value < level:
            return None
        probes.append((alpha, value))
    alphas, values = zip(*sorted(probes))
    if not all(a < b for a, b in zip(alphas, alphas[1:])):
        return None  # the smallest offsets underflowed onto each other
    if not _secant_lower_bound(alphas, values) >= level:
        return None
    return min(probes, key=lambda p: p[1])  # the first of equals: alpha = 0


def _one_sided_check(objective, radius: float, at_zero: float, level: float,
                     scale: float, tol: float) -> CheckResult:
    """Verdict on min objective >= at_zero over [-radius, radius], at_zero
    being the exact objective(0): certified probes at level, else golden
    section.  margin = (min - at_zero)/scale is <= 0 up to rounding, so only
    the uncertain-fail zone below the noise floor is a boundary case."""
    alpha, val = (_certified_probe(objective, radius, level)
                  or minimize_convex_1d(objective, radius))
    val = min(val, at_zero)  # clamp at the exact value; as evaluated it can sit an ulp below
    margin = (val - at_zero) / scale
    boundary = -BOUNDARY_BAND * tol < margin < -ONE_SIDED_NOISE_FLOOR
    return CheckResult(verdict=margin >= -tol, margin=margin,
                       alpha_star=alpha, boundary=boundary)


def _operands(x: BochnerElement, y: BochnerElement, spec: SpaceSpec
              ) -> tuple[np.ndarray, np.ndarray, float, float]:
    """(x blocks, y blocks, ||x||, ||y||) after checking both shapes; raises
    ZeroElement at x = 0."""
    xb = check_shape(x, spec)
    yb = check_shape(y, spec)
    nx = _norm_arr(xb, spec)
    if nx == 0.0:
        raise ZeroElement("orthogonality from the zero element is degenerate")
    return xb, yb, nx, _norm_arr(yb, spec)


def is_bj_orthogonal(x: BochnerElement, y: BochnerElement, spec: SpaceSpec,
                     tol: float = DEFAULT_TOL) -> CheckResult:
    """Does ||x + a y|| >= ||x|| hold for every scalar a?

    Minimizes ||x + a y|| over |a| <= 4||x||/||y|| (any a with value <= ||x||
    lies within 2||x||/||y|| by the reverse triangle inequality; doubled to
    absorb rounding).  margin = (min - ||x||)/||x||, always <= 0 since a = 0
    attains ||x||.  A pair whose probes certify min >= (1 - floor)||x||
    (floor = ONE_SIDED_NOISE_FLOOR) skips the golden section.
    """
    xb, yb, nx, ny = _operands(x, y, spec)
    if ny == 0.0:
        return CheckResult(verdict=True, margin=0.0, alpha_star=0.0)
    radius = 4.0 * nx / ny

    def phi(a: float) -> float:
        return nx if a == 0.0 else _norm_arr(xb + a * yb, spec)

    return _one_sided_check(phi, radius, nx, (1.0 - ONE_SIDED_NOISE_FLOOR) * nx,
                            nx, tol)


def is_approx_bj_orthogonal(x: BochnerElement, y: BochnerElement, eps,
                            spec: SpaceSpec, tol: float = DEFAULT_TOL) -> CheckResult:
    """Does ||x + a y||^2 >= ||x||^2 - 2 eps ||x|| ||a y|| hold for every a?

    Minimizes the convex gap psi(a) = ||x + a y||^2 - ||x||^2
    + 2 eps ||x|| ||y|| |a| over |a| <= 4||x||/||y|| (psi < 0 forces
    ||x + a y|| < ||x||, hence |a| < 2||x||/||y||).  margin = min psi /||x||^2.
    A pair whose probes certify min psi >= -floor ||x||^2
    (floor = ONE_SIDED_NOISE_FLOOR) skips the golden section.
    """
    eps = epsilon_value(eps)
    xb, yb, nx, ny = _operands(x, y, spec)
    if ny == 0.0:
        return CheckResult(verdict=True, margin=0.0, alpha_star=0.0)
    kink = 2.0 * eps * nx * ny
    nx2 = nx * nx
    if not 0.0 < nx2 < math.inf:  # nx * nx underflowed or overflowed
        raise NonFiniteValue(f"||x||^2 = {nx2} is outside the float range")

    def psi(a: float) -> float:
        if a == 0.0:  # what evaluating gives, as ||x + 0 y|| is nx to the bit
            return nx ** 2 - nx2
        return _norm_arr(xb + a * yb, spec) ** 2 - nx2 + kink * abs(a)

    radius = 4.0 * nx / ny
    return _one_sided_check(psi, radius, 0.0, -ONE_SIDED_NOISE_FLOOR * nx2,
                            nx2, tol)


def _certificate(x: BochnerElement, y: BochnerElement,
                 spec: SpaceSpec) -> tuple[float, np.ndarray, float]:
    """(min_certificate_value, blocks of a T attaining it, ||y||).  At p = 1
    the zero blocks of x take, in order, clamped multiples of -sign(S) F_{y_i}
    until they have cancelled as much of S as they can."""
    xb = check_shape(x, spec)
    yb = check_shape(y, spec)
    _, T = _support_rows(xb, spec)
    s = _pairing(T, yb, spec)
    by = block_norms(yb, spec.q)
    ny = _norm_from_block_norms(by, spec)
    if spec.p > 1.0:
        return abs(s), T, ny
    free = ~T.any(axis=1)  # the zero blocks of x (at p = 1 every weight is 1)
    if not free.any():
        return abs(s), T, ny
    c = (spec.mu * by)[free]  # reach of each free block
    taken = np.clip(abs(s) - (np.cumsum(c) - c), 0.0, c)
    t = np.divide(taken, c, out=np.zeros_like(c), where=c > 0.0)
    Fy = _duality_rows(yb[free], spec.q, c > 0.0, by[free])
    T[free] = -np.sign(s) * t[:, None] * Fy
    return max(0.0, abs(s) - float(c.sum())), T, ny


def min_certificate_value(x: BochnerElement, y: BochnerElement,
                          spec: SpaceSpec) -> float:
    """min over norm-one T with T(x) = ||x|| of |T(y)|.

    p = 1: on zero blocks of x the dual block is free in the unit ball, so
    T(y) sweeps an interval of half-width sum_{i in Z(x)} mu_i ||y_i||_q
    around S = sum_{i not in Z(x)} mu_i F_{x_i}.y_i; the minimum modulus is
    max(0, |S| - half-width).  p > 1: the space is smooth, the support
    functional is unique, and the value is |T_x(y)| = |[y, x]|/||x||.
    """
    return _certificate(x, y, spec)[0]


def certificate_check(x: BochnerElement, y: BochnerElement, eps,
                      spec: SpaceSpec, tol: float = DEFAULT_TOL) -> CheckResult:
    """Certificate route: approximate orthogonality holds iff some norm-one T
    with T(x) = ||x|| has |T(y)| <= eps ||y||.

    margin = (eps ||y|| - min |T(y)|)/||y||; the certificate field carries a
    T attaining the minimum.
    """
    eps = epsilon_value(eps)
    mcv, T, ny = _certificate(x, y, spec)
    cert = BlockFunctional(T)
    if ny == 0.0:
        return CheckResult(verdict=True, margin=0.0, certificate=cert)
    margin = (eps * ny - mcv) / ny
    return CheckResult(verdict=margin >= -tol, margin=margin, certificate=cert,
                       boundary=abs(margin) < BOUNDARY_BAND * tol)


def make_orthogonal_partner(x: BochnerElement, z: BochnerElement,
                            spec: SpaceSpec) -> BochnerElement:
    """Project z along x so the result is orthogonal from x.

    With T the support functional of x, y = z - (T(z)/||x||) x satisfies
    T(y) = 0, which certifies x orthogonal to y.
    """
    xb = check_shape(x, spec)
    zb = check_shape(z, spec)
    nx, T = _support_rows(xb, spec)
    return BochnerElement(zb - (_pairing(T, zb, spec) / nx) * xb)
