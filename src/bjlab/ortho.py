"""Exact and approximate Birkhoff-James orthogonality checks.

Two routes: convex scalar minimization of the defining inequality, and
norm-one support-functional certificates built on the duality kernel
(blockspace.duality_weights), with the closed-form minimum over the zero-block
freedom when p = 1.  For p > 1 the certificate value is the
semi-inner-product value |[y, x]|/||x||, so certificate_check is also the
semi-inner-product criterion (sip.sip_orthogonality_criterion calls it) and
only the minimization is an independent route.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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
    _pairing,
    _support_rows,
    block_norms,
    check_shape,
)
from .errors import BadSpec, NonFiniteValue, ZeroElement

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class ApproxParam:
    """Relaxation parameter of approximate orthogonality; 0 recovers the
    exact relation."""

    epsilon: float

    def __post_init__(self):
        eps = float(self.epsilon)
        if not (0.0 <= eps < 1.0):
            raise BadSpec(f"epsilon must lie in [0, 1), got {eps}")
        object.__setattr__(self, "epsilon", eps)

    def __float__(self) -> float:
        return self.epsilon


def epsilon_value(eps) -> float:
    """Accept ApproxParam or a plain float; validate the range."""
    if isinstance(eps, ApproxParam):
        return eps.epsilon
    return ApproxParam(float(eps)).epsilon


def minimize_convex_1d(phi, radius: float, tol: float = 1e-12,
                       max_iter: int = 200) -> tuple[float, float]:
    """Golden-section minimum of a convex phi over [-radius, radius].

    tol is the terminal bracket width relative to radius.  Returns the best
    (alpha, phi(alpha)) over all probe points, endpoints and 0 included, so
    the reported value never exceeds any evaluated one.
    """
    if not (radius > 0.0 and math.isfinite(radius)):
        raise BadSpec(f"radius must be positive and finite, got {radius}")

    def f(alpha: float) -> float:
        val = float(phi(alpha))
        if not math.isfinite(val):
            raise NonFiniteValue(f"objective returned {val} at alpha={alpha}")
        return val

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


def _one_sided_result(margin: float, tol: float, alpha_star: float) -> CheckResult:
    # Minimization margins are <= 0 up to rounding (the objective vanishes at
    # alpha = 0), so only the uncertain-fail zone below the noise floor is a
    # boundary case.
    boundary = -BOUNDARY_BAND * tol < margin < -ONE_SIDED_NOISE_FLOOR
    return CheckResult(verdict=margin >= -tol, margin=margin,
                       alpha_star=alpha_star, boundary=boundary)


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
    attains ||x||.
    """
    xb, yb, nx, ny = _operands(x, y, spec)
    if ny == 0.0:
        return CheckResult(verdict=True, margin=0.0, alpha_star=0.0)
    radius = 4.0 * nx / ny
    alpha, val = minimize_convex_1d(lambda a: _norm_arr(xb + a * yb, spec), radius)
    val = min(val, nx)  # phi(0) = ||x|| exactly
    margin = (val - nx) / nx
    return _one_sided_result(margin, tol, alpha)


def is_approx_bj_orthogonal(x: BochnerElement, y: BochnerElement, eps,
                            spec: SpaceSpec, tol: float = DEFAULT_TOL) -> CheckResult:
    """Does ||x + a y||^2 >= ||x||^2 - 2 eps ||x|| ||a y|| hold for every a?

    Minimizes the convex gap psi(a) = ||x + a y||^2 - ||x||^2
    + 2 eps ||x|| ||y|| |a| over |a| <= 4||x||/||y|| (psi < 0 forces
    ||x + a y|| < ||x||, hence |a| < 2||x||/||y||).  margin = min psi /||x||^2.
    """
    eps = epsilon_value(eps)
    xb, yb, nx, ny = _operands(x, y, spec)
    if ny == 0.0:
        return CheckResult(verdict=True, margin=0.0, alpha_star=0.0)
    kink = 2.0 * eps * nx * ny
    nx2 = nx * nx

    def psi(a: float) -> float:
        return _norm_arr(xb + a * yb, spec) ** 2 - nx2 + kink * abs(a)

    radius = 4.0 * nx / ny
    alpha, val = minimize_convex_1d(psi, radius)
    val = min(val, 0.0)  # psi(0) = 0 exactly
    margin = val / nx2
    return _one_sided_result(margin, tol, alpha)


def _certificate(x: BochnerElement, y: BochnerElement,
                 spec: SpaceSpec) -> tuple[float, np.ndarray]:
    """(min_certificate_value, blocks of a T attaining it).  At p = 1 the
    zero blocks of x take, in order, clamped multiples of -sign(S) F_{y_i}
    until they have cancelled as much of S as they can."""
    xb = check_shape(x, spec)
    yb = check_shape(y, spec)
    _, T = _support_rows(xb, spec)
    s = _pairing(T, yb, spec)
    free = ~T.any(axis=1)  # the zero blocks of x (at p = 1 every weight is 1)
    if spec.p > 1.0 or not free.any():
        return abs(s), T
    by = block_norms(yb, spec.q)
    c = (spec.mu * by)[free]  # reach of each free block
    taken = np.clip(abs(s) - (np.cumsum(c) - c), 0.0, c)
    t = np.divide(taken, c, out=np.zeros_like(c), where=c > 0.0)
    Fy = _duality_rows(yb[free], spec.q, c > 0.0, by[free])
    T[free] = -np.sign(s) * t[:, None] * Fy
    return max(0.0, abs(s) - float(c.sum())), T


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
    mcv, T = _certificate(x, y, spec)
    cert = BlockFunctional(T)
    ny = _norm_arr(check_shape(y, spec), spec)
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
