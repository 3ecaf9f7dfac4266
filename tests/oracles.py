"""Independent oracles the tests check the library against: dense grids,
exhaustive enumeration, finite differences, and Monte-Carlo duality.  These
recompute norms from the plain power-sum formulas so they share no code path
with the implementation under test.  The reference_* functions are the
one-row formulas and loops that the library's kernels and stacked paths
must match bit for bit."""

from __future__ import annotations

import math
from itertools import product

import numpy as np

from bjlab import BochnerElement, DegenerateDraw, SpaceSpec
from bjlab.blockspace import (
    BOUNDARY_BAND,
    DEFAULT_ZERO_TOL,
    ONE_SIDED_NOISE_FLOOR,
    _dot_rows,
    _duality_rows,
    _norm_arr,
    block_norms,
)
from bjlab.errors import BadSpec, NonFiniteValue
from bjlab.harness import CROSS_ROUTE_BAND
from bjlab.ortho import _PROBE_OFFSETS

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


def naive_inner_norm(v, q: float) -> float:
    v = np.asarray(v, dtype=float)
    if math.isinf(q):
        return float(np.abs(v).max())
    return float((np.abs(v) ** q).sum() ** (1.0 / q))


def reference_block_norms(blocks: np.ndarray, q: float) -> np.ndarray:
    """Row-wise l^q norms by the max-scaled power sum, every step on a fresh
    temporary: the formula blockspace.block_norms must match bit for bit."""
    a = np.abs(blocks)
    if math.isinf(q):
        return a.max(axis=1)
    if q == 1.0:
        return a.sum(axis=1)
    m = a.max(axis=1)
    if q == 2.0:
        # a sum of squares below 2^-900 may have underflowed: that row is
        # m sqrt(sum((v/m)^2)) instead
        s = np.einsum("ij,ij->i", blocks, blocks)
        u = blocks / np.where(m > 0.0, m, 1.0)[:, None]
        return np.where(s < 2.0 ** -900, m * np.sqrt(np.einsum("ij,ij->i", u, u)), np.sqrt(s))
    safe = np.where(m > 0.0, m, 1.0)
    return safe * ((a / safe[:, None]) ** q).sum(axis=1) ** (1.0 / q)


def reference_duality_rows(blocks: np.ndarray, q: float, active: np.ndarray,
                           norms: np.ndarray) -> np.ndarray:
    """blockspace._duality_rows as it was before its divisors were repeated
    to the rows' shape and q = 2 took v/m: the same map, each divisor
    broadcast along the short rows and every q through the power, sign and
    zero mask.  The kernel must match it bit for bit."""
    every = active.all()
    sub, norms = (blocks, norms) if every else (blocks[active], norms[active])
    a = np.abs(sub)
    m = a[:, 0].copy()
    for j in range(1, a.shape[1]):
        np.maximum(m, a[:, j], out=m)
    a /= m[:, None]
    zero = a == 0.0
    a **= q - 1.0
    np.copysign(a, sub, out=a)
    a[zero] = 0.0
    a /= (norms / m)[:, None] ** (q - 1.0)
    if every:
        return a
    out = np.zeros_like(blocks)
    out[active] = a
    return out


def formula_duality_rows(blocks: np.ndarray, q: float, active: np.ndarray,
                         norms: np.ndarray) -> np.ndarray:
    """Row-wise duality map sign(v)|v|^(q-1)/||v||_q^(q-1) on max-scaled
    rows, zero outside active: the formula blockspace._duality_rows must
    match bit for bit."""
    out = np.zeros_like(blocks)
    if active.any():
        sub = blocks[active]
        m = np.abs(sub).max(axis=1, keepdims=True)
        sub = sub / m
        bn = norms[active] / m[:, 0]
        out[active] = np.sign(sub) * np.abs(sub) ** (q - 1.0) / bn[:, None] ** (q - 1.0)
    return out


def reference_weighted_lp(b: np.ndarray, mu: np.ndarray, p: float) -> float:
    """(sum_i mu_i b_i^p)^(1/p) of nonnegative b, scaled by max(b) to avoid
    overflow; max(b) at p = inf: the formula of each row of
    blockspace._weighted_lp_rows, bit for bit."""
    if p == 1.0:
        return float(mu @ b)
    m = float(b.max())
    if p == 2.0:
        s = mu @ (b * b)
        if s < 2.0 ** -900 and m > 0.0:  # may have underflowed: scaled by m instead
            u = b / m
            return m * float(np.sqrt(mu @ (u * u)))
        return float(np.sqrt(s))
    if m == 0.0 or math.isinf(p):
        return m
    return m * float(mu @ (b / m) ** p) ** (1.0 / p)


def reference_weighted_lp_rows(b: np.ndarray, mu: np.ndarray, p: float) -> np.ndarray:
    """blockspace._weighted_lp_rows at p not in {1, 2, inf}, with its root
    m s^(1/p) taken lane by lane on Python floats: the loop the library's
    np.float_power replaced, which it must match bit for bit."""
    m = b.max(axis=1)
    s = _dot_rows((b / np.where(m > 0.0, m, 1.0)[:, None]) ** p, mu)
    e = 1.0 / p
    return np.array([mi and mi * si ** e for mi, si in zip(m.tolist(), s.tolist())])


def reference_squares(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """v ** 2 lane by lane on Python floats, inf where ** raises
    OverflowError, and the mask of those lanes: the loop that
    ortho._squares' np.float_power replaced, which it must match bit for
    bit."""
    squares, overflowed = [], []
    for a in v.tolist():
        try:
            squares.append(a ** 2)
            overflowed.append(False)
        except OverflowError:
            squares.append(math.inf)
            overflowed.append(True)
    return np.array(squares), np.array(overflowed)


def naive_batch_norm(arr: np.ndarray, spec: SpaceSpec) -> np.ndarray:
    """Norms of a (B, n, d) stack of elements via the plain formulas."""
    a = np.abs(arr)
    if math.isinf(spec.q):
        bn = a.max(axis=-1)
    else:
        bn = (a ** spec.q).sum(axis=-1) ** (1.0 / spec.q)
    return ((bn ** spec.p) @ spec.mu) ** (1.0 / spec.p)


def naive_norm(f: BochnerElement, spec: SpaceSpec) -> float:
    return float(naive_batch_norm(f.blocks[None], spec)[0])


def grid_min_gap(x: BochnerElement, y: BochnerElement, eps: float,
                 spec: SpaceSpec, points: int = 20001) -> float:
    """Dense-grid minimum of ||x + a y||^2 - ||x||^2 + 2 eps ||x|| ||y|| |a|
    over the bracket that contains every possible violation."""
    nx = naive_norm(x, spec)
    ny = naive_norm(y, spec)
    r = 4.0 * nx / ny
    alphas = np.linspace(-r, r, points)
    arr = x.blocks[None] + alphas[:, None, None] * y.blocks[None]
    norms = naive_batch_norm(arr, spec)
    psi = norms**2 - nx**2 + 2.0 * eps * nx * ny * np.abs(alphas)
    return float(psi.min())


def grid_min_norm(x: BochnerElement, y: BochnerElement, spec: SpaceSpec,
                  points: int = 20001) -> float:
    """Dense-grid minimum of ||x + a y|| over the same bracket."""
    nx = naive_norm(x, spec)
    ny = naive_norm(y, spec)
    r = 4.0 * nx / ny
    alphas = np.linspace(-r, r, points)
    arr = x.blocks[None] + alphas[:, None, None] * y.blocks[None]
    return float(naive_batch_norm(arr, spec).min())


def _norming_dual_vector(v: np.ndarray, q: float) -> np.ndarray:
    """Unit-dual-norm w with w.v = ||v||_q, from the plain formula."""
    nq = naive_inner_norm(v, q)
    return np.sign(v) * np.abs(v) ** (q - 1.0) / nq ** (q - 1.0)


def brute_min_certificate(x: BochnerElement, y: BochnerElement,
                          spec: SpaceSpec, grid: int = 41,
                          zero_tol: float = 1e-12) -> float:
    """Exhaustive p = 1 oracle for the smallest |T(y)| over support
    functionals of x.

    Nonzero blocks force the norming functional; each zero block contributes
    t_i * mu_i * ||y_i||_q with t_i on a grid over [-1, 1].  The reachable
    values form an interval whose endpoints are grid corners, so a sign
    straddle across enumerated values means 0 is attainable.
    """
    assert spec.p == 1.0
    mu = spec.mu
    scale = max(naive_inner_norm(b, spec.q) for b in x.blocks)
    s = 0.0
    spans = []
    for i in range(spec.n):
        bi = naive_inner_norm(x.blocks[i], spec.q)
        if bi <= zero_tol * scale:
            spans.append(mu[i] * naive_inner_norm(y.blocks[i], spec.q))
        else:
            s += mu[i] * float(_norming_dual_vector(x.blocks[i], spec.q) @ y.blocks[i])
    if not spans:
        return abs(s)
    ts = np.linspace(-1.0, 1.0, grid)
    vals = np.array([s + sum(t * c for t, c in zip(combo, spans))
                     for combo in product(ts, repeat=len(spans))])
    if vals.min() <= 0.0 <= vals.max():
        return 0.0
    return float(np.abs(vals).min())


def brute_min_certificate_fullball(x: BochnerElement, y: BochnerElement,
                                   spec: SpaceSpec, grid: int = 41) -> float:
    """Coarser p = 1 oracle that walks the whole dual ball of every zero
    block (d = 2 only) instead of the norming-direction slice."""
    assert spec.p == 1.0 and spec.d == 2
    qstar = spec.q / (spec.q - 1.0)
    mu = spec.mu
    scale = max(naive_inner_norm(b, spec.q) for b in x.blocks)
    s = 0.0
    reach = []  # per zero block: attainable values of mu_i T_i.y_i
    axis = np.linspace(-1.0, 1.0, grid)
    ball = np.array([[u, w] for u in axis for w in axis
                     if naive_inner_norm([u, w], qstar) <= 1.0])
    for i in range(spec.n):
        bi = naive_inner_norm(x.blocks[i], spec.q)
        if bi <= 1e-12 * scale:
            reach.append(ball @ y.blocks[i] * mu[i])
        else:
            s += mu[i] * float(_norming_dual_vector(x.blocks[i], spec.q) @ y.blocks[i])
    if not reach:
        return abs(s)
    vals = np.array([s])
    for r in reach:
        vals = (vals[:, None] + r[None, :]).ravel()
    if vals.min() <= 0.0 <= vals.max():
        return 0.0
    return float(np.abs(vals).min())


def forward_diff_gradient(v, q: float, h: float = 1e-6) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    base = naive_inner_norm(v, q)
    out = np.zeros_like(v)
    for j in range(len(v)):
        e = np.zeros_like(v)
        e[j] = h
        out[j] = (naive_inner_norm(v + e, q) - base) / h
    return out


def central_diff_gradient(v, q: float, h: float = 1e-6) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    out = np.zeros_like(v)
    for j in range(len(v)):
        e = np.zeros_like(v)
        e[j] = h
        out[j] = (naive_inner_norm(v + e, q) - naive_inner_norm(v - e, q)) / (2.0 * h)
    return out


def mc_dual_norm(T, spec: SpaceSpec, samples: int,
                 rng: np.random.Generator) -> float:
    """sup |T(g)| over random unit g, the Monte-Carlo duality oracle.

    Mixes full-support Gaussian draws with single-atom draws so the p = 1
    supremum (attained on one atom) is reachable too.
    """
    tb = np.asarray(T.blocks, dtype=float)
    best = 0.0
    arr = rng.standard_normal((samples, spec.n, spec.d))
    one_atom = rng.integers(0, spec.n, size=samples)
    half = samples // 2
    for k in range(half, samples):
        keep = one_atom[k]
        mask = np.zeros(spec.n, dtype=bool)
        mask[keep] = True
        arr[k, ~mask] = 0.0
    norms = naive_batch_norm(arr, spec)
    pair = np.einsum("i,ij,kij->k", spec.mu, tb, arr)
    good = norms > 0.0
    return float((np.abs(pair[good]) / norms[good]).max())


def reference_secant_lower_bound(alphas, values) -> float:
    """The convex secant lower bound as a loop over the intervals on Python
    floats: the bits ortho._secant_lower_bound must give for each row."""
    m = len(alphas) - 1
    widths = [alphas[j + 1] - alphas[j] for j in range(m)]
    slopes = [(values[j + 1] - values[j]) / widths[j] for j in range(m)]
    if not all(map(math.isfinite, slopes)):
        return -math.inf
    bound = math.inf
    for i in range(m):
        w = widths[i]
        left = (values[i], slopes[i - 1]) if i > 0 else None
        right = ((values[i + 1] - slopes[i + 1] * w, slopes[i + 1])
                 if i + 1 < m else None)
        (c0, k0), (c1, k1) = left or right, right or left
        low = min(max(c0, c1), max(c0 + k0 * w, c1 + k1 * w))
        if k1 != k0:
            u = min(max((c0 - c1) / (k1 - k0), 0.0), w)
            low = min(low, max(c0 + k0 * u, c1 + k1 * u))
        bound = min(bound, low)
    return bound


def _finite(phi):
    """phi as a float-valued function that raises NonFiniteValue on inf/nan
    or overflow."""
    def f(alpha: float) -> float:
        try:
            val = float(phi(alpha))
        except OverflowError as exc:  # a Python float power out of range
            raise NonFiniteValue(f"objective returned inf at alpha={alpha}") from exc
        if not math.isfinite(val):
            raise NonFiniteValue(f"objective returned {val} at alpha={alpha}")
        return val
    return f


def reference_minimize_convex_1d(phi, radius: float, tol: float = 1e-12,
                                 max_iter: int = 200) -> tuple[float, float]:
    """Golden-section minimum of a convex phi over [-radius, radius], one
    point at a time on Python floats: what each row of
    ortho._golden_sections must give, bit for bit.

    tol is the terminal bracket width relative to radius; the loop also
    stops once the bracket stops shrinking.  Returns the best (alpha,
    phi(alpha)) over all probe points, endpoints and 0 included, so the
    reported value never exceeds any evaluated one.
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
    width_goal, last = tol * radius, math.inf
    for _ in range(max_iter):
        if fc < best_v:
            best_a, best_v = c, fc
        if fd < best_v:
            best_a, best_v = d, fd
        if (b - a) <= width_goal or not (b - a) < last:
            break
        last = b - a
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - _INV_PHI * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INV_PHI * (b - a)
            fd = f(d)
    return best_a, best_v


def _reference_one_sided(phi, radius, at_zero, level, scale, tol):
    """(verdict, margin, boundary) of the one-sided check of one pair: the 13
    probes one at a time, then golden section when they do not certify."""
    f = _finite(phi)
    probes = []
    for offset in _PROBE_OFFSETS if 0.0 < radius < math.inf else ():
        alpha = offset * radius
        value = f(alpha)
        if value < level:
            break
        probes.append((alpha, value))
    if len(probes) == len(_PROBE_OFFSETS):
        alphas, values = zip(*sorted(probes))
        if not (all(a < b for a, b in zip(alphas, alphas[1:]))
                and reference_secant_lower_bound(alphas, values) >= level):
            probes = []
    if len(probes) == len(_PROBE_OFFSETS):
        alpha, val = min(probes, key=lambda p: p[1])
    else:
        alpha, val = reference_minimize_convex_1d(phi, radius)
    margin = (min(val, at_zero) - at_zero) / scale
    return margin >= -tol, margin, -BOUNDARY_BAND * tol < margin < -ONE_SIDED_NOISE_FLOOR


def reference_duality_weights(blocks: np.ndarray, spec: SpaceSpec
                              ) -> tuple[float, np.ndarray, np.ndarray, np.ndarray]:
    """The blockwise duality map of f: (||f||, b, w, F).

    b holds the block norms ||f_i||_q, w the row weights (b_i/||f||)^(p-1)
    and F the norming functionals of the blocks above DEFAULT_ZERO_TOL
    (relative to the largest block norm), zero rows elsewhere.  The support
    functional of f is w[:, None] * F, and the semi-inner product is
    [g, f] = ||f|| sum_i mu_i w_i F_i.g_i.  At f = 0 the norm is 0 and w, F
    are zero.
    """
    b = block_norms(blocks, spec.q)
    nf = reference_weighted_lp(b, spec.mu, spec.p)
    if nf == 0.0:
        return 0.0, b, np.zeros_like(b), np.zeros_like(blocks)
    F = _duality_rows(blocks, spec.q, b > DEFAULT_ZERO_TOL * float(b.max()), b)
    return nf, b, (b / nf) ** (spec.p - 1.0), F


def reference_pairing(tb: np.ndarray, gb: np.ndarray, spec: SpaceSpec) -> float:
    """sum_i mu_i T_i.g_i on raw block arrays."""
    return float(spec.mu @ np.einsum("ij,ij->i", tb, gb))


def _reference_usable(rng: np.random.Generator, spec: SpaceSpec) -> np.ndarray:
    """Standard normal blocks, redrawn until their norm reaches 1e-6."""
    for _ in range(100):
        xb = rng.standard_normal((spec.n, spec.d))
        if _norm_arr(xb, spec) >= 1e-6:
            return xb
    raise DegenerateDraw("could not draw an element of usable norm")


def _reference_pair(rng: np.random.Generator, spec: SpaceSpec
                    ) -> tuple[np.ndarray, np.ndarray]:
    """A usable x, then z projected against x, redrawn on a collapsed
    partner."""
    for _ in range(100):
        xb = _reference_usable(rng, spec)
        zb = rng.standard_normal((spec.n, spec.d))
        nx, _, w, F = reference_duality_weights(xb, spec)
        yb = zb - (reference_pairing(w[:, None] * F, zb, spec) / nx) * xb
        if _norm_arr(yb, spec) > 1e-9 * _norm_arr(zb, spec):
            return xb, yb
    raise DegenerateDraw("partner collapsed to zero on every redraw")


def _reference_exact(xb, yb, spec: SpaceSpec, tol: float) -> tuple:
    """(verdict, margin, boundary) of the exact check by probes and golden
    section."""
    nx, ny = _norm_arr(xb, spec), _norm_arr(yb, spec)

    def phi(a):
        return nx if a == 0.0 else _norm_arr(xb + a * yb, spec)

    return _reference_one_sided(phi, 4.0 * nx / ny, nx,
                                (1.0 - ONE_SIDED_NOISE_FLOOR) * nx, nx, tol)


def _reference_approx(xb, yb, eps: float, spec: SpaceSpec, tol: float) -> tuple:
    """(verdict, margin, boundary) of the approximate check by probes and
    golden section."""
    nx, ny = _norm_arr(xb, spec), _norm_arr(yb, spec)
    kink, nx2 = 2.0 * eps * nx * ny, nx * nx

    def psi(a):
        if a == 0.0:
            return nx ** 2 - nx2
        return _norm_arr(xb + a * yb, spec) ** 2 - nx2 + kink * abs(a)

    return _reference_one_sided(psi, 4.0 * nx / ny, 0.0,
                                -ONE_SIDED_NOISE_FLOOR * nx2, nx2, tol)


def _reference_certificate(xb, yb, eps: float, spec: SpaceSpec, tol: float) -> tuple:
    """(verdict, margin, boundary) of the certificate check."""
    _, _, w, F = reference_duality_weights(xb, spec)
    T = w[:, None] * F
    s = reference_pairing(T, yb, spec)
    by = block_norms(yb, spec.q)
    ny = reference_weighted_lp(by, spec.mu, spec.p)
    free = ~T.any(axis=1)
    if spec.p == 1.0 and free.any():
        mcv = max(0.0, abs(s) - float((spec.mu * by)[free].sum()))
    else:
        mcv = abs(s)
    margin = (eps * ny - mcv) / ny
    return margin >= -tol, margin, abs(margin) < BOUNDARY_BAND * tol


def _reference_outcome(*results) -> str:
    if any(r[2] for r in results):
        return "boundary"
    return "pass" if all(r[0] for r in results) else "fail"


def reference_sweep_row(U, eps: float, spec: SpaceSpec, rng: np.random.Generator,
                        tol: float = 1e-9) -> tuple:
    """One preservation trial as a scalar pipeline on one pair: draw x until
    its norm reaches 1e-6, then z, project z against x, redraw on a
    collapsed partner; apply U; the approximate check by probes and golden
    section; the certificate margin.  Returns (direct verdict, direct
    margin, second verdict, second margin, outcome), what a sweep row of the
    stacked trial must equal."""
    xb, yb = _reference_pair(rng, spec)
    ux, uy = U.factors[:, None] * xb, U.factors[:, None] * yb
    direct = _reference_approx(ux, uy, eps, spec, tol)
    second = _reference_certificate(ux, uy, eps, spec, tol)
    return direct[0], direct[1], second[0], second[1], _reference_outcome(direct, second)


def reference_check_row(eps, spec: SpaceSpec, rng: np.random.Generator,
                        tol: float = 1e-9) -> tuple:
    """A check-ortho (eps None) or check-approx row after its (trial, seed,
    p, q, n, d) prefix, and its outcome."""
    xb, yb = _reference_pair(rng, spec)
    if eps is None:
        res = _reference_exact(xb, yb, spec, tol)
    else:
        res = _reference_approx(xb, yb, eps, spec, tol)
    return ((0.0 if eps is None else eps, res[0], res[1], "none", "", "", res[2]),
            _reference_outcome(res))


def reference_sip_row(eps: float, spec: SpaceSpec, rng: np.random.Generator,
                      tol: float = 1e-9) -> tuple:
    """A sip row after its prefix, and its outcome: the direct check and
    the certificate on two usable random elements, which must agree outside
    the cross-route band."""
    xb = _reference_usable(rng, spec)
    yb = _reference_usable(rng, spec)
    direct = _reference_approx(xb, yb, eps, spec, tol)
    crit = _reference_certificate(xb, yb, eps, spec, tol)
    if direct[2] or crit[2] or abs(crit[1]) < CROSS_ROUTE_BAND:
        agreement = "boundary"
    else:
        agreement = "pass" if direct[0] == crit[0] else "fail"
    return ((eps, direct[0], direct[1], "sip", crit[0], crit[1], agreement == "boundary"),
            agreement)


def reference_axiom_row(spec: SpaceSpec, rng: np.random.Generator,
                        tol: float = 1e-9) -> tuple:
    """An axioms row after its prefix, and its outcome: the four axiom
    residuals of one sample, each semi-inner product a full contraction
    with the weights ||g|| mu_i (||g_i||/||g||)^(p-1) F_{g_i}."""
    fb, gb, hb = (rng.standard_normal((spec.n, spec.d)) for _ in range(3))
    a, b = rng.standard_normal(2).tolist()

    def weights(blocks):
        ng, _, w, F = reference_duality_weights(blocks, spec)
        return ng, (ng * spec.mu * w)[:, None] * F

    def pair(w, blocks):
        return float(np.einsum("ij,ij->", w, blocks))

    (nf, w_f), (ng, w_g), (nh, w_h) = weights(fb), weights(gb), weights(hb)
    w_ag = weights(a * gb)[1]
    scale = (1.0 + nf) * (1.0 + ng) * (1.0 + nh) * (1.0 + abs(a) + abs(b)) ** 2
    lin = abs(pair(w_h, a * fb + b * gb) - a * pair(w_h, fb) - b * pair(w_h, gb))
    hom = abs(pair(w_ag, fb) - a * pair(w_g, fb))
    cs = max(0.0, abs(pair(w_g, fb)) - nf * ng)
    norm_gap = abs(pair(w_f, fb) - nf * nf)
    ok = max(lin, hom, cs, norm_gap) / scale <= tol
    return (a, b, lin, hom, cs, norm_gap, scale, ok), "pass" if ok else "fail"
