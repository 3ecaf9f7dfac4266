"""Independent oracles the tests check the library against: dense grids,
exhaustive enumeration, finite differences, and Monte-Carlo duality.  These
recompute norms from the plain power-sum formulas so they share no code path
with the implementation under test."""

from __future__ import annotations

import math
from itertools import product

import numpy as np

from bjlab import BochnerElement, SpaceSpec


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
    if q == 2.0:
        return np.sqrt(np.einsum("ij,ij->i", blocks, blocks))
    m = a.max(axis=1)
    safe = np.where(m > 0.0, m, 1.0)
    return safe * ((a / safe[:, None]) ** q).sum(axis=1) ** (1.0 / q)


def reference_duality_rows(blocks: np.ndarray, q: float, active: np.ndarray,
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
