"""Discretized vector-valued L^p space: norms, dual pairing, support functionals.

The measure space is n atoms with masses mu_i > 0; elements are n blocks in
R^d, each block normed by an inner l^q norm.  Every integral is a finite
weighted sum, so duality and support functionals have closed forms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .errors import (
    BadSpec,
    NonFiniteValue,
    NotSmooth,
    ShapeMismatch,
    ZeroElement,
    ZeroVector,
)

# Default decision tolerance (relative) for orthogonality verdicts.
DEFAULT_TOL = 1e-9
# Relative threshold below which a block counts as zero.
DEFAULT_ZERO_TOL = 1e-12
# Verdicts with margins within BOUNDARY_BAND * tol of the threshold are
# reported as boundary cases rather than forced.
BOUNDARY_BAND = 10.0
# Margins of minimization-based checks sit at exactly 0 on passes (the
# objective vanishes at alpha = 0); anything above this floor is rounding
# noise, not an uncertain verdict.
ONE_SIDED_NOISE_FLOOR = 1e-13


def _is_int(v) -> bool:
    """True for Python and NumPy integers; False for bool, which is an int
    subclass but never a count or an index."""
    return type(v) is int or isinstance(v, np.integer)


def _is_number(v) -> bool:
    """True for Python and NumPy integers and floats; not bool or strings."""
    return type(v) in (int, float) or isinstance(v, (np.integer, np.floating))


def dual_exponent(r: float) -> float:
    """Conjugate exponent r* with 1/r + 1/r* = 1; handles r in {1, inf}."""
    if r == 1.0:
        return math.inf
    if math.isinf(r):
        return 1.0
    return r / (r - 1.0)


@dataclass(frozen=True)
class SpaceSpec:
    """Parameters of the discretized space: outer exponent p over n weighted
    atoms, blocks of dimension d normed by l^q."""

    p: float
    q: float
    n: int
    d: int
    weights: tuple[float, ...]

    def __post_init__(self):
        try:
            object.__setattr__(self, "p", float(self.p))
            object.__setattr__(self, "q", float(self.q))
            mu = np.array(self.weights, dtype=float)
        except (TypeError, ValueError) as exc:
            raise BadSpec(f"p, q and weights must be numeric: {exc}") from exc
        if not (self.p >= 1.0 and math.isfinite(self.p)):
            raise BadSpec(f"p must satisfy 1 <= p < inf, got {self.p}")
        if not self.q >= 1.0:
            raise BadSpec(f"q must satisfy 1 <= q <= inf, got {self.q}")
        if not (_is_int(self.n) and _is_int(self.d) and self.n >= 1 and self.d >= 1):
            raise BadSpec(f"n and d must be integers >= 1, got n={self.n!r}, d={self.d!r}")
        if mu.shape != (self.n,) or not np.all(np.isfinite(mu) & (mu > 0.0)):
            raise BadSpec(f"need {self.n} positive finite weights, got {self.weights!r}")
        object.__setattr__(self, "weights", tuple(mu.tolist()))
        object.__setattr__(self, "_mu", mu)

    @classmethod
    def sequence(cls, p: float, q: float, n: int, d: int) -> "SpaceSpec":
        """Sequence-space instance: n atoms of unit mass."""
        return cls(p=p, q=q, n=n, d=d, weights=(1.0,) * n)

    @property
    def mu(self) -> np.ndarray:
        return self._mu

    def require_smooth_inner(self) -> None:
        """Raise NotSmooth unless the inner norm is Frechet differentiable
        (1 < q < inf), as support functionals and semi-inner products need."""
        if not 1.0 < self.q < math.inf:
            raise NotSmooth(f"inner norm is not smooth: need 1 < q < inf, got q={self.q}")

    def to_dict(self) -> dict:
        q = "inf" if math.isinf(self.q) else self.q
        return {"p": self.p, "q": q, "n": self.n, "d": self.d,
                "weights": list(self.weights)}

    @classmethod
    def from_dict(cls, data: dict) -> "SpaceSpec":
        """Inverse of to_dict: q may be the string "inf".  Raises BadSpec
        unless data is an object with exactly the keys p, q, n, d, weights,
        and p, q and the weights are numbers."""
        keys = [f.name for f in fields(cls)]
        if not isinstance(data, dict):
            raise BadSpec(f"must be an object {{{', '.join(keys)}}}")
        unknown = set(data) - set(keys)
        if unknown:
            raise BadSpec(f"unknown key(s): {', '.join(sorted(unknown))}")
        missing = set(keys) - set(data)
        if missing:
            raise BadSpec(f"missing key(s): {', '.join(sorted(missing))}")
        q = data["q"]
        if isinstance(q, str):
            if q.lower() not in ("inf", "infinity"):
                raise BadSpec(f"unrecognized q value {q!r}")
            q = math.inf
        weights = data["weights"]
        if not (isinstance(weights, list) and all(map(_is_number, [data["p"], q, *weights]))):
            raise BadSpec(f"p, q and weights must be numbers, got p={data['p']!r}, q={q!r}, "
                          f"weights={weights!r}")
        return cls(**{**data, "q": q})


def _as_blocks(blocks, what: str) -> np.ndarray:
    arr = np.asarray(blocks, dtype=float)
    if arr.ndim != 2:
        raise ShapeMismatch(f"{what} must be a 2-d array of blocks, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise NonFiniteValue(f"{what} contains non-finite entries")
    return arr


@dataclass
class BochnerElement:
    """A space element: block i is the value on atom i (an R^d vector)."""

    blocks: np.ndarray

    def __post_init__(self):
        self.blocks = _as_blocks(self.blocks, "element")

    @classmethod
    def from_lists(cls, rows) -> "BochnerElement":
        return cls(np.array(rows, dtype=float))

    def to_lists(self) -> list[list[float]]:
        return self.blocks.tolist()

    def __add__(self, other: "BochnerElement") -> "BochnerElement":
        return BochnerElement(self.blocks + other.blocks)

    def __sub__(self, other: "BochnerElement") -> "BochnerElement":
        return BochnerElement(self.blocks - other.blocks)

    def __mul__(self, a: float) -> "BochnerElement":
        return BochnerElement(self.blocks * float(a))

    __rmul__ = __mul__

    def __neg__(self) -> "BochnerElement":
        return BochnerElement(-self.blocks)


@dataclass
class BlockFunctional:
    """A dual element: block i acts on atom i, pairing sum_i mu_i T_i.g_i."""

    blocks: np.ndarray

    def __post_init__(self):
        self.blocks = _as_blocks(self.blocks, "functional")

    @classmethod
    def from_lists(cls, rows) -> "BlockFunctional":
        return cls(np.array(rows, dtype=float))

    def to_lists(self) -> list[list[float]]:
        return self.blocks.tolist()


@dataclass(frozen=True)
class CheckResult:
    """Outcome of an orthogonality query.

    margin is the signed distance from the defining inequality's boundary
    (relative units); verdict == (margin >= -tol) for the tolerance in force.
    boundary marks verdicts too close to the threshold to trust.
    """

    verdict: bool
    margin: float
    alpha_star: float | None = None
    certificate: BlockFunctional | None = None
    boundary: bool = False

    def __post_init__(self):
        object.__setattr__(self, "verdict", bool(self.verdict))
        object.__setattr__(self, "margin", float(self.margin))
        object.__setattr__(self, "boundary", bool(self.boundary))
        if self.alpha_star is not None:
            object.__setattr__(self, "alpha_star", float(self.alpha_star))


def check_shape(x, spec: SpaceSpec, what: str = "element") -> np.ndarray:
    blocks = x.blocks
    if blocks.shape != (spec.n, spec.d):
        raise ShapeMismatch(
            f"{what} has shape {blocks.shape}, space expects {(spec.n, spec.d)}")
    return blocks


def inner_norm(v, q: float) -> float:
    """l^q norm of a single block; q may be inf."""
    row = _as_blocks(np.reshape(v, (1, -1)), "vector")
    if not q >= 1.0:
        raise BadSpec(f"q must be >= 1, got {q}")
    return float(block_norms(row, q)[0]) if row.size else 0.0


def _row_max(a: np.ndarray) -> np.ndarray:
    """Row maxima of a 2-d array of blocks."""
    # exact in any order; a column-major copy reduces ~8x faster than short C rows
    return np.asfortranarray(a).max(axis=1)


def block_norms(blocks: np.ndarray, q: float) -> np.ndarray:
    """Row-wise l^q norms, scaled to avoid overflow for large q."""
    if q == 2.0:
        return np.sqrt(np.einsum("ij,ij->i", blocks, blocks))
    a = np.abs(blocks)  # an owned copy: the powers below work in place on it
    if math.isinf(q):
        return _row_max(a)
    if q == 1.0:
        return a.sum(axis=1)
    m = _row_max(a)
    safe = np.where(m > 0.0, m, 1.0)  # zero rows stay zero: 0 ** (1/q) = 0
    a /= safe[:, None]
    a **= q
    # summed along C-ordered rows: NumPy's pairwise order there is part of
    # the result's last bit
    return safe * a.sum(axis=1) ** (1.0 / q)


def inner_duality_map(v, q: float) -> np.ndarray:
    """Unique norming functional F_v of a nonzero block in smooth l^q.

    Components sign(v_j)|v_j|^(q-1) / ||v||_q^(q-1); satisfies F_v.v = ||v||_q
    and ||F_v||_{q*} = 1.  Equals the gradient of the l^q norm at v.
    """
    row = _as_blocks(np.reshape(v, (1, -1)), "vector")
    if q == 1.0 or math.isinf(q):
        raise NotSmooth(f"duality map is set-valued for q={q}")
    if not q >= 1.0:
        raise BadSpec(f"q must be > 1, got {q}")
    if not np.any(row):
        raise ZeroVector("duality map undefined at 0")
    return _duality_rows(row, q, np.ones(1, dtype=bool), block_norms(row, q))[0]


def _duality_rows(blocks: np.ndarray, q: float, active: np.ndarray,
                  norms: np.ndarray) -> np.ndarray:
    """Row-wise duality map; rows outside `active` come back zero.

    norms holds the rows' l^q norms, block_norms(blocks, q).
    """
    # when every row is active the rows are computed in place of the
    # output: a boolean gather and scatter cost twice the formula at n=4096
    every = active.all()
    sub, norms = (blocks, norms) if every else (blocks[active], norms[active])
    m = _row_max(np.abs(sub))
    sub = sub / m[:, None]
    bn = norms / m
    a = np.abs(sub)
    a **= q - 1.0
    a *= np.sign(sub)
    a /= bn[:, None] ** (q - 1.0)
    if every:
        return a
    out = np.zeros_like(blocks)
    out[active] = a
    return out


def _dot_rows(a: np.ndarray, mu: np.ndarray) -> np.ndarray:
    """mu @ a[i] for each row of a 2-d array, bit for bit (a @ mu sums in
    another order)."""
    return np.matmul(a[:, None, :], mu)[:, 0]


def _weighted_lp_rows(b: np.ndarray, mu: np.ndarray, p: float) -> np.ndarray:
    """(sum_i mu_i b_i^p)^(1/p) of each nonnegative row of a 2-d array b,
    scaled by the row's max m to avoid overflow; m itself at p = inf."""
    if math.isinf(p):
        return b.max(axis=1)
    if p == 1.0:
        return _dot_rows(b, mu)
    if p == 2.0:
        return np.sqrt(_dot_rows(b * b, mu))
    m = b.max(axis=1)
    s = _dot_rows((b / np.where(m > 0.0, m, 1.0)[:, None]) ** p, mu)
    # m s^(1/p) on Python floats: NumPy's vector power differs from Python's
    # in the last bit on some values
    return np.array([mi and mi * si ** (1.0 / p) for mi, si in zip(m.tolist(), s.tolist())])


def _norm_from_block_norms(b: np.ndarray, spec: SpaceSpec) -> float:
    return float(_weighted_lp_rows(b[None], spec.mu, spec.p)[0])


def _norm_arr(blocks: np.ndarray, spec: SpaceSpec) -> float:
    """bochner norm on a raw block array (hot path, no validation)."""
    return _norm_from_block_norms(block_norms(blocks, spec.q), spec)


def _take(stack: np.ndarray, rows) -> np.ndarray:
    """stack[rows] for increasing row indices; stack itself, not a copy,
    when they are all of its rows."""
    return stack if len(rows) == len(stack) else stack[rows]


def _norm_rows(stack: np.ndarray, spec: SpaceSpec) -> tuple[np.ndarray, np.ndarray]:
    """(block norms (B, n), Bochner norms (B,)) of a (B, n, d) stack of block
    arrays, each row's bits those of _norm_arr on it."""
    b = block_norms(stack.reshape(-1, spec.d), spec.q).reshape(stack.shape[:2])
    return b, _weighted_lp_rows(b, spec.mu, spec.p)


def bochner_norm(f: BochnerElement, spec: SpaceSpec) -> float:
    """(sum_i mu_i ||f_i||_q^p)^(1/p)."""
    return _norm_arr(check_shape(f, spec), spec)


def zero_set(f: BochnerElement, tol: float | None = None, q: float = 2.0) -> frozenset[int]:
    """Indices of blocks with ||f_i||_q <= tol.

    tol defaults to DEFAULT_ZERO_TOL relative to the largest block norm,
    since elements come from floating-point arithmetic.
    """
    b = block_norms(f.blocks, q)
    if tol is None:
        tol = DEFAULT_ZERO_TOL * (float(b.max()) if b.size else 0.0)
    elif not tol >= 0.0:
        raise BadSpec(f"tol must be >= 0, got {tol}")
    return frozenset(int(i) for i in np.nonzero(b <= tol)[0])


def _duality_stack(stack: np.ndarray, b: np.ndarray, norms: np.ndarray,
                   spec: SpaceSpec) -> tuple[np.ndarray, np.ndarray]:
    """(w, F) of a (B, n, d) stack, given its block norms b and a positive
    divisor per row (the row's norm when nonzero): w holds the row weights
    (b_i / divisor)^(p-1), F the norming functional of each block above
    DEFAULT_ZERO_TOL (relative to the row's largest block norm) and zero
    blocks elsewhere.  A row f's support functional is w[:, None] * F, and
    [g, f] = ||f|| sum_i mu_i w_i F_i.g_i."""
    active = b > DEFAULT_ZERO_TOL * b.max(axis=1, keepdims=True)
    F = _duality_rows(stack.reshape(-1, spec.d), spec.q, active.ravel(), b.ravel())
    return (b / norms[:, None]) ** (spec.p - 1.0), F.reshape(stack.shape)


def _support_stack(stack: np.ndarray, b: np.ndarray, norms: np.ndarray,
                   spec: SpaceSpec) -> np.ndarray:
    """Blocks of the support functionals w[:, None] * F (_duality_stack) of a
    (B, n, d) stack of nonzero elements, given _norm_rows(stack)."""
    w, F = _duality_stack(stack, b, norms, spec)
    return w[:, :, None] * F


def _support_norms(stack: np.ndarray, spec: SpaceSpec
                   ) -> tuple[np.ndarray, np.ndarray]:
    """_norm_rows of a (B, n, d) stack whose support functionals are wanted;
    raises NotSmooth unless 1 < q < inf, then ZeroElement at a zero row."""
    spec.require_smooth_inner()
    b, norms = _norm_rows(stack, spec)
    if not norms.all():
        raise ZeroElement("support functional undefined at 0")
    return b, norms


def support_functional(f: BochnerElement, spec: SpaceSpec) -> BlockFunctional:
    """Canonical norm-one functional T with T(f) = ||f||.

    Blockwise: the norming functional of each nonzero block, weighted by
    (||f_i||_q / ||f||)^(p-1) (1 when p = 1); zero on zero blocks.  The
    zero-block entries of the dual ball's remaining freedom (p = 1 only) are
    fixed to 0 here; ortho.min_certificate_value optimizes over that freedom
    instead.
    """
    stack = check_shape(f, spec)[None]
    return BlockFunctional(_support_stack(stack, *_support_norms(stack, spec), spec)[0])


def _pairing_rows(T: np.ndarray, G: np.ndarray, spec: SpaceSpec) -> np.ndarray:
    """sum_i mu_i T_i.g_i for each row of two (B, n, d) stacks, each row with
    the bits of mu @ its blockwise dot products."""
    return _dot_rows(np.einsum("bij,bij->bi", T, G), spec.mu)


def apply_functional(T: BlockFunctional, g: BochnerElement, spec: SpaceSpec) -> float:
    """Dual pairing sum_i mu_i T_i.g_i."""
    return float(_pairing_rows(check_shape(T, spec, "functional")[None],
                               check_shape(g, spec)[None], spec)[0])


def functional_norm(T: BlockFunctional, spec: SpaceSpec) -> float:
    """Operator norm of a block functional: the weighted l^{p*} aggregate of
    the block dual norms ||T_i||_{q*}, the discrete L^{p*} duality (the max
    at p = 1, since the dual of L^1 is L^inf)."""
    tb = check_shape(T, spec, "functional")
    b = block_norms(tb, dual_exponent(spec.q))
    return float(_weighted_lp_rows(b[None], spec.mu, dual_exponent(spec.p))[0])


def outcome(*results: CheckResult) -> str:
    """A row's outcome over its check results: boundary when any is flagged
    boundary, else pass when every verdict holds, else fail."""
    if any(r.boundary for r in results):
        return "boundary"
    return "pass" if all(r.verdict for r in results) else "fail"
