"""Discretized vector-valued L^p space: norms, dual pairing, support functionals.

The measure space is n atoms with masses mu_i > 0; elements are n blocks in
R^d, each block normed by an inner l^q norm.  Every integral is a finite
weighted sum, so duality and support functionals have closed forms.
"""

from __future__ import annotations

import math
import threading
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

# The decision tolerance (relative) of every verdict.
DEFAULT_TOL = 1e-9
# Relative threshold below which a block counts as zero.
DEFAULT_ZERO_TOL = 1e-12
# Verdicts with margins within BOUNDARY_BAND * DEFAULT_TOL of the threshold are
# reported as boundary cases rather than forced.
BOUNDARY_BAND = 10.0
# Margins of minimization-based checks sit at exactly 0 on passes (the
# objective vanishes at alpha = 0); anything above this floor is rounding
# noise, not an uncertain verdict.
ONE_SIDED_NOISE_FLOOR = 1e-13
SQUARES_FLOOR = 2.0 ** -900  # a sum of squares below it may have lost bits to underflow


# Entries (rows x n x d) of one stack of rows: 256 KiB of float64, so the
# few stacks a sweep keeps live fit a core's L2 cache (see _budget_rows).
STACK_ENTRIES = 2**15

# Each thread's workspace: its attributes are the float64 buffers _scratch
# hands out, each as long as the longest array asked of it in the thread.
_WORKSPACE = threading.local()


def _budget_rows(entries: int) -> int:
    """Arrays of `entries` entries per STACK_ENTRIES, at least 1."""
    return max(1, STACK_ENTRIES // entries)


def _scratch(name: str, shape: tuple) -> np.ndarray:
    """An uninitialized float64 array of shape, a view of this thread's buffer
    `name` (grown when short), valid until the next _scratch(name) in the
    thread: a stack's arrays keep their pages from row to row and run to run,
    and no public result is one, as _as_blocks copies."""
    buffers = vars(_WORKSPACE)
    size = math.prod(shape)
    buf = buffers.get(name)
    if buf is None or len(buf) < size:
        buf = buffers[name] = np.empty(size)
    return buf[:size].reshape(shape)


def _repeat(values: np.ndarray, shape: tuple) -> np.ndarray:
    """values (one per block) repeated along the blocks' last axis to shape:
    an operation on two arrays of one shape runs along the long axis, where
    one broadcast along the blocks runs along rows of d."""
    return np.repeat(values, shape[-1]).reshape(shape)


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
            values = (self.p, self.q, *self.weights)
        except TypeError:  # weights is not a sequence
            values = ()
        if not (values and all(map(_is_number, values))):
            raise BadSpec(f"p, q and weights must be numbers, got p={self.p!r}, "
                          f"q={self.q!r}, weights={self.weights!r}")
        object.__setattr__(self, "p", float(self.p))
        object.__setattr__(self, "q", float(self.q))
        mu = np.array(values[2:], dtype=float)
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
        unless data is an object with exactly the keys p, q, n, d, weights
        that make a valid SpaceSpec."""
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
        return cls(**{**data, "q": q})


def _real_array(values, what: str) -> np.ndarray:
    """values as a new float64 array (from bool, int, float, numeric string
    or Fraction); ShapeMismatch if ragged, BadSpec if complex or not numeric."""
    try:
        arr = np.asarray(values)
    except ValueError as exc:  # nested sequences of unequal lengths
        raise ShapeMismatch(f"{what} is ragged: {exc}") from exc
    # a float conversion would drop the imaginary parts
    if arr.dtype.kind == "c" or arr.dtype == object and any(
            isinstance(v, (complex, np.complexfloating)) for v in arr.flat):
        raise BadSpec(f"{what} has complex entries")
    try:  # entry by entry, as a list mixing bools and numeric strings needs
        return np.array(values, dtype=float)
    except (TypeError, ValueError) as exc:
        raise BadSpec(f"{what} must hold real numbers: {exc}") from exc


def _as_blocks(blocks, what: str) -> np.ndarray:
    """blocks as a new finite 2-d float64 array, a copy even of one: every
    element and functional owns its blocks, never a view of its argument or
    of the workspace.  Raises as _real_array, ShapeMismatch, NonFiniteValue."""
    arr = _real_array(blocks, what)
    if arr.ndim != 2:
        raise ShapeMismatch(f"{what} must be a 2-d array of blocks, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise NonFiniteValue(f"{what} contains non-finite entries")
    return arr


@dataclass
class _Blocks:
    """n blocks in R^d, one per atom, every entry finite."""

    blocks: np.ndarray
    what = "element"  # the array's name in errors; a class attribute, not a field

    def __post_init__(self):
        self.blocks = _as_blocks(self.blocks, self.what)

    @classmethod
    def from_lists(cls, rows):
        return cls(rows)

    def to_lists(self) -> list[list[float]]:
        return self.blocks.tolist()


class BochnerElement(_Blocks):
    """A space element: block i is the value on atom i (an R^d vector)."""

    @staticmethod
    def _of(op, *operands) -> "BochnerElement":
        """The element op(*operands); an entry past the float range raises
        the NonFiniteValue of the entry check, not numpy's warning."""
        with np.errstate(over="ignore", invalid="ignore"):
            return BochnerElement(op(*operands))

    def __add__(self, other: "BochnerElement") -> "BochnerElement":
        return self._of(np.add, self.blocks, other.blocks)

    def __sub__(self, other: "BochnerElement") -> "BochnerElement":
        return self._of(np.subtract, self.blocks, other.blocks)

    def __mul__(self, a: float) -> "BochnerElement":
        return self._of(np.multiply, self.blocks, float(a))

    __rmul__ = __mul__

    def __neg__(self) -> "BochnerElement":
        return BochnerElement(-self.blocks)


class BlockFunctional(_Blocks):
    """A dual element: block i acts on atom i, pairing sum_i mu_i T_i.g_i."""

    what = "functional"


@dataclass(frozen=True)
class CheckResult:
    """Outcome of an orthogonality query.

    margin is the signed distance from the defining inequality's boundary
    (relative units); verdict == (margin >= -DEFAULT_TOL), the tolerance of
    every verdict.
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
    row = _as_blocks(_real_array(v, "vector").reshape(1, -1), "vector")
    if not (_is_number(q) and q >= 1.0):
        raise BadSpec(f"q must be >= 1, got {q!r}")
    return float(block_norms(row, q)[0]) if row.size else 0.0


def _l2_rows(v: np.ndarray, mu=None) -> np.ndarray:
    """sqrt(sum_j mu_j v_j^2) of each row of a 2-d array v (mu = 1 if None); a
    row whose sum is below SQUARES_FLOOR or overflows to inf is taken instead
    as m sqrt(sum_j mu_j (v_j/m)^2), m its largest entry in modulus.  Its sums
    reach inf silently (with mu, under _weighted_lp_rows' errstate)."""
    def squares(u):
        return np.einsum("ij,ij->i", u, u) if mu is None else _dot_rows(u * u, mu)
    s = squares(v)
    norms = np.sqrt(s)
    # argmin and argmax: cheaper passes than min and max
    if len(s) and not (SQUARES_FLOOR <= s[s.argmin()] and s[s.argmax()] < math.inf):
        redo = ~((SQUARES_FLOOR <= s) & (s < math.inf))
        m = np.abs(v[redo]).max(axis=1)
        safe = np.where((0.0 < m) & (m < math.inf), m, 1.0)  # zero rows keep 0, inf rows inf
        with np.errstate(over="ignore"):  # to inf, silently as on Python floats
            norms[redo] = m * np.sqrt(squares(v[redo] / safe[:, None]))
    return norms


def _pairwise_rows(a: np.ndarray) -> np.ndarray:
    """a[0], set in place to the sum of a 2-d array's rows added in NumPy's
    pairwise order: each column's sum has the bits of a[:, j].sum()."""
    n = len(a)
    if n < 8:
        for i in range(1, n):
            a[0] += a[i]
    elif n <= 128:  # eight accumulators, a fixed tree, then the rest
        r = a[:8]
        for i in range(8, n - n % 8, 8):
            r += a[i:i + 8]
        r[::2] += r[1::2]
        r[::4] += r[2::4]
        for i in (4, *range(n - n % 8, n)):
            a[0] += a[i]
    else:  # halves split at a multiple of 8
        half = n // 2 - n // 2 % 8
        _pairwise_rows(a[:half])
        a[0] += _pairwise_rows(a[half:])
    return a[0]


def block_norms(blocks: np.ndarray, q: float) -> np.ndarray:
    """Row-wise l^q norms, scaled to avoid overflow for large q."""
    if q == 2.0:
        return _l2_rows(blocks)
    # one owned transposed copy: every step runs in place over its long rows
    a = np.abs(blocks.T, out=_scratch("abs", blocks.shape[::-1]))
    if math.isinf(q):
        return a.max(axis=0)
    with np.errstate(over="ignore"):  # a norm past the float range is inf
        if q == 1.0:
            return _pairwise_rows(a).copy()
        m = a.max(axis=0)
        safe = np.where(m > 0.0, m, 1.0)  # zero rows stay zero: 0 ** (1/q) = 0
        a /= safe
        a **= q
        return safe * _pairwise_rows(a) ** (1.0 / q)


def inner_duality_map(v, q: float) -> np.ndarray:
    """Unique norming functional F_v of a nonzero block in smooth l^q.

    Components sign(v_j)|v_j|^(q-1) / ||v||_q^(q-1); satisfies F_v.v = ||v||_q
    and ||F_v||_{q*} = 1.  Equals the gradient of the l^q norm at v.
    """
    row = _as_blocks(_real_array(v, "vector").reshape(1, -1), "vector")
    if not (_is_number(q) and q >= 1.0):
        raise BadSpec(f"q must be > 1, got {q!r}")
    if q == 1.0 or math.isinf(q):
        raise NotSmooth(f"duality map is set-valued for q={q}")
    if not np.any(row):
        raise ZeroVector("duality map undefined at 0")
    return _duality_rows(row, q, np.ones(1, dtype=bool), block_norms(row, q))[0]


def _duality_rows(blocks: np.ndarray, q: float, active: np.ndarray,
                  norms: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Row-wise duality map, written into out (a new array when None); rows
    outside `active` come back zero.

    norms holds the rows' l^q norms, block_norms(blocks, q).
    """
    # when every row is active the rows are computed in place of the
    # output: a boolean gather and scatter cost twice the formula at n=4096
    every = active.all()
    sub, norms = (blocks, norms) if every else (blocks[active], norms[active])
    a = np.abs(sub, out=out if every else None)  # |v|, divided and powered in place
    m = a[:, 0].copy()  # row maxima column by column: 10x faster than along C rows
    for j in range(1, a.shape[1]):
        np.maximum(m, a[:, j], out=m)
    if q == 2.0:
        # sign(v)|v|/m is v/m, whose -0.0 entries += 0.0 turns into the +0.0
        # that the mask below sets; the power by q - 1 = 1 is the identity
        np.divide(sub, _repeat(m, a.shape), out=a)
        a += 0.0
        a /= _repeat(norms / m, a.shape)
    else:
        a /= _repeat(m, a.shape)
        zero = a == 0.0  # sign(sub / m) is 0 there, however sub is signed
        a **= q - 1.0
        np.copysign(a, sub, out=a)
        a[zero] = 0.0
        a /= _repeat((norms / m) ** (q - 1.0), a.shape)
    if every:
        return a
    out = np.empty_like(blocks) if out is None else out
    out[~active] = 0.0
    out[active] = a
    return out


def _dot_rows(a: np.ndarray, mu: np.ndarray) -> np.ndarray:
    """mu @ a[i] for each row of a 2-d array, bit for bit (a @ mu sums in
    another order)."""
    return np.matmul(a[:, None, :], mu)[:, 0]


def _row_max(b: np.ndarray) -> np.ndarray:
    """b.max(axis=1) of a 2-d array, bit for bit; rows shorter than the row
    count reduce as columns of a transposed copy (15 us at (1365, 8), where
    NumPy's reduce over short rows takes 103)."""
    if b.shape[1] < b.shape[0]:
        return np.ascontiguousarray(b.T).max(axis=0)
    return b.max(axis=1)


def _weighted_lp_rows(b: np.ndarray, mu: np.ndarray, p: float) -> np.ndarray:
    """(sum_i mu_i b_i^p)^(1/p) of each nonnegative row of a 2-d array b,
    scaled by the row's max m to avoid overflow; m itself at p = inf."""
    if math.isinf(p):
        return _row_max(b)
    with np.errstate(over="ignore"):  # sums to inf, silently as on Python floats
        if p == 1.0:
            return _dot_rows(b, mu)
        if p == 2.0:
            return _l2_rows(b, mu)
        m = _row_max(b)
        # a zero row divides by 1, and so does an inf row: its norm is inf, not NaN
        s = _dot_rows((b / np.where((0.0 < m) & (m < math.inf), m, 1.0)[:, None]) ** p, mu)
        # m * s ** (1/p) with Python's bits: float_power runs libm's pow, as **
        # does (power's SIMD kernel differs in the last bit on some values)
        return m * np.float_power(s, 1.0 / p)


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
    if not (_is_number(q) and q >= 1.0):
        raise BadSpec(f"q must be >= 1, got {q!r}")
    if tol is not None and not (_is_number(tol) and tol >= 0.0):
        raise BadSpec(f"tol must be >= 0, got {tol!r}")
    b = block_norms(f.blocks, q)
    return frozenset(np.flatnonzero(~_nonzero_blocks(b) if tol is None else b <= tol).tolist())


def _nonzero_blocks(b: np.ndarray) -> np.ndarray:
    """The blocks above DEFAULT_ZERO_TOL times their element's largest block
    norm, given nonnegative block norms b, each element's on the last axis."""
    return b > DEFAULT_ZERO_TOL * _row_max(b.reshape(-1, b.shape[-1])).reshape(*b.shape[:-1], 1)


def _duality_stack(stack: np.ndarray, b: np.ndarray, norms: np.ndarray,
                   spec: SpaceSpec) -> tuple[np.ndarray, np.ndarray]:
    """(w, F) of a (B, n, d) stack, given its block norms b and a positive
    divisor per row (the row's norm when nonzero): w holds the row weights
    (b_i / divisor)^(p-1), F the norming functional of each block above
    DEFAULT_ZERO_TOL (relative to the row's largest block norm) and zero
    blocks elsewhere.  A row f's support functional is w[:, None] * F, and
    [g, f] = ||f|| sum_i mu_i w_i F_i.g_i.  F is a workspace view (_scratch).
    Raises NonFiniteValue when a divisor is past the float range."""
    if not np.isfinite(norms).all():
        raise NonFiniteValue("a norm is past the float range")
    active = _nonzero_blocks(b)
    F = _duality_rows(stack.reshape(-1, spec.d), spec.q, active.ravel(), b.ravel(),
                      _scratch("support", (b.size, spec.d)))
    return (b / norms[:, None]) ** (spec.p - 1.0), F.reshape(stack.shape)


def _support_stack(stack: np.ndarray, b: np.ndarray, norms: np.ndarray,
                   spec: SpaceSpec) -> np.ndarray:
    """Blocks of the support functionals w[:, None] * F (_duality_stack) of a
    (B, n, d) stack of nonzero elements, given _norm_rows(stack), in F's view."""
    w, F = _duality_stack(stack, b, norms, spec)
    return np.multiply(F, _repeat(w, F.shape), out=F)


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
    the bits of mu @ its blockwise dot products.  Raises NonFiniteValue at
    the first row whose S is not finite (inf, or nan from +inf and -inf)."""
    with np.errstate(over="ignore", invalid="ignore"):  # raised as the typed error
        s = _dot_rows(np.einsum("bij,bij->bi", T, G), spec.mu)
    bad = ~np.isfinite(s)
    if bad.any():
        value = float(s[np.argmax(bad)])
        raise NonFiniteValue(f"S = {value}: the pairing is past the float range")
    return s


def apply_functional(T: BlockFunctional, g: BochnerElement, spec: SpaceSpec) -> float:
    """Dual pairing sum_i mu_i T_i.g_i; NonFiniteValue where not finite."""
    return float(_pairing_rows(check_shape(T, spec, "functional")[None],
                               check_shape(g, spec)[None], spec)[0])


def functional_norm(T: BlockFunctional, spec: SpaceSpec) -> float:
    """Operator norm of a block functional: the weighted l^{p*} aggregate of
    the block dual norms ||T_i||_{q*}, the discrete L^{p*} duality (the max
    at p = 1, since the dual of L^1 is L^inf)."""
    tb = check_shape(T, spec, "functional")
    b = block_norms(tb, dual_exponent(spec.q))
    return float(_weighted_lp_rows(b[None], spec.mu, dual_exponent(spec.p))[0])


def outcome(verdict, boundary) -> np.ndarray:
    """The outcome of a row, or of each row of a stack, given whether its
    verdicts hold and whether any of them is flagged boundary: boundary when
    flagged, else pass when the verdicts hold, else fail."""
    return np.where(boundary, "boundary", np.where(verdict, "pass", "fail"))
