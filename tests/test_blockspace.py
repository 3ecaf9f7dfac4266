import json
import math

import numpy as np
import pytest
from hypothesis import given
import hypothesis.strategies as st

from bjlab import (
    BadSpec,
    BlockFunctional,
    BochnerElement,
    NonFiniteValue,
    NotSmooth,
    ShapeMismatch,
    SpaceSpec,
    ZeroElement,
    ZeroVector,
    apply_functional,
    bochner_norm,
    dual_exponent,
    functional_norm,
    inner_duality_map,
    inner_norm,
    support_functional,
    zero_set,
)
from bjlab.blockspace import (
    _duality_rows,
    _row_max,
    _weighted_lp_rows,
    _workspace,
    block_norms,
)
from conftest import SMOOTH_QS, rng_for, spec_with_elements, specs
from oracles import (
    formula_duality_rows,
    forward_diff_gradient,
    mc_dual_norm,
    naive_norm,
    reference_block_norms,
    reference_duality_rows,
    reference_weighted_lp,
)


def test_inner_norm_examples():
    assert inner_norm([3.0, 4.0], 2.0) == pytest.approx(5.0)
    assert inner_norm([1.0, -1.0], 1.0) == pytest.approx(2.0)
    assert inner_norm([1.0, -1.0], math.inf) == pytest.approx(1.0)
    assert inner_norm([0.0, 0.0], 3.0) == 0.0


def test_dual_exponent_examples():
    assert [dual_exponent(r) for r in (1.0, 1.5, 2.0, 3.0, math.inf)] == [
        math.inf, 3.0, 2.0, 1.5, 1.0]


def test_inner_norm_rejects_bad_input():
    with pytest.raises(BadSpec):
        inner_norm([1.0], 0.5)
    with pytest.raises(BadSpec):
        inner_norm([1.0, 2.0], math.nan)
    for q in ("2", True):
        with pytest.raises(BadSpec, match="q must be >= 1"):
            inner_norm([1.0, 2.0], q)
    with pytest.raises(NonFiniteValue):
        inner_norm([np.nan, 1.0], 2.0)


@given(spec_with_elements(count=3))
def test_bochner_norm_axioms(data):
    spec, f, g, h = data
    nf = bochner_norm(f, spec)
    assert nf >= 0.0
    assert bochner_norm(BochnerElement(-2.5 * f.blocks), spec) == pytest.approx(2.5 * nf)
    ng = bochner_norm(g, spec)
    assert bochner_norm(f + g, spec) <= nf + ng + 1e-9 * (nf + ng + 1.0)
    assert nf == pytest.approx(naive_norm(f, spec), rel=1e-12, abs=1e-300)


def test_bochner_norm_examples():
    spec = SpaceSpec(1, 2, 2, 2, (1.0, 1.0))
    assert bochner_norm(BochnerElement.from_lists([[3, 4], [0, 0]]), spec) == pytest.approx(5.0)
    spec = SpaceSpec(2, 2, 2, 2, (1.0, 1.0))
    assert bochner_norm(BochnerElement.from_lists([[1, 0], [0, 1]]), spec) == pytest.approx(math.sqrt(2))
    spec = SpaceSpec(3, 2, 2, 2, (2.0, 1.0))
    f = BochnerElement.from_lists([[1, 0], [1, 0]])
    assert bochner_norm(f, spec) == pytest.approx(1.4422495703074083)  # (2+1)^(1/3)


@pytest.mark.parametrize("p, q", [(3.0, 2.0), (2.0, 2.0), (2.0, 1.5)])
@pytest.mark.parametrize("scale", [1e-160, 1e-300, 1e154, 1e200, 1e300])
def test_bochner_norm_is_homogeneous_where_squares_underflow(p, q, scale):
    # entries this small have subnormal squares, and entries this large
    # squares past the float range: the q = 2 block norms and the p = 2
    # aggregate take those rows scaled by their largest entry instead
    spec = SpaceSpec.sequence(p, q, 4, 3)
    x = BochnerElement(rng_for(f"tiny_squares_{p}_{q}").standard_normal((4, 3)))
    assert bochner_norm(x * scale, spec) / scale == pytest.approx(bochner_norm(x, spec),
                                                                  rel=1e-13)


def test_bochner_norm_shape_mismatch():
    spec = SpaceSpec(2, 2, 2, 2, (1.0, 1.0))
    with pytest.raises(ShapeMismatch):
        bochner_norm(BochnerElement.from_lists([[1, 0, 0], [0, 1, 0]]), spec)


def test_element_rejects_non_finite_entries():
    with pytest.raises(NonFiniteValue, match="^element contains"):
        BochnerElement.from_lists([[1.0, math.inf]])
    with pytest.raises(ShapeMismatch, match="^element must be"):
        BochnerElement(np.zeros(3))  # blocks must be 2-d
    with pytest.raises(NonFiniteValue, match="^functional contains"):
        BlockFunctional.from_lists([[1.0, math.nan]])
    with pytest.raises(ShapeMismatch, match="^functional must be"):
        BlockFunctional(np.zeros(3))


def test_element_arithmetic():
    f = BochnerElement.from_lists([[1.0, -2.0], [0.5, 0.0]])
    g = BochnerElement.from_lists([[3.0, 1.0], [-1.0, 4.0]])
    for result, blocks in ((f + g, [[4.0, -1.0], [-0.5, 4.0]]),
                           (f - g, [[-2.0, -3.0], [1.5, -4.0]]),
                           (-f, [[-1.0, 2.0], [-0.5, 0.0]]),
                           (2 * f, [[2.0, -4.0], [1.0, 0.0]]),
                           (f * 2, [[2.0, -4.0], [1.0, 0.0]])):
        assert type(result) is BochnerElement
        assert result.to_lists() == blocks


def _duality_inputs(rng) -> np.ndarray:
    """Rows of d = 4 with signed zeros, quotients by the row max that are
    subnormal or underflow to 0, 1e300 beside 1e-300, then random rows of
    Gaussian and of log-uniform magnitudes."""
    special = [[0.0, -0.0, 1.0, -2.0], [-5e-324, 1e10, -0.0, 3.0],
               [1e300, -1e-300, 0.0, -1e-300], [-1e-300, 1e300, -5e-324, 2.5e-320],
               [1e-310, -1e-310, 5e-324, -5e-324], [-0.0, -0.0, -0.0, 7.0],
               [-1e-160, 1e10, 1e-200, -2.0], [1e300, 1e300, -1e300, 1e-300]]
    gauss = rng.standard_normal((300, 4))
    spread = gauss * np.exp(rng.uniform(-700.0, 700.0, (300, 4)))
    return np.concatenate((special, gauss, spread))


@pytest.mark.parametrize("q", [1.5, 2.0, 3.0])
def test_duality_kernel_keeps_the_bits_of_the_broadcast_kernel(q):
    # the divisors repeated to the rows' shape, and q = 2's v / m with += 0.0,
    # give every bit of the kernel that broadcast them, -0.0 and +0.0 included
    blocks = _duality_inputs(rng_for(f"duality_bits_{q}"))
    norms = block_norms(blocks, q)
    nonzero = norms > 0.0
    for active in (nonzero, nonzero & (np.arange(len(blocks)) % 3 > 0)):
        expected = reference_duality_rows(blocks, q, active, norms)
        assert _same_bits(_duality_rows(blocks, q, active, norms), expected)
        # into an output holding stale values, as a workspace buffer does
        out = np.full(blocks.shape, np.nan)
        assert _duality_rows(blocks, q, active, norms, out) is out
        assert _same_bits(out, expected)
    with _workspace({}):  # the workspace changes no bit either
        assert _same_bits(block_norms(blocks, q), norms)


def test_element_arithmetic_past_the_float_range_raises_a_typed_error():
    f = BochnerElement.from_lists([[1.0, -2.0]])
    big = BochnerElement.from_lists([[1e308, -1e308]])
    for make in (lambda: f * 1e308, lambda: 1e308 * f, lambda: big + big,
                 lambda: big - -big, lambda: f * math.inf, lambda: f * math.nan):
        with pytest.raises(NonFiniteValue, match="^element contains non-finite entries$"):
            make()


def test_duality_map_examples():
    np.testing.assert_allclose(inner_duality_map([3.0, 4.0], 2.0), [0.6, 0.8])
    np.testing.assert_allclose(inner_duality_map([1.0, 0.0], 3.0), [1.0, 0.0])
    # computed from the component formula and validated below
    F = inner_duality_map([2.0, -1.0], 1.5)
    np.testing.assert_allclose(F, [0.9040134034531215, -0.6392340078652324], rtol=1e-13)
    assert F @ [2.0, -1.0] == pytest.approx(2.4472608147714756)  # = ||v||_1.5
    assert inner_norm(F, 3.0) == pytest.approx(1.0)  # dual exponent of 1.5


def test_duality_map_errors():
    with pytest.raises(ZeroVector):
        inner_duality_map([0.0, 0.0], 2.0)
    with pytest.raises(NotSmooth):
        inner_duality_map([1.0, 2.0], 1.0)
    with pytest.raises(NotSmooth):
        inner_duality_map([1.0, 2.0], math.inf)
    with pytest.raises(BadSpec):
        inner_duality_map([1.0, 2.0], math.nan)
    for q in ("2", True):
        with pytest.raises(BadSpec, match="q must be > 1"):
            inner_duality_map([1.0, 2.0], q)


@given(st.lists(st.floats(-20, 20), min_size=2, max_size=4),
       st.sampled_from(SMOOTH_QS),
       st.floats(-5, 5))
def test_duality_map_gradient_and_homogeneity(vals, q, a):
    v = np.asarray(vals)
    # finite differences need components away from 0, where the q < 2 norm
    # has unbounded curvature
    v = v + np.where(np.abs(v) < 0.5, 2.0, 0.0)
    F = inner_duality_map(v, q)
    assert F @ v == pytest.approx(inner_norm(v, q), rel=1e-12)
    assert inner_norm(F, dual_exponent(q)) == pytest.approx(1.0, rel=1e-12)
    # gradient consistency against one-sided finite differences
    np.testing.assert_allclose(F, forward_diff_gradient(v, q), atol=1e-4)
    if abs(a) > 1e-3:
        np.testing.assert_allclose(inner_duality_map(a * v, q),
                                   math.copysign(1.0, a) * F, rtol=1e-10, atol=1e-12)


def _kernel_inputs(n: int, d: int, rng) -> list[np.ndarray]:
    """Gaussian blocks, then the same with a zero row and a subnormal row,
    then with rows scaled by 1e150 and 1e-150, then with signed zeros in
    nonzero rows and a last row whose quotient by its largest entry
    underflows (-5e-324/1e10) or whose (q - 1)-th power does at q = 3."""
    plain = rng.standard_normal((n, d))
    tiny = plain.copy()
    tiny[0] = 0.0
    tiny[1] = rng.choice((-1.0, 1.0), d) * rng.integers(1, 10, d) * 5e-324
    scaled = plain.copy()
    scaled[0] *= 1e150
    scaled[-1] *= 1e-150
    signed = plain.copy()
    signed[::2, 0], signed[1::2, 0] = -0.0, 0.0
    signed[-1, :3] = (1e10, -5e-324, -1e-160)[:d]
    return [plain, tiny, scaled, signed]


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("q", [1.0, 1.5, 2.0, 3.0, math.inf])
@pytest.mark.parametrize("n, d", [(6, 3), (4096, 8), (5, 1), (3, 17), (5, 9), (4, 16),
                                  (3, 128), (3, 129), (2, 300), (16, 300)])
def test_kernels_match_reference_formulas_bit_for_bit(n, d, q):
    # the kernels power in place on their own copies: same bits, input untouched;
    # d = 8 .. 300 reach every branch of block_norms' pairwise row sum
    rng = rng_for(f"kernel_bits_{n}_{d}_{q}")
    block_norm_rows = [np.zeros(n)]
    for blocks in _kernel_inputs(n, d, rng):
        kept = blocks.copy()
        norms = block_norms(blocks, q)
        assert _same_bits(norms, reference_block_norms(blocks, q))
        assert np.array_equal(blocks, kept)
        block_norm_rows.append(norms)
        nonzero = norms > 0.0
        for active in (nonzero, nonzero & (rng.random(n) < 0.5),
                       np.zeros(n, dtype=bool)):
            rows = _duality_rows(blocks, q, active, norms)
            assert _same_bits(rows, formula_duality_rows(blocks, q, active, norms))
            assert np.array_equal(blocks, kept)
    # the outer aggregate of each row, p = inf being functional_norm's at p = 1
    b, mu = np.array(block_norm_rows), rng.uniform(0.1, 5.0, n)
    for p in (1.0, 1.5, 2.0, 2.5, 3.0, math.inf):
        assert _same_bits(_weighted_lp_rows(b, mu, p),
                          np.array([reference_weighted_lp(row, mu, p) for row in b]))


def test_zero_set_examples():
    f = BochnerElement.from_lists([[0, 0], [1, 2]])
    assert zero_set(f, tol=0.0) == {0}
    g = BochnerElement.from_lists([[1e-15, 0], [1, 2]])
    assert zero_set(g, tol=1e-12) == {0}
    assert zero_set(g) == {0}  # default: relative to the largest block
    z = BochnerElement(np.zeros((3, 2)))
    assert zero_set(z, tol=0.0) == {0, 1, 2}
    for tol in (-1e-12, math.nan, "0"):
        with pytest.raises(BadSpec):
            zero_set(f, tol=tol)
    for q in (math.nan, 0.5, "2"):
        with pytest.raises(BadSpec, match="q must be >= 1"):
            zero_set(f, q=q)


def test_support_functional_examples():
    spec = SpaceSpec(1, 2, 2, 2, (1.0, 1.0))
    f = BochnerElement.from_lists([[1, 0], [0, 0]])
    T = support_functional(f, spec)
    np.testing.assert_allclose(T.blocks, [[1, 0], [0, 0]])
    assert apply_functional(T, f, spec) == pytest.approx(1.0)
    assert functional_norm(T, spec) == pytest.approx(1.0)

    g = BochnerElement.from_lists([[3, 4], [0, 5]])
    Tg = support_functional(g, spec)
    np.testing.assert_allclose(Tg.blocks, [[0.6, 0.8], [0, 1]])
    assert apply_functional(Tg, g, spec) == pytest.approx(10.0)

    spec2 = SpaceSpec(2, 2, 2, 2, (1.0, 1.0))
    h = BochnerElement.from_lists([[1, 0], [1, 0]])
    Th = support_functional(h, spec2)
    np.testing.assert_allclose(Th.blocks, [[0.7071067811865476, 0]] * 2, rtol=1e-12)
    assert apply_functional(Th, h, spec2) == pytest.approx(math.sqrt(2))
    assert functional_norm(Th, spec2) == pytest.approx(1.0)


def test_support_functional_errors():
    spec = SpaceSpec(2, 2, 2, 2, (1.0, 1.0))
    with pytest.raises(ZeroElement):
        support_functional(BochnerElement(np.zeros((2, 2))), spec)
    with pytest.raises(NotSmooth):
        support_functional(BochnerElement(np.ones((2, 2))),
                           SpaceSpec(2, 1, 2, 2, (1.0, 1.0)))


@given(spec_with_elements(count=1))
def test_support_functional_contract(data):
    spec, f = data
    T = support_functional(f, spec)
    nf = bochner_norm(f, spec)
    assert apply_functional(T, f, spec) == pytest.approx(nf, rel=1e-9)
    assert functional_norm(T, spec) == pytest.approx(1.0, rel=1e-9)


def test_apply_functional_examples():
    spec = SpaceSpec(1, 2, 2, 2, (1.0, 1.0))
    T = BlockFunctional.from_lists([[1, 0], [0, 1]])
    g = BochnerElement.from_lists([[2, 0], [0, 3]])
    assert apply_functional(T, g, spec) == pytest.approx(5.0)
    zero = BlockFunctional(np.zeros((2, 2)))
    assert apply_functional(zero, g, spec) == 0.0
    T2 = BlockFunctional.from_lists([[0.6, 0.8], [0, 1]])
    g2 = BochnerElement.from_lists([[3, 4], [0, 5]])
    assert apply_functional(T2, g2, spec) == pytest.approx(10.0)


@given(spec_with_elements(count=2, nonzero_first=False))
def test_holder_duality_bound(data):
    spec, g, t = data
    T = BlockFunctional(t.blocks)
    bound = functional_norm(T, spec) * bochner_norm(g, spec)
    assert abs(apply_functional(T, g, spec)) <= bound * (1.0 + 1e-12) + 1e-12


def test_functional_norm_examples():
    spec = SpaceSpec(1, 2, 2, 2, (1.0, 1.0))
    T = BlockFunctional.from_lists([[0.6, 0.8], [0, 1]])
    assert functional_norm(T, spec) == pytest.approx(1.0)
    spec2 = SpaceSpec(2, 2, 2, 2, (1.0, 1.0))
    T2 = BlockFunctional.from_lists([[1, 0], [1, 0]])
    assert functional_norm(T2, spec2) == pytest.approx(math.sqrt(2))


@pytest.mark.parametrize("p,q,weights", [
    (3.0, 2.0, (1.0, 2.0)),
    (1.5, 1.5, (0.5, 1.0)),
    (2.0, 3.0, (1.0, 1.0)),
    (1.0, 2.0, (1.0, 1.0)),
    (1.0, 1.5, (2.0, 0.5)),
])
def test_functional_norm_monte_carlo(p, q, weights):
    # the sup of |T(g)| over random unit g must approach the closed form;
    # small instance so 1e4 samples land within 1%
    spec = SpaceSpec(p, q, 2, 2, weights)
    rng = rng_for("mc_duality", int(p * 10 + q))
    T = BlockFunctional(rng.standard_normal((2, 2)))
    tn = functional_norm(T, spec)
    sup = mc_dual_norm(T, spec, 10_000, rng)
    assert sup <= tn * (1.0 + 1e-9)
    assert sup >= 0.99 * tn


def test_functional_norm_attained_for_smooth_p():
    # norming element built from the conjugate formulas attains the norm
    spec = SpaceSpec(2.5, 1.5, 3, 2, (1.0, 0.3, 2.0))
    rng = rng_for("norming_element")
    T = BlockFunctional(rng.standard_normal((3, 2)))
    qstar = dual_exponent(spec.q)
    pstar = dual_exponent(spec.p)
    blocks = np.zeros((3, 2))
    for i in range(3):
        w = inner_norm(T.blocks[i], qstar)
        blocks[i] = w ** (pstar - 1.0) * inner_duality_map(T.blocks[i], qstar)
    g = BochnerElement(blocks)
    assert apply_functional(T, g, spec) == pytest.approx(
        functional_norm(T, spec) * bochner_norm(g, spec), rel=1e-9)


def test_spec_validation():
    with pytest.raises(BadSpec):
        SpaceSpec(0.5, 2, 2, 2, (1.0, 1.0))
    with pytest.raises(BadSpec):
        SpaceSpec(math.inf, 2, 2, 2, (1.0, 1.0))
    with pytest.raises(BadSpec):
        SpaceSpec(1, 2, 2, 2, (1.0, 0.0))
    with pytest.raises(BadSpec):
        SpaceSpec(1, 2, 2, 2, (1.0,))
    with pytest.raises(BadSpec):
        SpaceSpec(1, 2, 0, 2, ())
    # bools and numeric strings are not numbers
    for args in ((True, "2", 2, 2, ("1", True)), (1, True, 2, 2, (1.0, 1.0)),
                 ("3", 2, 2, 2, (1.0, 1.0)), (1, 2, 2, 2, (1.0, True)),
                 (1, 2, 2, 2, (1.0, "2")), (1, 2, 2, 2, 5)):
        with pytest.raises(BadSpec, match="must be numbers"):
            SpaceSpec(*args)
    # q = inf allowed as a sentinel for the max norm
    spec = SpaceSpec(1, math.inf, 1, 2, (1.0,))
    assert bochner_norm(BochnerElement.from_lists([[1, -2]]), spec) == 2.0


@given(specs(qs=SMOOTH_QS + (math.inf,)))
def test_spec_serialization_roundtrip(spec):
    back = SpaceSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
    assert back == spec


@given(spec_with_elements(count=1, nonzero_first=False))
def test_element_serialization_roundtrip(data):
    spec, f = data
    back = BochnerElement.from_lists(json.loads(json.dumps(f.to_lists())))
    assert np.array_equal(back.blocks, f.blocks)  # bit-exact at double precision


def test_element_serialization_extreme_doubles():
    rows = [[5e-324, 1.7976931348623157e308], [-2.2250738585072014e-308, 0.1]]
    for cls in (BochnerElement, BlockFunctional):
        back = cls.from_lists(json.loads(json.dumps(cls.from_lists(rows).to_lists())))
        assert type(back) is cls
        assert np.array_equal(back.blocks, np.array(rows))


@pytest.mark.parametrize("shape", [(1, 4096), (12, 4096), (150, 6), (1365, 8)])
def test_row_max_has_the_bits_of_numpy_max_along_rows(shape):
    # short rows are reduced as columns of a transposed copy; max and min
    # are exact, so zeros, subnormals and inf come back as NumPy gives them
    b = np.abs(rng_for(f"row_max_{shape}").standard_normal(shape))
    b[0] = 0.0
    b[-1, 0] = math.inf
    b[len(b) // 2, ::2] = 5e-324
    for got, expected in ((_row_max(b), b.max(axis=1)),
                          (_row_max(-b, np.minimum.reduce), (-b).min(axis=1))):
        assert got.shape == expected.shape
        assert [v.hex() for v in got.tolist()] == [v.hex() for v in expected.tolist()]
