import math
import tracemalloc

import numpy as np
import pytest

from bjlab import (
    AtomPartition,
    BadSpec,
    BochnerElement,
    NonFiniteValue,
    ScalingOperator,
    ShapeMismatch,
    SpaceSpec,
    apply_operator,
    bochner_norm,
    certificate_check,
    draw_orthogonal_pair,
    h_alpha_witness,
    is_approx_bj_orthogonal,
    is_scalar_multiple_of_isometry,
    preservation_trial,
    random_element,
    u_eps_L1,
    u_eps_l1,
    u_eps_Lp,
)
from bjlab.harness import trial_rng
from conftest import rng_for

L1_SEQ3 = SpaceSpec.sequence(1, 2, 3, 2)


def test_atom_partition_validation():
    part = AtomPartition((2, 0), 4)
    assert part.indices == (0, 2)
    assert part.complement == (1, 3)
    with pytest.raises(BadSpec):
        AtomPartition((), 3)
    with pytest.raises(BadSpec):
        AtomPartition((0, 1, 2), 3)  # complement empty
    with pytest.raises(BadSpec):
        AtomPartition((3,), 3)
    for indices in (5, [[0]], ["0"], [True]):
        with pytest.raises(BadSpec, match="partition indices"):
            AtomPartition(indices, 4)
    for n in (2.5, "4", True):
        with pytest.raises(BadSpec, match="partition size"):
            AtomPartition((0,), n)


def test_scaling_operator_validation():
    with pytest.raises(BadSpec):
        ScalingOperator(np.array([1.0, 0.0]))
    with pytest.raises(BadSpec):
        ScalingOperator(np.array([1.0, -2.0]))
    for factors in ([True, "0.5"], [1.0, True], ["2", 1.0], np.array([True, True]), 5,
                    np.ones((2, 2))):
        with pytest.raises(BadSpec, match="numbers"):
            ScalingOperator(factors)


def test_u_eps_l1_factors():
    U = u_eps_l1(0.5, L1_SEQ3)
    np.testing.assert_allclose(U.factors, [0.5, 1.0, 1.0])
    tiny = u_eps_l1(1e-9, L1_SEQ3)
    np.testing.assert_allclose(tiny.factors, 1.0, atol=2e-9)  # identity limit


def test_u_eps_l1_preconditions():
    with pytest.raises(BadSpec):
        u_eps_l1(0.5, SpaceSpec(2, 2, 3, 2, (1.0,) * 3))  # p != 1
    with pytest.raises(BadSpec):
        u_eps_l1(0.5, SpaceSpec(1, 2, 3, 2, (1.0, 2.0, 1.0)))  # weighted
    with pytest.raises(BadSpec):
        u_eps_l1(0.5, SpaceSpec.sequence(1, 2, 1, 2))  # n < 2
    with pytest.raises(BadSpec):
        u_eps_l1(0.0, L1_SEQ3)


def test_u_eps_l1_applied_norm():
    spec = SpaceSpec.sequence(1, 2, 2, 1)
    f = BochnerElement.from_lists([[2.0], [3.0]])
    for eps in (0.1, 0.5, 0.9):
        U = u_eps_l1(eps, spec)
        assert bochner_norm(apply_operator(U, f), spec) == pytest.approx(
            2.0 * (1.0 - eps) + 3.0)


def test_u_eps_L1_factors_and_norm():
    spec = SpaceSpec(1, 2, 2, 2, (2.0, 3.0))
    part = AtomPartition((0,), 2)
    U = u_eps_L1(0.5, part, spec)
    np.testing.assert_allclose(U.factors, [0.5, 1.0])
    f = BochnerElement.from_lists([[1.0, 0.0], [0.0, 1.0]])  # unit blocks
    assert bochner_norm(apply_operator(U, f), spec) == pytest.approx(4.0)
    with pytest.raises(BadSpec):
        u_eps_L1(0.5, part, SpaceSpec(2, 2, 2, 2, (1.0, 1.0)))


def test_u_eps_L1_ratio_formula_on_witness_family():
    # ||U h_a|| / ||h_a|| = ((1-eps) m(A) + |a| m(B)) / (m(A) + |a| m(B))
    spec = SpaceSpec(1, 2, 5, 2, (0.7, 1.2, 2.0, 0.4, 1.0))
    part = AtomPartition((0, 2), 5)
    eps = 0.3
    U = u_eps_L1(eps, part, spec)
    mA = 0.7 + 2.0
    mB = 1.2 + 0.4 + 1.0
    x0 = np.array([1.0, 0.0])
    for alpha in (0.0, 0.5, -2.0, 100.0):
        h = h_alpha_witness(alpha, part, x0, spec)
        expected = ((1 - eps) * mA + abs(alpha) * mB) / (mA + abs(alpha) * mB)
        got = bochner_norm(apply_operator(U, h), spec) / bochner_norm(h, spec)
        assert got == pytest.approx(expected, rel=1e-12)


def test_u_eps_Lp_factors():
    spec = SpaceSpec(2, 2, 2, 2, (1.0, 1.0))
    U = u_eps_Lp(0.5, AtomPartition((0,), 2), spec)
    np.testing.assert_allclose(U.factors, [1.0, 0.75])
    with pytest.raises(BadSpec):
        u_eps_Lp(0.5, AtomPartition((0,), 2), SpaceSpec(1, 2, 2, 2, (1.0, 1.0)))


def test_u_eps_Lp_near_p1_swaps_roles_of_the_two_sets():
    part = AtomPartition((0,), 2)
    eps = 0.4
    lp = u_eps_Lp(eps, part, SpaceSpec(1.0 + 1e-9, 2, 2, 2, (1.0, 1.0)))
    l1 = u_eps_L1(eps, part, SpaceSpec(1, 2, 2, 2, (1.0, 1.0)))
    np.testing.assert_allclose(lp.factors, l1.factors[::-1], rtol=1e-8)


def test_scalar_inequality_spot_values():
    for eps in (0.1, 0.5, 0.9):
        for p in (1.1, 2.0, 4.0, 8.0):
            assert 1.0 - (1.0 - eps / p) ** p <= eps + 1e-12


def test_apply_operator_linearity_and_errors():
    spec = SpaceSpec(2, 2, 3, 2, (1.0, 1.0, 1.0))
    rng = rng_for("apply_linear")
    U = ScalingOperator(rng.uniform(0.2, 3.0, 3))
    f = random_element(spec, rng)
    g = random_element(spec, rng)
    identity = ScalingOperator(np.ones(3))
    np.testing.assert_array_equal(apply_operator(identity, f).blocks, f.blocks)
    zero = BochnerElement(np.zeros((3, 2)))
    np.testing.assert_array_equal(apply_operator(U, zero).blocks, 0.0)
    lhs = apply_operator(U, BochnerElement(2.5 * f.blocks - 1.5 * g.blocks)).blocks
    rhs = 2.5 * apply_operator(U, f).blocks - 1.5 * apply_operator(U, g).blocks
    np.testing.assert_allclose(lhs, rhs, rtol=1e-12, atol=1e-14)
    with pytest.raises(ShapeMismatch):
        apply_operator(U, BochnerElement(np.zeros((4, 2))))
    # an image entry beyond the float range is a typed error, not a warning
    with pytest.raises(NonFiniteValue, match="^element contains non-finite entries$"):
        apply_operator(ScalingOperator([1e308] * 3), BochnerElement(np.full((3, 2), 3.0)))


def test_operator_boundedness_on_random_elements():
    spec = SpaceSpec(1.5, 3, 4, 2, (1.0, 2.0, 0.5, 1.0))
    rng = rng_for("op_bound")
    U = ScalingOperator(rng.uniform(0.2, 3.0, 4))
    cap = U.factors.max()
    for _ in range(50):
        f = random_element(spec, rng)
        assert bochner_norm(apply_operator(U, f), spec) <= cap * bochner_norm(f, spec) * (1 + 1e-12)


def test_h_alpha_witness_norms():
    spec = SpaceSpec(1, 2, 4, 2, (1.0, 2.0, 0.5, 0.25))
    part = AtomPartition((0, 1), 4)
    x0 = np.array([1.0, 0.0])
    h0 = h_alpha_witness(0.0, part, x0, spec)
    assert bochner_norm(h0, spec) == 3.0  # mass of the selected set, exact
    h1 = h_alpha_witness(1.0, part, x0, spec)
    assert bochner_norm(h1, spec) == 3.75  # + mass of the complement
    h = h_alpha_witness(-2.0, part, x0, spec)
    assert bochner_norm(h, spec) == 3.0 + 2.0 * 0.75

    spec2 = SpaceSpec(2, 2, 2, 2, (1.0, 1.0))
    h2 = h_alpha_witness(1.0, AtomPartition((0,), 2), x0, spec2)
    assert bochner_norm(h2, spec2) == pytest.approx(np.sqrt(2.0))

    with pytest.raises(BadSpec):
        h_alpha_witness(1.0, part, np.array([2.0, 0.0]), spec)  # not unit
    for alpha in (math.inf, -math.inf, math.nan):  # before any inf * 0 warning
        with pytest.raises(BadSpec, match="alpha"):
            h_alpha_witness(alpha, part, x0, spec)


def test_isometry_detector_on_scalar_multiples():
    spec = SpaceSpec(2, 2, 4, 2, (1.0, 2.0, 0.5, 1.0))
    ok, spread = is_scalar_multiple_of_isometry(ScalingOperator(np.ones(4)), spec)
    assert ok and spread == 0.0
    ok2, spread2 = is_scalar_multiple_of_isometry(ScalingOperator(2.0 * np.ones(4)), spec)
    assert ok2 and spread2 <= 1e-12
    for trials in (1, 2.5, "3", True):
        with pytest.raises(BadSpec, match="at least 2 random trials"):
            is_scalar_multiple_of_isometry(ScalingOperator(np.ones(4)), spec, trials=trials)


def test_isometry_detector_on_a_multiple_with_subnormal_squares():
    # images near 1e-160 would square into subnormals; the probes divide the
    # factors by their max, and the q = 2 norm is taken scaled there anyway
    ok, spread = is_scalar_multiple_of_isometry(ScalingOperator([1e-160] * 3),
                                                SpaceSpec.sequence(2, 2, 3, 2))
    assert ok and spread <= 1e-12


@pytest.mark.parametrize("p,q", [(3.0, 1.5), (1.0, 2.0), (2.0, 2.0)])
def test_isometry_detector_is_scale_invariant(p, q):
    # undivided by their max, factors at 1e-320 give subnormal ratios, and at
    # 1e300 probe norms that overflow at q = 2
    spec = SpaceSpec.sequence(p, q, 3, 2)
    for factors in ([1.0] * 3, [2.0] * 3, [1.0, 1.3, 1.0]):
        ok, _ = is_scalar_multiple_of_isometry(ScalingOperator(factors), spec)
        for c in (1e-320, 1e-310, 1e300):
            ok_c, spread = is_scalar_multiple_of_isometry(
                ScalingOperator([c * f for f in factors]), spec)
            assert ok_c == ok, (factors, c)
            if factors == [1.0] * 3:
                assert spread <= 1e-15, c


@pytest.mark.parametrize("p", [1.0, 2.0, 3.0])
def test_isometry_detector_with_huge_masses_is_a_typed_error(p):
    # the random probes' norms overflow; silenced alone, the spread read 0
    # for I and 1 for diag(1, 0.5, 1) at p = 1 (Python's max and min skip NaN
    # ratios), and the sums raised a bare RuntimeWarning
    spec = SpaceSpec(p, 2, 3, 2, (1e308,) * 3)
    for factors in ([1.0] * 3, [1.0, 0.5, 1.0]):
        with pytest.raises(NonFiniteValue, match=r"^probe norm inf is 0 or not finite"):
            is_scalar_multiple_of_isometry(ScalingOperator(factors), spec)


def test_isometry_detector_with_a_factor_that_underflows():
    # divided by their max, the factors are (0, 1, 1e-300): the first atom's
    # image norm is an exact 0, a ratio of 0, so the spread is 1
    spec = SpaceSpec.sequence(2, 2, 3, 2)
    assert is_scalar_multiple_of_isometry(ScalingOperator([1e-30, 1e300, 1.0]), spec) == (
        False, 1.0)


def test_isometry_detector_rejects_u_eps_operators():
    spec = SpaceSpec(2, 2, 4, 2, (1.0,) * 4)
    part = AtomPartition((0, 1), 4)
    U = u_eps_Lp(0.5, part, spec)
    ok, spread = is_scalar_multiple_of_isometry(U, spec)
    assert not ok
    assert spread == pytest.approx(0.25, rel=1e-9)  # endpoints 1 - eps/p and 1

    seq = SpaceSpec.sequence(1, 2, 4, 2)
    ok1, spread1 = is_scalar_multiple_of_isometry(u_eps_l1(0.5, seq), seq)
    assert not ok1
    assert spread1 == pytest.approx(0.5, rel=1e-9)


def test_isometry_detector_holds_one_probe_at_a_time():
    # each probe is one (n, d) element: a stack of all n + 21 + trials probes
    # would take 17 MiB per copy at n = 512, d = 8 (the loop peaks near 1 MiB)
    spec = SpaceSpec.sequence(3, 1.5, 512, 8)
    U = u_eps_Lp(0.3, AtomPartition(tuple(range(256)), 512), spec)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        ok, spread = is_scalar_multiple_of_isometry(U, spec, rng=trial_rng(3, 0))
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert not ok and spread == pytest.approx(0.1, rel=1e-9)  # 1 - eps/p and 1
    assert peak < 4 * 2**20


@pytest.mark.parametrize("eps", [0.1, 0.5, 0.9])
def test_preservation_trial_l1_sequence(eps):
    spec = SpaceSpec.sequence(1, 2, 5, 3)
    U = u_eps_l1(eps, spec)
    for i in range(60):
        rec = preservation_trial(U, eps, spec, trial_rng(101, i))
        assert rec.outcome == "pass", rec
        assert rec.second_route == "certificate"
        # the trial's pair is exactly orthogonal by construction
        x, y = draw_orthogonal_pair(spec, trial_rng(101, i))
        assert is_approx_bj_orthogonal(x, y, 0.0, spec).verdict


@pytest.mark.parametrize("eps", [0.3, 0.7])
def test_preservation_trial_weighted_L1(eps):
    rng = rng_for("trial_L1")
    spec = SpaceSpec(1, 2, 6, 3, tuple(rng.uniform(0.1, 5.0, 6)))
    U = u_eps_L1(eps, AtomPartition((0, 1, 2), 6), spec)
    for i in range(60):
        rec = preservation_trial(U, eps, spec, trial_rng(202, i))
        assert rec.outcome == "pass", rec


@pytest.mark.parametrize("p,q", [(1.5, 2.0), (3.0, 1.5)])
def test_preservation_trial_lp(p, q):
    spec = SpaceSpec(p, q, 6, 3, (1.0,) * 6)
    part = AtomPartition((0, 1, 2), 6)
    for eps in (0.2, 0.9):
        U = u_eps_Lp(eps, part, spec)
        for i in range(40):
            rec = preservation_trial(U, eps, spec, trial_rng(303, i))
            assert rec.outcome == "pass", rec
            assert rec.second_route == "sip"


def test_trial_rejects_mismatched_operator():
    spec = SpaceSpec.sequence(1, 2, 5, 3)
    U = u_eps_l1(0.5, spec)
    with pytest.raises(ShapeMismatch):
        preservation_trial(U, 0.5, SpaceSpec.sequence(1, 2, 4, 3),
                           trial_rng(1, 0))


def test_trial_raises_a_typed_error_when_the_image_overflows():
    # 1e308 I is a scalar multiple of an isometry, but the image of a
    # Gaussian pair leaves the float range
    spec = SpaceSpec.sequence(3, 2, 4, 2)
    with pytest.raises(NonFiniteValue, match="^element contains non-finite entries$"):
        preservation_trial(ScalingOperator([1e308] * 4), 0.5, spec, trial_rng(1, 0))


def test_l1_operator_epsilon_is_meaningfully_used():
    # there are orthogonal pairs whose images stop being approximately
    # orthogonal when checked well below the construction's epsilon
    eps = 0.5
    probe = 0.1
    spec = SpaceSpec.sequence(1, 2, 3, 2)
    U = u_eps_l1(eps, spec)
    rng = rng_for("tightness")
    found = False
    for _ in range(500):
        x = random_element(spec, rng)
        z = random_element(spec, rng)
        from bjlab import make_orthogonal_partner
        y = make_orthogonal_partner(x, z, spec)
        if bochner_norm(y, spec) < 1e-9:
            continue
        ux, uy = apply_operator(U, x), apply_operator(U, y)
        direct = is_approx_bj_orthogonal(ux, uy, probe, spec)
        cert = certificate_check(ux, uy, probe, spec)
        if not direct.verdict and not cert.verdict and cert.margin < -1e-3:
            found = True
            break
    assert found


@pytest.mark.parametrize("eps", [0.1, 0.5, 0.9])
def test_non_isometry_spread_floor(eps):
    # each counterexample operator misses being an isometry multiple by at
    # least eps/(2p) in ratio spread
    seq = SpaceSpec.sequence(1, 2, 4, 2)
    _, s1 = is_scalar_multiple_of_isometry(u_eps_l1(eps, seq), seq)
    assert s1 >= eps / 2.0

    wspec = SpaceSpec(1, 2, 4, 2, (0.5, 1.0, 2.0, 1.5))
    part = AtomPartition((1, 3), 4)
    _, s2 = is_scalar_multiple_of_isometry(u_eps_L1(eps, part, wspec), wspec)
    assert s2 >= eps / 2.0

    for p in (1.5, 2.0, 3.0):
        spec = SpaceSpec(p, 2, 4, 2, (1.0,) * 4)
        _, s3 = is_scalar_multiple_of_isometry(u_eps_Lp(eps, part, spec), spec)
        assert s3 >= eps / (2.0 * p)
