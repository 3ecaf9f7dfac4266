import contextlib
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
import hypothesis.strategies as st

from bjlab import ortho
from bjlab import (
    AtomPartition,
    BadSpec,
    BochnerElement,
    NonFiniteValue,
    NotSmooth,
    SpaceSpec,
    ZeroElement,
    apply_functional,
    apply_operator,
    bochner_norm,
    certificate_check,
    draw_orthogonal_pair,
    functional_norm,
    is_approx_bj_orthogonal,
    is_bj_orthogonal,
    make_orthogonal_partner,
    min_certificate_value,
    minimize_convex_1d,
    random_element,
    sip_orthogonality_criterion,
    u_eps_Lp,
)
from conftest import rng_for, spec_with_elements
from oracles import (
    brute_min_certificate,
    brute_min_certificate_fullball,
    grid_min_gap,
    grid_min_norm,
    reference_minimize_convex_1d,
)

HILBERT2 = SpaceSpec(2, 2, 2, 2, (1.0, 1.0))
ELL1_1D = SpaceSpec(1, 2, 2, 1, (1.0, 1.0))


def single_block(*coords):
    return BochnerElement.from_lists([list(coords)])


def test_minimize_convex_1d_quadratic():
    alpha, value = minimize_convex_1d(lambda a: (a - 1.0) ** 2, radius=4.0)
    assert alpha == pytest.approx(1.0, abs=1e-6)
    assert value == pytest.approx(0.0, abs=1e-12)


def test_minimize_convex_1d_kink():
    alpha, value = minimize_convex_1d(lambda a: abs(a) + 1.0, radius=2.0)
    assert alpha == pytest.approx(0.0, abs=1e-9)
    assert value == pytest.approx(1.0, rel=1e-9)


def test_minimize_convex_1d_euclidean():
    alpha, value = minimize_convex_1d(
        lambda a: math.hypot(1.0, a), radius=2.0)
    assert alpha == pytest.approx(0.0, abs=1e-9)
    assert value == pytest.approx(1.0, rel=1e-12)


def test_minimize_convex_1d_rejects_non_finite():
    with pytest.raises(NonFiniteValue):
        minimize_convex_1d(lambda a: math.inf if a > 1 else a * a, radius=2.0)
    # phi(0) is checked before any other point
    with pytest.raises(NonFiniteValue, match=r"^objective returned inf at alpha=0\.0$"):
        minimize_convex_1d(lambda a: (1e200 + a) ** 2, radius=1.0)
    with pytest.raises(NonFiniteValue, match=r"^objective returned nan at alpha=0\.0$"):
        minimize_convex_1d(lambda a: math.nan, radius=1.0)
    with pytest.raises(BadSpec):
        minimize_convex_1d(lambda a: a * a, radius=0.0)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_a_bracket_beyond_the_float_range_fails_as_the_scalar_loop_does():
    # 2R overflows, to inf without a warning on the scalar loop's Python floats
    def phi(a):
        return abs(a - 1.0)

    with pytest.raises(NonFiniteValue) as stacked:
        minimize_convex_1d(phi, 1.5e308)
    with pytest.raises(NonFiniteValue) as looped:
        reference_minimize_convex_1d(phi, 1.5e308)
    assert str(stacked.value) == str(looped.value) == "objective returned inf at alpha=-inf"


def test_bj_orthogonal_basis_blocks():
    spec = SpaceSpec(2, 2, 2, 2, (1.0, 1.0))
    x = BochnerElement.from_lists([[1, 0], [0, 0]])
    y = BochnerElement.from_lists([[0, 1], [0, 0]])
    res = is_bj_orthogonal(x, y, spec)
    assert res.verdict and not res.boundary
    assert res.alpha_star == pytest.approx(0.0, abs=1e-9)


def test_bj_orthogonal_l1_flat_minimum():
    x = BochnerElement.from_lists([[1], [1]])
    y = BochnerElement.from_lists([[1], [-1]])
    res = is_bj_orthogonal(x, y, ELL1_1D)  # |1+a| + |1-a| >= 2 for all a
    assert res.verdict
    assert res.margin == pytest.approx(0.0, abs=1e-12)


def test_bj_orthogonal_self_fails_with_full_margin():
    x = single_block(1.0, 0.0)
    res = is_bj_orthogonal(x, x, SpaceSpec(2, 2, 1, 2, (1.0,)))
    assert not res.verdict
    assert res.margin == pytest.approx(-1.0, abs=1e-9)  # minimum 0 at a = -1
    assert res.alpha_star == pytest.approx(-1.0, abs=1e-6)


def test_bj_orthogonal_zero_cases():
    spec = SpaceSpec(2, 2, 1, 2, (1.0,))
    with pytest.raises(ZeroElement):
        is_bj_orthogonal(single_block(0.0, 0.0), single_block(1.0, 0.0), spec)
    res = is_bj_orthogonal(single_block(1.0, 0.0), single_block(0.0, 0.0), spec)
    assert res.verdict and res.margin == 0.0
    # ||x|| = 1.004585, whose pow square is an ulp below its x * x square:
    # psi is that constant, and the margin still reads exactly 0
    x = single_block(1.004585, 0.0)
    assert ortho._squares(np.array([1.004585]))[0] != 1.004585 * 1.004585
    for eps in (0.0, 0.3):
        res = is_approx_bj_orthogonal(x, single_block(0.0, 0.0), eps, spec)
        assert (res.verdict, res.margin, res.boundary, res.alpha_star) == (True, 0.0, False, 0.0)
        assert math.copysign(1.0, res.margin) == 1.0


@pytest.mark.parametrize("x_norm", [1e-300, 1e-200, 1e200, 1.5e308])
def test_y_zero_passes_at_every_scale_of_x(x_norm):
    # ||x||^2 leaves the float range here, and at 1.5e308 with eps = 0.9 so
    # does 2 eps ||x||: a y = 0 row never squares ||x||, alone or stacked
    spec = SpaceSpec(2, 2, 1, 2, (1.0,))
    x, zero = single_block(x_norm, 0.0), single_block(0.0, 0.0)
    passes = (True, 0.0, False, 0.0)
    res = is_bj_orthogonal(x, zero, spec)
    assert (res.verdict, res.margin, res.boundary, res.alpha_star) == passes
    for eps in (0.0, 0.3, 0.9):
        res = is_approx_bj_orthogonal(x, zero, eps, spec)
        assert (res.verdict, res.margin, res.boundary, res.alpha_star) == passes
    xs = np.stack([x.blocks, np.array([[1.0, 0.0]])])
    ys = np.stack([zero.blocks, np.array([[0.5, 1.0]])])
    nx, ny = ortho._norm_rows(xs, spec)[1], ortho._norm_rows(ys, spec)[1]
    alone = is_approx_bj_orthogonal(BochnerElement(xs[1]), BochnerElement(ys[1]), 0.9, spec)
    stacked = ortho._approx_checks(xs, ys, nx, ny, 0.9, spec)
    assert [tuple(column[0] for column in stacked)] == [passes]
    assert tuple(column[1] for column in stacked) == (
        alone.verdict, alone.margin, alone.boundary, alone.alpha_star)


def test_approx_check_true_for_orthogonal_pairs_any_eps():
    spec = SpaceSpec(2, 2, 2, 2, (1.0, 1.0))
    x = BochnerElement.from_lists([[1, 0], [0, 0]])
    y = BochnerElement.from_lists([[0, 1], [0, 0]])
    for eps in (0.0, 0.3, 0.9):
        assert is_approx_bj_orthogonal(x, y, eps, spec).verdict


def test_approx_check_collinear_analytic():
    spec = SpaceSpec(2, 2, 1, 2, (1.0,))
    x = single_block(1.0, 0.0)
    res = is_approx_bj_orthogonal(x, x, 0.5, spec)
    assert not res.verdict
    # gap at a = -0.5: 0.25 - 1 + 0.5
    assert res.margin == pytest.approx(-0.25, abs=1e-9)


def test_approx_check_near_critical_pair_matches_grid_oracle():
    spec = SpaceSpec(2, 2, 1, 2, (1.0,))
    x = single_block(1.0, 0.0)
    y = single_block(0.1, 1.0)
    res = is_approx_bj_orthogonal(x, y, 0.1, spec)
    assert res.verdict  # |F_x(y)| = 0.1 <= 0.1 * ||y||
    assert res.margin == pytest.approx(0.0, abs=1e-12)
    assert grid_min_gap(x, y, 0.1, spec) >= -1e-9


@given(spec_with_elements(count=2))
def test_approx_check_agrees_with_grid_oracle(data):
    spec, x, y = data
    eps = 0.25
    res = is_approx_bj_orthogonal(x, y, eps, spec)
    ny = bochner_norm(y, spec)
    if ny == 0.0:
        assert res.verdict and res.margin == 0.0
        return
    if ny < 1e-30 * (1.0 + bochner_norm(x, spec)):
        return  # plain-formula oracle underflows at this scale
    grid = grid_min_gap(x, y, eps, spec, points=4001)
    nx2 = bochner_norm(x, spec) ** 2
    # solver min is never above the grid min; both sit together near passes
    assert res.margin <= grid / nx2 + 1e-12
    if res.verdict and not res.boundary:
        assert grid / nx2 >= -1e-10


@given(spec_with_elements(count=2))
def test_exact_check_agrees_with_grid_oracle(data):
    spec, x, y = data
    res = is_bj_orthogonal(x, y, spec)
    nx, ny = bochner_norm(x, spec), bochner_norm(y, spec)
    if ny == 0.0:
        assert res.verdict and res.margin == 0.0
        return
    if ny < 1e-30 * (1.0 + nx):
        return  # plain-formula oracle underflows at this scale
    grid = (grid_min_norm(x, y, spec, points=4001) - nx) / nx
    # solver min is never above the grid min, up to golden section's final
    # bracket (its width times the slope bound ||y||, relative to ||x||, is
    # 4 GOLDEN_TOL; doubled for rounding); both sit together near passes
    assert res.margin <= grid + 8.0 * ortho.GOLDEN_TOL
    if res.verdict and not res.boundary:
        assert grid >= -1e-10


def test_min_certificate_value_examples():
    x = BochnerElement.from_lists([[1], [1]])
    y = BochnerElement.from_lists([[1], [-1]])
    assert min_certificate_value(x, y, ELL1_1D) == pytest.approx(0.0, abs=1e-15)

    x2 = BochnerElement.from_lists([[1], [0]])
    y2 = BochnerElement.from_lists([[0], [3]])
    assert min_certificate_value(x2, y2, ELL1_1D) == pytest.approx(0.0, abs=1e-15)

    y3 = BochnerElement.from_lists([[2], [1]])
    assert min_certificate_value(x2, y3, ELL1_1D) == pytest.approx(1.0)
    assert brute_min_certificate(x2, y3, ELL1_1D) == pytest.approx(1.0)


def test_min_certificate_value_errors():
    spec = SpaceSpec(1, 1, 2, 2, (1.0, 1.0))
    f = BochnerElement.from_lists([[1, 0], [0, 0]])
    with pytest.raises(NotSmooth):
        min_certificate_value(f, f, spec)
    with pytest.raises(ZeroElement):
        min_certificate_value(BochnerElement(np.zeros((2, 1))),
                              BochnerElement(np.ones((2, 1))), ELL1_1D)


@pytest.mark.parametrize("q", [1.5, 2.0, 3.0])
def test_min_certificate_matches_brute_force(q):
    rng = rng_for("brute_cert", int(q * 2))
    for n, d in ((2, 1), (2, 2), (3, 2)):
        spec = SpaceSpec(1, q, n, d, tuple(rng.uniform(0.2, 3.0, n)))
        for _ in range(40):
            x = rng.standard_normal((n, d))
            x[rng.integers(0, n)] = 0.0  # force zero-block freedom
            if np.abs(x).max() == 0.0:
                continue
            y = BochnerElement(rng.standard_normal((n, d)))
            xe = BochnerElement(x)
            closed = min_certificate_value(xe, y, spec)
            assert closed == pytest.approx(
                brute_min_certificate(xe, y, spec), abs=1e-6)


def test_min_certificate_slice_matches_full_dual_ball():
    # the norming-direction slice of each zero block reaches the same
    # interval of T(y) values as the whole dual ball (coarse grid check)
    rng = rng_for("fullball")
    spec = SpaceSpec(1, 2, 2, 2, (1.0, 1.5))
    for _ in range(20):
        x = rng.standard_normal((2, 2))
        x[1] = 0.0
        xe = BochnerElement(x)
        y = BochnerElement(rng.standard_normal((2, 2)))
        full = brute_min_certificate_fullball(xe, y, spec)
        assert min_certificate_value(xe, y, spec) == pytest.approx(full, abs=2e-2)


def test_certificate_check_examples():
    x = BochnerElement.from_lists([[1], [1]])
    y = BochnerElement.from_lists([[1], [-1]])
    assert certificate_check(x, y, 0.0, ELL1_1D).verdict

    spec = SpaceSpec(2, 2, 1, 2, (1.0,))
    x1 = single_block(1.0, 0.0)
    res = certificate_check(x1, x1, 0.5, spec)
    assert not res.verdict  # |T(y)| = ||y|| = 1 > 0.5


@pytest.mark.parametrize("p", [1.0, 2.0, 3.0])
def test_certificate_field_attains_minimum(p):
    rng = rng_for("cert_field", int(p))
    spec = SpaceSpec(p, 2, 3, 2, (1.0, 0.5, 2.0))
    # p = 1 exercises the clamped zero-block fill, over one zero block of x
    # and then over two, where it can stop part-way through either block
    zero_blocks = ([2], [0, 2]) if p == 1.0 else ([],)
    for zeros in zero_blocks:
        for _ in range(25):
            x = rng.standard_normal((3, 2))
            x[zeros] = 0.0
            xe = BochnerElement(x)
            y = BochnerElement(rng.standard_normal((3, 2)))
            res = certificate_check(xe, y, 0.2, spec)
            T = res.certificate
            assert functional_norm(T, spec) == pytest.approx(1.0, rel=1e-9)
            assert apply_functional(T, xe, spec) == pytest.approx(
                bochner_norm(xe, spec), rel=1e-9)
            assert abs(apply_functional(T, y, spec)) == pytest.approx(
                min_certificate_value(xe, y, spec), abs=1e-9)


def test_make_orthogonal_partner_examples():
    spec = SpaceSpec(2, 2, 1, 2, (1.0,))
    e1 = single_block(1.0, 0.0)
    e2 = single_block(0.0, 1.0)
    np.testing.assert_allclose(
        make_orthogonal_partner(e1, e1, spec).blocks, 0.0, atol=1e-15)
    np.testing.assert_allclose(
        make_orthogonal_partner(e1, e2, spec).blocks, e2.blocks, atol=1e-15)


@pytest.mark.parametrize("p,q", [(1.0, 2.0), (1.5, 3.0), (2.0, 2.0), (3.0, 1.5)])
def test_make_orthogonal_partner_property(p, q):
    rng = rng_for("partner", int(p * 10 + q))
    spec = SpaceSpec(p, q, 4, 2, (1.0, 2.0, 0.5, 1.0))
    for _ in range(200):
        x, y = draw_orthogonal_pair(spec, rng)
        res = is_bj_orthogonal(x, y, spec)
        assert res.verdict, (x.blocks, y.blocks, res)


@given(spec_with_elements(count=2),
       st.floats(min_value=0.0, max_value=0.9),
       st.floats(min_value=0.0, max_value=0.9))
def test_eps_monotone_margins(data, e1, e2):
    spec, x, y = data
    lo, hi = sorted((e1, e2))
    r_lo = is_approx_bj_orthogonal(x, y, lo, spec)
    r_hi = is_approx_bj_orthogonal(x, y, hi, spec)
    assert r_hi.margin >= r_lo.margin - 1e-12
    if r_lo.verdict and not r_lo.boundary:
        assert r_hi.verdict


@given(spec_with_elements(count=2),
       st.floats(min_value=0.05, max_value=20.0),
       st.floats(min_value=0.05, max_value=20.0))
def test_positive_scaling_invariance(data, a, b):
    spec, x, y = data
    base = is_bj_orthogonal(x, y, spec)
    scaled = is_bj_orthogonal(a * x, b * y, spec)
    if not (base.boundary or scaled.boundary):
        assert base.verdict == scaled.verdict
    base_a = is_approx_bj_orthogonal(x, y, 0.4, spec)
    scaled_a = is_approx_bj_orthogonal(a * x, b * y, 0.4, spec)
    if not (base_a.boundary or scaled_a.boundary):
        assert base_a.verdict == scaled_a.verdict


@given(st.data())
def test_atom_permutation_invariance(data):
    # permuting the atoms together with their masses is an isometry
    spec, x, y = data.draw(spec_with_elements(count=2))
    eps = data.draw(st.floats(min_value=0.0, max_value=0.9))
    perm = list(data.draw(st.permutations(range(spec.n))))
    pspec = SpaceSpec(spec.p, spec.q, spec.n, spec.d,
                      tuple(spec.weights[i] for i in perm))
    px, py = BochnerElement(x.blocks[perm]), BochnerElement(y.blocks[perm])
    checks = [is_approx_bj_orthogonal, certificate_check]
    if spec.p > 1.0:
        checks.append(sip_orthogonality_criterion)
    for check in checks:
        base = check(x, y, eps, spec)
        permuted = check(px, py, eps, pspec)
        if not (base.boundary or permuted.boundary):
            assert base.verdict == permuted.verdict, check.__name__
        assert permuted.margin == pytest.approx(base.margin, abs=1e-12), check.__name__


def test_eps_zero_matches_exact_check():
    rng = rng_for("eps_zero")
    spec = SpaceSpec(1.5, 2, 3, 2, (1.0, 2.0, 0.5))
    for k in range(300):
        if k % 3 == 0:
            x, y = draw_orthogonal_pair(spec, rng)
        else:
            x = random_element(spec, rng)
            y = random_element(spec, rng)
        exact = is_bj_orthogonal(x, y, spec)
        approx = is_approx_bj_orthogonal(x, y, 0.0, spec)
        if not (exact.boundary or approx.boundary):
            assert exact.verdict == approx.verdict


def test_hilbert_reduction():
    # p = q = 2: the exact check must match the weighted dot-product test
    rng = rng_for("hilbert")
    spec = SpaceSpec(2, 2, 3, 2, (1.0, 0.5, 2.0))
    tol = 1e-9
    compared = 0
    for k in range(300):
        if k % 3 == 0:
            x, y = draw_orthogonal_pair(spec, rng)
        else:
            x = random_element(spec, rng)
            y = random_element(spec, rng)
        dot = float(spec.mu @ np.einsum("ij,ij->i", x.blocks, y.blocks))
        stat = abs(dot) / (bochner_norm(x, spec) * bochner_norm(y, spec))
        res = is_bj_orthogonal(x, y, spec)
        # the norm-minimization margin is quadratic in the dot statistic, so
        # verdicts are only comparable outside the square-root band
        if res.boundary or tol < stat < 1e-3:
            continue
        compared += 1
        assert res.verdict == (stat <= tol)
    assert compared > 250


def test_certificate_route_agrees_with_direct_route():
    rng = rng_for("route_agree")
    spec = SpaceSpec.sequence(1, 2, 5, 3)
    compared = 0
    for k in range(1000):
        eps = float(rng.uniform(0.0, 0.9))
        if k % 3 == 0:
            x, y = draw_orthogonal_pair(spec, rng)
        else:
            x = random_element(spec, rng)
            y = random_element(spec, rng)
        direct = is_approx_bj_orthogonal(x, y, eps, spec)
        cert = certificate_check(x, y, eps, spec)
        if direct.boundary or cert.boundary or abs(cert.margin) < 1e-3:
            continue  # inside the cross-route sensitivity band
        compared += 1
        assert direct.verdict == cert.verdict, (eps, direct, cert)
    assert compared > 900


def test_non_symmetry_witness_found_by_random_search():
    # orthogonality is direction-dependent away from Hilbert space; the
    # checks must expose a pair with x perp y but not y perp x
    rng = rng_for("nonsym")
    spec = SpaceSpec(1, 2, 2, 1, (1.0, 1.0))
    found = False
    for _ in range(200):
        x, y = draw_orthogonal_pair(spec, rng)
        assert is_bj_orthogonal(x, y, spec).verdict
        back = is_bj_orthogonal(y, x, spec)
        if not back.verdict and not back.boundary and back.margin < -1e-3:
            found = True
            break
    assert found


def test_boundary_flag_semantics_near_critical_pair():
    # a pair a hair outside the approximate-orthogonality region: the linear
    # certificate margin sees it (flagged fail), the quadratic minimization
    # margin cannot (clean pass at its own scale)
    spec = SpaceSpec(2, 2, 1, 2, (1.0,))
    x = single_block(1.0, 0.0)
    eps = 0.1
    delta = 5e-9
    c = eps / math.sqrt(1.0 - eps * eps) + delta  # |F_x(y)| just above eps*||y||
    y = single_block(c, 1.0)
    cert = certificate_check(x, y, eps, spec)
    assert not cert.verdict and cert.boundary
    direct = is_approx_bj_orthogonal(x, y, eps, spec)
    assert direct.verdict and not direct.boundary
    assert direct.margin > -1e-13


def test_approx_param_validation():
    spec = SpaceSpec(2, 2, 1, 2, (1.0,))
    x, y = single_block(1.0, 0.0), single_block(0.0, 1.0)
    for eps in (1.0, -0.1, math.nan, "0.5", True):
        with pytest.raises(BadSpec, match="epsilon"):
            is_approx_bj_orthogonal(x, y, eps, spec)


@pytest.mark.parametrize("p,q", [(3.0, 1.5), (1.5, 3.0)])
@pytest.mark.parametrize("x_norm", [1e200, 1e-200, 1e154])
def test_extreme_scales_raise_typed_errors(p, q, x_norm):
    # ||x||^2 overflows (1e200) or underflows to 0 (1e-200); at 1e154 it
    # fits but ||x + a y||^2 overflows inside the minimization
    spec = SpaceSpec.sequence(p, q, 6, 3)
    x, y = draw_orthogonal_pair(spec, rng_for("extreme_scales"))
    s = x_norm / bochner_norm(x, spec)
    x, y = s * x, s * y
    with pytest.raises(NonFiniteValue):
        is_approx_bj_orthogonal(x, y, 0.3, spec)
    assert is_bj_orthogonal(x, y, spec).verdict
    assert certificate_check(x, y, 0.3, spec).verdict


@pytest.mark.parametrize("p,q", [(3.0, 1.5), (3.0, 2.0), (2.0, 2.0), (1.0, 2.0)])
@pytest.mark.parametrize("scale", [1e-310, 1e-200, 1e-160, 1e154, 1e200, 1e300])
def test_extreme_scales_keep_the_verdict_or_raise_typed_errors(p, q, scale):
    # at q = 2 a sum of squares past the float range once gave an inf norm,
    # or NaN with a RuntimeWarning; it is now recomputed scaled.  The
    # approximate route squares ||x|| first, so it may still refuse a scale
    spec = SpaceSpec(p, q, 4, 3, (1.0, 0.5, 2.0, 1.0))
    rng = rng_for("extreme_scale_table")
    x, y = draw_orthogonal_pair(spec, rng)
    for u, v in ((x, y), (x, random_element(spec, rng))):
        exact, approx, cert = (is_bj_orthogonal(u, v, spec),
                               is_approx_bj_orthogonal(u, v, 0.3, spec),
                               certificate_check(u, v, 0.3, spec))
        assert not (exact.boundary or approx.boundary or cert.boundary)
        u, v = scale * u, scale * v
        assert is_bj_orthogonal(u, v, spec).verdict == exact.verdict
        assert certificate_check(u, v, 0.3, spec).verdict == cert.verdict
        try:
            assert is_approx_bj_orthogonal(u, v, 0.3, spec).verdict == approx.verdict
        except NonFiniteValue:
            pass


def test_search_radius_outside_the_float_range_is_a_typed_error():
    # 4||x||/||y|| = 4e310 overflows; the certificate route needs no radius
    spec = SpaceSpec.sequence(3, 1.5, 6, 3)
    x, y = draw_orthogonal_pair(spec, rng_for("radius_overflow"))
    x, y = x * (1.0 / bochner_norm(x, spec)), y * (1e-310 / bochner_norm(y, spec))
    assert 0.0 < bochner_norm(y, spec) < 1e-300
    message = r"^4\|\|x\|\|/\|\|y\|\| = inf is outside the float range$"
    with pytest.raises(NonFiniteValue, match=message):
        is_bj_orthogonal(x, y, spec)
    with pytest.raises(NonFiniteValue, match=message):
        is_approx_bj_orthogonal(x, y, 0.3, spec)
    assert certificate_check(x, y, 0.3, spec).verdict
    # as row 2 of a stack, before a row 3 with x = 0: the stack raises row
    # 2's error, and rows 0 and 1, as their own stack, get their one-pair
    # results
    good = [draw_orthogonal_pair(spec, rng_for("radius_overflow", k)) for k in range(2)]
    xs = np.stack([u.blocks for u, _ in good] + [x.blocks, np.zeros((6, 3))])
    ys = np.stack([v.blocks for _, v in good] + [y.blocks, y.blocks])
    nx, ny = ortho._norm_rows(xs, spec)[1], ortho._norm_rows(ys, spec)[1]
    for checks, one_pair in (
            (lambda r: ortho._exact_checks(xs[r], ys[r], nx[r], ny[r], spec),
             is_bj_orthogonal),
            (lambda r: ortho._approx_checks(xs[r], ys[r], nx[r], ny[r], 0.3, spec),
             lambda u, v, s: is_approx_bj_orthogonal(u, v, 0.3, s))):
        with pytest.raises(NonFiniteValue, match=message):
            checks(slice(None))
        assert list(zip(*checks(slice(2)))) == [
            (r.verdict, r.margin, r.boundary, r.alpha_star)
            for r in (one_pair(u, v, spec) for u, v in good)]


def probe_schedule(radius):
    return sorted(offset * radius for offset in ortho._PROBE_OFFSETS)


def probe_one(f, radius, level):
    """_certified_probes on the one-row stack of the float function f: its
    (alpha, value), or None when the probes leave it uncertified."""
    def objective(alphas, rows):
        assert np.arange(1)[rows].tolist() == [0]
        return np.array([f(a) for a in alphas.tolist()])

    alpha, value = ortho._certified_probes(objective, np.array([radius]),
                                           np.array([f(0.0)]), np.array([level]))
    return None if math.isnan(value[0]) else (float(alpha[0]), float(value[0]))


@given(st.floats(min_value=0.1, max_value=10.0),
       st.lists(st.tuples(st.floats(min_value=-5.0, max_value=5.0),
                          st.floats(min_value=-5.0, max_value=5.0)),
                min_size=1, max_size=4),
       st.floats(min_value=0.0, max_value=3.0),
       st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=2.0)))
def test_secant_bound_is_below_grid_minimum(radius, lines, curvature, kink):
    def f(a):
        return (np.max([s * a + b for s, b in lines], axis=0) + curvature * a * a
                + kink * np.abs(a))

    alphas = probe_schedule(radius)
    values = [float(f(a)) for a in alphas]
    bound = ortho._secant_lower_bound(alphas, values)
    grid_min = min(f(np.linspace(-radius, radius, 20001)).min(), min(values))
    assert bound <= grid_min + 1e-9 * (1.0 + max(map(abs, values)))


def test_dip_between_probes_is_not_certified():
    # a V-shaped dip of depth 1e-9 between the probes at 0.01 r and r: every
    # probe is positive, so only the secant bound can refuse the certificate
    r, depth, centre, half_width = 4.0, 1e-9, 1.2, 0.4

    def f(a):
        return depth * (abs(a - centre) / half_width - 1.0)

    assert min(map(f, probe_schedule(r))) > 0.0
    assert probe_one(f, r, -ortho.ONE_SIDED_NOISE_FLOOR) is None


def test_probes_stop_at_the_first_value_below_the_level():
    seen = []

    def f(a):
        seen.append(a)
        return a  # below the level at -r, the second probe

    assert probe_one(f, 2.0, -1e-13) is None
    assert seen == [0.0, -2.0]


@pytest.mark.parametrize("depth", [1e-9, 1e-11])
def test_dip_in_the_check_falls_back_to_golden_section(depth):
    # p = q = 2, eps = 0: psi(a) = 2ac + a^2 ||y||^2 dips to -c^2/||y||^2,
    # about -depth ||x||^2, at a ~ -c r/4, between two probes
    spec = SpaceSpec(2, 2, 1, 2, (1.0,))
    c = math.sqrt(depth)
    x, y = single_block(1.0, 0.0), single_block(c, 1.0)
    res = is_approx_bj_orthogonal(x, y, 0.0, spec)
    nx, ny = bochner_norm(x, spec), bochner_norm(y, spec)
    alpha, value = minimize_convex_1d(
        lambda a: bochner_norm(x + a * y, spec) ** 2 - nx * nx, 4.0 * nx / ny)
    assert res.alpha_star == alpha != 0.0
    assert res.margin == value / (nx * nx)
    assert res.margin == pytest.approx(-c * c / (ny * ny), rel=1e-6)
    # the exact check minimizes ||x + a y|| = sqrt(psi(a) + ||x||^2)
    exact = is_bj_orthogonal(x, y, spec)
    alpha, value = minimize_convex_1d(
        lambda a: bochner_norm(x + a * y, spec), 4.0 * nx / ny)
    assert exact.alpha_star == alpha != 0.0
    assert exact.margin == (value - nx) / nx


def test_preserved_pair_is_certified_by_the_probes(monkeypatch):
    rng = rng_for("certified_probes")
    spec = SpaceSpec(3, 1.5, 6, 3, (1.0,) * 6)
    U = u_eps_Lp(0.3, AtomPartition((0, 1, 2), 6), spec)
    calls = []  # one entry per Bochner norm, a stack counting its rows
    norm_rows = ortho._norm_rows
    monkeypatch.setattr(ortho, "_norm_rows",
                        lambda stack, s: calls.extend([1] * len(stack)) or norm_rows(stack, s))
    for _ in range(20):
        x, y = draw_orthogonal_pair(spec, rng)
        ux, uy = apply_operator(U, x), apply_operator(U, y)
        calls.clear()
        res = is_approx_bj_orthogonal(ux, uy, 0.3, spec)
        assert len(calls) <= 14  # ||x||, ||y|| and the 12 nonzero probes
        assert res.verdict and not res.boundary
        assert res.margin == 0.0 and res.alpha_star == 0.0
        calls.clear()
        exact = is_bj_orthogonal(x, y, spec)
        assert len(calls) <= 14
        assert exact.verdict and not exact.boundary
        assert exact.margin == 0.0 and exact.alpha_star == 0.0


def golden_section_only():
    return mock.patch.object(ortho, "_certified_probes",
                             lambda objective, radius, *args: (np.full(len(radius), np.nan),
                                                               np.full(len(radius), np.nan)))


def typed_row(verdict, margin, boundary, alpha) -> tuple:
    """A check's row with its floats as bits, so 0.0 and -0.0 differ."""
    return bool(verdict), float(margin).hex(), bool(boundary), float(alpha).hex()


@pytest.mark.parametrize("spec", [SpaceSpec(3, 1.5, 4, 2, (1.0,) * 4),
                                  SpaceSpec(1, 2, 4, 2, (1.0, 2.0, 0.5, 1.0)),
                                  SpaceSpec(2.5, 3, 4, 2, (1.0, 0.3, 1.5, 2.0))])
def test_stacked_y_zero_rows_pass_at_alpha_zero(spec):
    # rows 1 and 3 have y = 0 and row 4 is a random pair: a y = 0 row's
    # objective is constant, so the probes, or golden section alone, keep
    # alpha = 0, and every row gets its one-pair result
    rng = rng_for("stacked_y_zero")
    pairs = [draw_orthogonal_pair(spec, rng) for _ in range(4)]
    for i in (1, 3):
        pairs[i] = (pairs[i][0], pairs[i][1] * 0.0)
    pairs.append((random_element(spec, rng), random_element(spec, rng)))
    xs, ys = (np.stack([pair[k].blocks for pair in pairs]) for k in (0, 1))
    nx, ny = ortho._norm_rows(xs, spec)[1], ortho._norm_rows(ys, spec)[1]
    passes = typed_row(True, 0.0, False, 0.0)
    for only in (False, True):
        with golden_section_only() if only else contextlib.nullcontext():
            checks = [(ortho._exact_checks(xs, ys, nx, ny, spec),
                       [is_bj_orthogonal(x, y, spec) for x, y in pairs])]
            for eps in (0.3, np.array([0.1, 0.3, 0.5, 0.7, 0.9])):
                checks.append((ortho._approx_checks(xs, ys, nx, ny, eps, spec),
                               [is_approx_bj_orthogonal(x, y, e, spec)
                                for (x, y), e in zip(pairs, np.broadcast_to(eps, 5))]))
        for stacked, alone in checks:
            rows = [typed_row(*row) for row in zip(*stacked)]
            assert rows == [typed_row(r.verdict, r.margin, r.boundary, r.alpha_star)
                            for r in alone]
            assert rows[1] == rows[3] == passes


def test_failing_pair_keeps_the_golden_section_result():
    rng = rng_for("failing_probes")
    spec = SpaceSpec(1.5, 3, 4, 2, (1.0, 2.0, 0.5, 1.0))
    failed = 0
    for _ in range(40):
        x, y = random_element(spec, rng), random_element(spec, rng)
        with golden_section_only():
            full = (is_approx_bj_orthogonal(x, y, 0.2, spec),
                    is_bj_orthogonal(x, y, spec))
        probed = (is_approx_bj_orthogonal(x, y, 0.2, spec),
                  is_bj_orthogonal(x, y, spec))
        assert probed == full
        failed += not probed[0].verdict
    assert failed > 10


@given(spec_with_elements(count=2), st.floats(min_value=0.0, max_value=0.9))
def test_probes_keep_verdicts_and_boundary_flags(data, eps):
    spec, x, y = data
    probed = (is_approx_bj_orthogonal(x, y, eps, spec), is_bj_orthogonal(x, y, spec))
    with golden_section_only():
        full = (is_approx_bj_orthogonal(x, y, eps, spec), is_bj_orthogonal(x, y, spec))
    for a, b in zip(probed, full):
        assert (a.verdict, a.boundary) == (b.verdict, b.boundary)
        # a certified margin and golden section's both lie in [-floor, 0]
        assert a.margin == pytest.approx(b.margin, abs=ortho.ONE_SIDED_NOISE_FLOOR)
