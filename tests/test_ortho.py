import math

import numpy as np
import pytest
from hypothesis import given
import hypothesis.strategies as st

from bjlab import (
    ApproxParam,
    BadSpec,
    BochnerElement,
    NonFiniteValue,
    NotSmooth,
    SpaceSpec,
    ZeroElement,
    apply_functional,
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
)
from conftest import rng_for, spec_with_elements
from oracles import brute_min_certificate, brute_min_certificate_fullball, grid_min_gap

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
    with pytest.raises(BadSpec):
        minimize_convex_1d(lambda a: a * a, radius=0.0)


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


def test_approx_check_true_for_orthogonal_pairs_any_eps():
    spec = SpaceSpec(2, 2, 2, 2, (1.0, 1.0))
    x = BochnerElement.from_lists([[1, 0], [0, 0]])
    y = BochnerElement.from_lists([[0, 1], [0, 0]])
    for eps in (0.0, 0.3, 0.9):
        assert is_approx_bj_orthogonal(x, y, eps, spec).verdict


def test_approx_check_collinear_analytic():
    spec = SpaceSpec(2, 2, 1, 2, (1.0,))
    x = single_block(1.0, 0.0)
    res = is_approx_bj_orthogonal(x, x, ApproxParam(0.5), spec)
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
        res = is_bj_orthogonal(x, y, spec, tol)
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
    with pytest.raises(BadSpec):
        ApproxParam(1.0)
    with pytest.raises(BadSpec):
        ApproxParam(-0.1)
    assert float(ApproxParam(0.25)) == 0.25
