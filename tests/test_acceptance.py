"""Acceptance suite: runs every exit criterion at its stated tolerance and
prints one pass/fail line per criterion (visible with pytest -s/-v)."""

import math
import time
from itertools import islice, product

import numpy as np
import pytest

from bjlab import (
    AtomPartition,
    BochnerElement,
    ScalingOperator,
    SpaceSpec,
    draw_orthogonal_pair,
    inner_duality_map,
    is_scalar_multiple_of_isometry,
    min_certificate_value,
    random_element,
    u_eps_L1,
    u_eps_l1,
    u_eps_Lp,
)
from bjlab.blockspace import _norm_rows
from bjlab.harness import TRIAL_COLUMNS, ExperimentConfig, run, trial_rng
from bjlab.ortho import _approx_checks, _exact_checks
from bjlab.sip import _axiom_reports
from oracles import brute_min_certificate, central_diff_gradient

EPS_GRID = (0.1, 0.3, 0.5, 0.7, 0.9)
TOL = 1e-9


def _report(criterion: str, ok: bool, detail: str):
    print(f"[criterion {criterion}] {'PASS' if ok else 'FAIL'} - {detail}")


def _sweep(spec, seed, trials, partition=None):
    """A preserver-sweep over EPS_GRID: its summary and route disagreements
    (rows not flagged boundary whose two verdicts differ)."""
    report = run(ExperimentConfig(mode="preserver-sweep", spec=spec,
                                  trials=trials, seed=seed, epsilons=EPS_GRID,
                                  partition=partition), echo=False)
    col = {name: i for i, name in enumerate(TRIAL_COLUMNS)}
    disagreements = sum(
        1 for row in report.rows if not row[col["boundary"]]
        and row[col["direct_verdict"]] != row[col["second_verdict"]])
    return report.summary, disagreements


def test_criterion_1_l1_theorem_reproduction():
    spec = SpaceSpec.sequence(1, 2, 8, 3)
    start = time.perf_counter()
    counts, _ = _sweep(spec, seed=1001, trials=1000)
    elapsed = time.perf_counter() - start
    total = counts["trials"]
    ok = (counts["fail"] == 0 and counts["boundary"] < 0.01 * total
          and elapsed < 30.0)
    _report("1 l1-sequence theorem", ok,
            f"{counts['pass']}/{total} pass, {counts['boundary']} boundary, "
            f"{elapsed:.1f}s")
    assert counts["fail"] == 0
    assert counts["boundary"] < 0.01 * total
    assert elapsed < 30.0


def test_criterion_2_weighted_L1_theorem_reproduction():
    weights = tuple(np.random.default_rng(2026).uniform(0.1, 5.0, 6))
    spec = SpaceSpec(1, 2, 6, 3, weights)
    part = AtomPartition((0, 1, 2), 6)
    start = time.perf_counter()
    counts, _ = _sweep(spec, seed=1002, trials=1000, partition=part)
    elapsed = time.perf_counter() - start
    total = counts["trials"]
    ok = (counts["fail"] == 0 and counts["boundary"] < 0.01 * total
          and elapsed < 30.0)
    _report("2 weighted-L1 theorem", ok,
            f"{counts['pass']}/{total} pass, {counts['boundary']} boundary, "
            f"{elapsed:.1f}s")
    assert counts["fail"] == 0
    assert counts["boundary"] < 0.01 * total
    assert elapsed < 30.0


def test_criterion_3_lp_theorem_reproduction_both_routes():
    start = time.perf_counter()
    grand = {"pass": 0, "fail": 0, "boundary": 0}
    disagreements = 0
    for k, (p, q) in enumerate(product((1.5, 2.0, 3.0), (1.5, 2.0, 3.0))):
        spec = SpaceSpec(p, q, 6, 3, (1.0,) * 6)
        part = AtomPartition((0, 1, 2), 6)
        counts, dis = _sweep(spec, seed=1003 + k, trials=200, partition=part)
        disagreements += dis
        for key in grand:
            grand[key] += counts[key]
    elapsed = time.perf_counter() - start
    total = sum(grand.values())
    ok = (grand["fail"] == 0 and disagreements == 0
          and grand["boundary"] < 0.01 * total and elapsed < 120.0)
    _report("3 Lp theorem, two routes", ok,
            f"{grand['pass']}/{total} pass, {grand['boundary']} boundary, "
            f"{disagreements} route disagreements, {elapsed:.1f}s")
    assert grand["fail"] == 0
    assert disagreements == 0
    assert grand["boundary"] < 0.01 * total
    assert elapsed < 120.0


def test_criterion_4_non_isometry_with_spread_floor():
    eps = 0.5
    problems = []

    seq = SpaceSpec.sequence(1, 2, 6, 3)
    ok1, s1 = is_scalar_multiple_of_isometry(u_eps_l1(eps, seq), seq)
    if ok1 or s1 < eps / 2.0:
        problems.append(f"l1 spread {s1}")

    wspec = SpaceSpec(1, 2, 6, 3, (0.5, 1.0, 2.0, 1.5, 0.8, 3.0))
    part = AtomPartition((0, 1, 2), 6)
    ok2, s2 = is_scalar_multiple_of_isometry(u_eps_L1(eps, part, wspec), wspec)
    if ok2 or s2 < eps / 2.0:
        problems.append(f"L1 spread {s2}")

    spreads = []
    for p in (1.5, 2.0, 3.0):
        spec = SpaceSpec(p, 2, 6, 3, (1.0,) * 6)
        okp, sp = is_scalar_multiple_of_isometry(u_eps_Lp(eps, part, spec), spec)
        spreads.append(sp)
        if okp or sp < eps / (2.0 * p):
            problems.append(f"Lp p={p} spread {sp}")

    spec = SpaceSpec(2, 2, 6, 3, (1.0,) * 6)
    for c in (1.0, 2.0):
        okc, sc = is_scalar_multiple_of_isometry(
            ScalingOperator(c * np.ones(6)), spec)
        if not okc or sc > 1e-12:
            problems.append(f"{c}*identity spread {sc}")

    _report("4 non-isometry detection", not problems,
            f"spreads l1={s1:.3f} L1={s2:.3f} Lp={['%.3f' % s for s in spreads]}"
            + (f"; problems: {problems}" if problems else ""))
    assert not problems


def test_criterion_5_giles_axiom_grid():
    start = time.perf_counter()
    worst_rel = 0.0
    worst_norm_rel = 0.0
    samples = 10_000
    for k, (p, q) in enumerate(product((1.5, 2.0, 3.0, 4.0), (1.5, 2.0, 3.0))):
        spec = SpaceSpec(p, q, 3, 2, (1.0, 0.5, 2.0))
        # the cell's samples drawn from its one generator in turn: f, g and
        # h as random_element(min_norm=0) draws them, then (a, b)
        rng = trial_rng(1005, k)
        F, G, H = (np.empty((samples, spec.n, spec.d)) for _ in range(3))
        ab = np.empty((samples, 2))
        for i in range(samples):
            for out in (F[i], G[i], H[i]):
                rng.standard_normal(out=out)
            ab[i] = rng.standard_normal(2) * 1.5
        reports = _axiom_reports(F, G, H, ab[:, 0], ab[:, 1], spec)
        for rep, nf in zip(reports, _norm_rows(F, spec)[1].tolist()):
            worst_rel = max(worst_rel, rep.max_relative())
            nf2 = nf ** 2
            if nf2 > 0.0:
                worst_norm_rel = max(worst_norm_rel,
                                     rep.norm_compatibility / nf2)
    elapsed = time.perf_counter() - start
    ok = worst_rel <= 1e-9 and worst_norm_rel <= 1e-10
    _report("5 Giles axiom grid", ok,
            f"max residual {worst_rel:.2e} (<=1e-9), "
            f"norm-compat {worst_norm_rel:.2e} (<=1e-10), {elapsed:.1f}s")
    assert worst_rel <= 1e-9
    assert worst_norm_rel <= 1e-10


def test_criterion_6a_certificate_closed_form_vs_brute_force():
    rng = trial_rng(1006, 0)
    worst = 0.0
    checked = 0
    for q in (1.5, 2.0, 3.0):
        for n, d in ((2, 1), (2, 2), (3, 1), (3, 2)):
            spec = SpaceSpec(1, q, n, d, tuple(rng.uniform(0.2, 3.0, n)))
            for _ in range(25):
                x = rng.standard_normal((n, d))
                x[rng.integers(0, n)] = 0.0
                if np.abs(x).max() == 0.0:
                    continue
                xe = BochnerElement(x)
                y = BochnerElement(rng.standard_normal((n, d)))
                closed = min_certificate_value(xe, y, spec)
                brute = brute_min_certificate(xe, y, spec, grid=41)
                worst = max(worst, abs(closed - brute))
                checked += 1
    ok = worst <= 1e-6
    _report("6a certificate vs brute force", ok,
            f"{checked} instances, max discrepancy {worst:.2e} (<=1e-6)")
    assert worst <= 1e-6


def _pair_stream(spec, seed, limit):
    """Mix of generic, exactly-orthogonal, and near-orthogonal pairs."""
    for i in range(limit):
        rng = trial_rng(seed, i)
        kind = i % 5
        if kind in (0, 1):
            x = random_element(spec, rng)
            y = random_element(spec, rng)
        else:
            x, y = draw_orthogonal_pair(spec, rng)
            if kind == 4:  # nudge off exact orthogonality
                t = 10.0 ** rng.uniform(-8.0, -2.0)
                y = BochnerElement(y.blocks + t * x.blocks)
        yield x, y


def _checked_stream(spec, seed, limit, checks, size=1000):
    """(x blocks, y blocks, ||x||, ||y||, *results) for each pair of
    _pair_stream in stream order.  The pairs are checked as (B, n, d) stacks
    of up to size pairs, drawn as they are needed: checks(xs, ys, nx, ny)
    gives one result list per check, and a failing row raises its error."""
    pairs = _pair_stream(spec, seed, limit)
    while chunk := list(islice(pairs, size)):
        xs = np.stack([x.blocks for x, _ in chunk])
        ys = np.stack([y.blocks for _, y in chunk])
        nx, ny = _norm_rows(xs, spec)[1], _norm_rows(ys, spec)[1]
        yield from zip(xs, ys, nx.tolist(), ny.tolist(),
                       *checks(xs, ys, nx, ny))


def test_criterion_6b_eps_zero_matches_exact_check():
    start = time.perf_counter()
    mismatches = 0
    excluded = 0
    compared = 0
    for k, spec in enumerate((SpaceSpec(1, 2, 4, 2, (1.0, 2.0, 0.5, 1.0)),
                              SpaceSpec(2.5, 1.5, 4, 2, (1.0, 0.3, 1.5, 2.0)))):
        def checks(xs, ys, nx, ny, spec=spec):
            return (_exact_checks(xs, ys, nx, ny, spec, TOL),
                    _approx_checks(xs, ys, nx, ny, 0.0, spec, TOL))

        done = 0
        for *_, exact, approx in _checked_stream(spec, 1007 + k, 10_000, checks):
            if exact.boundary or approx.boundary:
                excluded += 1
                continue
            compared += 1
            done += 1
            if exact.verdict != approx.verdict:
                mismatches += 1
            if done == 5000:
                break
    elapsed = time.perf_counter() - start
    ok = mismatches == 0 and compared == 10_000
    _report("6b eps=0 equivalence", ok,
            f"{compared} compared, {excluded} boundary-excluded, "
            f"{mismatches} mismatches, {elapsed:.1f}s")
    assert mismatches == 0
    assert compared == 10_000


def test_criterion_6c_hilbert_reduction():
    spec = SpaceSpec(2, 2, 4, 2, (1.0, 0.5, 2.0, 1.0))
    start = time.perf_counter()
    mismatches = 0
    excluded = 0
    compared = 0
    for x, y, nx, ny, res in _checked_stream(
            spec, 1008, 20_000,
            lambda xs, ys, nx, ny: (_exact_checks(xs, ys, nx, ny, spec, TOL),)):
        dot = float(spec.mu @ np.einsum("ij,ij->i", x, y))
        # the stacked norms have the bits of bochner_norm on each element
        stat = abs(dot) / (nx * ny)
        # the minimization margin is quadratic in the dot statistic, so the
        # two tests are only comparable outside the square-root band
        if res.boundary or TOL < stat < math.sqrt(20.0 * TOL):
            excluded += 1
            continue
        compared += 1
        if res.verdict != (stat <= TOL):
            mismatches += 1
        if compared == 10_000:
            break
    elapsed = time.perf_counter() - start
    ok = mismatches == 0 and compared == 10_000
    _report("6c Hilbert reduction", ok,
            f"{compared} compared, {excluded} boundary-excluded, "
            f"{mismatches} mismatches, {elapsed:.1f}s")
    assert mismatches == 0
    assert compared == 10_000


def test_criterion_7_scalar_inequality_grid():
    eps = (np.arange(100) + 0.5) / 100.0          # (0, 1)
    ps = 1.0 + 7.0 * (np.arange(100) + 1.0) / 100.0  # (1, 8]
    gap = 1.0 - (1.0 - eps[None, :] / ps[:, None]) ** ps[:, None] - eps[None, :]
    worst = float(gap.max())
    ok = worst <= 1e-12
    _report("7 scalar inequality grid", ok,
            f"max(1-(1-eps/p)^p - eps) = {worst:.2e} (<=1e-12) on 100x100 grid")
    assert worst <= 1e-12


def test_criterion_8_duality_map_gradient_checks():
    rng = trial_rng(1009, 0)
    worst = 0.0
    for _ in range(1000):
        d = int(rng.integers(2, 5))
        v = rng.standard_normal(d)
        # keep components off the kink so the q < 2 curvature stays bounded
        v = np.where(np.abs(v) < 1e-3, v + 0.5, v)
        q = float(np.exp(rng.uniform(np.log(1.2), np.log(6.0))))
        u = rng.standard_normal(d)
        u /= np.linalg.norm(u)
        grad = inner_duality_map(v, q) @ u
        fd = central_diff_gradient(v, q, h=1e-6) @ u
        worst = max(worst, abs(grad - fd))
    ok = worst <= 1e-4
    _report("8 duality-map gradient checks", ok,
            f"1000 triples, max |grad - central diff| = {worst:.2e} (<=1e-4)")
    assert worst <= 1e-4
