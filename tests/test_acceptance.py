"""Acceptance suite: one test per release criterion, at stated tolerances.

Every numeric assertion is exact rational equality unless the criterion
itself is about a float approximation (the four-axis generator).  Each test
prints a single PASS line naming the criterion; run with ``pytest -s`` to
see them.
"""

import math
import random
import time
from dataclasses import dataclass
from fractions import Fraction

import pytest

from contextuality import (
    QuasiCoupling,
    build_associated_system,
    build_expanded_system,
    canonical_example,
    contextuality_measure,
    decide_contextuality,
    detect_cycles,
    evaluate_criterion,
    generate_epr_b,
    maximal_coupling_diagonal,
    maximal_coupling_full,
    outcome_space,
    rank2_family,
    rational_rank,
    s_odd,
    validate_system,
    verify_quasi_coupling,
)
from contextuality.distribution import Distribution
from conftest import (
    random_boundary_cyclic,
    random_cyclic_system,
    random_partition,
    s_odd_bruteforce,
)

F = Fraction
HALF = F(1, 2)


def report(number: int, text: str) -> None:
    print(f"[criterion {number:2d}] PASS: {text}")


def certificate_is_sound(system, linear, certificate) -> bool:
    rows = linear.matrix
    for j in range(linear.cols):
        if sum(certificate[i] * rows[i][j] for i in range(linear.rows)) > 0:
            return False
    return sum(y * b for y, b in zip(certificate, linear.rhs)) > 0


def test_criterion_1_rank2_contextual_with_verified_certificate():
    start = time.perf_counter()
    system = canonical_example("fig9")
    verdict = decide_contextuality(system)
    elapsed = time.perf_counter() - start
    assert verdict.contextual
    linear = build_associated_system(system)
    assert certificate_is_sound(system, linear, verdict.certificate)
    assert elapsed < 1.0
    report(1, f"rank-2 system contextual, certificate sound ({elapsed:.3f}s)")


def test_criterion_2_rank2_measure_exactly_one():
    result = contextuality_measure(canonical_example("fig9"))
    assert result.total_variation == 2
    assert result.measure == 1
    report(2, "rank-2 system: total variation exactly 2, measure exactly 1")


def test_criterion_3_family_sweep_linear_and_verdict_flip():
    for p in (F(0), F(1, 8), F(1, 4), F(3, 8), HALF):
        system = rank2_family(p)
        result = contextuality_measure(system)
        assert result.total_variation == 2 * (1 - p)
        assert decide_contextuality(system).contextual == (p != HALF)
    report(3, "total variation equals 2(1-p) across the sweep; flips at p = 1/2")


def test_criterion_4_rank3_system_lp_and_criterion_agree():
    system = canonical_example("fig10")
    verdict = decide_contextuality(system)
    assert verdict.contextual
    views = detect_cycles(system)
    assert not isinstance(views, type(None)) and len(views) == 1
    crit = evaluate_criterion(views[0], system)
    assert crit.rank == 3
    assert crit.contextual and crit.delta > 0
    report(4, f"rank-3 system contextual by LP and criterion (delta = {crit.delta})")


def test_criterion_5_maximal_coupling_diagonal_and_marginals():
    marginals = [
        Distribution((2,), {(0,): "0.3", (1,): "0.7"}),
        Distribution((2,), {(0,): "0.4", (1,): "0.6"}),
        Distribution((2,), {(0,): "0.7", (1,): "0.3"}),
    ]
    spec = maximal_coupling_diagonal(marginals)
    assert spec.diagonal_masses == (F(3, 10), F(3, 10))
    joint = maximal_coupling_full(spec)
    for i, member in enumerate(marginals):
        assert joint.marginal((i,)) == member
    report(5, "diagonal masses 3/10, 3/10; completion reproduces all marginals")


# Known real-valued solutions over the canonical 16-outcome column order.
QUASI_SOLUTION = [0, 0, 0, HALF, 0, HALF, 0, -HALF, 0, 0, HALF, -HALF, 0, 0, 0, HALF]
MINIMAL_TV_SOLUTION = [
    F(35, 256), F(69, 256), F(11, 32), F(-1, 4),
    F(-1, 8), F(7, 32), F(-1, 16), F(-1, 32),
    F(-1, 128), F(-1, 64), F(7, 256), F(-1, 256),
    F(-1, 256), F(7, 256), F(49, 256), F(73, 256),
]


def test_criterion_6_constraint_matrix_shapes_and_known_solutions():
    system = canonical_example("fig9")
    linear = build_associated_system(system)
    expanded = build_expanded_system(system)
    assert (linear.rows, linear.cols) == (12, 16)
    assert (expanded.rows, expanded.cols) == (9, 16)
    assert rational_rank(expanded.matrix) == 9
    for matrix, rhs in ((expanded.matrix, expanded.rhs), (linear.matrix, linear.rhs)):
        for row, b in zip(matrix, rhs):
            assert sum(a * q for a, q in zip(row, QUASI_SOLUTION)) == b
    quasi = QuasiCoupling(
        dict(zip(outcome_space(system).outcomes(), MINIMAL_TV_SOLUTION))
    )
    assert verify_quasi_coupling(system, quasi).all_passed
    assert quasi.total_variation == 2
    report(6, "12x16 and 9x16 shapes, rank 9, both known solutions check out")


def test_criterion_7_four_axis_generator_hits_2_sqrt_2():
    start = time.perf_counter()
    result = generate_epr_b([0, math.pi / 4, math.pi / 2, -math.pi / 4], 10**6)
    system = result.system
    (view,) = detect_cycles(system)
    crit = evaluate_criterion(view, system)
    verdict = decide_contextuality(system)
    elapsed = time.perf_counter() - start
    assert abs(float(crit.lhs) - 2 * math.sqrt(2)) < 1e-5
    assert crit.contextual
    assert verdict.contextual
    assert elapsed < 5.0
    report(7, f"lhs = {float(crit.lhs):.6f} within 1e-5 of 2*sqrt(2) ({elapsed:.2f}s)")


def test_criterion_8_s_odd_examples_and_bruteforce():
    assert s_odd([5, 6]) == 1
    assert s_odd([5, -6]) == 11
    assert s_odd([1, 2, -3, -10, 100]) == 114
    rng = random.Random(808)
    for _ in range(1000):
        k = rng.randint(1, 12)
        xs = [F(rng.randint(-60, 60), rng.randint(1, 16)) for _ in range(k)]
        assert s_odd(xs) == s_odd_bruteforce(xs)
    report(8, "unit triple exact; closed form equals brute force on 1000 inputs")


@dataclass
class CorpusRecord:
    rank: int
    lp_contextual: bool
    criterion_contextual: bool
    verified: bool
    pivots: int


@pytest.fixture(scope="module")
def corpus():
    from contextuality.simplex import solve_feasibility

    rng = random.Random(20160826)
    records = []
    start = time.perf_counter()

    def run_one(system, rank):
        linear = build_associated_system(system)
        result = solve_feasibility(linear)
        crit = evaluate_criterion(detect_cycles(system)[0], system)
        records.append(
            CorpusRecord(
                rank=rank,
                lp_contextual=not result.feasible,
                criterion_contextual=crit.contextual,
                verified=result.verify(linear),
                pivots=result.pivots,
            )
        )

    for rank, count in ((2, 200), (3, 150), (4, 100), (5, 50)):
        for _ in range(count):
            run_one(random_cyclic_system(rng, rank, max_denominator=64), rank)
        # strongly correlated consistent systems sit near the boundary and
        # produce a healthy share of contextual (infeasible) instances
        for _ in range(25):
            run_one(random_boundary_cyclic(rng, rank), rank)
    elapsed = time.perf_counter() - start
    return records, elapsed


def test_criterion_9_randomized_oracle_cross_validation(corpus):
    records, elapsed = corpus
    assert len(records) >= 500
    assert {r.rank for r in records} == {2, 3, 4, 5}
    disagreements = [r for r in records if r.lp_contextual != r.criterion_contextual]
    assert not disagreements
    assert elapsed < 60.0
    contextual = sum(r.lp_contextual for r in records)
    report(
        9,
        f"{len(records)} random cyclic systems, LP == criterion everywhere "
        f"({contextual} contextual, {elapsed:.1f}s)",
    )


def test_criterion_10_trivially_noncontextual_shapes():
    rng = random.Random(55)

    def bunch(shape):
        cells = 1
        for k in shape:
            cells *= k
        masses = random_partition(rng, cells, 16)
        out = {}
        for flat, mass in enumerate(masses):
            if mass:
                out[(flat >> 1, flat & 1) if len(shape) == 2 else (flat,)] = mass
        return out

    # every content private to its context: no connection links two bunches
    unshared = validate_system(
        {"qa1": 2, "qa2": 2, "qb1": 2, "qb2": 2},
        {"c1": ["qa1", "qa2"], "c2": ["qb1", "qb2"]},
        {"c1": bunch((2, 2)), "c2": bunch((2, 2))},
    )
    # every bunch a single variable: connections exist, joints do not
    singleton_bunches = validate_system(
        {"q1": 2, "q2": 2},
        {"c1": ["q1"], "c2": ["q1"], "c3": ["q2"], "c4": ["q2"]},
        {c: bunch((2,)) for c in ("c1", "c2", "c3", "c4")},
    )
    # both degeneracies at once
    fully_separate = validate_system(
        {"q1": 2, "q2": 2, "q3": 2, "q4": 2},
        {"c1": ["q1"], "c2": ["q2"], "c3": ["q3"], "c4": ["q4"]},
        {c: bunch((2,)) for c in ("c1", "c2", "c3", "c4")},
    )
    for system in (unshared, singleton_bunches, fully_separate):
        assert not decide_contextuality(system).contextual
        assert contextuality_measure(system).measure == 0
    report(10, "single-connection and singleton-bunch shapes are noncontextual")


def test_criterion_11_equal_correlations_never_contextual():
    rng = random.Random(2013)
    checked = 0
    inconsistent_seen = 0
    while checked < 100:
        e = F(rng.randint(-12, 12), 12)
        bunches = {}
        for context in ("c1", "c2"):
            alpha = F(rng.randint(0, 24), 24)
            beta = F(rng.randint(0, 24), 24)
            agree = (1 + e) / 2
            disagree = (1 - e) / 2
            bunches[context] = {
                (0, 0): alpha * agree,
                (1, 1): (1 - alpha) * agree,
                (0, 1): beta * disagree,
                (1, 0): (1 - beta) * disagree,
            }
        system = validate_system(
            {"q1": 2, "q2": 2},
            {"c1": ["q1", "q2"], "c2": ["q1", "q2"]},
            bunches,
        )
        crit = evaluate_criterion(detect_cycles(system)[0], system)
        assert crit.lhs == 0 or crit.product_expectations[0] == crit.product_expectations[1]
        verdict = decide_contextuality(system)
        assert not verdict.contextual
        if not crit.consistent:
            inconsistent_seen += 1
        checked += 1
    assert inconsistent_seen > 50
    report(
        11,
        f"100 equal-correlation systems noncontextual "
        f"({inconsistent_seen} with inconsistent marginals)",
    )


def test_criterion_12_solver_self_checks(corpus):
    records, _ = corpus
    assert all(r.verified for r in records)
    assert all(r.pivots > 0 for r in records)
    worst = max(r.pivots for r in records)
    report(
        12,
        f"all {len(records)} solves re-verified exactly; worst pivot count {worst}",
    )
