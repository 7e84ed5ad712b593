"""Acceptance criteria, one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdicts.
The whole module stays within a few minutes on a laptop.
"""

import numpy as np
import pytest

from rbsde_lab import (
    ClosedFormCase,
    TimeGrid,
    TreeMode,
    build_tree,
    closed_form_example,
    counterexample_problem,
    local_strict_witness,
    solve_rbsde,
)
from rbsde_lab.lattice import _in_contact
from rbsde_lab.suites import (
    CheckResult,
    comparison_suite,
    convergence_suite,
    counterexample_suite,
    dominating_obstacle_suite,
    k_comparison_suite,
    masked_driver_suite,
    oracle_suite,
    pricing_suite,
    recovery_suite,
    restriction_suite,
    witness_suite,
)


def report(number: int, label: str, results: list[CheckResult]) -> None:
    passed = all(r.passed for r in results)
    worst = max((r.max_violation for r in results), default=0.0)
    print(f"criterion {number:2d} [{'PASS' if passed else 'FAIL'}] {label} (worst violation {worst:.3g})")
    for r in results:
        assert r.passed, f"{r.name}: violation {r.max_violation} > {r.tolerance} {r.details}"


@pytest.fixture(scope="module")
def counterexample_results():
    return counterexample_suite(steps=2000)


def by_prefix(results, *prefixes):
    return [r for r in results if any(r.name.startswith(p) for p in prefixes)]


def test_criterion_01_const_driver_closed_forms(counterexample_results):
    rows = by_prefix(
        counterexample_results,
        "counterexample/const-driver-low",
        "counterexample/const-driver-high",
    )
    assert len(rows) == 6
    report(1, "constant-driver closed forms at N=2000 (values, pushes, contacts)", rows)


def test_criterion_02_zero_driver_closed_forms(counterexample_results):
    rows = by_prefix(
        counterexample_results,
        "counterexample/zero-driver-low",
        "counterexample/zero-driver-high",
    )
    assert len(rows) == 6
    report(2, "zero-driver closed forms at N=2000 (contacts 1/3 and 1/4, plateaus)", rows)


def test_criterion_03_global_strict_comparison_fails(counterexample_results):
    rows = by_prefix(counterexample_results, "counterexample/strict-comparison")
    assert len(rows) == 1
    report(3, "ordered terminals, equal root values (strict comparison fails)", rows)


def test_criterion_04_strict_separation_witness():
    results = witness_suite(seed=13, instances=50)
    report(4, "separating rule at half horizon with certainty; 50 random instances", results)


def test_criterion_05_comparison_suites():
    results = comparison_suite(seed=7, instances=200) + k_comparison_suite(
        seed=11, instances=100
    )
    report(5, "200 value-comparison and 100 push-comparison instances", results)


def test_criterion_06_oracle_equivalence():
    results = oracle_suite(seed=19, instances=25)
    report(6, "reflected value = dynamic program = rule enumeration (25 instances)", results)


def test_criterion_07_restriction_identities():
    results = restriction_suite(seed=17, instances=25)
    report(7, "driver-gating and obstacle-freezing identities (25 instances)", results)


def test_criterion_08_dominating_obstacle():
    results = dominating_obstacle_suite(seed=23, instances=20, det_steps=2000)
    report(8, "constructed obstacles leave the reflection off; exponential profile", results)


def test_criterion_09_masked_drivers():
    results = masked_driver_suite(seed=29, instances=20)
    report(9, "masked drivers price identically; disagreement below the cut certified", results)


def test_criterion_10_pricing_identity():
    results = pricing_suite()
    report(10, "reflected price equals risk-neutral program; immediate deep-ITM put", results)


def test_criterion_11_premium_recovery():
    results = recovery_suite()
    report(11, "market-risk premium recovered from synthetic strike families", results)


def test_criterion_12_first_order_convergence():
    results = convergence_suite(steps_list=(250, 500, 1000, 2000))
    report(12, "embedded solution error halves as the grid doubles", results)


def test_witness_details_match_the_stated_construction():
    # supporting evidence for criterion 4: the closed-form pair pins the
    # iterate index, the half-horizon stop, and the certain separation event
    tree = build_tree(TimeGrid(1.0, 10), TreeMode.FULL_BINARY)
    low = counterexample_problem(tree, ClosedFormCase.CONST_DRIVER_LOW_TERMINAL)
    high = counterexample_problem(tree, ClosedFormCase.CONST_DRIVER_HIGH_TERMINAL)
    witness = local_strict_witness(low, high)
    assert witness.k_index == 2
    masks = witness.rule.stop_node_masks
    assert {i for i, stops in enumerate(masks) if stops.any()} == {5}
    assert witness.probability == 1.0


def test_contact_levels_match_closed_forms_within_one_step():
    # supporting evidence for criteria 1 and 2 at a coarser grid
    for case in ClosedFormCase:
        tree = build_tree(TimeGrid(1.0, 400), TreeMode.RECOMBINING)
        problem = counterexample_problem(tree, case)
        sol = solve_rbsde(problem.generator, problem.terminal, problem.obstacle)
        obstacle = problem.obstacle.process
        contact = [_in_contact(sol.y.level(i)[0], obstacle.level(i)[0]) for i in range(401)]
        detected = tree.grid.time(int(np.nonzero(contact)[0].max()))
        expected = closed_form_example(case).contact_time
        assert abs(detected - expected) <= tree.grid.dt + 1e-12
