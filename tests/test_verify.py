"""The invariant table behind `biharm verify` and `biharm expand`."""

import dataclasses
import re

import pytest

from biharm import compute_ladder, detect_regime
from biharm.expansion import fit_expansion, representation_check, window_shift_stability
from biharm.verify import BOUNDS, SCOPES, expansion_invariants, solve_invariants

SOLVE_NAMES = [
    "target_residual",
    "phi_positive",
    "Y_negative_nondecreasing",
    "transform_residual",
    "decay_slope",
    "integral_identity",
]
EXPANSION_NAMES = [
    "a0_matches_L",
    "remainder_slope_ok",
    "window_shift_stable",
    "regime_ordering_chain",
    "representation_ok",
]


def test_invariants_pass_in_report_order(sol_quick):
    spec = sol_quick.spectrum
    regime = detect_regime(sol_quick.params, compute_ladder(13))
    fit = fit_expansion(sol_quick, spec, regime)
    drift = window_shift_stability(sol_quick, spec, regime)
    records = solve_invariants(sol_quick) + expansion_invariants(
        spec, fit, drift, representation_check(sol_quick, spec)
    )
    assert [r.name for r in records] == SOLVE_NAMES + EXPANSION_NAMES
    assert all(r.passed for r in records), [str(r) for r in records if not r.passed]
    # yes/no checks carry no bound; every other record has one from the table
    unbounded = {r.name for r in records if r.bound is None}
    assert unbounded == {"phi_positive", "Y_negative_nondecreasing", "regime_ordering_chain"}


def test_broken_solution_fails_only_its_invariant(sol_quick):
    broken = dataclasses.replace(sol_quick, target_residual=0.5)
    failed = [r for r in solve_invariants(broken) if not r.passed]
    assert [(r.name, r.value, r.bound) for r in failed] == [("target_residual", 0.5, 1e-2)]
    assert str(failed[0]) == "target_residual 0.5 > 0.01"


@pytest.mark.parametrize(
    "suite, names",
    [("shooting_quick", SOLVE_NAMES), ("expansion_quick", EXPANSION_NAMES)],
)
def test_quick_suites_report_values_and_bounds(suite, names):
    passed, detail = dict(SCOPES["full"])[suite]()
    assert passed, detail
    parts = detail.split(", ")
    assert [part.split()[0] for part in parts] == names
    for part in parts:
        name, value, *bound = part.split()
        if name in BOUNDS:
            assert bound[0] == "<=" and float(value) <= float(bound[1])
        else:
            assert value == "True" and not bound


def test_scaling_covariance_suite_passes():
    # the solution at alpha = 2^m against case A's mapped by scale
    # covariance, on the s-range the two share
    passed, detail = dict(SCOPES["shooting"])["scaling_covariance"]()
    found = re.fullmatch(r"rescaled vs direct shooting deviation (\S+)", detail)
    assert passed and found is not None, detail
    assert float(found.group(1)) < 1e-5
