"""The invariant table behind `biharm verify` and `biharm expand`."""

import dataclasses
import re

import numpy as np
import pytest

from biharm import compute_ladder, compute_pc, detect_regime, rk_eval
from biharm.expansion import fit_expansion, representation_check, window_shift_stability
from biharm.shooting import SolveRecord
from biharm.ladder import _rk_rows
from biharm.verify import (
    BOUNDS,
    SCOPES,
    expansion_invariants,
    record_payload,
    run_checks,
    solve_invariants,
)

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
        spec, fit, drift, representation_check(sol_quick)
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
    # case A's (n, p) at phi(0) = 10, the scale map of its phi(0) = 1 solve:
    # phi at the first lattice node reads 10, and the six solve invariants
    # pass with their values and bounds
    passed, detail = dict(SCOPES["shooting"])["scaling_covariance"]()
    found = re.fullmatch(r"phi at the first node / 10 - 1 = (\S+), (.*)", detail)
    assert passed and found is not None, detail
    assert float(found.group(1)) < 1e-6
    assert [part.split()[0] for part in found.group(2).split(", ")] == SOLVE_NAMES


def test_record_payload_splits_each_chart_by_rtol_decade():
    # per chart the legs, their Taylor steps (nfev), those keyed by the
    # decade 10^floor(log10 tol) of each leg's tolerance, and the step
    # failures; a chart without legs reads zeros; rounds become named
    # fields.  The tangent is one chart-"v" leg at eps
    legs = (("r", 1e-12, 5, 0), ("r", 1e-8, 3, -1), ("r", np.float64(9.99e-6), 2, 0),
            ("r", 1e-5, 4, 0), ("r", 1e-4, 1, -1), ("v", np.finfo(float).eps, 6, 0))
    record = SolveRecord(legs=legs, trials=7, bracket=(-0.5, -0.6),
                         rounds=((200, 8, 1e-6, 645), (645, 1, 1e-11, None)))
    payload = record_payload(record)
    assert payload["charts"] == {
        "r": {"calls": 5, "nfev": 15,
              "nfev_by_rtol": {"1e-12": 5, "1e-08": 3, "1e-06": 2, "1e-05": 4, "1e-04": 1},
              "step_failures": 2},
        "v": {"calls": 1, "nfev": 6, "nfev_by_rtol": {"1e-16": 6}, "step_failures": 0},
    }
    assert (payload["trials"], payload["bracket"]) == (7, (-0.5, -0.6))
    assert payload["rounds"] == [
        {"nodes": 200, "newton": 8, "max_rms": 1e-6, "predicted": 645},
        {"nodes": 645, "newton": 1, "max_rms": 1e-11, "predicted": None},
    ]
    empty = record_payload(SolveRecord())
    assert (empty["trials"], empty["bracket"], empty["rounds"]) == (None, None, [])
    assert all(chart == {"calls": 0, "nfev": 0, "nfev_by_rtol": {}, "step_failures": 0}
               for chart in empty["charts"].values())


@pytest.mark.parametrize("n, k", [(13, 2), (25, 3), (40, 15)])
def test_rung_rows_are_rk_eval_bit_for_bit(n, k):
    # the root count's sweep shares (p-1)^4 and p Q4(4/(p-1)) across its
    # rungs and keeps rk_eval's float operations: every row k' = 2..k on its
    # grid is rk_eval's array bit for bit
    grid = np.geomspace(compute_pc(n) * (1 + 1e-9), 1e6, 10_000)
    ks = range(2, k + 1)
    rows = list(_rk_rows(n, ks, grid))
    assert len(rows) == len(ks)
    for kk, row in zip(ks, rows):
        assert row.tobytes() == rk_eval(n, kk, grid).tobytes(), kk


def test_rk_root_count_detail_is_unchanged():
    (result,) = (r for r in run_checks("algebra") if r.name == "rk_root_count")
    assert result.passed
    assert result.detail == "exactly one root above p_c for every rung k = 2..N (n=13..40)"
