import importlib.util
from pathlib import Path

_SPEC = importlib.util.spec_from_file_location(
    "shoot_cells", Path(__file__).resolve().parents[1] / "tools" / "shoot_cells.py"
)
shoot_cells = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(shoot_cells)


def _ok(v0_hex, nfev, n_bisect, passed=True):
    check = {"value": True, "bound": None, "passed": passed}
    return {
        "v0_hex": v0_hex, "n_bisect": n_bisect, "trials": [n_bisect],
        "checks": {"phi_positive": check},
        "ivp": {"r": {"calls": 1, "nfev": nfev}, "s": {"calls": 1, "nfev": nfev}},
    }


def _failed(error, nfev, trials):
    return {"error": error, "message": "", "trials": trials,
            "ivp": {"r": {"calls": 1, "nfev": nfev}, "s": {"calls": 0, "nfev": 0}}}


def test_shoot_cells_diff_reports_cells_and_totals(capsys):
    old = {"A": _ok("0x1p-2", 50, 56), "F": _failed("StepFailure", 7, [8])}
    new = {"A": _ok("0x1p-2", 40, 34), "F": _failed("StepFailure", 7, [8])}
    assert shoot_cells.diff(old, new) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[1].split() == ["A", "ok", "ok", "100", "80", "56", "->", "34", "equal"]
    assert out[2].split() == ["F", "StepFailure", "StepFailure", "7", "7", "8", "->", "8", "-"]
    assert "RHS evaluations: 107 -> 87 (-18.7%)" in out
    assert "ok: 1 -> 1 of 2" in out


def test_shoot_cells_diff_exits_1_when_an_ok_cell_fails(capsys):
    old = {"A": _ok("0x1p-2", 50, 56), "B": _ok("0x1p-1", 50, 80)}
    new = {"A": _failed("NoConvergence", 30, [12, 11]), "B": _ok("0x1p-1", 50, 33, passed=False)}
    assert shoot_cells.diff(old, new) == 1
    out = capsys.readouterr().out
    assert "failed phi_positive" in out
    assert "ok cells lost: A, B" in out


def test_shoot_cells_trials_sum_to_n_bisect():
    # one entry per _bisect call of stages 1 and 2 and one per refinement
    # stage, its opening steps included
    rec = shoot_cells.shoot_cell("quick")
    assert len(rec["trials"]) > 2  # the quick cell refines
    assert sum(rec["trials"]) == rec["n_bisect"]
