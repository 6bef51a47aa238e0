import importlib.util
from pathlib import Path

_SPEC = importlib.util.spec_from_file_location(
    "shoot_cells", Path(__file__).resolve().parents[1] / "tools" / "shoot_cells.py"
)
shoot_cells = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(shoot_cells)


def _ok(v0_hex, nfev, n_bisect, passed=True, dump="d0", w="w0"):
    check = {"value": True, "bound": None, "passed": passed}
    return {
        "v0_hex": v0_hex, "w_sha256": w, "dump_sha256": dump, "n_bisect": n_bisect,
        "trials": [n_bisect],
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
    assert out[0].split()[-3:] == ["v0", "W", "dump"]
    assert out[1].split() == ["A", "ok", "ok", "100", "80", "56", "->", "34"] + ["equal"] * 3
    assert out[2].split() == ["F", "StepFailure", "StepFailure", "7", "7", "8", "->", "8"] + ["-"] * 3
    assert "RHS evaluations: 107 -> 87 (-18.7%)" in out
    assert "ok: 1 -> 1 of 2" in out
    assert "identical dumps: 1 of 1" in out


def test_shoot_cells_diff_counts_identical_dumps(capsys):
    # a dump differs with v0 and W equal (A: Z moved), with W differing too
    # (E), with v0 differing (B), or because only one side solved (C); a
    # cell that failed on both sides has none
    old = {"A": _ok("0x1p-2", 5, 9), "B": _ok("0x1p-1", 5, 9), "C": _ok("0x1p-3", 5, 9),
           "D": _ok("0x1p-4", 5, 9), "E": _ok("0x1p-5", 5, 9), "F": _failed("StepFailure", 7, [8])}
    new = {"A": _ok("0x1p-2", 5, 9, dump="d1"), "B": _ok("0x1.8p-1", 5, 9, dump="d1", w="w1"),
           "C": _failed("NoConvergence", 5, [9]), "D": _ok("0x1p-4", 5, 9),
           "E": _ok("0x1p-5", 5, 9, dump="d1", w="w1"), "F": _failed("StepFailure", 7, [8])}
    assert shoot_cells.diff(old, new) == 1  # C lost its solve
    out = capsys.readouterr().out.splitlines()
    rows = {line.split()[0]: line.split()[-3:] for line in out}
    assert rows["A"] == ["equal", "equal", "differs"]
    assert rows["B"] == ["differs", "differs", "differs"]
    assert rows["C"] == ["differs", "differs", "differs"]
    assert rows["D"] == ["equal", "equal", "equal"]
    assert rows["E"] == ["equal", "differs", "differs"]
    assert rows["F"] == ["-", "-", "-"]
    assert "identical dumps: 1 of 5" in out


def test_shoot_cells_diff_exits_1_when_an_ok_cell_fails(capsys):
    old = {"A": _ok("0x1p-2", 50, 56), "B": _ok("0x1p-1", 50, 80)}
    new = {"A": _failed("NoConvergence", 30, [12, 11]), "B": _ok("0x1p-1", 50, 33, passed=False)}
    assert shoot_cells.diff(old, new) == 1
    out = capsys.readouterr().out
    assert "failed phi_positive" in out
    assert "ok cells lost: A, B" in out


def test_shoot_cells_trials_sum_to_n_bisect():
    # one _bisect call (stage 1), whose trials are n_bisect, and one chord
    # take at r_max 500: a coarse round of one Newton solve on the 200 start
    # nodes, then one final solve on the predicted mesh
    rec = shoot_cells.shoot_cell("quick")
    assert rec["trials"] == [rec["n_bisect"]]
    assert len(rec["w_sha256"]) == 64 and 0.0 < float(rec["seam_residual"]) < 1e-11
    assert rec["bvp"]["coarse"] == {"nodes": [200], "niter": [1]}
    assert len(rec["bvp"]["nodes"]) == len(rec["bvp"]["niter"]) == 1
    assert rec["bvp"]["nodes"][0] >= 200 and rec["bvp"]["niter"][0] >= 1
