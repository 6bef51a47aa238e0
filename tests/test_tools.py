import importlib.util
import json
import sys
from pathlib import Path

import numpy as np
from click.testing import CliRunner

from biharm import compute_ladder
from biharm.cli import main

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


def test_shoot_cells_diff_reads_v0_moves_and_rhs_by_rtol(capsys):
    # OLD records predate nfev_by_rtol and still diff; per cell whose v0
    # differs the relative move prints, then the largest over the cells with
    # a v0 on both sides (F failed on both and has none)
    old = {"A": _ok("0x1p-2", 50, 8), "B": _ok("-0x1p-1", 50, 9), "F": _failed("StepFailure", 7, [8])}
    new = {"A": _ok("0x1.0000000000001p-2", 30, 8), "B": _ok("-0x1p-1", 30, 9),
           "F": _failed("StepFailure", 7, [8])}
    for rec in (new["A"], new["B"]):
        rec["ivp"]["r"]["nfev_by_rtol"] = {"1e-08": 20, "1e-12": 10}
        rec["ivp"]["s"]["nfev_by_rtol"] = {"1e-08": 30}
    assert shoot_cells.diff(old, new) == 0
    out = capsys.readouterr().out.splitlines()
    assert "|dv0|/|v0| A 2.2e-16" in out
    assert not any(line.startswith("|dv0|/|v0| B") for line in out)
    assert "max |dv0|/|v0|: 2.2e-16 over 2 cells" in out
    assert "RHS evaluations: 207 -> 127 (-38.6%)" in out
    assert "RHS evaluations by rtol (new): 1e-12 20, 1e-08 100" in out
    assert not any(line.startswith("RHS evaluations by rtol (old)") for line in out)


def test_shoot_cells_diff_totals_step_failures(capsys):
    # each side's legs that ended in a step failure, summed over cells and
    # charts; OLD records predate the count, still diff and print "-"
    old = {"A": _ok("0x1p-2", 50, 8), "F": _failed("StepFailure", 7, [8])}
    new = {"A": _ok("0x1p-2", 50, 8), "F": _failed("StepFailure", 7, [8])}
    for rec, counts in ((new["A"], (2, 1)), (new["F"], (1, 0))):
        for chart, count in zip("rs", counts):
            rec["ivp"][chart]["step_failures"] = count
    assert shoot_cells.diff(old, new) == 0
    assert "step failures: - -> 4" in capsys.readouterr().out.splitlines()
    assert shoot_cells.diff(new, new) == 0
    assert "step failures: 4 -> 4" in capsys.readouterr().out.splitlines()


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
    # stage 1 at rtols from 1e-4 (the probe ladder) down to 1e-8, keyed by
    # decade; the chord's two r-chart legs at 1e-12
    for chart in rec["ivp"].values():
        assert sum(chart["nfev_by_rtol"].values()) == chart["nfev"]
        assert chart["step_failures"] == 0
    stage_1 = {"1e-04", "1e-05", "1e-06", "1e-07", "1e-08"}
    assert {"1e-04", "1e-08"} <= set(rec["ivp"]["s"]["nfev_by_rtol"]) <= stage_1
    assert {"1e-04", "1e-08"} <= set(rec["ivp"]["r"]["nfev_by_rtol"]) - {"1e-12"} <= stage_1
    assert "1e-12" in rec["ivp"]["r"]["nfev_by_rtol"]
    assert [shoot_cells.decade(r) for r in (1e-12, 1e-8, np.float64(9.99e-6), 1e-5, 1e-4)] == [
        "1e-12", "1e-08", "1e-06", "1e-05", "1e-04"]
    assert len(rec["w_sha256"]) == 64 and 0.0 < float(rec["seam_residual"]) < 1e-11
    assert rec["bvp"]["coarse"] == {"nodes": [200], "niter": [1]}
    assert len(rec["bvp"]["nodes"]) == len(rec["bvp"]["niter"]) == 1
    assert rec["bvp"]["nodes"][0] >= 200 and rec["bvp"]["niter"][0] >= 1


def _expand(failed=(), error=None):
    if error is not None:
        return {"error": error, "message": ""}
    names = ("a0_matches_L", "remainder_slope_ok", "window_shift_stable")
    return {"regime": "a", "k": 1, "window": ["5.0", "8.0"], "coefficients": {},
            "checks": {name: {"value": "0.1", "bound": 1.0, "passed": name not in failed}
                       for name in names}}


def test_shoot_cells_diff_reads_expand_outcomes(capsys):
    # A keeps its expansion ok; B's OLD record predates the expand key; C's
    # expansion fails in NEW while its solve stays ok, which exits 1; D
    # raised on both sides; F failed its solve and has no expand record
    old = {label: _ok("0x1p-2", 5, 9) for label in "ABCD"}
    new = {label: _ok("0x1p-2", 5, 9) for label in "ABCD"}
    old["F"] = new["F"] = _failed("StepFailure", 7, [8])
    old["A"]["expand"] = new["A"]["expand"] = new["B"]["expand"] = old["C"]["expand"] = _expand()
    new["C"]["expand"] = _expand(failed=("remainder_slope_ok",))
    old["D"]["expand"] = new["D"]["expand"] = _expand(error="IllConditioned")
    assert shoot_cells.diff(old, new) == 1
    out = capsys.readouterr().out.splitlines()
    assert [line for line in out if line.startswith("expand")] == [
        "expand A: ok -> ok",
        "expand B: - -> ok",
        "expand C: ok -> failed remainder_slope_ok",
        "expand D: IllConditioned -> IllConditioned",
        "expand ok: 2 -> 2 of 4",
        "expand ok cells lost: C",
    ]
    assert "ok: 4 -> 4 of 5" in out and not any(line.startswith("ok cells lost") for line in out)
    # without expand records on either side, nothing about them prints
    for rec in (old, new):
        for label in "ABCD":
            rec[label].pop("expand", None)
    assert shoot_cells.diff(old, new) == 0
    assert "expand" not in capsys.readouterr().out


def test_shoot_cells_records_the_expand_pipeline(pc13):
    # the expand record is `biharm expand` on the same solve: regime, window,
    # coefficients and the five expansion invariants with their bounds
    rec = shoot_cells.shoot_cell("quick")["expand"]
    res = CliRunner().invoke(main, ["expand", "--n", "13", "--p", repr(pc13 + 0.5),
                                    "--r-max", "500"])
    assert res.exit_code == 0, res.output
    payload = json.loads(res.stdout)
    assert (rec["regime"], rec["k"]) == (payload["regime"], payload["k"]) == ("a", 1)
    assert [float(s) for s in rec["window"]] == payload["window"]
    assert {name: float(est["value"]) for name, est in rec["coefficients"].items()} == {
        name: est["value"] for name, est in payload["coefficients"].items()}
    assert len(rec["checks"]) == 5
    for name, check in rec["checks"].items():
        cli = payload["invariants"][name]
        assert check["passed"] is cli["passed"] is True and check["bound"] == cli["bound"]
        assert check["value"] == (cli["value"] if cli["bound"] is None else repr(cli["value"]))
    assert shoot_cells.shoot_cell("A_r5")["expand"]["error"] == "WindowTooShort"


def test_shoot_cells_wide_rows_resolve_and_the_grid_keeps_25_cells(monkeypatch):
    # n = 60 and n = 200 at the grid's five p's and r_max resolve by label
    # through --cells, and --grid is still the 25 cells; nothing is shot
    shot = []
    monkeypatch.setattr(shoot_cells, "shoot_cell", lambda label: shot.append(label) or {})
    monkeypatch.setattr(sys, "path", list(sys.path))
    wide = [f"n{n}_{p}" for n in (60, 200) for p in ("pc", "pc+0.5", "2pc", "10pc", "100pc")]
    for argv in (["--cells", ",".join(wide)], ["--grid"]):
        monkeypatch.setattr(sys, "argv", ["shoot_cells.py", *argv])
        shoot_cells.main()
    assert shot[:10] == wide
    grid = shot[10:]
    assert len(grid) == 25 and not set(grid) & set(wide)
    assert {shoot_cells.KNOWN[label][0] for label in grid} == {13, 15, 20, 40, 100}
    lad = compute_ladder(200)
    n, p_of, r_max = shoot_cells.KNOWN["n200_10pc"]
    assert (n, p_of(lad), r_max) == (200, 10.0 * lad.p_c, 1e4)
