import importlib.util
import json
import sys
from pathlib import Path

from click.testing import CliRunner

import biharm.shooting
from biharm import compute_ladder
from biharm.shooting import _R_SWITCH
from biharm.cli import main

_SPEC = importlib.util.spec_from_file_location(
    "shoot_cells", Path(__file__).resolve().parents[1] / "tools" / "shoot_cells.py"
)
shoot_cells = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(shoot_cells)


def _chart(calls, nfev):
    return {"calls": calls, "nfev": nfev, "nfev_by_rtol": {"1e-12": nfev} if calls else {},
            "step_failures": 0}


def _record(nfev_r, nfev_v, trials):
    """A record_payload with one r-chart leg, one tangent leg (chart "v";
    none for nfev_v = 0) and no collocation round."""
    return {"charts": {"r": _chart(1, nfev_r), "v": _chart(int(nfev_v > 0), nfev_v)},
            "trials": trials, "bracket": None, "rounds": []}


def _rounds(nodes, count, newton=1):
    """count collocation rounds as record_payload writes them, the last on
    nodes with newton Newton iterations."""
    first = {"nodes": 200, "newton": 8, "max_rms": 1e-8, "predicted": nodes}
    return [first] * (count - 1) + [{"nodes": nodes, "newton": newton, "max_rms": 1e-11,
                                     "predicted": None}]


def _ok(v0_hex, nfev, trials, passed=True, dump="d0", w="w0"):
    check = {"value": True, "bound": None, "passed": passed}
    return {
        "v0_hex": v0_hex, "w_sha256": w, "dump_sha256": dump,
        "invariants": {"phi_positive": check},
        "record": _record(nfev, nfev, trials),
    }


def _failed(error, nfev, trials):
    return {"error": error, "message": "", "record": _record(nfev, 0, trials)}


def test_shoot_cells_diff_reports_cells_and_totals(capsys):
    # per cell and in total, stage 1's shots (its r-chart legs: A's 4 and 2
    # probes besides its trials) print next to the trials
    old = {"A": _ok("0x1p-2", 50, 56), "F": _failed("StepFailure", 7, 8)}
    new = {"A": _ok("0x1p-2", 40, 34), "F": _failed("StepFailure", 7, 8)}
    old["A"]["record"]["charts"]["r"]["calls"] = 60
    new["A"]["record"]["charts"]["r"]["calls"] = 36
    assert shoot_cells.diff(old, new) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0].split()[-6:] == ["shots", "trials", "mesh", "v0", "W", "dump"]
    assert out[1].split() == ["A", "ok", "ok", "100", "80", "60", "->", "36", "56", "->", "34", "-"] + ["equal"] * 3
    assert out[2].split() == ["F", "StepFailure", "StepFailure", "7", "7", "1", "->", "1", "8", "->", "8"] + ["-"] * 4
    assert "RHS evaluations: 107 -> 87 (-18.7%)" in out
    assert "stage-1 shots: 61 -> 37" in out
    assert "trials: 64 -> 42" in out
    assert "ok: 1 -> 1 of 2" in out
    assert "identical dumps: 1 of 1" in out


def test_shoot_cells_diff_counts_identical_dumps(capsys):
    # a dump differs with v0 and W equal (A: Z moved), with W differing too
    # (E), with v0 differing (B), or because only one side solved (C); a
    # cell that failed on both sides has none
    old = {"A": _ok("0x1p-2", 5, 9), "B": _ok("0x1p-1", 5, 9), "C": _ok("0x1p-3", 5, 9),
           "D": _ok("0x1p-4", 5, 9), "E": _ok("0x1p-5", 5, 9), "F": _failed("StepFailure", 7, 8)}
    new = {"A": _ok("0x1p-2", 5, 9, dump="d1"), "B": _ok("0x1.8p-1", 5, 9, dump="d1", w="w1"),
           "C": _failed("NoConvergence", 5, 9), "D": _ok("0x1p-4", 5, 9),
           "E": _ok("0x1p-5", 5, 9, dump="d1", w="w1"), "F": _failed("StepFailure", 7, 8)}
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
    # per cell whose v0 differs the relative move prints, then the largest
    # over the cells with a v0 on both sides (F failed on both and has
    # none); each side's RHS evaluations print per chart, over the charts
    # its records hold, and by the decade of the legs' rtol
    old = {"A": _ok("0x1p-2", 50, 8), "B": _ok("-0x1p-1", 50, 9), "F": _failed("StepFailure", 7, 8)}
    new = {"A": _ok("0x1.0000000000001p-2", 30, 8), "B": _ok("-0x1p-1", 30, 9),
           "F": _failed("StepFailure", 7, 8)}
    for rec in (new["A"], new["B"]):
        rec["record"]["charts"]["r"]["nfev_by_rtol"] = {"1e-08": 20, "1e-12": 10}
        rec["record"]["charts"]["v"]["nfev_by_rtol"] = {"1e-16": 30}
    assert shoot_cells.diff(old, new) == 0
    out = capsys.readouterr().out.splitlines()
    assert "|dv0|/|v0| A 2.2e-16" in out
    assert not any(line.startswith("|dv0|/|v0| B") for line in out)
    assert "max |dv0|/|v0|: 2.2e-16 over 2 cells" in out
    assert "RHS evaluations: 207 -> 127 (-38.6%)" in out
    assert "RHS evaluations by chart (old): r 107, v 100" in out
    assert "RHS evaluations by chart (new): r 67, v 60" in out
    assert "RHS evaluations by rtol (old): 1e-12 207" in out
    assert "RHS evaluations by rtol (new): 1e-16 60, 1e-12 27, 1e-08 40" in out


def test_shoot_cells_diff_prints_v0_outside_its_bracket(capsys):
    # per side, one line per cell whose v0, mapped back to phi(0) = 1, lies
    # outside its stage-1 bracket, by its distance over the bracket's
    # width: A lands inside on both sides, B 2 widths below its sign-loss
    # end in NEW only; C, at phi(0) = 2^m (p = 5, m = 1), whose v0 maps
    # back by 2^(m+2) = 8, inside in OLD and 1.5 widths above its blow-up
    # end in NEW; a failed solve has no v0
    old = {label: _ok("0x1p-2", 5, 9) for label in "ABC"}
    old["F"] = _failed("NoConvergence", 7, 8)
    for rec, v0, bracket, alpha in ((old["A"], -0.25, [-0.24, -0.26], 1.0), (old["B"], -0.25, [-0.24, -0.26], 1.0),
                                    (old["C"], -8 * 0.25, [-0.24, -0.26], 2.0)):
        rec.update(v0_hex=v0.hex(), p=5.0, alpha=alpha)
        rec["record"]["bracket"] = bracket
    old["F"]["record"]["bracket"] = [-0.24, -0.26]
    new = json.loads(json.dumps(old))
    new["B"]["v0_hex"] = (-0.30).hex()
    new["C"]["v0_hex"] = (-8 * 0.21).hex()
    assert shoot_cells.diff(old, new) == 0
    out = capsys.readouterr().out.splitlines()
    assert [line for line in out if line.startswith("v0 outside bracket")] == [
        "v0 outside bracket: B 2 (new)", "v0 outside bracket: C 1.5 (new)"]


def test_shoot_cells_diff_reads_collocation_meshes(capsys):
    # per cell the last round's nodes and the rounds, old -> new: A's
    # stays, B's solve takes a round more; C's collocation finished a round
    # in OLD before its solve failed, and NEW records none; D collocates
    # only in NEW.  Then the cells whose mesh or rounds moved, out of those
    # with both on both sides, each side's last-round Newton iterations and
    # one line per cell whose count moved.
    old = {label: _ok("0x1p-2", 5, 9) for label in "ABD"}
    new = {label: _ok("0x1p-2", 5, 9) for label in "ABD"}
    old["C"], new["C"] = _failed("NoConvergence", 7, 8), _failed("NoConvergence", 7, 8)
    old["A"]["record"]["rounds"] = new["A"]["record"]["rounds"] = _rounds(684, 2)
    old["B"]["record"]["rounds"] = _rounds(9441, 4)
    new["B"]["record"]["rounds"] = _rounds(9441, 5, newton=3)
    old["C"]["record"]["rounds"] = _rounds(200, 1)
    new["D"]["record"]["rounds"] = _rounds(300, 2)
    assert shoot_cells.diff(old, new) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0].split()[-4:] == ["mesh", "v0", "W", "dump"]
    meshes = {line.split()[0]: line.split()[-6:-3] for line in out[1:5]}
    assert meshes == {"A": ["684/2", "->", "684/2"], "B": ["9441/4", "->", "9441/5"],
                      "C": ["200/1:failed", "->", "-"], "D": ["-", "->", "300/2"]}
    assert "collocation meshes moved: 1 of 2" in out
    assert "last-round Newton iterations (old): 3" in out
    assert "last-round Newton iterations (new): 5" in out
    assert [line for line in out if line.startswith("newton moved")] == [
        "newton moved: B 1 -> 3", "newton moved: D - -> 1", "newton moved: C 1 -> -"]
    # without a collocation on either side, the column reads "-" and no
    # count prints
    for rec in (old, new):
        for label in rec:
            rec[label]["record"]["rounds"] = []
    assert shoot_cells.diff(old, new) == 0
    out = capsys.readouterr().out.splitlines()
    assert {line.split()[-4] for line in out[1:5]} == {"-"}
    assert not any(line.startswith(("collocation meshes moved", "newton moved")) for line in out)
    assert "last-round Newton iterations (new): 0" in out


def test_shoot_cells_diff_counts_every_rounds_newton_iterations(capsys):
    # next to the last round's, every round's Newton iterations summed per
    # side and one "all-round newton moved" line per cell whose sum moved:
    # A's round 1 drops from 6 to 3 iterations while its last round keeps
    # 1, which the last-round count does not show; B keeps both; C
    # collocates only in OLD
    old = {label: _ok("0x1p-2", 5, 9) for label in "ABC"}
    new = {label: _ok("0x1p-2", 5, 9) for label in "ABC"}
    for rec, first in ((old, 6), (new, 3)):
        rec["A"]["record"]["rounds"] = [{"nodes": 200, "newton": first, "max_rms": 1e-8, "predicted": 296},
                                        *_rounds(296, 1)]
    old["B"]["record"]["rounds"] = new["B"]["record"]["rounds"] = _rounds(684, 2, newton=2)
    old["C"]["record"]["rounds"] = _rounds(200, 1, newton=4)
    assert shoot_cells.diff(old, new) == 0
    out = capsys.readouterr().out.splitlines()
    assert "last-round Newton iterations (old): 7" in out
    assert "last-round Newton iterations (new): 3" in out
    assert [line for line in out if line.startswith("newton moved")] == ["newton moved: C 4 -> -"]
    assert "all-round Newton iterations (old): 21" in out
    assert "all-round Newton iterations (new): 14" in out
    assert [line for line in out if line.startswith("all-round newton moved")] == [
        "all-round newton moved: A 7 -> 4", "all-round newton moved: C 4 -> -"]


def test_shoot_cells_diff_names_an_unconfirmed_v0(capsys):
    # per side, one line per solved cell whose v0's eps shot escapes no
    # farther out than both bracket ends' shots: A's between its ends' (a
    # wrong v0 that passed every invariant once, 46.1 between 44.7 and
    # 46.5) in NEW, B's before both in OLD; C's v0 reaches the horizon (an
    # end does too) and D's escapes past both, which confirms them, and a
    # failed solve (F) records no radii.  An ok cell whose v0 NEW refutes
    # exits 1, one that fails an invariant (E) prints its line only.
    old = {label: _ok("0x1p-2", 5, 9) for label in "ABCD"}
    old["E"] = _ok("0x1p-2", 5, 9, passed=False)
    old["F"] = _failed("NoConvergence", 7, 8)
    inf = float("inf")
    for label, v0, up, dn in (("A", 47.0, 46.5, 44.7), ("B", 40.0, 46.5, 44.7), ("C", inf, inf, 310.0),
                              ("D", 90.9, 45.5, 49.9), ("E", 40.0, 46.5, 44.7)):
        old[label]["confirm"] = {"v0": v0, "up": up, "dn": dn}
    new = json.loads(json.dumps(old))
    new["A"]["confirm"]["v0"] = 46.1
    new["B"]["confirm"]["v0"] = 50.0
    assert shoot_cells.diff(old, new) == 1
    out = capsys.readouterr().out.splitlines()
    assert [line for line in out if line.startswith("v0 not confirmed")] == [
        "v0 not confirmed: B (old) escapes at r = 40, its bracket's ends at 46.5 and 44.7",
        "v0 not confirmed: E (old) escapes at r = 40, its bracket's ends at 46.5 and 44.7",
        "v0 not confirmed: A (new) escapes at r = 46.1, its bracket's ends at 46.5 and 44.7",
        "v0 not confirmed: E (new) escapes at r = 40, its bracket's ends at 46.5 and 44.7",
    ]
    new["A"]["confirm"]["v0"] = 47.0
    assert shoot_cells.diff(old, new) == 0


def test_shoot_cells_diff_totals_step_failures(capsys):
    # each side's legs that ended in a step failure, summed over cells and
    # charts; a cell whose count rises gets its own line, one whose count
    # falls none
    new = {"A": _ok("0x1p-2", 50, 8), "F": _failed("StepFailure", 7, 8)}
    for rec, counts in ((new["A"], (2, 1)), (new["F"], (1, 0))):
        for chart, count in zip("rv", counts):
            rec["record"]["charts"][chart]["step_failures"] = count
    more = json.loads(json.dumps(new))
    more["A"]["record"]["charts"]["v"]["step_failures"] = 3
    for a, b, total in ((new, new, "4 -> 4"), (more, new, "6 -> 4")):
        assert shoot_cells.diff(a, b) == 0
        out = capsys.readouterr().out.splitlines()
        assert f"step failures: {total}" in out
        assert not any(line.startswith("step failures rose") for line in out)
    assert shoot_cells.diff(new, more) == 0
    out = capsys.readouterr().out.splitlines()
    assert "step failures: 4 -> 6" in out
    assert [line for line in out if line.startswith("step failures rose")] == [
        "step failures rose: A 3 -> 5"]


def test_shoot_cells_diff_exits_1_when_an_ok_cell_fails(capsys):
    old = {"A": _ok("0x1p-2", 50, 56), "B": _ok("0x1p-1", 50, 80)}
    new = {"A": _failed("NoConvergence", 30, 23), "B": _ok("0x1p-1", 50, 33, passed=False)}
    assert shoot_cells.diff(old, new) == 1
    out = capsys.readouterr().out
    assert "failed phi_positive" in out
    assert "ok cells lost: A, B" in out


def test_shoot_cells_trials_sum_to_n_bisect():
    # one _bisect call (stage 1), whose trials are n_bisect, and one tangent
    # take on case B: one collocation solve, its first round on the 200
    # start nodes and its second on the mesh the first predicts
    rec = shoot_cells.shoot_cell("B")
    record = rec["record"]
    assert record["trials"] > 0 and rec["alpha"] == 1.0
    # every stage-1 shot one leg of Taylor steps at the shot tolerance 1e-10
    # (chart "r"), the tangent one complex-step leg at eps (chart "v"), each
    # counted in steps, keyed by the decade of its tolerance
    charts = record["charts"]
    assert set(charts) == {"r", "v"}
    for chart in charts.values():
        assert sum(chart["nfev_by_rtol"].values()) == chart["nfev"]
        assert chart["step_failures"] == 0
    assert charts["r"]["calls"] == record["trials"] + 2 and set(charts["r"]["nfev_by_rtol"]) == {"1e-10"}
    assert charts["v"]["calls"] == 1 and set(charts["v"]["nfev_by_rtol"]) == {"1e-16"}
    assert 1 < charts["v"]["nfev"] < 20
    assert len(rec["w_sha256"]) == 64 and 0.0 < rec["seam_residual"] < 1e-11
    assert [(r["nodes"], r["predicted"]) for r in record["rounds"]] == [(200, 296), (296, None)]
    # the v0 confirmation: B's v0 shot at eps reaches the horizon, and
    # those from its bracket's ends escape before it
    radii = rec["confirm"]
    assert radii["v0"] == float("inf") and _R_SWITCH < min(radii["up"], radii["dn"]) < radii["v0"]
    assert not shoot_cells.unconfirmed(rec)


def test_shoot_cells_record_is_the_solve_payload(pc13, tmp_path):
    # the one writer: a cell's record without its three hashes, its expand
    # record and its v0 confirmation is `biharm solve`'s JSON for the same
    # solve
    rec = shoot_cells.shoot_cell("quick")
    res = CliRunner().invoke(main, ["solve", "--n", "13", "--p", repr(pc13 + 0.5),
                                    "--r-max", "500", "--out", str(tmp_path / "d.csv")])
    assert res.exit_code == 0, res.output
    for key in ("v0_hex", "dump_sha256", "w_sha256", "expand", "confirm"):
        rec.pop(key)
    assert json.loads(json.dumps(rec)) == json.loads(res.stdout)


def _expand(failed=(), error=None):
    if error is not None:
        return {"error": error, "message": ""}
    names = ("a0_matches_L", "remainder_slope_ok", "window_shift_stable")
    return {"regime": "a", "k": 1, "window": [5.0, 8.0], "coefficients": {},
            "invariants": {name: {"value": 0.1, "bound": 1.0, "passed": name not in failed}
                           for name in names}}


def test_shoot_cells_diff_reads_expand_outcomes(capsys):
    # A keeps its expansion ok; B's OLD record predates the expand key; C's
    # expansion fails in NEW while its solve stays ok, which exits 1; D
    # raised on both sides; F failed its solve and has no expand record
    old = {label: _ok("0x1p-2", 5, 9) for label in "ABCD"}
    new = {label: _ok("0x1p-2", 5, 9) for label in "ABCD"}
    old["F"] = new["F"] = _failed("StepFailure", 7, 8)
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
    # the expand record is `biharm expand`'s payload on the same solve, with
    # the five expansion invariants; with the solve's six they are the
    # CLI's invariants payload, value for value
    solve = shoot_cells.shoot_cell("quick")
    rec = json.loads(json.dumps(solve["expand"]))
    res = CliRunner().invoke(main, ["expand", "--n", "13", "--p", repr(pc13 + 0.5),
                                    "--r-max", "500"])
    assert res.exit_code == 0, res.output
    payload = json.loads(res.stdout)
    assert (rec["regime"], rec["k"]) == ("a", 1)
    assert len(rec["invariants"]) == 5
    assert {**rec, "invariants": payload["invariants"]} == payload
    assert solve["invariants"] | rec["invariants"] == payload["invariants"]
    assert all(check["passed"] is True for check in rec["invariants"].values())
    assert shoot_cells.shoot_cell("A_r5")["expand"]["error"] == "WindowTooShort"


def test_shoot_cells_wide_rows_resolve_and_the_grid_keeps_25_cells(monkeypatch):
    # n = 60 and n = 200 at the grid's five p's and r_max, and n = 13 at
    # 1e4 p_c and 1e5 p_c, resolve by label through --cells, and --grid is
    # still the 25 cells; nothing is shot
    shot = []
    monkeypatch.setattr(shoot_cells, "shoot_cell", lambda label: shot.append(label) or {})
    monkeypatch.setattr(sys, "path", list(sys.path))
    wide = [f"n{n}_{p}" for n in (60, 200) for p in ("pc", "pc+0.5", "2pc", "10pc", "100pc")]
    wide += ["n13_1e4pc", "n13_1e5pc"]
    for argv in (["--cells", ",".join(wide)], ["--grid"], []):
        monkeypatch.setattr(sys, "argv", ["shoot_cells.py", *argv])
        shoot_cells.main()
    assert shot[:12] == wide
    grid = shot[12:37]
    assert len(grid) == 25 and not set(grid) & set(wide)
    assert {shoot_cells.KNOWN[label][0] for label in grid} == {13, 15, 20, 40, 100}
    assert shot[37:] == list(shoot_cells.CELLS) and not set(shot[37:]) & set(wide)
    lad = compute_ladder(200)
    n, p_of, r_max = shoot_cells.KNOWN["n200_10pc"]
    assert (n, p_of(lad), r_max) == (200, 10.0 * lad.p_c, 1e4)
    lad = compute_ladder(13)
    for label, factor in (("n13_1e4pc", 1e4), ("n13_1e5pc", 1e5)):
        n, p_of, r_max = shoot_cells.KNOWN[label]
        assert (n, p_of(lad), r_max) == (13, factor * lad.p_c, 1e4)


def test_shoot_cells_a10_is_case_a_at_height_10(monkeypatch):
    # A_a10, case A at phi(0) = 10, is a default cell; its record stores the
    # height as alpha (1 for a cell that names none) and solves
    shot = []
    monkeypatch.setattr(shoot_cells, "shoot_cell", lambda label: shot.append(label) or {})
    monkeypatch.setattr(sys, "path", list(sys.path))
    monkeypatch.setattr(sys, "argv", ["shoot_cells.py"])
    shoot_cells.main()
    assert shot == list(shoot_cells.CELLS) and "A_a10" in shot
    monkeypatch.undo()
    rec = shoot_cells.shoot_cell("A_a10")
    assert (rec["n"], rec["p"], rec["r_max"], rec["alpha"]) == (
        13, compute_ladder(13).p_c + 0.5, 1e4, 10.0)
    assert shoot_cells.outcome(rec) == "ok" and shoot_cells.outcome(rec["expand"]) == "ok"


def test_shoot_cells_records_the_failing_collocation_round(monkeypatch, capsys):
    # a collocation.solve that raises NoConvergence leaves its finished
    # rounds in the error's record; case B predicts 296 nodes from its 200
    # start nodes, above a cap of 250
    monkeypatch.setattr(biharm.shooting, "_BVP_MAX_NODES", 250)
    rec = shoot_cells.shoot_cell("B")
    assert rec["error"] == "NoConvergence"
    (round_1,) = rec["record"]["rounds"]
    assert (round_1["nodes"], round_1["predicted"]) == (200, 296)
    # a round that fails before it finishes (a singular band LU) records no
    # round
    plain = biharm.collocation.dgbtrf
    monkeypatch.setattr(biharm.collocation, "dgbtrf",
                        lambda ab, kl, ku, **kwargs: (*plain(ab, kl, ku, **kwargs)[:2], 7))
    assert shoot_cells.shoot_cell("quick")["record"]["rounds"] == []
    # --diff's mesh column marks a failed solve's last round, against a
    # solve that returned on the other side and one that failed later
    ok = _ok("0x1p-2", 5, 9)
    ok["record"]["rounds"] = _rounds(645, 2)
    later = _failed("NoConvergence", 5, 9)
    later["record"]["rounds"] = _rounds(645, 2)
    assert shoot_cells.diff({"A": ok, "B": rec}, {"A": rec, "B": later}) == 1
    out = capsys.readouterr().out.splitlines()
    meshes = {line.split()[0]: line.split()[-6:-3] for line in out[1:3]}
    assert meshes == {"A": ["645/2", "->", "200/1:failed"],
                      "B": ["200/1:failed", "->", "645/2:failed"]}
    assert "collocation meshes moved: 2 of 2" in out


def test_shoot_cells_diff_names_error_class_changes(capsys):
    # one line per cell whose solve (or expand) failed on both sides with
    # different classes; the same class, a lost or a gained solve prints
    # none, and the exit code is the one without these lines
    old = {"A": _failed("NoConvergence", 5, 9), "B": _failed("StepFailure", 5, 9),
           "C": _ok("0x1p-2", 5, 9), "D": _failed("StepFailure", 5, 9),
           "E": _ok("0x1p-2", 5, 9)}
    new = {"A": _failed("StepFailure", 5, 9), "B": _failed("StepFailure", 5, 9),
           "C": _ok("0x1p-2", 5, 9), "D": _ok("0x1p-2", 5, 9), "E": _ok("0x1p-2", 5, 9)}
    old["E"]["expand"] = _expand(error="IllConditioned")
    new["E"]["expand"] = _expand(error="WindowTooShort")
    assert shoot_cells.diff(old, new) == 0
    out = capsys.readouterr().out.splitlines()
    assert [line for line in out if line.startswith("error class changed")] == [
        "error class changed: A NoConvergence -> StepFailure",
        "error class changed: expand E IllConditioned -> WindowTooShort",
    ]


def test_shoot_cells_diff_names_moved_invariants(capsys):
    # one line per solve or expand invariant whose value differs between the
    # sides, old value first; equal values, a failed solve and a check only
    # one side records print none, and the exit code is the one without them
    old = {"A": _ok("0x1p-2", 5, 9), "B": _ok("0x1p-2", 5, 9),
           "F": _failed("StepFailure", 7, 8)}
    new = {"A": _ok("0x1p-2", 5, 9), "B": _ok("0x1p-2", 5, 9),
           "F": _failed("StepFailure", 7, 8)}
    for rec, value in ((old, 2.1e-4), (new, 3.9e-8)):
        rec["A"]["invariants"]["transform_residual"] = {"value": value, "bound": 1e-4,
                                                   "passed": value < 1e-4}
    old["A"]["expand"], new["A"]["expand"] = _expand(), _expand()
    new["A"]["expand"]["invariants"]["a0_matches_L"]["value"] = 0.2
    new["B"]["invariants"]["decay_slope"] = {"value": 0.2, "bound": 0.4, "passed": True}
    assert shoot_cells.diff(old, new) == 0
    out = capsys.readouterr().out.splitlines()
    assert [line for line in out if line.startswith("invariant moved")] == [
        "invariant moved: A transform_residual 0.00021 -> 3.9e-08",
        "invariant moved: A a0_matches_L 0.1 -> 0.2",
    ]
