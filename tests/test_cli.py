import csv
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

import biharm.cli
import biharm.shooting
from biharm import ProblemParams, compute_ladder, compute_pc, compute_spectrum, detect_regime
from biharm.errors import LadderMismatch, NoConvergence
from biharm.cli import main
from biharm.expansion import fit_expansion
from biharm.shooting import SolveRecord, shoot
from biharm.verify import BOUNDS, SCOPES, record_payload


@pytest.fixture()
def runner():
    return CliRunner()


def test_spectrum_json(runner, pc13):
    res = runner.invoke(main, ["spectrum", "--n", "13", "--p", str(pc13 + 1.0)])
    assert res.exit_code == 0
    payload = json.loads(res.stdout)
    assert payload["degenerate"] is False
    assert payload["lambda_1"] < payload["lambda_2"] < payload["lambda_3"] < 0
    assert payload["lambda_4"] > 0


def test_spectrum_degenerate_flag(runner, pc13):
    res = runner.invoke(main, ["spectrum", "--n", "13", "--p", str(pc13)])
    assert res.exit_code == 0
    assert json.loads(res.stdout)["degenerate"] is True


def test_spectrum_rejects_small_dimension(runner):
    res = runner.invoke(main, ["spectrum", "--n", "12", "--p", "5.0"])
    assert res.exit_code == 2
    assert "n <= 12" in res.output


def test_spectrum_rejects_subsobolev(runner):
    res = runner.invoke(main, ["spectrum", "--n", "13", "--p", "1.5"])
    assert res.exit_code == 2
    assert "supercritical" in res.output


def test_spectrum_and_solve_reject_an_amplitude_past_the_floats(runner, tmp_path):
    # L overflows a float: a typed InvalidParams, exit 2, not a traceback
    for args in (["spectrum", "--n", "5000", "--p", "1.01"],
                 ["solve", "--n", "500", "--p", repr(compute_pc(500)), "--out", str(tmp_path / "dump.csv")]):
        res = runner.invoke(main, args)
        assert res.exit_code == 2, res.output
        assert "the singular amplitude L = Q4(m)^(1/(p-1)) = 10^" in res.output
        assert "overflows a float" in res.output


def test_spectrum_csv(runner, pc13):
    res = runner.invoke(main, ["spectrum", "--n", "13", "--p", str(pc13 + 1.0),
                               "--format", "csv"])
    assert res.exit_code == 0
    lines = res.stdout.splitlines()
    assert lines[0] == "key,value"
    assert any(line.startswith("L,") for line in lines)


def test_critical_csv_has_two_fields_per_line(runner):
    # the nested parity_boundary dict becomes parity_boundary.<key> rows
    res = runner.invoke(main, ["critical", "--n", "13", "--format", "csv"])
    assert res.exit_code == 0
    rows = list(csv.reader(io.StringIO(res.stdout)))
    assert all(len(row) == 2 for row in rows)
    values = dict(rows)
    assert values["parity_boundary.k"] == "2"
    assert values["parity_boundary.factored_value"] == "-1296"
    assert values["parity_boundary.positive"] == "False"


def test_critical_small_dimension_graceful(runner):
    res = runner.invoke(main, ["critical", "--n", "12"])
    assert res.exit_code == 0
    payload = json.loads(res.stdout)
    assert payload["p_c"] is None
    assert "infinite" in payload["note"]
    # a null value is an empty CSV field, as in sweep's rows
    res = runner.invoke(main, ["critical", "--n", "12", "--format", "csv"])
    assert res.exit_code == 0
    assert dict(csv.reader(io.StringIO(res.stdout)))["p_c"] == ""


def test_critical_counts(runner):
    for n, expected in ((13, 1), (20, 5)):
        res = runner.invoke(main, ["critical", "--n", str(n)])
        assert res.exit_code == 0
        payload = json.loads(res.stdout)
        assert payload["N_computed"] == expected == payload["N_formula"]


def test_critical_parity_column(runner):
    res = runner.invoke(main, ["critical", "--n", "13"])
    payload = json.loads(res.stdout)
    assert payload["parity_boundary"]["factored_value"] == -1296.0
    assert payload["parity_boundary"]["positive"] is False


# At r_max 60 the decay slope's decade is not yet lam3-dominated: the
# entire solution itself reads |slope - lam3| = 0.537 there, above the bound
# 0.422 (measured on the r_max 1e4 solve cut at 60).  At r_max 100 it reads
# 0.375, so the passing solves below run to 100.


def test_solve_summary_and_dump(runner, pc13, tmp_path):
    dump = tmp_path / "dump.csv"
    res = runner.invoke(main, [
        "solve", "--n", "13", "--p", str(pc13 + 0.5),
        "--r-max", "100", "--out", str(dump),
    ])
    assert res.exit_code == 0
    summary = json.loads(res.stdout)
    assert summary["invariants"]["phi_positive"]["value"] is True
    assert summary["invariants"]["Y_negative_nondecreasing"]["value"] is True
    assert abs(summary["target_residual"]) < 1e-2
    header = dump.read_text().splitlines()[0]
    assert header == "s,r,phi,W,Y,Z"


def test_solve_reports_invariants_with_bounds(runner, pc13, tmp_path):
    res = runner.invoke(main, [
        "solve", "--n", "13", "--p", str(pc13 + 0.5),
        "--r-max", "100", "--out", str(tmp_path / "d.csv"),
    ])
    assert res.exit_code == 0
    summary = json.loads(res.stdout)
    lam3 = compute_spectrum(ProblemParams(13, pc13 + 0.5)).lambdas[2]
    bounds = {name: rec["bound"] for name, rec in summary["invariants"].items()}
    assert bounds == {
        "target_residual": BOUNDS["target_residual"],
        "phi_positive": None,
        "Y_negative_nondecreasing": None,
        "transform_residual": BOUNDS["transform_residual"],
        "decay_slope": BOUNDS["decay_slope"] * abs(lam3),
        "integral_identity": BOUNDS["integral_identity"],
    }
    assert list(bounds) == list(summary["invariants"])  # report order
    assert all(rec["passed"] for rec in summary["invariants"].values())
    assert set(summary) == {
        "n", "p", "alpha", "r_max", "v0", "target_residual",
        "seam_residual", "invariants", "record",
    }


def test_solve_reports_its_record(runner, pc13, tmp_path):
    # the payload's record is verify.record_payload of the solve's
    # SolveRecord: its RHS evaluations sum over the record's legs, and its
    # last collocation round met tol
    res = runner.invoke(main, [
        "solve", "--n", "13", "--p", repr(pc13 + 0.5), "--r-max", "500",
        "--out", str(tmp_path / "d.csv"),
    ])
    assert res.exit_code == 0, res.output
    record = json.loads(res.stdout)["record"]
    sol = shoot(ProblemParams(13, pc13 + 0.5), alpha=1.0, r_max=500.0)
    assert record == json.loads(json.dumps(record_payload(sol.record)))
    assert sum(c["nfev"] for c in record["charts"].values()) == sum(
        nfev for _, _, nfev, _ in sol.record.legs)
    assert record["trials"] == sol.n_bisect and record["bracket"] == list(sol.record.bracket)
    assert record["rounds"][-1]["predicted"] is None
    assert record["rounds"][-1]["max_rms"] <= 1e-10


def test_failed_solve_reports_its_error_and_record(runner, pc15, tmp_path, monkeypatch):
    # a typed failure out of shoot exits 1 naming it on stderr, and stdout
    # holds its error payload with the solve's record: case B predicts 296
    # nodes from its 200 start nodes, above a cap of 250
    monkeypatch.setattr(biharm.shooting, "_BVP_MAX_NODES", 250)
    dump = tmp_path / "d.csv"
    res = runner.invoke(main, [
        "solve", "--n", "15", "--p", repr(pc15 + 1.0), "--r-max", "1e4", "--out", str(dump),
    ])
    assert res.exit_code == 1 and not dump.exists()
    payload = json.loads(res.stdout)
    assert set(payload) == {"error", "message", "record"}
    assert payload["error"] == "NoConvergence"
    assert f"error: {payload['message']}" in res.stderr
    (round_1,) = payload["record"]["rounds"]
    assert (round_1["nodes"], round_1["predicted"]) == (200, 296)
    assert payload["record"]["trials"] > 0


def test_expand_failure_reports_its_error_and_the_solve_record(runner, pc13):
    # a typed failure after the solve returned exits 1 naming it on stderr,
    # and stdout holds its error payload with the solve's record: at r_max 5
    # Y never falls far enough for the fit window
    res = runner.invoke(main, ["expand", "--n", "13", "--p", repr(pc13 + 0.5), "--r-max", "5"])
    assert res.exit_code == 1
    payload = json.loads(res.stdout)
    assert set(payload) == {"error", "message", "record"}
    assert payload["error"] == "WindowTooShort"
    assert res.stderr == f"error: {payload['message']}\n"
    assert payload["record"]["trials"] > 0 and payload["record"]["rounds"]


def test_expand_failure_in_the_solve_reports_its_record(runner, pc13, monkeypatch):
    # an error out of shoot carries its own record, which expand reports
    record = SolveRecord(legs=(("r", 1e-8, 120, 0),), trials=3, bracket=(-2.0, -1.0))

    def failing(params, alpha, r_max):
        exc = NoConvergence("stage 1 found no bracket")
        exc.record = record
        raise exc

    monkeypatch.setattr(biharm.shooting, "shoot", failing)
    res = runner.invoke(main, ["expand", "--n", "13", "--p", repr(pc13 + 0.5)])
    assert res.exit_code == 1
    assert json.loads(res.stdout) == {"error": "NoConvergence",
                                      "message": "stage 1 found no bracket",
                                      "record": json.loads(json.dumps(record_payload(record)))}
    assert res.stderr == "error: stage 1 found no bracket\n"


def test_solve_failure_exits_1_after_the_dump(runner, pc13, tmp_path):
    # at r_max 20 the resolved decade is too short for the decay slope:
    # |slope - lam3| = 1.29 against the bound 0.1 |lam3| = 0.422
    dump = tmp_path / "d.csv"
    res = runner.invoke(main, [
        "solve", "--n", "13", "--p", str(pc13 + 0.5),
        "--r-max", "20", "--out", str(dump),
    ])
    assert res.exit_code == 1
    assert dump.read_text().splitlines()[0] == "s,r,phi,W,Y,Z"
    invariants = json.loads(res.stdout)["invariants"]
    slope = invariants.pop("decay_slope")
    assert slope["passed"] is False
    line = f"invariants FAILED: decay_slope {slope['value']:.3g} > {slope['bound']:.3g}"
    assert line in res.stderr
    assert all(rec["passed"] for rec in invariants.values())


def test_solve_r_chart_only_payload_is_json(runner, pc13, tmp_path):
    # r_max <= r_switch: the lattice ends before the chart seam, which is
    # still measured on the solve (a number, never the non-JSON NaN); the
    # short solve still fails its decay slope
    res = runner.invoke(main, [
        "solve", "--n", "13", "--p", str(pc13 + 0.5),
        "--r-max", "5", "--out", str(tmp_path / "d.csv"),
    ])
    assert res.exit_code == 1

    def reject(name):
        raise ValueError(f"non-JSON constant {name}")

    summary = json.loads(res.stdout, parse_constant=reject)
    assert isinstance(summary["seam_residual"], float)
    assert 0.0 < summary["seam_residual"] < 1e-11
    assert summary["invariants"]["decay_slope"]["passed"] is False


def test_short_critical_solve_exits_1_naming_its_window(runner, pc13, tmp_path):
    # a valid solve too short for a check is not invalid input: at p_c the
    # decay slope's last resolved decade must lie at positive s, and at
    # r_max 5 it does not, so solve exits 1 after the dump and its payload
    # and names why
    dump = tmp_path / "d.csv"
    res = runner.invoke(main, [
        "solve", "--n", "13", "--p", str(pc13), "--r-max", "5", "--out", str(dump),
    ])
    assert res.exit_code == 1
    assert dump.read_text().splitlines()[0] == "s,r,phi,W,Y,Z"
    assert "error: decay slope: the last resolved decade" in res.stderr
    assert "must lie at positive s" in res.stderr and "extend r_max" in res.stderr
    # stdout holds the solve's payload, the raised check under invariants
    summary = json.loads(res.stdout)
    assert summary["invariants"]["error"] == "WindowTooShort"
    assert f"error: {summary['invariants']['message']}" in res.stderr
    assert summary["r_max"] == 5.0 and summary["record"]["rounds"]


@pytest.mark.parametrize("command", ["solve", "expand"])
def test_tol_root_is_rejected(runner, pc13, tmp_path, command):
    # every tolerance flag is gone: the solve and the fit run at fixed ones
    for flag in ("--tol-root", "--tol-integrator", "--tol-fit", "--tol-rung"):
        res = runner.invoke(main, [
            command, "--n", "13", "--p", str(pc13 + 0.5), "--r-max", "100",
            flag, "1e-3", "--out", str(tmp_path / "d.csv"),
        ])
        assert res.exit_code == 2, flag
        assert flag in res.stderr, flag


def test_solve_and_expand_options_are_pinned():
    params = {name: [p.name for p in main.commands[name].params] for name in ("solve", "expand")}
    assert params == {
        "solve": ["n", "p", "alpha", "r_max", "out", "config"],
        "expand": ["n", "p", "alpha", "r_max", "window", "fmt", "out", "config"],
    }


def test_config_rejects_unknown_keys(runner, pc13, tmp_path):
    # an unknown key (a typo, or a removed option) would otherwise be ignored
    # and the run fall back to the defaults
    cfg = tmp_path / "cfg.json"
    dump = tmp_path / "d.csv"
    for key in ("tol_root", "tol_integrator", "tol_fit", "tol_rung"):
        cfg.write_text(json.dumps({key: 1e-3, "r_max": 100.0}))
        res = runner.invoke(main, [
            "solve", "--n", "13", "--p", str(pc13 + 0.5), "--config", str(cfg), "--out", str(dump),
        ])
        assert res.exit_code == 2, key
        assert f"unknown config keys {key} in {cfg}" in res.stderr, key
        assert not dump.exists(), key


@pytest.mark.parametrize("text, cause", [
    ("[1, 2]", "is not a JSON object"),
    ('"x"', "is not a JSON object"),
    ('{"r_max": 1e4,}', "is not JSON: "),
    ('{"r_max": "big"}', 'r_max in {cfg} is not a number: "big"'),
    ('{"r_max": null}', "r_max in {cfg} is not a number: null"),
    ('{"alpha": true}', "alpha in {cfg} is not a number: true"),
    (None, "is a directory"),
])
def test_config_rejects_a_bad_file(runner, pc13, tmp_path, text, cause):
    cfg = tmp_path / "cfg.json"
    if text is None:
        cfg.mkdir()
    else:
        cfg.write_text(text)
    dump = tmp_path / "d.csv"
    res = runner.invoke(main, [
        "solve", "--n", "13", "--p", str(pc13 + 0.5), "--config", str(cfg), "--out", str(dump),
    ])
    assert res.exit_code == 2
    assert str(cfg) in res.stderr
    assert cause.format(cfg=cfg) in res.stderr
    assert not dump.exists()


def test_solve_deterministic(runner, pc13, tmp_path):
    args = ["solve", "--n", "13", "--p", str(pc13 + 0.5), "--r-max", "60",
            "--out", str(tmp_path / "d.csv")]
    first = runner.invoke(main, args)
    second = runner.invoke(main, args)
    assert first.stdout == second.stdout
    assert json.loads(first.stdout)["v0"] == json.loads(second.stdout)["v0"]


def test_verify_algebra_scope(runner):
    res = runner.invoke(main, ["verify", "--scope", "algebra"])
    assert res.exit_code == 0
    payload = json.loads(res.stdout)
    assert all(entry["passed"] for entry in payload)
    assert any(entry["name"] == "sign_criterion" for entry in payload)


def test_expand_failure_names_value_and_bound(runner, pc13, monkeypatch):
    monkeypatch.setitem(BOUNDS, "a0_matches_L", 1e-12)
    res = runner.invoke(main, ["expand", "--n", "13", "--p", str(pc13 + 0.5),
                               "--r-max", "2000"])
    assert res.exit_code == 1
    payload = json.loads(res.stdout)
    invariants = payload["invariants"]
    assert len(invariants) == 11
    a0 = invariants.pop("a0_matches_L")
    assert a0["passed"] is False
    assert a0["bound"] == 1e-12 * payload["L"]
    assert a0["value"] == abs(payload["coefficients"]["a0"]["value"] - payload["L"])
    assert 1e-11 < a0["value"] < 1e-9
    assert all(rec["passed"] for rec in invariants.values())
    assert "a0_matches_L" in res.stderr
    assert not any(name in res.stderr for name in invariants)


@pytest.mark.parametrize("window", [("5", "3"), ("nan", "5"), ("5", "inf")])
def test_expand_rejects_a_bad_window_before_the_solve(runner, pc13, monkeypatch, window):
    # a window must be finite with s_lo < s_hi; these ran the whole solve and
    # then exited 1 with "0 nodes cannot support 4 coefficients"
    def refuse(*args, **kwargs):
        raise AssertionError("expand shot a solve for an invalid window")

    monkeypatch.setattr(biharm.shooting, "shoot", refuse)
    res = runner.invoke(main, ["expand", "--n", "13", "--p", str(pc13 + 0.5), "--window", *window])
    assert res.exit_code == 2, res.output
    lo, hi = (float(x) for x in window)
    assert f"fit window (s_lo, s_hi) = ({lo}, {hi}) must be finite" in res.stderr


@pytest.mark.parametrize("n, p", [(12, 3.0), (13, 5.0)])
def test_solve_and_expand_reject_a_subcritical_input_alike(runner, tmp_path, n, p):
    # below p_c (n = 12 has none) both commands exit 2 with the spectrum's
    # message and no payload; expand exited 1 with NoPcValue at n = 12
    args = ["--n", str(n), "--p", str(p)]
    solved = runner.invoke(main, ["solve", *args, "--out", str(tmp_path / "dump.csv")])
    expanded = runner.invoke(main, ["expand", *args])
    for res in (solved, expanded):
        assert res.exit_code == 2, res.output
        assert res.stdout == ""
    assert expanded.stderr == solved.stderr
    assert solved.stderr.startswith("error: P(lam_star) = ") and f"(n={n}, p={p})" in solved.stderr


def test_expand_window_with_too_few_nodes_exits_1(runner, pc13):
    # a valid window that holds too few lattice nodes fails the fit (exit 1)
    res = runner.invoke(main, ["expand", "--n", "13", "--p", str(pc13 + 0.5), "--r-max", "500",
                               "--window", "5", "5.02"])
    assert res.exit_code == 1, res.output
    assert re.search(r"error: \d nodes cannot support \d coefficients", res.stderr)


def test_expand_refuses_a_vanished_column(runner, sol_n200_10pc, monkeypatch):
    # n = 200 at 10 p_c solves, then its fit column a58 underflows to 0 on
    # the window: a typed error on stderr and exit 1, not a LinAlgError
    def solved(params, alpha, r_max):
        assert (params, alpha, r_max) == (sol_n200_10pc.params, 1.0, 1e4)
        return sol_n200_10pc

    monkeypatch.setattr(biharm.shooting, "shoot", solved)
    res = runner.invoke(main, ["expand", "--n", "200", "--p", repr(sol_n200_10pc.params.p)])
    assert res.exit_code == 1 and isinstance(res.exception, SystemExit), res.exception
    assert res.stderr.startswith("error: fit design matrix: column a58 has maximum 0.0")
    assert "Traceback" not in res.output


def test_expand_csv_lists_each_coefficient(runner, sol_a, monkeypatch):
    # one row per fit coefficient under the header, each value and stderr
    # to 17 significant digits, so the floats read back bit for bit
    def solved(params, alpha, r_max):
        assert (params, alpha, r_max) == (sol_a.params, 1.0, 1e4)
        return sol_a

    monkeypatch.setattr(biharm.shooting, "shoot", solved)
    res = runner.invoke(main, ["expand", "--n", "13", "--p", repr(sol_a.params.p), "--format", "csv"])
    assert res.exit_code == 0, res.output
    fit = fit_expansion(sol_a, sol_a.spectrum, detect_regime(sol_a.params, compute_ladder(13)))
    rows = [line.split(",") for line in res.stdout.splitlines()]
    assert rows[0] == ["coefficient", "value", "stderr", "resolved"]
    assert [row[0] for row in rows[1:]] == list(fit.coefficients)
    for name, value, stderr, resolved in rows[1:]:
        est = fit.coefficients[name]
        assert (float(value), float(stderr), resolved) == (est.value, est.stderr, str(est.resolved))
        assert value == f"{est.value:.17g}" and stderr == f"{est.stderr:.17g}"


def test_verify_csv_has_three_fields_per_line(runner):
    # each algebra suite is one row; commas in a detail become ";"
    res = runner.invoke(main, ["verify", "--scope", "algebra", "--format", "csv"])
    assert res.exit_code == 0, res.output
    lines = res.stdout.splitlines()
    assert lines[0] == "name,passed,detail"
    rows = [line.split(",") for line in lines[1:]]
    assert len(rows) == 11 and all(len(row) == 3 for row in rows)
    assert [row[0] for row in rows] == [name for name, _ in SCOPES["algebra"]]
    assert all(row[1] == "True" for row in rows)
    assert any(";" in row[2] for row in rows)


def test_sweep_csv_roundtrip(runner, tmp_path):
    out = tmp_path / "sweep.csv"
    res = runner.invoke(main, ["sweep", "--n-min", "13", "--n-max", "20",
                               "--format", "csv", "--out", str(out)])
    assert res.exit_code == 0
    lines = out.read_text().splitlines()
    header = lines[0].split(",")
    assert header[:4] == ["n", "p_c", "N", "parity_boundary"]
    from biharm import compute_ladder

    rows = [line.split(",") for line in lines[1:]]
    counts = []
    for row in rows:
        n = int(row[0])
        lad = compute_ladder(n)
        # 17-significant-digit fields reproduce the doubles bit-exactly
        assert float(row[1]) == lad.p_c
        assert int(row[2]) == lad.N
        counts.append(lad.N)
        rungs = [float(x) for x in row[4:] if x]
        assert rungs == list(lad.rungs)
    assert counts == sorted(counts)  # N nondecreasing in n


def test_sweep_parity_sign_flip(runner):
    res = runner.invoke(main, ["sweep", "--n-min", "13", "--n-max", "24",
                               "--format", "json"])
    rows = json.loads(res.stdout)
    parity = {r["n"]: r["parity_boundary"] for r in rows if r["n"] % 2 == 1}
    assert all(v < 0 for n, v in parity.items() if n < 20)
    assert all(v > 0 for n, v in parity.items() if n >= 20)


def test_sweep_deterministic(runner):
    args = ["sweep", "--n-min", "13", "--n-max", "16"]
    a = runner.invoke(main, args)
    b = runner.invoke(main, args)
    assert a.stdout == b.stdout


def test_sweep_bad_range(runner):
    res = runner.invoke(main, ["sweep", "--n-min", "10", "--n-max", "12"])
    assert res.exit_code == 2


def test_config_file_precedence(runner, pc13, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"r_max": 100.0, "alpha": 1.0}))
    dump = tmp_path / "d.csv"
    res = runner.invoke(main, [
        "solve", "--n", "13", "--p", str(pc13 + 0.5),
        "--config", str(cfg), "--out", str(dump),
    ])
    assert res.exit_code == 0
    assert json.loads(res.stdout)["r_max"] == 100.0


_PROBE = """
import json, sys
def scipy_modules():
    return sorted(name for name in sys.modules if name.split(".")[0] == "scipy")
import biharm.cli, biharm.ladder, biharm.spectrum
imported = scipy_modules()
from biharm import ProblemParams, compute_pc, representation_check, shoot
from biharm.verify import solve_invariants
sol = shoot(ProblemParams(13, compute_pc(13) + 0.5), alpha=1.0, r_max=500.0)
solve_invariants(sol)
representation_check(sol)
shot = sorted(sys.modules)
import biharm.collocation, scipy.linalg.lapack
same = {name: getattr(scipy.linalg.lapack, name) is getattr(biharm.collocation, name)
        for name in ("dgbtrf", "dgbtrs")}
print(json.dumps({"import": imported, "shoot": shot, "same": same}))
"""


@pytest.fixture(scope="module")
def loaded_scipy():
    """The scipy modules a fresh interpreter holds after importing biharm.cli,
    biharm.ladder and biharm.spectrum; every module it holds after one short
    shoot, its six solve invariants (the integral identity's kernel
    convolution among them) and its representation check, whose kernel
    convolutions are one blocked scan; and, once scipy.linalg.lapack is
    imported after that, whether its dgbtrf and dgbtrs are the
    collocation's."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    out = subprocess.run([sys.executable, "-c", _PROBE], env=env, capture_output=True,
                         text=True, check=True)
    return json.loads(out.stdout)


def test_cli_import_leaves_scipy_signal_unloaded(loaded_scipy):
    # importing scipy.signal costs about as much again as the whole CLI import,
    # so the cold start must not pull in any scipy subpackage; a solve loads
    # the LAPACK extension alone, since the scipy.linalg package costs about
    # 0.3 s through scipy's array-API shim, which loads numpy.f2py,
    # numpy.testing and numpy.ma; the solve's checks load no numpy.ma either.
    # The kernel convolutions' scan is numpy's: scipy.signal.lfilter would
    # run it bit for bit as the old loop did, but importing scipy.signal
    # costs about 1.2 s
    assert "scipy.signal" not in loaded_scipy["import"]
    shot = loaded_scipy["shoot"]
    for name in ("scipy.integrate", "scipy.optimize", "scipy.special", "scipy.sparse",
                 "scipy.signal", "scipy.linalg", "scipy._lib._array_api",
                 "numpy.f2py", "numpy.testing", "numpy.ma"):
        assert name not in shot, name
    assert "scipy.linalg._flapack" in shot
    # a later import of scipy.linalg.lapack finds the same extension, so the
    # band LU is the very routine scipy.linalg.lapack re-exports
    assert loaded_scipy["same"] == {"dgbtrf": True, "dgbtrs": True}


def test_algebra_commands_load_no_scipy(loaded_scipy):
    # spectrum, critical and sweep need only the algebra layers; the solving
    # layers are imported by the commands that solve
    assert loaded_scipy["import"] == []


def test_scope_choices_are_verify_scopes():
    # --scope lists the scopes as literals, so declaring it imports no solver
    scope, = (p for p in main.commands["verify"].params if p.name == "scope")
    assert list(scope.type.choices) == list(SCOPES)


@pytest.mark.parametrize("flags, config, name, value", [
    (["--r-max", "nan"], None, "r_max", "nan"),
    (["--alpha", "inf"], None, "alpha", "inf"),
    ([], '{"r_max": NaN}', "r_max", "nan"),
])
def test_solve_rejects_non_finite_input(runner, pc13, tmp_path, flags, config, name, value):
    # NaN passes every ordered comparison and inf reaches the integrator; each
    # exits 2 naming the input and its value, before anything is dumped
    if config is not None:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(config)
        flags = flags + ["--config", str(cfg)]
    dump = tmp_path / "d.csv"
    res = runner.invoke(main, ["solve", "--n", "13", "--p", str(pc13 + 0.5), "--out", str(dump)]
                        + flags)
    assert res.exit_code == 2, res.output
    assert name in res.stderr and value in res.stderr
    assert not dump.exists()


@pytest.mark.parametrize("alpha", ["1e-3", "1e300"])
def test_solve_rejects_a_height_off_the_lattice(runner, pc13, tmp_path, alpha):
    # kappa = alpha^(1/m) puts kappa r_max below the lattice start (1e-3) or
    # overflows (1e300): exit 2 naming alpha and kappa, before any dump
    dump = tmp_path / "d.csv"
    res = runner.invoke(main, ["solve", "--n", "13", "--p", str(pc13 + 0.5), "--alpha", alpha,
                               "--out", str(dump)])
    assert res.exit_code == 2, res.output
    assert f"alpha={float(alpha)!r}" in res.stderr and "kappa" in res.stderr
    assert not dump.exists()


def test_solve_rejects_a_height_whose_v0_scale_overflows(runner, pc13, tmp_path):
    # kappa = alpha^(1/m) is finite at alpha = 1e40, but kappa^(m+2), which
    # scales v0, overflows: exit 2 naming it, before any shot or dump (it
    # printed an OverflowError traceback and exited 1)
    dump = tmp_path / "d.csv"
    res = runner.invoke(main, ["solve", "--n", "13", "--p", str(pc13 + 0.5), "--alpha", "1e40",
                               "--out", str(dump)])
    assert res.exit_code == 2, res.output
    assert "alpha=1e+40" in res.stderr and "kappa^(m+2) = inf" in res.stderr
    assert "Traceback" not in res.output and not dump.exists()


def test_critical_reports_a_ladder_mismatch_and_exits_1(runner, monkeypatch):
    def mismatch(n):
        raise LadderMismatch(f"N = 3 computed, 4 by the formula at n = {n}")

    monkeypatch.setattr(biharm.cli, "compute_ladder", mismatch)
    res = runner.invoke(main, ["critical", "--n", "20"])
    assert res.exit_code == 1, res.output
    assert json.loads(res.stdout) == {
        "n": 20, "ladder_mismatch": "N = 3 computed, 4 by the formula at n = 20"}


def test_verify_names_a_failed_suite_and_exits_1(runner, monkeypatch):
    suites = (("holds", lambda: (True, "fine")), ("breaks", lambda: (False, "off by one")))
    monkeypatch.setitem(SCOPES, "algebra", suites)
    res = runner.invoke(main, ["verify", "--scope", "algebra"])
    assert res.exit_code == 1, res.output
    assert [entry["passed"] for entry in json.loads(res.stdout)] == [True, False]
    assert "PASS holds" in res.stderr and "FAIL breaks" in res.stderr


def test_sweep_exits_1_when_the_rung_count_is_not_monotone(runner, monkeypatch):
    def row(n):
        return {"n": n, "p_c": 30.0, "N": 20 - n, "rungs": [], "parity_boundary": None}

    monkeypatch.setattr(biharm.cli, "_sweep_row", row)
    res = runner.invoke(main, ["sweep", "--n-min", "13", "--n-max", "14"])
    assert res.exit_code == 1, res.output
    assert [r["N"] for r in json.loads(res.stdout)] == [7, 6]
    assert "rung count is not monotone in n" in res.stderr
