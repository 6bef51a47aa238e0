"""Shoot the benchmark cells and print one deterministic JSON record per cell.

    python tools/shoot_cells.py [--src DIR] [--cells A,B,... | --grid]
    python tools/shoot_cells.py --diff OLD.json NEW.json

Cells are the three acceptance cases (A, B, C), the quick structural fixture
(quick, r_max 500), the four off-paper cells of the coverage benchmark, and
two short solves, shot and collocated on the horizon floor at r = 500 and
cut at r_max: A_r5 (case A at r_max 5, below r_switch) and B_r11 (case B at
r_max 11).
--grid shoots the 25-cell coverage grid instead: n in {13, 15, 20, 40, 100}
times p in {p_c, p_c+0.5, 2p_c, 10p_c, 100p_c}, all at r_max 1e4, labelled
like n13_pc+0.5 (5-7 s wall and 7-10 CPU-seconds on a 2-core x86-64
host; any of its labels also works with --cells).  The wider rows of the
theory's range, n = 60 and n = 200 at the same five p's and r_max (n60_pc,
..., n200_100pc), are shot only when named in --cells, so --grid stays the
same 25 cells.  Each record holds the
solve's v0 (repr and float hex), n_bisect, the end residual rho =
target_residual, the seam residual at r_switch (seam_residual, on trees
whose solutions carry it), the SHA-256 of its dump_solution text
(dump_sha256, so a plain diff covers s, r, phi, W, Y and Z) and of its W
array's bytes (w_sha256), the six solve invariants with their bounds, under
"expand" the pipeline of `biharm expand` on the solution (regime and k, the
default window, the coefficients and the five expansion invariants with
their bounds, or the typed error it raised), and the solve_ivp calls and RHS
evaluations per chart, the latter also split by the decade of the legs'
rtol (nfev_by_rtol, keyed "1e-12", "1e-08", ..., "1e-04": stage 1's loose
shots apart from the full-tolerance legs), and the legs that ended in a
step failure (step_failures, solve_ivp's status -1) per chart; a solve that
raises a typed error records its class and message instead.
Every record also lists the trials of each _bisect call (stage 1's search;
on a solve that returns they sum to n_bisect) and, under "bvp", the
collocation stage's work: the mesh nodes and scipy's niter of each coarse
round ("coarse": one Newton solve on the start mesh, told apart by max_nodes
equal to its node count) and of each final solve (the other solve_bvp calls;
a solve whose coarse round already meets the tolerance has none). Nothing in
the output depends on timing, so two trees can be compared with a plain
diff.

--src picks the biharm sources to import (default: this checkout's src/),
so the same script measures any tree that has verify.run_expansion (the
expand pipeline it records); records of older trees come from their own
copy of this script.

--diff compares two such outputs (say, of a parent tree and of a change)
and shoots nothing.  Per cell it prints each side's outcome (ok when the
solve returned and all six invariants pass, else the error class or the
failed invariants), RHS evaluations, root-search trials (n_bisect; for a
failed solve, the sum of its recorded trials), whether v0 is bit-identical,
whether W is (by w_sha256) and whether the dumps are (by dump_sha256; "-"
when neither side has the hash), so W equal beside a differing dump means
that Z moved and W did not; then |dv0|/|v0| for each cell whose v0
differs and the largest over the cells with a v0 on both sides, the totals
(RHS evaluations also by rtol, for a side whose records split them; step
failures, "-" for a side whose records do not count them), the ok
counts and the identical dumps out of the cells with a dump on either side.
For each cell with an expand record on either side it prints both sides'
expand outcome (as for the solve, over the expansion invariants; "-"
without a record), then the expand-ok counts.  Records of older trees,
without the newer keys, diff all the same.  It exits 1 when a cell that is
ok in OLD is not ok in NEW, or expand-ok in OLD and not in NEW.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import math
import sys
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

# label -> (n, p as a function of the ladder, r_max)
CELLS = {
    "A": (13, lambda lad: lad.p_c + 0.5, 1e4),
    "B": (15, lambda lad: lad.p_c + 1.0, 1e4),
    "C": (13, lambda lad: lad.p_c, 1e4),
    "quick": (13, lambda lad: lad.p_c + 0.5, 500.0),
    "n20_10pc": (20, lambda lad: 10.0 * lad.p_c, 1e4),
    "n15_p2": (15, lambda lad: lad.rungs[1], 2000.0),
    "n20_pc": (20, lambda lad: lad.p_c, 1e4),
    "n13_10pc": (13, lambda lad: 10.0 * lad.p_c, 1e4),
    "A_r5": (13, lambda lad: lad.p_c + 0.5, 5.0),
    "B_r11": (15, lambda lad: lad.p_c + 1.0, 11.0),
}
GRID_P = {
    "pc": lambda lad: lad.p_c,
    "pc+0.5": lambda lad: lad.p_c + 0.5,
    "2pc": lambda lad: 2.0 * lad.p_c,
    "10pc": lambda lad: 10.0 * lad.p_c,
    "100pc": lambda lad: 100.0 * lad.p_c,
}
GRID = {f"n{n}_{p}": (n, p_of, 1e4) for n in (13, 15, 20, 40, 100) for p, p_of in GRID_P.items()}
WIDE = {f"n{n}_{p}": (n, p_of, 1e4) for n in (60, 200) for p, p_of in GRID_P.items()}
KNOWN = CELLS | GRID | WIDE


def _args():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", type=Path, default=SRC, help="directory holding the biharm package")
    cells = ap.add_mutually_exclusive_group()
    cells.add_argument("--cells", default=",".join(CELLS), help="comma-separated cell labels")
    cells.add_argument("--grid", action="store_true", help="shoot the 25-cell coverage grid")
    cells.add_argument("--diff", nargs=2, type=Path, metavar=("OLD", "NEW"),
                       help="compare two outputs of this script instead of shooting")
    return ap.parse_args()


def shoot_cell(label: str) -> dict:
    """Shoot one cell, counting solve_ivp calls, nfev and step failures per
    chart, the trials of each root-search call and the collocation's nodes
    and niter."""
    import biharm.shooting as shooting
    from biharm import BiharmError, ProblemParams, compute_ladder
    from biharm.expansion import detect_regime
    from biharm.verify import run_expansion, solve_invariants

    n, p_of, r_max = KNOWN[label]
    ladder = compute_ladder(n)
    params = ProblemParams(n, p_of(ladder))
    calls, nfev, failures, trials = Counter(), Counter(), Counter(), []
    by_rtol = {"r": Counter(), "s": Counter()}
    bvp = {"coarse": {"nodes": [], "niter": []}, "nodes": [], "niter": []}
    plain, plain_bisect, plain_bvp = shooting.solve_ivp, shooting._bisect, shooting.solve_bvp

    def counting(fun, *args, **kwargs):
        result = plain(fun, *args, **kwargs)
        chart = fun.__name__.removeprefix("rhs_")
        calls[chart] += 1
        nfev[chart] += result.nfev
        failures[chart] += result.status == -1
        by_rtol[chart][decade(kwargs["rtol"])] += result.nfev
        return result

    def counting_bisect(*args, **kwargs):
        result = plain_bisect(*args, **kwargs)
        trials.append(result[0])  # (trials, up, dn)
        return result

    def counting_bvp(fun, bc, x, *args, **kwargs):
        result = plain_bvp(fun, bc, x, *args, **kwargs)
        into = bvp["coarse"] if kwargs.get("max_nodes") == len(x) else bvp
        into["nodes"].append(int(result.x.size))
        into["niter"].append(int(result.niter))
        return result

    shooting.solve_ivp, shooting._bisect, shooting.solve_bvp = counting, counting_bisect, counting_bvp
    try:
        sol = shooting.shoot(params, 1.0, r_max)
    except BiharmError as exc:
        rec = {"error": type(exc).__name__, "message": str(exc)}
    else:
        v0 = float(sol.v0)
        dump = io.StringIO()
        shooting.dump_solution(sol, dump)
        rec = {
            "dump_sha256": hashlib.sha256(dump.getvalue().encode()).hexdigest(),
            "w_sha256": hashlib.sha256(sol.W.tobytes()).hexdigest(),
            "v0": repr(v0),
            "v0_hex": v0.hex(),
            "n_bisect": sol.n_bisect,
            "rho": repr(float(sol.target_residual)),
        }
        if hasattr(sol, "seam_residual"):
            rec["seam_residual"] = repr(float(sol.seam_residual))
        try:
            rec["checks"] = _checks(solve_invariants(sol))
        except BiharmError as exc:
            rec["checks"] = {"error": type(exc).__name__, "message": str(exc)}
        try:
            fit, _, invariants = run_expansion(sol, detect_regime(params, ladder))
        except BiharmError as exc:
            rec["expand"] = {"error": type(exc).__name__, "message": str(exc)}
        else:
            rec["expand"] = {
                "regime": fit.regime.kind,
                "k": fit.regime.k,
                "window": [repr(float(s)) for s in fit.window],
                "coefficients": {
                    name: {"value": repr(est.value), "stderr": repr(est.stderr),
                           "resolved": est.resolved}
                    for name, est in fit.coefficients.items()
                },
                "checks": _checks(invariants),
            }
    finally:
        shooting.solve_ivp, shooting._bisect, shooting.solve_bvp = plain, plain_bisect, plain_bvp
    rec["params"] = {"n": n, "p": repr(params.p), "r_max": r_max}
    rec["ivp"] = {c: {"calls": calls[c], "nfev": nfev[c], "nfev_by_rtol": dict(by_rtol[c]),
                      "step_failures": failures[c]} for c in ("r", "s")}
    rec["trials"] = trials
    rec["bvp"] = bvp
    return rec


def decade(rtol: float) -> str:
    """The decade of rtol as "1e-08" (10^floor(log10 rtol)): stage 1's trials
    run at a continuum of rtols."""
    return f"{10.0 ** math.floor(math.log10(rtol)):.0e}"


def _checks(invariants) -> dict:
    """{name: {value, bound, passed}} of verify.Invariant records, floats as repr."""
    return {
        inv.name: {
            "value": bool(inv.value) if inv.bound is None else repr(float(inv.value)),
            "bound": inv.bound,
            "passed": bool(inv.passed),
        }
        for inv in invariants
    }


def outcome(rec: dict) -> str:
    """ok, the typed error's class, or the invariants that failed (of a
    solve's record or of its "expand" record)."""
    if "error" in rec:
        return rec["error"]
    if "error" in rec["checks"]:
        return "checks raised " + rec["checks"]["error"]
    failed = sorted(name for name, check in rec["checks"].items() if not check["passed"])
    return "failed " + ",".join(failed) if failed else "ok"


def diff(old: dict, new: dict) -> int:
    """Print the per-cell comparison of two records; returns the exit code."""
    def rhs(rec):
        return sum(c["nfev"] for c in rec["ivp"].values())

    def trials(rec):
        return rec.get("n_bisect", sum(rec["trials"]))

    def same(o, n, key):
        if key not in o and key not in n:
            return "-"
        return "equal" if o.get(key) == n.get(key) else "differs"

    labels = [label for label in old if label in new]
    rows = [("cell", "old", "new", "rhs old", "rhs new", "trials", "v0", "W", "dump")]
    lost = []
    for label in labels:
        o, n = old[label], new[label]
        rows.append((label, outcome(o), outcome(n), str(rhs(o)), str(rhs(n)),
                     f"{trials(o)} -> {trials(n)}", same(o, n, "v0_hex"), same(o, n, "w_sha256"),
                     same(o, n, "dump_sha256")))
        if outcome(o) == "ok" and outcome(n) != "ok":
            lost.append(label)
    widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
    for row in rows:
        print("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())
    for side, rec in (("old", old), ("new", new)):
        only = sorted(set(rec) - set(labels))
        if only:
            print(f"only in {side}: {', '.join(only)}")
    moves = {}  # label -> |dv0|/|v0|, over the cells with a v0 on both sides
    for label in labels:
        if "v0_hex" in old[label] and "v0_hex" in new[label]:
            a, b = (float.fromhex(rec[label]["v0_hex"]) for rec in (old, new))
            moves[label] = abs(b - a) / abs(a)
            if a != b:
                print(f"|dv0|/|v0| {label} {moves[label]:.2g}")
    if moves:
        print(f"max |dv0|/|v0|: {max(moves.values()):.2g} over {len(moves)} cells")
    rhs_old = sum(rhs(old[label]) for label in labels)
    rhs_new = sum(rhs(new[label]) for label in labels)
    print(f"RHS evaluations: {rhs_old} -> {rhs_new} ({rhs_new / rhs_old - 1.0:+.1%})")
    for side, rec in (("old", old), ("new", new)):
        split = Counter()
        for label in labels:
            for chart in rec[label]["ivp"].values():
                split.update(chart.get("nfev_by_rtol", {}))
        if split:
            rtols = sorted(split, key=float)
            print(f"RHS evaluations by rtol ({side}): "
                  + ", ".join(f"{rtol} {split[rtol]}" for rtol in rtols))
    failed = []  # each side's total, "-" when its records do not count them
    for rec in (old, new):
        charts = [chart for label in labels for chart in rec[label]["ivp"].values()]
        counted = any("step_failures" in chart for chart in charts)
        failed.append(sum(chart.get("step_failures", 0) for chart in charts) if counted else "-")
    print(f"step failures: {failed[0]} -> {failed[1]}")
    print(f"trials: {sum(trials(old[label]) for label in labels)} -> "
          f"{sum(trials(new[label]) for label in labels)}")
    ok_old = sum(outcome(old[label]) == "ok" for label in labels)
    ok_new = sum(outcome(new[label]) == "ok" for label in labels)
    print(f"ok: {ok_old} -> {ok_new} of {len(labels)}")
    dumps = [same(old[label], new[label], "dump_sha256") for label in labels]
    print(f"identical dumps: {dumps.count('equal')} of {len(dumps) - dumps.count('-')}")
    expand = {}  # label -> (old, new) expand outcome, "-" for a side without a record
    for label in labels:
        sides = tuple(outcome(rec[label]["expand"]) if "expand" in rec[label] else "-"
                      for rec in (old, new))
        if sides != ("-", "-"):
            expand[label] = sides
            print(f"expand {label}: {sides[0]} -> {sides[1]}")
    if expand:
        ok_old, ok_new = (sum(sides[i] == "ok" for sides in expand.values()) for i in (0, 1))
        print(f"expand ok: {ok_old} -> {ok_new} of {len(expand)}")
    lost_expand = [label for label, (o, n) in expand.items() if o == "ok" != n]
    if lost:
        print(f"ok cells lost: {', '.join(lost)}")
    if lost_expand:
        print(f"expand ok cells lost: {', '.join(lost_expand)}")
    return 1 if lost or lost_expand else 0


def main() -> None:
    args = _args()
    if args.diff:
        old, new = (json.loads(path.read_text()) for path in args.diff)
        raise SystemExit(diff(old, new))
    sys.path.insert(0, str(args.src.resolve()))
    labels = list(GRID) if args.grid else [c for c in args.cells.split(",") if c]
    unknown = sorted(set(labels) - set(KNOWN))
    if unknown:
        raise SystemExit(f"error: unknown cells {unknown}; known: {', '.join(KNOWN)}")
    out = {label: shoot_cell(label) for label in labels}
    print(json.dumps(out, indent=1, sort_keys=True))


if __name__ == "__main__":
    main()
