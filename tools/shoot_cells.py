"""Shoot the benchmark cells and print one deterministic JSON record per cell.

    python tools/shoot_cells.py [--src DIR] [--cells A,B,... | --grid]
    python tools/shoot_cells.py --diff OLD.json NEW.json

Cells are the three acceptance cases (A, B, C), the quick structural fixture
(quick, r_max 500), the four off-paper cells of the coverage benchmark, and
two short solves, shot and collocated on the horizon floor at r = 500 and
cut at r_max: A_r5 (case A at r_max 5, below r_switch) and B_r11 (case B at
r_max 11), and one height other than phi(0) = 1: A_a10 (case A at
phi(0) = 10).  A cell may name its height alpha; it is 1 otherwise, and
a solve's record stores it as alpha.
--grid shoots the 25-cell coverage grid instead: n in {13, 15, 20, 40, 100}
times p in {p_c, p_c+0.5, 2p_c, 10p_c, 100p_c}, all at r_max 1e4, labelled
like n13_pc+0.5 (any of its labels also works with --cells).  The wider
rows of the theory's range, n = 60 and n = 200 at the same five p's and
r_max (n60_pc, ..., n200_100pc), and n = 13 at 1e4 p_c and 1e5 p_c, r_max
1e4 (n13_1e4pc, n13_1e5pc), are shot only when named in --cells, so --grid
stays the same 25 cells.
A cell's record is `biharm solve`'s report of its solve, as biharm.verify
writes it: solve_payload, whose "record" is the solve's SolveRecord, or
error_payload for a solve that raised a typed error.  A solve that returns
adds v0_hex (v0's float hex), the SHA-256 of its dump_solution text
(dump_sha256) and of its W array's bytes (w_sha256), under "confirm" the
radii at which a shot at eps from v0 and from each end of its stage-1
bracket escapes (keys "v0", "up", "dn", at phi(0) = 1; inf at the
classification horizon), and under "expand"
`biharm expand`'s pipeline on it: fit_payload with the five expansion
invariants, or error_payload.  Nothing in the output depends on timing, so
two trees can be compared with a plain diff.

--src picks the biharm sources to import (default: this checkout's src/):
any tree whose biharm.verify has these four writers.

--diff compares two such outputs (say, of a parent tree and of a change)
and shoots nothing.  Per cell it prints each side's outcome (ok when the
solve returned and all six invariants pass, else the error class or the
failed invariants), the work summed over the charts its record holds
(chart "r", each shot's one leg, and chart "v", the tangent's complex-step
leg, both counted in Taylor steps, keyed by the decade of their
tolerance: "1e-16" for eps; records of trees that integrated their shots
with DOP853 count the right-hand side calls of chart "r" there, and print
under the same "RHS evaluations" labels),
stage-1 shots (the r-chart legs: the opening's probes and the trials),
root-search trials, the collocation's last round's nodes and the rounds as
nodes/rounds ("-" without a finished round; marked ":failed" when the solve
failed), and whether v0, W (by w_sha256) and the dumps (by dump_sha256) are
identical.  Then it prints
|dv0|/|v0| per cell whose v0 differs and the largest, one "v0 outside
bracket: <cell> <off/width> (<side>)" line per cell and side whose v0 (at
phi(0) = 1) lies outside its stage-1 bracket, off its distance from the
bracket and width the bracket's width, one "v0 not confirmed: <cell>
(<side>) ..." line per solved cell and side whose v0's eps shot escapes,
and no farther out than both bracket ends' do (a v0 off the separatrix
by more than its bracket; a v0 whose shot reaches the horizon counts as
confirmed), the totals (RHS
evaluations, per chart and by rtol on each side; step failures, with one
"step failures rose" line per cell whose count rose; stage-1 shots;
trials), the count of cells whose nodes/rounds moved, the last rounds'
Newton iterations summed on each side, with one "newton moved" line per
cell whose count moved, then every round's Newton iterations summed on
each side, with one "all-round newton moved" line per cell whose sum
moved, the ok counts, one "error class changed" line per
cell whose solve (or expand) raised a different typed error on each side,
one "invariant moved: <cell> <name> old -> new" line per invariant whose
value differs, the identical dumps, and each cell's expand outcome on both
sides with the expand-ok counts.  It exits 1 when a cell that is ok in
OLD is not ok in NEW, expand-ok in OLD and not in NEW, or ok in NEW with
a v0 that is not confirmed there.
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

# label -> (n, p as a function of the ladder, r_max[, alpha = phi(0), else 1])
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
    "A_a10": (13, lambda lad: lad.p_c + 0.5, 1e4, 10.0),
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
LARGE_P = {f"n13_{k}pc": (13, lambda lad, f=float(k): f * lad.p_c, 1e4) for k in ("1e4", "1e5")}
KNOWN = CELLS | GRID | WIDE | LARGE_P


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
    """Shoot one cell and write its record."""
    from biharm import BiharmError, ProblemParams, compute_ladder
    from biharm.expansion import detect_regime
    from biharm.shooting import dump_solution, shoot
    from biharm.verify import (error_payload, fit_payload, run_expansion, solve_invariants,
                               solve_payload)

    n, p_of, r_max, *height = KNOWN[label]
    ladder = compute_ladder(n)
    params = ProblemParams(n, p_of(ladder))
    try:
        sol = shoot(params, height[0] if height else 1.0, r_max)
    except BiharmError as exc:
        return error_payload(exc)
    try:
        invariants = solve_invariants(sol)
    except BiharmError as exc:
        invariants = exc
    rec = solve_payload(sol, r_max, invariants)
    try:
        fit, drift, invariants = run_expansion(sol, detect_regime(params, ladder))
    except BiharmError as exc:
        rec["expand"] = error_payload(exc)
    else:
        rec["expand"] = fit_payload(sol, fit, drift, invariants)
    dump = io.StringIO()
    dump_solution(sol, dump)
    rec["confirm"] = confirm(sol, r_max)
    rec["v0_hex"] = float(sol.v0).hex()
    rec["dump_sha256"] = hashlib.sha256(dump.getvalue().encode()).hexdigest()
    rec["w_sha256"] = hashlib.sha256(sol.W.tobytes()).hexdigest()
    return rec


def confirm(sol, r_max: float) -> dict:
    """The radii, at phi(0) = 1, at which a shot at eps from the solve's v0
    and from each end of its stage-1 bracket escapes (inf when it reaches
    the classification horizon max(kappa r_max, r_horizon) e^pad): keys
    "v0", "up" and "dn"."""
    from biharm.shooting import _EPS, _R_HORIZON, _S_PAD, BlowUp, SignLoss, _Integrator

    m = sol.params.m
    kappa = sol.alpha ** (1.0 / m)
    integ = _Integrator(sol.params)
    r_cls = max(kappa * r_max, _R_HORIZON) * math.exp(_S_PAD)

    def radius(v):
        out, _ = integ.shot(v, r_cls, _EPS)
        return out.r if isinstance(out, (BlowUp, SignLoss)) else math.inf

    up, dn = sol.record.bracket
    return {"v0": radius(sol.v0 / kappa ** (m + 2.0)), "up": radius(up), "dn": radius(dn)}


def unconfirmed(rec: dict) -> bool:
    """Whether the shots refute a solve's v0: its eps shot escapes, and no
    farther out than both bracket ends' shots do.  A v0 whose shot reaches
    the horizon is confirmed as far as the horizon resolves.  False for a
    record without radii (a failed solve, or a record that predates
    them)."""
    radii = rec.get("confirm")
    return radii is not None and radii["v0"] < math.inf and radii["v0"] <= max(radii["up"], radii["dn"])


def outcome(rec: dict) -> str:
    """ok, the typed error's class, or the invariants that failed (of a
    solve's record or of its "expand" record)."""
    if "error" in rec:
        return rec["error"]
    if "error" in rec["invariants"]:
        return "checks raised " + rec["invariants"]["error"]
    failed = sorted(name for name, check in rec["invariants"].items() if not check["passed"])
    return "failed " + ",".join(failed) if failed else "ok"


def outside_bracket(rec: dict) -> float | None:
    """How far a solve's v0 lies outside its stage-1 bracket, in bracket
    widths, or None when it lies inside or the record holds no v0 or no
    bracket.  v0 is mapped back to phi(0) = 1, the height the bracket is
    at, by kappa^(m+2), kappa = alpha^(1/m), m = 4 / (p - 1)."""
    bracket = rec.get("record", {}).get("bracket")
    if "v0_hex" not in rec or not bracket:
        return None
    m = 4.0 / (rec["p"] - 1.0)
    v0 = float.fromhex(rec["v0_hex"]) / (rec["alpha"] ** (1.0 / m)) ** (m + 2.0)
    up, dn = bracket
    off = max(dn - v0, v0 - up)
    return off / (up - dn) if off > 0.0 else None


def diff(old: dict, new: dict) -> int:
    """Print the per-cell comparison of two records; returns the exit code."""
    def rhs(rec):
        return sum(c["nfev"] for c in rec["record"]["charts"].values())

    def trials(rec):
        return rec["record"]["trials"] or 0

    def shots(rec):
        # stage 1's shots, each with one r-chart leg: the opening's probes
        # and the trials
        return rec["record"]["charts"]["r"]["calls"]

    def failures(rec):
        return sum(chart["step_failures"] for chart in rec["record"]["charts"].values())

    def same(o, n, key):
        if key not in o and key not in n:
            return "-"
        return "equal" if o.get(key) == n.get(key) else "differs"

    def mesh(rec):
        # the last round's nodes / the rounds, marked ":failed" on a failed
        # solve
        rounds = rec["record"]["rounds"]
        if not rounds:
            return "-"
        return f"{rounds[-1]['nodes']}/{len(rounds)}" + (":failed" if "error" in rec else "")

    def newton(rec):
        # the last round's Newton iterations, "-" without a round
        rounds = rec["record"]["rounds"]
        return rounds[-1]["newton"] if rounds else "-"

    def newton_all(rec):
        # every round's Newton iterations, summed; "-" without a round
        rounds = rec["record"]["rounds"]
        return sum(r["newton"] for r in rounds) if rounds else "-"

    labels = [label for label in old if label in new]
    rows = [("cell", "old", "new", "rhs old", "rhs new", "shots", "trials", "mesh", "v0", "W", "dump")]
    lost = []
    for label in labels:
        o, n = old[label], new[label]
        meshes = (mesh(o), mesh(n))
        rows.append((label, outcome(o), outcome(n), str(rhs(o)), str(rhs(n)),
                     f"{shots(o)} -> {shots(n)}", f"{trials(o)} -> {trials(n)}",
                     "-" if meshes == ("-", "-") else " -> ".join(meshes),
                     same(o, n, "v0_hex"), same(o, n, "w_sha256"), same(o, n, "dump_sha256")))
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
    for side, rec in (("old", old), ("new", new)):
        for label in labels:
            off = outside_bracket(rec[label])
            if off is not None:
                print(f"v0 outside bracket: {label} {off:.3g} ({side})")
    unconfirmed_new = []  # ok cells in NEW whose v0 the shots refute
    for side, rec in (("old", old), ("new", new)):
        for label in labels:
            if unconfirmed(rec[label]):
                radii = rec[label]["confirm"]
                print(f"v0 not confirmed: {label} ({side}) escapes at r = {radii['v0']:.6g}, "
                      f"its bracket's ends at {radii['up']:.6g} and {radii['dn']:.6g}")
                if side == "new" and outcome(rec[label]) == "ok":
                    unconfirmed_new.append(label)
    rhs_old = sum(rhs(old[label]) for label in labels)
    rhs_new = sum(rhs(new[label]) for label in labels)
    print(f"RHS evaluations: {rhs_old} -> {rhs_new} ({rhs_new / rhs_old - 1.0:+.1%})")
    for side, rec in (("old", old), ("new", new)):
        per_chart, split = Counter(), Counter()
        for label in labels:
            for chart, c in rec[label]["record"]["charts"].items():
                per_chart[chart] += c["nfev"]
                split.update(c["nfev_by_rtol"])
        print(f"RHS evaluations by chart ({side}): "
              + ", ".join(f"{chart} {per_chart[chart]}" for chart in sorted(per_chart)))
        print(f"RHS evaluations by rtol ({side}): "
              + ", ".join(f"{rtol} {split[rtol]}" for rtol in sorted(split, key=float)))
    print(f"step failures: {sum(failures(old[label]) for label in labels)} -> "
          f"{sum(failures(new[label]) for label in labels)}")
    for label in labels:
        a, b = failures(old[label]), failures(new[label])
        if b > a:
            print(f"step failures rose: {label} {a} -> {b}")
    print(f"stage-1 shots: {sum(shots(old[label]) for label in labels)} -> "
          f"{sum(shots(new[label]) for label in labels)}")
    print(f"trials: {sum(trials(old[label]) for label in labels)} -> "
          f"{sum(trials(new[label]) for label in labels)}")
    both = [label for label in labels if "-" not in (mesh(old[label]), mesh(new[label]))]
    if both:
        moved = sum(mesh(old[label]) != mesh(new[label]) for label in both)
        print(f"collocation meshes moved: {moved} of {len(both)}")
    for count, what, moved in ((newton, "last-round", "newton moved"),
                               (newton_all, "all-round", "all-round newton moved")):
        for side, rec in (("old", old), ("new", new)):
            total = sum(count(rec[label]) for label in labels if count(rec[label]) != "-")
            print(f"{what} Newton iterations ({side}): {total}")
        for label in labels:
            a, b = count(old[label]), count(new[label])
            if a != b:
                print(f"{moved}: {label} {a} -> {b}")
    ok_old = sum(outcome(old[label]) == "ok" for label in labels)
    ok_new = sum(outcome(new[label]) == "ok" for label in labels)
    print(f"ok: {ok_old} -> {ok_new} of {len(labels)}")
    for label in labels:
        o, n = old[label], new[label]
        for what, a, b in (("", o, n), ("expand ", o.get("expand", {}), n.get("expand", {}))):
            if "error" in a and "error" in b and a["error"] != b["error"]:
                print(f"error class changed: {what}{label} {a['error']} -> {b['error']}")
            a, b = a.get("invariants", {}), b.get("invariants", {})
            for name in sorted(set(a) & set(b) - {"error", "message"}):
                if a[name]["value"] != b[name]["value"]:
                    print(f"invariant moved: {label} {name} {a[name]['value']} -> "
                          f"{b[name]['value']}")
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
    return 1 if lost or lost_expand or unconfirmed_new else 0


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
