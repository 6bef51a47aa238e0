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
like n13_pc+0.5 (about 15 CPU-seconds; any of its labels also works with
--cells).  Each record holds the solve's v0 (repr and float hex), n_bisect,
the end residual rho = target_residual, the seam residual at r_switch
(seam_residual, on trees whose solutions carry it), the SHA-256 of its
dump_solution text (dump_sha256, so a plain diff covers s, r, phi, W, Y and
Z) and of its W array's bytes (w_sha256), the six solve invariants with
their bounds, and the solve_ivp calls and RHS evaluations per chart; a solve
that raises a typed error records its class and message instead.  Every
record also lists the trials of each _bisect call (stage 1's search; on a
solve that returns they sum to n_bisect) and, under "bvp", the collocation
stage's work: the mesh nodes and scipy's niter of each coarse round
("coarse": one Newton solve on the start mesh, told apart by max_nodes equal
to its node count) and of each final solve (the other solve_bvp calls; a
solve whose coarse round already meets the tolerance has none).
Nothing in the output depends on timing, so two trees can be compared with
a plain diff.

--src picks the biharm sources to import (default: this checkout's src/),
so the same script measures any tree whose shooter has the collocation
stage; records of older trees come from their own copy of this script.

--diff compares two such outputs (say, of a parent tree and of a change)
and shoots nothing.  Per cell it prints each side's outcome (ok when the
solve returned and all six invariants pass, else the error class or the
failed invariants), RHS evaluations, root-search trials (n_bisect; for a
failed solve, the sum of its recorded trials), whether v0 is bit-identical,
whether W is (by w_sha256) and whether the dumps are (by dump_sha256; "-"
when neither side has the hash), so W equal beside a differing dump means
that Z moved and W did not; then the totals, the ok counts and the
identical dumps out of the cells with a dump on either side.  It exits 1 when a cell that is ok in OLD is
not ok in NEW.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
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
    """Shoot one cell, counting solve_ivp calls and nfev per chart, the
    trials of each root-search call and the collocation's nodes and niter."""
    import biharm.shooting as shooting
    from biharm import BiharmError, ProblemParams, compute_ladder
    from biharm.verify import solve_invariants

    n, p_of, r_max = (CELLS | GRID)[label]
    params = ProblemParams(n, p_of(compute_ladder(n)))
    calls, nfev, trials = Counter(), Counter(), []
    bvp = {"coarse": {"nodes": [], "niter": []}, "nodes": [], "niter": []}
    plain, plain_bisect, plain_bvp = shooting.solve_ivp, shooting._bisect, shooting.solve_bvp

    def counting(fun, *args, **kwargs):
        result = plain(fun, *args, **kwargs)
        chart = fun.__name__.removeprefix("rhs_")
        calls[chart] += 1
        nfev[chart] += result.nfev
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
            rec["checks"] = {
                inv.name: {
                    "value": bool(inv.value) if inv.bound is None else repr(float(inv.value)),
                    "bound": inv.bound,
                    "passed": bool(inv.passed),
                }
                for inv in solve_invariants(sol)
            }
        except BiharmError as exc:
            rec["checks"] = {"error": type(exc).__name__, "message": str(exc)}
    finally:
        shooting.solve_ivp, shooting._bisect, shooting.solve_bvp = plain, plain_bisect, plain_bvp
    rec["params"] = {"n": n, "p": repr(params.p), "r_max": r_max}
    rec["ivp"] = {c: {"calls": calls[c], "nfev": nfev[c]} for c in ("r", "s")}
    rec["trials"] = trials
    rec["bvp"] = bvp
    return rec


def outcome(rec: dict) -> str:
    """ok, the typed error's class, or the invariants that failed."""
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
    rhs_old = sum(rhs(old[label]) for label in labels)
    rhs_new = sum(rhs(new[label]) for label in labels)
    print(f"RHS evaluations: {rhs_old} -> {rhs_new} ({rhs_new / rhs_old - 1.0:+.1%})")
    print(f"trials: {sum(trials(old[label]) for label in labels)} -> "
          f"{sum(trials(new[label]) for label in labels)}")
    ok_old = sum(outcome(old[label]) == "ok" for label in labels)
    ok_new = sum(outcome(new[label]) == "ok" for label in labels)
    print(f"ok: {ok_old} -> {ok_new} of {len(labels)}")
    dumps = [same(old[label], new[label], "dump_sha256") for label in labels]
    print(f"identical dumps: {dumps.count('equal')} of {len(dumps) - dumps.count('-')}")
    if lost:
        print(f"ok cells lost: {', '.join(lost)}")
        return 1
    return 0


def main() -> None:
    args = _args()
    if args.diff:
        old, new = (json.loads(path.read_text()) for path in args.diff)
        raise SystemExit(diff(old, new))
    sys.path.insert(0, str(args.src.resolve()))
    labels = list(GRID) if args.grid else [c for c in args.cells.split(",") if c]
    unknown = sorted(set(labels) - set(CELLS | GRID))
    if unknown:
        raise SystemExit(f"error: unknown cells {unknown}; known: {', '.join(CELLS | GRID)}")
    out = {label: shoot_cell(label) for label in labels}
    print(json.dumps(out, indent=1, sort_keys=True))


if __name__ == "__main__":
    main()
