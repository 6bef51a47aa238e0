"""Shoot the benchmark cells and print one deterministic JSON record per cell.

    python tools/shoot_cells.py [--src DIR] [--cells A,B,... | --grid]

Cells are the three acceptance cases (A, B, C), the quick structural fixture
(quick, r_max 500) and the four off-paper cells of the coverage benchmark.
--grid shoots the 25-cell coverage grid instead: n in {13, 15, 20, 40, 100}
times p in {p_c, p_c+0.5, 2p_c, 10p_c, 100p_c}, all at r_max 1e4, labelled
like n13_pc+0.5 (about 3 CPU-minutes; any of its labels also works with
--cells).  Each record holds the solve's v0 (repr and float hex), n_bisect,
the end residual rho = target_residual, the SHA-256 of its dump_solution
text (dump_sha256, so a plain diff covers s, r, phi, W, Y and Z), the six
solve invariants with their bounds, and the solve_ivp calls and RHS
evaluations per chart; a solve that raises a typed error records its class
and message instead.  Every record also lists the trials of each root-search
call in order (stage 1, the chord stage when it runs, then one per
refinement stage tried).  Nothing in the output depends on timing, so two
trees can be compared with a plain diff.

--src picks the biharm sources to import (default: this checkout's src/),
so the same script measures any tree.
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
    return ap.parse_args()


def shoot_cell(label: str) -> dict:
    """Shoot one cell, counting solve_ivp calls and nfev per chart and the
    trials of each root-search call."""
    import biharm.shooting as shooting
    from biharm import BiharmError, ProblemParams, compute_ladder
    from biharm.verify import solve_invariants

    n, p_of, r_max = (CELLS | GRID)[label]
    params = ProblemParams(n, p_of(compute_ladder(n)))
    calls, nfev, trials = Counter(), Counter(), []
    plain, plain_bisect = shooting.solve_ivp, shooting._bisect

    def counting(fun, *args, **kwargs):
        result = plain(fun, *args, **kwargs)
        chart = fun.__name__.removeprefix("rhs_")
        calls[chart] += 1
        nfev[chart] += result.nfev
        return result

    def counting_bisect(*args, **kwargs):
        result = plain_bisect(*args, **kwargs)
        # (trials, up, dn); trees before that return the trial count alone
        trials.append(result[0] if isinstance(result, tuple) else result)
        return result

    shooting.solve_ivp, shooting._bisect = counting, counting_bisect
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
            "v0": repr(v0),
            "v0_hex": v0.hex(),
            "n_bisect": sol.n_bisect,
            "rho": repr(float(sol.target_residual)),
        }
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
        shooting.solve_ivp, shooting._bisect = plain, plain_bisect
    rec["params"] = {"n": n, "p": repr(params.p), "r_max": r_max}
    rec["ivp"] = {c: {"calls": calls[c], "nfev": nfev[c]} for c in ("r", "s")}
    rec["trials"] = trials
    return rec


def main() -> None:
    args = _args()
    sys.path.insert(0, str(args.src.resolve()))
    labels = list(GRID) if args.grid else [c for c in args.cells.split(",") if c]
    unknown = sorted(set(labels) - set(CELLS | GRID))
    if unknown:
        raise SystemExit(f"error: unknown cells {unknown}; known: {', '.join(CELLS | GRID)}")
    out = {label: shoot_cell(label) for label in labels}
    print(json.dumps(out, indent=1, sort_keys=True))


if __name__ == "__main__":
    main()
