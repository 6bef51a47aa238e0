"""Command-line front end: spectrum | critical | solve | expand | verify | sweep.

Outputs are deterministic: payloads go to stdout (or --out), diagnostics and
timings to stderr.  Exit codes: 0 success, 1 failed verification or
computation, 2 invalid input.  Flag values override --config file entries,
which override built-in defaults.

The commands that solve (solve, expand, verify) import the solving layers
when they run, so spectrum, critical and sweep load no scipy module.  A
solve loads scipy's top-level package and one extension,
scipy.linalg._flapack, for the collocation's banded LU; not the scipy.linalg
package, whose import costs about 0.3 s through scipy's array-API shim.
"""

from __future__ import annotations

import json
import sys
from contextlib import contextmanager

import click

from .errors import (
    BiharmError,
    DomainError,
    InvalidParams,
    LadderMismatch,
    NoPcValue,
    SubcriticalInput,
)
from .ladder import compute_ladder, ladder_length_formula, parity_boundary_check
from .params import ProblemParams
from .spectrum import compute_spectrum

_INPUT_ERRORS = (InvalidParams, SubcriticalInput, DomainError)

# verify.SCOPES's names, written out so --scope does not import the solver
# (tests/test_cli.py checks that the two agree)
_SCOPES = ("algebra", "shooting", "default", "full")

DEFAULTS = {"alpha": 1.0, "r_max": 1e4}


def _fmt(x) -> str:
    return f"{x:.17g}"


def _resolve(config, key, flag):
    """Flag > config file > default."""
    if flag is not None:
        return flag
    if config and key in config:
        return config[key]
    return DEFAULTS[key]


def _config_error(message):
    click.echo(f"error: {message}", err=True)
    sys.exit(2)


def _load_config(path):
    """The --config file's entries: a JSON object mapping keys of DEFAULTS to
    numbers.  Anything else exits 2, naming the file and the cause."""
    if path is None:
        return {}
    with open(path) as fh:
        try:
            config = json.load(fh)
        except ValueError as exc:
            _config_error(f"config file {path} is not JSON: {exc}")
    if not isinstance(config, dict):
        _config_error(f"config file {path} is not a JSON object")
    unknown = sorted(set(config) - set(DEFAULTS))
    if unknown:
        _config_error(f"unknown config keys {', '.join(unknown)} in {path}; "
                      f"known: {', '.join(DEFAULTS)}")
    for key, value in config.items():
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            _config_error(f"config key {key} in {path} is not a number: {json.dumps(value)}")
    return config


def _emit(payload: str, out):
    if out:
        with open(out, "w") as fh:
            fh.write(payload)
        click.echo(f"wrote {out}", err=True)
    else:
        click.echo(payload, nl=False)


def _as_json(obj) -> str:
    return json.dumps(obj, indent=2) + "\n"


def _kv_rows(obj: dict, prefix: str = ""):
    """(key, value) rows; a nested dict gives one row per entry, as
    parent.key, and None an empty value, as in sweep's rows."""
    for k, v in obj.items():
        if isinstance(v, dict):
            yield from _kv_rows(v, f"{prefix}{k}.")
            continue
        if v is None:
            v = ""
        elif isinstance(v, float):
            v = _fmt(v)
        elif isinstance(v, (list, tuple)):
            v = ";".join(_fmt(x) if isinstance(x, float) else str(x) for x in v)
        yield f"{prefix}{k}", v


def _csv(header, rows) -> str:
    """The header, then one comma-joined line per row."""
    return "".join(",".join(map(str, row)) + "\n" for row in (header, *rows))


def _report(obj: dict, fmt: str, out):
    _emit(_as_json(obj) if fmt == "json" else _csv(("key", "value"), _kv_rows(obj)), out)


@contextmanager
def _exit_on_error(report=None):
    """End the command on a typed error: exit 2 on invalid input, else 1,
    after writing report(error) to stdout as JSON when report is given."""
    try:
        yield
    except _INPUT_ERRORS as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(2)
    except BiharmError as exc:
        if report is not None:
            click.echo(_as_json(report(exc)), nl=False)
        click.echo(f"error: {exc}", err=True)
        sys.exit(1)


def _exit_if_failed(invariants):
    """Name each failed invariant with its value and bound on stderr; exit 1."""
    failed = [str(r) for r in invariants if not r.passed]
    if failed:
        click.echo("invariants FAILED: " + ", ".join(failed), err=True)
        sys.exit(1)


format_option = click.option(
    "--format", "fmt", type=click.Choice(["json", "csv"]), default="json",
    show_default=True, help="payload format",
)
out_option = click.option("--out", type=click.Path(writable=True), default=None,
                          help="write payload to this file instead of stdout")
config_option = click.option("--config", type=click.Path(exists=True, dir_okay=False),
                             default=None, help="JSON file with default option values")


@click.group()
@click.version_option(version="0.1.0", prog_name="biharm")
def main():
    """Numerics for positive radial solutions of the fourth-order equation
    Delta^2 phi = phi^p at and above the critical exponent."""


@main.command()
@click.option("--n", type=int, required=True, help="space dimension (n >= 13 for finite p_c)")
@click.option("--p", type=float, required=True, help="supercritical exponent")
@format_option
@out_option
def spectrum(n, p, fmt, out):
    """Eigenvalues of the linearized operator at (n, p)."""
    with _exit_on_error():
        s = compute_spectrum(ProblemParams(n, p))
    payload = {
        "n": n,
        "p": p,
        "lambda_star": s.lambda_star,
        "lambda_1": s.lambdas[0],
        "lambda_2": s.lambdas[1],
        "lambda_3": s.lambdas[2],
        "lambda_4": s.lambdas[3],
        "L": s.L,
        "degenerate": s.degenerate,
    }
    _report(payload, fmt, out)


@main.command()
@click.option("--n", type=int, required=True)
@format_option
@out_option
def critical(n, fmt, out):
    """Critical exponent, rung ladder, and closed-form count for dimension n."""
    with _exit_on_error():
        try:
            lad = compute_ladder(n)
        except NoPcValue:
            payload = {
                "n": n,
                "p_c": None,
                "note": "p_c is infinite for n <= 12; the ladder is empty",
            }
            _report(payload, fmt, out)
            return
        except LadderMismatch as exc:
            _report({"n": n, "ladder_mismatch": str(exc)}, fmt, out)
            sys.exit(1)
    payload = {
        "n": n,
        "p_c": lad.p_c,
        "rungs": list(lad.rungs),
        "N_computed": lad.N,
        "N_formula": ladder_length_formula(n),
        "tail_limits": list(lad.tail_limits),
    }
    if n % 2 == 1:
        pb = parity_boundary_check(n)
        payload["parity_boundary"] = {
            "k": pb.k,
            "quartic_value": pb.quartic_value,
            "factored_value": pb.factored_value,
            "positive": pb.positive,
        }
    _report(payload, fmt, out)


@main.command()
@click.option("--n", type=int, required=True)
@click.option("--p", type=float, required=True)
@click.option("--alpha", type=float, default=None, help="initial height phi(0)")
@click.option("--r-max", type=float, default=None, help="outer radius of the solve")
@click.option("--out", type=click.Path(writable=True), default="solution_dump.csv",
              show_default=True, help="solution dump path")
@config_option
def solve(n, p, alpha, r_max, out, config):
    """Shoot for the entire positive solution, dump it (s, r, phi, W, Y, Z)
    and check its invariants.  The JSON report goes to stdout, that of a
    failed solve too."""
    from .shooting import dump_solution, shoot
    from .verify import error_payload, solve_invariants, solve_payload

    cfg = _load_config(config)
    alpha = _resolve(cfg, "alpha", alpha)
    r_max = _resolve(cfg, "r_max", r_max)
    with _exit_on_error(error_payload):
        sol = shoot(ProblemParams(n, p), alpha=alpha, r_max=r_max)
    with open(out, "w") as fh:
        dump_solution(sol, fh)
    click.echo(f"wrote {out} ({sol.s_grid.size} rows)", err=True)
    with _exit_on_error(lambda exc: solve_payload(sol, r_max, exc)):
        invariants = solve_invariants(sol)
    click.echo(_as_json(solve_payload(sol, r_max, invariants)), nl=False)
    _exit_if_failed(invariants)


@main.command()
@click.option("--n", type=int, required=True)
@click.option("--p", type=float, required=True)
@click.option("--alpha", type=float, default=None)
@click.option("--r-max", type=float, default=None)
@click.option("--window", type=float, nargs=2, default=None,
              help="fit window (s_lo, s_hi); auto-selected when omitted")
@format_option
@out_option
@config_option
def expand(n, p, alpha, r_max, window, fmt, out, config):
    """Fit the asymptotic expansion of the solved profile and check it.  A
    typed failure writes its error payload as JSON to stdout, with the
    solve's record once the solve has returned."""
    from .expansion import check_window, detect_regime
    from .shooting import shoot
    from .verify import error_payload, fit_payload, record_payload, run_expansion, solve_invariants

    cfg = _load_config(config)
    alpha = _resolve(cfg, "alpha", alpha)
    r_max = _resolve(cfg, "r_max", r_max)
    window = window or None
    sol = None

    def failure(exc):
        payload = error_payload(exc)
        if sol is not None:
            payload["record"] = record_payload(sol.record)
        return payload

    with _exit_on_error(failure):
        if window is not None:
            check_window(window)
        params = ProblemParams(n, p)
        compute_spectrum(params)  # rejects a subcritical input as solve does, before the ladder
        ladder = compute_ladder(n)
        regime = detect_regime(params, ladder)
        sol = shoot(params, alpha=alpha, r_max=r_max)
        fit, drift, fit_invariants = run_expansion(sol, regime, window)
        invariants = solve_invariants(sol) + fit_invariants

    payload = fit_payload(sol, fit, drift, invariants)
    if fmt == "csv":
        rows = [(name, _fmt(est["value"]), _fmt(est["stderr"]), est["resolved"])
                for name, est in payload["coefficients"].items()]
        _emit(_csv(("coefficient", "value", "stderr", "resolved"), rows), out)
    else:
        _report(payload, "json", out)
    _exit_if_failed(invariants)


@main.command()
@click.option("--scope", type=click.Choice(_SCOPES), default="default",
              show_default=True)
@format_option
@out_option
def verify(scope, fmt, out):
    """Run the module verification suites; nonzero exit on any failure."""
    from .verify import run_checks

    results = run_checks(scope)
    for r in results:
        click.echo(f"{r.name}: {r.seconds:.2f}s", err=True)
    if fmt == "json":
        payload = _as_json([
            {"name": r.name, "passed": r.passed, "detail": r.detail} for r in results
        ])
    else:
        payload = _csv(("name", "passed", "detail"),
                       [(r.name, r.passed, r.detail.replace(",", ";")) for r in results])
    _emit(payload, out)
    for r in results:
        click.echo(f"{'PASS' if r.passed else 'FAIL'} {r.name}", err=True)
    if not all(r.passed for r in results):
        sys.exit(1)


def _sweep_row(n: int) -> dict:
    lad = compute_ladder(n)
    parity = None
    if n % 2 == 1:
        parity = parity_boundary_check(n).factored_value
    return {
        "n": n,
        "p_c": lad.p_c,
        "N": lad.N,
        "rungs": list(lad.rungs),
        "parity_boundary": parity,
    }


@main.command()
@click.option("--n-min", type=int, default=13, show_default=True)
@click.option("--n-max", type=int, default=60, show_default=True)
@format_option
@out_option
def sweep(n_min, n_max, fmt, out):
    """Tabulate p_c, rungs, N, and the parity boundary over a dimension range."""
    if not (13 <= n_min <= n_max <= 200):
        click.echo("error: need 13 <= n-min <= n-max <= 200", err=True)
        sys.exit(2)
    rows = [_sweep_row(n) for n in range(n_min, n_max + 1)]

    n_col = max((len(r["rungs"]) for r in rows), default=0)
    if fmt == "json":
        payload = _as_json(rows)
    else:
        header = ["n", "p_c", "N", "parity_boundary"] + [f"p_{k}" for k in range(1, n_col + 1)]
        payload = _csv(header, [
            [r["n"], _fmt(r["p_c"]), r["N"],
             _fmt(r["parity_boundary"]) if r["parity_boundary"] is not None else ""]
            + [_fmt(x) for x in r["rungs"]] + [""] * (n_col - len(r["rungs"]))
            for r in rows
        ])
    _emit(payload, out)

    counts = [r["N"] for r in rows]
    if any(b < a for a, b in zip(counts, counts[1:])):
        click.echo("rung count is not monotone in n; structural bug", err=True)
        sys.exit(1)


if __name__ == "__main__":
    main()
