"""biharm benchmark: times the package's public functions from outside.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads (see BENCHMARK.json for why each was chosen):
  paper_solves     shoot the three acceptance cases, each followed by the
                   checks of acceptance criteria 6-9
  coverage_solves  shoot four off-paper cells and record each outcome
  analysis         ladder, spectrum, verify and expansion work on a solution
                   solved once in set-up; no shooting in the timed section

Set-up is a cold start (import biharm.cli, warm every layer), made three
times (twice in fresh child interpreters, once in this process), then the
workload's fixture, built once; setup_s is the median cold start plus the
fixture, both scaled like the timed passes.  Timed passes of the workload
then repeat until --seconds have passed (at least one pass).  The seed
draws the order of the cases in each pass and the analysis samples.

Every pass repeats the same steps (a solve with its checks, a ladder, a
spectrum draw, an analysis round), each timed on its own.  On a shared host
the speed of the whole machine drifts by a quarter or more over tens of
seconds, so every end-to-end time is scaled to a fixed reference speed of
the host, measured by probes while the step ran (see speed.py).  wall_s and
cpu_s are one pass's steps summed, each step at its median over the run's
passes; solve_s.p50 is the median over a pass's solves (analysis: rounds)
of each one's median.  Outputs are checked; a wrong one stops the run with
exit code 1 and no result line.

--trace 0 prints the end-to-end metrics.  --trace 1 alternates untraced and
traced passes for twice --seconds and prints the per-layer metrics, averaged
per traced pass, with the tracing overhead: the median traced pass minus the
median untraced pass.  Span times are raw (host.probe_ms gives the host's
speed during the run); cli.import_s and trace.overhead_s are scaled like
the end-to-end times they feed.  The last line of stdout is the result as
JSON; a record of the run (environment, samples, outcomes, and the spans of
a traced run) goes to .perfbench_out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import prepare
import speed
from speed import Meter

COLD_START_CHILDREN = 2
OUT_DIR = prepare.ROOT / ".perfbench_out"


def _args():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=prepare.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args()


def _child_cold_start() -> dict:
    proc = subprocess.run(
        [sys.executable, str(Path(prepare.__file__))],
        capture_output=True, text=True, timeout=150, cwd=prepare.ROOT,
    )
    if proc.returncode != 0:
        raise SystemExit(f"error: cold start failed in a child process:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _passes(run_pass, layer_sets, fx, rng, meter, seconds: float) -> list[list]:
    """Rounds of one timed pass per layer set, until `seconds` have passed
    (at least one round); a traced run alternates untraced and traced passes
    so that both see the same machine."""
    records = [[] for _ in layer_sets]
    start = time.perf_counter()
    while not records[0] or time.perf_counter() - start < seconds:
        for recs, layers in zip(records, layer_sets):
            with layers.active():
                recs.append(run_pass(layers, fx, rng, meter))
    return records


def _environment(blas_env: dict) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "blas_env": blas_env,
        "platform": platform.platform(),
    }


def _end_to_end(meter, setup_s: float, records) -> dict:
    def median_scaled(field, key, i):
        return statistics.median(meter.scaled(getattr(r, field)[key])[i] for r in records)

    steps = records[0].steps
    attempted = sum(r.attempted for r in records)
    failed = sum(r.failed for r in records)
    return {
        "setup_s": (setup_s, "s"),
        "wall_s": (sum(median_scaled("steps", k, 0) for k in steps), "s"),
        "cpu_s": (sum(median_scaled("steps", k, 1) for k in steps), "s"),
        "solve_s.p50": (statistics.median(
            median_scaled("solves", k, 0) for k in records[0].solves
        ), "s"),
        "ok_frac": ((attempted - failed) / attempted, "ratio"),
    }


def _per_layer(meter, colds, untraced, traced, summary, case_names) -> dict:
    k = len(traced)
    spans, ivp = summary["spans"], summary["ivp"]

    def span(name, key):
        return spans.get(name, {}).get(key, 0) / k

    def count(key):
        return sum(r.counts[key] for r in traced) / k

    outcomes = [o for r in traced for o in r.outcomes]
    fails = {"NoConvergence": 0, "StepFailure": 0, "check": 0, "other": 0}
    for _, label, _ in outcomes:
        if label == "ok":
            continue
        kind = "check" if label.startswith("check:") else label
        fails[kind if kind in fails else "other"] += 1
    m = {
        "shooting.shoot.s": (span("shooting.shoot", "s"), "s"),
        "shooting.shoot.self_s": (span("shooting.shoot", "self_s"), "s"),
        "shooting.shoot.calls": (span("shooting.shoot", "calls"), "count"),
        "shooting.bisect_steps": (count("bisect_steps"), "count"),
    }
    for case in case_names:
        secs = [dt for label, _, dt in outcomes if label == case]
        m[f"shooting.shoot.s.{case}"] = (sum(secs) / k, "s")
    for chart in ("r", "s"):
        m[f"shooting.ivp.calls.{chart}"] = (ivp.get(chart, {}).get("calls", 0) / k, "count")
        m[f"shooting.ivp.nfev.{chart}"] = (ivp.get(chart, {}).get("nfev", 0) / k, "count")
    m["shooting.ivp.s"] = (span("shooting.ivp", "s"), "s")
    for kind, n in fails.items():
        m[f"shooting.fail.{kind}"] = (n / k, "count")
    m["shooting.fail.s"] = (sum(dt for _, label, dt in outcomes if label != "ok") / k, "s")
    m["shooting.checks.s"] = (span("shooting.checks", "s"), "s")
    m["shooting.dump.s"] = (span("shooting.dump", "s"), "s")
    m["shooting.dump.bytes"] = (count("dump_bytes"), "bytes")
    for fn in ("fit_expansion", "window_shift_stability", "representation_check",
               "detect_regime"):
        m[f"expansion.{fn}.s"] = (span(f"expansion.{fn}", "s"), "s")
        m[f"expansion.{fn}.calls"] = (span(f"expansion.{fn}", "calls"), "count")
    m["spectrum.compute_spectrum.s"] = (span("spectrum.compute_spectrum", "s"), "s")
    m["spectrum.compute_spectrum.calls"] = (span("spectrum.compute_spectrum", "calls"), "count")
    for fn in ("compute_pc", "compute_ladder", "parity_boundary_check"):
        m[f"ladder.{fn}.s"] = (span(f"ladder.{fn}", "s"), "s")
    m["ladder.rungs"] = (count("rungs"), "count")
    m["verify.run_checks.s"] = (span("verify.run_checks", "s"), "s")
    m["verify.checks_failed"] = (count("checks_failed"), "count")
    m["cli.import_s"] = (statistics.median(c["import_s"] for c in colds), "s")
    untraced_wall = statistics.median(meter.scaled(r.total)[0] for r in untraced)
    traced_wall = statistics.median(meter.scaled(r.total)[0] for r in traced)
    m["trace.overhead_s"] = (traced_wall - untraced_wall, "s")
    m["host.probe_ms"] = (1e3 * statistics.median(meter.durations), "ms")
    m["trace.passes"] = (len(traced), "count")
    m["wall_s.samples"] = (len(untraced), "count")
    m["solve_s.samples"] = (sum(len(r.solves) for r in untraced), "count")
    m["setup_s.samples"] = (len(colds), "count")
    return m


def main() -> int:
    args = _args()
    blas_env = prepare.pin_single_thread_env()
    prepare.use_repo_sources()
    OUT_DIR.mkdir(exist_ok=True)

    rng = random.Random(args.seed)
    env = _environment(blas_env)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    print(f"perfbench {tag} seconds={args.seconds:g}")
    print("env " + " ".join(f"{k}={v}" for k, v in env.items()))

    with Meter(speed.python_probe) as cold_meter:
        colds = [_child_cold_start() for _ in range(COLD_START_CHILDREN)]
        bh, own = prepare.cold_start(cold_meter)
        cold_meter.fill()
    colds.append(prepare.seconds(cold_meter, own))

    import checks  # these import biharm, so only after its cold start
    import workloads
    from tracing import Tracer

    run_pass = workloads.PASSES[args.workload]
    tracer = Tracer()
    layer_sets = [workloads.Layers()] + ([workloads.Layers(tracer)] if args.trace else [])
    with Meter(speed.array_probe) as meter:
        start = meter.mark()
        fx = prepare.build_fixture(bh, args.workload, args.seed)
        fixture = meter.since(start)
        try:
            untraced, *traced = _passes(
                run_pass, layer_sets, fx, rng, meter, args.seconds * len(layer_sets)
            )
        except checks.WrongOutput as exc:
            print(f"error: wrong output: {exc}", file=sys.stderr)
            return 1
    traced = traced[0] if traced else []
    fixture_s = meter.scaled(fixture)[0]
    setup_s = statistics.median(c["cold_s"] for c in colds) + fixture_s

    records = traced or untraced
    if args.trace:
        metrics = _per_layer(meter, colds, untraced, traced, tracer.summary(),
                             list(prepare.PAPER_CASES) + list(prepare.COVERAGE_SEED_OUTCOMES))
        tracer.write(OUT_DIR / f"spans-{tag}.json")
    else:
        metrics = _end_to_end(meter, setup_s, untraced)

    print(f"set-up: {setup_s:.3f} s, of which fixture {fixture_s:.3f} s")
    print(f"samples: {len(colds)} cold starts, {len(untraced)} untraced passes, "
          f"{sum(len(r.solves) for r in untraced)} solves, {len(traced)} traced passes, "
          f"{len(meter.durations)} speed probes")
    print(f"host speed: probe median {1e3 * statistics.median(meter.durations):.3f} ms, "
          f"nominal {1e3 * speed.NOMINAL_S[meter.probe]:.3f} ms")
    for case, label, dt in records[0].outcomes:
        was = prepare.COVERAGE_SEED_OUTCOMES.get(case, "ok")
        note = "" if label == was else f"  (changed: {was} when the benchmark was defined)"
        print(f"outcome {case}: {label} in {dt:.3f} s{note}")
    for name, (value, unit) in metrics.items():
        print(f"metric {name} = {value!r} {unit}")

    attempted = sum(r.attempted for r in records)
    failed = sum(r.failed for r in records)
    result = {
        "correct": True,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record = {
        "args": vars(args),
        "env": env,
        "cold_starts": colds,
        "setup_s": setup_s,
        "fixture_s": fixture_s,
        "passes": [
            {"traced": i >= len(untraced), "raw_wall_s": r.total.wall,
             "wall_s": meter.scaled(r.total)[0], "cpu_s": meter.scaled(r.total)[1],
             "solves_s": {str(k): meter.scaled(v)[0] for k, v in r.solves.items()},
             "outcomes": r.outcomes, "counts": dict(r.counts)}
            for i, r in enumerate(untraced + traced)
        ],
        "probes": {"mid": meter.mids, "s": meter.durations},
        "result": result,
    }
    with open(OUT_DIR / f"result-{tag}.json", "w") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
