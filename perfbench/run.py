"""Benchmark of the modvalsim command line, timed per call and per layer from outside.

Run from the root of a checkout:

    python3 perfbench/run.py --workload figures|check|point_queries \\
        --seed N --seconds S --trace 0|1

The program is driven only through ``modvalsim.sweep_cli.main(argv)``.  A
run replays one pass of calls, each replay in a fresh worker process
(``worker.py``) that imports ``modvalsim`` from the checkout's ``src``, until
``--seconds`` of passes are done.  Each pass is a closed loop with one client
and one thread; BLAS and OpenMP pools are capped at one thread.  CLI outputs
go to a temporary directory under ``.perfbench/tmp`` that is removed
afterwards.

Timings are scaled to a reference host speed (``calibrate.py``): the
2-vCPU VM this benchmark was written on switches between a fast and a slow
state up to 1.8x apart for seconds to minutes at a time, so raw wall times
of whole 36 s runs moved by 20-40% from run to run.  Each call's latency is
divided by the slowness of a fixed kernel sampled just before and after it,
and every call takes its median scaled latency over the run's replays.

``--trace 0`` reports the end-to-end metrics: set-up time of a fresh
interpreter, operations per second of a pass, per-call latency (median and a
tail percentile), and the workers' peak resident memory.  ``--trace 1``
spends the middle half of ``--seconds`` with every layer function wrapped
(``tracing.py``) and the quarters around it untraced, and reports per-layer
calls and self times plus the tracing overhead.  Spans go to
``.perfbench/spans``.

Every pass is checked (``checks.py``); the last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import calibrate
import checks
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Fresh interpreter: import the CLI module and build its parser through main,
#: then sample the host's speed with the calibration kernel.
SETUP_SNIPPET = """\
import contextlib, io, sys, time
t0 = time.perf_counter()
import modvalsim.sweep_cli
with contextlib.redirect_stdout(io.StringIO()):
    try:
        modvalsim.sweep_cli.main(["--help"])
    except SystemExit:
        pass
elapsed = time.perf_counter() - t0
sys.path.insert(0, sys.argv[1])
import calibrate
print(elapsed, calibrate.slowness(calibrate.sample(reps=3), "setup"))
"""

#: Tail percentile of the per-call latency.  A point_queries pass has 960
#: calls; p95 keeps 48 beyond it and moved half as much from run to run as
#: p99.  A figures pass has nine calls and a check pass twenty, too few for
#: any percentile to keep ten beyond it; their tails are fixed percentiles of
#: those calls.
TAIL_PERCENTILE = {"figures": 75, "check": 90, "point_queries": 95}

WORKER_TIMEOUT_S = 170

LAYER_UNITS = {"calls": "count", "self_ms": "ms", "calls_per_op": "1/op",
               "us_per_level": "us/level", "distinct_ratio": "ratio", "bytes": "B"}


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def setup_sample(cwd: Path) -> float:
    """Seconds a fresh interpreter needs to import the CLI and build its parser.

    Scaled to the reference host speed like the call latencies, with the
    calibration kernel sampled in the same interpreter right after.
    """
    out = subprocess.run([sys.executable, "-c", SETUP_SNIPPET, str(HERE)], env=child_env(),
                         cwd=cwd, capture_output=True, text=True, timeout=60, check=True)
    elapsed, slowness = map(float, out.stdout.split()[-2:])
    return elapsed / slowness


def run_phase(workload: str, seed: int, budget: float, trace: bool, tmp: Path, tag: str,
              setup: list | None = None) -> list[dict]:
    """Records of passes, one fresh worker each, that fit in ``budget`` seconds.

    The first pass always runs; another starts only if the mean pass still
    fits.  With ``setup`` given, one set-up sample is taken before each pass,
    so the samples spread over the run like the passes.
    """
    passes: list[dict] = []
    measured = 0.0
    while not passes or measured * (1 + 1 / len(passes)) <= budget:
        if setup is not None:
            setup.append(setup_sample(tmp))
        name = f"{tag}{len(passes)}"
        record = tmp / f"{name}.json"
        # The passes of point_queries share their output files (see worker.py).
        out_dir = tmp / ("queries" if workload == "point_queries" else name)
        cmd = [sys.executable, str(HERE / "worker.py"), "--root", str(ROOT),
               "--workload", workload, "--seed", str(seed), "--trace", str(int(trace)),
               "--out-dir", str(out_dir), "--record", str(record)]
        if trace:
            cmd += ["--spans", str(ROOT / ".perfbench" / "spans" / f"{workload}-seed{seed}-{name}.json")]
        subprocess.run(cmd, env=child_env(), cwd=tmp, timeout=WORKER_TIMEOUT_S, check=True)
        passes.append(json.loads(record.read_text()))
        measured += passes[-1]["wall_s"]
    return passes


def verify(workload: str, seed: int, passes: list[dict]) -> tuple[int, int, list[str]]:
    """(attempted, failed, notes) over every pass of one phase."""
    attempted = sum(p["ops"] for p in passes)
    failed, notes = 0, []
    if workload == "figures":
        reference = checks.load_reference()
        first: dict = {}
        for p in passes:
            bad, messages = checks.check_figure_pass(Path(p["out_dir"]), reference, first)
            failed += bad
            notes += messages
    elif workload == "check":
        worst = 0.0
        for p in passes:
            for code, stdout in zip(p["codes"], p["stdout"]):
                ok, deviation = checks.check_call_output(code, stdout)
                worst = max(worst, deviation) if math.isfinite(deviation) else worst
                if not ok:
                    failed += workloads.CHECK_CONFIGS
                    notes.append(f"check call failed: exit {code}: {stdout.strip()!r}")
        notes.append(f"check: max amplitude deviation over the run {worst:.3e} "
                     f"(tolerance {checks.CHECK_TOL:.0e})")
    else:
        queries = workloads.point_queries(seed)
        sampled = 0
        for k, p in enumerate(passes):
            for query, code, row, first_row in zip(queries, p["codes"], p["rows"], passes[0]["rows"]):
                value = checks.row_value(row)
                # Every replay must write the bytes of the first one.
                ok = code == 0 and math.isfinite(value) and row == first_row
                if (ok and k == 0 and sampled < checks.ORACLE_SAMPLE
                        and query.param("dim") <= checks.ORACLE_MAX_DIM):
                    sampled += 1
                    ok = checks.oracle_agrees(query, value)
                if not ok:
                    failed += 1
                    notes.append(f"query failed: exit {code}, value {value!r}: {query.argv(Path('-'))}")
        if sampled < checks.ORACLE_SAMPLE:
            failed += checks.ORACLE_SAMPLE - sampled
            notes.append(f"only {sampled} of {checks.ORACLE_SAMPLE} oracle samples were taken")
        else:
            notes.append(f"oracle route agreed on {sampled} sampled queries with dim <= "
                         f"{checks.ORACLE_MAX_DIM} (tolerance {checks.ORACLE_TOL:.0e})")
    return attempted, failed, notes


def scaled_latencies(record: dict, workload: str) -> list[float]:
    """Latencies of one pass at the reference host speed.

    Each call's latency is divided by the mean slowness of the kernel samples
    taken just before and just after it.
    """
    slow = [calibrate.slowness(parts, workload) for parts in record["cal_s"]]
    return [t * 2 / (slow[k] + slow[k + 1])
            for t, k in zip(record["latencies_s"], record["cal_before"])]


def call_latencies(workload: str, passes: list[dict]) -> list[float]:
    """Each call's median scaled latency over the replays of the pass."""
    scaled = (scaled_latencies(p, workload) for p in passes)
    return [statistics.median(times) for times in zip(*scaled)]


def ops_per_s(workload: str, passes: list[dict]) -> float:
    """Operations of one pass over the pass's time with every call at its median."""
    return passes[0]["ops"] / sum(call_latencies(workload, passes))


def end_to_end(workload: str, passes: list[dict], setup: list[float]) -> tuple[dict, list[str]]:
    latencies = sorted(call_latencies(workload, passes))
    pct = TAIL_PERCENTILE[workload]
    tail = statistics.quantiles(latencies, n=100)[pct - 1]
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "ops_per_s": (ops_per_s(workload, passes), "1/s"),
        "query_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
        "query_tail_ms": (tail * 1e3, "ms"),
        "peak_rss_mb": (max(p["peak_rss_mb"] for p in passes), "MB"),
    }
    slow = [calibrate.slowness(parts, workload) for p in passes for parts in p["cal_s"]]
    notes = [f"{len(passes)} replays of a pass of {len(latencies)} calls; query_tail_ms is p{pct} "
             f"of the calls' median latencies ({sum(t > tail for t in latencies)} calls beyond it)",
             f"host slowness over the run (reference 1): median {statistics.median(slow):.3f}, "
             f"range {min(slow):.3f} to {max(slow):.3f}",
             f"setup_s is the median of {len(setup)} fresh interpreters"]
    return metrics, notes


def per_layer(workload: str, traced: list[dict], untraced: list[dict]) -> tuple[dict, list[str]]:
    per_pass = [dict(p["layers"], **{"sweep_cli.write_csv.bytes": p["bytes"]}) for p in traced]
    metrics = {key: (value, LAYER_UNITS[key.rsplit(".", 1)[1]])
               for key, value in tracing.combine_passes(per_pass).items()}
    metrics["trace_overhead_frac"] = (
        1.0 - ops_per_s(workload, traced) / ops_per_s(workload, untraced), "frac")
    notes = [f"counts from the first traced pass, times are medians of {len(traced)} traced "
             f"passes; trace_overhead_frac against {len(untraced)} untraced passes"]
    return metrics, notes


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="modvalsim benchmark")
    ap.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "modvalsim" / "sweep_cli.py").is_file():
        print(f"error: no modvalsim sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    tmp = ROOT / ".perfbench" / "tmp" / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    tmp.mkdir(parents=True)
    try:
        setup_sample(tmp)  # the first start compiles the bytecode cache
        if args.trace:
            # Untraced quarters before and after the traced half, so that a
            # drift in the host's speed does not read as tracing overhead.
            before = run_phase(args.workload, args.seed, args.seconds / 4, False, tmp, "plain")
            traced = run_phase(args.workload, args.seed, args.seconds / 2, True, tmp, "traced")
            after = run_phase(args.workload, args.seed, args.seconds / 4, False, tmp, "after")
            metrics, notes = per_layer(args.workload, traced, before + after)
            phases = (before, traced, after)
        else:
            setup: list[float] = []
            passes = run_phase(args.workload, args.seed, args.seconds, False, tmp, "plain", setup)
            metrics, notes = end_to_end(args.workload, passes, setup)
            phases = (passes,)
        attempted = failed = 0
        for passes in phases:
            a, f, check_notes = verify(args.workload, args.seed, passes)
            attempted, failed = attempted + a, failed + f
            notes += check_notes
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    for note in notes:
        print(note)
    print(f"failed_frac = {failed / attempted:.6g} ({failed} of {attempted} operations)")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
