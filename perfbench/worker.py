"""Run one pass of one workload in this fresh process; write what happened as JSON.

``run.py`` starts this script once per pass; it is not meant to be run by
hand.  A pass is a closed loop with one client: the next
``sweep_cli.main(argv)`` call starts only after the previous one returned.
Only those calls are timed.  Between calls, at least every
``calibrate.EVERY_S`` seconds, the host's speed is sampled with
``calibrate.sample``; ``cal_before[i]`` is the index of the last sample taken
before call ``i``, and one more sample follows the last call.  Reading the
outputs back, the layer arithmetic and writing the record happen after the
pass, outside the timed loop.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path

import calibrate
import tracing
import workloads


def _calls(workload: str, seed: int, out_dir: Path) -> tuple[list, int]:
    """argv lists of one pass and the number of operations they make."""
    if workload == "figures":
        return workloads.figure_calls(out_dir), workloads.FIGURE_ROWS
    if workload == "check":
        calls = workloads.check_calls(seed)
        return calls, len(calls) * workloads.CHECK_CONFIGS
    queries = workloads.point_queries(seed)
    return [q.argv(out_dir / f"q{i}.csv") for i, q in enumerate(queries)], len(queries)


def run_pass(sweep_cli, workload: str, seed: int, out_dir: Path, tracer=None) -> dict:
    """Make every call of one pass, writing CLI outputs into ``out_dir``; return its record.

    A point_queries pass may reuse the ``out_dir`` of an earlier pass.
    """
    out_dir.mkdir(parents=True, exist_ok=workload == "point_queries")
    calls, ops = _calls(workload, seed, out_dir)
    if workload == "point_queries":
        # Creating a file took 0.4 ms to several ms on the host this
        # benchmark was written on, four to tens of times more than writing
        # over one, and drifted over minutes, which swamped the query's own
        # ~2 ms.  So each query writes over an empty file, made by the first
        # pass of a run and emptied here by later ones, outside the timed loop.
        for i in range(len(calls)):
            open(out_dir / f"q{i}.csv", "w").close()
    latencies, codes, stdouts = [], [], []
    cal_s, cal_before = [calibrate.sample()], []
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        start = last_cal = time.perf_counter()
        for i, argv in enumerate(calls):
            if time.perf_counter() - last_cal >= calibrate.EVERY_S:
                cal_s.append(calibrate.sample())
                last_cal = time.perf_counter()
            cal_before.append(len(cal_s) - 1)
            if tracer is not None:
                tracer.op = i
            t0 = time.perf_counter()
            try:
                code = sweep_cli.main(argv)
            except SystemExit as exc:  # argparse refused the argv
                code = exc.code
            except Exception:  # a crash is a failed operation; keep measuring
                traceback.print_exc()
                code = -1
            latencies.append(time.perf_counter() - t0)
            codes.append(code)
            stdouts.append(buf.getvalue())
            buf.seek(0)
            buf.truncate()
        wall = time.perf_counter() - start
    cal_s.append(calibrate.sample())
    record = {"wall_s": wall, "ops": ops, "latencies_s": latencies, "codes": codes,
              "cal_s": cal_s, "cal_before": cal_before,
              "stdout": stdouts, "out_dir": str(out_dir),
              "bytes": sum(p.stat().st_size for p in out_dir.iterdir())}
    if workload == "point_queries":
        # Keep each one-row CSV's data line.
        rows = []
        for i in range(len(calls)):
            lines = (out_dir / f"q{i}.csv").read_text().splitlines()
            rows.append(lines[1] if len(lines) > 1 else None)
        record["rows"] = rows
    if tracer is not None:
        record["layers"] = tracing.pass_layer_metrics(
            tracer.spans, ops, {k: len(v) for k, v in tracer.distinct.items()}, tracer.levels)
    return record


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--root", type=Path, required=True)
    ap.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out-dir", type=Path, required=True)
    ap.add_argument("--record", type=Path, required=True)
    ap.add_argument("--spans", type=Path, help="where a traced pass writes its spans")
    args = ap.parse_args(argv)

    src = (args.root / "src").resolve()
    sys.path.insert(0, str(src))
    from modvalsim import sweep_cli
    if not Path(sweep_cli.__file__).resolve().is_relative_to(src):
        print(f"modvalsim was imported from {sweep_cli.__file__}, not from {src}", file=sys.stderr)
        return 2

    tracer = tracing.Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
    try:
        record = run_pass(sweep_cli, args.workload, args.seed, args.out_dir, tracer)
    finally:
        if tracer is not None:
            tracer.restore()
    record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if tracer is not None and args.spans is not None:
        args.spans.parent.mkdir(parents=True, exist_ok=True)
        with open(args.spans, "w") as handle:
            json.dump({"fields": ["span_id", "name", "start_ns", "end_ns", "parent_id", "op"],
                       "spans": tracer.spans}, handle, separators=(",", ":"))
    with open(args.record, "w") as handle:
        json.dump(record, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
