"""Benchmark worker: set-up, the timed loop, output checks, digest and trace.

Started by ``run.py`` in a fresh interpreter whose environment already caps
the BLAS thread pools, so the cap is in place before numpy loads.  The last
line of standard output is one JSON object for ``run.py``.

Modes:

- ``setup``: import cutofflab and generate the workload's inputs, report
  the time that took, and exit;
- ``measure``: the same set-up, then one untimed sweep over the workload's
  ops that checks their outputs, then timed sweeps until ``--seconds`` have
  passed (and at least ``Workload.min_sweeps``).  With ``--trace 1`` one
  timed sweep runs untraced and the rest traced, which gives both the
  per-layer numbers and the tracing overhead.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import gzip  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

HARD_STOP_S = 120.0   # no sweep starts past this point of the loop


def _args(argv=None):
    p = argparse.ArgumentParser()
    p.add_argument("mode", choices=("setup", "measure"))
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true")
    p.add_argument("--out", required=True)
    return p.parse_args(argv)


def quantile(values, q: float) -> float:
    """Linear-interpolation quantile, q in [0, 1]."""
    xs = sorted(values)
    if len(xs) == 1:
        return xs[0]
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def run_sweep(wl, check: bool, digest_fh, tracer, problems: list, hashes: list):
    """One pass over every op; returns per-op (wall, cpu, failed, checks) rows.

    The check sweep (``check``) judges outputs, writes the digest and keeps
    each output's hash; other sweeps must reproduce those hashes.
    """
    import workloads

    ledger = workloads.LEDGER.get(wl.name, {})
    rows = []
    for i, op in enumerate(wl.ops):
        if tracer is not None:
            tracer.op_id = i
        exc = None
        res = None
        # Collect the previous op's garbage and the checks' garbage now, so
        # that it is not collected inside this op's timing.
        gc.collect()
        w0, c0 = time.perf_counter(), time.process_time()
        try:
            res = op.call()
        except Exception as e:  # an op that raises is a failed op
            exc = e
        w1, c1 = time.perf_counter(), time.process_time()
        outcome = op.finish(res, exc, check)
        fh = op.fast_hash(res) if exc is None else repr(exc).encode()
        if check:
            hashes.append(fh)
            digest_fh.write(f"# op {op.label}\n# outcome {outcome.failure or 'ok'}\n")
            for line in outcome.digest:
                digest_fh.write(line + "\n")
            problems.extend(outcome.problems)
            want = ledger.get(op.label)
            if outcome.failure is not None and outcome.failure != want:
                problems.append(f"{op.label}: unexpected failure {outcome.failure!r}"
                                + (f" (ledger says {want!r})" if want else "")
                                + (f": {exc}" if exc is not None else ""))
            if outcome.failure is None and want is not None:
                print(f"note: ledgered op now passes: {op.label}", file=sys.stderr)
        elif hashes[i] != fh:
            problems.append(f"{op.label}: output differs from the check sweep")
        if tracer is not None:
            tracer.counts["cli.stdout_bytes"] += outcome.stdout_bytes
            tracer.counts["cli.exit_nonzero"] += outcome.exit_code != 0
        rows.append((w1 - w0, c1 - c0, outcome.failure is not None, outcome.checks))
        del res, outcome
    return rows


def environment(seed: int) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # numpy < 1.25 has no dict mode
        blas_name = "unknown"
    return {
        "seed": seed,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "git_commit": os.environ.get("CUTBENCH_COMMIT") or None,
    }


def main(argv=None) -> int:
    args = _args(argv)
    out_dir = Path(args.out)
    work = out_dir / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        import workloads

        wl = workloads.build(args.workload, args.seed, str(work), tiny=args.tiny)
        setup_s = time.perf_counter() - _T0
        if args.mode == "setup":
            print(json.dumps({"setup_s": setup_s}))
            return 0
        return measure(args, wl, setup_s, out_dir)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def measure(args, wl, setup_s: float, out_dir: Path) -> int:
    from tracer import Tracer, layer_metrics

    problems: list[str] = []
    hashes: list[bytes] = []
    digest_path = out_dir / "digest.txt.gz"
    with gzip.open(digest_path, "wt", compresslevel=1) as digest_fh:
        check_rows = run_sweep(wl, True, digest_fh, None, problems, hashes)

    sweeps, traced_sweeps = [], []
    tracer = None
    need = 1 if args.trace else wl.min_sweeps
    loop_start = time.perf_counter()
    while True:
        if args.trace and sweeps and tracer is None:
            tracer = Tracer()
            tracer.install()
        t0 = time.perf_counter()
        before = tracer.snapshot() if tracer else None
        rows = run_sweep(wl, False, None, tracer, problems, hashes)
        if tracer:
            traced_sweeps.append((rows, Tracer.delta(before, tracer.snapshot())))
        else:
            sweeps.append(rows)
        elapsed = time.perf_counter() - loop_start
        per_sweep = time.perf_counter() - t0
        enough = len(sweeps) >= need and (not args.trace or len(traced_sweeps) >= 2)
        if enough and elapsed + per_sweep > args.seconds:
            break
        if elapsed + per_sweep > HARD_STOP_S:
            break
    if tracer:
        tracer.uninstall()

    all_rows = check_rows + [r for s in sweeps for r in s] \
        + [r for s, _ in traced_sweeps for r in s]
    attempted = len(all_rows)
    failed = sum(1 for r in all_rows if r[2])
    result = {"attempted": attempted, "failed": failed, "problems": problems,
              "sweeps": len(sweeps), "traced_sweeps": len(traced_sweeps),
              "ops_per_sweep": len(wl.ops), "setup_s": setup_s,
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
              "environment": environment(args.seed)}
    with gzip.open(digest_path, "rb") as fh:
        result["digest_sha256"] = hashlib.sha256(fh.read()).hexdigest()

    def sweep_stats(rows):
        wall = sum(r[0] for r in rows)
        return wall, sum(r[1] for r in rows), sum(r[3] for r in rows)

    result["wall_s"] = statistics.median(sweep_stats(s)[0] for s in sweeps)
    result["cpu_s"] = statistics.median(sweep_stats(s)[1] for s in sweeps)
    result["checks_per_s"] = statistics.median(sweep_stats(s)[2] / sweep_stats(s)[0]
                                               for s in sweeps)
    lat = [r[0] * 1e3 for s in sweeps for r in s]
    result["op_p50_ms"] = quantile(lat, 0.5)
    result["op_tail_ms"] = quantile(lat, wl.percentile / 100.0)
    result["op_tail_percentile"] = wl.percentile
    result["op_count"] = len(lat)
    result["op_ms"] = {op.label: statistics.median(s[i][0] * 1e3 for s in sweeps)
                       for i, op in enumerate(wl.ops)}
    result["op_tail_beyond"] = sum(1 for x in lat if x > result["op_tail_ms"])

    if traced_sweeps:
        counts = [d for _, d in traced_sweeps]
        ref = counts[0]
        for d in counts[1:]:
            if d["calls"] != ref["calls"] or d["counts"] != ref["counts"]:
                problems.append("per-layer counts differ between traced sweeps")
                break
        med_self = {k: statistics.median(d["self_s"].get(k, 0.0) for d in counts)
                    for k in {k for d in counts for k in d["self_s"]}}
        metrics = layer_metrics(ref["calls"], med_self, ref["counts"])
        traced_wall = statistics.median(sweep_stats(s)[0] for s, _ in traced_sweeps)
        metrics["trace.overhead_s"] = (traced_wall - result["wall_s"], "s")
        result["layers"] = metrics
        result["trace_missing"] = tracer.missing
        result["spans_kept"] = len(tracer.spans)
        result["spans_dropped"] = tracer.dropped_spans
        with gzip.open(out_dir / "spans.jsonl.gz", "wt", compresslevel=1) as fh:
            for span in tracer.spans:
                fh.write(json.dumps(span) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
