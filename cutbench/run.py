"""cutofflab benchmark: seeded workloads, end-to-end metrics, per-layer traces.

Run from the root of a checkout:

    python3 cutbench/run.py --workload identity-allsets --seed 1 --seconds 40 --trace 0

It measures the library in ``src/`` of the same checkout.  Each run starts
fresh interpreters with the BLAS thread pools capped before numpy loads:
``SETUP_PROBES`` that only time set-up (import plus input generation), and
one worker that sets up, checks every op's output in one untimed sweep over
the workload's ops, then times whole sweeps for ``--seconds``.  With ``--trace 1`` the
worker also traces the calls between cutofflab's modules and the run
reports per-layer metrics instead of end-to-end ones.

Standard output ends with one JSON line: ``correct``, ``attempted``,
``failed`` and ``metrics``.  The lines before it name every metric with its
unit.  Each run also writes ``cutbench/out/<workload>/seed-<n>[-trace]/``:
``result.json`` (metrics, environment, problems), ``digest.txt.gz`` (every
op's records rounded to 9 significant digits, for diffing two commits) and,
when traced, ``spans.jsonl.gz``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("identity-allsets", "search-grid", "family-scale", "cli-roundtrip")
SETUP_PROBES = 3
BLAS_THREADS = 1
DEADLINE_S = 170.0

END_TO_END = (
    ("setup_s", "s"), ("wall_s", "s"), ("cpu_s", "s"), ("checks_per_s", "1/s"),
    ("op_p50_ms", "ms"), ("op_tail_ms", "ms"), ("peak_rss_mb", "MB"),
)


def _args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--tiny", action="store_true",
                   help="tiny inputs, for the smoke test")
    return p.parse_args(argv)


def _commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        res = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return res.stdout.strip() or None


def _worker_env(commit: str | None) -> dict:
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = str(min(BLAS_THREADS, os.cpu_count() or 1))
    env["PYTHONHASHSEED"] = "0"
    env["CUTBENCH_COMMIT"] = commit or ""
    return env


def _worker(mode: str, args, out_dir: Path, env: dict, deadline: float) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), mode, "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--out", str(out_dir)]
    if args.tiny:
        cmd.append("--tiny")
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise TimeoutError("out of time before starting a worker")
    res = subprocess.run(cmd, env=env, cwd=str(ROOT), stdout=subprocess.PIPE,
                         text=True, timeout=timeout)
    if res.returncode != 0:
        raise RuntimeError(f"{mode} worker exited with {res.returncode}")
    return json.loads(res.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    deadline = time.monotonic() + DEADLINE_S
    args = _args(argv)
    if not (ROOT / "src" / "cutofflab" / "__init__.py").is_file():
        print(f"cutbench: no cutofflab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    out_dir = HERE / "out" / args.workload / f"seed-{args.seed}{'-trace' if args.trace else ''}"
    out_dir.mkdir(parents=True, exist_ok=True)
    env = _worker_env(_commit())
    try:
        res = _worker("measure", args, out_dir, env, deadline)
        setups = [res["setup_s"]]
        for _ in range(SETUP_PROBES):
            setups.append(_worker("setup", args, out_dir, env, deadline)["setup_s"])
    except (RuntimeError, TimeoutError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"cutbench: {exc}", file=sys.stderr)
        return 1
    res["setup_s"] = statistics.median(setups)
    res["setup_samples"] = setups

    if args.trace:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in sorted(res["layers"].items())}
    else:
        metrics = {k: {"value": res[k], "unit": u} for k, u in END_TO_END}
    correct = not res["problems"]
    (out_dir / "result.json").write_text(json.dumps(res, indent=1, sort_keys=True))

    env_rec = res["environment"]
    print(f"cutbench {args.workload} seed={args.seed} trace={args.trace} "
          f"commit={env_rec['git_commit']} python={env_rec['python']} "
          f"numpy={env_rec['numpy']} scipy={env_rec['scipy']} blas={env_rec['blas']} "
          f"threads={env_rec['blas_threads']} nproc={env_rec['nproc']}")
    print(f"  1 check sweep + {res['sweeps']} timed + {res['traced_sweeps']} traced, "
          f"{res['ops_per_sweep']} ops/sweep, attempted={res['attempted']} "
          f"failed={res['failed']} failed_frac={res['failed'] / res['attempted']:.4f} "
          f"digest={res['digest_sha256'][:16]}")
    if not args.trace:
        print(f"  op_tail_ms is p{res['op_tail_percentile']:g} over {res['op_count']} ops "
              f"({res['op_tail_beyond']} beyond)")
    for name, m in metrics.items():
        print(f"  {name:44s} {m['value']:>14.6g} {m['unit']}")
    if not args.trace:
        print(f"  {'failed_frac':44s} {res['failed'] / res['attempted']:>14.6g} ratio"
              "  (failed / attempted ops; not a bounded metric)")
    for line in res["problems"][:20]:
        print(f"  PROBLEM {line}")
    print(json.dumps({"correct": correct, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
