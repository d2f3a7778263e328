"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload serve-ingest --seed 1 --seconds 20 --trace 0

Run from the repository root. It prints one line per correctness check,
then every end-to-end metric (``--trace 0``) or every per-layer metric
(``--trace 1``, see ``WORKLOADS.md``) as ``name value unit``, then a
provenance line, and as its last line one JSON object: ``{"correct",
"attempted", "failed", "metrics"}``.
The full result (provenance, checks, details) and, for a traced run, its
spans are written under ``.perfbench-out/``. The exit code is 0 only when
every correctness check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("crowd-loop", "serve-ingest", "serve-read-heavy")


def git_sha() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
            env=env,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def provenance(args, workloads_module) -> dict:
    import numpy

    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": git_sha(),
        "fsync": workloads_module.FSYNC,
        "switch_interval_s": sys.getswitchinterval(),
        "offered": workloads_module.offered(args.workload),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "workload": args.workload,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import workloads

    out_dir = ROOT / ".perfbench-out"
    workdir = out_dir / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        result = workloads.run(args.workload, args.seed, args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    correct = all(result.checks.values()) and result.failed == 0
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    env = provenance(args, workloads)
    artifact = {
        "env": env,
        "correct": correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "checks": result.checks,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result.metrics.items()},
        "details": result.details,
    }
    (out_dir / f"{stem}.json").write_text(json.dumps(artifact, indent=2, default=str) + "\n")
    if result.tracer is not None:
        result.tracer.write_jsonl(out_dir / f"{stem}.spans.jsonl")

    for name, ok in result.checks.items():
        print(f"check {name} {'ok' if ok else 'FAILED'}")
    for name, (value, unit) in result.metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print("env " + json.dumps(env))
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": result.attempted,
                "failed": result.failed,
                "metrics": artifact["metrics"],
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
