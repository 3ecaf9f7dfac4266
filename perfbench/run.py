#!/usr/bin/env python3
"""bjlab benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload paper-small --seed 1 --seconds 20 --trace 0

Run from the repository root.  The program under test is `src/bjlab`,
imported from source.  The work runs in its own fresh interpreter
(perfbench/worker.py) as a single-process closed loop: the next chunk of
rows starts when the previous one has returned.  Set-up is timed in two
other interpreters, before and after it.  BJLAB_THREADS is removed
from the workers' environment, so the default serial path is measured, and
so is PYTHONDONTWRITEBYTECODE, so set-up uses the bytecode cache.

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer metrics
of a traced replay.  The last line of stdout is the result object; the line
before it records the machine and workload facts behind the numbers.
The exit code is 1 when a row fails the correctness gate, 2 when the
benchmark cannot run at all.
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
# Set-up samples, each forked from a set-up worker and scaled by the import
# references beside it (worker.setup), about 80 ms a sample.  Half are taken
# before and half after the work process, so that one slow spell of a
# shared host does not decide the median.
SETUP_SAMPLES = 40
DEADLINE_S = 170.0


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _worker(args: list[str], env: dict, timeout: float) -> dict:
    proc = subprocess.run([sys.executable, str(HERE / "worker.py"), *args],
                          cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                          timeout=max(timeout, 1.0))
    if proc.returncode != 0:
        raise RuntimeError(f"worker {args[0]} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _machine() -> dict:
    """Read-only facts about the host: CPU, caches and interpreter."""
    info = {"nproc": len(os.sched_getaffinity(0))}
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                info["cpu_model"] = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind in ("Unified", "Data"):
            info[f"l{level}_cache"] = size
    return info


def _bytes(size: str | None) -> int | None:
    if not size:
        return None
    units = {"K": 1024, "M": 1024**2, "G": 1024**3}
    return int(size[:-1]) * units[size[-1]] if size[-1] in units else int(size)


def _median(values: list[float]) -> float | None:
    return statistics.median(values) if values else None


def main(argv=None) -> int:
    spec = _spec()
    workloads = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=workloads)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "bjlab" / "__init__.py").is_file():
        print(f"perfbench: no bjlab sources under {ROOT / 'src'}; "
              "run from a checkout of the repository", file=sys.stderr)
        return 2
    started = time.monotonic()
    # Workers run bjlab's default serial path and use the bytecode cache, as
    # an installed package would.
    env = {k: v for k, v in os.environ.items()
           if k not in ("BJLAB_THREADS", "PYTHONDONTWRITEBYTECODE")}
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    common = ["--workload", args.workload, "--seed", str(args.seed)]

    def remaining() -> float:
        return DEADLINE_S - (time.monotonic() - started)

    setups = {"setup_s": [], "raw_setup_s": [], "import_s": []}

    def time_setups(count: int) -> None:
        if not args.trace:
            got = _worker(["setup", *common, "--samples", str(count)], env, remaining())
            for key, values in setups.items():
                values += got[key]

    try:
        time_setups(SETUP_SAMPLES // 2)
        work = _worker(["work", *common, "--seconds", str(args.seconds),
                        "--trace", str(args.trace)], env, remaining())
        time_setups(SETUP_SAMPLES - SETUP_SAMPLES // 2)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    for problem in work["problems"]:
        print(f"perfbench: {problem}", file=sys.stderr)
    correct = not work["problems"] and work["failed"] == 0
    attempted = work["attempted"]
    machine = _machine()
    l2 = _bytes(machine.get("l2_cache"))
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "machine": {**machine, "python": work["python"], "numpy": work["numpy"],
                    "BJLAB_THREADS_caller": os.environ.get("BJLAB_THREADS"),
                    "BJLAB_THREADS_worker": work["bjlab_threads"]},
        "operand_bytes": work["operand_bytes"],
        "operand_over_l2": work["operand_bytes"] / l2 if l2 else None,
        "chunks": work["chunks"],
        "wall_trials_per_s": work["wall_trials_per_s"],
        "reference_ms": work["reference_ms"],
        "fail_frac": work["failed"] / attempted,
        "boundary_frac": work["boundary"] / attempted,
        "csv_sha256_chunk0": work["csv_sha256_chunk0"],
        "setup_samples": len(setups["setup_s"]),
        "raw_setup_s": _median(setups["raw_setup_s"]),
        "import_reference_s": _median(setups["import_s"]),
        "untraced_functions": work.get("missing_functions", []),
    }
    if args.trace:
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in work.get("layers", {}).items()}
    else:
        metrics = {
            "trials_per_s": {"value": work["trials_per_s"], "unit": "1/s"},
            "setup_s": {"value": statistics.median(setups["setup_s"]), "unit": "s"},
            "peak_rss_mb": {"value": work["peak_rss_mib"], "unit": "MiB"},
            "conclusive_frac": {"value": 1.0 - work["boundary"] / attempted,
                                "unit": "frac"},
        }
    print(json.dumps({"info": info}))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": work["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
