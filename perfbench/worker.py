"""One benchmark process, started by run.py in a fresh interpreter.

    worker.py setup --workload W --seed N --samples K
        imports NumPy, then forks children one after another.  K of them
        start with bjlab not yet imported and time `import bjlab` plus
        config parsing and validation and operator construction for the
        workload; between them, and before the first and after the last,
        children time an import reference.  Prints {"setup_s": [...], "raw_setup_s": [...],
        "import_s": [...]}.
    worker.py work --workload W --seed N --seconds S --trace 0|1
        runs the workload's chunks through `bjlab.harness.run` in a closed
        loop for S seconds (S/2 with --trace 1, followed by a traced replay
        of the same chunks); prints one JSON object.

Nothing from bjlab or NumPy is imported at module level, so the set-up
timing covers bjlab's import.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import math
import os
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

from workloads import EPSILONS, WORKLOADS, Workload, chunk_config

OUT_DIR = Path(__file__).resolve().parent / "_out"


def setup(workload: Workload, seed: int, samples: int) -> dict:
    spaces = workload.spaces(seed)
    texts = [json.dumps(chunk_config(workload, spaces, seed, k)) for k in range(len(spaces))]
    # NumPy's import (shared libraries, BLAS threads) is a dependency's cost
    # that no bjlab change moves, and on a shared host it swings by 2x with
    # the host's memory-mapping speed; it stays outside the timing.
    import numpy  # noqa: F401
    # untimed first calls fill the bytecode and page caches
    _in_child(_set_up, texts)
    _in_child(_import_reference)
    refs = [_in_child(_import_reference)]
    raw = []
    for _ in range(samples):
        raw.append(_in_child(_set_up, texts))
        refs.append(_in_child(_import_reference))
    scaled = [s * IMPORT_REFERENCE_S / ((refs[i] + refs[i + 1]) / 2)
              for i, s in enumerate(raw)]
    return {"setup_s": scaled, "raw_setup_s": raw, "import_s": refs}


def _set_up(texts: list[str]) -> float:
    """Seconds to import bjlab, parse every config and build its operators."""
    t0 = time.perf_counter()
    import bjlab
    configs = [bjlab.parse_config(t) for t in texts]
    for cfg in configs:
        if cfg.mode == "preserver-sweep":
            for eps in EPSILONS:
                cfg._operator(eps)
    return time.perf_counter() - t0


# Set-up is import-bound, and on a shared host import time swings with
# spells that CPU-bound code does not see.  Each set-up sample is therefore
# scaled by the time a child takes to import these standard-library modules,
# which neither bjlab nor NumPy imports: the mean of the reference before
# and the one after it, against IMPORT_REFERENCE_S, the reference's typical
# time on the 2-core Xeon sandbox where the benchmark was defined.  Do not
# change either between commits that are compared.
IMPORT_REFERENCE = ("xml.dom.minidom", "email.mime.multipart", "http.server",
                    "sqlite3", "tarfile")
IMPORT_REFERENCE_S = 0.05


def _import_reference() -> float:
    t0 = time.perf_counter()
    for name in IMPORT_REFERENCE:
        importlib.import_module(name)
    return time.perf_counter() - t0


def _in_child(fn, *args) -> float:
    """fn(*args) in a forked copy of this process, which is then reaped.

    The child inherits an interpreter that has imported NumPy but not
    bjlab, so every call imports bjlab afresh, without paying for another
    interpreter start and NumPy import.
    """
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            os.close(read_fd)
            os.write(write_fd, repr(fn(*args)).encode())
            code = 0
        except BaseException:
            traceback.print_exc()
        finally:
            os._exit(code)
    os.close(write_fd)
    with os.fdopen(read_fd) as fh:
        text = fh.read()
    _, status = os.waitpid(pid, 0)
    if status != 0:
        raise RuntimeError(f"set-up child exited with status {status}")
    return float(text)


# Typical time of each reference kernel between chunks on the 2-core Xeon
# sandbox where the benchmark was defined; rates are quoted at that speed.
REFERENCE_S = {"mixed": 3.5e-3, "array": 3.0e-3}


def reference_seconds(kind: str) -> float:
    """Time of a fixed kernel that gauges the machine's momentary speed.

    The host of a shared sandbox runs at speeds that differ by up to 2x for
    seconds at a time.  Timing this kernel beside each chunk measures that
    speed independently of bjlab, so a chunk's rate can be quoted at a fixed
    speed.  Code of different kinds slows by different factors, so each
    workload uses the kernel that resembles its rows: "mixed" is a Python
    loop, small NumPy calls and a golden-section search over a small
    l^3(l^2) norm plus one power kernel over an n=4096, d=8 array; "array"
    is that power kernel alone, repeated.  Do not change this code between
    commits that are compared.
    """
    import numpy as np
    mu = np.array([1.0, 0.5, 2.0, 1.0, 1.0, 1.0])
    xb = np.linspace(-1.0, 1.0, 18).reshape(6, 3)
    yb = np.linspace(1.0, -0.5, 18).reshape(6, 3)
    large = np.linspace(-1.0, 1.0, 4096 * 8).reshape(4096, 8)
    work = np.empty_like(large)
    rows = np.empty(4096)

    def norm(blocks):
        rows = np.sqrt(np.einsum("ij,ij->i", blocks, blocks))
        m = float(rows.max())
        return m * float(mu @ (rows / m) ** 3.0) ** (1.0 / 3.0)

    def power_kernel():
        # into preallocated buffers, so the allocator's state does not matter
        np.abs(large, out=work)
        np.power(work, 1.5, out=work)
        return float(work.sum(axis=1, out=rows).sum())

    t0 = time.perf_counter()
    acc = 0.0
    if kind == "array":
        for _ in range(12):
            acc += power_kernel()
        return time.perf_counter() - t0
    for i in range(3000):
        acc += (i * 0.5) ** 1.5
    for i in range(150):
        x = xb * (1.0 + i * 1e-3)
        acc += float(np.sqrt((x * x).sum(axis=1)).sum())
    g = (math.sqrt(5.0) - 1.0) / 2.0
    for _ in range(3):
        a, b = -1.0, 1.0
        c, d = b - g * (b - a), a + g * (b - a)
        fc, fd = norm(xb + c * yb), norm(xb + d * yb)
        for _ in range(40):
            if fc < fd:
                b, d, fd = d, c, fc
                c = b - g * (b - a)
                fc = norm(xb + c * yb)
            else:
                a, c, fc = c, d, fd
                d = a + g * (b - a)
                fd = norm(xb + d * yb)
        acc += power_kernel()
    return time.perf_counter() - t0


def at_reference_speed(seconds: float, workload: Workload, ref_before: float,
                       ref_after: float) -> float:
    """`seconds` of wall time converted to the machine speed REFERENCE_S."""
    return seconds * REFERENCE_S[workload.reference] / ((ref_before + ref_after) / 2)


@dataclass
class Chunk:
    """What harness.run made of one chunk's config."""

    index: int
    seconds: float = 0.0   # wall time inside harness.run, CSV write included
    rows: int = 0
    csv: str = ""
    summary: dict | None = None
    error: str | None = None


def make_config(workload: Workload, spaces, seed: int, k: int):
    """Chunk k's ExperimentConfig, writing its CSV under OUT_DIR."""
    from bjlab import parse_config
    cfg = chunk_config(workload, spaces, seed, k)
    cfg["out"] = str(OUT_DIR / f"{workload.name}.csv")
    return parse_config(json.dumps(cfg))


def run_chunk(cfg, k: int) -> Chunk:
    """Run the config through harness.run (CSV written), timing only run."""
    from bjlab import run
    chunk = Chunk(k)
    t0 = time.perf_counter()
    try:
        report = run(cfg, echo=False)
    except Exception:  # a crash of the program is a failed chunk
        chunk.error = traceback.format_exc()
        return chunk
    chunk.seconds = time.perf_counter() - t0
    chunk.rows = len(report.rows)
    chunk.summary = report.summary
    chunk.csv = Path(cfg.out).read_text(encoding="utf-8")
    return chunk


def expected_rows(cfg) -> int:
    return cfg.trials * (len(cfg.epsilons) if cfg.mode == "preserver-sweep" else 1)


def check_chunk(cfg, chunk: Chunk) -> tuple[int, int, list[str]]:
    """(failed rows, boundary rows, problems) from the CSV as written.

    Every row is predicted to pass: a sweep row's two routes both say true,
    an axiom row's residuals all sit within tol.  Each verdict must agree
    with the margin it was decided from, each row must carry its Philox key
    (config seed, row index) in order, and the counts must match the
    harness summary.
    """
    where = f"chunk {chunk.index} seed {cfg.seed}"
    if chunk.error is not None:
        return expected_rows(cfg), 0, [f"{where}: harness.run raised\n{chunk.error}"]
    lines = chunk.csv.split("\n")
    header, body = lines[0], [ln for ln in lines[1:] if ln]
    columns = header.split(" ", 1)[1].split(",") if header.startswith("#v1 ") else []
    if not columns or len(body) != expected_rows(cfg):
        return expected_rows(cfg), 0, [f"{where}: header {header!r}, {len(body)} rows, "
                                       f"expected {expected_rows(cfg)}"]
    failed = boundary = 0
    problems = []
    for index, line in enumerate(body):
        row = dict(zip(columns, line.split(",")))
        ok, on_boundary, why = _check_row(cfg, index, row)
        if why:
            problems.append(f"{where} row {index}: {why}: {line}")
        boundary += on_boundary
        failed += not ok and not on_boundary
    summary = chunk.summary
    if (failed, boundary) != (summary["fail"], summary["boundary"]):
        problems.append(f"{where}: CSV has {failed} fail / {boundary} boundary rows, "
                        f"summary says {summary['fail']} / {summary['boundary']}")
    return failed, boundary, problems


def _check_row(cfg, index: int, row: dict) -> tuple[bool, bool, str]:
    """(passed, boundary, problem) for one CSV row."""
    if row.get("seed") != f"{cfg.seed}:{index}":
        return False, False, f"key {row.get('seed')!r} is not {cfg.seed}:{index}"
    try:
        if cfg.mode == "axioms":
            scale = float(row["scale"])
            worst = max(float(row[c]) for c in ("res_linearity", "res_homogeneity",
                                                 "res_cauchy_schwarz", "res_norm"))
            ok = row["pass"] == "true"
            if ok != (worst / scale <= cfg.tol):
                return False, False, "pass flag disagrees with its residuals"
            return ok, False, "" if ok else "axiom residual above tol"
        eps = cfg.epsilons[index // cfg.trials]
        on_boundary = row["boundary"] == "true"
        verdicts = []
        for route in ("direct", "second"):
            margin = float(row[f"{route}_margin"])
            verdict = row[f"{route}_verdict"] == "true"
            if not math.isfinite(margin) or verdict != (margin >= -cfg.tol):
                return False, False, f"{route} verdict disagrees with its margin"
            verdicts.append(verdict)
    except (KeyError, ValueError) as exc:
        return False, False, f"unreadable row ({exc!r})"
    if float(row["epsilon"]) != eps:
        return False, False, f"epsilon {row['epsilon']} is not {eps}"
    ok = all(verdicts)
    if on_boundary:
        return ok, True, ""
    return ok, False, "" if ok else "predicted pass, got fail"


def replay(workload: Workload, spaces, seed: int, chunks: list[Chunk], rec,
           ) -> tuple[float, float, int, list[str]]:
    """Traced re-run of the same chunks.

    harness.run recomputes every row from its (seed, index) key under the
    recorder's spans and writes its CSV as in the untraced run; the file
    must equal the untraced run's CSV line for line (verdicts and margins
    are printed with %.17g).  Returns (wall seconds, seconds at reference
    speed, rows, mismatches).
    """
    from bjlab import run
    seconds = reference_time = 0.0
    rows = 0
    mismatches = []
    ref = reference_seconds(workload.reference)
    rec.install()
    try:
        for chunk in chunks:
            cfg = make_config(workload, spaces, seed, chunk.index)
            t0 = time.perf_counter()
            report = run(cfg, echo=False)
            chunk_s = time.perf_counter() - t0
            ref_after = reference_seconds(workload.reference)  # calls no bjlab function
            rows += len(report.rows)
            seconds += chunk_s
            reference_time += at_reference_speed(chunk_s, workload, ref, ref_after)
            ref = ref_after
            expected = chunk.csv.split("\n")
            replayed = Path(cfg.out).read_text(encoding="utf-8").split("\n")
            where = f"chunk {chunk.index} seed {cfg.seed}"
            mismatches += [f"{where} line {i}: {a!r} != {b!r}"
                           for i, (a, b) in enumerate(zip(expected, replayed)) if a != b]
            if len(replayed) != len(expected):
                mismatches.append(f"{where}: replay has {len(replayed)} lines, "
                                  f"CSV {len(expected)}")
    finally:
        rec.uninstall()
    return seconds, reference_time, rows, mismatches


def layer_metrics(rec, seconds: float, rows: int, overhead_frac: float) -> dict:
    """Per-layer figures from a traced replay of `rows` rows in `seconds`."""
    from spans import LAYERS, NORM
    metrics = {}
    for name in LAYERS:
        d = sorted(rec.durations[name])
        metrics[f"{name}.p50_us"] = (_percentile(d, 0.50) * 1e6, "us")
        metrics[f"{name}.p99_us"] = (_percentile(d, 0.99) * 1e6, "us")
        metrics[f"{name}.calls"] = (len(d) / rows, "1/row")
        metrics[f"{name}.share"] = (sum(d) / seconds, "frac")
    norm_calls = len(rec.durations[NORM])
    norm_s = sum(rec.durations[NORM])
    metrics[f"{NORM}.bytes_computed"] = (rec.norm_bytes / max(norm_calls, 1), "B")
    metrics[f"{NORM}.gbps_computed"] = (rec.norm_bytes / norm_s / 1e9 if norm_s else 0.0,
                                        "GB/s")
    metrics["harness.self_us_per_row"] = ((seconds - rec.top_level_s) / rows * 1e6, "us")
    metrics["trace.overhead_frac"] = (overhead_frac, "frac")
    return metrics


def _percentile(sorted_values, q: float) -> float:
    """Nearest-rank percentile; 0 when the layer never ran."""
    if not sorted_values:
        return 0.0
    return sorted_values[min(len(sorted_values) - 1, math.ceil(q * len(sorted_values)) - 1)]


def throughput(chunks: list[Chunk], seconds_of, spaces: int) -> float:
    """Rows per second over an equal mix of the workload's spaces.

    Every chunk holds the same number of rows, so the mix's rate is the
    harmonic mean of the per-space rates.  A space's rate is the median of
    its chunks' rates, leaving out its first chunk, which pays one-off costs
    (first calls into NumPy), when it has later ones.
    """
    rates: dict[int, list[float]] = {}
    for c in chunks:
        if c.error is None:
            rates.setdefault(c.index % spaces, []).append(c.rows / seconds_of(c))
    per_space = [statistics.median(r[1:] or r) for r in rates.values()]
    return len(per_space) / sum(1.0 / r for r in per_space) if per_space else 0.0


def work(workload: Workload, seed: int, seconds: float, trace: bool) -> dict:
    import numpy
    OUT_DIR.mkdir(exist_ok=True)
    spaces = workload.spaces(seed)
    budget = seconds / 2 if trace else seconds
    chunks = []
    refs = []  # refs[k] before chunk k, refs[k + 1] after it
    attempted = failed = boundary = 0
    problems = []
    start = time.perf_counter()
    while len(chunks) < len(spaces) or time.perf_counter() - start < budget:
        cfg = make_config(workload, spaces, seed, len(chunks))
        refs.append(reference_seconds(workload.reference))
        chunk = run_chunk(cfg, len(chunks))
        chunks.append(chunk)
        attempted += expected_rows(cfg)
        f, b, p = check_chunk(cfg, chunk)
        failed, boundary = failed + f, boundary + b
        problems += p
        if chunk.index == 0:
            csv_sha256 = hashlib.sha256(chunk.csv.encode()).hexdigest()
        if not trace:  # only the replay needs them; keep memory flat
            chunk.csv, chunk.summary = "", None
        if chunk.error is not None:
            break
    refs.append(reference_seconds(workload.reference))
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    def scaled(c: Chunk) -> float:
        return at_reference_speed(c.seconds, workload, refs[c.index], refs[c.index + 1])

    result = {
        "attempted": attempted,
        "failed": failed,
        "boundary": boundary,
        "problems": problems[:20],
        "chunks": len(chunks),
        "trials_per_s": throughput(chunks, scaled, len(spaces)),
        "wall_trials_per_s": throughput(chunks, lambda c: c.seconds, len(spaces)),
        "reference_ms": statistics.median(refs) * 1e3,
        "peak_rss_mib": peak_rss_mib,
        "csv_sha256_chunk0": csv_sha256,
        "operand_bytes": max(s["n"] * s["d"] * 8 for s, _ in spaces),
        "numpy": numpy.__version__,
        "python": sys.version.split()[0],
        "bjlab_threads": os.environ.get("BJLAB_THREADS"),
    }
    if trace and not problems:
        from spans import Recorder
        rec = Recorder()
        traced_s, traced_ref_s, traced_rows, mismatches = replay(
            workload, spaces, seed, chunks, rec)
        untraced_ref_s = sum(scaled(c) for c in chunks)
        overhead = 1.0 - untraced_ref_s / traced_ref_s  # same rows on both sides
        result["problems"] += mismatches[:20]
        result["failed"] += len(mismatches)
        result["missing_functions"] = rec.missing
        result["layers"] = layer_metrics(rec, traced_s, traced_rows, overhead)
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("step", choices=("setup", "work"))
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--samples", type=int, default=1)
    args = ap.parse_args(argv)
    workload = WORKLOADS[args.workload]
    if args.step == "setup":
        result = setup(workload, args.seed, args.samples)
    else:
        result = work(workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
