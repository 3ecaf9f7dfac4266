"""Per-row cost of a bjlab config: wall time, minor page faults and system
time, split by stage.

    PYTHONPATH=src python scripts/rowcost.py CONFIG [--rows N] [--out PATH]

CONFIG is a bjlab JSON config; its `out` is ignored.  The script runs it in
this one process: three short warm-up runs (at most two trials each), then
runs of the config at seeds seed, seed + 1, ... until N rows are measured
(default: one run's rows).  Without --out nothing is written, and each run is
followed by its `RunReport.csv_text()` as `harness.run` writes it.  With
--out every run, warm-ups included, writes its CSV to PATH through
`harness.run`, so each measured run rewrites the file the one before it
wrote, and the write is its own stage.  Faults and system time
come from `resource.getrusage` on this process only, and so does the max
RSS printed under the table.

A stage is a function wrapped from outside the package wherever a bjlab
module refers to it, as the benchmark's traced replay wraps its layers; a
stage entered inside another counts toward the outer one.  A stage name the
package no longer has is listed as missing, not an error.  "rest" is what
the runs spent outside every stage.  The `_golden_sections` line also gives
the number of rows it minimized, so a run shows whether its config reaches
golden section at all.  The norm kernel, `blockspace._norm_rows`, is
counted, not timed, wherever a bjlab module refers to it, and its calls per
run are printed under the table: a direct check's probes show there as one
call per batch.
"""

from __future__ import annotations

import argparse
import dataclasses
import resource
import sys
from time import perf_counter

from bjlab import parse_config
from bjlab.harness import run

STAGES = [("bjlab.preserver", "_draw_pairs"), ("bjlab.ortho", "_certified_probes"),
          ("bjlab.ortho", "_golden_sections"), ("bjlab.ortho", "_certificates"),
          ("bjlab.harness", "RunReport.csv_text"), ("bjlab.harness", "_write_csv")]


def _usage() -> tuple[float, int, float]:
    """(wall s, minor faults, system s) so far."""
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return perf_counter(), ru.ru_minflt, ru.ru_stime


class Stages:
    """Cost totals per stage: [wall s, faults, system s, calls, rows], rows
    counted for _golden_sections only (its `rows` argument), and the calls
    of the norm kernel."""

    def __init__(self):
        self.totals = {attr.split(".")[-1]: [0.0, 0, 0.0, 0, 0] for _, attr in STAGES}
        self.norm_calls = 0
        self.missing: list[str] = []
        self._depth = 0
        self._restore: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn):
        total = self.totals[name]

        def staged(*args, **kwargs):
            if self._depth:
                return fn(*args, **kwargs)
            self._depth += 1
            start = _usage()
            try:
                return fn(*args, **kwargs)
            finally:
                end = _usage()
                self._depth -= 1
                for k in range(3):
                    total[k] += end[k] - start[k]
                total[3] += 1
                if name == "_golden_sections":
                    total[4] += len(args[1])

        return staged

    def install(self) -> None:
        norm_rows = sys.modules["bjlab.blockspace"]._norm_rows

        def counted(*args, **kwargs):
            self.norm_calls += 1
            return norm_rows(*args, **kwargs)

        wrappers = {id(norm_rows): (norm_rows, counted)}
        for module_name, attr in STAGES:
            owner = sys.modules.get(module_name)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            fn = getattr(owner, leaf, None)
            if fn is None:
                self.missing.append(f"{module_name}.{attr}")
            elif path:  # a method: wrapped once, on its class
                self._restore.append((owner, leaf, fn))
                setattr(owner, leaf, self.wrap(leaf, fn))
            else:
                wrappers[id(fn)] = (fn, self.wrap(leaf, fn))
        for key, module in list(sys.modules.items()):
            if module is None or not (key == "bjlab" or key.startswith("bjlab.")):
                continue
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._restore.append((module, attr, value))
                    setattr(module, attr, hit[1])

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()


def _run(cfg) -> int:
    """One run of cfg and its CSV text, which the run writes to cfg.out
    when that is set; returns its row count."""
    report = run(cfg, echo=False)
    if cfg.out is None:
        report.csv_text()
    return len(report.values[0])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("config")
    ap.add_argument("--rows", type=int, default=None,
                    help="rows to measure (default: one run's rows)")
    ap.add_argument("--out", default=None,
                    help="write each run's CSV to this path (default: write nothing)")
    args = ap.parse_args(argv)
    with open(args.config, encoding="utf-8") as fh:
        cfg = dataclasses.replace(parse_config(fh.read()), out=args.out)
    for _ in range(3):
        _run(dataclasses.replace(cfg, trials=min(cfg.trials, 2)))
    stages = Stages()
    stages.install()
    rows, seed = 0, cfg.seed
    try:
        start = _usage()
        while rows < (args.rows or 1):
            rows += _run(dataclasses.replace(cfg, seed=seed))
            seed = (seed + 1) % 2**63
        end = _usage()
    finally:
        stages.uninstall()
    total = [end[k] - start[k] for k in range(3)]
    rest = [total[k] - sum(t[k] for t in stages.totals.values()) for k in range(3)]
    print(f"{args.config}: {rows} rows in {seed - cfg.seed} runs")
    print(f"{'stage':<20}{'wall us/row':>13}{'faults/row':>12}{'sys ms/row':>12}{'calls':>8}"
          f"{'rows':>8}")
    for name, (wall, faults, sys_s, *counts) in [*stages.totals.items(), ("rest", rest),
                                                   ("total", total)]:
        if name != "_golden_sections":
            counts = counts[:1]
        print(f"{name:<20}{1e6 * wall / rows:>13.1f}{faults / rows:>12.1f}"
              f"{1e3 * sys_s / rows:>12.3f}" + "".join(f"{c:>8}" for c in counts))
    print(f"_norm_rows calls/run: {stages.norm_calls / (seed - cfg.seed):.1f}")
    # ru_maxrss is in KiB on Linux: the peak includes the workspace the runs keep
    print(f"max RSS: {resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024:.1f} MiB")
    if stages.missing:
        print("missing stages: " + ", ".join(stages.missing))
    return 0


if __name__ == "__main__":
    sys.exit(main())
