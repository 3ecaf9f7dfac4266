"""Per-row cost of a bjlab config: wall time, minor page faults and system
time, split by stage.

    PYTHONPATH=src python scripts/rowcost.py CONFIG [--rows N]

CONFIG is a bjlab JSON config; its `out` is ignored and nothing is written.
The script runs it in this one process: three short warm-up runs (at most
two trials each), then runs of the config at seeds seed, seed + 1, ... until
N rows are measured (default: one run's rows), each run followed by its
`RunReport.csv_text()` as `harness.run` writes it.  Faults and system time
come from `resource.getrusage` on this process only.

A stage is a function wrapped from outside the package wherever a bjlab
module refers to it, as the benchmark's traced replay wraps its layers; a
stage entered inside another counts toward the outer one.  A stage name the
package no longer has is listed as missing, not an error.  "rest" is what
the runs spent outside every stage.  The `_golden_sections` line also gives
the number of rows it minimized, so a run shows whether its config reaches
golden section at all.
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
          ("bjlab.harness", "RunReport.csv_text")]


def _usage() -> tuple[float, int, float]:
    """(wall s, minor faults, system s) so far."""
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return perf_counter(), ru.ru_minflt, ru.ru_stime


class Stages:
    """Cost totals per stage: [wall s, faults, system s, calls, rows], rows
    counted for _golden_sections only (its `rows` argument)."""

    def __init__(self):
        self.totals = {attr.split(".")[-1]: [0.0, 0, 0.0, 0, 0] for _, attr in STAGES}
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
        wrappers = {}
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
    """One run of cfg and its CSV text; returns its row count."""
    report = run(cfg, echo=False)
    report.csv_text()
    return len(report.values[0])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("config")
    ap.add_argument("--rows", type=int, default=None,
                    help="rows to measure (default: one run's rows)")
    args = ap.parse_args(argv)
    with open(args.config, encoding="utf-8") as fh:
        cfg = dataclasses.replace(parse_config(fh.read()), out=None)
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
    if stages.missing:
        print("missing stages: " + ", ".join(stages.missing))
    return 0


if __name__ == "__main__":
    sys.exit(main())
