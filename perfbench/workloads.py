"""Benchmark workloads, generated from a seed as plain bjlab config objects.

Standard library only: the set-up timing starts before bjlab (and NumPy) is
imported, so this module must not import either.

A workload runs in chunks.  Chunk k is one config, one `harness.run` call
and one CSV file, for space k mod (number of spaces): the chunks rotate
through the workload's spaces.  Each chunk's config gets its own seed, so
every row's Philox key (config seed, row index) is a pure function of
(workload seed, k).  The benchmark reads its throughput per space from the
distribution of that space's chunk rates.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import product

EPSILONS = (0.1, 0.3, 0.5, 0.7, 0.9)

LARGE_N = 4096
LARGE_D = 8


@dataclass(frozen=True)
class Workload:
    name: str
    mode: str
    trials: int  # per chunk (per epsilon for sweeps)
    # Sweeps at n=4096 cost the same at every epsilon, so their chunks take
    # one epsilon each, in turn; small sweeps take all five per chunk, as
    # the shipped sweep configs do.
    all_eps_per_chunk: bool = True
    # Which reference kernel gauges machine speed for this workload (see
    # worker.reference_seconds): "mixed" for interpreter-bound rows, "array"
    # for rows spent in whole-array power kernels.
    reference: str = "mixed"

    def spaces(self, seed: int) -> list[tuple[dict, list[int] | None]]:
        """(spec, partition) per config; seeded parts come from `seed`."""
        return _SPACES[self.name](random.Random(seed))


def _unit(n: int) -> list[float]:
    return [1.0] * n


def _half(rng: random.Random, n: int) -> list[int]:
    return sorted(rng.sample(range(n), n // 2))


def _paper_small(rng):
    # The three shipped example sweeps (scripts/configs/*_sweep.json).
    return [
        ({"p": 1, "q": 2, "n": 8, "d": 3, "weights": _unit(8)}, None),
        ({"p": 1, "q": 2, "n": 6, "d": 3,
          "weights": [0.8, 2.5, 0.1, 4.0, 1.2, 3.3]}, [0, 1, 2]),
        ({"p": 3, "q": 2, "n": 6, "d": 3, "weights": _unit(6)}, [0, 1, 2]),
    ]


def _large_lp(rng):
    # q = 1.5, not 2, so the general power kernel of the l^q norm runs.
    spec = {"p": 3, "q": 1.5, "n": LARGE_N, "d": LARGE_D, "weights": _unit(LARGE_N)}
    return [(spec, _half(rng, LARGE_N))]


def _large_l1(rng):
    weights = [rng.uniform(0.1, 4.0) for _ in range(LARGE_N)]
    spec = {"p": 1, "q": 2, "n": LARGE_N, "d": LARGE_D, "weights": weights}
    return [(spec, _half(rng, LARGE_N))]


def _axiom_grid(rng):
    # The acceptance suite's Giles axiom grid (criterion 5).
    return [({"p": p, "q": q, "n": 3, "d": 2, "weights": [1.0, 0.5, 2.0]}, None)
            for p, q in product((1.5, 2.0, 3.0, 4.0), (1.5, 2.0, 3.0))]


_SPACES = {
    "paper-small": _paper_small,
    "large-lp": _large_lp,
    "large-l1": _large_l1,
    "axiom-grid": _axiom_grid,
}

# Rows per chunk, that is per harness.run call: 150 for a small sweep (30
# trials at each of the five epsilons), 100 for an axiom cell, one at
# n=4096.  The reference kernel is timed only between chunks, so chunks stay
# short (0.04-0.25 s on a 2-core Xeon): with 400-row axiom chunks it tracked
# the host's speed worse and the spread of ten runs doubled.  The shipped
# configs run 5000 and 2000 rows per call, so the per-config costs weigh
# more here than in real sweeps; README.md gives their measured share.
WORKLOADS = {w.name: w for w in (
    Workload("paper-small", "preserver-sweep", trials=30),
    Workload("large-lp", "preserver-sweep", trials=1, all_eps_per_chunk=False,
             reference="array"),
    Workload("large-l1", "preserver-sweep", trials=1, all_eps_per_chunk=False),
    Workload("axiom-grid", "axioms", trials=100),
)}


def config_seed(seed: int, chunk: int) -> int:
    """Seed of chunk k's config; distinct for every chunk."""
    return (seed * 1_000_003 + chunk) % 2**62


def chunk_config(workload: Workload, spaces, seed: int, chunk: int) -> dict:
    """The config of one chunk, as bjlab's JSON config format."""
    spec, partition = spaces[chunk % len(spaces)]
    cfg = {"mode": workload.mode, "spec": spec, "trials": workload.trials,
           "seed": config_seed(seed, chunk)}
    if workload.mode == "preserver-sweep":
        turn = chunk // len(spaces)
        cfg["epsilons"] = (list(EPSILONS) if workload.all_eps_per_chunk
                           else [EPSILONS[turn % len(EPSILONS)]])
    if partition is not None:
        cfg["partition"] = partition
    return cfg
