"""A run's stack generators against their definition, trial_rng: the keys
hashed at once, the pooled generators re-keyed per stack, and the import
that bjlab defers."""

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import bjlab
from bjlab import parse_config, run
from bjlab.harness import trial_rng
from bjlab.streams import philox_keys, stack_rngs

CONFIGS = Path(__file__).resolve().parents[1] / "scripts" / "configs"

SEEDS = (0, 1, 2**32 - 1, 2**32, 2**40 + 5, 2**62 + 3, 2**63 - 1)


def plain_state(rng) -> dict:
    """A generator's bit-generator state with its arrays as lists."""
    state = rng.bit_generator.state
    return {**state, "state": {k: v.tolist() for k, v in state["state"].items()},
            "buffer": state["buffer"].tolist()}


@pytest.mark.parametrize("seed", SEEDS)
def test_keys_equal_seed_sequence_keys(seed):
    # 15,000 keys per seed, 105,000 in all; indices 2**32 - 7,500 to 2**32 - 1
    # are one word, the rest two
    indices = np.concatenate([np.arange(7_500), 2**32 + np.arange(-7_500, 0)]).astype(np.uint64)
    expected = [np.random.SeedSequence([seed, int(i)]).generate_state(2, np.uint64)
                for i in indices]
    assert philox_keys(seed, indices).tolist() == np.array(expected).tolist()
    high = np.arange(2**32, 2**32 + 4, dtype=np.uint64)
    assert philox_keys(seed, high).tolist() == [
        np.random.SeedSequence([seed, int(i)]).generate_state(2, np.uint64).tolist()
        for i in high]


def test_a_seed_wider_than_the_pool_is_an_error():
    with pytest.raises(ValueError, match="four-word pool"):
        philox_keys(2**64, np.arange(3, dtype=np.uint64))


def test_a_pooled_generator_left_mid_buffer_is_rekeyed_to_trial_rng():
    seed = 2**40 + 5
    keys = philox_keys(seed, np.arange(20, dtype=np.uint64))
    pool = []
    first = stack_rngs(keys, range(0, 4), pool)
    for rng in first:
        # an odd number of 32-bit draws leaves half a word behind, and the
        # normals leave the buffer part-used
        rng.integers(0, 2**32, 3, dtype=np.uint32)
        rng.standard_normal(3)
    assert first[0].bit_generator.state["has_uint32"] == 1
    second = stack_rngs(keys, range(11, 14), pool)
    assert all(a is b for a, b in zip(second, first[:3]))
    for index, rng in zip(range(11, 14), second, strict=True):
        reference = trial_rng(seed, index)
        assert plain_state(rng) == plain_state(reference)
        assert rng.integers(0, 2**32, 1_000, dtype=np.uint32).tolist() == \
            reference.integers(0, 2**32, 1_000, dtype=np.uint32).tolist()
        assert rng.standard_normal(1_000).tobytes() == reference.standard_normal(1_000).tobytes()
    # the pool grows for a longer stack; new generators start as trial_rng's
    longer = stack_rngs(keys, range(14, 20), pool)
    assert len(pool) == 6
    assert [plain_state(rng) for rng in longer] == [
        plain_state(trial_rng(seed, index)) for index in range(14, 20)]


def test_stacks_call_no_seed_sequence(monkeypatch):
    cfg = dataclasses.replace(parse_config((CONFIGS / "l1_sweep.json").read_text()),
                              trials=40, out=None)
    expected = run(cfg, echo=False).csv_text()

    def no_seed_sequence(*args, **kwargs):
        raise AssertionError("SeedSequence called")

    monkeypatch.setattr(np.random, "SeedSequence", no_seed_sequence)
    assert run(cfg, echo=False).csv_text() == expected


def test_importing_bjlab_and_parsing_configs_leaves_numpy_random_unimported():
    # numpy.random takes 11-14 ms to import on a 2-core Xeon; bjlab imports
    # it when a run first builds generators, not when a config is read
    code = "\n".join([
        "import sys, json, numpy, bjlab",
        "for path in sys.argv[1:]:",
        "    cfg = bjlab.parse_config(open(path, encoding='utf-8').read())",
        "    for eps in cfg.epsilons: cfg._operator(eps)",
        "print(json.dumps(sorted(m for m in sys.modules if m.startswith('numpy.random'))))",
    ])
    src = str(Path(bjlab.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    paths = [str(CONFIGS / f"{name}.json") for name in ("l1_sweep", "lp_sweep",
                                                        "weighted_L1_sweep", "axioms")]
    out = subprocess.run([sys.executable, "-c", code, *paths], env=env, check=True,
                         capture_output=True, text=True, timeout=60).stdout
    assert json.loads(out) == []
