"""The CSV bytes of every harness mode, pinned by sha256 prefix: the five
shipped configs and eight check-mode configs on three spaces.

The hashes are this platform's (Python 3.11.7, NumPy 2.4.6): the CSV keeps
every float's 17 significant digits, so another NumPy or libm may change a
last bit and with it a hash.  They are also per SIMD path: NumPy picks its
kernels by CPU at run time, and its power differs in the last bit between
them.  With the AVX-512 kernels off
(NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL AVX512_SPR"), the hashes of
lp_sweep, axioms, sip-B and sip-C change, while every verdict, outcome and
boundary flag stays (ROADMAP item 6).
"""

import dataclasses
import hashlib
import json
from pathlib import Path

import pytest

from bjlab import parse_config, run

CONFIGS = Path(__file__).resolve().parents[1] / "scripts" / "configs"

SHIPPED = {
    "l1_sweep": "5cb52e7a525e3c89",
    "lp_sweep": "b11ab2c27912452b",
    "weighted_L1_sweep": "1e83d78b777f120a",
    "axioms": "a26c0ef24a36e27c",
    "isometry_identity": "c37e6c96b8f250f4",
}

SPACES = {
    "A": {"p": 1, "q": 2, "n": 4, "d": 2, "weights": [1] * 4},
    "B": {"p": 2.5, "q": 1.5, "n": 4, "d": 2, "weights": [1, 0.3, 1.5, 2]},
    "C": {"p": 3, "q": 2, "n": 6, "d": 3, "weights": [1] * 6},
}

CHECK_MODES = {
    ("check-ortho", "A"): "6bfa7bc766388b4d",
    ("check-ortho", "B"): "5a47f2c6dcdfc479",
    ("check-ortho", "C"): "a2d46ac4fe5a6891",
    ("check-approx", "A"): "79df592cd833ff1c",
    ("check-approx", "B"): "d84989c7304df5c7",
    ("check-approx", "C"): "8dcd11421686b43f",
    ("sip", "B"): "869ed00d56e27f87",
    ("sip", "C"): "dff8969b65d67cf1",
}


def csv_hash(cfg) -> str:
    text = run(dataclasses.replace(cfg, out=None), echo=False).csv_text()
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


@pytest.mark.parametrize("stem", SHIPPED)
def test_shipped_config_csv_is_unchanged(stem):
    cfg = parse_config((CONFIGS / f"{stem}.json").read_text(encoding="utf-8"))
    assert csv_hash(cfg) == SHIPPED[stem]


@pytest.mark.parametrize("mode,space", CHECK_MODES)
def test_check_mode_csv_is_unchanged(mode, space):
    data = {"mode": mode, "spec": SPACES[space], "trials": 400, "seed": 11}
    if mode != "check-ortho":
        data["epsilons"] = [0, 0.1, 0.5]
    assert csv_hash(parse_config(json.dumps(data))) == CHECK_MODES[mode, space]
