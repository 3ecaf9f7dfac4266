"""Each thread's workspace (blockspace._scratch), which holds the
stack-sized arrays of every call in the thread: no public result is
workspace memory, stale buffers change no bit, and runs in several threads
at once keep their rows."""

import json
import sys
import threading

import numpy as np

from bjlab import (
    AtomPartition,
    SpaceSpec,
    apply_operator,
    bochner_norm,
    certificate_check,
    draw_orthogonal_pair,
    h_alpha_witness,
    inner_duality_map,
    is_approx_bj_orthogonal,
    make_orthogonal_partner,
    parse_config,
    preservation_trial,
    preservation_trials,
    random_element,
    support_functional,
    u_eps_Lp,
)
from bjlab import blockspace, streams
from bjlab.harness import run, trial_rng

# n d = 512 entries: a stack of 64 rows, and one-pair arrays of a row's size
SPEC = SpaceSpec(3, 1.5, 64, 8, (1.0,) * 64)
PART = AtomPartition(tuple(range(32)), 64)


def _sweep(spec: SpaceSpec, trials: int, seed: int, out=None, partition=None):
    return parse_config(json.dumps({
        "mode": "preserver-sweep", "spec": spec.to_dict(), "trials": trials, "seed": seed,
        "epsilons": [0.1, 0.5], "partition": partition or list(range(spec.n // 2)),
        "out": out}))


def _arrays(value) -> list[np.ndarray]:
    """Every array in a nest of tuples, lists and result objects."""
    if isinstance(value, np.ndarray):
        return [value] if value.dtype.kind == "f" else []
    if isinstance(value, (tuple, list)):
        return [a for v in value for a in _arrays(v)]
    parts = [getattr(value, k, None) for k in ("blocks", "direct", "second", "certificate")]
    return [a for v in parts if v is not None for a in _arrays(v)]


def _buffers() -> list[np.ndarray]:
    return list(vars(blockspace._WORKSPACE).values())


def test_no_public_result_is_workspace_memory():
    U = u_eps_Lp(0.3, PART, SPEC)
    rng = trial_rng(3, 0)
    x, y = draw_orthogonal_pair(SPEC, rng)
    z = random_element(SPEC, rng)
    x0 = np.zeros(SPEC.d)
    x0[0] = 1.0
    # public calls one after another, with no run between them: each reuses
    # the buffers the one before it wrote
    results = [x, y, z, support_functional(x, SPEC), apply_operator(U, x),
               certificate_check(x, y, 0.3, SPEC), make_orthogonal_partner(x, z, SPEC),
               h_alpha_witness(-2.0, PART, x0, SPEC), inner_duality_map(x.blocks[0], 1.5),
               x + z, x - z, 2.0 * x, x * 3.0, -x,
               preservation_trial(U, 0.3, SPEC, rng),
               preservation_trials(U, 0.3, SPEC, [trial_rng(3, i) for i in range(1, 5)]),
               draw_orthogonal_pair(SPEC, trial_rng(3, 5))]
    arrays = _arrays(results)
    assert len(arrays) >= 20
    kept = [a.copy() for a in arrays]
    assert {"draw0", "draw1", "partner", "abs", "support", "line"} <= set(vars(
        blockspace._WORKSPACE))
    for a in arrays:
        assert not any(np.shares_memory(a, buf) for buf in _buffers())
    # a run of the same row size in this thread, then one of a larger
    # stack: each writes every workspace buffer it uses
    report = run(_sweep(SPEC, 70, 5), echo=False)
    run(_sweep(SpaceSpec(1, 2, 16, 8, (1.0,) * 16), 30, 6), echo=False)
    for a, b in zip(arrays, kept, strict=True):
        assert a.tobytes() == b.tobytes()
    for a in arrays + [v for v in report.values if v.dtype.kind == "f"]:
        assert not any(np.shares_memory(a, buf) for buf in _buffers())


def _bits(value):
    """value with every float as its hex and every array as its bytes."""
    if isinstance(value, np.ndarray):
        return value.dtype.str, value.shape, value.tobytes()
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, (tuple, list)):
        return [_bits(v) for v in value]
    return value


def _stale_results():
    """Block norms, duality rows, one-pair checks and a sweep run's CSV."""
    x, y = draw_orthogonal_pair(SPEC, trial_rng(4, 0))
    stack = np.stack([x.blocks, y.blocks, 3.0 * x.blocks])
    b, norms = blockspace._norm_rows(stack, SPEC)
    check = is_approx_bj_orthogonal(x, y, 0.3, SPEC)
    cert = certificate_check(x, y, 0.3, SPEC)
    return _bits([x.blocks, y.blocks, b, norms,
                  blockspace.block_norms(stack.reshape(-1, SPEC.d), 3.5),
                  blockspace._support_stack(stack, b, norms, SPEC).copy(),
                  support_functional(y, SPEC).blocks, bochner_norm(x, SPEC),
                  [check.verdict, check.margin, check.alpha_star, check.boundary],
                  [cert.verdict, cert.margin, cert.certificate.blocks, cert.boundary],
                  run(_sweep(SPEC, 70, 5), echo=False).csv_text()])


def test_stale_buffers_change_no_bit():
    # the reference from a new thread, whose workspace starts empty; then
    # this thread's results over buffers of full size, every entry NaN
    reference = []
    thread = threading.Thread(target=lambda: reference.append(_stale_results()))
    thread.start()
    thread.join(timeout=60)
    assert not thread.is_alive()
    _stale_results()
    for buf in _buffers():
        buf.fill(np.nan)
    assert _stale_results() == reference[0]


def test_a_workspace_serves_runs_only_in_its_thread():
    run(_sweep(SPEC, 3, 2), echo=False)
    workspace = vars(blockspace._WORKSPACE)
    assert {"draw0", "draw1", "partner", "line", "abs", "support"} <= set(workspace)
    x, _ = draw_orthogonal_pair(SPEC, trial_rng(2, 0))
    assert not any(np.shares_memory(x.blocks, buf) for buf in workspace.values())
    # a new thread starts with no buffers and an empty generator pool
    seen = []
    thread = threading.Thread(target=lambda: seen.append(
        (dict(vars(blockspace._WORKSPACE)), vars(streams._GENERATORS).get("pool", []))))
    thread.start()
    thread.join(timeout=60)
    assert not thread.is_alive()
    assert seen == [({}, [])]
    assert streams._GENERATORS.pool


def test_threads_running_sweeps_at_once_write_the_serial_csvs(tmp_path):
    # more threads than the two cores, two shapes, several stacks each, and
    # a short switch interval: every run reuses its own thread's workspace
    # while the others write theirs, and a shared buffer would change rows
    configs = [_sweep(SPEC, 70, 11), _sweep(SpaceSpec(1, 2, 48, 8, (0.5,) * 48), 90, 12),
               _sweep(SPEC, 40, 13)]
    serial = []
    for k, cfg in enumerate(configs):
        path = tmp_path / f"serial{k}.csv"
        run(_sweep(cfg.spec, cfg.trials, cfg.seed, str(path)), echo=False)
        serial.append(path.read_text(encoding="utf-8"))
    barrier, errors = threading.Barrier(len(configs)), []

    def sweeps(k: int):
        try:
            barrier.wait(timeout=60)
            for i in range(3):
                cfg = configs[k]
                run(_sweep(cfg.spec, cfg.trials, cfg.seed, str(tmp_path / f"t{k}_{i}.csv")),
                    echo=False)
        except Exception as exc:  # reported by the main thread
            errors.append(exc)

    threads = [threading.Thread(target=sweeps, args=(k,)) for k in range(len(configs))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not errors, errors
    for k in range(len(configs)):
        for i in range(3):
            assert (tmp_path / f"t{k}_{i}.csv").read_text(encoding="utf-8") == serial[k]
