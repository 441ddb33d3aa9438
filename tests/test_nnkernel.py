"""Kernel tests: dense/mse against scalar-loop oracles, dropout
expectation, gradient finite-difference checks, Adam behavior and
determinism."""

import gc
import os
import signal
import sys
import threading
import time
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from vadeers.exceptions import ContractViolation, NumericError
from vadeers.nnkernel import (
    AdamState,
    FlatStore,
    GradientTape,
    LayerSpec,
    Tensor,
    adam_step,
    dense,
    in_row_parts,
    init_layer_params,
    mlp_forward,
    reparameterize,
    tmean,
    weighted_sum,
    wrap,
)
from vadeers.nnkernel import parts
from vadeers.nnkernel.layers import dropout_mask
from vadeers.nnkernel.losses import row_mse

import oracles
from oracles import (
    adam_out_of_place,
    adam_textbook,
    add,
    assert_close,
    bound_tape,
    exp,
    gradcheck,
    matmul_loops,
    mse,
    mse_loops,
    mul,
    square,
    tsum,
)


# ---------------------------------------------------------------------------
# affine
# ---------------------------------------------------------------------------

def test_affine_identity_map():
    out = dense([[1.0, 2.0]], [[1.0, 0.0], [0.0, 1.0]], [0.0, 0.0])
    assert np.array_equal(out.data, [[1.0, 2.0]])


def test_affine_hand_sum():
    out = dense([[1.0, 1.0]], [[2.0], [3.0]], [1.0])
    assert np.array_equal(out.data, [[6.0]])


def test_affine_matches_triple_loop_oracle():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((3, 4))
    w = rng.standard_normal((4, 2))
    b = rng.standard_normal(2)
    out = dense(x, w, b)
    expected = matmul_loops(x, w) + b
    assert np.max(np.abs(out.data - expected)) < 1e-12


# ---------------------------------------------------------------------------
# row parts on two cores
# ---------------------------------------------------------------------------

# 287 rows are one part and 288 rows two; 230 outputs is not a multiple
# of 8, the width whose edge tiles depend on where rows start
PART = 144
SPLIT_IN, SPLIT_OUT = 512, 230


@pytest.fixture
def two_cores(monkeypatch):
    """Two CPUs whatever the host has, BLAS on one thread, and no worker
    yet; the worker made in the test is shut down after it."""
    set_threads = parts._blas_thread_setter()
    threads = parts._blas_threads.__wrapped__()
    if set_threads is None or threads is None:
        pytest.skip("needs the OpenBLAS of a numpy wheel")
    set_threads(1)
    monkeypatch.setattr(parts, "_cpus", lambda: 2)
    monkeypatch.setattr(parts, "_blas_threads", lambda: 1)
    monkeypatch.setattr(parts, "_pool", None)
    yield
    if parts._pool is not None:
        parts._pool.shutdown()
    set_threads(threads)


class _Log:
    """Runs ``fn`` on each part and records its first row and whether the
    worker ran it.  With ``meet``, the first part of each thread waits
    (up to 10 s) until the other thread has begun one, so that the
    worker takes one of the first two parts; it needs two parts or more."""

    def __init__(self, fn, meet=False):
        self.fn = fn
        self.caller = threading.get_ident()
        self.runs = []
        self.begun = {False: threading.Event(), True: threading.Event()}
        self.meet = meet

    def on_worker(self):
        return threading.get_ident() != self.caller

    def __call__(self, rows):
        on_worker = self.on_worker()
        self.runs.append((rows.start, on_worker))
        if self.meet:
            self.begun[on_worker].set()
            self.begun[not on_worker].wait(10.0)
        self.fn(rows)

    def starts(self, on_worker):
        return sorted(start for start, w in self.runs if w == on_worker)


def _split_inputs(n, seed=0):
    rng = np.random.default_rng(seed)
    return (rng.standard_normal((n, SPLIT_IN)),
            rng.standard_normal((SPLIT_IN, SPLIT_OUT)),
            rng.standard_normal(SPLIT_OUT))


def _dense_in_parts(x, w, b, activation="identity", mask=None, meet=False):
    """``dense`` over row parts of ``PART`` rows through ``in_row_parts``;
    returns the output and the log."""
    out = np.empty((x.shape[0], w.shape[1]))

    def forward(rows):
        out[rows] = dense(x[rows], w, b, activation,
                          None if mask is None else mask[rows]).data

    log = _Log(forward, meet and x.shape[0] >= 2 * PART)
    in_row_parts(log, x.shape[0], PART)
    return out, log


def test_row_parts_start_every_part_rows_and_the_leftover_joins_the_last():
    for n, starts in [(0, [0]), (1, [0]), (PART, [0]), (2 * PART - 1, [0]),
                      (2 * PART, [0, PART]), (3 * PART + 5, [0, PART, 2 * PART])]:
        stops = []
        in_row_parts(lambda rows: stops.append((rows.start, rows.stop)), n, PART)
        assert sorted(stops) == list(zip(starts, starts[1:] + [n])), n


def test_parts_use_the_worker_only_with_two_cpus_and_one_blas_thread(
        two_cores, monkeypatch):
    _, log = _dense_in_parts(*_split_inputs(2 * PART - 1), meet=True)
    assert log.runs == [(0, False)]
    assert parts._pool is None  # one part: no worker is made
    _, log = _dense_in_parts(*_split_inputs(2 * PART), meet=True)
    assert len(log.runs) == 2 and len(log.starts(True)) == 1
    for cpus, threads in [(2, 2), (2, None), (1, 1)]:
        monkeypatch.setattr(parts, "_cpus", lambda: cpus)
        monkeypatch.setattr(parts, "_blas_threads", lambda: threads)
        _, log = _dense_in_parts(*_split_inputs(3 * PART))
        assert log.runs == [(0, False), (PART, False), (2 * PART, False)]


@pytest.mark.parametrize("n", [2 * PART - 1, 2 * PART, 2 * PART + 1, 1000])
@pytest.mark.parametrize("activation", ["relu", "identity"])
@pytest.mark.parametrize("masked", [False, True])
def test_split_forward_matches_the_unsplit_expression(two_cores, n,
                                                      activation, masked):
    x, w, b = _split_inputs(n, seed=n)
    mask = None
    expected = x @ w + b
    if activation == "relu":
        expected = np.maximum(expected, 0.0)
    if masked:
        mask = dropout_mask(np.random.default_rng(1), expected.shape, 0.5)
        expected = expected * mask
    out, log = _dense_in_parts(x, w, b, activation, mask, meet=True)
    assert len(log.runs) == max(1, n // PART)
    assert bool(log.starts(True)) == (n >= 2 * PART)
    np.testing.assert_allclose(out, expected, rtol=1e-12)


def _overflowing(n):
    # the product is finite, about 1e308; adding the 1e308 bias overflows
    return (np.ones((n, SPLIT_IN)),
            np.full((SPLIT_IN, SPLIT_OUT), 1e308 / SPLIT_IN),
            np.full(SPLIT_OUT, 1e308))


def test_split_forward_keeps_the_callers_errstate(two_cores):
    x, w, b = _overflowing(2 * PART)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with np.errstate(over="ignore"):
            out, log = _dense_in_parts(x, w, b, meet=True)
    assert len(log.starts(True)) == 1
    assert np.isposinf(out).all()


def test_an_error_in_the_worker_part_reaches_the_caller(two_cores):
    x, w, b = _overflowing(2 * PART)

    def part(rows):  # only the worker's rows overflow
        dense(x[rows] if log.on_worker() else 0.0 * x[rows], w, b)

    log = _Log(part, meet=True)
    with np.errstate(over="raise"), pytest.raises(FloatingPointError):
        in_row_parts(log, 2 * PART, PART)
    assert len(log.starts(True)) == 1
    x, w, b = _split_inputs(2 * PART)
    out, log = _dense_in_parts(x, w, b, meet=True)
    assert len(log.starts(True)) == 1
    np.testing.assert_allclose(out, x @ w + b, rtol=1e-12)


def test_the_caller_waits_for_the_worker_when_its_own_part_fails(two_cores):
    finished = []

    def part(rows):
        if not log.on_worker():
            raise ValueError("the caller's part")
        time.sleep(0.05)
        finished.append(rows.start)

    log = _Log(part, meet=True)
    with pytest.raises(ValueError, match="the caller's part"):
        in_row_parts(log, 4 * PART, PART)
    # the worker's part was done when the error reached the caller, and
    # no part was handed out after the error
    assert finished == log.starts(True) and len(finished) == 1
    time.sleep(0.1)
    assert len(log.runs) == 2


def test_the_caller_does_not_wait_for_a_late_worker(two_cores):
    awake = threading.Event()
    # the pool's one thread is busy, so the worker of the call below
    # starts only once ``awake`` is set
    blocker = parts._shared_pool().submit(awake.wait, 60.0)
    x, w, b = _split_inputs(5 * PART)
    try:
        out, log = _dense_in_parts(x, w, b)
        # every part ran on the caller, and it returned while the worker
        # was still blocked
        assert not awake.is_set() and not blocker.done()
    finally:
        awake.set()
    assert log.starts(False) == [0, PART, 2 * PART, 3 * PART, 4 * PART]
    assert log.starts(True) == []
    np.testing.assert_allclose(out, x @ w + b, rtol=1e-12)
    # the late worker was cancelled, and the thread is free for the next
    # call
    out, log = _dense_in_parts(x, w, b, meet=True)
    assert log.starts(True)
    np.testing.assert_allclose(out, x @ w + b, rtol=1e-12)


def test_callers_on_many_threads_share_the_worker(two_cores):
    inputs = [_split_inputs(2 * PART + 7 * i, seed=i) for i in range(6)]
    wrong, counts = [], []

    def call(x, w, b):
        expected = x @ w + b
        for _ in range(10):
            out, log = _dense_in_parts(x, w, b)
            counts.append(len(log.runs))
            if not np.allclose(out, expected, rtol=1e-12):
                wrong.append(x.shape)

    threads = [threading.Thread(target=call, args=args) for args in inputs]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert wrong == []
    assert counts == [2] * 60
    assert parts._pool is not None


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_a_forked_child_runs_a_split_dense(two_cores):
    x, w, b = _split_inputs(2 * PART)
    expected, log = _dense_in_parts(x, w, b, meet=True)
    assert len(log.starts(True)) == 1  # the parent's worker now exists
    with warnings.catch_warnings():
        # Python 3.12 warns when a process with threads forks
        warnings.simplefilter("ignore", DeprecationWarning)
        pid = os.fork()
    if pid == 0:
        code = 1
        try:
            fresh = parts._pool is None
            out, log = _dense_in_parts(x, w, b, meet=True)
            code = 0 if fresh and len(log.starts(True)) == 1 \
                and np.array_equal(out, expected) else 1
        finally:
            os._exit(code)
    deadline = time.monotonic() + 60.0
    while True:
        done, status = os.waitpid(pid, os.WNOHANG)
        if done:
            break
        if time.monotonic() > deadline:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            pytest.fail("the forked child did not finish a split dense")
        time.sleep(0.01)
    assert os.waitstatus_to_exitcode(status) == 0


# ---------------------------------------------------------------------------
# mlp_forward / dropout
# ---------------------------------------------------------------------------

def test_relu_zeroes_negative_preactivations():
    layers = [LayerSpec(2, 2, "relu")]
    params = [(np.array([[1.0, 0.0], [0.0, 1.0]]), np.array([-5.0, -5.0]))]
    out = mlp_forward(np.ones((3, 2)), layers, params)
    assert np.array_equal(out.data, np.zeros((3, 2)))


@pytest.mark.parametrize("named, layer", [(True, "net.out"), (False, "1")],
                         ids=["named", "unnamed"])
def test_non_finite_activation_names_its_layer(named, layer):
    # the second layer overflows; a named weight names it, else its index
    layers = [LayerSpec(2, 2, "relu"), LayerSpec(2, 1, "identity")]
    params = [(np.eye(2), np.zeros(2)),
              (np.full((2, 1), 1e308), np.zeros(1))]
    if named:
        params = [(Tensor(w, name=f"net.{i}.W"), Tensor(b, name=f"net.{i}.b"))
                  for i, (w, b) in zip(("0", "out"), params)]
    with np.errstate(over="ignore"), pytest.raises(
            NumericError, match=f"^non-finite activations after layer "
                                f"{layer}$"):
        mlp_forward(np.ones((3, 2)), layers, params)


def test_eval_equals_train_with_zero_dropout():
    rng = np.random.default_rng(1)
    layers = [LayerSpec(3, 4, "relu", 0.0), LayerSpec(4, 2, "identity", 0.0)]
    params = [init_layer_params(rng, s) for s in layers]
    x = rng.standard_normal((5, 3))
    out_eval = mlp_forward(x, layers, params, mode="eval")
    out_train = mlp_forward(x, layers, params, mode="train",
                            rng=np.random.default_rng(2))
    assert np.array_equal(out_eval.data, out_train.data)


def test_dropout_expectation_matches_eval():
    # dropout on the hidden layer, linear output: expectation is exact,
    # so the Monte Carlo mean must land within 2% relative error
    rng = np.random.default_rng(3)
    layers = [LayerSpec(4, 6, "relu", 0.5), LayerSpec(6, 3, "identity", 0.0)]
    params = [init_layer_params(rng, s) for s in layers]
    x = rng.standard_normal((1, 4))
    ref = mlp_forward(x, layers, params, mode="eval").data

    draws = 100_000
    tiled = np.repeat(x, draws, axis=0)  # independent masks per row
    out = mlp_forward(tiled, layers, params, mode="train",
                      rng=np.random.default_rng(4)).data
    mc = out.mean(axis=0, keepdims=True)
    rel = np.abs(mc - ref) / np.maximum(np.abs(ref), 1e-9)
    assert rel.max() < 0.02


@pytest.mark.parametrize("rate", [0.25, 0.5])
def test_dropout_mask_bytes_match_the_out_of_place_expression(rate):
    shape = (64, 33)
    mask = dropout_mask(np.random.default_rng(16), shape, rate)
    rng = np.random.default_rng(16)
    keep = rng.random(shape) >= rate
    assert mask.tobytes() == (keep.astype(np.float64) / (1.0 - rate)).tobytes()


# ---------------------------------------------------------------------------
# mse
# ---------------------------------------------------------------------------

def test_mse_zero_for_identical():
    a = np.random.default_rng(5).standard_normal((3, 3))
    assert float(mse(a, a).data) == 0.0


def test_mse_hand_case():
    assert float(mse(np.array([[0.0, 0.0]]),
                     np.array([[1.0, 3.0]])).data) == 5.0


def test_mse_matches_scalar_oracle():
    rng = np.random.default_rng(6)
    a = rng.standard_normal((5, 7))
    b = rng.standard_normal((5, 7))
    assert abs(float(mse(a, b).data) - mse_loops(a, b)) < 1e-12


# ---------------------------------------------------------------------------
# one-node loss terms against their tensor-composed oracles
# ---------------------------------------------------------------------------

def _value_and_grads(build, arrays):
    """Value of the scalar ``build(params)`` and its gradients, with
    every array registered as a parameter."""
    tape, params = bound_tape(arrays)
    out = build(params)
    return out.data, dict(tape.gradient(out))


def _assert_same_node(fused, composed, arrays):
    got, got_grads = _value_and_grads(fused, arrays)
    want, want_grads = _value_and_grads(composed, arrays)
    assert_close(got, want, 1e-12)
    for name in arrays:
        assert_close(got_grads[name], want_grads[name], 1e-10)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 16), d=st.integers(1, 6),
       weighting=st.sampled_from(["none", "mask", "real"]),
       seed=st.integers(0, 2**32 - 1))
def test_row_mse_matches_composed_oracle(n, d, weighting, seed):
    rng = np.random.default_rng(seed)
    target = rng.normal(size=(n, d))
    weights = {"none": None, "mask": rng.integers(0, 2, size=n) * 1.0,
               "real": rng.uniform(0.0, 2.0, size=n)}[weighting]

    def composed(p):
        rows = oracles.mse_rows(p["pred"], target)
        return tmean(rows if weights is None else mul(rows, wrap(weights)))

    _assert_same_node(lambda p: row_mse(p["pred"], target, weights), composed,
                      {"pred": rng.normal(size=(n, d))})
    vector = target[:, 0]
    _assert_same_node(lambda p: row_mse(p["pred"], vector),
                      lambda p: mse(p["pred"], vector),
                      {"pred": rng.normal(size=n)})


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 16), d=st.integers(1, 6),
       seed=st.integers(0, 2**32 - 1))
def test_reparameterize_matches_composed_oracle(n, d, seed):
    rng = np.random.default_rng(seed)
    eps = rng.standard_normal((n, d))
    upstream = wrap(rng.normal(size=(n, d)))
    arrays = {"mu": rng.normal(size=(n, d)),
              "log_sigma": rng.normal(0.0, 0.5, size=(n, d))}
    _assert_same_node(
        lambda p: tsum(mul(reparameterize(p["mu"], p["log_sigma"], eps),
                           upstream)),
        lambda p: tsum(mul(oracles.reparameterize(p["mu"], p["log_sigma"], eps),
                           upstream)),
        arrays)


@settings(max_examples=30, deadline=None)
@given(weights=st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=6),
       seed=st.integers(0, 2**32 - 1))
def test_weighted_sum_matches_composed_oracle(weights, seed):
    rng = np.random.default_rng(seed)
    arrays = {f"t{i}": rng.normal(size=()) for i in range(len(weights))}

    def composed(p):
        total = wrap(0.0)
        for i, w in enumerate(weights):
            total = add(total, mul(wrap(w), p[f"t{i}"]))
        return total

    _assert_same_node(
        lambda p: weighted_sum([p[f"t{i}"] for i in range(len(weights))],
                               weights),
        composed, arrays)


# ---------------------------------------------------------------------------
# gradients
# ---------------------------------------------------------------------------

def test_grad_quadratic():
    tape, p = bound_tape({"w": [1.0, 2.0]})
    loss = tsum(square(p["w"]))
    grads = tape.gradient(loss)
    assert np.array_equal(grads["w"], [2.0, 4.0])


def test_grad_zero_for_unused_parameter():
    tape, p = bound_tape({"w": [1.0, 2.0], "unused": [3.0]})
    loss = tsum(square(p["w"]))
    grads = tape.gradient(loss)
    assert np.array_equal(grads["unused"], [0.0])


def test_grad_of_a_parameter_by_itself_is_one():
    tape, p = bound_tape({"w": np.array(3.0)})
    assert tape.gradient(p["w"])["w"] == 1.0


def test_grad_disconnected_loss_raises():
    tape, _ = bound_tape({"w": [1.0]})
    loss = tsum(square(wrap([2.0])))
    with pytest.raises(ContractViolation):
        tape.gradient(loss)


def test_tape_hands_out_one_leaf_per_store_array():
    store = FlatStore.from_arrays({"w": np.ones(2), "b": np.zeros(1)})
    tape = GradientTape(store)
    leaf = tape("w")
    assert tape("w") is leaf
    assert leaf.data is store["w"]
    assert leaf.name == "w"


def test_tape_frozen_leaf_gets_no_gradient_slot():
    store = FlatStore.from_arrays({"w": np.ones(2), "s": np.full(2, 3.0)})
    frozen = GradientTape(store, frozenset({"s"}))
    grads = frozen.gradient(tsum(mul(frozen("w"), frozen("s"))))
    assert list(grads) == ["w"]
    assert np.array_equal(grads["w"], [3.0, 3.0])
    free = GradientTape(store)
    grads = free.gradient(tsum(mul(free("w"), free("s"))))
    assert np.array_equal(grads["s"], [1.0, 1.0])


def _mlp_loss(params_arrays, x, y, layers):
    tape, p = bound_tape(params_arrays)
    params = [(p[f"w{i}"], p[f"b{i}"]) for i in range(len(layers))]
    out = mlp_forward(x, layers, params)
    return mse(out, y), tape


def test_mlp_gradient_matches_finite_differences():
    rng = np.random.default_rng(7)
    layers = [LayerSpec(4, 6, "relu"), LayerSpec(6, 3, "identity")]
    arrays = {}
    for i, s in enumerate(layers):
        w, b = init_layer_params(rng, s)
        arrays[f"w{i}"] = w
        arrays[f"b{i}"] = rng.standard_normal(s.out_dim) * 0.1
    x = rng.standard_normal((5, 4))
    y = rng.standard_normal((5, 3))

    loss, tape = _mlp_loss(arrays, x, y, layers)
    grads = tape.gradient(loss)

    def f(p):
        l, _ = _mlp_loss(p, x, y, layers)
        return float(l.data)

    ok, detail = gradcheck(f, arrays, grads, rng, n_coords=100)
    assert ok, detail


def test_train_mode_dropout_gradient_matches_finite_differences():
    # the same rng seed in every evaluation fixes the dropout masks
    rng = np.random.default_rng(10)
    layers = [LayerSpec(4, 7, "relu", 0.4), LayerSpec(7, 5, "relu", 0.3),
              LayerSpec(5, 3, "identity")]
    arrays = {}
    for i, s in enumerate(layers):
        arrays[f"w{i}"], _ = init_layer_params(rng, s)
        arrays[f"b{i}"] = rng.standard_normal(s.out_dim) * 0.1
    x = rng.standard_normal((6, 4))
    y = rng.standard_normal((6, 3))

    def loss_and_tape(p):
        tape, bound = bound_tape(p)
        params = [(bound[f"w{i}"], bound[f"b{i}"]) for i in range(len(layers))]
        out = mlp_forward(x, layers, params, mode="train",
                          rng=np.random.default_rng(11))
        return mse(out, y), tape

    loss, tape = loss_and_tape(arrays)
    grads = tape.gradient(loss)
    assert all(np.any(g != 0.0) for g in grads.values())
    ok, detail = gradcheck(lambda p: float(loss_and_tape(p)[0].data), arrays,
                           grads, rng, n_coords=200)
    assert ok, detail


def test_eval_graph_holds_one_activation_per_layer():
    rng = np.random.default_rng(12)
    layers = [LayerSpec(5, 16, "relu", 0.5), LayerSpec(16, 8, "relu"),
              LayerSpec(8, 2, "identity")]
    params = [init_layer_params(rng, s) for s in layers]
    x = rng.standard_normal((300, 5))
    out = mlp_forward(x, layers, params)
    seen, stack, held = {id(out)}, [out], 0
    while stack:
        node = stack.pop()
        held += node.data.nbytes
        for p in node.parents:
            if id(p) not in seen:
                seen.add(id(p))
                stack.append(p)
    activations = sum(300 * s.out_dim * 8 for s in layers)
    weights = sum(w.nbytes + b.nbytes for w, b in params)
    assert held == x.nbytes + weights + activations


def test_graph_is_freed_without_the_cycle_collector():
    rng = np.random.default_rng(14)
    layers = [LayerSpec(3, 6, "relu", 0.5), LayerSpec(6, 2, "identity")]
    arrays = [init_layer_params(rng, s) for s in layers]
    x = rng.standard_normal((5, 3))
    gc.collect()
    gc.disable()
    try:
        tape, bound = bound_tape({f"{k}{i}": a for i, pair in enumerate(arrays)
                                  for k, a in zip("wb", pair)})
        params = [(bound[f"w{i}"], bound[f"b{i}"]) for i in range(len(arrays))]
        out = mlp_forward(x, layers, params, mode="train",
                          rng=np.random.default_rng(15))
        grads = tape.gradient(tsum(exp(out)))
        del tape, bound, params, out, grads
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_determinism_same_seed_same_values_and_grads():
    def build(seed):
        rng = np.random.default_rng(seed)
        layers = [LayerSpec(4, 4, "relu"), LayerSpec(4, 2, "identity")]
        arrays = {}
        for i, s in enumerate(layers):
            arrays[f"w{i}"], arrays[f"b{i}"] = init_layer_params(rng, s)
        tape, bound = bound_tape(arrays)
        params = [(bound[f"w{i}"], bound[f"b{i}"]) for i in range(len(layers))]
        x = rng.standard_normal((3, 4))
        loss = mse(mlp_forward(x, layers, params), np.ones((3, 2)))
        return loss.data.tobytes(), {k: v.tobytes()
                                     for k, v in tape.gradient(loss).items()}

    v1, g1 = build(123)
    v2, g2 = build(123)
    assert v1 == v2
    assert g1 == g2


# ---------------------------------------------------------------------------
# adam
# ---------------------------------------------------------------------------

def _grads(params, arrays):
    """The gradient store of ``params`` showing and holding ``arrays``."""
    grads = params.gradient_store(arrays)
    for name, g in arrays.items():
        grads[name] = g
    return grads


def _moments(state, params, name):
    """(m, v) of ``name`` in the stretch ``state`` is bound to."""
    a, b, shape = params.layout[name]
    return (state.m[a - state.start: b - state.start].reshape(shape),
            state.v[a - state.start: b - state.start].reshape(shape))


def test_adam_zero_grads_leave_params_decay_moments():
    # the moments would move each parameter by a huge step, the last by
    # one that overflows to inf; with a zero gradient none moves, and
    # -0.0 keeps its sign
    params = FlatStore.from_arrays({"p": np.array([1.0, -2.0, -0.0, 0.0, 2.0])})
    before = params.flat.tobytes()
    m = np.array([0.5, 0.5, -0.5, -0.5, -1e10])
    state = AdamState(layout=params.layout, m=m.copy(), v=np.full(5, 0.25),
                      step_index=3)
    with np.errstate(over="ignore"):
        adam_step(params, _grads(params, {"p": np.zeros(5)}), state,
                  lr=1e300)
    assert params.flat.tobytes() == before
    assert np.allclose(state.m, 0.9 * m)
    assert np.allclose(state.v, 0.999 * 0.25)
    assert state.step_index == 4


def test_adam_first_step_moves_by_lr():
    # hand evaluation at t=1: m_hat = g, v_hat = g^2,
    # step = lr * g / (|g| + eps) ~= lr
    params = FlatStore.from_arrays({"p": np.array([0.0])})
    assert adam_step(params, _grads(params, {"p": np.array([1.0])}),
                     AdamState(), lr=0.1) is None
    expected = -0.1 * 1.0 / (1.0 + 1e-8)
    assert abs(params["p"][0] - expected) < 1e-15


def test_adam_converges_on_quadratic():
    params = FlatStore.from_arrays({"p": np.array([0.0])})
    state = AdamState()
    for _ in range(100):
        g = 2.0 * (params["p"] - 3.0)
        adam_step(params, _grads(params, {"p": g}), state, lr=0.1)
    assert abs(params["p"][0] - 3.0) < 0.05


def test_adam_in_place_matches_out_of_place_oracle():
    rng = np.random.default_rng(13)
    params = FlatStore.from_arrays({
        "a": rng.standard_normal((4, 3)), "b": rng.standard_normal(5),
        "idle": rng.standard_normal(2)})
    ref = {name: params[name].copy() for name in params}
    m, v = {}, {}
    flat = params.flat
    state = AdamState()
    for t in range(1, 6):
        grads = {"a": rng.standard_normal((4, 3)), "b": rng.standard_normal(5)}
        grads["a"][0] = 0.0
        grads["b"][t % 5] = 0.0
        if t == 3:
            grads["b"][:] = 0.0
        ref, m, v = adam_out_of_place(ref, grads, m, v, t, lr=0.01)
        adam_step(params, _grads(params, grads), state, lr=0.01)
        assert state.step_index == t
        assert params.flat is flat  # updated in place
        for name in params:
            assert params[name].tobytes() == ref[name].tobytes()
        for name in grads:
            got_m, got_v = _moments(state, params, name)
            assert got_m.tobytes() == m[name].tobytes()
            assert got_v.tobytes() == v[name].tobytes()
    # the stretch ends where the last updated name does
    assert (state.start, state.m.size, state.v.size) == (0, 17, 17)


def test_adam_runs_of_a_flat_store_match_out_of_place_oracle(monkeypatch):
    from vadeers.nnkernel import optim

    # blocks of 4 split every run; "b" is frozen between two active runs
    monkeypatch.setattr(optim, "ADAM_BLOCK", 4)
    rng = np.random.default_rng(14)
    params = FlatStore.from_arrays({
        "a1": rng.standard_normal((3, 3)), "a2": rng.standard_normal(2),
        "b": rng.standard_normal(4), "c": rng.standard_normal((2, 5)),
        "d": rng.standard_normal(3)})
    frozen = params["b"].copy()
    active = ["a1", "a2", "c", "d"]
    ref = {n: params[n].copy() for n in params}
    m, v = {}, {}
    state = AdamState()
    for t in range(1, 6):
        grads = params.gradient_store(active)
        assert [(stop - start, names) for start, stop, names in grads.runs()] \
            == [(11, ["a1", "a2"]), (13, ["c", "d"])]
        for name in active:
            grads[name] = rng.standard_normal(params[name].shape)
        # dead ReLU units zero whole rows and columns; single zeros too
        grads["a1"][1] = 0.0
        grads["c"][:, t - 1] = 0.0
        grads["c"][t % 2, t % 5] = 0.0
        if t == 3:
            grads["d"] = np.zeros(3)
        ref, m, v = adam_out_of_place(ref, dict(grads), m, v, t, lr=0.01)
        adam_step(params, grads, state, lr=0.01)
        for name in params:
            assert params[name].tobytes() == ref[name].tobytes()
        for name in active:
            got_m, got_v = _moments(state, params, name)
            assert got_m.tobytes() == m[name].tobytes()
            assert got_v.tobytes() == v[name].tobytes()
    # the frozen name inside the stretch keeps its value and zero moments
    assert params["b"].tobytes() == frozen.tobytes()
    assert not np.any(np.concatenate(_moments(state, params, "b")))
    assert state.layout is params.layout and state.start == 0
    assert state.m.size == state.v.size == 28


def test_adam_reads_float32_gradients_and_refreshes_the_working_copy(
        monkeypatch):
    from vadeers.nnkernel import optim

    # float32 gradients of a float32 working copy give float32 moments and
    # move the float64 parameters as the oracle does in float32, and every
    # block of the copy is refreshed from its updated parameters; the
    # squares of gradients below 1e-19 make subnormal second moments, which
    # the 16th step zeroes
    monkeypatch.setattr(optim, "ADAM_BLOCK", 4)
    rng = np.random.default_rng(16)
    params = FlatStore.from_arrays({
        "a": rng.standard_normal((3, 3)), "b": rng.standard_normal(4),
        "c": rng.standard_normal(5)})
    copy = FlatStore(params.layout, params.flat.astype(np.float32))
    ref = {n: params[n].copy() for n in params}
    m, v = {}, {}
    state = AdamState()
    for t in range(1, 21):
        grads = copy.gradient_store(["a", "c"])
        assert grads.flat.dtype == np.float32
        for name in ("a", "c"):
            grads[name] = rng.standard_normal(params[name].shape)
        grads["c"][t % 5] = 0.0
        grads["a"][0] = 3e-20 * rng.standard_normal(3)
        ref, m, v = adam_out_of_place(ref, dict(grads), m, v, t, lr=0.01)
        assert m["a"].dtype == v["a"].dtype == np.float32
        adam_step(params, grads, state, lr=0.01, copy=copy)
        assert state.m.dtype == state.v.dtype == np.float32
        assert params.flat.dtype == np.float64
        for name in params:
            assert params[name].tobytes() == ref[name].tobytes()
        for name in grads:
            got_m, got_v = _moments(state, params, name)
            assert got_m.tobytes() == m[name].tobytes()
            assert got_v.tobytes() == v[name].tobytes()
        assert copy.flat.tobytes() == params.flat.astype(np.float32).tobytes()
        v_small = _moments(state, params, "a")[1][0]
        if t == 15:
            assert np.all(v_small > 0.0)
            assert np.all(v_small < np.finfo(np.float32).tiny)
        if t == 16:
            assert not np.any(v_small)


def test_adam_efficient_form_stays_near_the_textbook_form():
    # 50 float64 steps of the efficient form stay within 1e-13 of the
    # textbook form (the two differ by 2.2e-16 here), over gradients from
    # 1e-9, where the stabilizer dominates the step, to 1; a stabilizer
    # not rescaled by sqrt(1 - beta2**t), or one bias correction folded
    # into alpha_t wrongly, leaves that bound
    rng = np.random.default_rng(17)
    scale = np.logspace(-9, 0, 40)
    params = FlatStore.from_arrays({"p": rng.standard_normal(40)})
    ref = {"p": params["p"].copy()}
    m, v = {}, {}
    state = AdamState()
    for t in range(1, 51):
        g = scale * rng.standard_normal(40)
        g[t % 40] = 0.0
        ref, m, v = adam_textbook(ref, {"p": g}, m, v, t, lr=0.01)
        adam_step(params, _grads(params, {"p": g}), state, lr=0.01)
        assert np.max(np.abs(params["p"] - ref["p"])) <= 1e-13
        assert np.max(np.abs(state.m - m["p"])) <= 1e-15 * np.abs(m["p"]).max()
        assert np.max(np.abs(state.v - v["p"])) <= 1e-15 * np.abs(v["p"]).max()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_adam_flushes_subnormal_moments_without_moving_parameters(dtype):
    # moments decaying under a zero gradient would stay subnormal for good,
    # where x * beta rounds back to x; at most 16 steps later they are
    # +0.0, and the parameters keep their bytes
    tiny = np.finfo(dtype).tiny
    params = FlatStore.from_arrays({"p": np.array([1.0, -0.0, 0.0, 3.0])})
    copy = FlatStore(params.layout, params.flat.astype(dtype))
    before = params.flat.tobytes()
    sub = np.array([tiny / 3, -tiny / 5, tiny / 2**10, -tiny * 2**-20],
                   dtype=dtype)
    state = AdamState(layout=params.layout, m=sub.copy(),
                      v=np.abs(sub[::-1]), step_index=5)
    for _ in range(16):
        adam_step(params, _grads(copy, {"p": np.zeros(4)}), state,
                  lr=0.01, copy=copy)
        assert params.flat.tobytes() == before
    assert state.step_index == 21
    assert state.m.dtype == state.v.dtype == dtype
    assert state.m.tobytes() == state.v.tobytes() == bytes(4 * sub.itemsize)


def test_adam_rejects_a_run_outside_its_stretch_or_another_layout():
    rng = np.random.default_rng(15)
    params = FlatStore.from_arrays({n: rng.standard_normal(3) for n in "abc"})
    state = AdamState()
    adam_step(params, _grads(params, {"b": rng.standard_normal(3)}), state,
              lr=0.1)
    assert (state.start, state.m.size) == (3, 3)
    before = params.flat.copy()
    for names in (["a"], ["c"], ["a", "b"], ["b", "c"]):
        with pytest.raises(ContractViolation, match="stretch"):
            adam_step(params, _grads(params, {n: np.ones(3) for n in names}),
                      state, lr=0.1)
    other = FlatStore.from_arrays({n: np.zeros(3) for n in "abc"})
    with pytest.raises(ContractViolation, match="stretch"):
        adam_step(other, _grads(other, {"b": np.ones(3)}), state, lr=0.1)
    # float64 moments take no float32 gradients
    narrow = FlatStore(params.layout, params.flat.astype(np.float32))
    with pytest.raises(ContractViolation, match="float32 gradients for "
                                               "float64 moments"):
        adam_step(params, _grads(narrow, {"b": np.ones(3)}), state, lr=0.1)
    assert params.flat.tobytes() == before.tobytes()
    assert state.step_index == 1


def test_adam_shape_mismatch():
    # only a gradient store of the parameters' own layout is accepted
    params = FlatStore.from_arrays({"p": np.zeros(2)})
    other = FlatStore.from_arrays({"p": np.zeros(3)})
    for grads in (other.gradient_store(["p"]),
                  FlatStore.from_arrays({"p": np.zeros(2)}),
                  {"p": np.zeros(2)}):
        with pytest.raises(ContractViolation):
            adam_step(params, grads, AdamState(), lr=0.1)
    with pytest.raises(ContractViolation):
        adam_step({"p": np.zeros(2)}, {"p": np.zeros(2)}, AdamState(), lr=0.1)
