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

from vadeers.exceptions import ContractViolation
from vadeers.nnkernel import (
    AdamState,
    FlatStore,
    GradientTape,
    LayerSpec,
    adam_step,
    dense,
    init_layer_params,
    mlp_forward,
    reparameterize,
    tmean,
    weighted_sum,
    wrap,
)
from vadeers.nnkernel import autodiff
from vadeers.nnkernel.layers import dropout_mask
from vadeers.nnkernel.losses import row_mse

import oracles
from oracles import (
    adam_out_of_place,
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


def test_affine_dimension_mismatch_names_shapes():
    with pytest.raises(ContractViolation) as err:
        dense(np.zeros((2, 3)), np.zeros((4, 2)), np.zeros(2))
    assert "(2, 3)" in str(err.value) and "(4, 2)" in str(err.value)


# ---------------------------------------------------------------------------
# row-split forward
# ---------------------------------------------------------------------------

# a product wide enough that 2 * SPLIT_ROWS rows split; 230 outputs is not
# a multiple of 8, the width whose edge tiles depend on where rows start
SPLIT_IN, SPLIT_OUT = 512, 230


@pytest.fixture
def split_parts(monkeypatch):
    """Two CPUs and one BLAS thread whatever the host has, a fresh worker
    and no back-off.  The list collects the row count of every part the
    worker ran."""
    parts = []
    real_in = autodiff._dense_rows_in

    def worker_part(err, *args):
        parts.append(args[-1].stop)
        real_in(err, *args)

    monkeypatch.setattr(autodiff, "_cpus", lambda: 2)
    monkeypatch.setattr(autodiff, "_blas_threads", lambda: 1)
    monkeypatch.setattr(autodiff, "_splitter", autodiff._Splitter())
    monkeypatch.setattr(autodiff, "SPLIT_BACKOFF", 0)
    monkeypatch.setattr(autodiff, "_dense_rows_in", worker_part)
    return parts


def _split_inputs(n, seed=0):
    rng = np.random.default_rng(seed)
    return (rng.standard_normal((n, SPLIT_IN)),
            rng.standard_normal((SPLIT_IN, SPLIT_OUT)),
            rng.standard_normal(SPLIT_OUT))


def test_split_needs_enough_rows_macs_cpus_and_one_blas_thread(
        split_parts, monkeypatch):
    assert autodiff.SPLIT_ROWS * SPLIT_IN * SPLIT_OUT >= autodiff.SPLIT_MACS
    rows = 2 * autodiff.SPLIT_ROWS
    dense(*_split_inputs(rows - 1))
    assert split_parts == []
    dense(*_split_inputs(rows))
    assert split_parts == [autodiff.SPLIT_ROWS]
    dense(*_split_inputs(1000))
    assert split_parts[-1] % autodiff.SPLIT_ALIGN == 0
    assert 500 - autodiff.SPLIT_ALIGN < split_parts[-1] <= 500
    narrow = np.ones((1000, 8))
    dense(narrow, np.ones((8, 8)), np.zeros(8))
    for threads in (2, None):
        monkeypatch.setattr(autodiff, "_blas_threads", lambda: threads)
        dense(*_split_inputs(1000))
    monkeypatch.setattr(autodiff, "_blas_threads", lambda: 1)
    monkeypatch.setattr(autodiff, "_cpus", lambda: 1)
    dense(*_split_inputs(1000))
    assert len(split_parts) == 2


@pytest.mark.parametrize("n", [2 * autodiff.SPLIT_ROWS - 1,
                               2 * autodiff.SPLIT_ROWS,
                               2 * autodiff.SPLIT_ROWS + 1, 1000])
@pytest.mark.parametrize("activation", ["relu", "identity"])
@pytest.mark.parametrize("masked", [False, True])
def test_split_forward_matches_the_unsplit_expression(split_parts, n,
                                                      activation, masked):
    x, w, b = _split_inputs(n, seed=n)
    mask = None
    expected = x @ w + b
    if activation == "relu":
        expected = np.maximum(expected, 0.0)
    if masked:
        mask = dropout_mask(np.random.default_rng(1), expected.shape, 0.5)
        expected = expected * mask
    out = dense(x, w, b, activation, mask)
    assert len(split_parts) == (n >= 2 * autodiff.SPLIT_ROWS)
    np.testing.assert_allclose(out.data, expected, rtol=1e-12)


def _first_split_rows(n_in, n_out):
    """The fewest rows whose forward splits at these widths."""
    align = autodiff.SPLIT_ALIGN
    cut = max(autodiff.SPLIT_ROWS, -(-autodiff.SPLIT_MACS // (n_in * n_out)))
    return 2 * (-(-cut // align) * align)


# the paper-dims layers whose forwards split, and the 512 -> 230 product
# above: 230, 300, 294 and 241 outputs are not multiples of 8
@pytest.mark.skipif(autodiff._blas_threads() != 1,
                    reason="forwards split only at one BLAS thread")
@pytest.mark.parametrize("n_in, n_out", [
    (SPLIT_IN, SPLIT_OUT), (128, 300), (128, 294), (128, 241),
    (300, 128), (241, 128), (512, 256), (256, 128)])
def test_split_forward_bytes_equal_the_one_call_product(split_parts,
                                                       monkeypatch,
                                                       n_in, n_out):
    rng = np.random.default_rng(n_in * n_out)
    w = rng.standard_normal((n_in, n_out))
    b = rng.standard_normal(n_out)
    first = _first_split_rows(n_in, n_out)
    sizes = (first, first + 1, first + autodiff.SPLIT_ALIGN - 1, first + 500)
    for n in sizes:
        x = rng.standard_normal((n, n_in))
        monkeypatch.setattr(autodiff, "_cpus", lambda: 2)
        split = dense(x, w, b).data
        monkeypatch.setattr(autodiff, "_cpus", lambda: 1)
        whole = dense(x, w, b).data
        assert np.array_equal(split, whole), n
    assert len(split_parts) == len(sizes)


def _overflowing(n):
    # the product is finite, about 1e308; adding the 1e308 bias overflows
    return (np.ones((n, SPLIT_IN)),
            np.full((SPLIT_IN, SPLIT_OUT), 1e308 / SPLIT_IN),
            np.full(SPLIT_OUT, 1e308))


def test_split_forward_keeps_the_callers_errstate(split_parts):
    x, w, b = _overflowing(2 * autodiff.SPLIT_ROWS)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with np.errstate(over="ignore"):
            out = dense(x, w, b)
    assert split_parts == [autodiff.SPLIT_ROWS]
    assert np.isposinf(out.data).all()


def test_an_error_in_the_worker_part_reaches_the_caller(split_parts):
    x, w, b = _overflowing(2 * autodiff.SPLIT_ROWS)
    x[autodiff.SPLIT_ROWS:] = 0.0  # only the worker's rows overflow
    with np.errstate(over="raise"), pytest.raises(FloatingPointError):
        dense(x, w, b)
    assert split_parts == [autodiff.SPLIT_ROWS]
    x, w, b = _split_inputs(2 * autodiff.SPLIT_ROWS)
    np.testing.assert_allclose(dense(x, w, b).data, x @ w + b, rtol=1e-12)


def test_the_caller_waits_for_the_worker_when_its_own_part_fails(
        split_parts, monkeypatch):
    finished = []
    counting = autodiff._dense_rows_in

    def slow(*args):
        time.sleep(0.05)
        counting(*args)
        finished.append(True)

    monkeypatch.setattr(autodiff, "_dense_rows_in", slow)
    x, w, b = _overflowing(2 * autodiff.SPLIT_ROWS)
    x[:autodiff.SPLIT_ROWS] = 0.0  # only the caller's rows overflow
    with np.errstate(over="raise"), pytest.raises(FloatingPointError):
        dense(x, w, b)
    assert finished == [True]


def test_splits_back_off_after_one_that_did_not_pay(split_parts,
                                                   monkeypatch):
    monkeypatch.setattr(autodiff, "SPLIT_BACKOFF", 3)
    worker_part = autodiff._dense_rows_in

    def late(*args):
        start = time.perf_counter()
        worker_part(*args)
        time.sleep(50 * (time.perf_counter() - start))

    monkeypatch.setattr(autodiff, "_dense_rows_in", late)
    x, w, b = _split_inputs(2 * autodiff.SPLIT_ROWS)
    # a first product on the caller alone, so that the caller's part of
    # the first split is timed without first-call costs
    monkeypatch.setattr(autodiff, "_cpus", lambda: 1)
    dense(x, w, b)
    monkeypatch.setattr(autodiff, "_cpus", lambda: 2)
    for _ in range(5):
        np.testing.assert_allclose(dense(x, w, b).data, x @ w + b,
                                   rtol=1e-12)
    # the first split took far longer than one call would have, so the
    # next three ran both parts on the caller and the fifth split again
    assert split_parts == [autodiff.SPLIT_ROWS] * 2


def test_a_forward_that_backs_off_gives_the_split_bytes(split_parts):
    x, w, b = _split_inputs(1000)
    split = dense(x, w, b).data
    autodiff._splitter.skip = 1
    assert np.array_equal(dense(x, w, b).data, split)
    assert autodiff._splitter.skip == 0


def test_only_a_slow_average_backs_off(monkeypatch):
    monkeypatch.setattr(autodiff, "SPLIT_BACKOFF", 3)
    splitter = autodiff._Splitter()
    for ratio in [1.5] + [0.6] * 100:  # one slow split, then paying ones
        assert splitter.take_turn() is not None
        splitter.record(ratio)
    splitter.record(20.0)
    assert [splitter.take_turn() is None for _ in range(4)] == \
        [True, True, True, False]
    splitter.record(1.5)  # after a back-off, one slow split again
    assert splitter.take_turn() is not None


def test_callers_on_many_threads_share_the_worker(split_parts):
    inputs = [_split_inputs(2 * autodiff.SPLIT_ROWS + 7 * i, seed=i)
              for i in range(6)]
    wrong = []

    def call(x, w, b):
        expected = x @ w + b
        for _ in range(10):
            if not np.allclose(dense(x, w, b).data, expected, rtol=1e-12):
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
    assert len(split_parts) == 60


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_a_forked_child_runs_a_split_dense(split_parts):
    x, w, b = _split_inputs(2 * autodiff.SPLIT_ROWS)
    expected = dense(x, w, b).data  # the parent's worker now exists
    assert autodiff._splitter.worker is not None
    with warnings.catch_warnings():
        # Python 3.12 warns when a process with threads forks
        warnings.simplefilter("ignore", DeprecationWarning)
        pid = os.fork()
    if pid == 0:
        code = 1
        try:
            fresh = autodiff._splitter.worker is None
            out = dense(x, w, b).data
            code = 0 if fresh and len(split_parts) == 2 \
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


def test_dropout_requires_rng_in_train_mode():
    layers = [LayerSpec(2, 2, "relu", 0.5)]
    params = [(np.eye(2), np.zeros(2))]
    with pytest.raises(ContractViolation):
        mlp_forward(np.ones((1, 2)), layers, params, mode="train")


def test_chain_break_raises():
    layers = [LayerSpec(2, 3), LayerSpec(4, 2)]
    params = [(np.zeros((2, 3)), np.zeros(3)), (np.zeros((4, 2)), np.zeros(2))]
    with pytest.raises(ContractViolation):
        mlp_forward(np.ones((1, 2)), layers, params)


# ---------------------------------------------------------------------------
# mse
# ---------------------------------------------------------------------------

def test_mse_zero_for_identical():
    a = np.random.default_rng(5).standard_normal((3, 3))
    assert mse(a, a).item() == 0.0


def test_mse_hand_case():
    assert mse(np.array([[0.0, 0.0]]), np.array([[1.0, 3.0]])).item() == 5.0


def test_mse_matches_scalar_oracle():
    rng = np.random.default_rng(6)
    a = rng.standard_normal((5, 7))
    b = rng.standard_normal((5, 7))
    assert abs(mse(a, b).item() - mse_loops(a, b)) < 1e-12


def test_mse_shape_mismatch():
    with pytest.raises(ContractViolation):
        mse(np.zeros((2, 2)), np.zeros((2, 3)))
    with pytest.raises(ContractViolation):
        row_mse(np.zeros((2, 2)), np.zeros((2, 3)))
    with pytest.raises(ContractViolation):
        row_mse(np.zeros((2, 2)), np.zeros((2, 2)), np.ones(3))


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


def test_grad_disconnected_loss_raises():
    tape, _ = bound_tape({"w": [1.0]})
    loss = tsum(square(wrap([2.0])))
    with pytest.raises(ContractViolation):
        tape.gradient(loss)


def test_tape_registers_only_its_store_arrays():
    store = FlatStore.from_arrays({"w": np.ones(2)})
    tape = GradientTape(store)
    with pytest.raises(ContractViolation):
        tape.parameter("w", store["w"].copy())
    with pytest.raises(ContractViolation):
        tape.parameter("v", np.ones(2))


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
    params = FlatStore.from_arrays({"p": np.array([1.0, -2.0])})
    state = AdamState(layout=params.layout, m=np.array([0.5, 0.5]),
                      v=np.array([0.25, 0.25]), step_index=3)
    adam_step(params, _grads(params, {"p": np.zeros(2)}), state, lr=0.1)
    assert np.array_equal(params["p"], [1.0, -2.0])
    assert np.allclose(state.m, 0.9 * 0.5)
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
        grads["a1"][1] = 0.0
        grads["c"][t % 2, t - 1] = 0.0
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
