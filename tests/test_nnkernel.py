"""Kernel tests: dense/mse against scalar-loop oracles, dropout
expectation, gradient finite-difference checks, Adam behavior and
determinism."""

import gc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from vadeers.exceptions import ContractViolation
from vadeers.nnkernel import (
    AdamState,
    GradientTape,
    LayerSpec,
    adam_step,
    dense,
    exp,
    grad,
    init_layer_params,
    mlp_forward,
    mse,
    mul,
    reparameterize,
    square,
    tmean,
    tsum,
    weighted_sum,
    wrap,
)
from vadeers.nnkernel.layers import dropout_mask
from vadeers.nnkernel.losses import row_mse

import oracles
from oracles import (
    adam_out_of_place,
    assert_close,
    gradcheck,
    matmul_loops,
    mse_loops,
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
    tape = GradientTape()
    out = build({k: tape.parameter(k, v) for k, v in arrays.items()})
    return out.data, dict(grad(out, tape))


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
            total = total + mul(wrap(w), p[f"t{i}"])
        return total

    _assert_same_node(
        lambda p: weighted_sum([p[f"t{i}"] for i in range(len(weights))],
                               weights),
        composed, arrays)


# ---------------------------------------------------------------------------
# gradients
# ---------------------------------------------------------------------------

def test_grad_quadratic():
    tape = GradientTape()
    w = tape.parameter("w", [1.0, 2.0])
    loss = tsum(square(w))
    grads = grad(loss, tape)
    assert np.array_equal(grads["w"], [2.0, 4.0])


def test_grad_zero_for_unused_parameter():
    tape = GradientTape()
    w = tape.parameter("w", [1.0, 2.0])
    u = tape.parameter("unused", [3.0])
    loss = tsum(square(w))
    grads = grad(loss, tape)
    assert np.array_equal(grads["unused"], [0.0])


def test_grad_disconnected_loss_raises():
    tape = GradientTape()
    tape.parameter("w", [1.0])
    loss = tsum(square(wrap([2.0])))
    with pytest.raises(ContractViolation):
        grad(loss, tape)


def _mlp_loss(params_arrays, x, y, layers):
    tape = GradientTape()
    params = [(tape.parameter(f"w{i}", params_arrays[f"w{i}"]),
               tape.parameter(f"b{i}", params_arrays[f"b{i}"]))
              for i in range(len(layers))]
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
    grads = grad(loss, tape)

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
        tape = GradientTape()
        params = [(tape.parameter(f"w{i}", p[f"w{i}"]),
                   tape.parameter(f"b{i}", p[f"b{i}"]))
                  for i in range(len(layers))]
        out = mlp_forward(x, layers, params, mode="train",
                          rng=np.random.default_rng(11))
        return mse(out, y), tape

    loss, tape = loss_and_tape(arrays)
    grads = grad(loss, tape)
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
        tape = GradientTape()
        params = [(tape.parameter(f"w{i}", w), tape.parameter(f"b{i}", b))
                  for i, (w, b) in enumerate(arrays)]
        out = mlp_forward(x, layers, params, mode="train",
                          rng=np.random.default_rng(15))
        grads = grad(tsum(exp(out)), tape)
        del tape, params, out, grads
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_determinism_same_seed_same_values_and_grads():
    def build(seed):
        rng = np.random.default_rng(seed)
        layers = [LayerSpec(4, 4, "relu"), LayerSpec(4, 2, "identity")]
        tape = GradientTape()
        params = []
        arrays = {}
        for i, s in enumerate(layers):
            w, b = init_layer_params(rng, s)
            params.append((tape.parameter(f"w{i}", w),
                           tape.parameter(f"b{i}", b)))
        x = rng.standard_normal((3, 4))
        loss = mse(mlp_forward(x, layers, params), np.ones((3, 2)))
        return loss.data.tobytes(), {k: v.tobytes()
                                     for k, v in grad(loss, tape).items()}

    v1, g1 = build(123)
    v2, g2 = build(123)
    assert v1 == v2
    assert g1 == g2


# ---------------------------------------------------------------------------
# adam
# ---------------------------------------------------------------------------

def test_adam_zero_grads_leave_params_decay_moments():
    params = {"p": np.array([1.0, -2.0])}
    state = AdamState(m={"p": np.array([0.5, 0.5])},
                      v={"p": np.array([0.25, 0.25])}, step_index=3)
    new_params, new_state = adam_step(params, {"p": np.zeros(2)}, state, lr=0.1)
    assert np.array_equal(new_params["p"], params["p"])
    assert np.allclose(new_state.m["p"], 0.9 * 0.5)
    assert np.allclose(new_state.v["p"], 0.999 * 0.25)


def test_adam_first_step_moves_by_lr():
    # hand evaluation at t=1: m_hat = g, v_hat = g^2,
    # step = lr * g / (|g| + eps) ~= lr
    params = {"p": np.array([0.0])}
    new_params, _ = adam_step(params, {"p": np.array([1.0])}, AdamState(),
                              lr=0.1)
    expected = -0.1 * 1.0 / (1.0 + 1e-8)
    assert abs(new_params["p"][0] - expected) < 1e-15


def test_adam_converges_on_quadratic():
    params = {"p": np.array([0.0])}
    state = AdamState()
    for _ in range(100):
        g = 2.0 * (params["p"] - 3.0)
        params, state = adam_step(params, {"p": g}, state, lr=0.1)
    assert abs(params["p"][0] - 3.0) < 0.05


def test_adam_in_place_matches_out_of_place_oracle():
    rng = np.random.default_rng(13)
    params = {"a": rng.standard_normal((4, 3)), "b": rng.standard_normal(5),
              "idle": rng.standard_normal(2)}
    ref, m, v = dict(params), {}, {}
    arrays = dict(params)
    state = AdamState()
    for t in range(1, 6):
        grads = {"a": rng.standard_normal((4, 3)), "b": rng.standard_normal(5)}
        grads["a"][0] = 0.0
        grads["b"][t % 5] = 0.0
        if t == 3:
            grads["b"][:] = 0.0
        ref, m, v = adam_out_of_place(ref, grads, m, v, t, lr=0.01)
        out, state = adam_step(params, grads, state, lr=0.01)
        assert out is params and state.step_index == t
        for name in params:
            assert params[name] is arrays[name]  # updated in place
            assert params[name].tobytes() == ref[name].tobytes()
        for name in grads:
            assert state.m[name].tobytes() == m[name].tobytes()
            assert state.v[name].tobytes() == v[name].tobytes()
    assert "idle" not in state.m


def test_adam_runs_of_a_flat_store_match_out_of_place_oracle(monkeypatch):
    from vadeers.nnkernel import FlatStore, optim

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
        out, state = adam_step(params, grads, state, lr=0.01)
        assert out is params
        for name in params:
            assert params[name].tobytes() == ref[name].tobytes()
        for name in active:
            assert state.m[name].tobytes() == m[name].tobytes()
            assert state.v[name].tobytes() == v[name].tobytes()
    assert params["b"].tobytes() == frozen.tobytes()
    assert "b" not in state.m and "b" not in state.v
    assert sorted(state._runs) == [("a1", "a2"), ("c", "d")]
    assert sum(mv[0].size for mv in state._runs.values()) == 24


def test_adam_moments_follow_a_name_into_a_new_run():
    from vadeers.nnkernel import FlatStore

    rng = np.random.default_rng(15)
    params = FlatStore.from_arrays({n: rng.standard_normal(3) for n in "abc"})
    ref = {n: params[n].copy() for n in params}
    m, v = {}, {}
    state = AdamState()
    for t, names in enumerate((["a", "b"], ["b", "c"], ["a", "b", "c"]), 1):
        grads = params.gradient_store(names)
        for name in names:
            grads[name] = rng.standard_normal(3)
        ref, m, v = adam_out_of_place(ref, dict(grads), m, v, t, lr=0.1)
        adam_step(params, grads, state, lr=0.1)
        for name in params:
            assert params[name].tobytes() == ref[name].tobytes()
        for name in m:
            assert state.m[name].tobytes() == m[name].tobytes()
            assert state.v[name].tobytes() == v[name].tobytes()


def test_adam_shape_mismatch():
    with pytest.raises(ContractViolation):
        adam_step({"p": np.zeros(2)}, {"p": np.zeros(3)}, AdamState(), lr=0.1)
