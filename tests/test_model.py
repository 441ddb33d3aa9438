"""Model tests: encoder/decoder behavior, the composed loss of each
network, the entropy term, prior-variant equivalences, and
finite-difference checks of the full objective for all three variants."""

import math
import tracemalloc
from collections import Counter
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from vadeers import gmm
from vadeers.exceptions import ContractViolation, NumericError
from vadeers.model import (
    PREDICT_BLOCK_ROWS,
    PRIOR_VARIANTS,
    Batch,
    EncoderOutput,
    LossWeights,
    ModelConfig,
    VadeersModel,
    entropy_mean,
)
from vadeers.nnkernel import (
    AdamState,
    Tensor,
    adam_step,
    tmean,
    wrap,
)
from vadeers.nnkernel import parts

import oracles
from oracles import (
    assert_close,
    bound_tape,
    entropy_mc,
    entropy_rows,
    gaussian_logpdf_fsum,
    gradcheck,
    mse_loops,
    mul,
    tsum,
)

TOY = ModelConfig(
    smiles_dim=6, ip_dim=5, bio_dim=4, latent_dim=3,
    dvae_encoder_dims=(8,), decoder_dims=(7,), dspn_dims=(8, 6, 5),
    n_components=3, n_guiding_labels=2, prior_variant="gmm_unconstrained",
)


def toy_model(variant="gmm_unconstrained", seed=0, **overrides):
    config = ModelConfig(**{
        **{f: getattr(TOY, f) for f in TOY.__dataclass_fields__},
        "prior_variant": variant, **overrides,
    })
    return VadeersModel.initialize(config, np.random.default_rng(seed))


def toy_batch(seed=1, n_drugs=4, n_cells=3, config=TOY):
    rng = np.random.default_rng(seed)
    ip_mask = np.zeros(n_drugs)
    ip_mask[: n_drugs // 2 + 1] = 1.0
    labels = np.full(n_drugs, -1)
    labels[0] = 0
    if n_drugs > 1:
        labels[1] = 1
    pairs = [(i, j) for i in range(n_drugs) for j in range(n_cells)
             if rng.random() < 0.8]
    return Batch(
        x_smiles=rng.standard_normal((n_drugs, config.smiles_dim)),
        ip=rng.standard_normal((n_drugs, config.ip_dim)) * ip_mask[:, None],
        ip_mask=ip_mask,
        labels=labels,
        x_bio=rng.standard_normal((n_cells, config.bio_dim)),
        pair_drug=np.array([p[0] for p in pairs], dtype=np.intp),
        pair_cell=np.array([p[1] for p in pairs], dtype=np.intp),
        y=rng.standard_normal(len(pairs)),
    )


# ---------------------------------------------------------------------------
# encoder
# ---------------------------------------------------------------------------

def test_zero_weight_encoder_outputs_epsilon():
    model = toy_model()
    for name in model.params:
        if name.startswith("dvae.enc"):
            model.params[name] = np.zeros_like(model.params[name])
    x = np.random.default_rng(2).standard_normal((3, TOY.smiles_dim))
    enc = model.encode_drug(x, rng=np.random.default_rng(3))
    assert np.array_equal(enc.mu.data, np.zeros((3, 3)))
    assert np.array_equal(enc.log_sigma.data, np.zeros((3, 3)))
    # z = 0 + exp(0) * eps replays the rng's draw
    assert np.array_equal(enc.z.data,
                          np.random.default_rng(3).standard_normal((3, 3)))


def test_encoder_deterministic_for_fixed_seed():
    model = toy_model()
    x = np.random.default_rng(4).standard_normal((2, TOY.smiles_dim))
    a = model.encode_drug(x, rng=np.random.default_rng(7)).z.data
    b = model.encode_drug(x, rng=np.random.default_rng(7)).z.data
    assert np.array_equal(a, b)


def test_encoder_sample_mean_approaches_mu():
    model = toy_model(seed=5)
    x = np.random.default_rng(6).standard_normal((1, TOY.smiles_dim))
    enc = model.encode_drug(x, rng=np.random.default_rng(8))
    draws = 10_000
    tiled = np.repeat(x, draws, axis=0)
    out = model.encode_drug(tiled, rng=np.random.default_rng(9))
    sigma = np.exp(enc.log_sigma.data[0])
    tol = 3.0 * sigma / np.sqrt(draws) * np.sqrt(100)  # 3 sigma / 100 per dim
    assert np.all(np.abs(out.z.data.mean(axis=0) - enc.mu.data[0]) < tol)


def test_decoder_zero_weights_and_shapes():
    model = toy_model()
    for name in model.params:
        if name.startswith("dvae.dec"):
            model.params[name] = np.zeros_like(model.params[name])
    recon, ip_pred = model.decode_drug(np.ones((2, TOY.latent_dim)))
    assert recon.shape == (2, TOY.smiles_dim)
    assert ip_pred.shape == (2, TOY.ip_dim)
    assert np.array_equal(recon.data, np.zeros((2, TOY.smiles_dim)))


def test_default_decoder_widths_match_reference_shapes():
    config = ModelConfig()
    assert config.smiles_dim == 300 and config.ip_dim == 294
    model = VadeersModel.initialize(
        ModelConfig(dvae_encoder_dims=(4,), decoder_dims=(4,),
                    dspn_dims=(4, 4, 4)),
        np.random.default_rng(0),
    )
    recon, ip_pred = model.decode_drug(np.zeros((1, 10)))
    assert recon.shape == (1, 300)
    assert ip_pred.shape == (1, 294)


# ---------------------------------------------------------------------------
# entropy
# ---------------------------------------------------------------------------

def test_entropy_one_dim_unit_sigma():
    h = float(entropy_mean(np.zeros((1, 1))).data)
    assert abs(h - 0.5 * (1 + np.log(2 * np.pi))) < 1e-12
    assert abs(h - 1.418939) < 1e-6


def test_entropy_doubling_sigma_adds_d_log2():
    rng = np.random.default_rng(10)
    log_sigma = rng.normal(size=(1, 5))
    h1 = float(entropy_mean(log_sigma).data)
    h2 = float(entropy_mean(log_sigma + np.log(2.0)).data)
    assert abs((h2 - h1) - 5 * np.log(2.0)) < 1e-12


def test_entropy_matches_monte_carlo():
    rng = np.random.default_rng(11)
    log_sigma = rng.normal(0.0, 0.4, size=4)
    analytic = float(entropy_mean(log_sigma[None, :]).data)
    mc = entropy_mc(log_sigma, 100_000, np.random.default_rng(12))
    assert abs(mc - analytic) / abs(analytic) < 0.01


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 16), d=st.integers(1, 6),
       seed=st.integers(0, 2**32 - 1))
def test_entropy_and_vanilla_prior_nodes_match_composed_oracles(n, d, seed):
    rng = np.random.default_rng(seed)
    x = rng.normal(0.0, 1.5, size=(n, d))
    upstream = wrap(rng.normal(size=n))
    for fused, composed in (
            (entropy_mean, lambda t: tmean(oracles.entropy_rows(t))),
            (lambda t: tsum(mul(gmm.standard_normal_log_density_rows(t),
                                upstream)),
             lambda t: tsum(mul(oracles.standard_normal_log_density_rows(t),
                                upstream)))):
        values, grads = [], []
        for build in (fused, composed):
            tape, p = bound_tape({"x": x})
            out = build(p["x"])
            values.append(out.data)
            grads.append(tape.gradient(out)["x"])
        assert_close(values[0], values[1], 1e-12)
        assert_close(grads[0], grads[1], 1e-10)


# ---------------------------------------------------------------------------
# DVAE loss terms of one compound
# ---------------------------------------------------------------------------

def _enc_out(mu, log_sigma, z):
    mu, log_sigma, z = (np.atleast_2d(a) for a in (mu, log_sigma, z))
    return EncoderOutput(mu=Tensor(mu), log_sigma=Tensor(log_sigma),
                         z=Tensor(z))


def dvae_row_terms(x, recon, ip, ip_pred, enc, label, params, weights):
    """``VadeersModel.dvae_terms`` on a one-row batch, weighed by
    ``weights``, as floats.  ``ip``
    None is a drug without a profile; ``params`` None is the standard
    normal prior."""
    if params is None:
        model = VadeersModel(ModelConfig(latent_dim=enc.z.shape[1],
                                         prior_variant="vanilla"), {})
    else:
        k, d = params.means.shape
        model = VadeersModel(
            ModelConfig(latent_dim=d, n_components=k, n_guiding_labels=k,
                        prior_variant="gmm_unconstrained"),
            {"gmm.logits": params.mixture_logits, "gmm.means": params.means,
             "gmm.log_scales": params.log_scales})
    mask = [0.0 if ip is None else 1.0]
    if ip is None:
        ip = ip_pred = np.zeros(1)
    total, parts = weights.weigh(model.dvae_terms(
        enc, Tensor(np.atleast_2d(recon)), Tensor(np.atleast_2d(ip_pred)),
        np.atleast_2d(ip), mask, [-1 if label is None else label],
        np.atleast_2d(x), model.tape()))
    return float(total.data), parts


def test_dvae_loss_perfect_reconstruction_leaves_prior_entropy():
    rng = np.random.default_rng(13)
    params = gmm.GmmParams(np.zeros(2), rng.normal(size=(2, 3)),
                           np.zeros((2, 3)))
    x = rng.normal(size=6)
    ip = rng.normal(size=5)
    z = rng.normal(size=3)
    log_sigma = rng.normal(scale=0.2, size=3)
    enc = _enc_out(np.zeros(3), log_sigma, z)
    w = LossWeights()
    total, parts = dvae_row_terms(x, x, ip, ip, enc, None, params, w)
    mixture = gmm.semi_supervised_log_prior_rows(
        z[None, :], [-1], params.mixture_logits, params.means,
        params.log_scales).data[0]
    expected = -mixture - float(entropy_rows(log_sigma[None, :]).data[0])
    assert abs(total - expected) < 1e-12
    assert parts["smiles_recon"] == 0.0 and parts["ip_recon"] == 0.0


def test_dvae_loss_skips_missing_profile():
    rng = np.random.default_rng(14)
    params = gmm.GmmParams(np.zeros(2), rng.normal(size=(2, 3)),
                           np.zeros((2, 3)))
    x = rng.normal(size=6)
    recon = rng.normal(size=6)
    enc = _enc_out(np.zeros(3), np.zeros(3), rng.normal(size=3))
    total, parts = dvae_row_terms(x, recon, None, None, enc, 1, params,
                                  LossWeights())
    assert parts["ip_recon"] == 0.0
    assert parts["smiles_recon"] > 0.0


def test_dvae_loss_matches_component_oracles():
    rng = np.random.default_rng(15)
    params = gmm.GmmParams(
        rng.normal(size=3), rng.normal(size=(3, 4)),
        rng.normal(scale=0.3, size=(3, 4)))
    x, recon = rng.normal(size=6), rng.normal(size=6)
    ip, ip_pred = rng.normal(size=5), rng.normal(size=5)
    z = rng.normal(size=4)
    log_sigma = rng.normal(scale=0.3, size=4)
    w = LossWeights(smiles_recon=0.7, ip_recon=1.3, prior=0.9, entropy=1.1)
    label = 2
    total, parts = dvae_row_terms(x, recon, ip, ip_pred,
                                  _enc_out(np.zeros(4), log_sigma, z),
                                  label, params, w)
    expected = (
        0.7 * mse_loops(x, recon)
        + 1.3 * mse_loops(ip, ip_pred)
        - 0.9 * gaussian_logpdf_fsum(z, params.means[label],
                                     params.scales()[label])
        - 1.1 * (4 * 0.5 * (1 + np.log(2 * np.pi)) + log_sigma.sum())
    )
    assert abs(total - expected) < 1e-10
    assert abs(total - sum(parts.values())) < 1e-12


def test_vanilla_latent_terms_equal_directly_coded_elbo():
    # with weights 1 the prior+entropy terms are exactly the entropy-form
    # standard-normal objective coded from raw formulas
    rng = np.random.default_rng(16)
    x = rng.normal(size=6)
    z = rng.normal(size=3)
    log_sigma = rng.normal(scale=0.2, size=3)
    total, parts = dvae_row_terms(x, x, None, None,
                                  _enc_out(np.zeros(3), log_sigma, z),
                                  None, None, LossWeights())
    direct = (-gaussian_logpdf_fsum(z, np.zeros(3), np.ones(3))
              - (1.5 * (1 + np.log(2 * np.pi)) + log_sigma.sum()))
    assert abs(total - direct) < 1e-10


def test_dvae_loss_monotone_in_mse_terms():
    rng = np.random.default_rng(18)
    params = gmm.GmmParams(np.zeros(2), rng.normal(size=(2, 3)),
                           np.zeros((2, 3)))
    x = rng.normal(size=6)
    z = rng.normal(size=3)
    enc = _enc_out(np.zeros(3), np.zeros(3), z)
    base, _ = dvae_row_terms(x, x, None, None, enc, None, params,
                             LossWeights())
    worse, _ = dvae_row_terms(x, x + 0.5, None, None, enc, None, params,
                              LossWeights())
    assert worse > base


# ---------------------------------------------------------------------------
# CAE
# ---------------------------------------------------------------------------

def test_cae_zero_weights_loss_is_mean_square():
    model = toy_model()
    for name in model.params:
        if name.startswith("cae."):
            model.params[name] = np.zeros_like(model.params[name])
    x = np.random.default_rng(19).standard_normal((4, TOY.bio_dim))
    latent, loss = model.cae_loss_batch(model.tape(), x)
    assert np.array_equal(latent.data, np.zeros((4, TOY.latent_dim)))
    assert abs(float(loss.data) - np.mean(x**2)) < 1e-12


def test_cae_loss_nonnegative():
    model = toy_model(seed=20)
    x = np.random.default_rng(21).standard_normal((6, TOY.bio_dim))
    _, loss = model.cae_loss_batch(model.tape(), x)
    assert float(loss.data) >= 0.0


def test_cae_identity_capable_config_overfits():
    # linear CAE with bio_dim == latent_dim can represent the identity
    config = ModelConfig(
        smiles_dim=4, ip_dim=3, bio_dim=5, latent_dim=5,
        dvae_encoder_dims=(), decoder_dims=(), dspn_dims=(4,),
        prior_variant="vanilla",
    )
    model = VadeersModel.initialize(config, np.random.default_rng(22))
    x = np.random.default_rng(23).standard_normal((10, 5))
    state = AdamState()
    for _ in range(400):
        tape = model.tape()
        _, loss = model.cae_loss_batch(tape, x)
        grads = tape.gradient(loss)
        assert all(k.startswith("cae.") for k in grads)
        adam_step(model.params, grads, state, lr=0.02)
    _, final = model.cae_loss_batch(model.tape(), x)
    assert float(final.data) < 1e-3


# ---------------------------------------------------------------------------
# DSPN
# ---------------------------------------------------------------------------

def test_dspn_zero_weights_outputs_zero():
    model = toy_model()
    for name in model.params:
        if name.startswith("dspn."):
            model.params[name] = np.zeros_like(model.params[name])
    out = model.dspn_predict(np.ones((2, 3)), np.ones((2, 3)))
    assert np.array_equal(out.data, np.zeros(2))


def test_dspn_eval_deterministic():
    model = toy_model(seed=24)
    a = model.dspn_predict(np.ones((2, 3)), np.zeros((2, 3))).data
    b = model.dspn_predict(np.ones((2, 3)), np.zeros((2, 3))).data
    assert np.array_equal(a, b)


def test_dspn_inputs_are_positional():
    model = toy_model(seed=25)
    rng = np.random.default_rng(26)
    d = rng.standard_normal((3, 3))
    c = rng.standard_normal((3, 3))
    assert not np.allclose(model.dspn_predict(d, c).data,
                           model.dspn_predict(c, d).data)


B = PREDICT_BLOCK_ROWS
# the edges of the parts, and of 512-row blocks
BLOCK_EDGE_ROWS = [1, 2, B - 1, B, B + 1, 2 * B - 1, 2 * B, 2 * B + 1, 3 * B + 1,
                   511, 512, 513, 1023, 1024, 1025, 1537]
@pytest.mark.parametrize("n", BLOCK_EDGE_ROWS)
def test_predict_sensitivity_matches_one_shot(n):
    model = toy_model(seed=30)
    rng = np.random.default_rng(n)
    d = rng.standard_normal((n, 3))
    c = rng.standard_normal((n, 3))
    scored = model.predict_sensitivity(d, c)
    whole = model.dspn_predict(d, c).data
    if parts._blas_threads() == 1:
        assert np.array_equal(scored, whole)
    else:
        np.testing.assert_allclose(scored, whole, rtol=1e-12)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_predict_sensitivity_parts_give_one_graphs_bytes(monkeypatch, dtype):
    # the count is read when the test runs: conftest.py sets one BLAS
    # thread for the session, after the test modules are imported
    if parts._blas_threads() != 1:
        pytest.skip("parts keep the bits at one BLAS thread")
    model = VadeersModel.initialize(ModelConfig(), np.random.default_rng(35),
                                    dtype)
    rng = np.random.default_rng(36)
    width = model.config.latent_dim
    for n in [1, 239, 240, 479, 480, 500, 719, 720, 2_000, 12_345]:
        d = rng.standard_normal((n, width))
        c = rng.standard_normal((n, width))
        monkeypatch.setattr(parts, "_cpus", lambda: 2)
        two = model.predict_sensitivity(d, c)
        monkeypatch.setattr(parts, "_cpus", lambda: 1)
        one = model.predict_sensitivity(d, c)
        whole = model.dspn_predict(d, c).data
        assert np.array_equal(two, one) and np.array_equal(two, whole), n


def test_predict_sensitivity_blocks_are_never_short(monkeypatch):
    model = toy_model(seed=31)
    rows = []
    real = VadeersModel.dspn_predict

    def counting(self, drug_latent, cell_latent, *args, **kwargs):
        rows.append(len(drug_latent))
        return real(self, drug_latent, cell_latent, *args, **kwargs)

    monkeypatch.setattr(VadeersModel, "dspn_predict", counting)
    for n in BLOCK_EDGE_ROWS:
        rows.clear()
        model.predict_sensitivity(np.zeros((n, 3)), np.ones((n, 3)))
        assert sum(rows) == n
        if n < 2 * B:
            assert rows == [n]
        else:
            assert min(rows) >= B


def test_predict_sensitivity_memory_does_not_grow_with_rows():
    model = VadeersModel.initialize(ModelConfig(), np.random.default_rng(32))
    rng = np.random.default_rng(33)
    d = rng.standard_normal((20_000, model.config.latent_dim))
    c = rng.standard_normal((20_000, model.config.latent_dim))
    tracemalloc.start()
    try:
        model.predict_sensitivity(d, c)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one graph over all rows holds 20,000 x (20 + 512 + 256 + 128 + 1)
    # float64 activations, about 140 MiB
    assert peak < 32 * 2**20


def test_predict_sensitivity_rejects_unequal_row_counts():
    model = toy_model(seed=34)
    with pytest.raises(ContractViolation, match="latent shapes differ"):
        model.predict_sensitivity(np.zeros((2 * B, 3)), np.zeros((2 * B + 1, 3)))


@pytest.mark.parametrize("encode, x, message", [
    ("drug_latent_means", np.zeros(TOY.smiles_dim), "drug input must be 2-D"),
    ("drug_latent_means", np.full((2, TOY.smiles_dim), np.nan),
     "drug input contains non-finite entries"),
    ("drug_latent_means", np.zeros((2, TOY.smiles_dim + 1)),
     "drug input width 7 != smiles_dim 6"),
    ("cell_latents", np.zeros((2, TOY.bio_dim - 1)),
     "cell input width 3 != bio_dim 4"),
], ids=["drug_1d", "drug_nan", "drug_width", "cell_width"])
def test_encoders_reject_malformed_input(encode, x, message):
    # the library entry points check what they are given; the CLI's
    # readers check widths and values before these are reached
    with pytest.raises(ContractViolation, match=message):
        getattr(toy_model(seed=35), encode)(x)


def test_non_finite_encoder_head_is_a_numeric_error():
    model = toy_model(seed=36)
    model.params["dvae.enc.logsig.b"] = np.full(TOY.latent_dim, np.inf)
    with pytest.raises(NumericError, match="^non-finite activations after "
                                           "layer dvae.enc.logsig$"):
        model.drug_latent_means(np.zeros((2, TOY.smiles_dim)))


@pytest.mark.parametrize("variant", PRIOR_VARIANTS)
def test_every_parameter_is_a_layer_of_one_chain_or_a_mixture_array(variant):
    # so every dense layer is run, checked and named by mlp_forward
    model = toy_model(variant=variant)
    owners = Counter(n for chain in model.chains.values()
                     for pair in chain.params for n in pair)
    assert set(owners.values()) == {1}
    mixture = {"gmm.logits", "gmm.means", "gmm.log_scales"}
    assert set(model.param_shapes()) == (
        set(owners) | (mixture if model.config.uses_gmm else set()))


def test_configs_without_hidden_layers_keep_their_out_layer_names():
    # checkpoints of such configs store these names
    model = toy_model(dvae_encoder_dims=(), decoder_dims=(), dspn_dims=())
    s, i, b, d = TOY.smiles_dim, TOY.ip_dim, TOY.bio_dim, TOY.latent_dim
    layers = {"dvae.enc.mu": (s, d), "dvae.enc.logsig": (s, d),
              "dvae.dec_s.out": (d, s), "dvae.dec_i.out": (d, i),
              "cae.enc.out": (b, d), "cae.dec.out": (d, b),
              "dspn.out": (2 * d, 1)}
    k = TOY.n_components
    assert model.param_shapes() == {
        **{f"{n}.{p}": shape if p == "W" else shape[1:]
           for n, shape in layers.items() for p in "Wb"},
        "gmm.logits": (k,), "gmm.means": (k, d), "gmm.log_scales": (k, d)}
    assert sorted(model.params) == sorted(model.param_shapes())


# ---------------------------------------------------------------------------
# total loss
# ---------------------------------------------------------------------------

def test_total_loss_weight_masking():
    model = toy_model(variant="vanilla", seed=27)
    batch = toy_batch(seed=28)
    w = LossWeights(smiles_recon=1.0, ip_recon=0.0, prior=0.0, entropy=0.0,
                    cae=0.0, dspn=0.0)
    rng = np.random.default_rng(29)
    loss, parts = w.weigh(model.total_loss(model.tape(), batch, rng,
                                           mode="eval"))
    # the same rng stream must be replayed for the reference pass
    rng2 = np.random.default_rng(29)
    enc = model.encode_drug(batch.x_smiles, rng=rng2)
    recon, _ = model.decode_drug(enc.z)
    expected = np.mean(np.mean((recon.data - batch.x_smiles) ** 2, axis=1))
    assert abs(float(loss.data) - expected) < 1e-12


def test_total_loss_breakdown_sums_to_total():
    for variant in ("vanilla", "gmm_constrained", "gmm_unconstrained"):
        model = toy_model(variant=variant, seed=30)
        batch = toy_batch(seed=31)
        loss, parts = LossWeights().weigh(model.total_loss(
            model.tape(), batch, np.random.default_rng(32), mode="eval"))
        assert abs(float(loss.data) - sum(parts.values())) < 1e-12


@pytest.mark.parametrize("order", ["fields", "reversed"])
def test_loss_weights_weigh_matches_a_signed_oracle(order):
    # prior and entropy enter negated; a zero weight leaves its term out
    w = LossWeights(smiles_recon=0.7, ip_recon=0.0, prior=0.5, entropy=2.0,
                    cae=1.3, dspn=3.0)
    names = [f.name for f in fields(LossWeights)]
    if order == "reversed":
        names.reverse()
    rng = np.random.default_rng(80)
    tape, terms = bound_tape({k: rng.normal(size=()) for k in names})
    loss, weighted = w.weigh(terms)
    signed = {k: (-1.0 if k in ("prior", "entropy") else 1.0) * getattr(w, k)
              for k in names}
    values = {k: float(terms[k].data) for k in names}
    assert list(weighted) == names
    assert weighted == {k: signed[k] * values[k] for k in names}
    assert float(loss.data) == pytest.approx(
        math.fsum(signed[k] * values[k] for k in names), rel=1e-15)
    grads = tape.gradient(loss)
    assert {k: float(grads[k]) for k in names} == signed


def test_unobserved_pairs_do_not_change_dspn_term():
    # the sensitivity term runs over the supplied observed pairs only, so
    # repeating the loss with the identical pair list but a different
    # z-sampling stream leaves the (mean-fed) term unchanged; the
    # structural filter that drops unobserved pairs is exercised in the
    # batch-assembly tests
    model = toy_model(seed=36)
    batch = toy_batch(seed=37)
    w = LossWeights(smiles_recon=0, ip_recon=0, prior=0, entropy=0, cae=0,
                    dspn=1)
    loss_a, _ = w.weigh(model.total_loss(model.tape(), batch,
                                         np.random.default_rng(38), mode="eval"))
    loss_b, _ = w.weigh(model.total_loss(model.tape(), batch,
                                         np.random.default_rng(39), mode="eval"))
    assert float(loss_a.data) == float(loss_b.data)


def test_total_loss_gradients_all_variants():
    # finite differences through the full objective on a 4-drug/3-cell batch
    batch = toy_batch(seed=40)
    for variant in ("vanilla", "gmm_constrained", "gmm_unconstrained"):
        model = toy_model(variant=variant, seed=41)
        frozen = model.frozen_names()

        def run(arrays):
            probe = VadeersModel(model.config, arrays)
            tape = probe.tape()
            loss, _ = LossWeights().weigh(probe.total_loss(
                tape, batch, np.random.default_rng(42), mode="eval"))
            return loss, tape

        loss, tape = run(model.params)
        grads = tape.gradient(loss)
        trainable = {k: v for k, v in model.params.items() if k not in frozen}

        def f(p):
            full = {**model.params, **p}
            l, _ = run(full)
            return float(l.data)

        rng = np.random.default_rng(43)
        ok, detail = gradcheck(f, trainable, grads, rng, n_coords=60)
        assert ok, f"{variant}: {detail}"


def test_dspn_input_switch_feeds_sample_instead_of_mean():
    batch = toy_batch(seed=50)
    w = LossWeights(smiles_recon=0, ip_recon=0, prior=0, entropy=0, cae=0,
                    dspn=1)
    mean_fed = toy_model(seed=51, dspn_input="mean")
    sample_fed = toy_model(seed=51, dspn_input="sample")
    loss_mean_a, _ = w.weigh(mean_fed.total_loss(
        mean_fed.tape(), batch, np.random.default_rng(1), mode="eval"))
    loss_mean_b, _ = w.weigh(mean_fed.total_loss(
        mean_fed.tape(), batch, np.random.default_rng(2), mode="eval"))
    loss_samp_a, _ = w.weigh(sample_fed.total_loss(
        sample_fed.tape(), batch, np.random.default_rng(1), mode="eval"))
    loss_samp_b, _ = w.weigh(sample_fed.total_loss(
        sample_fed.tape(), batch, np.random.default_rng(2), mode="eval"))
    # mean-fed predictor ignores the z draw; sample-fed follows it
    assert float(loss_mean_a.data) == float(loss_mean_b.data)
    assert float(loss_samp_a.data) != float(loss_samp_b.data)


def test_constrained_log_scales_never_registered():
    model = toy_model(variant="gmm_constrained", seed=44)
    batch = toy_batch(seed=45)
    tape = model.tape()
    loss, _ = LossWeights().weigh(model.total_loss(
        tape, batch, np.random.default_rng(46)))
    grads = tape.gradient(loss)
    assert "gmm.log_scales" not in grads
    assert "gmm.means" in grads


def _graph_nodes(root) -> int:
    seen, stack = {id(root)}, [root]
    while stack:
        for p in stack.pop().parents:
            if id(p) not in seen:
                seen.add(id(p))
                stack.append(p)
    return len(seen)


def test_loss_graphs_stay_small():
    # each DVAE loss term is one node: a break step's graph is its ten
    # dense layers, their twenty weight leaves, the input, the three GMM
    # leaves and the loss nodes, whatever the widths
    config = ModelConfig(smiles_dim=32, ip_dim=24, bio_dim=20,
                         prior_variant="gmm_unconstrained")
    model = VadeersModel.initialize(config, np.random.default_rng(70))
    batch = toy_batch(seed=71, n_drugs=8, n_cells=5, config=config)
    tape = model.tape()
    terms, _ = model.dvae_loss_batch(
        tape, batch.x_smiles, batch.ip, batch.ip_mask, batch.labels,
        np.random.default_rng(72))
    loss, _ = LossWeights().weigh(terms)
    assert _graph_nodes(loss) <= 45
    tape = model.tape()
    loss, _ = LossWeights().weigh(model.total_loss(
        tape, batch, np.random.default_rng(73), mode="train"))
    assert _graph_nodes(loss) <= 95


# ---------------------------------------------------------------------------
# flat parameter store
# ---------------------------------------------------------------------------

def test_params_are_views_of_flat_in_sorted_order():
    model = toy_model(variant="gmm_constrained")
    offset = 0
    for name in sorted(model.params):
        view = model.params[name]
        assert view.base is model.flat or view.base.base is model.flat
        assert np.shares_memory(view, model.flat)
        assert np.array_equal(view.reshape(-1),
                              model.flat[offset: offset + view.size])
        offset += view.size
    assert offset == model.flat.size
    assert list(model.params) == sorted(model.params)


def test_flat_bytes_are_the_checkpoint_payload(tmp_path):
    from vadeers.data import Scaler
    from vadeers.training import Checkpoint, load_checkpoint, save_checkpoint

    model = toy_model(variant="gmm_constrained")
    widths = {"embedding": TOY.smiles_dim, "ip": TOY.ip_dim,
              "cell": TOY.bio_dim}
    identity = Scaler.from_dict({
        **{f"{part}_{stat}": [float(stat == "std")] * n
           for part, n in widths.items() for stat in ("mean", "std")},
        "cell_binary": [False] * TOY.bio_dim, "ic50_mean": 0.0,
        "ic50_std": 1.0})
    path = tmp_path / "m.bin"
    save_checkpoint(Checkpoint(model, identity, None,
                               {"train": [], "val": [], "test": []}, 0), path)
    payload = model.flat.tobytes()
    assert path.read_bytes()[-len(payload):] == payload
    assert load_checkpoint(path).model.flat.tobytes() == payload


def test_param_assignment_copies_into_the_view():
    model = toy_model()
    view = model.params["dspn.out.b"]
    model.params["dspn.out.b"] = np.array([2.5])
    assert model.params["dspn.out.b"] is view
    assert view[0] == 2.5 and 2.5 in model.flat
    with pytest.raises(ContractViolation):
        model.params["dspn.out.b"] = np.zeros(2)
    with pytest.raises(ContractViolation):
        model.params["dspn.nope"] = np.zeros(1)


def test_a_float32_model_changes_its_parameters_only_by_assignment():
    # its passes read a float32 copy of the master, so the master's views
    # are read-only, and assigning a new mapping refreshes the copy
    master = toy_model()
    model = VadeersModel(master.config, master.params.copy(), np.float32)
    batch = toy_batch(seed=80)
    mu = model.drug_latent_means(batch.x_smiles)[batch.pair_drug]
    lat = model.cell_latents(batch.x_bio)[batch.pair_cell]
    before = model.predict_sensitivity(mu, lat)
    with pytest.raises(ValueError, match="read-only"):
        model.params["dspn.out.b"][0] = 1.0
    with pytest.raises(ValueError, match="read-only"):
        model.flat[0] = 1.0
    with pytest.raises(ContractViolation, match="'dspn.out.b' is read-only"):
        model.params["dspn.out.b"] = np.array([1.0])
    model.params = {**model.params,
                    "dspn.out.b": model.params["dspn.out.b"] + 1.0}
    assert model.working.flat.tobytes() == \
        model.flat.astype(np.float32).tobytes()
    assert np.allclose(model.predict_sensitivity(mu, lat), before + 1.0,
                       rtol=0, atol=1e-5)
    model.master["dspn.out.b"] = np.array([0.0])  # the optimizer's handle
    assert model.params["dspn.out.b"][0] == 0.0


def test_model_copy_shares_no_memory():
    model = toy_model()
    clone = model.copy()
    assert not np.shares_memory(clone.flat, model.flat)
    for name in model.params:
        assert not np.shares_memory(clone.params[name], model.flat)
        assert np.array_equal(clone.params[name], model.params[name])
    clone.params["dspn.out.b"] = np.array([7.0])
    assert model.params["dspn.out.b"][0] != 7.0


def test_reused_gradient_vector_matches_a_fresh_one_bit_for_bit():
    batch = toy_batch(seed=60)
    for variant in ("vanilla", "gmm_constrained"):
        model = toy_model(variant=variant, seed=61)
        grads = []
        for probe in (model, model.copy()):
            tape = probe.tape()
            tape("cae.dec.out.b")  # registered, but no path reaches it
            terms, _ = probe.dvae_loss_batch(
                tape, batch.x_smiles, batch.ip, batch.ip_mask, batch.labels,
                np.random.default_rng(62))
            loss, _ = LossWeights().weigh(terms)
            if probe is model:
                # what the reused vector held must not leak into a slice
                model.params.gradient_store(model.params).flat[:] = np.nan
            grads.append(tape.gradient(loss))
        reused, fresh = grads
        assert list(reused) == list(fresh)
        assert reused.layout is model.params.layout
        assert not np.shares_memory(reused.flat, fresh.flat)
        for name in fresh:
            assert reused[name].tobytes() == fresh[name].tobytes()
        assert not reused["cae.dec.out.b"].any()
