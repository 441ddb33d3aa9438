"""Acceptance criteria, one test per criterion.

Each test prints one ``ACCEPTANCE <n> PASS/FAIL`` line.  Criteria 3-6
share the session-scoped trained variants (desk-scale synthetic data);
criterion 7 uses the run trained under the stock default schedule.
"""

import functools
import json
import time

import numpy as np
import pytest

from vadeers import gmm
from vadeers.cli import main as cli_main
from vadeers.data import kmeans
from vadeers.metrics import (
    cluster_stats,
    generation_fidelity,
    pca2,
    silhouette,
)
from vadeers.model import (
    Batch,
    LossWeights,
    ModelConfig,
    VadeersModel,
)
from vadeers.nnkernel import GradientTape, grad
from vadeers.training import check_schedule_conformance

from oracles import (
    cluster_stats_two_pass,
    covariance_eigvals,
    entropy_mc,
    exhaustive_kmeans_inertia,
    gradcheck,
    mixture_logpdf_bruteforce,
    responsibilities_bayes,
)


def criterion(n, description):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {n} FAIL - {description}")
                raise
            print(f"ACCEPTANCE {n} PASS - {description}")
        return wrapper
    return deco


# ---------------------------------------------------------------------------
# criterion 1: gradient suite for every composed loss, all variants, < 30 s
# ---------------------------------------------------------------------------

TOY = dict(smiles_dim=6, ip_dim=5, bio_dim=4, latent_dim=3,
           dvae_encoder_dims=(8,), decoder_dims=(7,), dspn_dims=(8, 6),
           n_components=3, n_guiding_labels=2)


def _toy_batch(config, seed):
    rng = np.random.default_rng(seed)
    n_drugs, n_cells = 4, 3
    mask = np.array([1.0, 1.0, 0.0, 1.0])
    pairs = [(i, j) for i in range(n_drugs) for j in range(n_cells)]
    return Batch(
        x_smiles=rng.standard_normal((n_drugs, config.smiles_dim)),
        ip=rng.standard_normal((n_drugs, config.ip_dim)) * mask[:, None],
        ip_mask=mask,
        labels=np.array([0, 1, -1, -1]),
        x_bio=rng.standard_normal((n_cells, config.bio_dim)),
        pair_drug=np.array([p[0] for p in pairs], dtype=np.intp),
        pair_cell=np.array([p[1] for p in pairs], dtype=np.intp),
        y=rng.standard_normal(len(pairs)),
    )


@criterion(1, "gradient suite: finite differences for the per-compound, "
              "autoencoder, predictor, and composite losses, all variants")
def test_criterion_1_gradient_suite():
    started = time.monotonic()
    weights = LossWeights()

    def check(model, batch, loss_builder, n_coords=50):
        frozen = model.frozen_names()

        def run(arrays):
            probe = VadeersModel(model.config, arrays)
            tape = GradientTape()
            return loss_builder(probe, probe.binder(tape), batch), tape

        loss, tape = run(model.params)
        grads = grad(loss, tape)
        trainable = {k: v for k, v in model.params.items()
                     if k not in frozen and k in grads}

        def f(p):
            l, _ = run({**model.params, **p})
            return float(l.data)

        ok, detail = gradcheck(f, trainable, grads,
                               np.random.default_rng(0), n_coords=n_coords)
        assert ok, detail

    def dvae_only(probe, binder, batch):
        loss, _, _ = probe.dvae_loss_batch(
            binder, batch.x_smiles, batch.ip, batch.ip_mask, batch.labels,
            weights, np.random.default_rng(1))
        return loss

    def cae_only(probe, binder, batch):
        _, loss = probe.cae_loss_batch(binder, batch.x_bio)
        return loss

    def dspn_only(probe, binder, batch):
        enc = probe.encode_drug(batch.x_smiles, binder, sample=False)
        from vadeers.nnkernel import Tensor, square, sub, take_rows, tmean
        cell_latent = probe.cae_encode(batch.x_bio, binder)
        preds = probe.dspn_predict(
            take_rows(enc.mu, batch.pair_drug),
            take_rows(cell_latent, batch.pair_cell), binder)
        return tmean(square(sub(preds, Tensor(batch.y))))

    def composite(probe, binder, batch):
        loss, _, _ = probe.total_loss(binder, batch, weights,
                                      np.random.default_rng(2), mode="eval")
        return loss

    for variant in ("vanilla", "gmm_constrained", "gmm_unconstrained"):
        config = ModelConfig(prior_variant=variant, **TOY)
        model = VadeersModel.initialize(config, np.random.default_rng(3))
        batch = _toy_batch(config, seed=4)
        check(model, batch, dvae_only)
        check(model, batch, cae_only)
        check(model, batch, dspn_only)
        check(model, batch, composite)

    assert time.monotonic() - started < 30.0


# ---------------------------------------------------------------------------
# criterion 2: GMM oracle suite
# ---------------------------------------------------------------------------

@criterion(2, "mixture density, responsibilities, and entropy match "
              "brute-force/analytic oracles; zero-label prior is pointwise "
              "the mixture")
def test_criterion_2_gmm_oracles():
    rng = np.random.default_rng(5)
    params = gmm.GmmParams(
        mixture_logits=rng.normal(size=3),
        means=rng.normal(0, 2, size=(3, 4)),
        log_scales=rng.normal(0, 0.3, size=(3, 4)),
    )
    for _ in range(20):
        z = rng.normal(0, 2, size=4)
        brute = mixture_logpdf_bruteforce(z, params.weights(), params.means,
                                          params.scales())
        assert abs(gmm.log_mixture_density(z, params) - brute) < 1e-9
        bayes = responsibilities_bayes(z, params.weights(), params.means,
                                       params.scales())
        assert np.max(np.abs(gmm.responsibilities(z, params) - bayes)) < 1e-10

    from vadeers.model import entropy_mean
    log_sigma = rng.normal(0, 0.4, size=5)
    analytic = entropy_mean(log_sigma[None, :]).item()
    mc = entropy_mc(log_sigma, 100_000, np.random.default_rng(6))
    assert abs(mc - analytic) / abs(analytic) < 0.01

    z = rng.normal(0, 2, size=(1000, 4))
    semi = gmm.semi_supervised_log_prior_rows(
        z, np.full(1000, -1), params.mixture_logits, params.means,
        params.log_scales)
    mix = gmm.mixture_log_density_rows(
        z, params.mixture_logits, params.means, params.log_scales)
    assert np.array_equal(semi.data, mix.data)


# ---------------------------------------------------------------------------
# criteria 3-6: trained desk-scale models
# ---------------------------------------------------------------------------

@criterion(3, "clustering transfer: latent Silhouette ordering "
              "constrained > vanilla, both mixture variants > 0.2")
def test_criterion_3_clustering_transfer(trained_variants):
    for variant, tv in trained_variants.items():
        assert tv.train_seconds <= 120.0, \
            f"{variant} took {tv.train_seconds:.0f}s"
    sil = {v: tv.report.silhouette_latent
           for v, tv in trained_variants.items()}
    assert sil["gmm_constrained"] > sil["vanilla"], sil
    assert sil["gmm_constrained"] > 0.2, sil
    assert sil["gmm_unconstrained"] > 0.2, sil


def _generated_profiles(tv, n_per_component, seed):
    model = tv.result.model
    gp = model.gmm_params()
    rng = np.random.default_rng(seed)
    rows, comps = [], []
    for k in range(gp.n_components):
        z = gmm.sample_component(k, gp, n_per_component, rng)
        _, ip = model.decode_drug(z)
        rows.append(ip.data)
        comps.append(np.full(n_per_component, k))
    return np.concatenate(rows), np.concatenate(comps)


@criterion(4, "guided generation: generated-profile Silhouette > 0.15 for "
              "both mixture variants, constrained > unconstrained, "
              "nearest-centroid classification > 90%")
def test_criterion_4_guided_generation(trained_variants, desk_data):
    dataset, _ = desk_data
    sil = {}
    for variant in ("gmm_constrained", "gmm_unconstrained"):
        tv = trained_variants[variant]
        sil[variant] = tv.report.silhouette_generated
        assert sil[variant] > 0.15, sil

        # classify generated profiles against the true cluster centroids
        rows_std, comps = _generated_profiles(tv, 300, seed=100)
        gen_nat = tv.result.scaler.inverse_ip(rows_std)
        labels = tv.labels
        idx = dataset.drug_index()
        true_rows = np.stack([dataset.drugs[idx[i]].inhibition_profile
                              for i in sorted(labels)])
        true_labs = np.array([labels[i] for i in sorted(labels)])
        stats = cluster_stats(true_rows, true_labs)
        cents = np.stack([stats.centroids[l] for l in sorted(stats.centroids)])
        lab_order = sorted(stats.centroids)
        assigned = np.array([
            lab_order[int(np.argmin(np.linalg.norm(cents - row, axis=1)))]
            for row in gen_nat
        ])
        matching = generation_fidelity(true_rows, true_labs, gen_nat,
                                       comps).matching
        want = np.array([matching[c] for c in comps])
        accuracy = float(np.mean(assigned == want))
        assert accuracy > 0.9, f"{variant}: {accuracy:.3f}"

    assert sil["gmm_constrained"] > sil["gmm_unconstrained"], sil


@criterion(5, "generation fidelity: unconstrained centroid Pearson > 0.9; "
              "constrained generated within-cluster STD strictly below "
              "unconstrained")
def test_criterion_5_generation_fidelity(trained_variants):
    unc = trained_variants["gmm_unconstrained"].report
    con = trained_variants["gmm_constrained"].report
    assert unc.centroid_pearson > 0.9, unc.centroid_pearson
    assert con.gen_std_mean < unc.gen_std_mean, \
        (con.gen_std_mean, unc.gen_std_mean)


@criterion(6, "prediction: held-out-cell-line Pearson > 0.8 for every "
              "variant, spread below 0.03")
def test_criterion_6_prediction(trained_variants):
    values = {v: tv.report.ic50_pearson for v, tv in trained_variants.items()}
    for variant, value in values.items():
        assert value > 0.8, values
    assert max(values.values()) - min(values.values()) < 0.03, values


# ---------------------------------------------------------------------------
# criterion 7: protocol conformance under the stock defaults
# ---------------------------------------------------------------------------

@criterion(7, "protocol: 150/50 phase split, breaks at every 1000 steps, "
              "constant frozen hashes, lr decay x0.1 per 10 epochs")
def test_criterion_7_protocol_conformance(conformance_run):
    result, schedule, _ = conformance_run
    assert schedule.joint_epochs == 150 and schedule.dspn_epochs == 50
    assert schedule.total_epochs == 200
    assert schedule.lr_joint == 0.005 and schedule.lr_dspn == 0.001
    assert schedule.batch_size == 128
    assert schedule.dvae_break_every_steps == 1000
    assert schedule.dvae_break_epochs == 100
    assert schedule.dvae_break_batch == 8
    assert schedule.dspn_lr_decay == 0.1
    assert schedule.dspn_lr_decay_every == 10

    runlog = result.runlog
    assert check_schedule_conformance(runlog, schedule) == []

    joint = [e for e in runlog.epochs if e["phase"] == 1]
    phase2 = [e for e in runlog.epochs if e["phase"] == 2]
    assert len(joint) == 150 and len(phase2) == 50

    total_steps = joint[-1]["joint_step"]
    breaks = [e["at_joint_step"] for e in runlog.events
              if e["event"] == "break_start"]
    assert total_steps >= 2000, "dataset too small to exercise breaks"
    assert breaks == [1000 * (i + 1) for i in range(total_steps // 1000)]

    hashes = {e["hash"] for e in runlog.events if e["event"] == "freeze_check"}
    assert len(hashes) == 1

    for e in phase2:
        assert e["lr"] == pytest.approx(
            0.001 * 0.1 ** (e["phase_epoch"] // 10), rel=1e-12)

    # the loss-decrease sanity check from the training contract
    assert joint[-1]["loss_total"] < 0.5 * joint[0]["loss_total"]


# ---------------------------------------------------------------------------
# criterion 8: determinism
# ---------------------------------------------------------------------------

@criterion(8, "determinism: repeated runs with equal seeds reproduce all "
              "metrics to 1e-9")
def test_criterion_8_determinism(tmp_path, trained_variants, desk_data):
    # library level: evaluating twice reproduces the report exactly
    from vadeers.metrics import evaluate
    tv = trained_variants["gmm_constrained"]
    dataset, _ = desk_data
    a = evaluate(tv.result.model, dataset, tv.result.dataset_std,
                 tv.result.split, tv.result.scaler, labels=tv.labels, seed=3)
    b = evaluate(tv.result.model, dataset, tv.result.dataset_std,
                 tv.result.split, tv.result.scaler, labels=tv.labels, seed=3)
    assert a == b

    # command level: full train command repeated end to end
    data_dir = tmp_path / "data"
    assert cli_main(["synth", "--out", str(data_dir), "--seed", "2",
                     "--n-drugs", "20", "--n-profiled", "10",
                     "--n-cells", "16"]) == 0
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "model": {"latent_dim": 4, "dvae_encoder_dims": [12, 6],
                  "decoder_dims": [6, 12], "dspn_dims": [16, 8, 6]},
        "schedule": {"joint_epochs": 2, "dspn_epochs": 1, "batch_size": 32},
        "split": {"n_val_cells": 3, "n_test_cells": 3},
    }))
    reports = []
    for name in ("r1", "r2"):
        out = tmp_path / name
        assert cli_main(["train", "--data", str(data_dir), "--out", str(out),
                         "--config", str(cfg), "--seed", "4",
                         "--variant", "gmm_unconstrained"]) == 0
        reports.append(json.loads((out / "report_val.json").read_text()))
    for key in ("ic50_rmse", "ic50_pearson", "ip_rmse"):
        assert abs(reports[0][key] - reports[1][key]) < 1e-9
    assert reports[0] == reports[1]


# ---------------------------------------------------------------------------
# criterion 9: utility oracle equivalence
# ---------------------------------------------------------------------------

@criterion(9, "utilities match their oracles: k-means exhaustive optimum, "
              "silhouette hand case, PCA eigenvalues, cluster stats")
def test_criterion_9_utility_oracles():
    rng = np.random.default_rng(7)
    # k-means vs exhaustive enumeration on n <= 8 instances
    for n, k, trial in ((6, 2, 0), (7, 2, 1), (8, 3, 2), (5, 2, 3)):
        pts = rng.standard_normal((n, 2))
        _, _, inertia = kmeans(pts, k, seed=trial)
        assert abs(inertia - exhaustive_kmeans_inertia(pts, k)) < 1e-9

    # silhouette hand computation
    pts = np.array([[0.0], [1.0], [10.0], [11.0]])
    labels = np.array([0, 0, 1, 1])
    expected = ((10.5 - 1) / 10.5 + (9.5 - 1) / 9.5) / 2
    assert abs(silhouette(pts, labels) - expected) < 1e-12

    # PCA explained variance vs an independent eigen solver
    pts = rng.standard_normal((60, 5)) @ np.diag([4, 3, 2, 1, 0.5])
    _, explained = pca2(pts)
    eig = covariance_eigvals(pts)
    fractions = eig / eig.sum()
    assert abs(explained[0] - fractions[0]) < 1e-8
    assert abs(explained[1] - fractions[1]) < 1e-8

    # cluster stats vs the two-pass oracle
    rows = rng.standard_normal((30, 4))
    labs = rng.integers(0, 3, size=30)
    stats = cluster_stats(rows, labs)
    for lab, (mean, std) in cluster_stats_two_pass(rows, labs).items():
        assert np.max(np.abs(stats.centroids[lab] - mean)) < 1e-12
        assert np.max(np.abs(stats.stds[lab] - std)) < 1e-12
