"""Shared fixtures.

The expensive pieces are session-scoped: one desk-scale synthetic dataset
with three trained prior variants (used by the acceptance suite and a few
protocol tests), and one small run under the stock default schedule
(150+50 epochs, breaks every 1000 steps) for the conformance checks.
The metrics that acceptance criteria 3-6 bound, and their bounds, are
plain functions and a table here, so that ``scripts/repro.py envelope``
measures what those tests check.

The session runs BLAS on one thread, as every CLI command does.
"""

import operator
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from vadeers import gmm
from vadeers.data import (
    SynthSpec,
    derive_guiding_labels,
    generate_synthetic_with_truth,
)
from vadeers.metrics import (MetricReport, cluster_stats, evaluate,
                             generation_fidelity)
from vadeers.model import LossWeights, ModelConfig
from vadeers.nnkernel.parts import use_one_blas_thread
from vadeers.training import SplitSpec, TrainResult, TrainSchedule, train

DESK_SEED = 7

DESK_SPEC = SynthSpec(smiles_dim=32, ip_dim=24, bio_dim=20)

DESK_SCHEDULE = dict(joint_epochs=20, dspn_epochs=10, seed=DESK_SEED)

VARIANTS = ("vanilla", "gmm_constrained", "gmm_unconstrained")


@pytest.fixture(scope="session", autouse=True)
def one_blas_thread():
    """One BLAS thread for the whole session, whatever the environment
    says, so that a local run computes as CI and the CLI do."""
    use_one_blas_thread()


@dataclass
class TrainedVariant:
    result: TrainResult
    report: MetricReport
    labels: dict[str, int]
    train_seconds: float


# metric -> (criterion, relation, bound) of acceptance criteria 3-6, as
# the desk variants must meet them; a gap is the first-named variant's
# value less the second's
THRESHOLDS = {
    "train_seconds.max": (3, "<=", 120.0),
    "silhouette_latent.gmm_constrained": (3, ">", 0.2),
    "silhouette_latent.gmm_unconstrained": (3, ">", 0.2),
    "silhouette_latent.gap.gmm_constrained-vanilla": (3, ">", 0.0),
    "silhouette_generated.gmm_constrained": (4, ">", 0.15),
    "silhouette_generated.gmm_unconstrained": (4, ">", 0.15),
    "silhouette_generated.gap.gmm_constrained-gmm_unconstrained": (4, ">", 0.0),
    "generated_accuracy.gmm_constrained": (4, ">", 0.9),
    "generated_accuracy.gmm_unconstrained": (4, ">", 0.9),
    "centroid_pearson.gmm_unconstrained": (5, ">", 0.9),
    "gen_std_mean.gap.gmm_unconstrained-gmm_constrained": (5, ">", 0.0),
    "ic50_pearson.vanilla": (6, ">", 0.8),
    "ic50_pearson.gmm_constrained": (6, ">", 0.8),
    "ic50_pearson.gmm_unconstrained": (6, ">", 0.8),
    "ic50_pearson.spread": (6, "<", 0.03),
}
RELATIONS = {"<=": operator.le, "<": operator.lt, ">": operator.gt}


def make_desk_data():
    """The desk-scale synthetic dataset with three guiding labels, and its
    planted truth."""
    dataset, truth = generate_synthetic_with_truth(DESK_SPEC, seed=DESK_SEED)
    return derive_guiding_labels(dataset, n_labels=3, seed=DESK_SEED), truth


def train_desk_variants(dataset, seed: int = DESK_SEED
                        ) -> dict[str, TrainedVariant]:
    """All three prior variants trained on the desk data at schedule seed
    ``seed``, and each one's report at evaluation seed ``DESK_SEED``."""
    out = {}
    for variant in VARIANTS:
        config = ModelConfig(
            smiles_dim=DESK_SPEC.smiles_dim, ip_dim=DESK_SPEC.ip_dim,
            bio_dim=DESK_SPEC.bio_dim, latent_dim=10, prior_variant=variant,
        )
        started = time.monotonic()
        result = train(dataset, config,
                       TrainSchedule(**{**DESK_SCHEDULE, "seed": seed}),
                       LossWeights(),
                       SplitSpec(n_val_cells=25, n_test_cells=25,
                                 seed=DESK_SEED))
        elapsed = time.monotonic() - started
        report = evaluate(result.checkpoint, dataset, seed=DESK_SEED).report
        out[variant] = TrainedVariant(
            result=result, report=report,
            labels=result.checkpoint.guiding_labels, train_seconds=elapsed)
    return out


def generated_accuracy(tv: TrainedVariant, dataset) -> float:
    """Criterion 4's share of generated profiles, 300 per component at
    seed 100, whose nearest true cluster centroid is the guiding label
    their component is matched to."""
    model = tv.result.checkpoint.model
    gp = model.gmm_params()
    rng = np.random.default_rng(100)
    rows, comps = [], []
    for k in range(gp.n_components):
        z = gmm.sample_component(k, gp, 300, rng)
        rows.append(model.decode_drug(z)[1].data)
        comps.append(np.full(300, k))
    gen_nat = tv.result.checkpoint.scaler.inverse_ip(np.concatenate(rows))
    comps = np.concatenate(comps)
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
    return float(np.mean(assigned == want))


def acceptance_metrics(variants: dict[str, TrainedVariant],
                       dataset) -> dict[str, float]:
    """Every metric of ``THRESHOLDS``, and the vanilla latent silhouette,
    of the three trained desk variants."""
    reports = {v: tv.report for v, tv in variants.items()}
    con, unc = reports["gmm_constrained"], reports["gmm_unconstrained"]
    pearsons = {v: r.ic50_pearson for v, r in reports.items()}
    out = {"train_seconds.max": max(tv.train_seconds
                                    for tv in variants.values())}
    for v, r in reports.items():
        out[f"silhouette_latent.{v}"] = r.silhouette_latent
    out["silhouette_latent.gap.gmm_constrained-vanilla"] = (
        con.silhouette_latent - reports["vanilla"].silhouette_latent)
    for v in ("gmm_constrained", "gmm_unconstrained"):
        out[f"silhouette_generated.{v}"] = reports[v].silhouette_generated
    out["silhouette_generated.gap.gmm_constrained-gmm_unconstrained"] = (
        con.silhouette_generated - unc.silhouette_generated)
    for v in ("gmm_constrained", "gmm_unconstrained"):
        out[f"generated_accuracy.{v}"] = generated_accuracy(variants[v],
                                                            dataset)
    out["centroid_pearson.gmm_unconstrained"] = unc.centroid_pearson
    out["gen_std_mean.gap.gmm_unconstrained-gmm_constrained"] = (
        unc.gen_std_mean - con.gen_std_mean)
    for v, value in pearsons.items():
        out[f"ic50_pearson.{v}"] = value
    out["ic50_pearson.spread"] = max(pearsons.values()) - min(pearsons.values())
    return out


def threshold_misses(metrics: dict[str, float], criterion: int) -> list[str]:
    """Each metric of ``criterion`` that misses its bound, with its value."""
    return [f"{name} = {metrics[name]!r}, not {relation} {bound}"
            for name, (c, relation, bound) in THRESHOLDS.items()
            if c == criterion
            and not RELATIONS[relation](metrics[name], bound)]


@pytest.fixture(scope="session")
def desk_data():
    return make_desk_data()


@pytest.fixture(scope="session")
def trained_variants(desk_data):
    """All three prior variants trained on the same desk-scale data."""
    return train_desk_variants(desk_data[0])


@pytest.fixture(scope="session")
def desk_metrics(trained_variants, desk_data):
    """The acceptance metrics of the trained desk variants."""
    return acceptance_metrics(trained_variants, desk_data[0])


# small dataset sized so the default schedule produces >= 2 breaks:
# 50 drugs x 55 train cells x 0.7 observance ~= 1925 train pairs
# -> 16 steps/epoch -> 2400 joint steps over 150 epochs
CONFORMANCE_SPEC = SynthSpec(
    smiles_dim=12, ip_dim=10, bio_dim=8, n_drugs=50, n_profiled=16,
    n_cells=75, observance=0.7, n_binary_features=2,
)

CONFORMANCE_CONFIG = ModelConfig(
    smiles_dim=12, ip_dim=10, bio_dim=8, latent_dim=4,
    dvae_encoder_dims=(16, 8), decoder_dims=(8, 16), dspn_dims=(24, 16, 8),
    prior_variant="gmm_constrained",
)


@pytest.fixture(scope="session")
def conformance_run():
    """Stock default schedule (150+50, breaks every 1000 steps) on a
    small dataset."""
    dataset, _ = generate_synthetic_with_truth(CONFORMANCE_SPEC, seed=11)
    dataset = derive_guiding_labels(dataset, n_labels=3, seed=11)
    schedule = TrainSchedule(seed=11)  # stock defaults
    result = train(dataset, CONFORMANCE_CONFIG, schedule, LossWeights(),
                   SplitSpec(n_val_cells=10, n_test_cells=10, seed=11))
    return result, schedule, dataset
