"""Shared fixtures.

The expensive pieces are session-scoped: one desk-scale synthetic dataset
with three trained prior variants (used by the acceptance suite and a few
protocol tests), and one small run under the stock default schedule
(150+50 epochs, breaks every 1000 steps) for the conformance checks.
"""

import sys
from dataclasses import dataclass
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from vadeers.data import (
    SynthSpec,
    derive_guiding_labels,
    generate_synthetic_with_truth,
)
from vadeers.metrics import MetricReport, evaluate
from vadeers.model import LossWeights, ModelConfig
from vadeers.training import SplitSpec, TrainResult, TrainSchedule, train

DESK_SEED = 7

DESK_SPEC = SynthSpec(smiles_dim=32, ip_dim=24, bio_dim=20)

DESK_SCHEDULE = dict(joint_epochs=20, dspn_epochs=10, seed=DESK_SEED)

VARIANTS = ("vanilla", "gmm_constrained", "gmm_unconstrained")


@dataclass
class TrainedVariant:
    result: TrainResult
    report: MetricReport
    labels: dict[str, int]
    train_seconds: float


@pytest.fixture(scope="session")
def desk_data():
    dataset, truth = generate_synthetic_with_truth(DESK_SPEC, seed=DESK_SEED)
    labeled = derive_guiding_labels(dataset, n_labels=3, seed=DESK_SEED)
    return labeled, truth


@pytest.fixture(scope="session")
def trained_variants(desk_data):
    """All three prior variants trained on the same desk-scale data."""
    import time

    dataset, _ = desk_data
    out = {}
    for variant in VARIANTS:
        config = ModelConfig(
            smiles_dim=DESK_SPEC.smiles_dim, ip_dim=DESK_SPEC.ip_dim,
            bio_dim=DESK_SPEC.bio_dim, latent_dim=10, prior_variant=variant,
        )
        started = time.monotonic()
        result = train(dataset, config, TrainSchedule(**DESK_SCHEDULE),
                       LossWeights(),
                       SplitSpec(n_val_cells=25, n_test_cells=25,
                                 seed=DESK_SEED))
        elapsed = time.monotonic() - started
        report = evaluate(result.checkpoint, dataset, seed=DESK_SEED).report
        out[variant] = TrainedVariant(
            result=result, report=report,
            labels=result.checkpoint.guiding_labels, train_seconds=elapsed)
    return out


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
