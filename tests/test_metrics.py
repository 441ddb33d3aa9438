"""Metric tests: rmse/pearson against extended-precision oracles,
silhouette (hand case, null case, invariances), PCA against an eigen
oracle, cluster statistics, and generation-fidelity fixed points."""

import math
import tracemalloc

import numpy as np
import pytest

from vadeers.exceptions import ContractViolation, UndefinedMetricError
from vadeers.metrics import (
    MetricReport,
    cluster_stats,
    generation_fidelity,
    pca2,
    pearson,
    rmse,
    silhouette,
)

from oracles import (
    cluster_stats_two_pass,
    covariance_eigvals,
    silhouette_full_matrix,
    silhouette_loops,
)


# ---------------------------------------------------------------------------
# rmse / pearson
# ---------------------------------------------------------------------------

def test_perfect_prediction():
    y = np.random.default_rng(0).standard_normal(20)
    assert rmse(y, y) == 0.0
    assert pearson(y, y) == 1.0


def test_anti_correlation():
    y = np.array([-2.0, -1.0, 1.0, 2.0])
    assert abs(pearson(y, -y) - (-1.0)) < 1e-15


def test_rmse_pearson_match_fsum_oracle():
    rng = np.random.default_rng(1)
    a = rng.standard_normal(100)
    b = 0.6 * a + rng.standard_normal(100)
    rmse_ref = math.sqrt(math.fsum((x - y) ** 2 for x, y in zip(a, b)) / 100)
    am = math.fsum(a) / 100
    bm = math.fsum(b) / 100
    cov = math.fsum((x - am) * (y - bm) for x, y in zip(a, b))
    va = math.fsum((x - am) ** 2 for x in a)
    vb = math.fsum((y - bm) ** 2 for y in b)
    r_ref = cov / math.sqrt(va * vb)
    assert abs(rmse(a, b) - rmse_ref) < 1e-10
    assert abs(pearson(a, b) - r_ref) < 1e-10


def test_pearson_constant_input_errors():
    with pytest.raises(UndefinedMetricError):
        pearson(np.ones(5), np.arange(5.0))


# ---------------------------------------------------------------------------
# silhouette
# ---------------------------------------------------------------------------

def test_silhouette_tight_separated_clusters():
    rng = np.random.default_rng(2)
    a = rng.normal(0.0, 0.05, size=(50, 3))
    b = rng.normal(10.0, 0.05, size=(50, 3))
    pts = np.vstack([a, b])
    labels = np.array([0] * 50 + [1] * 50)
    assert silhouette(pts, labels) > 0.9


def test_silhouette_random_labels_near_zero():
    rng = np.random.default_rng(3)
    pts = rng.standard_normal((500, 4))
    labels = rng.integers(0, 3, size=500)
    assert abs(silhouette(pts, labels)) < 0.1


def test_silhouette_hand_case_four_points():
    pts = np.array([[0.0], [1.0], [10.0], [11.0]])
    labels = np.array(["A", "A", "B", "B"])
    # point 0: a=1, b=(10+11)/2 -> (10.5-1)/10.5; point 1: a=1, b=9.5
    s0 = (10.5 - 1.0) / 10.5
    s1 = (9.5 - 1.0) / 9.5
    expected = (s0 + s1) / 2.0  # symmetric for the B pair
    assert abs(silhouette(pts, labels) - expected) < 1e-12


def test_silhouette_singleton_scores_zero():
    pts = np.array([[0.0, 0.0], [0.1, 0.0], [5.0, 5.0]])
    labels = np.array([0, 0, 1])
    got = silhouette(pts, labels)
    # the singleton contributes 0; the pair contributes its own scores
    s0 = (np.hypot(5, 5) - 0.1) / np.hypot(5, 5)
    s1 = (np.hypot(4.9, 5) - 0.1) / np.hypot(4.9, 5)
    assert abs(got - (s0 + s1 + 0.0) / 3.0) < 1e-12


@pytest.mark.parametrize("seed", range(4))
def test_silhouette_matches_loop_oracle(seed):
    rng = np.random.default_rng(seed)
    n, k = 40 + 7 * seed, 2 + seed % 3
    labels = np.append(rng.integers(0, k, size=n - 1), k)  # k is a singleton
    pts = rng.standard_normal((n, 3)) + labels[:, None]
    pts[1] = pts[0]  # a zero distance inside the data
    assert abs(silhouette(pts, labels) - silhouette_loops(pts, labels)) < 1e-12
    coincident = np.ones((5, 2))  # a = b = 0 everywhere
    assert silhouette(coincident, labels[:5]) == silhouette_loops(
        coincident, labels[:5]) == 0.0


def test_silhouette_bit_identical_to_full_matrix_oracle():
    rng = np.random.default_rng(5)
    labels = rng.integers(0, 3, size=900)
    pts = rng.standard_normal((900, 20)) + labels[:, None]
    assert silhouette(pts, labels) == silhouette_full_matrix(pts, labels)
    singleton = np.append(labels[:99], 3)
    assert silhouette(pts[:100], singleton) == silhouette_full_matrix(
        pts[:100], singleton)
    coincident = np.ones((7, 2))
    assert silhouette(coincident, labels[:7]) == silhouette_full_matrix(
        coincident, labels[:7])


def test_silhouette_memory_is_one_distance_matrix():
    rng = np.random.default_rng(6)
    pts = rng.standard_normal((900, 20))
    labels = rng.integers(0, 3, size=900)
    tracemalloc.start()
    try:
        silhouette(pts, labels)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the full-matrix expression holds three or four 900 x 900 arrays
    assert peak < 1.5 * 900 * 900 * 8


def test_silhouette_single_label_errors():
    with pytest.raises(ContractViolation):
        silhouette(np.zeros((3, 2)), np.zeros(3))


def test_silhouette_invariant_to_rotation_and_label_names():
    rng = np.random.default_rng(4)
    pts = rng.standard_normal((60, 5))
    labels = rng.integers(0, 3, size=60)
    base = silhouette(pts, labels)
    q, _ = np.linalg.qr(rng.standard_normal((5, 5)))
    rotated = silhouette(pts @ q, labels)
    assert abs(base - rotated) < 1e-9
    renamed = silhouette(pts, np.array([chr(65 + l) for l in labels]))
    assert abs(base - renamed) < 1e-15


# ---------------------------------------------------------------------------
# pca2
# ---------------------------------------------------------------------------

def test_pca2_axis_aligned_recovery():
    # exactly diagonal sample covariance: each point touches one axis only
    pts = np.array([
        [5.0, 0.0], [-5.0, 0.0], [4.0, 0.0], [-4.0, 0.0],
        [0.0, 1.0], [0.0, -1.0], [0.0, 0.5], [0.0, -0.5],
    ])
    proj, explained = pca2(pts)
    assert np.max(np.abs(np.abs(proj) - np.abs(pts))) < 1e-12
    assert abs(explained[0] + explained[1] - 1.0) < 1e-12


def test_pca2_ignores_zero_variance_columns():
    rng = np.random.default_rng(6)
    pts = rng.standard_normal((40, 3))
    padded = np.hstack([pts, np.full((40, 2), 7.0)])
    proj_a, var_a = pca2(pts)
    proj_b, var_b = pca2(padded)
    assert np.max(np.abs(np.abs(proj_a) - np.abs(proj_b))) < 1e-9
    assert abs(var_a[0] - var_b[0]) < 1e-12


def test_pca2_explained_matches_eigen_oracle():
    rng = np.random.default_rng(7)
    pts = rng.standard_normal((50, 6)) @ np.diag([5, 3, 2, 1, 0.5, 0.2])
    _, explained = pca2(pts)
    eigvals = covariance_eigvals(pts)
    fractions = eigvals / eigvals.sum()
    assert abs(explained[0] - fractions[0]) < 1e-8
    assert abs(explained[1] - fractions[1]) < 1e-8


def test_pca2_column_permutation_invariance():
    rng = np.random.default_rng(8)
    pts = rng.standard_normal((30, 4)) @ np.diag([4, 2, 1, 0.5])
    perm = [2, 0, 3, 1]
    proj_a, _ = pca2(pts)
    proj_b, _ = pca2(pts[:, perm])
    assert np.max(np.abs(np.abs(proj_a) - np.abs(proj_b))) < 1e-9


def test_pca2_too_few_columns():
    with pytest.raises(ContractViolation):
        pca2(np.zeros((5, 1)))


# ---------------------------------------------------------------------------
# cluster stats
# ---------------------------------------------------------------------------

def test_cluster_stats_singleton_and_duplicates():
    rows = np.array([[1.0, 2.0], [1.0, 2.0], [5.0, 6.0]])
    labels = np.array([0, 0, 1])
    stats = cluster_stats(rows, labels)
    assert np.array_equal(stats.centroids[0], [1.0, 2.0])
    assert np.array_equal(stats.stds[0], [0.0, 0.0])  # duplicated rows
    assert np.array_equal(stats.centroids[1], [5.0, 6.0])
    assert stats.stds[1] is None  # singleton: STD omitted


def test_cluster_stats_match_two_pass_oracle():
    rng = np.random.default_rng(9)
    rows = rng.standard_normal((40, 5))
    labels = rng.integers(0, 3, size=40)
    stats = cluster_stats(rows, labels)
    oracle = cluster_stats_two_pass(rows, labels)
    for lab, (mean, std) in oracle.items():
        assert np.max(np.abs(stats.centroids[lab] - mean)) < 1e-12
        assert np.max(np.abs(stats.stds[lab] - std)) < 1e-12


# ---------------------------------------------------------------------------
# generation fidelity
# ---------------------------------------------------------------------------

def test_fidelity_identity_fixed_point():
    rng = np.random.default_rng(10)
    rows = rng.standard_normal((30, 6))
    labels = rng.integers(0, 3, size=30)
    report = generation_fidelity(rows, labels, rows, labels)
    assert report.centroid_rmse == 0.0
    assert report.centroid_pearson == 1.0
    assert report.std_rmse == 0.0
    assert report.std_pearson == 1.0
    assert report.matching == {0: 0, 1: 1, 2: 2}


def test_fidelity_constant_offset():
    # centers 20 apart: the nearest-centroid matching is the identity
    rng = np.random.default_rng(11)
    labels = rng.integers(0, 3, size=30)
    rows = 20.0 * labels[:, None] + rng.standard_normal((30, 6))
    c = 2.5
    report = generation_fidelity(rows, labels, rows + c, labels)
    assert report.matching == {0: 0, 1: 1, 2: 2}
    assert abs(report.centroid_rmse - c) < 1e-9
    assert abs(report.centroid_pearson - 1.0) < 1e-9


def test_fidelity_nearest_centroid_matching_unscrambles_components():
    rng = np.random.default_rng(12)
    centers = np.array([[0.0, 0.0], [10.0, 0.0], [0.0, 10.0]])
    rows, labels = [], []
    for lab, c in enumerate(centers):
        rows.append(c + 0.1 * rng.standard_normal((20, 2)))
        labels.extend([lab] * 20)
    rows = np.vstack(rows)
    labels = np.array(labels)
    scramble = {0: 2, 1: 0, 2: 1}  # component i holds cluster scramble[i]
    gen_components = np.array([scramble[l] for l in labels])
    report = generation_fidelity(rows, labels, rows, gen_components)
    assert report.matching == {0: 1, 1: 2, 2: 0}
    assert report.centroid_rmse < 0.2


def test_fidelity_unmatched_cluster_flagged():
    rng = np.random.default_rng(13)
    rows = rng.standard_normal((20, 4))
    labels = rng.integers(0, 3, size=20)
    gen = rows[labels != 2]
    gen_components = labels[labels != 2]
    report = generation_fidelity(rows, labels, gen, gen_components)
    assert 2 not in report.matching.values()


# ---------------------------------------------------------------------------
# report round-trip
# ---------------------------------------------------------------------------

def test_untrained_model_has_null_sensitivity_correlation():
    from vadeers.data import SynthSpec, derive_guiding_labels, \
        generate_synthetic, standardize
    from vadeers.metrics import evaluate
    from vadeers.model import ModelConfig, VadeersModel
    from vadeers.training import SplitSpec, split_by_cell_line

    spec = SynthSpec(smiles_dim=16, ip_dim=12, bio_dim=10, n_drugs=60,
                     n_profiled=30, n_cells=60)
    dataset = derive_guiding_labels(generate_synthetic(spec, seed=0),
                                    n_labels=3, seed=0)
    split = split_by_cell_line(dataset, SplitSpec(n_val_cells=10,
                                                  n_test_cells=10, seed=0))
    dataset_std, scaler = standardize(dataset, set(split.train_cells))
    config = ModelConfig(smiles_dim=16, ip_dim=12, bio_dim=10, latent_dim=4,
                         dvae_encoder_dims=(16, 8), decoder_dims=(8, 16),
                         dspn_dims=(16, 8, 4),
                         prior_variant="gmm_constrained")
    model = VadeersModel.initialize(config, np.random.default_rng(1))
    report = evaluate(model, dataset, dataset_std, split, scaler, seed=0)
    assert abs(report.ic50_pearson) < 0.15

    # the latent Silhouette uses encoder means: changing the generation
    # seed must not move it
    other = evaluate(model, dataset, dataset_std, split, scaler, seed=99)
    assert other.silhouette_latent == report.silhouette_latent


@pytest.mark.parametrize("variant", ["vanilla", "gmm_constrained"])
@pytest.mark.parametrize("n", [-5, 0])
def test_generate_profiles_rejects_nonpositive_counts(variant, n):
    from vadeers.metrics import generate_profiles
    from vadeers.model import ModelConfig, VadeersModel

    config = ModelConfig(smiles_dim=16, ip_dim=12, bio_dim=10, latent_dim=4,
                         dvae_encoder_dims=(16, 8), decoder_dims=(8, 16),
                         dspn_dims=(16, 8, 4), prior_variant=variant)
    model = VadeersModel.initialize(config, np.random.default_rng(1))
    with pytest.raises(ContractViolation, match="n_per_component"):
        generate_profiles(model, n, seed=0)


def test_metric_report_json_round_trip():
    report = MetricReport(
        ic50_rmse=1.23456789012345, ic50_pearson=0.87,
        ip_rmse=1.04, silhouette_latent=0.095, silhouette_generated=0.223,
        centroid_rmse=4.627, centroid_pearson=0.947, std_rmse=6.407,
        std_pearson=0.796, gen_std_mean=3.3,
        per_cluster={0: {"centroid_rmse": 1.0}}, run_seed=7, n_test_pairs=100,
    )
    back = MetricReport.from_json(report.to_json())
    assert back == report
    assert back.to_json() == report.to_json()
