"""Evaluation metrics: sensitivity RMSE/Pearson, profile reconstruction
RMSE, Silhouette scores of latent and generated spaces, 2-D PCA
projection, per-cluster centroid/STD statistics, and the fidelity
comparison between true and generated per-cluster profile statistics.

Conventions: Silhouette uses Euclidean distance on the full vectors
(PCA is for plotting only); singleton clusters score 0; cluster STDs are
population STDs.  Latent-space metrics use encoder means, never samples.
A Silhouette over fewer than two clusters, and a Pearson over fewer than
two values or a constant side, are undefined: :func:`evaluate` has None.

Row arrays and their label or value arrays are expected to match in
length; only the counts that make a metric undefined are checked.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import asdict, dataclass
from typing import NamedTuple

import numpy as np

from . import gmm
from .data import Dataset, apply_scaler
from .exceptions import ContractViolation, UndefinedMetricError
from .model import VadeersModel
from .training import Checkpoint, partition_by_cells


def rmse(y_true, y_pred) -> float:
    a = np.asarray(y_true, dtype=np.float64).ravel()
    b = np.asarray(y_pred, dtype=np.float64).ravel()
    return float(np.sqrt(np.mean((a - b) ** 2)))


def pearson(y_true, y_pred) -> float:
    """Pearson correlation; denominator is sqrt(qa*qb) so identical
    inputs give exactly 1.0."""
    a = np.asarray(y_true, dtype=np.float64).ravel()
    b = np.asarray(y_pred, dtype=np.float64).ravel()
    if a.size < 2:
        raise ContractViolation("pearson needs at least 2 points")
    ac = a - a.mean()
    bc = b - b.mean()
    qa = float(ac @ ac)
    qb = float(bc @ bc)
    if qa == 0.0 or qb == 0.0:
        raise UndefinedMetricError("pearson undefined for constant input")
    return float((ac @ bc) / np.sqrt(qa * qb))


def pearson_or_none(y_true, y_pred) -> float | None:
    """:func:`pearson`, or None where it is undefined."""
    try:
        return pearson(y_true, y_pred)
    except (ContractViolation, UndefinedMetricError):
        return None


def silhouette(points, labels) -> float:
    """Mean over points of (b - a) / max(a, b) with Euclidean distances;
    members of singleton clusters score 0, and so does a point whose
    max(a, b) is 0."""
    points = np.asarray(points, dtype=np.float64)
    labels = np.asarray(labels)
    uniq, own = np.unique(labels, return_inverse=True)
    if uniq.size < 2:
        raise ContractViolation("silhouette needs at least 2 distinct labels")
    # one n x n array: the Gram matrix becomes the distances in place,
    # (sq_i + sq_j) - 2 G_ij in blocks of rows of about 2**16 entries, the
    # same operations on the same operands as the one-expression form
    sq = np.sum(points**2, axis=1)
    dist = points @ points.T
    dist *= 2.0
    step = max(1, (1 << 16) // len(sq))
    for start in range(0, len(sq), step):
        rows = dist[start:start + step]
        np.subtract(sq[start:start + step, None] + sq[None, :], rows, out=rows)
    np.maximum(dist, 0.0, out=dist)
    np.sqrt(dist, out=dist)

    counts = np.bincount(own)
    # summed distance from every point to every cluster, in one product
    sums = dist @ (own[:, None] == np.arange(counts.size)).astype(np.float64)
    rows = np.arange(points.shape[0])
    n_own = counts[own]
    a = sums[rows, own] / np.maximum(n_own - 1, 1)  # the self-distance is 0
    mean_to = sums / counts
    mean_to[rows, own] = np.inf
    b = mean_to.min(axis=1)
    top = np.maximum(a, b)
    scores = np.divide(b - a, top, out=np.zeros_like(top), where=top != 0.0)
    scores[n_own <= 1] = 0.0
    return float(scores.mean())


def pca2(points) -> tuple[np.ndarray, tuple[float, float]]:
    """Project onto the top-2 principal directions of the centered data.

    Sign convention: within each direction the largest-magnitude loading
    is made positive.  Returns (n, 2) scores and the two explained
    variance fractions."""
    points = np.asarray(points, dtype=np.float64)
    n, d = points.shape
    if n < 3:
        raise ContractViolation(f"pca2 needs at least 3 rows, got {n}")
    if d < 2:
        raise ContractViolation(f"pca2 needs at least 2 columns, got {d}")
    centered = points - points.mean(axis=0)
    _, s, vt = np.linalg.svd(centered, full_matrices=False)
    comps = vt[:2]
    for j in range(2):
        k = int(np.argmax(np.abs(comps[j])))
        if comps[j, k] < 0:
            comps[j] = -comps[j]
    total = float((s**2).sum())
    if total == 0.0:
        fractions = (0.0, 0.0)
    else:
        fractions = (float(s[0] ** 2 / total), float(s[1] ** 2 / total))
    return centered @ comps.T, fractions


@dataclass
class ClusterStats:
    """Per-cluster feature-wise mean (centroid) and population STD; STD is
    None for singleton clusters."""

    centroids: dict[int, np.ndarray]
    stds: dict[int, np.ndarray | None]


def cluster_stats(rows, labels) -> ClusterStats:
    rows = np.asarray(rows, dtype=np.float64)
    labels = np.asarray(labels)
    centroids, stds = {}, {}
    for lab in np.unique(labels):
        member = rows[labels == lab]
        centroids[int(lab)] = member.mean(axis=0)
        stds[int(lab)] = member.std(axis=0) if member.shape[0] >= 2 else None
    return ClusterStats(centroids=centroids, stds=stds)


@dataclass
class FidelityReport:
    centroid_rmse: float
    centroid_pearson: float | None
    std_rmse: float | None
    std_pearson: float | None
    per_cluster: dict[int, dict[str, float]]
    matching: dict[int, int]        # component -> true label


def _match_components(true_cent: dict, gen_cent: dict) -> dict[int, int]:
    """Component -> label matching minimizing total centroid distance;
    exhaustive over the injective assignments of the smaller set into the
    larger (component counts are small)."""
    comps, labs = sorted(gen_cent), sorted(true_cent)
    if len(comps) <= len(labs):
        options = (dict(zip(comps, chosen))
                   for chosen in itertools.permutations(labs, len(comps)))
    else:
        options = (dict(sorted(zip(chosen, labs)))
                   for chosen in itertools.permutations(comps, len(labs)))
    return min(options, key=lambda matching: sum(
        float(np.linalg.norm(gen_cent[c] - true_cent[lab]))
        for c, lab in matching.items()))


def generation_fidelity(true_rows, true_labels, gen_rows,
                        gen_components) -> FidelityReport:
    """Feature-wise RMSE and Pearson between true and generated per-cluster
    centroid and STD vectors, averaged over the clusters matched by
    nearest centroids.  A Pearson over fewer than 2 features or a constant
    vector is undefined: it is None, in each cluster and on average."""
    true_stats = cluster_stats(true_rows, true_labels)
    gen_stats = cluster_stats(gen_rows, gen_components)
    matching = _match_components(true_stats.centroids, gen_stats.centroids)

    per_cluster: dict[int, dict[str, float]] = {}
    cent_r, cent_p, std_r, std_p = [], [], [], []
    for comp, lab in matching.items():
        tc, gc = true_stats.centroids[lab], gen_stats.centroids[comp]
        entry = {
            "label": lab,
            "centroid_rmse": rmse(tc, gc),
            "centroid_pearson": pearson_or_none(tc, gc),
        }
        cent_r.append(entry["centroid_rmse"])
        cent_p.append(entry["centroid_pearson"])
        ts, gs = true_stats.stds[lab], gen_stats.stds[comp]
        if ts is not None and gs is not None:
            entry["std_rmse"] = rmse(ts, gs)
            entry["std_pearson"] = pearson_or_none(ts, gs)
            entry["gen_std_mean"] = float(np.mean(gs))
            entry["true_std_mean"] = float(np.mean(ts))
            std_r.append(entry["std_rmse"])
            std_p.append(entry["std_pearson"])
        per_cluster[comp] = entry

    def mean(values):
        return float(np.mean(values)) if values and None not in values else None

    return FidelityReport(
        centroid_rmse=float(np.mean(cent_r)),
        centroid_pearson=mean(cent_p),
        std_rmse=mean(std_r),
        std_pearson=mean(std_p),
        per_cluster=per_cluster,
        matching=matching,
    )


# ---------------------------------------------------------------------------
# full evaluation
# ---------------------------------------------------------------------------

@dataclass
class MetricReport:
    ic50_rmse: float
    ic50_pearson: float | None
    ip_rmse: float
    silhouette_latent: float | None
    silhouette_generated: float | None
    centroid_rmse: float | None
    centroid_pearson: float | None
    std_rmse: float | None
    std_pearson: float | None
    gen_std_mean: float | None
    per_cluster: dict
    run_seed: int
    n_test_pairs: int

    def __post_init__(self):
        for name in ("ic50_pearson", "silhouette_latent", "silhouette_generated",
                     "centroid_pearson", "std_pearson"):
            v = getattr(self, name)
            if v is not None and not (-1.0 - 1e-12 <= v <= 1.0 + 1e-12):
                raise ContractViolation(f"{name}={v} outside [-1, 1]")
        for name in ("ic50_rmse", "ip_rmse", "centroid_rmse", "std_rmse"):
            v = getattr(self, name)
            if v is not None and v < 0:
                raise ContractViolation(f"{name}={v} negative")

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "MetricReport":
        d = json.loads(text)
        d["per_cluster"] = {
            int(k) if k.lstrip("-").isdigit() else k: v
            for k, v in d["per_cluster"].items()
        }
        return cls(**d)


def predict_pairs(model: VadeersModel, dataset_std: Dataset, rows: np.ndarray,
                  drug_mu: np.ndarray) -> np.ndarray:
    """Eval-mode sensitivity predictions (standardized scale) for the pairs
    at ``rows`` of the dataset's pair arrays; ``drug_mu`` holds the encoder
    means of all of the dataset's drugs."""
    lat = model.cell_latents(dataset_std.features)
    return model.predict_sensitivity(drug_mu[dataset_std.pair_drug[rows]],
                                     lat[dataset_std.pair_cell[rows]])


def sample_latents(model: VadeersModel, n_per_component: int,
                   seed: int) -> tuple[np.ndarray, np.ndarray]:
    """The latent draws that generated profiles decode from:
    ``n_per_component`` from each mixture component, and the component
    of each row; under the vanilla prior, ``3 * n_per_component``
    standard-normal draws, each labeled -1."""
    if n_per_component < 1:
        raise ContractViolation(
            f"n_per_component must be >= 1, got {n_per_component}")
    rng = np.random.Generator(np.random.PCG64(seed))
    gmm_params = model.gmm_params()
    if gmm_params is not None:
        k = gmm_params.n_components
        zs = [gmm.sample_component(c, gmm_params, n_per_component, rng)
              for c in range(k)]
        comps = np.repeat(np.arange(k), n_per_component)
    else:
        zs = [rng.standard_normal((3 * n_per_component, model.config.latent_dim))]
        comps = np.full(3 * n_per_component, -1)
    return np.concatenate(zs), comps


class Evaluation(NamedTuple):
    """What :func:`evaluate` computed: the report, the encoder means of
    all of the dataset's drugs, and the generated inhibition profiles
    (standardized scale) with the component of each row."""

    report: MetricReport
    drug_mu: np.ndarray
    generated: np.ndarray
    components: np.ndarray


def evaluate(checkpoint: Checkpoint, dataset: Dataset, *, pairs: str = "test",
             n_gen_per_component: int = 300, seed: int = 0) -> Evaluation:
    """Compute the full metric battery of a trained model on ``dataset``,
    which holds natural-scale values.

    The standardized copy comes from the checkpoint's scaler, and the
    ``pairs`` ("test" or "val") from its split cells.  Sensitivity
    metrics are computed on those pairs on the natural scale; profile
    reconstruction RMSE is a training-data metric on the standardized
    scale; the latent Silhouette uses encoder means of the checkpoint's
    labeled drugs.  Generated profiles decode :func:`sample_latents`'
    draws for ``n_gen_per_component`` and ``seed``, in one decoder pass
    with the profiled drugs' means; their metrics cover the GMM variants
    only."""
    model, scaler, labels = (checkpoint.model, checkpoint.scaler,
                             checkpoint.guiding_labels)
    cells = checkpoint.split_cells
    split = partition_by_cells(dataset, cells["train"], cells["val"],
                               cells["test"])
    rows = {"test": split.test_rows, "val": split.val_rows}[pairs]
    if not len(rows):
        raise ContractViolation(f"no {pairs} pairs to evaluate on")
    dataset_std = apply_scaler(dataset, scaler)

    drug_mu = model.drug_latent_means(dataset_std.embeddings)
    preds = scaler.inverse_ic50(predict_pairs(model, dataset_std, rows, drug_mu))
    truth = dataset.pair_y[rows]
    ic50_rmse = rmse(truth, preds)
    ic50_pearson = pearson_or_none(truth, preds)

    # profile reconstruction on the training data (all profiled drugs)
    profiled = dataset_std.profile_mask
    n_profiled = int(profiled.sum())
    z_gen, gen_comps = sample_latents(model, n_gen_per_component, seed)
    _, ip_pred = model.decode_drug(np.concatenate([drug_mu[profiled], z_gen]))
    ip_rmse = rmse(dataset_std.profiles[profiled], ip_pred.data[:n_profiled])
    gen_rows = ip_pred.data[n_profiled:]

    sil_latent = None
    if labels and len(set(labels.values())) >= 2:
        ids = dataset_std.drug_ids
        labeled = [i for i in np.flatnonzero(profiled) if ids[i] in labels]
        sil_latent = silhouette(drug_mu[labeled],
                                np.array([labels[ids[i]] for i in labeled]))

    sil_gen = None
    fidelity = None
    gen_std_mean = None
    per_cluster: dict = {}
    gmm_params = model.gmm_params()
    if gmm_params is not None and gmm_params.n_components >= 2:
        sil_gen = silhouette(gen_rows, gen_comps)

    if gmm_params is not None and labels:
        labeled_ids = sorted(labels)
        didx = dataset.drug_index()
        true_rows_nat = dataset.profiles[[didx[i] for i in labeled_ids]]
        true_labs = np.array([labels[i] for i in labeled_ids])
        fidelity = generation_fidelity(
            true_rows_nat, true_labs, scaler.inverse_ip(gen_rows), gen_comps)
        per_cluster = fidelity.per_cluster
        stds = [e["gen_std_mean"] for e in per_cluster.values()
                if "gen_std_mean" in e]
        gen_std_mean = float(np.mean(stds)) if stds else None

    report = MetricReport(
        ic50_rmse=ic50_rmse,
        ic50_pearson=ic50_pearson,
        ip_rmse=ip_rmse,
        silhouette_latent=sil_latent,
        silhouette_generated=sil_gen,
        centroid_rmse=fidelity.centroid_rmse if fidelity else None,
        centroid_pearson=fidelity.centroid_pearson if fidelity else None,
        std_rmse=fidelity.std_rmse if fidelity else None,
        std_pearson=fidelity.std_pearson if fidelity else None,
        gen_std_mean=gen_std_mean,
        per_cluster=per_cluster,
        run_seed=seed,
        n_test_pairs=len(rows),
    )
    return Evaluation(report, drug_mu, gen_rows, gen_comps)
