"""Dataset model, CSV ingestion, feature standardization, k-means guiding
labels, and a synthetic generator with planted cluster and sensitivity
structure.

CSV schema (UTF-8, '.' decimal, headers required):

* ``drugs.csv``:     ``id,e0,...,e{S-1}``   one row per drug embedding
* ``profiles.csv``:  ``id,k0,...,k{I-1}``   inhibition profiles, subset of drugs
* ``cells.csv``:     ``id,f0,...,f{B-1}``   cell-line biological features
* ``ic50.csv``:      ``drug_id,cell_id,ic50`` observed sensitivity pairs
* ``manifest.json``: counts, dims, seed, generator spec, format version

Floats are written with ``repr`` so an export/import round-trip is exact.
"""

from __future__ import annotations

import csv
import json
import logging
import os
import uuid
from contextlib import contextmanager
from dataclasses import dataclass, replace
from functools import cached_property
from itertools import chain
from operator import itemgetter
from pathlib import Path

import numpy as np

from .exceptions import ContractViolation, DataError

log = logging.getLogger(__name__)

MANIFEST_VERSION = 1


# ---------------------------------------------------------------------------
# core records
# ---------------------------------------------------------------------------

@dataclass
class DrugRecord:
    """One drug: a row view of a :class:`Dataset`, or an input to
    :meth:`Dataset.build`."""

    id: str
    smiles_embedding: np.ndarray
    inhibition_profile: np.ndarray | None = None
    guiding_label: int | None = None

    @property
    def has_profile(self) -> bool:
        return self.inhibition_profile is not None


@dataclass
class CellLineRecord:
    id: str
    features: np.ndarray


def _matrix(rows: list[np.ndarray], ids: list[str], width_name: str,
            value_name: str) -> np.ndarray:
    """``rows`` as one float64 matrix, checked to share a width and to be
    finite; errors name the first offending id."""
    widths = {r.shape for r in rows}
    if len(widths) > 1:
        raise DataError(f"inconsistent {width_name} widths: {sorted(widths)}")
    matrix = np.array(rows, dtype=np.float64)
    bad = ~np.isfinite(matrix).all(axis=1)
    if bad.any():
        raise DataError(f"non-finite {value_name} {ids[int(np.argmax(bad))]}")
    return matrix


def _rows_of(ids: list[str], wanted: np.ndarray) -> np.ndarray:
    """The row of each ``wanted`` id in the unique ``ids``; -1 where it is
    not there."""
    keys = np.asarray(ids, dtype=str)
    order = np.argsort(keys)
    at = order[np.searchsorted(keys[order], wanted).clip(max=len(keys) - 1)]
    return np.where(keys[at] == wanted, at, -1)


@dataclass(frozen=True, eq=False)
class Dataset:
    """Drugs, cell lines and the observed sensitivity pairs, as arrays.

    Drug rows: ``embeddings``, ``profiles`` (zero rows where a drug has no
    inhibition profile), ``profile_mask`` and ``labels`` (the guiding
    label, -1 where unlabeled).  Cell rows: ``features``.  Pair ``k`` is
    drug row ``pair_drug[k]`` on cell row ``pair_cell[k]``, with value
    ``pair_y[k]``.  :meth:`build` checks every rule once; the copies that
    ``derive_guiding_labels`` and ``apply_scaler`` make with ``replace``
    keep the rules and are not checked again.
    """

    drug_ids: list[str]
    embeddings: np.ndarray
    profiles: np.ndarray
    profile_mask: np.ndarray
    labels: np.ndarray
    cell_ids: list[str]
    features: np.ndarray
    pair_drug: np.ndarray
    pair_cell: np.ndarray
    pair_y: np.ndarray
    provenance: str = "synthetic"

    @classmethod
    def build(cls, drugs: list[DrugRecord], cells: list[CellLineRecord],
              pairs, provenance: str = "synthetic",
              source: str = "pairs") -> "Dataset":
        """The dataset of ``drugs``, ``cells`` and the observed pairs
        ``pairs = (drug_ids, cell_ids, values)``, in that order.

        Ids are unique, each kind of row has one width, values are
        finite, only profiled drugs carry a guiding label, and every pair
        names a known drug and cell and appears once.  A pair error names
        ``source`` and the pair's 1-based row."""
        drug_ids = [d.id for d in drugs]
        cell_ids = [c.id for c in cells]
        if len(set(drug_ids)) != len(drug_ids):
            raise DataError("duplicate drug ids")
        if len(set(cell_ids)) != len(cell_ids):
            raise DataError("duplicate cell ids")
        if not drugs or not cells:
            raise DataError("a dataset needs at least one drug and one cell line")
        embeddings = _matrix([d.smiles_embedding for d in drugs], drug_ids,
                             "embedding", "embedding for drug")
        features = _matrix([c.features for c in cells], cell_ids,
                           "cell feature", "features for cell")
        mask = np.array([d.has_profile for d in drugs])
        width = next((d.inhibition_profile.shape for d in drugs if d.has_profile),
                     (0,))
        profiles = _matrix([d.inhibition_profile if d.has_profile
                            else np.zeros(width) for d in drugs], drug_ids,
                           "profile", "profile for drug")
        labels = np.array([-1 if d.guiding_label is None else d.guiding_label
                           for d in drugs], dtype=np.int64)
        stray = (labels >= 0) & ~mask
        if stray.any():
            raise DataError(f"drug {drug_ids[int(np.argmax(stray))]} has a "
                            f"guiding label but no inhibition profile")

        drug_col, cell_col = (np.asarray(col, dtype=str) for col in pairs[:2])
        y = np.asarray(pairs[2], dtype=np.float64)
        if not len(drug_col) == len(cell_col) == len(y):
            raise ContractViolation("pair columns differ in length")
        pair_drug = _rows_of(drug_ids, drug_col)
        pair_cell = _rows_of(cell_ids, cell_col)
        # a key built from an unknown id may mark a later row as a repeat;
        # the unknown id is then the earlier error
        _, first = np.unique(pair_drug * len(cell_ids) + pair_cell,
                             return_index=True)
        repeat = np.ones(len(y), dtype=bool)
        repeat[first] = False
        bad = (pair_drug < 0) | (pair_cell < 0) | repeat | ~np.isfinite(y)
        if bad.any():
            r = int(np.argmax(bad))
            key = (str(drug_col[r]), str(cell_col[r]))
            where = f"{source}: row {r + 1}"
            if pair_drug[r] < 0:
                raise DataError(f"{where} references unknown drug {key[0]!r}")
            if pair_cell[r] < 0:
                raise DataError(f"{where} references unknown cell {key[1]!r}")
            what = ("duplicate sensitivity entry" if repeat[r]
                    else "non-finite sensitivity value")
            raise DataError(f"{where}: {what} for {key}")

        return cls(
            drug_ids=drug_ids, embeddings=embeddings, profiles=profiles,
            profile_mask=mask, labels=labels, cell_ids=cell_ids,
            features=features, pair_drug=pair_drug, pair_cell=pair_cell, pair_y=y,
            provenance=provenance,
        )

    # ---- row views ----

    @cached_property
    def drugs(self) -> list[DrugRecord]:
        return [DrugRecord(i, e, p if m else None, int(lab) if lab >= 0 else None)
                for i, e, p, m, lab in zip(self.drug_ids, self.embeddings,
                                           self.profiles, self.profile_mask,
                                           self.labels)]

    @cached_property
    def cells(self) -> list[CellLineRecord]:
        return [CellLineRecord(i, f) for i, f in zip(self.cell_ids, self.features)]

    @property
    def smiles_dim(self) -> int:
        return self.embeddings.shape[1]

    @property
    def ip_dim(self) -> int:
        if not self.profile_mask.any():
            raise DataError("dataset has no inhibition profiles")
        return self.profiles.shape[1]

    @property
    def bio_dim(self) -> int:
        return self.features.shape[1]

    def drug_index(self) -> dict[str, int]:
        return {d: i for i, d in enumerate(self.drug_ids)}

    def guiding_labels(self) -> dict[str, int]:
        """Drug id -> guiding label, for the labeled drugs."""
        return {self.drug_ids[i]: int(self.labels[i])
                for i in np.flatnonzero(self.labels >= 0)}

    def embedding_matrix(self) -> np.ndarray:
        return self.embeddings

    def feature_matrix(self) -> np.ndarray:
        return self.features


# ---------------------------------------------------------------------------
# k-means (Lloyd's algorithm with k-means++ seeding)
# ---------------------------------------------------------------------------

def _sq_dists(points: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    d = points[:, None, :] - centroids[None, :, :]
    return np.einsum("nkd,nkd->nk", d, d)


def _kmeans_pp(points: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    n = points.shape[0]
    centroids = np.empty((k, points.shape[1]))
    centroids[0] = points[rng.integers(n)]
    closest = np.sum((points - centroids[0]) ** 2, axis=1)
    for j in range(1, k):
        total = closest.sum()
        if total <= 0.0:
            idx = rng.integers(n)
        else:
            idx = rng.choice(n, p=closest / total)
        centroids[j] = points[idx]
        closest = np.minimum(closest, np.sum((points - centroids[j]) ** 2, axis=1))
    return centroids


def _lloyd(points: np.ndarray, k: int, rng: np.random.Generator,
           max_iters: int) -> tuple[np.ndarray, np.ndarray, float]:
    centroids = _kmeans_pp(points, k, rng)
    labels = np.argmin(_sq_dists(points, centroids), axis=1)
    prev_inertia = np.inf
    for _ in range(max_iters):
        for j in range(k):
            member = labels == j
            if member.any():
                centroids[j] = points[member].mean(axis=0)
            else:
                # empty cluster: re-seed at the point farthest from its centroid
                dist = _sq_dists(points, centroids)
                worst = int(np.argmax(dist[np.arange(len(points)), labels]))
                centroids[j] = points[worst]
        dist = _sq_dists(points, centroids)
        new_labels = np.argmin(dist, axis=1)
        inertia = float(dist[np.arange(len(points)), new_labels].sum())
        assert inertia <= prev_inertia + 1e-9 * max(1.0, abs(prev_inertia)), \
            "k-means inertia increased"
        prev_inertia = inertia
        if np.array_equal(new_labels, labels):
            labels = new_labels
            break
        labels = new_labels
    return labels, centroids, prev_inertia


def kmeans(points, n_clusters: int, seed: int, max_iters: int = 300,
           n_init: int = 8) -> tuple[np.ndarray, np.ndarray, float]:
    """Best of ``n_init`` Lloyd runs (k-means++ seeding), by inertia.
    Deterministic for a given seed."""
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2:
        raise ContractViolation(f"points must be 2-D, got shape {points.shape}")
    n = points.shape[0]
    if not (1 <= n_clusters <= n):
        raise ContractViolation(
            f"need 1 <= n_clusters <= n_points, got {n_clusters} for {n} points"
        )
    best = None
    seeds = np.random.SeedSequence(seed).spawn(n_init)
    for ss in seeds:
        rng = np.random.Generator(np.random.PCG64(ss))
        labels, centroids, inertia = _lloyd(points, n_clusters, rng, max_iters)
        if best is None or inertia < best[2]:
            best = (labels, centroids, inertia)
    return best


def derive_guiding_labels(dataset: Dataset, n_labels: int = 3,
                          seed: int = 0) -> Dataset:
    """Cluster the standardized inhibition profiles of the profiled drugs
    and write the assignments back as guiding labels; unprofiled drugs
    stay unlabeled."""
    rows = dataset.profiles[dataset.profile_mask]
    if len(rows) < n_labels:
        raise DataError(
            f"need at least {n_labels} profiled drugs, have {len(rows)}"
        )
    mean = rows.mean(axis=0)
    std = rows.std(axis=0)
    std = np.where(std > 0, std, 1.0)
    labels, _, _ = kmeans((rows - mean) / std, n_labels, seed=seed)
    occupied = len(set(labels.tolist()))
    if occupied < n_labels:
        log.warning(
            "guiding-label clustering degenerate: only %d of %d clusters occupied",
            occupied, n_labels,
        )
    all_labels = np.full(len(dataset.drug_ids), -1, dtype=np.int64)
    all_labels[dataset.profile_mask] = labels
    return replace(dataset, labels=all_labels)


# ---------------------------------------------------------------------------
# standardization
# ---------------------------------------------------------------------------

def _column_stats(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    mean = rows.mean(axis=0)
    std = rows.std(axis=0)
    zero = std == 0.0
    if zero.any():
        log.warning("%d zero-variance columns left unscaled", int(zero.sum()))
    return mean, np.where(zero, 1.0, std)


@dataclass
class Scaler:
    """Train-split column statistics; binary cell-feature columns (train
    values all in {0, 1}) are passed through untouched."""

    embedding_mean: np.ndarray
    embedding_std: np.ndarray
    ip_mean: np.ndarray
    ip_std: np.ndarray
    cell_mean: np.ndarray
    cell_std: np.ndarray
    cell_binary: np.ndarray
    ic50_mean: float
    ic50_std: float

    def transform_embedding(self, rows):
        return (np.asarray(rows) - self.embedding_mean) / self.embedding_std

    def inverse_embedding(self, rows):
        return np.asarray(rows) * self.embedding_std + self.embedding_mean

    def transform_ip(self, rows):
        return (np.asarray(rows) - self.ip_mean) / self.ip_std

    def inverse_ip(self, rows):
        return np.asarray(rows) * self.ip_std + self.ip_mean

    def transform_cell(self, rows):
        rows = np.asarray(rows)
        out = (rows - self.cell_mean) / self.cell_std
        return np.where(self.cell_binary, rows, out)

    def inverse_cell(self, rows):
        rows = np.asarray(rows)
        out = rows * self.cell_std + self.cell_mean
        return np.where(self.cell_binary, rows, out)

    def transform_ic50(self, values):
        return (np.asarray(values) - self.ic50_mean) / self.ic50_std

    def inverse_ic50(self, values):
        return np.asarray(values) * self.ic50_std + self.ic50_mean

    def to_dict(self) -> dict:
        return {
            "embedding_mean": self.embedding_mean.tolist(),
            "embedding_std": self.embedding_std.tolist(),
            "ip_mean": self.ip_mean.tolist(),
            "ip_std": self.ip_std.tolist(),
            "cell_mean": self.cell_mean.tolist(),
            "cell_std": self.cell_std.tolist(),
            "cell_binary": [bool(b) for b in self.cell_binary],
            "ic50_mean": self.ic50_mean,
            "ic50_std": self.ic50_std,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "Scaler":
        return cls(
            embedding_mean=np.asarray(d["embedding_mean"], dtype=np.float64),
            embedding_std=np.asarray(d["embedding_std"], dtype=np.float64),
            ip_mean=np.asarray(d["ip_mean"], dtype=np.float64),
            ip_std=np.asarray(d["ip_std"], dtype=np.float64),
            cell_mean=np.asarray(d["cell_mean"], dtype=np.float64),
            cell_std=np.asarray(d["cell_std"], dtype=np.float64),
            cell_binary=np.asarray(d["cell_binary"], dtype=bool),
            ic50_mean=float(d["ic50_mean"]),
            ic50_std=float(d["ic50_std"]),
        )


def fit_scaler(dataset: Dataset, train_cell_ids: set[str]) -> Scaler:
    """Fit standardization statistics on the training portion only: all
    drugs (the split is over cell lines), train cells, train pairs."""
    emb_mean, emb_std = _column_stats(dataset.embeddings)
    ip_mean, ip_std = _column_stats(dataset.profiles[dataset.profile_mask])
    is_train = np.array([c in train_cell_ids for c in dataset.cell_ids])
    train_cells = dataset.features[is_train]
    binary = np.all((train_cells == 0.0) | (train_cells == 1.0), axis=0)
    cell_mean, cell_std = _column_stats(train_cells)
    train_vals = dataset.pair_y[is_train[dataset.pair_cell]]
    if train_vals.size == 0:
        raise DataError("no training sensitivity pairs to fit the scaler on")
    ic50_mean = float(train_vals.mean())
    ic50_std = float(train_vals.std())
    if ic50_std == 0.0:
        log.warning("zero-variance sensitivity values left unscaled")
        ic50_std = 1.0
    return Scaler(emb_mean, emb_std, ip_mean, ip_std, cell_mean, cell_std,
                  binary, ic50_mean, ic50_std)


def apply_scaler(dataset: Dataset, scaler: "Scaler") -> Dataset:
    """Standardized copy of the dataset using an already-fitted scaler;
    the transformed sensitivity values must stay finite."""
    values = scaler.transform_ic50(dataset.pair_y)
    bad = ~np.isfinite(values)
    if bad.any():
        k = int(np.argmax(bad))
        key = (dataset.drug_ids[dataset.pair_drug[k]],
               dataset.cell_ids[dataset.pair_cell[k]])
        raise DataError(f"non-finite sensitivity value for {key}")
    mask = dataset.profile_mask
    profiles = np.zeros_like(dataset.profiles)
    profiles[mask] = scaler.transform_ip(dataset.profiles[mask])
    return replace(dataset,
                   embeddings=scaler.transform_embedding(dataset.embeddings),
                   profiles=profiles,
                   features=scaler.transform_cell(dataset.features),
                   pair_y=values)


def standardize(dataset: Dataset, train_cell_ids: set[str]) -> tuple[Dataset, Scaler]:
    """Standardized copy of the dataset plus the scaler fitted on the
    training portion."""
    scaler = fit_scaler(dataset, train_cell_ids)
    return apply_scaler(dataset, scaler), scaler


# ---------------------------------------------------------------------------
# synthetic generator
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SynthSpec:
    """Planted-structure generator settings.

    Drugs carry a latent factor u that fixes both their cluster and their
    embedding; cells carry a factor v; sensitivity is the inner product
    of the two factors plus a per-cluster offset and noise, so it depends
    on both sides.  Within-cluster profile variation has a decodable
    (factor-coupled) component and an i.i.d. component; the ``*_noise``
    and ``ip_factor_coupling`` fields together are the noise levels, and
    setting them all to zero makes within-cluster profiles identical.
    """

    n_drugs: int = 120
    n_profiled: int = 60
    n_cells: int = 150
    observance: float = 0.7
    smiles_dim: int = 300
    ip_dim: int = 294
    bio_dim: int = 241
    n_clusters: int = 3
    factor_dim: int = 4
    cluster_separation: float = 3.0
    ip_center_spread: float = 20.0
    ip_factor_coupling: float = 8.0
    ip_noise: float = 5.0
    emb_noise: float = 0.5
    cell_noise: float = 0.2
    ic50_noise: float = 0.25
    cluster_effect: float = 0.8
    n_binary_features: int = 4

    def __post_init__(self):
        if not (0 < self.n_profiled <= self.n_drugs):
            raise ContractViolation("need 0 < n_profiled <= n_drugs")
        if not (0.0 < self.observance <= 1.0):
            raise ContractViolation("observance must be in (0, 1]")
        if self.n_binary_features >= self.bio_dim:
            raise ContractViolation("n_binary_features must leave continuous columns")
        if self.n_clusters < 1 or self.factor_dim < 1:
            raise ContractViolation("n_clusters and factor_dim must be >= 1")

    def to_dict(self) -> dict:
        return {k: getattr(self, k) for k in self.__dataclass_fields__}

    @classmethod
    def from_dict(cls, d: dict) -> "SynthSpec":
        return cls(**d)


DESK_SPEC = SynthSpec(smiles_dim=32, ip_dim=24, bio_dim=20)


@dataclass
class SyntheticTruth:
    """Ground truth behind a generated dataset, for tests and diagnostics."""

    drug_factors: np.ndarray       # (n_drugs, factor_dim)
    cell_factors: np.ndarray       # (n_cells, factor_dim)
    planted_labels: np.ndarray     # (n_drugs,)
    ip_centers: np.ndarray         # (n_clusters, ip_dim)
    cluster_effects: np.ndarray    # (n_clusters,)
    interaction: np.ndarray        # (n_drugs, n_cells) noise-free signal


def generate_synthetic_with_truth(
    spec: SynthSpec, seed: int = 0
) -> tuple[Dataset, SyntheticTruth]:
    rng = np.random.Generator(np.random.PCG64(seed))

    cluster_u = rng.normal(0.0, spec.cluster_separation,
                           size=(spec.n_clusters, spec.factor_dim))
    planted = rng.integers(0, spec.n_clusters, size=spec.n_drugs)
    u_dev = rng.standard_normal((spec.n_drugs, spec.factor_dim))
    u = cluster_u[planted] + u_dev

    emb_map = rng.standard_normal((spec.factor_dim, spec.smiles_dim))
    emb_map /= np.sqrt(spec.factor_dim)
    embeddings = u @ emb_map + spec.emb_noise * rng.standard_normal(
        (spec.n_drugs, spec.smiles_dim))

    ip_centers = 55.0 + spec.ip_center_spread * rng.standard_normal(
        (spec.n_clusters, spec.ip_dim))
    ip_map = rng.standard_normal((spec.factor_dim, spec.ip_dim))
    ip_map /= np.sqrt(spec.factor_dim)
    profiles = (
        ip_centers[planted]
        + spec.ip_factor_coupling * (u_dev @ ip_map)
        + spec.ip_noise * rng.standard_normal((spec.n_drugs, spec.ip_dim))
    )

    v = rng.standard_normal((spec.n_cells, spec.factor_dim))
    n_cont = spec.bio_dim - spec.n_binary_features
    cell_map = rng.standard_normal((spec.factor_dim, n_cont))
    cell_map /= np.sqrt(spec.factor_dim)
    cont = v @ cell_map + spec.cell_noise * rng.standard_normal(
        (spec.n_cells, n_cont))
    binary = (v[:, np.arange(spec.n_binary_features) % spec.factor_dim] > 0.0)
    features = np.concatenate([cont, binary.astype(np.float64)], axis=1)

    effects = spec.cluster_effect * rng.standard_normal(spec.n_clusters)
    interaction = (u @ v.T) / np.sqrt(spec.factor_dim) + effects[planted][:, None]
    noise = spec.ic50_noise * rng.standard_normal((spec.n_drugs, spec.n_cells))
    observed = rng.random((spec.n_drugs, spec.n_cells)) < spec.observance

    width = max(3, len(str(spec.n_drugs - 1)))
    drug_ids = [f"D{i:0{width}d}" for i in range(spec.n_drugs)]
    cwidth = max(3, len(str(spec.n_cells - 1)))
    cell_ids = [f"C{j:0{cwidth}d}" for j in range(spec.n_cells)]

    profiled_idx = set(
        rng.choice(spec.n_drugs, size=spec.n_profiled, replace=False).tolist()
    )
    drugs = [
        DrugRecord(
            id=drug_ids[i],
            smiles_embedding=embeddings[i],
            inhibition_profile=profiles[i] if i in profiled_idx else None,
        )
        for i in range(spec.n_drugs)
    ]
    cells = [CellLineRecord(id=cell_ids[j], features=features[j])
             for j in range(spec.n_cells)]
    rows, cols = np.nonzero(observed)
    dataset = Dataset.build(
        drugs, cells, (np.asarray(drug_ids)[rows], np.asarray(cell_ids)[cols],
                       interaction[rows, cols] + noise[rows, cols]),
        provenance="synthetic")
    truth = SyntheticTruth(
        drug_factors=u, cell_factors=v, planted_labels=planted,
        ip_centers=ip_centers, cluster_effects=effects,
        interaction=interaction,
    )
    return dataset, truth


def generate_synthetic(spec: SynthSpec, seed: int = 0) -> Dataset:
    dataset, _ = generate_synthetic_with_truth(spec, seed)
    return dataset


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------

@contextmanager
def atomic_open(path, binary: bool = False):
    """Open a temporary file beside ``path`` for writing and rename it over
    ``path`` when the block ends, so that a reader sees the old file or the
    new one, never a partial write.  If the block fails, the temporary file
    is removed and ``path`` is left as it was.  Text is UTF-8, written
    without newline translation."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{uuid.uuid4().hex}.tmp")
    try:
        with (open(tmp, "xb") if binary
              else open(tmp, "x", newline="", encoding="utf-8")) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _write_feature_csv(path: Path, prefix: str, ids: list[str],
                       rows: np.ndarray):
    with atomic_open(path) as fh:
        w = csv.writer(fh)
        w.writerow(["id"] + [f"{prefix}{i}" for i in range(rows.shape[1])])
        w.writerows([i] + list(map(repr, row))
                    for i, row in zip(ids, rows.tolist()))


def save_csv(dataset: Dataset, directory, seed: int | None = None,
             generator_spec: SynthSpec | None = None):
    """Write the four CSV files plus a manifest into ``directory``."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    mask = dataset.profile_mask
    _write_feature_csv(directory / "drugs.csv", "e", dataset.drug_ids,
                       dataset.embeddings)
    _write_feature_csv(directory / "profiles.csv", "k",
                       np.asarray(dataset.drug_ids)[mask].tolist(),
                       dataset.profiles[mask])
    _write_feature_csv(directory / "cells.csv", "f", dataset.cell_ids,
                       dataset.features)
    with atomic_open(directory / "ic50.csv") as fh:
        w = csv.writer(fh)
        w.writerow(["drug_id", "cell_id", "ic50"])
        w.writerows(zip(np.asarray(dataset.drug_ids)[dataset.pair_drug].tolist(),
                        np.asarray(dataset.cell_ids)[dataset.pair_cell].tolist(),
                        map(repr, dataset.pair_y.tolist())))

    manifest = {
        "format_version": MANIFEST_VERSION,
        "provenance": dataset.provenance,
        "n_drugs": len(dataset.drug_ids),
        "n_profiled": int(mask.sum()),
        "n_cells": len(dataset.cell_ids),
        "n_pairs": len(dataset.pair_y),
        "smiles_dim": dataset.smiles_dim,
        "ip_dim": dataset.profiles.shape[1],
        "bio_dim": dataset.bio_dim,
        "seed": seed,
        "generator_spec": generator_spec.to_dict() if generator_spec else None,
    }
    with atomic_open(directory / "manifest.json") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _read_rows(path: Path, n_cols: int) -> tuple[list[str], list[list[str]]]:
    """Header and data rows of a CSV whose every row has ``n_cols`` fields."""
    if not path.exists():
        raise DataError(f"missing file {path}")
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        raise DataError(f"{path.name}: empty file")
    header, body = rows[0], rows[1:]
    if len(header) != n_cols:
        raise DataError(
            f"{path.name}: expected {n_cols} columns, header has {len(header)}"
        )
    widths = np.fromiter(map(len, body), dtype=np.intp, count=len(body))
    odd = np.flatnonzero(widths != n_cols)
    if odd.size:
        r, n = int(odd[0]), int(widths[odd[0]])
        where = (f"column {header[n]}" if n < n_cols
                 else f"after column {header[-1]}")
        raise DataError(f"{path.name}: row {r + 1}, {where}: row has "
                        f"{n} fields, expected {n_cols}")
    return header, body


def _values(path: Path, header: list[str], body: list[list[str]],
            first: int) -> np.ndarray:
    """Columns ``first:`` of the data rows as a float64 matrix.  Tokens
    are converted in one pass; the rows are only scanned cell by cell
    after a failure, to name the row and column."""
    width = len(header) - first
    try:
        flat = np.fromiter(
            map(float, chain.from_iterable(map(itemgetter(slice(first, None)),
                                               body))),
            dtype=np.float64, count=len(body) * width)
    except ValueError:
        for r, row in enumerate(body, start=1):
            for c, token in enumerate(row[first:], start=first):
                try:
                    float(token)
                except ValueError:
                    raise DataError(f"{path.name}: row {r}, column {header[c]}: "
                                    f"non-numeric value {token!r}") from None
        raise
    values = flat.reshape(len(body), width)
    bad = np.argwhere(~np.isfinite(values))
    if bad.size:
        r, c = bad[0]
        raise DataError(f"{path.name}: row {r + 1}, column "
                        f"{header[first + c]}: non-finite value")
    return values


def read_feature_csv(path, width: int) -> tuple[list[str], np.ndarray]:
    """Ids and the (n, width) float64 matrix of an ``id,v0..v{W-1}``
    feature CSV.  Ids may repeat; errors name the file, row and column."""
    path = Path(path)
    header, body = _read_rows(path, width + 1)
    return list(map(itemgetter(0), body)), _values(path, header, body, 1)


def _rows_by_id(path: Path, width: int, count: int) -> dict[str, np.ndarray]:
    """The rows of a dataset feature CSV by id; ids are unique and their
    number is ``count``, as the manifest says."""
    ids, values = read_feature_csv(path, width)
    out: dict[str, np.ndarray] = {}
    for r, (rid, row) in enumerate(zip(ids, values), start=1):
        if rid in out:
            raise DataError(f"{path.name}: duplicate id {rid!r} at row {r}")
        out[rid] = row
    if len(out) != count:
        raise DataError(f"{path.name}: {len(out)} rows, manifest says {count}")
    return out


def load_manifest(directory) -> dict:
    path = Path(directory) / "manifest.json"
    if not path.exists():
        raise DataError(f"missing file {path}")
    with open(path, encoding="utf-8") as fh:
        manifest = json.load(fh)
    if manifest.get("format_version") != MANIFEST_VERSION:
        raise DataError(
            f"manifest format_version {manifest.get('format_version')!r} "
            f"!= supported {MANIFEST_VERSION}"
        )
    return manifest


def load_csv(directory) -> Dataset:
    """Load a dataset directory, validating rows and widths against the
    manifest; errors name the offending file, row, and column."""
    directory = Path(directory)
    manifest = load_manifest(directory)

    emb = _rows_by_id(directory / "drugs.csv", manifest["smiles_dim"],
                      manifest["n_drugs"])
    profiles = _rows_by_id(directory / "profiles.csv", manifest["ip_dim"],
                           manifest["n_profiled"])
    feats = _rows_by_id(directory / "cells.csv", manifest["bio_dim"],
                        manifest["n_cells"])
    unknown = set(profiles) - set(emb)
    if unknown:
        raise DataError(f"profiles.csv: ids not present in drugs.csv: "
                        f"{sorted(unknown)[:5]}")

    drugs = [DrugRecord(id=i, smiles_embedding=v,
                        inhibition_profile=profiles.get(i))
             for i, v in emb.items()]
    cells = [CellLineRecord(id=i, features=v) for i, v in feats.items()]

    ic50_path = directory / "ic50.csv"
    header, body = _read_rows(ic50_path, 3)
    dataset = Dataset.build(
        drugs, cells, (list(map(itemgetter(0), body)),
                       list(map(itemgetter(1), body)),
                       _values(ic50_path, header, body, 2)[:, 0]),
        provenance=manifest.get("provenance", "csv"), source=ic50_path.name)
    if len(dataset.pair_y) != manifest["n_pairs"]:
        raise DataError(f"ic50.csv: {len(dataset.pair_y)} rows, manifest says "
                        f"{manifest['n_pairs']}")
    return dataset
