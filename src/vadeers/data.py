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
import math
from dataclasses import dataclass, replace
from itertools import chain
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


class SensitivityTable:
    """Sparse (drug_id, cell_id) -> sensitivity map; missing keys are the
    missing-entry mask."""

    def __init__(self, entries: dict[tuple[str, str], float] | None = None):
        self.entries: dict[tuple[str, str], float] = {}
        if entries:
            for key, value in entries.items():
                self.add(key[0], key[1], value)

    def add(self, drug_id: str, cell_id: str, value: float):
        key = (drug_id, cell_id)
        if key in self.entries:
            raise DataError(f"duplicate sensitivity entry for {key}")
        value = float(value)
        if not math.isfinite(value):
            raise DataError(f"non-finite sensitivity value for {key}")
        self.entries[key] = value

    @classmethod
    def from_unique(cls, keys, values: np.ndarray) -> "SensitivityTable":
        """Table of ``keys``, already unique, with the aligned ``values``,
        built in one pass with one finiteness check."""
        finite = np.isfinite(values)
        if not finite.all():
            key = list(keys)[int(np.argmin(finite))]
            raise DataError(f"non-finite sensitivity value for {key}")
        table = cls()
        table.entries = dict(zip(keys, values.tolist()))
        return table

    def __len__(self) -> int:
        return len(self.entries)

    def __contains__(self, key) -> bool:
        return key in self.entries

    def pairs(self) -> list[tuple[str, str]]:
        return list(self.entries.keys())

    def value(self, drug_id: str, cell_id: str) -> float:
        return self.entries[(drug_id, cell_id)]


@dataclass
class Dataset:
    drugs: list[DrugRecord]
    cells: list[CellLineRecord]
    sensitivities: SensitivityTable
    provenance: str = "synthetic"

    def __post_init__(self):
        self.validate()

    def validate(self):
        drug_ids = [d.id for d in self.drugs]
        cell_ids = [c.id for c in self.cells]
        if len(set(drug_ids)) != len(drug_ids):
            raise DataError("duplicate drug ids")
        if len(set(cell_ids)) != len(cell_ids):
            raise DataError("duplicate cell ids")
        widths = {d.smiles_embedding.shape for d in self.drugs}
        if len(widths) > 1:
            raise DataError(f"inconsistent embedding widths: {sorted(widths)}")
        ip_widths = {d.inhibition_profile.shape for d in self.drugs if d.has_profile}
        if len(ip_widths) > 1:
            raise DataError(f"inconsistent profile widths: {sorted(ip_widths)}")
        cell_widths = {c.features.shape for c in self.cells}
        if len(cell_widths) > 1:
            raise DataError(f"inconsistent cell feature widths: {sorted(cell_widths)}")
        for d in self.drugs:
            if not np.all(np.isfinite(d.smiles_embedding)):
                raise DataError(f"non-finite embedding for drug {d.id}")
            if d.has_profile and not np.all(np.isfinite(d.inhibition_profile)):
                raise DataError(f"non-finite profile for drug {d.id}")
            if d.guiding_label is not None and not d.has_profile:
                raise DataError(
                    f"drug {d.id} has a guiding label but no inhibition profile"
                )
        for c in self.cells:
            if not np.all(np.isfinite(c.features)):
                raise DataError(f"non-finite features for cell {c.id}")
        known_drugs, known_cells = set(drug_ids), set(cell_ids)
        for drug_id, cell_id in self.sensitivities.entries:
            if drug_id not in known_drugs:
                raise DataError(f"sensitivity entry references unknown drug {drug_id}")
            if cell_id not in known_cells:
                raise DataError(f"sensitivity entry references unknown cell {cell_id}")

    # ---- convenience views ----

    @property
    def smiles_dim(self) -> int:
        return self.drugs[0].smiles_embedding.shape[0]

    @property
    def ip_dim(self) -> int:
        for d in self.drugs:
            if d.has_profile:
                return d.inhibition_profile.shape[0]
        raise DataError("dataset has no inhibition profiles")

    @property
    def bio_dim(self) -> int:
        return self.cells[0].features.shape[0]

    def drug_index(self) -> dict[str, int]:
        return {d.id: i for i, d in enumerate(self.drugs)}

    def cell_index(self) -> dict[str, int]:
        return {c.id: i for i, c in enumerate(self.cells)}

    def pair_index(self, pairs) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """For each (drug_id, cell_id) pair: the row of its drug in
        ``drugs``, the row of its cell in ``cells``, and its sensitivity
        value, NaN where the pair is unobserved."""
        didx, cidx = self.drug_index(), self.cell_index()
        values = self.sensitivities.entries
        return (np.array([didx[d] for d, _ in pairs], dtype=np.intp),
                np.array([cidx[c] for _, c in pairs], dtype=np.intp),
                np.array([values.get(p, np.nan) for p in pairs]))

    def guiding_labels(self) -> dict[str, int]:
        """Drug id -> guiding label, for the labeled drugs."""
        return {d.id: d.guiding_label for d in self.drugs
                if d.guiding_label is not None}

    def profiled_drugs(self) -> list[DrugRecord]:
        return [d for d in self.drugs if d.has_profile]

    def embedding_matrix(self) -> np.ndarray:
        return np.stack([d.smiles_embedding for d in self.drugs])

    def profile_matrix(self) -> np.ndarray:
        return np.stack([d.inhibition_profile for d in self.profiled_drugs()])

    def feature_matrix(self) -> np.ndarray:
        return np.stack([c.features for c in self.cells])


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
    profiled = dataset.profiled_drugs()
    if len(profiled) < n_labels:
        raise DataError(
            f"need at least {n_labels} profiled drugs, have {len(profiled)}"
        )
    rows = np.stack([d.inhibition_profile for d in profiled])
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
    by_id = dict(zip((d.id for d in profiled), labels.tolist()))
    drugs = [replace(d, guiding_label=by_id.get(d.id)) for d in dataset.drugs]
    return Dataset(drugs=drugs, cells=dataset.cells,
                   sensitivities=dataset.sensitivities,
                   provenance=dataset.provenance)


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
    emb_mean, emb_std = _column_stats(dataset.embedding_matrix())
    ip_mean, ip_std = _column_stats(dataset.profile_matrix())
    train_cells = np.stack([c.features for c in dataset.cells
                            if c.id in train_cell_ids])
    binary = np.all((train_cells == 0.0) | (train_cells == 1.0), axis=0)
    cell_mean, cell_std = _column_stats(train_cells)
    train_vals = np.array([
        v for (d, c), v in dataset.sensitivities.entries.items()
        if c in train_cell_ids
    ])
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
    """Standardized copy of the dataset using an already-fitted scaler."""
    emb = scaler.transform_embedding(dataset.embedding_matrix())
    profiled = [i for i, d in enumerate(dataset.drugs) if d.has_profile]
    ip = (dict(zip(profiled, scaler.transform_ip(dataset.profile_matrix())))
          if profiled else {})
    drugs = [replace(d, smiles_embedding=emb[i], inhibition_profile=ip.get(i))
             for i, d in enumerate(dataset.drugs)]
    feats = scaler.transform_cell(dataset.feature_matrix())
    cells = [replace(c, features=f) for c, f in zip(dataset.cells, feats)]
    entries = dataset.sensitivities.entries
    values = scaler.transform_ic50(
        np.fromiter(entries.values(), dtype=np.float64, count=len(entries)))
    table = SensitivityTable.from_unique(entries.keys(), values)
    return Dataset(drugs=drugs, cells=cells, sensitivities=table,
                   provenance=dataset.provenance)


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
    table = SensitivityTable()
    for i, j in zip(*np.nonzero(observed)):
        table.add(drug_ids[i], cell_ids[j], float(interaction[i, j] + noise[i, j]))

    dataset = Dataset(drugs=drugs, cells=cells, sensitivities=table,
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
# CSV persistence
# ---------------------------------------------------------------------------

def _fmt(x: float) -> str:
    return repr(float(x))


def save_csv(dataset: Dataset, directory, seed: int | None = None,
             generator_spec: SynthSpec | None = None):
    """Write the four CSV files plus a manifest into ``directory``."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    smiles_dim = dataset.smiles_dim
    profiled = dataset.profiled_drugs()
    ip_dim = profiled[0].inhibition_profile.shape[0] if profiled else 0
    bio_dim = dataset.bio_dim

    with open(directory / "drugs.csv", "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["id"] + [f"e{i}" for i in range(smiles_dim)])
        for d in dataset.drugs:
            w.writerow([d.id] + [_fmt(x) for x in d.smiles_embedding])

    with open(directory / "profiles.csv", "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["id"] + [f"k{i}" for i in range(ip_dim)])
        for d in profiled:
            w.writerow([d.id] + [_fmt(x) for x in d.inhibition_profile])

    with open(directory / "cells.csv", "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["id"] + [f"f{i}" for i in range(bio_dim)])
        for c in dataset.cells:
            w.writerow([c.id] + [_fmt(x) for x in c.features])

    with open(directory / "ic50.csv", "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["drug_id", "cell_id", "ic50"])
        for (drug_id, cell_id), v in dataset.sensitivities.entries.items():
            w.writerow([drug_id, cell_id, _fmt(v)])

    manifest = {
        "format_version": MANIFEST_VERSION,
        "provenance": dataset.provenance,
        "n_drugs": len(dataset.drugs),
        "n_profiled": len(profiled),
        "n_cells": len(dataset.cells),
        "n_pairs": len(dataset.sensitivities),
        "smiles_dim": smiles_dim,
        "ip_dim": ip_dim,
        "bio_dim": bio_dim,
        "seed": seed,
        "generator_spec": generator_spec.to_dict() if generator_spec else None,
    }
    with open(directory / "manifest.json", "w", encoding="utf-8") as fh:
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
    for r, row in enumerate(body, start=1):
        if len(row) != n_cols:
            where = (f"column {header[len(row)]}" if len(row) < n_cols
                     else f"after column {header[-1]}")
            raise DataError(f"{path.name}: row {r}, {where}: row has "
                            f"{len(row)} fields, expected {n_cols}")
    return header, body


def _values(path: Path, header: list[str], body: list[list[str]],
            first: int) -> np.ndarray:
    """Columns ``first:`` of the data rows as a float64 matrix.  Tokens
    are converted in one pass; the rows are only scanned cell by cell
    after a failure, to name the row and column."""
    width = len(header) - first
    try:
        flat = np.fromiter(
            map(float, chain.from_iterable(row[first:] for row in body)),
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
    return [row[0] for row in body], _values(path, header, body, 1)


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

    table = SensitivityTable()
    ic50_path = directory / "ic50.csv"
    header, body = _read_rows(ic50_path, 3)
    values = _values(ic50_path, header, body, 2)[:, 0].tolist()
    for r, ((drug_id, cell_id, _), value) in enumerate(zip(body, values), start=1):
        if drug_id not in emb:
            raise DataError(f"ic50.csv: row {r} references unknown drug {drug_id!r}")
        if cell_id not in feats:
            raise DataError(f"ic50.csv: row {r} references unknown cell {cell_id!r}")
        try:
            table.add(drug_id, cell_id, value)
        except DataError as exc:
            raise DataError(f"ic50.csv: row {r}: {exc}") from None
    if len(table) != manifest["n_pairs"]:
        raise DataError(f"ic50.csv: {len(table)} rows, manifest says "
                        f"{manifest['n_pairs']}")

    return Dataset(drugs=drugs, cells=cells, sensitivities=table,
                   provenance=manifest.get("provenance", "csv"))
