"""Dataset model, CSV ingestion, feature standardization, k-means guiding
labels, and a synthetic generator with planted cluster and sensitivity
structure.

CSV schema (UTF-8, '.' decimal, headers required):

* ``drugs.csv``:     ``id,e0,...,e{S-1}``   one row per drug embedding
* ``profiles.csv``:  ``id,k0,...,k{I-1}``   inhibition profiles, subset of drugs
* ``cells.csv``:     ``id,f0,...,f{B-1}``   cell-line biological features
* ``ic50.csv``:      ``drug_id,cell_id,ic50`` observed sensitivity pairs
* ``manifest.json``: counts, dims, seed, generator spec, format version

Rows end in ``\r\n`` and floats are written in shortest round-trip
``repr`` form, so an export/import round-trip is exact (:func:`write_table`,
:func:`read_table`).
"""

from __future__ import annotations

import csv
import io
import json
import logging
import os
import types
import typing
import uuid
from contextlib import contextmanager
from dataclasses import asdict, dataclass, fields, replace
from functools import cached_property
from itertools import repeat
from pathlib import Path

import numpy as np

from .exceptions import ContractViolation, DataError

log = logging.getLogger(__name__)

MANIFEST_VERSION = 1
# the manifest's widths and row counts, each a non-negative int
MANIFEST_COUNTS = ("smiles_dim", "ip_dim", "bio_dim", "n_drugs", "n_profiled",
                   "n_cells", "n_pairs")


# ---------------------------------------------------------------------------
# core records
# ---------------------------------------------------------------------------

@dataclass
class DrugRecord:
    """One drug: a row view of a :class:`Dataset`."""

    id: str
    smiles_embedding: np.ndarray
    inhibition_profile: np.ndarray | None = None
    guiding_label: int | None = None


@dataclass
class CellLineRecord:
    """One cell line: a row view of a :class:`Dataset`."""

    id: str
    features: np.ndarray


def _row_index(name: str, table) -> dict[str, int]:
    """Id -> row of the ``(ids, matrix)`` table ``name``, checked to have
    one id per matrix row, unique ids and finite values; errors name the
    table's file and the first offending row."""
    ids, values = table
    if values.ndim != 2 or len(values) != len(ids):
        raise ContractViolation(f"{name}: {len(ids)} ids for a matrix of "
                                f"shape {values.shape}")
    rows: dict[str, int] = {}
    for r, i in enumerate(ids):
        if rows.setdefault(i, r) != r:
            raise DataError(f"{name}: duplicate id {i!r} at row {r + 1}")
    bad = ~np.isfinite(values).all(axis=1)
    if bad.any():
        raise DataError(f"{name}: row {int(np.argmax(bad)) + 1}: non-finite value")
    return rows


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
    def build(cls, drugs, profiles, cells, pairs,
              provenance: str = "synthetic") -> "Dataset":
        """The unlabeled dataset of the tables ``drugs`` (embeddings),
        ``profiles`` (inhibition profiles of some of the drugs) and
        ``cells`` (features), each an ``(ids, matrix)`` pair as
        :func:`read_feature_csv` gives it, and of the observed pairs
        ``pairs = (drug_ids, cell_ids, values)``, in that order.

        Each table has unique ids and finite values, every profile names
        a drug, and every pair names a known drug and cell, appears once
        and has a finite value.  Errors name the table's CSV file and the
        1-based row."""
        drugs, profiles, cells = ((ids, np.asarray(m, dtype=np.float64))
                                  for ids, m in (drugs, profiles, cells))
        drug_rows = _row_index("drugs.csv", drugs)
        profile_rows = _row_index("profiles.csv", profiles)
        cell_rows = _row_index("cells.csv", cells)
        if not drug_rows or not cell_rows:
            raise DataError(f"{'cells' if drug_rows else 'drugs'}.csv: no rows; a "
                            f"dataset needs at least one drug and one cell line")
        unknown = profile_rows.keys() - drug_rows.keys()
        if unknown:
            raise DataError(f"profiles.csv: ids not present in drugs.csv: "
                            f"{sorted(unknown)[:5]}")
        placed = [drug_rows[i] for i in profiles[0]]
        mask = np.zeros(len(drug_rows), dtype=bool)
        mask[placed] = True
        profile_matrix = np.zeros((len(drug_rows), profiles[1].shape[1]))
        profile_matrix[placed] = profiles[1]

        drug_col, cell_col = pairs[:2]
        y = np.asarray(pairs[2], dtype=np.float64)
        if not len(drug_col) == len(cell_col) == len(y):
            raise ContractViolation("pair columns differ in length")
        pair_drug, pair_cell = (
            np.fromiter(map(rows.get, col, repeat(-1)), dtype=np.int64,
                        count=len(y))
            for rows, col in ((drug_rows, drug_col), (cell_rows, cell_col)))
        # a stable sort keeps each key's first row first; a key built from
        # an unknown id may mark a later row as a repeat, and the unknown
        # id is then the earlier error
        keys = pair_drug * len(cell_rows) + pair_cell
        order = np.argsort(keys, kind="stable")
        keys.sort()
        repeat_row = np.zeros(len(y), dtype=bool)
        repeat_row[order[1:][keys[1:] == keys[:-1]]] = True
        bad = (pair_drug < 0) | (pair_cell < 0) | repeat_row | ~np.isfinite(y)
        if bad.any():
            r = int(np.argmax(bad))
            key = (str(drug_col[r]), str(cell_col[r]))
            where = f"ic50.csv: row {r + 1}"
            if pair_drug[r] < 0:
                raise DataError(f"{where} references unknown drug {key[0]!r}")
            if pair_cell[r] < 0:
                raise DataError(f"{where} references unknown cell {key[1]!r}")
            what = ("duplicate sensitivity entry" if repeat_row[r]
                    else "non-finite sensitivity value")
            raise DataError(f"{where}: {what} for {key}")

        return cls(
            drug_ids=list(drugs[0]), embeddings=drugs[1], profiles=profile_matrix,
            profile_mask=mask, labels=np.full(len(drug_rows), -1, dtype=np.int64),
            cell_ids=list(cells[0]), features=cells[1], pair_drug=pair_drug,
            pair_cell=pair_cell, pair_y=y, provenance=provenance,
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
            raise DataError("profiles.csv: no rows; the dataset has no "
                            "inhibition profiles")
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

KMEANS_MAX_ITERS = 300
KMEANS_N_INIT = 8


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


def _lloyd(points: np.ndarray, k: int,
           rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray, float]:
    centroids = _kmeans_pp(points, k, rng)
    labels = np.argmin(_sq_dists(points, centroids), axis=1)
    prev_inertia = np.inf
    for _ in range(KMEANS_MAX_ITERS):
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


def kmeans(points, n_clusters: int,
           seed: int) -> tuple[np.ndarray, np.ndarray, float]:
    """Best of ``KMEANS_N_INIT`` Lloyd runs (k-means++ seeding) of at most
    ``KMEANS_MAX_ITERS`` steps, by inertia.  Deterministic for a given
    seed."""
    points = np.asarray(points, dtype=np.float64)
    n = points.shape[0]
    if not (1 <= n_clusters <= n):
        raise ContractViolation(
            f"need 1 <= n_clusters <= n_points, got {n_clusters} for {n} points"
        )
    best = None
    seeds = np.random.SeedSequence(seed).spawn(KMEANS_N_INIT)
    for ss in seeds:
        rng = np.random.Generator(np.random.PCG64(ss))
        labels, centroids, inertia = _lloyd(points, n_clusters, rng)
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
    mean, std = _column_stats(rows, "profiles.csv", "k")
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

def _finite_stats(name: str, prefix: str, mean, std) -> None:
    """Raise a DataError naming the CSV file ``name`` and the first value
    column (``{prefix}{j}``, or ``prefix`` for one statistic) whose mean
    or std is not finite, which finite values reach only by overflow."""
    bad = ~(np.isfinite(mean) & np.isfinite(std))
    if np.any(bad):
        column = f"{prefix}{np.argmax(bad)}" if np.ndim(mean) else prefix
        raise DataError(f"{name}: column {column}: the mean or standard "
                        f"deviation overflows; the values are too large to "
                        f"standardize")


def _column_stats(rows: np.ndarray, name: str,
                  prefix: str) -> tuple[np.ndarray, np.ndarray]:
    with np.errstate(over="ignore", invalid="ignore"):
        mean = rows.mean(axis=0)
        std = rows.std(axis=0)
    _finite_stats(name, prefix, mean, std)
    zero = std == 0.0
    if zero.any():
        log.warning("%d zero-variance columns left unscaled", int(zero.sum()))
    return mean, np.where(zero, 1.0, std)


# the dtype of a trained or loaded model's forward and backward passes
WORKING_DTYPE = np.float32


def standardized(transform, rows, name: str, prefix: str,
                 row=lambda r: f"row {r + 1}",
                 what: str = "value") -> np.ndarray:
    """``transform(rows)`` of the value rows of the CSV file ``name``,
    run with numpy's overflow warnings off.  A result that is not finite
    in ``WORKING_DTYPE``, which trained models read it in, is a DataError
    naming the file, the row (``row(r)`` of the 0-based ``r``) and the
    column (``{prefix}{j}``, or ``prefix`` for 1-D rows)."""
    with np.errstate(over="ignore", invalid="ignore"):
        values = transform(rows)
        finite = np.isfinite(values.astype(WORKING_DTYPE))
    if not finite.all():
        r, j = np.argwhere(~finite)[0][[0, -1]]
        column = f"{prefix}{j}" if values.ndim == 2 else prefix
        raise DataError(f"{name}: {row(r)}, column {column}: non-finite "
                        f"{what} after standardization")
    return values


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

    def transform_ic50(self, values):
        return (np.asarray(values) - self.ic50_mean) / self.ic50_std

    def inverse_ic50(self, values):
        return np.asarray(values) * self.ic50_std + self.ic50_mean

    def to_dict(self) -> dict:
        """The JSON form: each array as a list."""
        return {f.name: np.asarray(getattr(self, f.name)).tolist()
                for f in fields(self)}

    @classmethod
    def from_dict(cls, record: dict) -> "Scaler":
        """The scaler of :meth:`to_dict`'s form."""
        return cls(**{
            f.name: float(record[f.name]) if f.type == "float" else
            np.asarray(record[f.name],
                       dtype=bool if f.name == "cell_binary" else np.float64)
            for f in fields(cls)})


def fit_scaler(dataset: Dataset, train_cell_ids: set[str]) -> Scaler:
    """Fit standardization statistics on the training portion only: all
    drugs (the split is over cell lines), train cells, train pairs.  A
    statistic that overflows is a DataError naming the file and column."""
    emb_mean, emb_std = _column_stats(dataset.embeddings, "drugs.csv", "e")
    ip_mean, ip_std = _column_stats(dataset.profiles[dataset.profile_mask],
                                    "profiles.csv", "k")
    is_train = np.array([c in train_cell_ids for c in dataset.cell_ids])
    train_cells = dataset.features[is_train]
    binary = np.all((train_cells == 0.0) | (train_cells == 1.0), axis=0)
    cell_mean, cell_std = _column_stats(train_cells, "cells.csv", "f")
    train_vals = dataset.pair_y[is_train[dataset.pair_cell]]
    if train_vals.size == 0:
        raise DataError("ic50.csv: no pairs on the training cell lines to fit "
                        "the scaler on")
    with np.errstate(over="ignore", invalid="ignore"):
        ic50_mean = float(train_vals.mean())
        ic50_std = float(train_vals.std())
    _finite_stats("ic50.csv", "ic50", ic50_mean, ic50_std)
    if ic50_std == 0.0:
        log.warning("zero-variance sensitivity values left unscaled")
        ic50_std = 1.0
    return Scaler(emb_mean, emb_std, ip_mean, ip_std, cell_mean, cell_std,
                  binary, ic50_mean, ic50_std)


def apply_scaler(dataset: Dataset, scaler: "Scaler") -> Dataset:
    """Standardized copy of the dataset using an already-fitted scaler;
    a standardized value that is not finite is a DataError naming the
    file, the row and the column (for ``profiles.csv``, the row by its
    drug id)."""
    drugs = dataset.drug_ids

    def pair(k: int) -> str:
        key = (drugs[dataset.pair_drug[k]],
               dataset.cell_ids[dataset.pair_cell[k]])
        return f"row {k + 1}, pair {key}"

    values = standardized(scaler.transform_ic50, dataset.pair_y, "ic50.csv",
                          "ic50", pair, "sensitivity value")
    mask = dataset.profile_mask
    profiled = np.flatnonzero(mask)
    profiles = np.zeros_like(dataset.profiles)
    profiles[mask] = standardized(
        scaler.transform_ip, dataset.profiles[mask], "profiles.csv", "k",
        lambda r: f"the row of drug {drugs[profiled[r]]!r}")
    return replace(dataset,
                   embeddings=standardized(scaler.transform_embedding,
                                           dataset.embeddings, "drugs.csv", "e"),
                   profiles=profiles,
                   features=standardized(scaler.transform_cell,
                                         dataset.features, "cells.csv", "f"),
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

    profiled = rng.choice(spec.n_drugs, size=spec.n_profiled, replace=False)
    drug_obj = np.asarray(drug_ids, dtype=object)
    rows, cols = np.nonzero(observed)
    dataset = Dataset.build(
        (drug_ids, embeddings), (drug_obj[profiled].tolist(), profiles[profiled]),
        (cell_ids, features),
        (drug_obj[rows].tolist(), np.asarray(cell_ids, dtype=object)[cols].tolist(),
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

# the types of the decoded JSON values that fit each leaf type: a bool
# is no number, an int is a float
_JSON_TYPES = {float: {int, float}, int: {int}, bool: {bool}, str: {str}}


def json_fits(value, hint) -> bool:
    """Whether the decoded JSON ``value`` has the type ``hint``: a list is
    a tuple, and the items of a ``list[T]``, ``tuple[T, ...]`` or
    ``dict[str, T]``, and the value of an ``X | None``, fit in turn."""
    if hint in _JSON_TYPES:
        return type(value) in _JSON_TYPES[hint]
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin in (typing.Union, types.UnionType):
        return any(json_fits(value, arg) for arg in args)
    if origin in (list, tuple):
        return isinstance(value, list) and _all_fit(value, args[0])
    if origin is dict:
        return (isinstance(value, dict) and _all_fit(value, args[0])
                and _all_fit(value.values(), args[1]))
    return isinstance(value, hint)


def _all_fit(values, hint) -> bool:
    """Whether every item of ``values`` fits ``hint``; items of a leaf
    type are checked by their set of types, in one pass."""
    if hint in _JSON_TYPES:
        return set(map(type, values)) <= _JSON_TYPES[hint]
    return all(json_fits(v, hint) for v in values)


def _utf8(raw: bytes, where: str, error=DataError) -> str:
    """``raw`` decoded as UTF-8; the error names ``where`` and the line of
    the first bad byte, where LF, CRLF and a bare CR each end a line."""
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        head = raw[:exc.start]
        line = 1 + head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n")
        raise error(f"{where}: line {line}: byte 0x{raw[exc.start]:02x} "
                    f"is not UTF-8 text") from None


def json_object(raw: bytes, where: str, error=DataError,
                version: int | None = None) -> dict:
    """The JSON object that the UTF-8 bytes ``raw`` hold, whose
    ``format_version`` is ``version`` when one is given.  Every error is
    an ``error`` that names ``where``."""
    text = _utf8(raw, where, error)
    try:
        record = json.loads(text)
    except (ValueError, RecursionError) as exc:
        # ValueError: bad JSON, or an int past the str-to-int digit
        # limit; RecursionError: nesting past the recursion limit
        raise error(f"{where}: invalid JSON: {exc}") from None
    if not isinstance(record, dict):
        raise error(f"{where} is not a JSON object")
    if version is not None and record.get("format_version") != version:
        raise error(f"{where}: format_version "
                    f"{record.get('format_version')!r} != supported {version}")
    return record


def field_defaults(cls, *exclude: str) -> dict:
    """Default of each field of the dataclass ``cls``, except ``exclude``."""
    return {f.name: f.default for f in fields(cls) if f.name not in exclude}


def _accepts(cls, values: dict) -> bool:
    try:
        cls(**values)
    except ContractViolation:
        return False
    return True


def record_of(cls, values, where: str, defaults: dict, error=DataError,
              flags: dict | None = None, **fixed):
    """The dataclass ``cls`` built from flag > ``values`` > ``defaults``,
    skipping unset (None) flags, and the ``fixed`` values.  ``values`` is
    a JSON object whose keys are among ``defaults`` and whose values have
    the types of the fields of ``cls``; its lists become tuples.

    When ``cls`` rejects the values and would accept them with one of
    ``values`` set back to its default, that value is at fault and the
    error names its key; else, when it would accept them with all of
    ``values`` set back, they are at fault together.  Those errors are
    ``error`` and name ``where``; a fault of the flags or ``fixed``
    values stays a :class:`ContractViolation`."""
    if not isinstance(values, dict):
        raise error(f"{where} must be an object")
    hints = typing.get_type_hints(cls)
    flags = {k: v for k, v in (flags or {}).items() if v is not None}
    out = dict(defaults)
    for k, v in values.items():
        if k not in out:
            raise error(f"{where}: unknown key {k!r}")
        hint = hints[k]
        if not json_fits(v, hint):
            raise error(f"{where}, key {k!r}: {v!r} is not of type "
                        f"{hint.__name__ if isinstance(hint, type) else hint}")
        out[k] = tuple(v) if isinstance(v, list) else v
    out.update(flags)
    try:
        return cls(**{**out, **fixed})
    except ContractViolation as exc:
        for k in values:
            if k not in flags and _accepts(cls, {**out, k: defaults[k],
                                                 **fixed}):
                raise error(f"{where}, key {k!r}: {exc}") from None
        if _accepts(cls, {**defaults, **flags, **fixed}):
            raise error(f"{where}: {exc}") from None
        raise


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


# ---------------------------------------------------------------------------
# CSV codec: a header, then id fields and a row of float64 values per line
# ---------------------------------------------------------------------------

# Values formatted per chunk of written rows; a chunk's text is all the
# per-row memory a write holds, whatever the row count.
WRITE_CHUNK_VALUES = 1 << 13

# Characters read per chunk of the plain-text reader, which completes the
# chunk's last line; a chunk's lines and fields are all the per-row memory
# a read holds beyond the table.  The 104,832-row, 3.1 MB ic50.csv of the
# serve benchmark then reads with a traced peak of 4.7 MB, 2.5 MB of it
# the table, where the whole text at once peaked at 39 MB; 64 KiB chunks
# peak at 3.9 MB but read no faster, 1 MiB ones at 20 MB.
READ_CHUNK_BYTES = 1 << 17


def _csv_field(value) -> str:
    """``value`` as ``csv.writer`` writes it in a row of two or more
    fields: quoted where the csv rules need it."""
    buf = io.StringIO()
    csv.writer(buf).writerow([value, ""])
    return buf.getvalue()[:-3]


def write_table(path, header: list[str], id_columns, values) -> None:
    """Write ``header``, then per row the fields of ``id_columns`` and the
    floats of the (n, W) matrix ``values``, atomically to ``path``.

    The bytes are those of ``csv.writer`` given the ids and ``repr`` of
    each float: ``\\r\\n`` row ends, ids quoted where needed, floats in
    shortest round-trip form.  Each chunk of rows is formatted with one
    ``repr`` of its value lists."""
    values = np.asarray(values, dtype=np.float64)
    columns = []
    for column in id_columns:
        text = {v: _csv_field(v) for v in dict.fromkeys(column)}
        columns.append(list(map(text.__getitem__, column)))
    step = max(1, WRITE_CHUNK_VALUES // max(1, values.shape[1]))
    with atomic_open(path) as fh:
        csv.writer(fh).writerow(header)
        for start in range(0, len(values), step):
            fields = [column[start:start + step] for column in columns]
            if values.shape[1]:
                chunk = values[start:start + step].tolist()
                fields.append(repr(chunk)[2:-2].replace(", ", ",").split("],["))
            fh.write("".join(line + "\r\n"
                             for line in map(",".join, zip(*fields))))


def _plain_lines(text: str, n_cols: int) -> list[str] | None:
    """The lines of ``text``, whole lines of CSV text, without their row
    ends, or None when the text holds a quote, NUL, bare ``\\r`` or blank
    line, or other than ``n_cols - 1`` commas per line in all."""
    if '"' in text or "\0" in text:
        return None
    if "\r" in text:
        if text.count("\r") != text.count("\r\n"):
            return None
        text = text.replace("\r\n", "\n")
    lines = text.split("\n")
    if lines[-1] == "":
        lines.pop()
    if "" in lines or text.count(",") != len(lines) * (n_cols - 1):
        return None
    return lines


def _parse_plain(fh, n_ids: int, n_cols: int):
    """Header, id columns and values of CSV text without quotes, bare
    ``\\r`` or NUL, read from ``fh`` in chunks of whole lines, or None
    when the text is not such text or breaks a rule.

    Lines are split with str methods and the floats parsed by
    ``np.loadtxt``, which accepts a subset of the spellings ``float``
    accepts and gives the same double for each.  A chunk is taken only
    when ``loadtxt`` gives one row per line, no line is blank, and every
    line has ``n_cols`` fields.  Equal ids share one str object."""
    header = None
    columns = [[] for _ in range(n_ids)]
    blocks = []
    ids = {}
    while chunk := fh.read(READ_CHUNK_BYTES):
        lines = _plain_lines(chunk + fh.readline(), n_cols)
        if lines is None:
            return None
        if header is None:
            header = lines.pop(0).split(",")
            if len(header) != n_cols:
                return None
        if not lines:
            continue
        if n_cols == n_ids:
            # loadtxt rejects a line short of the last float column, so
            # where there is one, a right comma count in all leaves no
            # line long; without one, each line is counted
            if any(line.count(",") != n_cols - 1 for line in lines):
                return None
            blocks.append(np.empty((len(lines), 0)))
        else:
            try:
                block = np.loadtxt(lines, dtype=np.float64, delimiter=",",
                                   comments=None, ndmin=2,
                                   usecols=tuple(range(n_ids, n_cols)))
            except ValueError:
                return None
            if len(block) != len(lines):
                return None
            blocks.append(block)
        if n_ids == 1:
            fields = [[line.partition(",")[0] for line in lines]]
        else:
            flat = ",".join(lines).split(",")
            fields = [flat[k::n_cols] for k in range(n_ids)]
        for column, field in zip(columns, fields):
            column.extend(map(ids.setdefault, field, field))
    if header is None:
        return None
    values = (np.concatenate(blocks) if blocks
              else np.empty((0, n_cols - n_ids)))
    return header, columns, values


def _parse_csv_module(name: str, fh, n_ids: int, n_cols: int):
    """Header, id columns and values of any CSV text in ``fh``, read with
    the csv module and ``float``; errors name the first bad row and
    column."""
    rows = []
    try:
        rows.extend(csv.reader(fh))
    except csv.Error as exc:  # a field over csv.field_size_limit()
        where = f"row {len(rows)}" if rows else "header"
        raise DataError(f"{name}: {where}: {exc}") from None
    if not rows:
        raise DataError(f"{name}: empty file")
    header, body = rows[0], rows[1:]
    if len(header) != n_cols:
        raise DataError(
            f"{name}: expected {n_cols} columns, header has {len(header)}")
    for r, row in enumerate(body, start=1):
        if len(row) != n_cols:
            n = len(row)
            where = (f"column {header[n]}" if n < n_cols
                     else f"after column {header[-1]}")
            raise DataError(f"{name}: row {r}, {where}: row has "
                            f"{n} fields, expected {n_cols}")
    tokens = [token for row in body for token in row[n_ids:]]
    try:
        flat = np.fromiter(map(float, tokens), dtype=np.float64,
                           count=len(tokens))
    except ValueError:
        width = n_cols - n_ids
        for k, token in enumerate(tokens):
            try:
                float(token)
            except ValueError:
                raise DataError(f"{name}: row {k // width + 1}, column "
                                f"{header[n_ids + k % width]}: non-numeric "
                                f"value {token!r}") from None
        raise
    return (header, [[row[k] for row in body] for k in range(n_ids)],
            flat.reshape(len(body), n_cols - n_ids))


def read_table(path, n_ids: int, width: int) -> tuple[list[list[str]],
                                                      np.ndarray]:
    """The ``n_ids`` id columns and the (n, width) float64 matrix of a
    UTF-8 CSV with a header and ``n_ids + width`` fields in every row.
    Values are finite; errors name the file, row and column.

    Text without quotes takes :func:`_parse_plain`, a chunk of lines at a
    time; quoted text, and text it declines, is read again from the start
    with the csv module, which gives the same table or names the first
    error."""
    path = Path(path)
    if not path.exists():
        raise DataError(f"missing file {path}")
    n_cols = n_ids + width
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            parsed = _parse_plain(fh, n_ids, n_cols)
            if parsed is None:
                fh.seek(0)
                parsed = _parse_csv_module(path.name, fh, n_ids, n_cols)
    except UnicodeDecodeError:
        _utf8(path.read_bytes(), path.name)
        raise DataError(f"{path.name}: not UTF-8 text") from None
    header, ids, values = parsed
    bad = np.argwhere(~np.isfinite(values))
    if bad.size:
        r, c = bad[0]
        raise DataError(f"{path.name}: row {r + 1}, column "
                        f"{header[n_ids + c]}: non-finite value")
    return ids, values


def read_feature_csv(path, width: int) -> tuple[list[str], np.ndarray]:
    """Ids and the (n, width) float64 matrix of an ``id,v0..v{W-1}``
    feature CSV.  Ids may repeat; errors name the file, row and column."""
    (ids,), values = read_table(path, 1, width)
    return ids, values


def _write_feature_csv(path: Path, prefix: str, ids: list[str],
                       rows: np.ndarray):
    write_table(path, ["id"] + [f"{prefix}{i}" for i in range(rows.shape[1])],
                [ids], rows)


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
    write_table(directory / "ic50.csv", ["drug_id", "cell_id", "ic50"],
                [np.asarray(dataset.drug_ids, dtype=object)[dataset.pair_drug],
                 np.asarray(dataset.cell_ids, dtype=object)[dataset.pair_cell]],
                dataset.pair_y[:, None])

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
        "generator_spec": asdict(generator_spec) if generator_spec else None,
    }
    with atomic_open(directory / "manifest.json") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_manifest(directory) -> dict:
    path = Path(directory) / "manifest.json"
    if not path.exists():
        raise DataError(f"missing file {path}")
    manifest = json_object(path.read_bytes(), str(path),
                           version=MANIFEST_VERSION)
    for key in MANIFEST_COUNTS:
        if key not in manifest:
            raise DataError(f"{path}: missing key {key!r}")
        value = manifest[key]
        if type(value) is not int or value < 0:
            raise DataError(f"{path}: {key!r} must be a non-negative integer, "
                            f"got {value!r}")
    return manifest


def load_csv(directory) -> Dataset:
    """Load a dataset directory, validating rows and widths against the
    manifest; errors name the offending file, row, and column."""
    directory = Path(directory)
    manifest = load_manifest(directory)
    drugs = read_feature_csv(directory / "drugs.csv", manifest["smiles_dim"])
    profiles = read_feature_csv(directory / "profiles.csv", manifest["ip_dim"])
    cells = read_feature_csv(directory / "cells.csv", manifest["bio_dim"])
    (drug_col, cell_col), values = read_table(directory / "ic50.csv", 2, 1)
    dataset = Dataset.build(drugs, profiles, cells,
                            (drug_col, cell_col, values[:, 0]),
                            provenance=manifest.get("provenance", "csv"))
    for name, rows, key in (("drugs.csv", len(drugs[0]), "n_drugs"),
                            ("profiles.csv", len(profiles[0]), "n_profiled"),
                            ("cells.csv", len(cells[0]), "n_cells"),
                            ("ic50.csv", len(values), "n_pairs")):
        if rows != manifest[key]:
            raise DataError(f"{name}: {rows} rows, manifest says {manifest[key]}")
    return dataset
