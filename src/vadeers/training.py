"""Training protocol: joint phase with periodic DVAE-only breaks, then a
DSPN-only phase with frozen DVAE/CAE and a decayed learning rate; plus
the cell-line-held-out split, run logging, and checkpoint round-trips.

Step accounting: the break counter counts joint-phase optimizer steps
only; the steps taken inside a break do not advance it.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field, fields, asdict
from pathlib import Path

import numpy as np

from .data import Dataset, Scaler, atomic_open, standardize
from .exceptions import CheckpointError, ContractViolation, DataError, NumericError
from .model import Batch, LossWeights, ModelConfig, VadeersModel
from .nnkernel import (
    AdamState,
    FlatStore,
    GradientTape,
    Tensor,
    adam_step,
    mse,
    mul,
    wrap,
)
from .nnkernel.store import pack

CHECKPOINT_MAGIC = b"VADEERS\x01"
CHECKPOINT_VERSION = 1


@dataclass(frozen=True)
class TrainSchedule:
    """Defaults are the reference protocol: 150 joint + 50 predictor-only
    epochs, lr 0.005 then 0.001 decaying x0.1 every 10 epochs, batch 128,
    a DVAE-only break of 100 epochs (batch 8) every 1000 joint steps."""

    joint_epochs: int = 150
    dspn_epochs: int = 50
    total_epochs: int | None = None  # auto: joint + dspn (200 by default)
    lr_joint: float = 0.005
    lr_dspn: float = 0.001
    dspn_lr_decay: float = 0.1
    dspn_lr_decay_every: int = 10
    batch_size: int = 128
    dvae_break_every_steps: int = 1000
    dvae_break_epochs: int = 100
    dvae_break_batch: int = 8
    seed: int = 0

    def __post_init__(self):
        if self.total_epochs is None:
            object.__setattr__(self, "total_epochs",
                               self.joint_epochs + self.dspn_epochs)
        if self.total_epochs != self.joint_epochs + self.dspn_epochs:
            raise ContractViolation(
                f"total_epochs ({self.total_epochs}) != joint_epochs + "
                f"dspn_epochs ({self.joint_epochs} + {self.dspn_epochs})"
            )
        for name in ("batch_size", "dvae_break_every_steps",
                     "dvae_break_epochs", "dvae_break_batch",
                     "dspn_lr_decay_every"):
            if getattr(self, name) < 1:
                raise ContractViolation(f"{name} must be positive")
        if self.joint_epochs < 0 or self.dspn_epochs < 0:
            raise ContractViolation("epoch counts must be non-negative")

    def dspn_lr_at(self, epoch: int) -> float:
        """Effective phase-2 learning rate at 0-indexed phase-2 epoch."""
        return self.lr_dspn * self.dspn_lr_decay ** (epoch // self.dspn_lr_decay_every)


@dataclass(frozen=True)
class SplitSpec:
    n_val_cells: int = 100
    n_test_cells: int = 100
    seed: int = 0

    def __post_init__(self):
        for name in ("n_val_cells", "n_test_cells"):
            if getattr(self, name) < 0:
                raise ContractViolation(f"{name} must be >= 0")


@dataclass(eq=False)
class Split:
    """The cell lines of each partition, and the positions of each
    partition's pairs in the dataset's pair arrays, in table order."""

    train_cells: list[str]
    val_cells: list[str]
    test_cells: list[str]
    train_rows: np.ndarray
    val_rows: np.ndarray
    test_rows: np.ndarray

    def cell_sets(self) -> tuple[set[str], set[str], set[str]]:
        return set(self.train_cells), set(self.val_cells), set(self.test_cells)


def split_by_cell_line(dataset: Dataset, spec: SplitSpec) -> Split:
    """Partition by cell line: every observed pair lands in the partition
    owning its cell line, and no cell line appears in two partitions."""
    cell_ids = dataset.cell_ids
    held_out = spec.n_val_cells + spec.n_test_cells
    if len(cell_ids) <= held_out:
        raise DataError(
            f"need more than {held_out} distinct cell lines, have {len(cell_ids)}"
        )
    rng = np.random.Generator(np.random.PCG64(spec.seed))
    order = list(np.array(sorted(cell_ids))[rng.permutation(len(cell_ids))])
    return partition_by_cells(dataset, train_cells=order[held_out:],
                              val_cells=order[: spec.n_val_cells],
                              test_cells=order[spec.n_val_cells: held_out])


def partition_by_cells(dataset: Dataset, train_cells: list[str],
                       val_cells: list[str], test_cells: list[str]) -> Split:
    """The split with the given cell lists; each observed pair goes to
    val or test when its cell line is held out there, else to train."""
    part = np.zeros(len(dataset.cell_ids), dtype=np.int8)  # 0: train
    part[np.isin(dataset.cell_ids, test_cells)] = 2
    part[np.isin(dataset.cell_ids, val_cells)] = 1
    rows = [np.flatnonzero(part[dataset.pair_cell] == k) for k in range(3)]
    return Split(train_cells, val_cells, test_cells, *rows)


# ---------------------------------------------------------------------------
# run log
# ---------------------------------------------------------------------------

@dataclass
class RunLog:
    """Per-epoch loss breakdowns and protocol events (phase transitions,
    breaks, freezes, lr changes)."""

    seed: int = 0
    events: list[dict] = field(default_factory=list)
    epochs: list[dict] = field(default_factory=list)
    cells_touched: set[str] = field(default_factory=set)
    wall_clock_seconds: float = 0.0

    def event(self, kind: str, **payload):
        self.events.append({"event": kind, **payload})

    def comparable(self) -> dict:
        """Everything except wall-clock, for determinism comparisons."""
        return {
            "seed": self.seed,
            "events": self.events,
            "epochs": self.epochs,
            "cells_touched": sorted(self.cells_touched),
        }

    def export_jsonl(self, path):
        with atomic_open(path) as fh:
            fh.write(json.dumps({"record": "meta", "seed": self.seed,
                                 "wall_clock_seconds": self.wall_clock_seconds})
                     + "\n")
            for e in self.events:
                fh.write(json.dumps({"record": "event", **e}) + "\n")
            for e in self.epochs:
                fh.write(json.dumps({"record": "epoch", **e}) + "\n")


def check_schedule_conformance(runlog: RunLog, schedule: TrainSchedule) -> list[str]:
    """Cross-check a run log against its schedule; returns violations."""
    problems: list[str] = []
    joint = [e for e in runlog.epochs if e["phase"] == 1]
    dspn = [e for e in runlog.epochs if e["phase"] == 2]
    if len(joint) != schedule.joint_epochs:
        problems.append(f"{len(joint)} joint epochs, expected {schedule.joint_epochs}")
    if len(dspn) != schedule.dspn_epochs:
        problems.append(f"{len(dspn)} dspn epochs, expected {schedule.dspn_epochs}")

    breaks = [e for e in runlog.events if e["event"] == "break_start"]
    total_joint_steps = joint[-1]["joint_step"] if joint else 0
    expected_breaks = total_joint_steps // schedule.dvae_break_every_steps
    if len(breaks) != expected_breaks:
        problems.append(f"{len(breaks)} breaks, expected {expected_breaks}")
    for i, b in enumerate(breaks, start=1):
        want = i * schedule.dvae_break_every_steps
        if b["at_joint_step"] != want:
            problems.append(f"break {i} at step {b['at_joint_step']}, expected {want}")

    freezes = [e for e in runlog.events if e["event"] == "freeze_check"]
    hashes = {e["hash"] for e in freezes}
    if schedule.dspn_epochs and len(freezes) != schedule.dspn_epochs:
        problems.append(f"{len(freezes)} freeze checks, "
                        f"expected {schedule.dspn_epochs}")
    if len(hashes) > 1:
        problems.append("frozen-parameter hash changed during phase 2")

    for e in dspn:
        want = schedule.dspn_lr_at(e["phase_epoch"])
        if abs(e["lr"] - want) > 1e-15 * max(1.0, want):
            problems.append(
                f"phase-2 epoch {e['phase_epoch']} lr {e['lr']}, expected {want}"
            )
    return problems


# ---------------------------------------------------------------------------
# batch assembly
# ---------------------------------------------------------------------------

def build_pair_batch(dataset: Dataset, rows: np.ndarray) -> Batch:
    """Batch of the pairs at ``rows`` of the dataset's pair arrays, over
    the unique drugs and cells they touch, in dataset order."""
    drug_rows, pair_drug = np.unique(dataset.pair_drug[rows], return_inverse=True)
    cell_rows, pair_cell = np.unique(dataset.pair_cell[rows], return_inverse=True)
    return Batch(
        x_smiles=dataset.embeddings[drug_rows],
        ip=dataset.profiles[drug_rows],
        ip_mask=dataset.profile_mask[drug_rows].astype(np.float64),
        labels=dataset.labels[drug_rows],
        x_bio=dataset.features[cell_rows],
        pair_drug=pair_drug,
        pair_cell=pair_cell,
        y=dataset.pair_y[rows],
    )


# ---------------------------------------------------------------------------
# the training loop
# ---------------------------------------------------------------------------

def _params_hash(model: VadeersModel, groups: tuple[str, ...]) -> str:
    h = hashlib.sha256()
    for group in groups:
        for name in model.group_names(group):
            h.update(name.encode())
            h.update(model.params[name])
    return h.hexdigest()


class TrainingAborted(NumericError):
    """Raised when the loss goes non-finite; carries the last model state
    that completed an epoch with finite losses."""

    def __init__(self, message: str, model: VadeersModel, runlog: RunLog):
        super().__init__(message)
        self.model = model
        self.runlog = runlog


@dataclass
class TrainResult:
    model: VadeersModel
    runlog: RunLog
    scaler: Scaler
    split: Split
    dataset_std: Dataset  # standardized copy used for training/eval


def _batched(indices: np.ndarray, size: int):
    for start in range(0, len(indices), size):
        yield indices[start: start + size]


def train(dataset: Dataset, config: ModelConfig, schedule: TrainSchedule,
          weights: LossWeights, split_spec: SplitSpec) -> TrainResult:
    """Run the full two-phase protocol on ``dataset``.

    The dataset must already carry guiding labels when a GMM variant is
    trained.  Standardization is fitted on the training split inside.
    """
    if config.uses_gmm:
        labels = dataset.labels[dataset.labels >= 0]
        if not labels.size:
            raise DataError("GMM variants need guiding labels; derive them first")
        if labels.max() >= config.n_guiding_labels:
            raise DataError(
                f"guiding label {labels.max()} out of range for "
                f"n_guiding_labels={config.n_guiding_labels}"
            )
    started = time.monotonic()
    split = split_by_cell_line(dataset, split_spec)
    data_std, scaler = standardize(dataset, set(split.train_cells))

    root = np.random.SeedSequence(schedule.seed)
    init_ss, order_ss, step_ss, break_ss = root.spawn(4)
    rng_init = np.random.Generator(np.random.PCG64(init_ss))
    rng_order = np.random.Generator(np.random.PCG64(order_ss))
    rng_step = np.random.Generator(np.random.PCG64(step_ss))
    rng_break = np.random.Generator(np.random.PCG64(break_ss))

    model = VadeersModel.initialize(config, rng_init)
    runlog = RunLog(seed=schedule.seed)
    frozen_groups = ("dvae", "cae", "gmm") if config.uses_gmm else ("dvae", "cae")
    runlog.event("init", hash=_params_hash(model, frozen_groups))
    runlog.event("phase_start", phase=1, joint_step=0)

    profiled = np.flatnonzero(data_std.profile_mask)
    break_rows = (data_std.embeddings[profiled], data_std.profiles[profiled],
                  np.ones(len(profiled)), data_std.labels[profiled])
    train_rows = split.train_rows
    cell_ids = np.asarray(data_std.cell_ids)
    last_good = model.flat.copy()

    adam = AdamState()
    break_adam = AdamState()
    joint_step = 0

    def touch(cell_rows: np.ndarray):
        runlog.cells_touched.update(cell_ids[np.unique(cell_rows)].tolist())

    def _abort(message: str) -> TrainingAborted:
        runlog.event("aborted", reason=message)
        runlog.wall_clock_seconds = time.monotonic() - started
        restored = VadeersModel(model.config,
                                FlatStore(model.params.layout, last_good))
        return TrainingAborted(message, restored, runlog)

    def step(where: str, state: AdamState, lr: float, loss_terms,
             *args) -> dict[str, float]:
        """One optimizer step.  ``loss_terms(binder, *args)`` returns the
        named loss terms, the first of them the loss to minimize; a
        divergence or a non-finite loss aborts the run, naming
        ``where``; the forward and gradient run with numpy's overflow
        and invalid-value warnings off, since these checks report a
        divergence.  Returns the terms as floats."""
        tape = GradientTape(model.params)
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            try:
                terms = loss_terms(model.binder(tape), *args)
            except NumericError as exc:
                raise _abort(f"{where} diverged: {exc}") from None
            loss = next(iter(terms.values()))
            if not np.isfinite(loss.data):
                raise _abort(f"{where} loss non-finite")
            grads = tape.gradient(loss)
        adam_step(model.params, grads, state, lr)
        return {k: float(v.data) for k, v in terms.items()}

    def record(phase: int, epoch: int, lr: float, steps: list[dict]):
        """Append an epoch record holding the mean of each loss term."""
        sums: dict[str, float] = {}
        for terms in steps:
            for k, v in terms.items():
                sums[k] = sums.get(k, 0.0) + v
        runlog.epochs.append({
            "phase": phase, "phase_epoch": epoch, "joint_step": joint_step,
            "lr": lr,
            **{f"loss_{k}": v / max(len(steps), 1) for k, v in sums.items()},
        })

    def joint_terms(binder, batch: Batch) -> dict[str, Tensor]:
        loss, parts, _ = model.total_loss(binder, batch, weights, rng_step,
                                          mode="train")
        return {"total": loss, **parts}

    def break_terms(binder, chunk: np.ndarray) -> dict[str, Tensor]:
        loss, _, _ = model.dvae_loss_batch(
            binder, *(rows[chunk] for rows in break_rows), weights, rng_break)
        return {"total": loss}

    def run_break():
        runlog.event("break_start", at_joint_step=joint_step)
        for _ in range(schedule.dvae_break_epochs):
            order = rng_break.permutation(len(profiled))
            for chunk in _batched(order, schedule.dvae_break_batch):
                step("break", break_adam, schedule.lr_joint, break_terms,
                     chunk)
        runlog.event("break_end", at_joint_step=joint_step)

    # phase 1: joint training over observed train pairs
    for epoch in range(schedule.joint_epochs):
        order = rng_order.permutation(len(train_rows))
        steps = []
        for chunk in _batched(order, schedule.batch_size):
            rows = train_rows[chunk]
            batch = build_pair_batch(data_std, rows)
            touch(data_std.pair_cell[rows])
            steps.append(step(f"joint step {joint_step + 1}", adam,
                              schedule.lr_joint, joint_terms, batch))
            joint_step += 1
            if joint_step % schedule.dvae_break_every_steps == 0:
                run_break()
        record(1, epoch, schedule.lr_joint, steps)
        last_good = model.flat.copy()

    # phase 2: freeze everything but the predictor
    freeze_hash = _params_hash(model, frozen_groups)
    runlog.event("phase_start", phase=2, joint_step=joint_step,
                 frozen_hash=freeze_hash)

    drug_mu = model.drug_latent_means(data_std.embeddings)
    cell_lat = model.cell_latents(data_std.features)
    pd_idx, pc_idx, y = (a[train_rows] for a in (
        data_std.pair_drug, data_std.pair_cell, data_std.pair_y))

    def dspn_terms(binder, chunk: np.ndarray) -> dict[str, Tensor]:
        preds = model.dspn_predict(drug_mu[pd_idx[chunk]],
                                   cell_lat[pc_idx[chunk]], binder,
                                   mode="train", rng=rng_step)
        return {"dspn": mul(wrap(weights.dspn), mse(preds, y[chunk]))}

    dspn_adam = AdamState()  # fresh moments: the lr regime changes
    current_lr = None
    for epoch in range(schedule.dspn_epochs):
        lr = schedule.dspn_lr_at(epoch)
        if lr != current_lr:
            runlog.event("lr_change", phase=2, phase_epoch=epoch, lr=lr)
            current_lr = lr
        order = rng_order.permutation(len(train_rows))
        steps = []
        for chunk in _batched(order, schedule.batch_size):
            touch(pc_idx[chunk])
            steps.append(step(f"dspn epoch {epoch}", dspn_adam, lr,
                              dspn_terms, chunk))
        record(2, epoch, lr, steps)
        check = _params_hash(model, frozen_groups)
        runlog.event("freeze_check", phase_epoch=epoch, hash=check)
        if check != freeze_hash:
            raise _abort("frozen parameters changed during phase 2")
        last_good = model.flat.copy()

    runlog.wall_clock_seconds = time.monotonic() - started
    return TrainResult(model=model, runlog=runlog, scaler=scaler, split=split,
                       dataset_std=data_std)


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------

@dataclass
class Checkpoint:
    """Everything needed to use a trained model later: parameters, config,
    the fitted scaler, guiding labels, and the split cell ids."""

    model: VadeersModel
    scaler: Scaler | None = None
    guiding_labels: dict[str, int] | None = None
    split_cells: dict[str, list[str]] | None = None
    seed: int | None = None


def save_checkpoint(checkpoint: Checkpoint, path):
    """Deterministic container: magic, JSON header (sorted keys), raw
    little-endian float64 arrays in sorted-name order, the payload.  The
    header's ``payload_sha256`` is the SHA-256 of the payload.  Saving the
    same checkpoint twice produces byte-identical files.  The file is
    replaced atomically: a write that fails leaves the previous file, if
    any, and no temporary file."""
    model = checkpoint.model
    payload = model.flat.astype("<f8", copy=False).tobytes()
    header = {
        "format_version": CHECKPOINT_VERSION,
        "config": asdict(model.config),
        "prior_variant": model.config.prior_variant,
        "scaler": checkpoint.scaler.to_dict() if checkpoint.scaler else None,
        "guiding_labels": checkpoint.guiding_labels,
        "split_cells": checkpoint.split_cells,
        "seed": checkpoint.seed,
        "arrays": [
            {"name": n, "shape": list(a.shape)} for n, a in model.params.items()
        ],
        "payload_sha256": hashlib.sha256(payload).hexdigest(),
    }
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    with atomic_open(path, binary=True) as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(len(blob).to_bytes(8, "little"))
        fh.write(blob)
        fh.write(payload)


def _header_config(path: Path, cfg) -> ModelConfig:
    """The model config of a checkpoint header, with exactly the fields
    of ``ModelConfig``."""
    if not isinstance(cfg, dict):
        raise CheckpointError(f"{path}: header has no config object")
    odd = sorted(set(cfg) ^ {f.name for f in fields(ModelConfig)})
    if odd:
        what = "unknown" if odd[0] in cfg else "missing"
        raise CheckpointError(f"{path}: header config has {what} key {odd[0]!r}")
    try:
        return ModelConfig.from_dict(cfg)
    except (ContractViolation, TypeError) as exc:
        raise CheckpointError(f"{path}: header config: {exc}") from None


def _header_arrays(path: Path, entries,
                   expected: dict[str, tuple[int, ...]]) -> list[tuple[str, tuple]]:
    """(name, shape) of each array of a checkpoint header, in payload
    order, checked against the names and shapes the config implies."""
    try:
        arrays = [(e["name"], tuple(e["shape"])) for e in entries]
    except (KeyError, TypeError):
        raise CheckpointError(f"{path}: malformed array list in header") from None
    got = dict(arrays)
    odd = sorted(set(got) ^ set(expected))
    if odd:
        what = "unexpected" if odd[0] in got else "missing"
        raise CheckpointError(f"{path}: {what} array {odd[0]!r} in header")
    for name, shape in arrays:
        if shape != expected[name]:
            raise CheckpointError(
                f"{path}: array {name!r} has shape {list(shape)}, "
                f"the config implies {list(expected[name])}"
            )
    return arrays


def _check_widths(path, config: ModelConfig, source: str,
                  widths: dict[str, int]) -> None:
    for dim, want in widths.items():
        got = getattr(config, dim)
        if got != want:
            raise CheckpointError(
                f"{path}: checkpoint {dim}={got} does not match "
                f"{source} {dim}={want}"
            )


def check_compatible(checkpoint: Checkpoint, dataset: Dataset, path) -> None:
    """Raise :class:`CheckpointError`, naming the checkpoint file
    ``path``, unless ``dataset`` has the checkpoint's input widths and
    every drug the checkpoint's guiding labels name."""
    _check_widths(path, checkpoint.model.config, "the dataset's", {
        "smiles_dim": dataset.smiles_dim, "ip_dim": dataset.ip_dim,
        "bio_dim": dataset.bio_dim})
    missing = sorted(set(checkpoint.guiding_labels or ()) - set(dataset.drug_ids))
    if missing:
        raise CheckpointError(
            f"{path}: {len(missing)} guiding-label drug(s) of the checkpoint "
            f"are not in the dataset, first {missing[0]!r}"
        )


def load_checkpoint(path, expected_config: ModelConfig | None = None) -> Checkpoint:
    path = Path(path)
    raw = path.read_bytes()
    if raw[: len(CHECKPOINT_MAGIC)] != CHECKPOINT_MAGIC:
        raise CheckpointError(f"{path}: not a checkpoint file")
    offset = len(CHECKPOINT_MAGIC)
    size = int.from_bytes(raw[offset: offset + 8], "little")
    offset += 8
    try:
        header = json.loads(raw[offset: offset + size])
    except json.JSONDecodeError as exc:
        raise CheckpointError(f"{path}: corrupt header") from exc
    offset += size
    if header.get("format_version") != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"{path}: format_version {header.get('format_version')!r} "
            f"!= supported {CHECKPOINT_VERSION}"
        )
    config = _header_config(path, header.get("config"))
    if expected_config is not None:
        _check_widths(path, config, "expected", {
            dim: getattr(expected_config, dim)
            for dim in ("smiles_dim", "ip_dim", "bio_dim", "latent_dim")})
    expected = VadeersModel(config, {}).param_shapes()
    layout = pack(_header_arrays(path, header.get("arrays"), expected))
    have = (len(raw) - offset) // 8
    for name, (_, stop, _) in layout.items():
        if stop > have:
            raise CheckpointError(f"{path}: truncated array {name!r}")
    size = max((stop for _, stop, _ in layout.values()), default=0)
    if offset + 8 * size != len(raw):
        raise CheckpointError(f"{path}: trailing bytes after arrays")
    # files written before the field existed carry no hash and still load
    want = header.get("payload_sha256")
    if (want is not None
            and hashlib.sha256(memoryview(raw)[offset:]).hexdigest() != want):
        raise CheckpointError(f"{path}: payload does not match its payload_sha256")
    flat = np.frombuffer(raw, dtype="<f8", count=size, offset=offset)
    model = VadeersModel(config, FlatStore(layout, flat.astype(np.float64)))
    labels = header.get("guiding_labels")
    return Checkpoint(
        model=model,
        scaler=Scaler.from_dict(header["scaler"]) if header.get("scaler") else None,
        guiding_labels={k: int(v) for k, v in labels.items()} if labels else None,
        split_cells=header.get("split_cells"),
        seed=header.get("seed"),
    )
