"""Training-protocol tests: the cell-line-held-out split, batch assembly,
break/freeze/lr-decay accounting, determinism, divergence handling, and
checkpoint round-trips."""

from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

import vadeers.data
import vadeers.training

from vadeers.data import (
    Dataset,
    SynthSpec,
    derive_guiding_labels,
    generate_synthetic,
    save_csv,
)
from vadeers.exceptions import CheckpointError, ContractViolation, DataError
from vadeers.model import LossWeights, ModelConfig, VadeersModel
from vadeers.training import (
    RunLog,
    SplitSpec,
    TrainSchedule,
    TrainingAborted,
    build_pair_batch,
    check_compatible,
    check_schedule_conformance,
    load_checkpoint,
    save_checkpoint,
    split_by_cell_line,
    train,
)

TINY_SPEC = SynthSpec(smiles_dim=10, ip_dim=8, bio_dim=6, n_drugs=16,
                      n_profiled=8, n_cells=14, n_binary_features=2)
TINY_CONFIG = ModelConfig(
    smiles_dim=10, ip_dim=8, bio_dim=6, latent_dim=3,
    dvae_encoder_dims=(8,), decoder_dims=(8,), dspn_dims=(12, 8, 6),
    prior_variant="gmm_constrained",
)


def tiny_dataset(seed=0):
    ds = generate_synthetic(TINY_SPEC, seed=seed)
    return derive_guiding_labels(ds, n_labels=3, seed=seed)


def tiny_train(seed=0, **schedule_kw):
    kw = dict(joint_epochs=2, dspn_epochs=2, batch_size=16,
              dvae_break_every_steps=5, dvae_break_epochs=1,
              dvae_break_batch=4, seed=seed)
    kw.update(schedule_kw)
    return train(tiny_dataset(), TINY_CONFIG, TrainSchedule(**kw),
                 LossWeights(), SplitSpec(n_val_cells=3, n_test_cells=3,
                                          seed=seed))


# ---------------------------------------------------------------------------
# split
# ---------------------------------------------------------------------------

def _cells_only_dataset(n_cells):
    cell_ids = [f"C{j:04d}" for j in range(n_cells)]
    rng = np.random.default_rng(0)
    observed = cell_ids[::2]
    return Dataset.build((["D0"], np.zeros((1, 2))), (["D0"], np.ones((1, 3))),
                         (cell_ids, np.zeros((n_cells, 2))),
                         (["D0"] * len(observed), observed,
                          rng.standard_normal(len(observed))))


def test_split_reference_cell_counts():
    dataset = _cells_only_dataset(922)
    split = split_by_cell_line(dataset, SplitSpec(seed=0))
    assert (len(split.train_cells), len(split.val_cells),
            len(split.test_cells)) == (722, 100, 100)


def test_split_partitions_pairs_completely():
    dataset = _cells_only_dataset(50)
    split = split_by_cell_line(dataset, SplitSpec(n_val_cells=10,
                                                  n_test_cells=10, seed=1))
    total = (len(split.train_rows) + len(split.val_rows)
             + len(split.test_rows))
    assert total == len(dataset.pair_y)
    train_set, val_set, test_set = (set(split.train_cells), set(split.val_cells),
                                    set(split.test_cells))
    assert not train_set & val_set
    assert not train_set & test_set
    assert not val_set & test_set
    for k in split.val_rows:
        assert dataset.cell_ids[dataset.pair_cell[k]] in val_set


def test_split_deterministic_and_seed_sensitive():
    dataset = _cells_only_dataset(40)
    spec = SplitSpec(n_val_cells=8, n_test_cells=8, seed=5)
    a = split_by_cell_line(dataset, spec)
    b = split_by_cell_line(dataset, spec)
    assert a.val_cells == b.val_cells and a.test_cells == b.test_cells
    c = split_by_cell_line(dataset, SplitSpec(n_val_cells=8, n_test_cells=8,
                                              seed=6))
    assert a.val_cells != c.val_cells


def test_split_too_few_cells():
    dataset = _cells_only_dataset(12)
    with pytest.raises(DataError):
        split_by_cell_line(dataset, SplitSpec(n_val_cells=6, n_test_cells=6,
                                              seed=0))


@pytest.mark.parametrize("field", ["n_val_cells", "n_test_cells"])
def test_split_negative_count_rejected(field):
    # a negative count would slice held-out cells into the train split
    with pytest.raises(ContractViolation, match=field):
        SplitSpec(**{field: -1})


@pytest.mark.parametrize("partition", ["val", "test"])
def test_held_out_partition_needs_two_pairs(partition, monkeypatch):
    # two drugs on every cell line but one held-out line, which has one
    spec = SplitSpec(n_val_cells=1, n_test_cells=1, seed=0)
    probe = _cells_only_dataset(8)
    cells, split = probe.cell_ids, split_by_cell_line(probe, spec)
    thin = {"val": split.val_cells, "test": split.test_cells}[partition][0]
    pairs = [(d, c) for c in cells for d in ("D0", "D1")
             if c != thin or d == "D0"]
    dataset = Dataset.build(
        (["D0", "D1"], np.eye(2)), (["D0"], np.ones((1, 3))),
        (cells, np.arange(16.0).reshape(8, 2)),
        ([d for d, _ in pairs], [c for _, c in pairs],
         np.arange(len(pairs), dtype=np.float64)))
    config = replace(TINY_CONFIG, smiles_dim=2, ip_dim=3, bio_dim=2,
                     prior_variant="vanilla")
    monkeypatch.setattr(VadeersModel, "initialize", None)  # nothing trains
    with pytest.raises(DataError) as exc:
        train(dataset, config, TrainSchedule(joint_epochs=1, dspn_epochs=1),
              LossWeights(), spec)
    assert str(exc.value) == (f"ic50.csv: the {partition} partition holds 1 "
                              f"observed pair(s) on 1 cell line(s); a report "
                              f"on it needs at least 2")


# ---------------------------------------------------------------------------
# batch assembly
# ---------------------------------------------------------------------------

def test_build_pair_batch_masks_and_labels():
    dataset = tiny_dataset()
    rows = np.arange(10)
    batch = build_pair_batch(dataset, rows)
    idx = dataset.drug_index()
    drugs = sorted({dataset.drug_ids[i] for i in dataset.pair_drug[rows]},
                   key=lambda i: idx[i])
    for row, drug_id in enumerate(drugs):
        d = dataset.drugs[idx[drug_id]]
        assert batch.ip_mask[row] == float(dataset.profile_mask[idx[drug_id]])
        expected = -1 if d.guiding_label is None else d.guiding_label
        assert batch.labels[row] == expected


# ---------------------------------------------------------------------------
# protocol
# ---------------------------------------------------------------------------

def test_freeze_only_run_keeps_initial_weights():
    result = tiny_train(joint_epochs=0, dspn_epochs=1)
    init_hash = next(e["hash"] for e in result.runlog.events
                     if e["event"] == "init")
    freeze_hashes = [e["hash"] for e in result.runlog.events
                     if e["event"] == "freeze_check"]
    assert freeze_hashes and all(h == init_hash for h in freeze_hashes)


def test_breaks_fire_at_exact_multiples():
    result = tiny_train(joint_epochs=3, dvae_break_every_steps=4)
    breaks = [e["at_joint_step"] for e in result.runlog.events
              if e["event"] == "break_start"]
    total = max(e["joint_step"] for e in result.runlog.epochs)
    assert breaks == [4 * (i + 1) for i in range(total // 4)]


def test_conformance_checker_passes_and_detects_tampering():
    result = tiny_train(joint_epochs=3, dspn_epochs=2,
                        dvae_break_every_steps=4)
    schedule = TrainSchedule(joint_epochs=3, dspn_epochs=2, batch_size=16,
                             dvae_break_every_steps=4, dvae_break_epochs=1,
                             dvae_break_batch=4, seed=0)
    assert check_schedule_conformance(result.runlog, schedule) == []
    tampered = result.runlog
    tampered.epochs[-1]["lr"] *= 2.0
    assert check_schedule_conformance(tampered, schedule)


def _conforming_runlog():
    """A hand-made run log that conforms to its schedule: two joint
    epochs of three steps with a break every three steps, then two DSPN
    epochs."""
    schedule = TrainSchedule(joint_epochs=2, dspn_epochs=2,
                             dvae_break_every_steps=3)
    runlog = RunLog(
        epochs=[{"phase": 1, "phase_epoch": 0, "joint_step": 3, "lr": 0.005},
                {"phase": 1, "phase_epoch": 1, "joint_step": 6, "lr": 0.005},
                {"phase": 2, "phase_epoch": 0, "joint_step": 6, "lr": 0.001},
                {"phase": 2, "phase_epoch": 1, "joint_step": 6, "lr": 0.001}],
        events=[{"event": "break_start", "at_joint_step": 3},
                {"event": "break_start", "at_joint_step": 6},
                {"event": "freeze_check", "phase_epoch": 0, "hash": "h"},
                {"event": "freeze_check", "phase_epoch": 1, "hash": "h"}])
    return runlog, schedule


@pytest.mark.parametrize("edit, problem", [
    (lambda log: log.epochs.pop(0), "1 joint epochs, expected 2"),
    (lambda log: log.epochs.pop(), "1 dspn epochs, expected 2"),
    (lambda log: log.events.pop(0), "1 breaks, expected 2"),
    (lambda log: log.events[0].update(at_joint_step=2),
     "break 1 at step 2, expected 3"),
    (lambda log: log.events.pop(), "1 freeze checks, expected 2"),
    (lambda log: log.events[-1].update(hash="other"),
     "frozen-parameter hash changed during phase 2"),
], ids=["joint_epoch", "dspn_epoch", "break_count", "break_step",
        "freeze_count", "freeze_hash"])
def test_conformance_checker_names_each_violation(edit, problem):
    runlog, schedule = _conforming_runlog()
    assert check_schedule_conformance(runlog, schedule) == []
    edit(runlog)
    assert problem in check_schedule_conformance(runlog, schedule)


def test_phase2_lr_decay_schedule():
    schedule = TrainSchedule()
    assert schedule.dspn_lr_at(0) == 0.001
    assert abs(schedule.dspn_lr_at(10) - 0.0001) < 1e-18
    assert abs(schedule.dspn_lr_at(25) - 1e-5) < 1e-18
    assert abs(schedule.dspn_lr_at(49) - 1e-7) < 1e-20


def test_total_epochs_invariant():
    with pytest.raises(Exception):
        TrainSchedule(joint_epochs=5, dspn_epochs=2, total_epochs=10)
    assert TrainSchedule(joint_epochs=5, dspn_epochs=2).total_epochs == 7


def test_equal_seeds_give_equal_runlogs():
    a = tiny_train(seed=9)
    b = tiny_train(seed=9)
    assert a.runlog.comparable() == b.runlog.comparable()
    pa, pb = a.checkpoint.model.params, b.checkpoint.model.params
    for name in pa:
        assert np.array_equal(pa[name], pb[name])


def test_different_seeds_differ():
    a = tiny_train(seed=1)
    b = tiny_train(seed=2)
    assert a.runlog.comparable() != b.runlog.comparable()


def test_no_heldout_cells_touch_gradients():
    result = tiny_train(seed=4)
    cells = result.checkpoint.split_cells
    val_set, test_set = set(cells["val"]), set(cells["test"])
    assert not result.runlog.cells_touched & val_set
    assert not result.runlog.cells_touched & test_set


@pytest.mark.parametrize("reason, schedule_kw", [
    ("joint step 2 diverged: non-finite activations after layer dvae.dec_s.0",
     dict(joint_epochs=4, lr_joint=1e12)),
    ("break diverged: non-finite activations after layer dvae.dec_s.0",
     dict(joint_epochs=4, lr_joint=1e12, dvae_break_every_steps=1)),
    ("dspn epoch 0 diverged: non-finite parameter dspn.0.W",
     dict(lr_dspn=1e100)),
], ids=["joint", "break", "dspn"])
def test_divergent_lr_aborts_with_last_good_model(reason, schedule_kw):
    with pytest.raises(TrainingAborted) as err:
        tiny_train(**schedule_kw)
    aborted = err.value.result
    assert isinstance(aborted.checkpoint.model, VadeersModel)
    reasons = [e["reason"] for e in aborted.runlog.events
               if e["event"] == "aborted"]
    assert reasons == [reason]
    for arr in aborted.checkpoint.model.params.values():
        assert np.all(np.isfinite(arr))
    # the rest of the checkpoint is that of a run of the same seed
    done = tiny_train(joint_epochs=0, dspn_epochs=0).checkpoint
    assert aborted.checkpoint.scaler.to_dict() == done.scaler.to_dict()
    assert aborted.checkpoint.split_cells == done.split_cells
    assert aborted.checkpoint.guiding_labels == done.guiding_labels
    assert aborted.checkpoint.seed == done.seed == 0


def recorded_terms(monkeypatch) -> list[dict[str, float]]:
    """The unweighted terms of each step, as floats: ``LossWeights.weigh``
    patched to append those it is given to the returned list."""
    seen = []
    weigh = LossWeights.weigh

    def recording(self, terms):
        seen.append({k: float(t.data) for k, t in terms.items()})
        return weigh(self, terms)

    monkeypatch.setattr(LossWeights, "weigh", recording)
    return seen


def overflow_train(weights):
    return train(tiny_dataset(), TINY_CONFIG,
                 TrainSchedule(joint_epochs=1, dspn_epochs=1, seed=0), weights,
                 SplitSpec(n_val_cells=3, n_test_cells=3, seed=0))


def test_overflowing_loss_aborts_though_activations_stay_finite():
    # each term is finite at init; weighted, the first overflows
    weights = LossWeights(smiles_recon=1e308, ip_recon=1e308, cae=1e308,
                          dspn=1e308)
    reason = "joint step 1 loss non-finite in term smiles_recon"
    with pytest.raises(TrainingAborted, match=f"^{reason}$") as err:
        overflow_train(weights)
    assert err.value.result.runlog.events[-1] == {
        "event": "aborted", "reason": reason}


def test_a_loss_that_overflows_only_in_its_sum_names_the_total(monkeypatch):
    seen = recorded_terms(monkeypatch)
    overflow_train(LossWeights())
    first = seen[0]
    # each weighted term is finite, near 0.9e308, and their sum is not
    weights = LossWeights(prior=0, entropy=0, **{
        k: 0.9e308 / first[k]
        for k in ("smiles_recon", "ip_recon", "cae", "dspn")})
    with pytest.raises(TrainingAborted,
                       match="^joint step 1 loss non-finite in term total$"):
        overflow_train(weights)
    assert seen[-1] == first


def test_epoch_records_log_each_signed_weight_times_its_mean_term(
        monkeypatch):
    seen = recorded_terms(monkeypatch)
    weights = LossWeights(prior=0.5, entropy=0, dspn=3)
    schedule = TrainSchedule(joint_epochs=2, dspn_epochs=2, batch_size=16,
                             seed=0)
    runlog = train(tiny_dataset(), TINY_CONFIG, schedule, weights,
                   SplitSpec(n_val_cells=3, n_test_cells=3, seed=0)).runlog
    names = [f.name for f in fields(LossWeights)]
    joint = [t for t in seen if len(t) == len(names)]
    dspn = [t for t in seen if list(t) == ["dspn"]]
    assert len(joint) + len(dspn) == len(seen)
    sign = {"prior": -1.0, "entropy": -1.0}
    for record, steps in zip(runlog.epochs, [
            *np.array_split(joint, schedule.joint_epochs),
            *np.array_split(dspn, schedule.dspn_epochs)]):
        terms = names if record["phase"] == 1 else ["dspn"]
        keys = (["loss_total"] if record["phase"] == 1 else []) + [
            f"loss_{k}" for k in terms]
        assert list(record) == ["phase", "phase_epoch", "joint_step", "lr",
                                *keys]
        for k in terms:
            mean = np.mean([t[k] for t in steps])
            assert record[f"loss_{k}"] == pytest.approx(
                sign.get(k, 1.0) * getattr(weights, k) * mean, rel=1e-12)
        if record["phase"] == 1:
            assert record["loss_total"] == pytest.approx(
                sum(record[f"loss_{k}"] for k in names), rel=1e-12)
    assert [r["phase"] for r in runlog.epochs] == [1, 1, 2, 2]
    assert {r["loss_entropy"] for r in runlog.epochs[:2]} == {0.0}


def test_a_frozen_parameter_that_moves_in_phase_2_aborts(monkeypatch):
    step = vadeers.training.adam_step

    def leaky(params, grads, state, lr, copy):
        step(params, grads, state, lr, copy)
        if "dvae.enc.0.W" not in grads:  # a phase-2 step trains the DSPN only
            params["dvae.enc.0.b"] += 1.0

    monkeypatch.setattr(vadeers.training, "adam_step", leaky)
    with pytest.raises(TrainingAborted,
                       match="frozen parameters changed during phase 2"):
        tiny_train()


def test_the_working_copy_follows_every_adam_step(monkeypatch):
    # the float32 copy that the passes read equals the float64 master
    # after every step of every phase, break steps included
    step = vadeers.training.adam_step
    steps = []

    def checking(params, grads, state, lr, copy):
        step(params, grads, state, lr, copy)
        assert grads.flat.dtype == copy.flat.dtype == np.float32
        assert params.flat.dtype == np.float64
        for lo, hi, _ in grads.runs():
            assert np.array_equal(copy.flat[lo:hi],
                                  params.flat[lo:hi].astype(np.float32))
        assert copy.flat.tobytes() == params.flat.astype(np.float32).tobytes()
        steps.append("dvae.enc.0.W" in grads)

    monkeypatch.setattr(vadeers.training, "adam_step", checking)
    result = tiny_train()
    assert result.checkpoint.model.dtype == np.float32
    breaks = [e for e in result.runlog.events if e["event"] == "break_start"]
    assert breaks and True in steps and False in steps


def test_gmm_variant_requires_labels():
    ds = generate_synthetic(TINY_SPEC, seed=0)  # no labels derived
    with pytest.raises(DataError):
        train(ds, TINY_CONFIG, TrainSchedule(joint_epochs=1, dspn_epochs=1,
                                             seed=0),
              LossWeights(), SplitSpec(n_val_cells=3, n_test_cells=3, seed=0))


def test_labels_out_of_range_rejected():
    ds = derive_guiding_labels(generate_synthetic(TINY_SPEC, seed=0),
                               n_labels=3, seed=0)
    narrow = ModelConfig(**{
        **{f: getattr(TINY_CONFIG, f) for f in TINY_CONFIG.__dataclass_fields__},
        "n_guiding_labels": 2,
    })
    with pytest.raises(DataError):
        train(ds, narrow, TrainSchedule(joint_epochs=1, dspn_epochs=1, seed=0),
              LossWeights(), SplitSpec(n_val_cells=3, n_test_cells=3, seed=0))


def test_constrained_covariances_stay_identity_after_training():
    params = tiny_train(joint_epochs=3, dspn_epochs=1).checkpoint.model.params
    assert np.array_equal(params["gmm.log_scales"],
                          np.zeros_like(params["gmm.log_scales"]))


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------

def test_checkpoint_save_load_save_byte_identical(tmp_path):
    ckpt = tiny_train().checkpoint
    p1 = tmp_path / "a.bin"
    p2 = tmp_path / "b.bin"
    save_checkpoint(ckpt, p1)
    loaded = load_checkpoint(p1)
    save_checkpoint(loaded, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_checkpoint_round_trip_is_bit_exact(tmp_path):
    ckpt = tiny_train().checkpoint
    model = ckpt.model
    path = tmp_path / "model.bin"
    save_checkpoint(ckpt, path)
    loaded = load_checkpoint(path)
    assert sorted(loaded.model.params) == sorted(model.params)
    for name, arr in model.params.items():
        assert np.array_equal(loaded.model.params[name], arr)
    rng = np.random.default_rng(0)
    dl = rng.standard_normal((4, TINY_CONFIG.latent_dim))
    cl = rng.standard_normal((4, TINY_CONFIG.latent_dim))
    a = model.predict_sensitivity(dl, cl)
    b = loaded.model.predict_sensitivity(dl, cl)
    assert np.array_equal(a, b)


def _disk_full(monkeypatch, target, fails):
    """Make the first write to ``target``'s temporary file for which
    ``fails(data)`` holds stop halfway with ENOSPC; returns the list that
    then receives the names of ``target``'s temporary files on disk."""
    real_open = open
    partial = []

    class DiskFull:
        def __init__(self, fh):
            self.fh = fh

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return self.fh.__exit__(*exc)

        def write(self, data):
            if not fails(data):
                return self.fh.write(data)
            self.fh.write(data[: len(data) // 2])
            self.fh.flush()
            partial.extend(p.name for p in target.parent.iterdir()
                           if p.name.startswith(f".{target.name}."))
            raise OSError("disk full")

    def fake_open(file, *args, **kwargs):
        fh = real_open(file, *args, **kwargs)
        return (DiskFull(fh) if Path(file).name.startswith(f".{target.name}.")
                else fh)

    monkeypatch.setattr(vadeers.data, "open", fake_open, raising=False)
    return partial


def test_checkpoint_write_failure_keeps_previous_file(tmp_path, monkeypatch):
    ckpt = tiny_train().checkpoint
    path = tmp_path / "checkpoint.bin"
    save_checkpoint(ckpt, path)
    before = path.read_bytes()
    payload_bytes = 8 * ckpt.model.flat.size
    partial = _disk_full(monkeypatch, path,
                         lambda data: len(data) == payload_bytes)
    params = ckpt.model.params
    ckpt.model.params = {**params, "dspn.0.b": params["dspn.0.b"] + 1.0}
    with pytest.raises(OSError, match="disk full"):
        save_checkpoint(ckpt, path)
    monkeypatch.undo()
    # the failure came after a partial temporary file was on disk ...
    assert len(partial) == 1 and partial[0].endswith(".tmp")
    # ... and neither it nor a change to the previous file is left behind
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["checkpoint.bin"]
    load_checkpoint(path)


@pytest.mark.parametrize("name", ["runlog.jsonl", "ic50.csv"])
def test_artifact_write_failure_keeps_previous_file(tmp_path, monkeypatch,
                                                    name):
    path = tmp_path / name
    if name == "runlog.jsonl":
        old, new = tiny_train(seed=0).runlog, tiny_train(seed=1).runlog
        write = lambda runlog: runlog.export_jsonl(path)  # noqa: E731
    else:
        old, new = tiny_dataset(seed=0), tiny_dataset(seed=1)
        write = lambda dataset: save_csv(dataset, tmp_path)  # noqa: E731
    write(old)
    before = path.read_bytes()
    # fail on the first line after the run log's meta line or the header
    partial = _disk_full(monkeypatch, path, lambda data: not data.startswith(
        ('{"record": "meta"', "drug_id,")))
    with pytest.raises(OSError, match="disk full"):
        write(new)
    monkeypatch.undo()
    assert len(partial) == 1 and partial[0].endswith(".tmp")
    assert path.read_bytes() == before
    assert not list(tmp_path.glob(".*.tmp"))


def test_checkpoint_wrong_dim_names_both(tmp_path):
    path = tmp_path / "model.bin"
    save_checkpoint(tiny_train().checkpoint, path)
    wide = generate_synthetic(replace(TINY_SPEC, smiles_dim=99), seed=0)
    with pytest.raises(CheckpointError) as err:
        check_compatible(load_checkpoint(path), wide, path)
    msg = str(err.value)
    assert str(path) in msg and "smiles_dim=10" in msg and "smiles_dim=99" in msg


def test_vanilla_checkpoint_has_no_gmm_block(tmp_path):
    config = ModelConfig(**{
        **{f: getattr(TINY_CONFIG, f) for f in TINY_CONFIG.__dataclass_fields__},
        "prior_variant": "vanilla",
    })
    untrained = train(tiny_dataset(), config,
                      TrainSchedule(joint_epochs=0, dspn_epochs=0, seed=0),
                      LossWeights(), SplitSpec(n_val_cells=3, n_test_cells=3,
                                               seed=0))
    path = tmp_path / "vanilla.bin"
    save_checkpoint(untrained.checkpoint, path)
    loaded = load_checkpoint(path)
    assert not any(n.startswith("gmm.") for n in loaded.model.params)
    assert loaded.model.gmm_params() is None


def test_checkpoint_rejects_garbage(tmp_path):
    path = tmp_path / "junk.bin"
    path.write_bytes(b"not a checkpoint at all")
    with pytest.raises(CheckpointError):
        load_checkpoint(path)
