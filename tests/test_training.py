"""Training-protocol tests: the cell-line-held-out split, batch assembly,
break/freeze/lr-decay accounting, determinism, divergence handling, and
checkpoint round-trips."""

from pathlib import Path

import numpy as np
import pytest

import vadeers.data

from vadeers.data import (
    CellLineRecord,
    Dataset,
    DrugRecord,
    SynthSpec,
    derive_guiding_labels,
    generate_synthetic,
    save_csv,
)
from vadeers.exceptions import CheckpointError, ContractViolation, DataError
from vadeers.model import LossWeights, ModelConfig, VadeersModel
from vadeers.training import (
    Checkpoint,
    SplitSpec,
    TrainSchedule,
    TrainingAborted,
    build_pair_batch,
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
    drugs = [DrugRecord("D0", np.zeros(2), np.ones(3))]
    cells = [CellLineRecord(f"C{j:04d}", np.zeros(2)) for j in range(n_cells)]
    rng = np.random.default_rng(0)
    observed = [f"C{j:04d}" for j in range(0, n_cells, 2)]
    return Dataset.build(drugs, cells, (["D0"] * len(observed), observed,
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
    train_set, val_set, test_set = split.cell_sets()
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
        assert batch.ip_mask[row] == (1.0 if d.has_profile else 0.0)
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
    for name in a.model.params:
        assert np.array_equal(a.model.params[name], b.model.params[name])


def test_different_seeds_differ():
    a = tiny_train(seed=1)
    b = tiny_train(seed=2)
    assert a.runlog.comparable() != b.runlog.comparable()


def test_no_heldout_cells_touch_gradients():
    result = tiny_train(seed=4)
    _, val_set, test_set = result.split.cell_sets()
    assert not result.runlog.cells_touched & val_set
    assert not result.runlog.cells_touched & test_set


@pytest.mark.parametrize("phase, schedule_kw", [
    ("joint", dict(joint_epochs=4, lr_joint=1e12)),
    ("break", dict(joint_epochs=4, lr_joint=1e12, dvae_break_every_steps=1)),
    ("dspn", dict(lr_dspn=1e100)),
], ids=["joint", "break", "dspn"])
def test_divergent_lr_aborts_with_last_good_model(phase, schedule_kw):
    with pytest.raises(TrainingAborted) as err:
        tiny_train(**schedule_kw)
    aborted = err.value
    assert isinstance(aborted.model, VadeersModel)
    reasons = [e["reason"] for e in aborted.runlog.events
               if e["event"] == "aborted"]
    assert len(reasons) == 1 and reasons[0].startswith(phase), reasons
    for arr in aborted.model.params.values():
        assert np.all(np.isfinite(arr))


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
    result = tiny_train(joint_epochs=3, dspn_epochs=1)
    assert np.array_equal(result.model.params["gmm.log_scales"],
                          np.zeros_like(result.model.params["gmm.log_scales"]))


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------

def _checkpoint_for(result, labels=None):
    return Checkpoint(
        model=result.model,
        scaler=result.scaler,
        guiding_labels=labels,
        split_cells={"train": result.split.train_cells,
                     "val": result.split.val_cells,
                     "test": result.split.test_cells},
        seed=0,
    )


def test_checkpoint_save_load_save_byte_identical(tmp_path):
    result = tiny_train()
    ckpt = _checkpoint_for(result)
    p1 = tmp_path / "a.bin"
    p2 = tmp_path / "b.bin"
    save_checkpoint(ckpt, p1)
    loaded = load_checkpoint(p1)
    save_checkpoint(loaded, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_checkpoint_round_trip_is_bit_exact(tmp_path):
    result = tiny_train()
    path = tmp_path / "model.bin"
    save_checkpoint(_checkpoint_for(result), path)
    loaded = load_checkpoint(path)
    assert sorted(loaded.model.params) == sorted(result.model.params)
    for name, arr in result.model.params.items():
        assert np.array_equal(loaded.model.params[name], arr)
    rng = np.random.default_rng(0)
    dl = rng.standard_normal((4, TINY_CONFIG.latent_dim))
    cl = rng.standard_normal((4, TINY_CONFIG.latent_dim))
    a = result.model.predict_sensitivity(dl, cl)
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
    result = tiny_train()
    path = tmp_path / "checkpoint.bin"
    save_checkpoint(_checkpoint_for(result), path)
    before = path.read_bytes()
    payload_bytes = 8 * sum(a.size for a in result.model.params.values())
    partial = _disk_full(monkeypatch, path,
                         lambda data: len(data) == payload_bytes)
    result.model.params["dspn.0.b"] += 1.0
    with pytest.raises(OSError, match="disk full"):
        save_checkpoint(_checkpoint_for(result), path)
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
    result = tiny_train()
    path = tmp_path / "model.bin"
    save_checkpoint(_checkpoint_for(result), path)
    wrong = ModelConfig(**{
        **{f: getattr(TINY_CONFIG, f) for f in TINY_CONFIG.__dataclass_fields__},
        "smiles_dim": 99,
    })
    with pytest.raises(CheckpointError) as err:
        load_checkpoint(path, expected_config=wrong)
    msg = str(err.value)
    assert "10" in msg and "99" in msg


def test_vanilla_checkpoint_has_no_gmm_block(tmp_path):
    config = ModelConfig(**{
        **{f: getattr(TINY_CONFIG, f) for f in TINY_CONFIG.__dataclass_fields__},
        "prior_variant": "vanilla",
    })
    model = VadeersModel.initialize(config, np.random.default_rng(0))
    path = tmp_path / "vanilla.bin"
    save_checkpoint(Checkpoint(model=model), path)
    loaded = load_checkpoint(path)
    assert not any(n.startswith("gmm.") for n in loaded.model.params)
    assert loaded.model.gmm_params() is None


def test_checkpoint_rejects_garbage(tmp_path):
    path = tmp_path / "junk.bin"
    path.write_bytes(b"not a checkpoint at all")
    with pytest.raises(CheckpointError):
        load_checkpoint(path)
