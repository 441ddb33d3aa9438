"""CLI tests: every subcommand end to end at tiny scale, option
precedence across the three layers, seed reproducibility, and the exit
code contract (0 ok, 1 usage, 2 data error)."""

import json
import os
import shutil
import subprocess
import sys
import time
import warnings
from dataclasses import asdict, fields, replace

import numpy as np
import pytest

import vadeers.cli
from vadeers.cli import main
from vadeers.data import SynthSpec, load_csv, load_manifest
from vadeers.metrics import MetricReport
from vadeers.model import LossWeights, ModelConfig, VadeersModel
from vadeers.training import (
    CHECKPOINT_MAGIC,
    SplitSpec,
    TrainSchedule,
    load_checkpoint,
    save_checkpoint,
    split_by_cell_line,
)

SMALL_MODEL = {
    "latent_dim": 4,
    "dvae_encoder_dims": [16, 8],
    "decoder_dims": [8, 16],
    "dspn_dims": [32, 16, 8],
}


def run(*argv):
    return main([str(a) for a in argv])


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("data") / "synth"
    code = run("synth", "--out", out, "--seed", "0",
               "--n-drugs", "24", "--n-profiled", "12", "--n-cells", "20",
               "--observance", "0.8")
    assert code == 0
    return out


@pytest.fixture(scope="module")
def config_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cfg") / "config.json"
    path.write_text(json.dumps({
        "model": SMALL_MODEL,
        "schedule": {"joint_epochs": 3, "dspn_epochs": 2, "batch_size": 32,
                     "dvae_break_every_steps": 1000},
        "split": {"n_val_cells": 4, "n_test_cells": 4},
    }))
    return path


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory, data_dir, config_file):
    out = tmp_path_factory.mktemp("runs") / "train"
    code = run("train", "--data", data_dir, "--out", out,
               "--config", config_file, "--seed", "1",
               "--variant", "gmm_constrained")
    assert code == 0
    return out


# ---------------------------------------------------------------------------
# synth
# ---------------------------------------------------------------------------

def test_synth_writes_all_files(data_dir):
    for name in ("drugs.csv", "profiles.csv", "cells.csv", "ic50.csv",
                 "manifest.json"):
        assert (data_dir / name).exists()


def test_synth_manifest_counts_match_load(data_dir):
    manifest = load_manifest(data_dir)
    dataset = load_csv(data_dir)
    assert manifest["n_drugs"] == len(dataset.drugs) == 24
    assert manifest["n_profiled"] == int(dataset.profile_mask.sum()) == 12
    assert manifest["n_cells"] == len(dataset.cells) == 20
    assert manifest["n_pairs"] == len(dataset.pair_y)


def test_synth_same_seed_byte_identical(tmp_path, data_dir):
    other = tmp_path / "again"
    assert run("synth", "--out", other, "--seed", "0", "--n-drugs", "24",
               "--n-profiled", "12", "--n-cells", "20",
               "--observance", "0.8") == 0
    for name in ("drugs.csv", "profiles.csv", "cells.csv", "ic50.csv",
                 "manifest.json"):
        assert (other / name).read_bytes() == (data_dir / name).read_bytes()


def test_synth_scale_flag_over_config_over_desk_default(tmp_path):
    cfg = tmp_path / "paper.json"
    cfg.write_text(json.dumps({"scale": "paper"}))
    small = ("--n-drugs", "10", "--n-profiled", "5", "--n-cells", "8")
    dims = {}
    for name, argv in (("default", ()), ("config", ("--config", cfg)),
                       ("flag", ("--config", cfg, "--scale", "desk"))):
        assert run("synth", "--out", tmp_path / name, *small, *argv) == 0
        manifest = load_manifest(tmp_path / name)
        dims[name] = tuple(manifest[k]
                           for k in ("smiles_dim", "ip_dim", "bio_dim"))
    assert dims == {"default": (32, 24, 20), "config": (300, 294, 241),
                    "flag": (32, 24, 20)}


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------

def test_train_tiny_completes_quickly_and_writes_artifacts(
        tmp_path, data_dir, config_file):
    out = tmp_path / "run"
    started = time.monotonic()
    code = run("train", "--data", data_dir, "--out", out,
               "--config", config_file, "--seed", "3",
               "--variant", "vanilla", "--joint-epochs", "5",
               "--dspn-epochs", "2")
    elapsed = time.monotonic() - started
    assert code == 0
    assert elapsed < 60.0
    assert (out / "checkpoint.bin").exists()
    assert (out / "runlog.jsonl").exists()
    assert (out / "report_val.json").exists()
    ckpt = load_checkpoint(out / "checkpoint.bin")
    assert not any(n.startswith("gmm.") for n in ckpt.model.params)


def test_train_rerun_same_seed_reproduces_metrics(tmp_path, data_dir,
                                                  config_file):
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert run("train", "--data", data_dir, "--out", out,
                   "--config", config_file, "--seed", "5",
                   "--variant", "gmm_unconstrained") == 0
        outs.append(json.loads((out / "report_val.json").read_text()))
    assert abs(outs[0]["ic50_rmse"] - outs[1]["ic50_rmse"]) < 1e-9
    assert outs[0] == outs[1]


def test_readme_quickstart_split_fits_default_synth(tmp_path):
    data = tmp_path / "data"
    assert run("synth", "--out", data, "--seed", "0") == 0
    assert run("train", "--data", data, "--out", tmp_path / "gmm-c",
               "--seed", "0", "--variant", "gmm_constrained",
               "--n-val-cells", "25", "--n-test-cells", "25",
               "--joint-epochs", "1", "--dspn-epochs", "1") == 0


def test_train_without_test_cells_writes_its_run_directory(tmp_path, data_dir,
                                                          config_file, capsys):
    out = tmp_path / "no-test"
    assert run("train", "--data", data_dir, "--out", out,
               "--config", config_file, "--variant", "vanilla",
               "--joint-epochs", "1", "--dspn-epochs", "1",
               "--n-test-cells", "0") == 0
    assert (out / "report_val.json").exists()
    assert (out / "config_echo.json").exists()
    assert load_checkpoint(out / "checkpoint.bin").split_cells["test"] == []
    # evaluate reports on test pairs, and this run has none: the
    # checkpoint says so before the dataset is read
    capsys.readouterr()
    assert run("evaluate", "--checkpoint", out / "checkpoint.bin",
               "--data", tmp_path / "unread", "--out", tmp_path / "eval") == 2
    assert capsys.readouterr().err == (
        f"data error: {out / 'checkpoint.bin'}: the checkpoint's test split "
        f"holds no cell lines, and evaluate reports on test pairs\n")
    assert not (tmp_path / "eval").exists()


def test_train_on_one_profile_column_reports_null_correlations(tmp_path,
                                                               config_file):
    # a Pearson over one feature is undefined, not an error
    cfg = tmp_path / "narrow.json"
    cfg.write_text(json.dumps({"synth": {"ip_dim": 1}}))
    data = tmp_path / "data"
    assert run("synth", "--out", data, "--seed", "0", "--n-drugs", "24",
               "--n-profiled", "12", "--n-cells", "20", "--observance", "0.8",
               "--config", cfg) == 0
    out = tmp_path / "run"
    assert run("train", "--data", data, "--out", out, "--config", config_file,
               "--variant", "gmm_constrained", "--joint-epochs", "2",
               "--dspn-epochs", "1") == 0
    report = json.loads((out / "report_val.json").read_text())
    assert report["centroid_rmse"] is not None
    assert report["centroid_pearson"] is None and report["std_pearson"] is None
    assert report["per_cluster"]
    for entry in report["per_cluster"].values():
        assert entry["centroid_pearson"] is None
        assert entry.get("std_pearson") is None


def test_train_default_model_echo_matches_model_config(tmp_path, data_dir):
    out = tmp_path / "defaults"
    assert run("train", "--data", data_dir, "--out", out, "--variant",
               "vanilla", "--joint-epochs", "1", "--dspn-epochs", "1",
               "--n-val-cells", "4", "--n-test-cells", "4") == 0
    dataset = load_csv(data_dir)
    want = asdict(ModelConfig(smiles_dim=dataset.smiles_dim,
                              ip_dim=dataset.ip_dim, bio_dim=dataset.bio_dim,
                              prior_variant="vanilla"))
    echo = json.loads((out / "config_echo.json").read_text())
    assert echo["model"] == json.loads(json.dumps(want))


def test_train_checkpoint_has_gmm_and_split(run_dir):
    ckpt = load_checkpoint(run_dir / "checkpoint.bin")
    assert any(n.startswith("gmm.") for n in ckpt.model.params)
    assert ckpt.scaler is not None
    assert set(ckpt.split_cells) == {"train", "val", "test"}
    assert ckpt.guiding_labels


# ---------------------------------------------------------------------------
# generate
# ---------------------------------------------------------------------------

def test_generate_component_rows(tmp_path, run_dir):
    out = tmp_path / "gen.csv"
    assert run("generate", "--checkpoint", run_dir / "checkpoint.bin",
               "--component", "0", "--n", "25", "--out", out,
               "--seed", "4") == 0
    lines = out.read_text().splitlines()
    header = lines[0].split(",")
    assert lines[0].startswith("component,")
    assert len(lines) == 26
    assert header.count("e0") == 1 and "k0" in header
    # ip width matches the checkpoint config
    ckpt = load_checkpoint(run_dir / "checkpoint.bin")
    assert len(header) == 1 + ckpt.model.config.smiles_dim \
        + ckpt.model.config.ip_dim


def test_generate_component_out_of_range(tmp_path, run_dir):
    code = run("generate", "--checkpoint", run_dir / "checkpoint.bin",
               "--component", "9", "--n", "5",
               "--out", tmp_path / "x.csv")
    assert code == 2


def test_generate_component_on_vanilla_unsupported(tmp_path, data_dir,
                                                   config_file):
    out = tmp_path / "vrun"
    assert run("train", "--data", data_dir, "--out", out, "--config",
               config_file, "--seed", "2", "--variant", "vanilla",
               "--joint-epochs", "1", "--dspn-epochs", "1") == 0
    code = run("generate", "--checkpoint", out / "checkpoint.bin",
               "--component", "0", "--n", "5",
               "--out", tmp_path / "y.csv")
    assert code == 2
    # unconditioned sampling works
    assert run("generate", "--checkpoint", out / "checkpoint.bin",
               "--n", "5", "--out", tmp_path / "z.csv") == 0


@pytest.fixture(scope="module")
def vanilla_run_dir(tmp_path_factory, data_dir, config_file):
    out = tmp_path_factory.mktemp("runs") / "vanilla"
    assert run("train", "--data", data_dir, "--out", out, "--config",
               config_file, "--seed", "2", "--variant", "vanilla",
               "--joint-epochs", "1", "--dspn-epochs", "1") == 0
    return out


@pytest.mark.parametrize("variant", ["vanilla", "gmm_constrained"])
@pytest.mark.parametrize("command, flag", [("generate", "--n"),
                                           ("evaluate", "--n-gen")])
@pytest.mark.parametrize("n", [-5, 0])
def test_nonpositive_sample_count_is_a_usage_error(
        request, tmp_path, data_dir, capsys, variant, command, flag, n):
    fixture = "vanilla_run_dir" if variant == "vanilla" else "run_dir"
    ckpt = request.getfixturevalue(fixture) / "checkpoint.bin"
    args = ["--data", data_dir] if command == "evaluate" else []
    out = tmp_path / "out"
    capsys.readouterr()
    assert run(command, "--checkpoint", ckpt, *args, flag, n,
               "--out", out) == 1
    captured = capsys.readouterr()
    assert "Traceback" not in captured.out + captured.err
    assert f"'{flag}'" in captured.err, captured.err
    assert not out.exists()


def test_generate_from_trained_model_separates_components(
        tmp_path, trained_variants, desk_data):
    # rows generated from different components classify to their matched
    # planted clusters by nearest centroid
    from vadeers.metrics import cluster_stats, generation_fidelity

    tv = trained_variants["gmm_constrained"]
    dataset, _ = desk_data
    ckpt_path = tmp_path / "trained.bin"
    save_checkpoint(tv.result.checkpoint, ckpt_path)
    rows, comps = [], []
    for k in range(3):
        out = tmp_path / f"gen{k}.csv"
        assert run("generate", "--checkpoint", ckpt_path, "--component", k,
                   "--n", "100", "--out", out, "--seed", k) == 0
        lines = out.read_text().splitlines()[1:]
        smiles_dim = tv.result.checkpoint.model.config.smiles_dim
        for line in lines:
            fields = line.split(",")
            assert int(fields[0]) == k
            rows.append([float(x) for x in fields[1 + smiles_dim:]])
            comps.append(k)
    rows = np.asarray(rows)
    comps = np.asarray(comps)

    idx = dataset.drug_index()
    labeled = sorted(tv.labels)
    true_rows = np.stack([dataset.drugs[idx[i]].inhibition_profile
                          for i in labeled])
    true_labs = np.array([tv.labels[i] for i in labeled])
    stats = cluster_stats(true_rows, true_labs)
    order = sorted(stats.centroids)
    cents = np.stack([stats.centroids[l] for l in order])
    matching = generation_fidelity(true_rows, true_labs, rows, comps).matching
    assigned = np.array([
        order[int(np.argmin(np.linalg.norm(cents - row, axis=1)))]
        for row in rows
    ])
    want = np.array([matching[c] for c in comps])
    assert float(np.mean(assigned == want)) > 0.9


# ---------------------------------------------------------------------------
# predict
# ---------------------------------------------------------------------------

def _write_feature_csv(path, header_prefix, ids, rows):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("id," + ",".join(
            f"{header_prefix}{i}" for i in range(rows.shape[1])) + "\n")
        for rid, row in zip(ids, rows):
            fh.write(rid + "," + ",".join(repr(float(x)) for x in row) + "\n")


def test_predict_matches_library_and_row_contract(tmp_path, run_dir, data_dir):
    dataset = load_csv(data_dir)
    drugs = dataset.drugs[:3] + [dataset.drugs[0]]  # repeated row
    cells = dataset.cells[:3] + [dataset.cells[0]]
    demb = np.stack([d.smiles_embedding for d in drugs])
    cfeat = np.stack([c.features for c in cells])
    dpath = tmp_path / "drugs_in.csv"
    cpath = tmp_path / "cells_in.csv"
    _write_feature_csv(dpath, "e", [d.id for d in drugs], demb)
    _write_feature_csv(cpath, "f", [c.id for c in cells], cfeat)
    out = tmp_path / "preds.csv"
    assert run("predict", "--checkpoint", run_dir / "checkpoint.bin",
               "--drugs", dpath, "--cells", cpath, "--out", out) == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 5  # header + 4 requested pairs
    preds = [float(l.split(",")[2]) for l in lines[1:]]

    ckpt = load_checkpoint(run_dir / "checkpoint.bin")
    emb_std = ckpt.scaler.transform_embedding(demb)
    feat_std = ckpt.scaler.transform_cell(cfeat)
    mu = ckpt.model.drug_latent_means(emb_std)
    lat = ckpt.model.cell_latents(feat_std)
    expected = ckpt.scaler.inverse_ic50(
        ckpt.model.predict_sensitivity(mu, lat))
    assert np.array_equal(np.array(preds), expected)
    # identical input rows give identical predictions
    assert preds[0] == preds[3]


@pytest.mark.parametrize("bad_row, column", [
    (lambda f: f[:4] + ["oops"] + f[5:], "e3"),
    (lambda f: f[:4] + ["nan"] + f[5:], "e3"),
    (lambda f: f[:6], "e5"),
], ids=["non_numeric", "nan", "short_row"])
def test_predict_bad_value_names_file_row_column(tmp_path, run_dir, capsys,
                                                 bad_row, column):
    dpath = tmp_path / "drugs_in.csv"
    _write_feature_csv(dpath, "e", ["X0", "X1"], np.zeros((2, 32)))
    lines = dpath.read_text().splitlines()
    lines[2] = ",".join(bad_row(lines[2].split(",")))
    dpath.write_text("\n".join(lines) + "\n")
    cpath = tmp_path / "cells_in.csv"
    _write_feature_csv(cpath, "f", ["C0", "C1"], np.zeros((2, 20)))
    capsys.readouterr()
    assert run("predict", "--checkpoint", run_dir / "checkpoint.bin",
               "--drugs", dpath, "--cells", cpath,
               "--out", tmp_path / "o.csv") == 2
    err = capsys.readouterr().err
    assert "drugs_in.csv" in err and "row 2" in err and f"column {column}" in err


@pytest.mark.parametrize("first_id, message", [
    (b"X\xe90", "drugs_in.csv: line 2: byte 0xe9 is not UTF-8 text"),
    (b'"' + b"x" * 200_000 + b'"',
     "drugs_in.csv: row 1: field larger than field limit (131072)"),
], ids=["non_utf8", "long_quoted_field"])
def test_predict_unreadable_input_exit_2(tmp_path, run_dir, capsys, first_id,
                                         message):
    dpath = tmp_path / "drugs_in.csv"
    _write_feature_csv(dpath, "e", ["X0", "X1"], np.zeros((2, 32)))
    dpath.write_bytes(dpath.read_bytes().replace(b"X0", first_id))
    cpath = tmp_path / "cells_in.csv"
    _write_feature_csv(cpath, "f", ["C0", "C1"], np.zeros((2, 20)))
    capsys.readouterr()
    assert run("predict", "--checkpoint", run_dir / "checkpoint.bin",
               "--drugs", dpath, "--cells", cpath,
               "--out", tmp_path / "o.csv") == 2
    assert capsys.readouterr().err == f"data error: {message}\n"


@pytest.mark.parametrize("empty, message", [
    (True, "drugs_in.csv: empty file"),
    (False, "drugs_in.csv: no data rows"),
], ids=["empty_file", "header_only"])
def test_predict_without_rows_exit_2(tmp_path, run_dir, capsys, empty,
                                     message):
    dpath = tmp_path / "drugs_in.csv"
    _write_feature_csv(dpath, "e", [], np.zeros((0, 32)))
    if empty:
        dpath.write_bytes(b"")
    cpath = tmp_path / "cells_in.csv"
    _write_feature_csv(cpath, "f", [], np.zeros((0, 20)))
    capsys.readouterr()
    assert run("predict", "--checkpoint", run_dir / "checkpoint.bin",
               "--drugs", dpath, "--cells", cpath,
               "--out", tmp_path / "o.csv") == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err and message in err, err
    assert not (tmp_path / "o.csv").exists()


def test_predict_row_count_mismatch_names_both_files(tmp_path, run_dir,
                                                     capsys):
    dpath = tmp_path / "drugs_in.csv"
    _write_feature_csv(dpath, "e", ["X0", "X1", "X2"], np.zeros((3, 32)))
    cpath = tmp_path / "cells_in.csv"
    _write_feature_csv(cpath, "f", ["C0", "C1"], np.zeros((2, 20)))
    capsys.readouterr()
    assert run("predict", "--checkpoint", run_dir / "checkpoint.bin",
               "--drugs", dpath, "--cells", cpath,
               "--out", tmp_path / "o.csv") == 2
    err = capsys.readouterr().err
    assert str(dpath) in err and str(cpath) in err, err
    assert not (tmp_path / "o.csv").exists()


def test_predict_width_mismatch_names_dims(tmp_path, run_dir):
    dpath = tmp_path / "bad.csv"
    _write_feature_csv(dpath, "e", ["X0"], np.zeros((1, 5)))
    cpath = tmp_path / "cells1.csv"
    _write_feature_csv(cpath, "f", ["C0"], np.zeros((1, 20)))
    code = run("predict", "--checkpoint", run_dir / "checkpoint.bin",
               "--drugs", dpath, "--cells", cpath,
               "--out", tmp_path / "o.csv")
    assert code == 2


# ---------------------------------------------------------------------------
# checkpoint header defects
# ---------------------------------------------------------------------------

def _rewrite_header(src, dst, mutate):
    """Copy a checkpoint with its JSON header changed by ``mutate``."""
    raw = src.read_bytes()
    start = len(CHECKPOINT_MAGIC) + 8
    size = int.from_bytes(raw[len(CHECKPOINT_MAGIC): start], "little")
    header = json.loads(raw[start: start + size])
    mutate(header)
    blob = json.dumps(header, sort_keys=True).encode()
    dst.write_bytes(CHECKPOINT_MAGIC + len(blob).to_bytes(8, "little") + blob
                    + raw[start + size:])


@pytest.mark.parametrize("mutate, key", [
    (lambda h: h["config"].update(bogus_knob=1), "bogus_knob"),
    (lambda h: h["config"].pop("latent_dim"), "latent_dim"),
    (lambda h: h["scaler"].pop("ic50_mean"), "ic50_mean"),
    (lambda h: h["scaler"].update(bogus=1.0), "bogus"),
    (lambda h: h["scaler"].update(embedding_std=[1.0, 1.0, 1.0]),
     "embedding_std"),
    (lambda h: h["scaler"].update(ip_mean=[0.0, 0.0, 0.0]), "ip_mean"),
    (lambda h: h["scaler"]["cell_std"].__setitem__(0, 0.0), "cell_std"),
    (lambda h: h["scaler"].update(ic50_std="1"), "ic50_std"),
    (lambda h: h["scaler"]["cell_binary"].__setitem__(0, 1), "cell_binary"),
    (lambda h: h.update(guiding_labels=[["D0", 0]]), "guiding_labels"),
    (lambda h: h["guiding_labels"].update(D0="0"), "guiding_labels"),
    (lambda h: h["split_cells"].pop("val"), "split_cells"),
    (lambda h: h["split_cells"]["test"].append(7), "split_cells"),
    (lambda h: h["guiding_labels"].update(D0=99), "D0"),
    (lambda h: h["guiding_labels"].update(D0=-1), "D0"),
    (lambda h: h["guiding_labels"].update(D0=h["config"]["n_guiding_labels"]),
     "D0"),
    (lambda h: h["config"].update(latent_dim=4.0), "latent_dim"),
    (lambda h: h["config"].update(n_components=3.0), "n_components"),
    (lambda h: h["config"].update(dspn_dims=[32.0, 16.0, 8.0]), "dspn_dims"),
    (lambda h: h["config"].update(latent_dim=0), "latent_dim"),
    (lambda h: h.update(seed="x"), "seed"),
    (lambda h: h.update(seed=1.5), "seed"),
    (lambda h: h.update(seed=True), "seed"),
    (lambda h: h["config"].update(prior_variant="bogus"), "prior_variant"),
    (lambda h: h["arrays"][0].pop("shape"), "arrays"),
    (lambda h: h.update(scaler=[1.0]), "scaler"),
    (lambda h: h["scaler"].update(ic50_mean=float("nan")), "ic50_mean"),
    (lambda h: h.update(bogus=1), "bogus"),
    (lambda h: h.update(prior_variant="vanilla"), "prior_variant"),
    (lambda h: h.pop("prior_variant"), "prior_variant"),
    (lambda h: h["split_cells"]["test"].append(h["split_cells"]["val"][0]),
     "split_cells"),
    (lambda h: h["split_cells"]["train"].append(h["split_cells"]["val"][1]),
     "split_cells"),
], ids=["unknown_key", "missing_key", "scaler_missing_field",
        "scaler_unknown_field", "scaler_std_width", "scaler_mean_width",
        "scaler_zero_std", "scaler_string_number", "scaler_int_binary",
        "labels_list", "labels_string_value", "split_missing_part",
        "split_int_id", "label_99", "label_minus_1", "label_n_guiding_labels",
        "config_float_latent_dim", "config_float_n_components",
        "config_float_dspn_dims", "config_zero_latent_dim", "seed_string",
        "seed_float", "seed_bool", "config_prior_variant", "array_no_shape",
        "scaler_not_an_object", "scaler_nan", "header_unknown_key",
        "header_prior_variant_mismatch", "header_prior_variant_missing",
        "split_val_cell_in_test", "split_val_cell_in_train"])
def test_checkpoint_config_key_defect_exit_2(tmp_path, run_dir, capsys,
                                             mutate, key):
    path = tmp_path / "bad.bin"
    _rewrite_header(run_dir / "checkpoint.bin", path, mutate)
    capsys.readouterr()
    assert run("generate", "--checkpoint", path, "--n", "5",
               "--out", tmp_path / "g.csv") == 2
    err = capsys.readouterr().err
    assert "bad.bin" in err and repr(key) in err


def test_checkpoint_header_config_not_an_object_exit_2(tmp_path, run_dir,
                                                        capsys):
    path = tmp_path / "bad.bin"
    _rewrite_header(run_dir / "checkpoint.bin", path,
                    lambda h: h.update(config=3))
    capsys.readouterr()
    assert run("generate", "--checkpoint", path, "--n", "5",
               "--out", tmp_path / "g.csv") == 2
    assert capsys.readouterr().err == (
        f"data error: {path}: header config must be an object\n")


def _command_args(command, tmp_path, data_dir):
    """The arguments of ``command`` but --checkpoint and --out; predict
    gets one drug row and one cell row."""
    dpath, cpath = tmp_path / "drugs_in.csv", tmp_path / "cells_in.csv"
    _write_feature_csv(dpath, "e", ["X0"], np.zeros((1, 32)))
    _write_feature_csv(cpath, "f", ["C0"], np.zeros((1, 20)))
    return {"generate": ["--n", "5"], "evaluate": ["--data", data_dir],
            "predict": ["--drugs", dpath, "--cells", cpath]}[command]


@pytest.mark.parametrize("header", [[1], None, 3], ids=["list", "null", "int"])
@pytest.mark.parametrize("command", ["generate", "evaluate", "predict"])
def test_checkpoint_header_not_an_object_exit_2(tmp_path, data_dir, capsys,
                                                command, header):
    path = tmp_path / "bad.bin"
    blob = json.dumps(header).encode()
    path.write_bytes(CHECKPOINT_MAGIC + len(blob).to_bytes(8, "little") + blob)
    args = _command_args(command, tmp_path, data_dir)
    capsys.readouterr()
    assert run(command, "--checkpoint", path, *args,
               "--out", tmp_path / "out") == 2
    err = capsys.readouterr().err
    assert "bad.bin: header is not a JSON object" in err
    assert "Traceback" not in err


def _with_length(raw, size):
    """A checkpoint's bytes ``raw`` with its header-length field set to
    ``size``."""
    n = len(CHECKPOINT_MAGIC)
    return raw[:n] + size.to_bytes(8, "little") + raw[n + 8:]


@pytest.mark.parametrize("mutate", [
    lambda raw, size: raw[:14] + b"\xff" + raw[15:],
    lambda raw, size: _with_length(raw, size + 40),
    lambda raw, size: _with_length(raw, len(raw)),
    lambda raw, size: raw + bytes(8),
], ids=["non_utf8_header_byte", "length_inside_file", "length_past_end",
        "trailing_bytes"])
@pytest.mark.parametrize("command", ["generate", "evaluate", "predict"])
def test_checkpoint_header_bytes_defect_exit_2(tmp_path, run_dir, data_dir,
                                               capsys, command, mutate):
    raw = (run_dir / "checkpoint.bin").read_bytes()
    n = len(CHECKPOINT_MAGIC)
    path = tmp_path / "bad.bin"
    path.write_bytes(mutate(raw, int.from_bytes(raw[n: n + 8], "little")))
    args = _command_args(command, tmp_path, data_dir)
    capsys.readouterr()
    assert run(command, "--checkpoint", path, *args,
               "--out", tmp_path / "out") == 2
    err = capsys.readouterr().err
    assert err.startswith(f"data error: {path}: "), err
    assert "Traceback" not in err


@pytest.mark.parametrize("name, value, problem", [
    ("dspn.0.W", np.nan, "has a non-finite value"),
    ("gmm.logits", np.inf, "has a non-finite value"),
    ("gmm.log_scales", 0.5, "of a gmm_constrained model is not all zero"),
    ("dvae.dec_s.0.W", 1e39, "has a value beyond float32's range"),
    ("gmm.means", -1e39, "has a value beyond float32's range"),
], ids=["nan_weight", "inf_logit", "constrained_log_scale",
        "float32_overflow_weight", "float32_overflow_mean"])
@pytest.mark.parametrize("command", ["generate", "evaluate", "predict"])
def test_checkpoint_bad_parameter_value_exit_2(tmp_path, run_dir, data_dir,
                                               capsys, command, name, value,
                                               problem):
    ckpt = load_checkpoint(run_dir / "checkpoint.bin")
    edited = ckpt.model.params[name].copy()
    edited.flat[0] = value
    ckpt.model.params = {**ckpt.model.params, name: edited}
    path = tmp_path / "bad.bin"
    save_checkpoint(ckpt, path)
    args = _command_args(command, tmp_path, data_dir)
    capsys.readouterr()
    assert run(command, "--checkpoint", path, *args,
               "--out", tmp_path / "out") == 2
    assert capsys.readouterr().err == \
        f"data error: {path}: array {name!r} {problem}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("mutate", [
    lambda h: h.update(scaler=None),
    lambda h: h.update(split_cells=None),
    lambda h: h["split_cells"]["test"].append("C999"),
], ids=["no_scaler", "no_split", "split_unknown_cell"])
def test_evaluate_checkpoint_records_defect_exit_2(tmp_path, run_dir, data_dir,
                                                   capsys, mutate):
    path = tmp_path / "bad.bin"
    _rewrite_header(run_dir / "checkpoint.bin", path, mutate)
    capsys.readouterr()
    assert run("evaluate", "--checkpoint", path, "--data", data_dir,
               "--out", tmp_path / "e") == 2
    err = capsys.readouterr().err
    assert err.startswith(f"data error: {path}: "), err


@pytest.mark.parametrize("field", ["scaler", "split_cells"])
@pytest.mark.parametrize("command", ["generate", "predict"])
def test_checkpoint_without_scaler_or_split_exit_2(tmp_path, run_dir, data_dir,
                                                   capsys, command, field):
    # evaluate's cases are test_evaluate_checkpoint_records_defect_exit_2's
    path = tmp_path / "bad.bin"
    _rewrite_header(run_dir / "checkpoint.bin", path,
                    lambda h: h.update({field: None}))
    args = _command_args(command, tmp_path, data_dir)
    capsys.readouterr()
    assert run(command, "--checkpoint", path, *args,
               "--out", tmp_path / "out") == 2
    err = capsys.readouterr().err
    assert err.startswith(f"data error: {path}: header field {field!r}"), err
    assert not (tmp_path / "out").exists()


def test_evaluate_gmm_checkpoint_without_labels(tmp_path, run_dir, data_dir):
    path = tmp_path / "unlabeled.bin"
    _rewrite_header(run_dir / "checkpoint.bin", path,
                    lambda h: h.update(guiding_labels=None))
    out = tmp_path / "e"
    assert run("evaluate", "--checkpoint", path, "--data", data_dir,
               "--out", out) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["silhouette_generated"] is not None
    assert report["centroid_pearson"] is None and report["per_cluster"] == {}


def test_checkpoint_missing_array_exit_2(tmp_path, run_dir, capsys):
    ckpt = load_checkpoint(run_dir / "checkpoint.bin")
    ckpt.model.params = {name: value for name, value in ckpt.model.params.items()
                         if name != "gmm.means"}
    path = tmp_path / "no_means.bin"
    save_checkpoint(ckpt, path)
    capsys.readouterr()
    assert run("generate", "--checkpoint", path, "--component", "0",
               "--n", "5", "--out", tmp_path / "g.csv") == 2
    err = capsys.readouterr().err
    assert "no_means.bin" in err and "'gmm.means'" in err


def test_checkpoint_flipped_payload_byte_exit_2(tmp_path, run_dir, capsys):
    raw = bytearray((run_dir / "checkpoint.bin").read_bytes())
    raw[-100] ^= 0x01
    path = tmp_path / "flipped.bin"
    path.write_bytes(bytes(raw))
    dpath = tmp_path / "drugs_in.csv"
    _write_feature_csv(dpath, "e", ["X0"], np.zeros((1, 32)))
    cpath = tmp_path / "cells_in.csv"
    _write_feature_csv(cpath, "f", ["C0"], np.zeros((1, 20)))
    out = tmp_path / "o.csv"
    capsys.readouterr()
    assert run("predict", "--checkpoint", path, "--drugs", dpath,
               "--cells", cpath, "--out", out) == 2
    err = capsys.readouterr().err
    assert "flipped.bin" in err and "payload_sha256" in err
    assert "Traceback" not in err
    assert not out.exists()


def test_checkpoint_without_payload_hash_loads(tmp_path, run_dir):
    path = tmp_path / "unhashed.bin"
    _rewrite_header(run_dir / "checkpoint.bin", path,
                    lambda h: h.pop("payload_sha256"))
    loaded = load_checkpoint(path).model.params
    saved = load_checkpoint(run_dir / "checkpoint.bin").model.params
    assert loaded.keys() == saved.keys()
    assert all(np.array_equal(loaded[k], saved[k]) for k in saved)


# ---------------------------------------------------------------------------
# evaluate
# ---------------------------------------------------------------------------

def test_evaluate_twice_identical_and_complete(tmp_path, run_dir, data_dir):
    outs = []
    for name in ("e1", "e2"):
        out = tmp_path / name
        assert run("evaluate", "--checkpoint", run_dir / "checkpoint.bin",
                   "--data", data_dir, "--out", out, "--seed", "6",
                   "--n-gen", "40") == 0
        outs.append((out / "report.json").read_text())
        assert (out / "latent_pca.csv").exists()
        assert (out / "generated_ip_pca.csv").exists()
    assert outs[0] == outs[1]
    report = MetricReport.from_json(outs[0])
    assert report.n_test_pairs > 0
    assert report.silhouette_generated is not None


def test_evaluate_encodes_drugs_once(tmp_path, run_dir, data_dir,
                                     monkeypatch):
    calls = []

    def counted(name):
        method = getattr(VadeersModel, name)

        def call(self, *args, **kwargs):
            calls.append(name)
            return method(self, *args, **kwargs)
        monkeypatch.setattr(VadeersModel, name, call)

    counted("drug_latent_means")
    counted("decode_drug")
    out = tmp_path / "eval"
    assert run("evaluate", "--checkpoint", run_dir / "checkpoint.bin",
               "--data", data_dir, "--out", out, "--n-gen", "20") == 0
    # the projections reuse the report's encoder means and generated rows
    assert (out / "latent_pca.csv").exists()
    assert (out / "generated_ip_pca.csv").exists()
    assert sorted(calls) == ["decode_drug", "drug_latent_means"]


def test_evaluate_vanilla_checkpoint_projects_standard_normal_draws(
        tmp_path, vanilla_run_dir, data_dir):
    out = tmp_path / "eval"
    assert run("evaluate", "--checkpoint", vanilla_run_dir / "checkpoint.bin",
               "--data", data_dir, "--out", out, "--n-gen", "5") == 0
    report = json.loads((out / "report.json").read_text())
    assert report["silhouette_generated"] is None
    assert report["silhouette_latent"] is None and report["per_cluster"] == {}
    # three draws per --n-gen, each labeled -1; and no labeled drugs
    rows = (out / "generated_ip_pca.csv").read_text().splitlines()[1:]
    assert len(rows) == 15 and {r.split(",")[0] for r in rows} == {"-1"}
    assert not (out / "latent_pca.csv").exists()


@pytest.mark.parametrize("train_flags, n_gen, projections", [
    (("--n-components", "1", "--n-guiding-labels", "1"), "40",
     {"latent_pca.csv", "generated_ip_pca.csv"}),
    (("--latent-dim", "1"), "40", {"generated_ip_pca.csv"}),
    (("--n-components", "2", "--n-guiding-labels", "2"), "1",
     {"latent_pca.csv"}),
], ids=["one_component", "one_latent_column", "two_generated_rows"])
def test_train_and_evaluate_write_what_they_can(tmp_path, data_dir,
                                                config_file, train_flags,
                                                n_gen, projections):
    # one component has no generated Silhouette, and a projection needs
    # 3 rows and 2 columns; each is left out, not an error
    run_out = tmp_path / "run"
    assert run("train", "--data", data_dir, "--out", run_out,
               "--config", config_file, "--variant", "gmm_constrained",
               *train_flags) == 0
    reports = [json.loads((run_out / "report_val.json").read_text())]
    out = tmp_path / "eval"
    assert run("evaluate", "--checkpoint", run_out / "checkpoint.bin",
               "--data", data_dir, "--out", out, "--n-gen", n_gen) == 0
    reports.append(json.loads((out / "report.json").read_text()))
    one_component = train_flags[:2] == ("--n-components", "1")
    for report in reports:
        assert (report["silhouette_generated"] is None) == one_component
    assert {p.name for p in out.glob("*_pca.csv")} == projections


def test_evaluate_rejects_changed_dataset(tmp_path, run_dir, data_dir,
                                          config_file):
    other = tmp_path / "other_data"
    assert run("synth", "--out", other, "--seed", "9", "--n-drugs", "24",
               "--n-profiled", "12", "--n-cells", "18",
               "--observance", "0.8") == 0
    code = run("evaluate", "--checkpoint", run_dir / "checkpoint.bin",
               "--data", other, "--out", tmp_path / "e3")
    assert code == 2


def test_evaluate_other_widths_exit_2(tmp_path, run_dir, capsys):
    cfg = tmp_path / "narrow.json"
    cfg.write_text(json.dumps({"synth": {"smiles_dim": 16}}))
    other = tmp_path / "narrow_data"
    assert run("synth", "--out", other, "--seed", "0", "--n-drugs", "24",
               "--n-profiled", "12", "--n-cells", "20", "--observance", "0.8",
               "--config", cfg) == 0
    capsys.readouterr()
    assert run("evaluate", "--checkpoint", run_dir / "checkpoint.bin",
               "--data", other, "--out", tmp_path / "e") == 2
    err = capsys.readouterr().err
    assert "checkpoint.bin" in err and "smiles_dim=16" in err
    assert "Traceback" not in err


def test_evaluate_missing_labeled_drug_exit_2(tmp_path, run_dir, capsys):
    other = tmp_path / "fewer_drugs"
    assert run("synth", "--out", other, "--seed", "0", "--n-drugs", "12",
               "--n-profiled", "6", "--n-cells", "20",
               "--observance", "0.8") == 0
    labels = load_checkpoint(run_dir / "checkpoint.bin").guiding_labels
    missing = sorted(set(labels) - set(load_csv(other).drug_ids))
    assert missing
    capsys.readouterr()
    assert run("evaluate", "--checkpoint", run_dir / "checkpoint.bin",
               "--data", other, "--out", tmp_path / "e") == 2
    err = capsys.readouterr().err
    assert "checkpoint.bin" in err and repr(missing[0]) in err
    assert "Traceback" not in err


# ---------------------------------------------------------------------------
# experiment grid
# ---------------------------------------------------------------------------

def test_experiment_grid_aggregates(tmp_path, data_dir, config_file):
    out = tmp_path / "grid"
    code = run("experiment", "--data", data_dir, "--out", out,
               "--config", config_file, "--seeds", "0,1",
               "--variants", "vanilla,gmm_constrained",
               "--joint-epochs", "1", "--dspn-epochs", "1")
    assert code == 0
    summary = json.loads((out / "summary.json").read_text())
    assert set(summary) == {"vanilla", "gmm_constrained"}
    for variant, metrics_ in summary.items():
        assert metrics_["ic50_pearson"]["n"] == 2
        assert "mean" in metrics_["ic50_pearson"]
        assert "std" in metrics_["ic50_pearson"]
    assert (out / "summary.csv").exists()
    assert (out / "vanilla-seed0" / "report_test.json").exists()


def test_experiment_cell_is_a_train_run_directory(tmp_path, data_dir,
                                                  config_file):
    grid, solo = tmp_path / "grid", tmp_path / "solo"
    flags = ("--data", data_dir, "--config", config_file,
             "--joint-epochs", "1", "--dspn-epochs", "1")
    assert run("experiment", *flags, "--out", grid, "--seeds", "2",
               "--variants", "gmm_unconstrained") == 0
    assert run("train", *flags, "--out", solo, "--seed", "2",
               "--variant", "gmm_unconstrained") == 0
    cell = grid / "gmm_unconstrained-seed2"
    assert sorted(p.name for p in cell.iterdir()) == sorted(
        [*(p.name for p in solo.iterdir()), "report_test.json"])
    for name in ("checkpoint.bin", "report_val.json", "config_echo.json"):
        assert (cell / name).read_bytes() == (solo / name).read_bytes(), name
    # the first line of a run log holds its wall-clock time
    cell_log, solo_log = ((d / "runlog.jsonl").read_bytes().split(b"\n", 1)
                          for d in (cell, solo))
    assert cell_log[1] == solo_log[1]


def test_aborted_experiment_cell_keeps_its_aborted_files(tmp_path, data_dir,
                                                         config_file, capsys):
    config = json.loads(config_file.read_text())
    config["schedule"]["lr_joint"] = 1e12
    cfg = tmp_path / "diverge.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "grid"
    capsys.readouterr()
    assert run("experiment", "--data", data_dir, "--out", out, "--config", cfg,
               "--seeds", "1", "--variants", "gmm_constrained") == 3
    assert "numeric failure: joint step 2 diverged" in capsys.readouterr().err
    cell = out / "gmm_constrained-seed1"
    assert sorted(p.name for p in cell.iterdir()) == [
        "checkpoint_last_good.ABORTED.bin", "runlog.ABORTED.jsonl"]
    assert load_checkpoint(cell / "checkpoint_last_good.ABORTED.bin").seed == 1
    assert not (out / "summary.json").exists()


# ---------------------------------------------------------------------------
# config precedence / seeds / exit codes
# ---------------------------------------------------------------------------

def test_config_precedence_three_layers(tmp_path, data_dir):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "seed": 5,
        "model": SMALL_MODEL,
        "schedule": {"joint_epochs": 1, "dspn_epochs": 1, "batch_size": 32},
        "split": {"n_val_cells": 4, "n_test_cells": 4},
    }))

    def echo_seed(out):
        return json.loads((out / "config_echo.json").read_text())["seed"]

    # default layer
    out0 = tmp_path / "r0"
    assert run("train", "--data", data_dir, "--out", out0, "--variant",
               "vanilla", "--joint-epochs", "1", "--dspn-epochs", "1",
               "--n-val-cells", "4", "--n-test-cells", "4") == 0
    assert echo_seed(out0) == 0
    # config layer
    out1 = tmp_path / "r1"
    assert run("train", "--data", data_dir, "--out", out1, "--config", cfg,
               "--variant", "vanilla") == 0
    assert echo_seed(out1) == 5
    # flag layer wins
    out2 = tmp_path / "r2"
    assert run("train", "--data", data_dir, "--out", out2, "--config", cfg,
               "--variant", "vanilla", "--seed", "7") == 0
    assert echo_seed(out2) == 7


def test_outputs_confined_to_run_dir(tmp_path, data_dir, config_file,
                                     monkeypatch):
    workdir = tmp_path / "cwd"
    workdir.mkdir()
    monkeypatch.chdir(workdir)
    out = tmp_path / "confined"
    assert run("train", "--data", data_dir, "--out", out, "--config",
               config_file, "--seed", "1", "--variant", "vanilla",
               "--joint-epochs", "1", "--dspn-epochs", "1") == 0
    assert list(workdir.iterdir()) == []


def test_run_root_env_default(tmp_path, data_dir, monkeypatch):
    monkeypatch.setenv("VADEERS_RUN_ROOT", str(tmp_path / "root"))
    assert run("synth", "--seed", "0", "--n-drugs", "10", "--n-profiled", "5",
               "--n-cells", "8") == 0
    assert (tmp_path / "root" / "synth-seed0" / "manifest.json").exists()


def test_usage_error_exit_1():
    assert run("train") == 1  # missing required --data


def test_unknown_command_exit_1():
    assert run("frobnicate") == 1


def test_missing_data_dir_exit_2(tmp_path):
    assert run("train", "--data", tmp_path / "nope", "--out",
               tmp_path / "o") == 2


@pytest.mark.parametrize("section, key", [
    ("schedule", "seed"), ("schedule", "total_epochs"), ("split", "seed"),
    ("model", "prior_variant"),
])
def test_run_owned_config_keys_exit_2(tmp_path, data_dir, capsys, section,
                                      key):
    # a value of the field's type: the key is unknown, not mistyped
    cfg = tmp_path / "owned.json"
    value = "vanilla" if key == "prior_variant" else 1
    cfg.write_text(json.dumps({section: {key: value}}))
    capsys.readouterr()
    assert run("train", "--data", data_dir, "--out", tmp_path / "o",
               "--config", cfg) == 2
    assert (f"section {section!r}: unknown key {key!r}"
            in capsys.readouterr().err)
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("argv", [
    ("synth", "--seed=-1"),
    ("train", "--data", "{unread}", "--seed=-1"),
    ("generate", "--checkpoint", "{unread}", "--seed=-1"),
    ("evaluate", "--checkpoint", "{unread}", "--data", "{unread}",
     "--seed=-1"),
    ("experiment", "--data", "{unread}", "--seeds=2,-1"),
], ids=["synth", "train", "generate", "evaluate", "experiment"])
def test_negative_seed_is_a_usage_error(tmp_path, capsys, argv):
    # the paths do not exist: the seed is refused before anything is read
    argv = [a.format(unread=tmp_path / "unread") for a in argv]
    capsys.readouterr()
    assert run(*argv, "--out", tmp_path / "o") == 1
    captured = capsys.readouterr()
    assert "Traceback" not in captured.out + captured.err
    assert "--seed" in captured.err, captured.err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command, records", [
    ("synth", (SynthSpec,)),
    ("train", (ModelConfig, TrainSchedule, SplitSpec, LossWeights)),
    ("experiment", (ModelConfig, TrainSchedule, SplitSpec, LossWeights)),
])
def test_each_record_flag_names_a_field_of_one_record(command, records):
    # a record flag reaches every record with a field of its name
    run_keys = {"config_path", "data_dir", "out", "seed", "seeds", "scale",
                "variant", "variants"}
    params = [p for p in vadeers.cli.cli.commands[command].params
              if p.name not in run_keys]
    assert params
    for param in params:
        owners = [cls.__name__ for cls in records
                  if param.name in {f.name for f in fields(cls)}]
        assert len(owners) == 1, (param.opts, owners)


def test_bad_config_key_exit_2(tmp_path, data_dir):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"schedule": {"bogus_knob": 1}}))
    assert run("train", "--data", data_dir, "--out", tmp_path / "o",
               "--config", cfg) == 2


@pytest.mark.parametrize("config, argv, code, names", [
    ([1, 2], (), 2, ["bad.json"]),
    ({"model": {"latent_dim": "3"}}, (), 2, ["'model'", "'latent_dim'"]),
    ({"weights": {"prior": "x"}}, (), 2, ["'weights'", "'prior'"]),
    ({"model": {"dspn_dims": 5}}, (), 2, ["'model'", "'dspn_dims'"]),
    ({"split": {"n_val_cells": 2.5}}, (), 2, ["'split'", "'n_val_cells'"]),
    ({"schedule": 3}, (), 2, ["'schedule'"]),
    ({"seed": "x"}, (), 2, ["'seed'"]),
    (None, ("experiment", "--seeds", "a"), 1, ["--seeds"]),
    # in range for their type but not for their field: exit 2 from a
    # config file, 1 from a flag
    ({"model": {"latent_dim": 0}}, (), 2, ["'model'", "'latent_dim'"]),
    ({"schedule": {"batch_size": 0}}, (), 2, ["'schedule'", "'batch_size'"]),
    ({"weights": {"prior": -1.0}}, (), 2, ["'weights'", "'prior'"]),
    ({"split": {"n_val_cells": -1}}, (), 2, ["'split'", "'n_val_cells'"]),
    ({"synth": {"n_profiled": 0}}, ("synth",), 2, ["'synth'", "'n_profiled'"]),
    (None, ("train", "--n-val-cells", "-1"), 1, ["n_val_cells"]),
    (None, ("train", "--latent-dim", "0"), 1, ["latent_dim"]),
    # exit 1 or a silent paper scale before config errors named the file
    ({"variant": "bogus"}, (), 2, ["bad.json", "'variant'"]),
    ({"scale": "huge"}, ("synth",), 2, ["bad.json", "'scale'"]),
    # no one key at fault: the section is
    ({"model": {"latent_dim": 0, "smiles_dim": 0}}, (), 2,
     ["bad.json", "'model'"]),
    # train always reports on val pairs, and experiment on test pairs, so
    # both fail before a run trains, not after
    ({"split": {"n_val_cells": 0, "n_test_cells": 4}}, (), 2,
     ["bad.json", "'split'", "'n_val_cells'"]),
    (None, ("train", "--n-val-cells", "0", "--n-test-cells", "4"), 1,
     ["n_val_cells"]),
    ({"split": {"n_val_cells": 4, "n_test_cells": 0},
      "schedule": {"joint_epochs": 1, "dspn_epochs": 1}}, ("experiment",), 2,
     ["bad.json", "'split'", "'n_test_cells'"]),
    # the rules of each config record, one key at fault
    ({"synth": {"observance": 0.0}}, ("synth",), 2,
     ["bad.json", "'synth'", "'observance'"]),
    ({"synth": {"n_binary_features": 20}}, ("synth",), 2,
     ["bad.json", "'synth'", "'n_binary_features'"]),
    ({"synth": {"n_clusters": 0}}, ("synth",), 2,
     ["bad.json", "'synth'", "'n_clusters'"]),
    ({"model": {"n_guiding_labels": 4}}, (), 2,
     ["bad.json", "'model'", "'n_guiding_labels'"]),
    ({"model": {"dspn_dropout": 1.0}}, (), 2,
     ["bad.json", "'model'", "'dspn_dropout'"]),
    ({"model": {"dspn_input": "z"}}, (), 2,
     ["bad.json", "'model'", "'dspn_input'"]),
    ({"model": {"decoder_dims": [8, 0]}}, (), 2,
     ["bad.json", "'model'", "'decoder_dims'"]),
    ({"schedule": {"joint_epochs": -1}}, (), 2,
     ["bad.json", "'schedule'", "'joint_epochs'"]),
    # errors of the command line itself
    (None, ("train", "--config", "no-such-config.json"), 2,
     ["config file no-such-config.json does not exist"]),
    # a flag value is a usage error, raised before any data is read
    (None, ("experiment", "--variants", "vanilla,bogus"), 1,
     ["--variants", "'vanilla,bogus' is not a comma-separated list of "
      "distinct names of vanilla, gmm_constrained, gmm_unconstrained"]),
    (None, ("experiment", "--seeds", ","), 1,
     ["--seeds", "',' is not a comma-separated list of distinct integers"]),
    (None, ("experiment", "--variants", " "), 1, ["--variants", "' ' is not"]),
    (None, ("experiment", "--seeds", "1,0,1"), 1, ["--seeds", "'1,0,1' is not"]),
    (None, ("experiment", "--variants", "vanilla, vanilla"), 1,
     ["--variants", "'vanilla, vanilla' is not"]),
    # every top-level key is checked, by every command that reads the file
    ({"bogus": 1}, (), 2, ["bad.json: unknown key 'bogus'"]),
    ({"shedule": {"joint_epochs": 1, "dspn_epochs": 1}}, (), 2,
     ["bad.json: unknown key 'shedule'"]),
    ({"seed": -3}, (), 2, ["bad.json, key 'seed': seed must be >= 0"]),
    ({"seed": -3}, ("synth",), 2, ["bad.json, key 'seed': seed must be >= 0"]),
    ({"model": 0}, ("synth",), 2,
     ["bad.json, key 'model': 0 is not of type dict | None"]),
    ({"variant": "bogus"}, ("synth",), 2, ["bad.json, key 'variant'"]),
    ({"bogus": 1}, ("experiment",), 2, ["bad.json: unknown key 'bogus'"]),
    # a flag does not hide a bad value of the file
    ({"seed": -3}, ("train", "--seed", "1"), 2,
     ["bad.json, key 'seed': seed must be >= 0"]),
    ({"variant": "bogus"}, ("train", "--variant", "vanilla"), 2,
     ["bad.json, key 'variant'"]),
    # the grid sets each cell's seed and variant
    ({"seed": 3}, ("experiment",), 2, ["bad.json: unknown key 'seed'"]),
    ({"variant": "vanilla"}, ("experiment",), 2,
     ["bad.json: unknown key 'variant'"]),
])
def test_malformed_config_or_seeds_no_traceback(tmp_path, data_dir, capsys,
                                                config, argv, code, names):
    cfg = tmp_path / "bad.json"
    if config is not None:
        cfg.write_text(json.dumps(config))
        argv = (*(argv or ("train",)), "--config", cfg)
    if argv[0] != "synth":
        argv = (*argv, "--data", data_dir)
    capsys.readouterr()
    assert run(*argv, "--out", tmp_path / "o") == code
    captured = capsys.readouterr()
    out = captured.out + captured.err
    assert "Traceback" not in out
    assert all(name in out for name in names), out
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("name, text", [
    ("manifest.json", b'{"format_version": 1,'),
    ("manifest.json", b'{"format_version": 1, "provenance": "caf\xe9"}'),
    ("manifest.json", b"[1]"),
    ("config.json", b'{"caf\xe9": 1}'),
    ("manifest.json", b"[" * 100_000),
    ("config.json", b"[" * 100_000),
], ids=["truncated_manifest", "non_utf8_manifest", "list_manifest",
        "non_utf8_config", "deep_manifest", "deep_config"])
def test_unreadable_manifest_or_config_exit_2(tmp_path, data_dir, capsys,
                                              name, text):
    data = tmp_path / "data"
    shutil.copytree(data_dir, data)
    cfg = tmp_path / "config.json"
    cfg.write_text("{}")
    bad = cfg if name == "config.json" else data / name
    bad.write_bytes(text)
    capsys.readouterr()
    assert run("train", "--data", data, "--config", cfg,
               "--out", tmp_path / "o") == 2
    captured = capsys.readouterr()
    assert "Traceback" not in captured.out + captured.err
    assert captured.err.startswith("data error: ")
    assert str(bad) in captured.err, captured.err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("key, value", [
    ("n_pairs", None),
    ("smiles_dim", "32"),
    ("n_drugs", None),
    ("ip_dim", True),
    ("n_cells", -1),
], ids=["missing", "string", "null", "bool", "negative"])
def test_malformed_manifest_count_exit_2(tmp_path, data_dir, capsys, key,
                                         value):
    data = tmp_path / "data"
    shutil.copytree(data_dir, data)
    manifest = json.loads((data / "manifest.json").read_text())
    if value is None and key == "n_pairs":
        del manifest[key]
    else:
        manifest[key] = value
    (data / "manifest.json").write_text(json.dumps(manifest))
    capsys.readouterr()
    assert run("train", "--data", data, "--out", tmp_path / "o") == 2
    captured = capsys.readouterr()
    assert "Traceback" not in captured.out + captured.err
    assert str(data / "manifest.json") in captured.err, captured.err
    assert repr(key) in captured.err, captured.err
    assert not (tmp_path / "o").exists()


def _header_only(name, count):
    """An edit leaving only the header of ``name``, and the manifest's
    ``count`` at 0."""
    def edit(data):
        path = data / name
        path.write_text(path.read_text().splitlines()[0] + "\n")
        manifest = json.loads((data / "manifest.json").read_text())
        (data / "manifest.json").write_text(json.dumps({**manifest, count: 0}))
    return edit


def _pairs_on_held_out_cells_only(data):
    split = split_by_cell_line(load_csv(data), SplitSpec(
        n_val_cells=4, n_test_cells=4, seed=0))
    held_out = {*split.val_cells, *split.test_cells}
    header, *rows = (data / "ic50.csv").read_text().splitlines()
    kept = [row for row in rows if row.split(",")[1] in held_out]
    (data / "ic50.csv").write_text("\n".join([header, *kept]) + "\n")
    manifest = json.loads((data / "manifest.json").read_text())
    (data / "manifest.json").write_text(
        json.dumps({**manifest, "n_pairs": len(kept)}))


@pytest.mark.parametrize("edit, message", [
    (lambda data: (data / "cells.csv").unlink(),
     "missing file {data}/cells.csv"),
    (_header_only("cells.csv", "n_cells"),
     "cells.csv: no rows; a dataset needs at least one drug and one cell "
     "line"),
    (_header_only("profiles.csv", "n_profiled"),
     "profiles.csv: no rows; the dataset has no inhibition profiles"),
    (_pairs_on_held_out_cells_only,
     "ic50.csv: no pairs on the training cell lines to fit the scaler on"),
], ids=["missing_file", "no_cells", "no_profiles", "no_train_pairs"])
def test_unusable_dataset_exit_2(tmp_path, data_dir, config_file, capsys,
                                 edit, message):
    data = tmp_path / "data"
    shutil.copytree(data_dir, data)
    edit(data)
    capsys.readouterr()
    assert run("train", "--data", data, "--config", config_file,
               "--seed", "0", "--out", tmp_path / "o") == 2
    captured = capsys.readouterr()
    assert "Traceback" not in captured.out + captured.err
    assert captured.err == f"data error: {message.format(data=data)}\n"
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("seed, partition, pairs", [
    (0, "val", 1), (3, "test", 0)])
def test_held_out_partition_too_small_to_report_on_exit_2(
        tmp_path, capsys, seed, partition, pairs):
    # 16 pairs over 20 cell lines: one held-out cell line holds 0 or 1
    cfg = tmp_path / "thin.json"
    cfg.write_text(json.dumps({
        "synth": {"n_drugs": 24, "n_profiled": 12, "n_cells": 20,
                  "observance": 0.05},
        "split": {"n_val_cells": 1, "n_test_cells": 1}}))
    data = tmp_path / "data"
    assert run("synth", "--out", data, "--seed", "0", "--config", cfg) == 0
    capsys.readouterr()
    assert run("train", "--data", data, "--out", tmp_path / "o", "--config",
               cfg, "--variant", "vanilla", "--seed", seed) == 2
    assert capsys.readouterr().err == (
        f"data error: ic50.csv: the {partition} partition holds {pairs} "
        f"observed pair(s) on 1 cell line(s); a report on it needs at "
        f"least 2\n")
    assert not (tmp_path / "o").exists()


def test_unwritable_output_is_an_io_error_exit_2(tmp_path, capsys):
    blocker = tmp_path / "blocker"
    blocker.write_text("a file, not a directory")
    capsys.readouterr()
    assert run("synth", "--out", blocker / "synth", "--n-drugs", "10",
               "--n-profiled", "5", "--n-cells", "8") == 2
    captured = capsys.readouterr()
    assert "Traceback" not in captured.out + captured.err
    assert captured.err.startswith("i/o error: ")
    assert str(blocker / "synth") in captured.err, captured.err


def test_interrupt_exits_1_without_traceback(tmp_path, data_dir, capsys,
                                             monkeypatch):
    def interrupted(directory):
        raise KeyboardInterrupt

    monkeypatch.setattr(vadeers.cli, "load_csv", interrupted)
    capsys.readouterr()
    assert run("train", "--data", data_dir, "--out", tmp_path / "o") == 1
    captured = capsys.readouterr()
    assert "Traceback" not in captured.out + captured.err
    assert not (tmp_path / "o").exists()


def test_divergent_train_exit_3_without_numpy_warnings(tmp_path, data_dir,
                                                       config_file, capsys):
    config = json.loads(config_file.read_text())
    config["schedule"]["lr_joint"] = 1e12
    cfg = tmp_path / "diverge.json"
    cfg.write_text(json.dumps(config))
    capsys.readouterr()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = run("train", "--data", data_dir, "--out", tmp_path / "run",
                   "--config", cfg, "--seed", "1",
                   "--variant", "gmm_constrained")
    err = capsys.readouterr().err
    assert code == 3
    assert "numeric failure: joint step 2 diverged" in err, err
    assert "RuntimeWarning" not in err
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


@pytest.mark.parametrize("component", [[], ["--component", "0"]],
                         ids=["mixture", "component"])
def test_overflowing_generate_exit_3_without_numpy_warnings(
        tmp_path, run_dir, capsys, component):
    # log-scales of 88 are finite in float32, the draws they scale are not
    ckpt = load_checkpoint(run_dir / "checkpoint.bin")
    params = dict(ckpt.model.params)
    params["gmm.log_scales"] = np.full_like(params["gmm.log_scales"], 88.0)
    config = replace(ckpt.model.config, prior_variant="gmm_unconstrained")
    path = tmp_path / "wide.bin"
    save_checkpoint(replace(ckpt, model=VadeersModel(config, params)), path)
    capsys.readouterr()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = run("generate", "--checkpoint", path, *component, "--n", "20",
                   "--out", tmp_path / "g.csv")
    err = capsys.readouterr().err
    assert code == 3
    assert "numeric failure: non-finite activations after layer " \
           "dvae.dec_s.0" in err, err
    assert "RuntimeWarning" not in err
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert not (tmp_path / "g.csv").exists()


def test_aborted_train_saves_a_complete_checkpoint(tmp_path, data_dir,
                                                   config_file, run_dir):
    # run_dir trained the same data with the same config and seed, so its
    # scaler, split and guiding labels are the aborted run's too
    config = json.loads(config_file.read_text())
    config["schedule"]["lr_joint"] = 1e12
    cfg = tmp_path / "diverge.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "run"
    assert run("train", "--data", data_dir, "--out", out, "--config", cfg,
               "--seed", "1", "--variant", "gmm_constrained") == 3
    path = out / "checkpoint_last_good.ABORTED.bin"
    aborted = load_checkpoint(path)
    done = load_checkpoint(run_dir / "checkpoint.bin")
    assert aborted.scaler.to_dict() == done.scaler.to_dict()
    assert aborted.split_cells == done.split_cells
    assert aborted.guiding_labels == done.guiding_labels
    assert aborted.guiding_labels and aborted.seed == done.seed == 1

    # predictions are on the natural scale of the training data
    dataset = load_csv(data_dir)
    demb, cfeat = dataset.embeddings[:4], dataset.features[:4]
    dpath, cpath = tmp_path / "drugs_in.csv", tmp_path / "cells_in.csv"
    _write_feature_csv(dpath, "e", dataset.drug_ids[:4], demb)
    _write_feature_csv(cpath, "f", dataset.cell_ids[:4], cfeat)
    preds = tmp_path / "preds.csv"
    assert run("predict", "--checkpoint", path, "--drugs", dpath,
               "--cells", cpath, "--out", preds) == 0
    got = [float(line.split(",")[2])
           for line in preds.read_text().splitlines()[1:]]
    model, scaler = aborted.model, aborted.scaler
    mu = model.drug_latent_means(scaler.transform_embedding(demb))
    lat = model.cell_latents(scaler.transform_cell(cfeat))
    assert np.array_equal(np.array(got), scaler.inverse_ic50(
        model.predict_sensitivity(mu, lat)))


# ---------------------------------------------------------------------------
# values too large to standardize
# ---------------------------------------------------------------------------

OVERFLOW_TRAIN = ("--joint-epochs", "1", "--dspn-epochs", "1",
                  "--n-val-cells", "25", "--n-test-cells", "25")


@pytest.fixture(scope="module")
def desk_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("desk") / "synth"
    assert run("synth", "--scale", "desk", "--seed", "3", "--out", out) == 0
    return out


def _set_column(path, column, value):
    """Rewrite ``column`` of the CSV file ``path``: 0-based data row ``i``
    takes ``value(i)``, or keeps its value where that is None."""
    header, *rows = path.read_text().splitlines()
    j = header.split(",").index(column)
    for i, row in enumerate(rows):
        if value(i) is not None:
            cells = row.split(",")
            cells[j] = repr(value(i))
            rows[i] = ",".join(cells)
    path.write_text("\n".join([header, *rows]) + "\n")


def _exit_2_quietly(capsys, *argv) -> str:
    """The stderr of a run that exits 2 with no traceback and no numpy
    warning."""
    capsys.readouterr()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = run(*argv)
    captured = capsys.readouterr()
    assert code == 2, captured.err
    assert "Traceback" not in captured.out + captured.err
    assert "RuntimeWarning" not in captured.out + captured.err
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    return captured.err


@pytest.mark.parametrize("name, column, value", [
    ("drugs.csv", "e0", lambda i: 1.7e308 if i % 7 else -1e300),
    ("drugs.csv", "e0", lambda i: (-1) ** i * 1.7e308),
    ("ic50.csv", "ic50", lambda i: 1.7e308 if i % 2 else None),
    ("profiles.csv", "k0", lambda i: (-1) ** i * 1.7e308),
], ids=["mean_overflows", "std_overflows", "sensitivity_mean_overflows",
        "profile_std_overflows"])
def test_train_on_values_too_large_to_standardize_exit_2(
        tmp_path, desk_dir, capsys, name, column, value):
    data = tmp_path / "data"
    shutil.copytree(desk_dir, data)
    _set_column(data / name, column, value)
    out = tmp_path / "run"
    err = _exit_2_quietly(capsys, "train", "--data", data, "--out", out,
                          *OVERFLOW_TRAIN)
    assert err == (f"data error: {name}: column {column}: the mean or "
                   f"standard deviation overflows; the values are too large "
                   f"to standardize\n")
    assert not out.exists()


def test_predict_input_that_overflows_when_standardized_exit_2(
        tmp_path, desk_dir, capsys):
    # a near-constant training column has a tiny std: 1e300 over it
    # overflows, and 1e30 over it is past float32's range, which the model
    # reads its input in
    data = tmp_path / "data"
    shutil.copytree(desk_dir, data)
    _set_column(data / "drugs.csv", "e0", lambda i: 1 + 1e-13 * i)
    assert run("train", "--data", data, "--out", tmp_path / "run",
               *OVERFLOW_TRAIN) == 0
    dataset = load_csv(data)
    cpath = tmp_path / "cells_in.csv"
    _write_feature_csv(cpath, "f", dataset.cell_ids[:3], dataset.features[:3])
    for value in (1e300, 1e30):
        demb = dataset.embeddings[:3].copy()
        demb[1, 0] = value
        dpath = tmp_path / "drugs_in.csv"
        _write_feature_csv(dpath, "e", dataset.drug_ids[:3], demb)
        out = tmp_path / "preds.csv"
        err = _exit_2_quietly(capsys, "predict", "--checkpoint",
                              tmp_path / "run" / "checkpoint.bin", "--drugs",
                              dpath, "--cells", cpath, "--out", out)
        assert err == (f"data error: {dpath}: row 2, column e0: non-finite "
                       f"value after standardization\n"), value
        assert not out.exists()


def test_train_on_a_held_out_value_past_float32_when_standardized_exit_2(
        tmp_path, desk_dir, capsys):
    # the training cells leave f0 near-constant, so a held-out cell's 1e30
    # standardizes to about 1e41: finite in float64, past float32's range
    data = tmp_path / "data"
    shutil.copytree(desk_dir, data)
    dataset = load_csv(data)
    split = split_by_cell_line(dataset, SplitSpec(
        n_val_cells=25, n_test_cells=25, seed=0))
    r = list(dataset.cell_ids).index(split.val_cells[0])
    _set_column(data / "cells.csv", "f0",
                lambda i: 1e30 if i == r else 1 + 1e-13 * i)
    out = tmp_path / "run"
    err = _exit_2_quietly(capsys, "train", "--data", data, "--out", out,
                          *OVERFLOW_TRAIN)
    assert err == (f"data error: cells.csv: row {r + 1}, column f0: "
                   f"non-finite value after standardization\n")
    assert not out.exists()


def test_train_on_constant_sensitivities_reports_null_pearson(
        tmp_path, desk_dir):
    # the val Pearson of a constant target is undefined, not an error
    data = tmp_path / "data"
    shutil.copytree(desk_dir, data)
    _set_column(data / "ic50.csv", "ic50", lambda i: 1.5)
    out = tmp_path / "run"
    assert run("train", "--data", data, "--out", out, "--variant", "vanilla",
               *OVERFLOW_TRAIN) == 0
    assert sorted(p.name for p in out.iterdir()) == [
        "checkpoint.bin", "config_echo.json", "report_val.json",
        "runlog.jsonl"]
    report = json.loads((out / "report_val.json").read_text())
    assert report["ic50_pearson"] is None


def test_non_finite_gradient_aborts_naming_the_parameter(tmp_path, desk_dir,
                                                         capsys):
    # every loss is finite, but a float32 gradient of the 1e300-weighted
    # sensitivity term is not; training must not go on with frozen or NaN
    # parameters
    cfg = tmp_path / "heavy.json"
    cfg.write_text(json.dumps({"weights": {"dspn": 1e300},
                               "schedule": {"joint_epochs": 2,
                                            "dspn_epochs": 1}}))
    out = tmp_path / "run"
    capsys.readouterr()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = run("train", "--data", desk_dir, "--out", out,
                   "--config", cfg, "--variant", "gmm_constrained",
                   "--seed", "5", "--n-val-cells", "25",
                   "--n-test-cells", "25")
    captured = capsys.readouterr()
    assert code == 3, captured.err
    assert captured.err == ("numeric failure: joint step 1 gradient "
                            "non-finite in parameter cae.enc.0.W\n")
    assert "RuntimeWarning" not in captured.out + captured.err
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert sorted(p.name for p in out.iterdir()) == [
        "checkpoint_last_good.ABORTED.bin", "runlog.ABORTED.jsonl"]
    events = [json.loads(line) for line in
              (out / "runlog.ABORTED.jsonl").read_text().splitlines()]
    assert events[-1]["reason"] == ("joint step 1 gradient non-finite in "
                                    "parameter cae.enc.0.W")


def test_gradient_beyond_the_moment_range_aborts_naming_the_parameter(
        tmp_path, desk_dir, capsys):
    # every gradient of the 1e30-weighted sensitivity term is finite, but
    # some square past float32's range: Adam's float32 second moment would
    # be inf and its parameter would stop silently, so the run aborts
    cfg = tmp_path / "heavy.json"
    cfg.write_text(json.dumps({"weights": {"dspn": 1e30},
                               "schedule": {"joint_epochs": 2,
                                            "dspn_epochs": 1}}))
    out = tmp_path / "run"
    capsys.readouterr()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = run("train", "--data", desk_dir, "--out", out,
                   "--config", cfg, "--variant", "gmm_constrained",
                   "--seed", "5", "--n-val-cells", "25",
                   "--n-test-cells", "25")
    captured = capsys.readouterr()
    reason = ("joint step 1 gradient beyond 1.84e+19 in magnitude in "
              "parameter cae.enc.0.W")
    assert code == 3, captured.err
    assert captured.err == f"numeric failure: {reason}\n"
    for text in ("RuntimeWarning", "Traceback"):
        assert text not in captured.out + captured.err
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    events = [json.loads(line) for line in
              (out / "runlog.ABORTED.jsonl").read_text().splitlines()]
    assert events[-1] == {"record": "event", "event": "aborted",
                          "reason": reason}


def test_the_cli_sets_one_blas_thread_and_importing_vadeers_sets_none():
    # in a fresh process, where the environment asks for two threads
    code = ("from vadeers.nnkernel import parts\n"
            "import vadeers.cli\n"
            "before = parts._blas_threads()\n"
            "vadeers.cli.main(['synth', '--help'])\n"
            "print('threads', before, parts._blas_threads())\n")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True,
                          env={**os.environ, "OPENBLAS_NUM_THREADS": "2"})
    before, after = done.stdout.splitlines()[-1].split()[1:]
    if before != "2":
        pytest.skip(f"OpenBLAS started with {before} threads, not 2")
    assert after == "1"
