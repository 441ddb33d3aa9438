"""CLI tests: every subcommand end to end at tiny scale, option
precedence across the three layers, seed reproducibility, and the exit
code contract (0 ok, 1 usage, 2 data error)."""

import json
import shutil
import time
import warnings
from dataclasses import asdict

import numpy as np
import pytest

from vadeers.cli import main
from vadeers.data import load_csv, load_manifest
from vadeers.metrics import MetricReport
from vadeers.model import ModelConfig, VadeersModel
from vadeers.training import (
    CHECKPOINT_MAGIC,
    load_checkpoint,
    save_checkpoint,
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
    from vadeers.training import Checkpoint, save_checkpoint

    tv = trained_variants["gmm_constrained"]
    dataset, _ = desk_data
    ckpt_path = tmp_path / "trained.bin"
    save_checkpoint(Checkpoint(model=tv.result.model, scaler=tv.result.scaler,
                               guiding_labels=tv.labels), ckpt_path)
    rows, comps = [], []
    for k in range(3):
        out = tmp_path / f"gen{k}.csv"
        assert run("generate", "--checkpoint", ckpt_path, "--component", k,
                   "--n", "100", "--out", out, "--seed", k) == 0
        lines = out.read_text().splitlines()[1:]
        smiles_dim = tv.result.model.config.smiles_dim
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
], ids=["unknown_key", "missing_key", "scaler_missing_field",
        "scaler_unknown_field", "scaler_std_width", "scaler_mean_width",
        "scaler_zero_std", "scaler_string_number", "scaler_int_binary",
        "labels_list", "labels_string_value", "split_missing_part",
        "split_int_id", "label_99", "label_minus_1", "label_n_guiding_labels",
        "config_float_latent_dim", "config_float_n_components",
        "config_float_dspn_dims"])
def test_checkpoint_config_key_defect_exit_2(tmp_path, run_dir, capsys,
                                             mutate, key):
    path = tmp_path / "bad.bin"
    _rewrite_header(run_dir / "checkpoint.bin", path, mutate)
    capsys.readouterr()
    assert run("generate", "--checkpoint", path, "--n", "5",
               "--out", tmp_path / "g.csv") == 2
    err = capsys.readouterr().err
    assert "bad.bin" in err and repr(key) in err


@pytest.mark.parametrize("header", [[1], None, 3], ids=["list", "null", "int"])
@pytest.mark.parametrize("command", ["generate", "evaluate", "predict"])
def test_checkpoint_header_not_an_object_exit_2(tmp_path, data_dir, capsys,
                                                command, header):
    path = tmp_path / "bad.bin"
    blob = json.dumps(header).encode()
    path.write_bytes(CHECKPOINT_MAGIC + len(blob).to_bytes(8, "little") + blob)
    dpath, cpath = tmp_path / "drugs_in.csv", tmp_path / "cells_in.csv"
    _write_feature_csv(dpath, "e", ["X0"], np.zeros((1, 32)))
    _write_feature_csv(cpath, "f", ["C0"], np.zeros((1, 20)))
    args = {"generate": ["--n", "5"], "evaluate": ["--data", data_dir],
            "predict": ["--drugs", dpath, "--cells", cpath]}[command]
    capsys.readouterr()
    assert run(command, "--checkpoint", path, *args,
               "--out", tmp_path / "out") == 2
    err = capsys.readouterr().err
    assert "bad.bin: header is not a JSON object" in err
    assert "Traceback" not in err


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
    encode = VadeersModel.drug_latent_means

    def counted(self, *args, **kwargs):
        calls.append(1)
        return encode(self, *args, **kwargs)

    monkeypatch.setattr(VadeersModel, "drug_latent_means", counted)
    out = tmp_path / "eval"
    assert run("evaluate", "--checkpoint", run_dir / "checkpoint.bin",
               "--data", data_dir, "--out", out, "--n-gen", "20") == 0
    assert (out / "latent_pca.csv").exists()
    assert len(calls) == 1


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
])
def test_run_owned_config_keys_exit_2(tmp_path, data_dir, section, key):
    cfg = tmp_path / "owned.json"
    cfg.write_text(json.dumps({section: {key: 1}}))
    assert run("train", "--data", data_dir, "--out", tmp_path / "o",
               "--config", cfg) == 2


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
], ids=["truncated_manifest", "non_utf8_manifest", "list_manifest",
        "non_utf8_config"])
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
