"""Command-line entry point.

Subcommands: synth, train, generate, predict, evaluate, experiment.
Option precedence is flag > config file > default; every command honors
--seed and is bit-reproducible for equal invocations.  The default
output root is $VADEERS_RUN_ROOT (falling back to the current
directory).  Exit codes: 0 ok, 1 usage, 2 data error, 3 numeric failure.
"""

from __future__ import annotations

import csv
import inspect
import json
import os
import sys
import typing
from dataclasses import asdict, fields
from pathlib import Path

import click
import numpy as np

from . import gmm
from .data import (
    DESK_SPEC,
    Dataset,
    SynthSpec,
    apply_scaler,
    atomic_open,
    derive_guiding_labels,
    generate_synthetic,
    json_fits,
    load_csv,
    read_feature_csv,
    save_csv,
    type_name,
    write_table,
)
from .exceptions import (
    CheckpointError,
    ContractViolation,
    DataError,
    NumericError,
    VadeersError,
)
from .metrics import evaluate, generate_profiles, pca2
from .model import LossWeights, ModelConfig, PRIOR_VARIANTS
from .training import (
    Checkpoint,
    Split,
    SplitSpec,
    TrainResult,
    TrainingAborted,
    TrainSchedule,
    check_compatible,
    load_checkpoint,
    partition_by_cells,
    save_checkpoint,
    train,
)


def _load_config(path: str | None) -> dict:
    if not path:
        return {}
    p = Path(path)
    if not p.exists():
        raise DataError(f"config file {p} does not exist")
    with open(p, encoding="utf-8") as fh:
        try:
            config = json.load(fh)
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise DataError(f"config file {p}: invalid JSON: {exc}") from None
    if not isinstance(config, dict):
        raise DataError(f"config file {p}: the top level must be an object")
    return config


def _configured(cls, defaults: dict, config: dict, section: str,
                flags: dict, **fixed):
    """``cls`` built from flag > config file > default, skipping unset
    (None) flags, and the ``fixed`` values.  The values of the config
    file's ``section`` must have the types of the fields of the
    dataclass ``cls``.  When ``cls`` rejects the values and would accept
    them with one config-file value set back to its default, that value
    is at fault and the error names its section and key."""
    values = config.get(section) or {}
    if not isinstance(values, dict):
        raise DataError(f"config section {section!r} must be an object")
    hints = typing.get_type_hints(cls)
    out = dict(defaults)
    for k, v in values.items():
        if k not in out:
            raise DataError(f"unknown config key {k!r}")
        if not json_fits(v, hints[k]):
            raise DataError(f"config section {section!r}, key {k!r}: "
                            f"{v!r} is not of type {type_name(hints[k])}")
        out[k] = tuple(v) if isinstance(v, list) else v
    for k, v in flags.items():
        if v is not None:
            out[k] = v
    try:
        return cls(**{**out, **fixed})
    except ContractViolation as exc:
        for k in values:
            if flags.get(k) is None and _accepts(cls, {**out, k: defaults[k],
                                                        **fixed}):
                raise DataError(f"config section {section!r}, key {k!r}: "
                                f"{exc}") from None
        raise


def _accepts(cls, values: dict) -> bool:
    try:
        cls(**values)
    except ContractViolation:
        return False
    return True


def _field_defaults(cls, *exclude: str) -> dict:
    """Default of each field of the dataclass ``cls``, except ``exclude``."""
    return {f.name: f.default for f in fields(cls) if f.name not in exclude}


def _pick(config: dict, key: str, flag, default):
    """flag > config file > default for a top-level config key, whose
    value must have the default's type."""
    if flag is not None:
        return flag
    if key in config:
        if not json_fits(config[key], type(default)):
            raise DataError(f"config key {key!r}: {config[key]!r} is not of "
                            f"type {type(default).__name__}")
        return config[key]
    return default


def _out_dir(out: str | None, default_name: str) -> Path:
    if out:
        return Path(out)
    return Path(os.environ.get("VADEERS_RUN_ROOT", ".")) / default_name


@click.group()
def cli():
    """Generative drug-sensitivity recommender toolkit."""


# ---------------------------------------------------------------------------
# synth
# ---------------------------------------------------------------------------

@cli.command()
@click.option("--config", "config_path", type=str, default=None)
@click.option("--out", type=str, default=None)
@click.option("--seed", type=int, default=None)
@click.option("--scale", type=click.Choice(["paper", "desk"]), default=None)
@click.option("--n-drugs", type=int, default=None)
@click.option("--n-profiled", type=int, default=None)
@click.option("--n-cells", type=int, default=None)
@click.option("--observance", type=float, default=None)
def synth(config_path, out, seed, scale, n_drugs, n_profiled, n_cells, observance):
    """Generate a synthetic dataset directory (CSV files + manifest)."""
    config = _load_config(config_path)
    seed = _pick(config, "seed", seed, 0)
    scale = _pick(config, "scale", scale, "desk")
    base = asdict(DESK_SPEC if scale == "desk" else SynthSpec())
    spec = _configured(SynthSpec, base, config, "synth", {
        "n_drugs": n_drugs, "n_profiled": n_profiled,
        "n_cells": n_cells, "observance": observance,
    })
    out_dir = _out_dir(out, f"synth-seed{seed}")
    dataset = generate_synthetic(spec, seed=seed)
    save_csv(dataset, out_dir, seed=seed, generator_spec=spec)
    click.echo(f"wrote {len(dataset.drug_ids)} drugs, "
               f"{len(dataset.cell_ids)} cells, "
               f"{len(dataset.pair_y)} pairs to {out_dir}")


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------

def _run_training(dataset: Dataset, config: dict, variant: str, seed: int,
                  model_flags: dict, schedule_flags: dict,
                  split_flags: dict) -> tuple[TrainResult, ModelConfig, SplitSpec]:
    model_config = _configured(
        ModelConfig,
        {**_field_defaults(ModelConfig), "smiles_dim": dataset.smiles_dim,
         "ip_dim": dataset.ip_dim, "bio_dim": dataset.bio_dim},
        config, "model", model_flags, prior_variant=variant)
    # the run seed and the derived epoch total are not configurable
    schedule = _configured(
        TrainSchedule, _field_defaults(TrainSchedule, "seed", "total_epochs"),
        config, "schedule", schedule_flags, seed=seed)
    split_spec = _configured(SplitSpec, _field_defaults(SplitSpec, "seed"),
                             config, "split", split_flags, seed=seed)
    weights = _configured(LossWeights, _field_defaults(LossWeights), config,
                          "weights", {})
    if model_config.uses_gmm:
        dataset = derive_guiding_labels(
            dataset, n_labels=model_config.n_guiding_labels, seed=seed)
    result = train(dataset, model_config, schedule, weights, split_spec)
    return result, model_config, split_spec


def _write_run_dir(out_dir: Path, result: TrainResult, dataset: Dataset,
                   seed: int) -> dict[str, int]:
    """Write a run's artifacts; returns its guiding-label map."""
    out_dir.mkdir(parents=True, exist_ok=True)
    labels = result.dataset_std.guiding_labels()
    checkpoint = Checkpoint(
        model=result.model,
        scaler=result.scaler,
        guiding_labels=labels or None,
        split_cells={
            "train": result.split.train_cells,
            "val": result.split.val_cells,
            "test": result.split.test_cells,
        },
        seed=seed,
    )
    save_checkpoint(checkpoint, out_dir / "checkpoint.bin")
    result.runlog.export_jsonl(out_dir / "runlog.jsonl")
    report = evaluate(result.model, dataset, result.dataset_std, result.split,
                      result.scaler, labels=labels or None, seed=seed,
                      pairs="val")
    with atomic_open(out_dir / "report_val.json") as fh:
        fh.write(report.to_json() + "\n")
    return labels


@cli.command()
@click.option("--config", "config_path", type=str, default=None)
@click.option("--data", "data_dir", type=str, required=True)
@click.option("--out", type=str, default=None)
@click.option("--seed", type=int, default=None)
@click.option("--variant", type=click.Choice(PRIOR_VARIANTS), default=None)
@click.option("--latent-dim", type=int, default=None)
@click.option("--n-components", type=int, default=None)
@click.option("--n-guiding-labels", type=int, default=None)
@click.option("--joint-epochs", type=int, default=None)
@click.option("--dspn-epochs", type=int, default=None)
@click.option("--batch-size", type=int, default=None)
@click.option("--break-every", "dvae_break_every_steps", type=int, default=None)
@click.option("--break-epochs", "dvae_break_epochs", type=int, default=None)
@click.option("--n-val-cells", type=int, default=None)
@click.option("--n-test-cells", type=int, default=None)
def train_cmd(config_path, data_dir, out, seed, variant, latent_dim,
              n_components, n_guiding_labels, joint_epochs, dspn_epochs,
              batch_size, dvae_break_every_steps, dvae_break_epochs,
              n_val_cells, n_test_cells):
    """Train one prior variant end to end and write a run directory."""
    config = _load_config(config_path)
    seed = _pick(config, "seed", seed, 0)
    variant = _pick(config, "variant", variant,
                    _field_defaults(ModelConfig)["prior_variant"])
    dataset = load_csv(data_dir)
    out_dir = _out_dir(out, f"train-{variant}-seed{seed}")
    try:
        result, model_config, _ = _run_training(
            dataset, config, variant, seed,
            model_flags={"latent_dim": latent_dim, "n_components": n_components,
                         "n_guiding_labels": n_guiding_labels},
            schedule_flags={"joint_epochs": joint_epochs,
                            "dspn_epochs": dspn_epochs,
                            "batch_size": batch_size,
                            "dvae_break_every_steps": dvae_break_every_steps,
                            "dvae_break_epochs": dvae_break_epochs},
            split_flags={"n_val_cells": n_val_cells,
                         "n_test_cells": n_test_cells},
        )
    except TrainingAborted as exc:
        # label the partial artifacts, then surface the numeric failure
        out_dir.mkdir(parents=True, exist_ok=True)
        save_checkpoint(Checkpoint(model=exc.model, seed=seed),
                        out_dir / "checkpoint_last_good.ABORTED.bin")
        exc.runlog.export_jsonl(out_dir / "runlog.ABORTED.jsonl")
        raise
    _write_run_dir(out_dir, result, dataset, seed)
    with atomic_open(out_dir / "config_echo.json") as fh:
        fh.write(json.dumps({"variant": variant, "seed": seed,
                             "model": asdict(model_config)},
                            sort_keys=True, indent=2) + "\n")
    click.echo(f"run directory: {out_dir}")


cli.add_command(train_cmd, name="train")


# ---------------------------------------------------------------------------
# generate
# ---------------------------------------------------------------------------

@cli.command()
@click.option("--checkpoint", "checkpoint_path", type=str, required=True)
@click.option("--component", type=int, default=None)
@click.option("--n", "n_samples", type=click.IntRange(min=1), default=300)
@click.option("--out", type=str, default=None)
@click.option("--seed", type=int, default=0)
def generate(checkpoint_path, component, n_samples, out, seed):
    """Decode latent samples into embedding + profile rows (CSV).

    With --component K the samples come from mixture component K (GMM
    checkpoints only); without it, the vanilla prior or the full mixture
    is sampled."""
    ckpt = load_checkpoint(checkpoint_path)
    model = ckpt.model
    config = model.config
    gmm_params = model.gmm_params()
    rng = np.random.Generator(np.random.PCG64(seed))
    if component is not None:
        if gmm_params is None:
            raise DataError(
                "component-conditioned generation is unsupported for the "
                "vanilla prior; rerun without --component"
            )
        if not (0 <= component < gmm_params.n_components):
            raise DataError(
                f"component {component} out of range "
                f"[0, {gmm_params.n_components})"
            )
        z = gmm.sample_component(component, gmm_params, n_samples, rng)
    elif gmm_params is not None:
        z = gmm.sample_mixture(gmm_params, n_samples, rng)
    else:
        z = rng.standard_normal((n_samples, config.latent_dim))
    recon, ip_pred = model.decode_drug(z)
    emb = recon.data
    ip = ip_pred.data
    if ckpt.scaler is not None:
        emb = ckpt.scaler.inverse_embedding(emb)
        ip = ckpt.scaler.inverse_ip(ip)
    out_path = Path(out) if out else _out_dir(None, "generated.csv")
    out_path.parent.mkdir(parents=True, exist_ok=True)
    write_table(out_path, ["component"]
                + [f"e{i}" for i in range(config.smiles_dim)]
                + [f"k{i}" for i in range(config.ip_dim)],
                [[-1 if component is None else component] * n_samples],
                np.hstack([emb, ip]))
    click.echo(f"wrote {n_samples} generated rows to {out_path}")


# ---------------------------------------------------------------------------
# predict
# ---------------------------------------------------------------------------

@cli.command()
@click.option("--checkpoint", "checkpoint_path", type=str, required=True)
@click.option("--drugs", "drugs_path", type=str, required=True)
@click.option("--cells", "cells_path", type=str, required=True)
@click.option("--out", type=str, default=None)
def predict(checkpoint_path, drugs_path, cells_path, out):
    """Predict sensitivity for row-aligned (drug, cell) pairs."""
    ckpt = load_checkpoint(checkpoint_path)
    model = ckpt.model
    drug_ids, emb = read_feature_csv(drugs_path, model.config.smiles_dim)
    cell_ids, feats = read_feature_csv(cells_path, model.config.bio_dim)
    if len(drug_ids) != len(cell_ids):
        raise DataError(
            f"{len(drug_ids)} drug rows vs {len(cell_ids)} cell rows; "
            f"the files pair row-by-row"
        )
    if not drug_ids:
        raise DataError(f"{drugs_path}: no data rows")
    if ckpt.scaler is not None:
        emb = ckpt.scaler.transform_embedding(emb)
        feats = ckpt.scaler.transform_cell(feats)
    mu = model.drug_latent_means(emb)
    lat = model.cell_latents(feats)
    preds = model.predict_sensitivity(mu, lat)
    if ckpt.scaler is not None:
        preds = ckpt.scaler.inverse_ic50(preds)
    out_path = Path(out) if out else _out_dir(None, "predictions.csv")
    out_path.parent.mkdir(parents=True, exist_ok=True)
    write_table(out_path, ["drug_id", "cell_id", "prediction"],
                [drug_ids, cell_ids], preds[:, None])
    click.echo(f"wrote {len(preds)} predictions to {out_path}")


# ---------------------------------------------------------------------------
# evaluate
# ---------------------------------------------------------------------------

def _rebuild_split(dataset: Dataset, split_cells: dict) -> Split:
    known = set(dataset.cell_ids)
    stored = set().union(*(set(v) for v in split_cells.values()))
    if stored != known:
        raise DataError(
            "split reconstruction mismatch: the dataset's cell lines differ "
            "from those recorded at training time"
        )
    return partition_by_cells(dataset, split_cells["train"],
                              split_cells["val"], split_cells["test"])


@cli.command("evaluate")
@click.option("--checkpoint", "checkpoint_path", type=str, required=True)
@click.option("--data", "data_dir", type=str, required=True)
@click.option("--out", type=str, default=None)
@click.option("--seed", type=int, default=0)
@click.option("--n-gen", type=click.IntRange(min=1),
              default=inspect.signature(evaluate)
              .parameters["n_gen_per_component"].default)
def evaluate_cmd(checkpoint_path, data_dir, out, seed, n_gen):
    """Full metric report plus 2-D projection CSVs for plotting."""
    ckpt = load_checkpoint(checkpoint_path)
    if ckpt.scaler is None or ckpt.split_cells is None:
        raise CheckpointError("checkpoint lacks scaler/split records")
    dataset = load_csv(data_dir)
    check_compatible(ckpt, dataset, checkpoint_path)
    split = _rebuild_split(dataset, ckpt.split_cells)
    dataset_std = apply_scaler(dataset, ckpt.scaler)
    gen_rows, comps = generate_profiles(ckpt.model, n_gen, seed)
    mu = ckpt.model.drug_latent_means(dataset_std.embeddings)
    report = evaluate(ckpt.model, dataset, dataset_std, split, ckpt.scaler,
                      labels=ckpt.guiding_labels, n_gen_per_component=n_gen,
                      seed=seed, generated=(gen_rows, comps), drug_mu=mu)
    out_dir = _out_dir(out, f"eval-seed{seed}")
    out_dir.mkdir(parents=True, exist_ok=True)
    with atomic_open(out_dir / "report.json") as fh:
        fh.write(report.to_json() + "\n")

    labels = ckpt.guiding_labels or {}
    ids = dataset_std.drug_ids
    labeled = [i for i, d in enumerate(ids) if d in labels]
    if len(labeled) >= 3:
        proj, _ = pca2(mu[labeled])
        write_table(out_dir / "latent_pca.csv",
                    ["drug_id", "label", "pc1", "pc2"],
                    [[ids[i] for i in labeled],
                     [labels[ids[i]] for i in labeled]], proj)

    proj, _ = pca2(gen_rows)
    write_table(out_dir / "generated_ip_pca.csv", ["component", "pc1", "pc2"],
                [comps], proj)
    click.echo(f"report: {out_dir / 'report.json'}")


# ---------------------------------------------------------------------------
# experiment grid
# ---------------------------------------------------------------------------

@cli.command()
@click.option("--config", "config_path", type=str, default=None)
@click.option("--data", "data_dir", type=str, required=True)
@click.option("--out", type=str, default=None)
@click.option("--seeds", type=str, default="0,1,2,3,4")
@click.option("--variants", type=str, default=",".join(PRIOR_VARIANTS))
@click.option("--joint-epochs", type=int, default=None)
@click.option("--dspn-epochs", type=int, default=None)
def experiment(config_path, data_dir, out, seeds, variants, joint_epochs,
               dspn_epochs):
    """Run the variant x seed grid and aggregate mean +- std per metric."""
    config = _load_config(config_path)
    try:
        seed_list = [int(s) for s in seeds.split(",") if s != ""]
    except ValueError:
        raise click.BadParameter(f"{seeds!r} is not a comma-separated list "
                                 f"of integers", param_hint="--seeds") from None
    variant_list = [v.strip() for v in variants.split(",") if v.strip()]
    for v in variant_list:
        if v not in PRIOR_VARIANTS:
            raise DataError(f"unknown variant {v!r}")
    dataset = load_csv(data_dir)
    out_dir = _out_dir(out, "experiment")
    out_dir.mkdir(parents=True, exist_ok=True)

    metric_names = ("ic50_rmse", "ic50_pearson", "ip_rmse",
                    "silhouette_latent", "silhouette_generated",
                    "centroid_pearson", "std_rmse")
    grid: dict[str, dict[str, list[float]]] = {
        v: {m: [] for m in metric_names} for v in variant_list}
    for variant in variant_list:
        for seed in seed_list:
            result, _, _ = _run_training(
                dataset, config, variant, seed, model_flags={},
                schedule_flags={"joint_epochs": joint_epochs,
                                "dspn_epochs": dspn_epochs},
                split_flags={})
            run_dir = out_dir / f"{variant}-seed{seed}"
            labels = _write_run_dir(run_dir, result, dataset, seed)
            report = evaluate(result.model, dataset, result.dataset_std,
                              result.split, result.scaler,
                              labels=labels or None, seed=seed, pairs="test")
            with atomic_open(run_dir / "report_test.json") as fh:
                fh.write(report.to_json() + "\n")
            for m in metric_names:
                v = getattr(report, m)
                if v is not None:
                    grid[variant][m].append(float(v))

    summary = {}
    for variant, metrics_ in grid.items():
        summary[variant] = {}
        for m, vals in metrics_.items():
            if vals:
                summary[variant][m] = {
                    "mean": float(np.mean(vals)),
                    "std": float(np.std(vals)),
                    "n": len(vals),
                }
    with atomic_open(out_dir / "summary.json") as fh:
        fh.write(json.dumps(summary, sort_keys=True, indent=2) + "\n")
    with atomic_open(out_dir / "summary.csv") as fh:
        w = csv.writer(fh)
        w.writerow(["variant", "metric", "mean", "std", "n"])
        for variant in variant_list:
            for m in metric_names:
                if m in summary[variant]:
                    s = summary[variant][m]
                    w.writerow([variant, m, repr(s["mean"]), repr(s["std"]),
                                s["n"]])
    click.echo(f"summary: {out_dir / 'summary.json'}")


# ---------------------------------------------------------------------------
# entry point with exit-code mapping
# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    try:
        cli.main(args=argv, standalone_mode=False)
        return 0
    except click.UsageError as exc:
        exc.show()
        return 1
    except click.ClickException as exc:
        exc.show()
        return 1
    except click.exceptions.Abort:
        return 1
    except (DataError, CheckpointError) as exc:
        click.echo(f"data error: {exc}", err=True)
        return 2
    except (NumericError, TrainingAborted) as exc:
        click.echo(f"numeric failure: {exc}", err=True)
        return 3
    except OSError as exc:
        click.echo(f"i/o error: {exc}", err=True)
        return 2
    except VadeersError as exc:
        click.echo(f"error: {exc}", err=True)
        return 1


if __name__ == "__main__":
    sys.exit(main())
