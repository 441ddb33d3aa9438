"""Command-line entry point.

Subcommands: synth, train, generate, predict, evaluate, experiment.
Option precedence is flag > config file > default (synth, train and
experiment read --config, and each checks every top-level key of it).
Every command but predict, which draws no random numbers, takes --seed
(experiment: --seeds), and equal invocations are bit-reproducible.
The default output root is $VADEERS_RUN_ROOT (falling back to the
current directory).  Exit codes: 0 ok, 1 usage, 2 data error, 3 numeric
failure.  Every command runs its BLAS products on one thread, whatever
``OPENBLAS_NUM_THREADS`` says, so its bytes never depend on the
environment.
"""

from __future__ import annotations

import csv
import inspect
import json
import os
import sys
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import click
import numpy as np

from . import gmm
from .data import (
    DESK_SPEC,
    Dataset,
    SynthSpec,
    atomic_open,
    derive_guiding_labels,
    field_defaults,
    generate_synthetic,
    json_object,
    load_csv,
    read_feature_csv,
    record_of,
    save_csv,
    standardized,
    write_table,
)
from .exceptions import (
    CheckpointError,
    ContractViolation,
    DataError,
    NumericError,
    VadeersError,
)
from .metrics import evaluate, pca2
from .model import LossWeights, ModelConfig, PRIOR_VARIANTS
from .nnkernel.parts import use_one_blas_thread
from .training import (
    Checkpoint,
    SplitSpec,
    TrainingAborted,
    TrainSchedule,
    check_compatible,
    load_checkpoint,
    save_checkpoint,
    train,
)


@dataclass(frozen=True)
class _ConfigFile:
    """The keys a config file may hold: the run keys, and a section for
    each record that a command configures.  ``source`` names the file."""

    source: str
    seed: int = 0
    variant: str = field_defaults(ModelConfig)["prior_variant"]
    scale: str = "desk"
    model: dict | None = None
    schedule: dict | None = None
    split: dict | None = None
    weights: dict | None = None
    synth: dict | None = None

    def __post_init__(self):
        if self.seed < 0:
            raise ContractViolation("seed must be >= 0")
        for key, choices in (("variant", PRIOR_VARIANTS),
                             ("scale", ("paper", "desk"))):
            if getattr(self, key) not in choices:
                raise ContractViolation(f"{getattr(self, key)!r} is not one "
                                        f"of {', '.join(choices)}")


def _load_config(path: str | None, *run_set: str, **flags) -> _ConfigFile:
    """The config file at ``path``, if given, checked as it stands and
    then with the run-key ``flags`` on top.  A ``run_set`` key, which the
    command sets by other means, is an unknown key."""
    source = f"config file {path}" if path else "config"
    if path and not Path(path).exists():
        raise DataError(f"{source} does not exist")
    values = json_object(Path(path).read_bytes(), source) if path else {}
    defaults = field_defaults(_ConfigFile, "source", *run_set)
    config = record_of(_ConfigFile, values, source, defaults, source=source)
    return replace(config, **{k: v for k, v in flags.items() if v is not None})


def _configured(cls, config: _ConfigFile, section: str, flags: dict,
                base: dict | None = None, **fixed):
    """``cls`` built from flag > config file > ``base`` > default (see
    :func:`record_of`), with the ``fixed`` values that the run sets; each
    flag sets the field of its own name, and errors name the file, the
    section and the key."""
    defaults = {**field_defaults(cls, *fixed), **(base or {})}
    return record_of(cls, getattr(config, section) or {},
                     f"{config.source}, section {section!r}", defaults,
                     flags={k: v for k, v in flags.items() if k in defaults},
                     **fixed)


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
@click.option("--seed", type=click.IntRange(min=0), default=None)
@click.option("--scale", type=click.Choice(["paper", "desk"]), default=None)
@click.option("--n-drugs", type=int, default=None)
@click.option("--n-profiled", type=int, default=None)
@click.option("--n-cells", type=int, default=None)
@click.option("--observance", type=float, default=None)
def synth(config_path, out, seed, scale, **flags):
    """Generate a synthetic dataset directory (CSV files + manifest)."""
    config = _load_config(config_path, seed=seed, scale=scale)
    spec = _configured(SynthSpec, config, "synth", flags,
                       base=asdict(DESK_SPEC) if config.scale == "desk"
                       else None)
    out_dir = _out_dir(out, f"synth-seed{config.seed}")
    dataset = generate_synthetic(spec, seed=config.seed)
    save_csv(dataset, out_dir, seed=config.seed, generator_spec=spec)
    click.echo(f"wrote {len(dataset.drug_ids)} drugs, "
               f"{len(dataset.cell_ids)} cells, "
               f"{len(dataset.pair_y)} pairs to {out_dir}")


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------

def _train_run(out_dir: Path, dataset: Dataset, config: _ConfigFile,
               variant: str, seed: int, flags: dict) -> Checkpoint:
    """Train ``variant`` at ``seed`` with the settings of flag > config
    file > default, and write its run directory: the checkpoint, run
    log, validation report and config echo.  An aborted run writes its
    last-good checkpoint and its run log as ``.ABORTED`` files."""
    model_config = _configured(
        ModelConfig, config, "model", flags,
        base={"smiles_dim": dataset.smiles_dim, "ip_dim": dataset.ip_dim,
              "bio_dim": dataset.bio_dim}, prior_variant=variant)
    schedule = _configured(TrainSchedule, config, "schedule", flags, seed=seed)
    split_spec = _configured(SplitSpec, config, "split", flags, seed=seed)
    weights = _configured(LossWeights, config, "weights", flags)
    if model_config.uses_gmm:
        dataset = derive_guiding_labels(
            dataset, n_labels=model_config.n_guiding_labels, seed=seed)
    try:
        result = train(dataset, model_config, schedule, weights, split_spec)
    except TrainingAborted as exc:
        out_dir.mkdir(parents=True, exist_ok=True)
        save_checkpoint(exc.result.checkpoint,
                        out_dir / "checkpoint_last_good.ABORTED.bin")
        exc.result.runlog.export_jsonl(out_dir / "runlog.ABORTED.jsonl")
        raise
    checkpoint = result.checkpoint
    out_dir.mkdir(parents=True, exist_ok=True)
    save_checkpoint(checkpoint, out_dir / "checkpoint.bin")
    result.runlog.export_jsonl(out_dir / "runlog.jsonl")
    report = evaluate(checkpoint, dataset, pairs="val", seed=seed).report
    with atomic_open(out_dir / "report_val.json") as fh:
        fh.write(report.to_json() + "\n")
    with atomic_open(out_dir / "config_echo.json") as fh:
        fh.write(json.dumps({"variant": variant, "seed": seed,
                             "model": asdict(model_config)},
                            sort_keys=True, indent=2) + "\n")
    return checkpoint


@cli.command()
@click.option("--config", "config_path", type=str, default=None)
@click.option("--data", "data_dir", type=str, required=True)
@click.option("--out", type=str, default=None)
@click.option("--seed", type=click.IntRange(min=0), default=None)
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
def train_cmd(config_path, data_dir, out, seed, variant, **flags):
    """Train one prior variant end to end and write a run directory."""
    config = _load_config(config_path, seed=seed, variant=variant)
    dataset = load_csv(data_dir)
    out_dir = _out_dir(out, f"train-{config.variant}-seed{config.seed}")
    _train_run(out_dir, dataset, config, config.variant, config.seed, flags)
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
@click.option("--seed", type=click.IntRange(min=0), default=0)
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
    emb = ckpt.scaler.inverse_embedding(recon.data)
    ip = ckpt.scaler.inverse_ip(ip_pred.data)
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
            f"{drugs_path} has {len(drug_ids)} drug rows and {cells_path} "
            f"{len(cell_ids)} cell rows; the files pair row-by-row"
        )
    if not drug_ids:
        raise DataError(f"{drugs_path}: no data rows")
    mu = model.drug_latent_means(standardized(
        ckpt.scaler.transform_embedding, emb, drugs_path, "e"))
    lat = model.cell_latents(standardized(
        ckpt.scaler.transform_cell, feats, cells_path, "f"))
    preds = ckpt.scaler.inverse_ic50(model.predict_sensitivity(mu, lat))
    out_path = Path(out) if out else _out_dir(None, "predictions.csv")
    out_path.parent.mkdir(parents=True, exist_ok=True)
    write_table(out_path, ["drug_id", "cell_id", "prediction"],
                [drug_ids, cell_ids], preds[:, None])
    click.echo(f"wrote {len(preds)} predictions to {out_path}")


# ---------------------------------------------------------------------------
# evaluate
# ---------------------------------------------------------------------------

@cli.command("evaluate")
@click.option("--checkpoint", "checkpoint_path", type=str, required=True)
@click.option("--data", "data_dir", type=str, required=True)
@click.option("--out", type=str, default=None)
@click.option("--seed", type=click.IntRange(min=0), default=0)
@click.option("--n-gen", type=click.IntRange(min=1),
              default=inspect.signature(evaluate)
              .parameters["n_gen_per_component"].default)
def evaluate_cmd(checkpoint_path, data_dir, out, seed, n_gen):
    """Full metric report plus 2-D projection CSVs for plotting."""
    ckpt = load_checkpoint(checkpoint_path)
    if not ckpt.split_cells["test"]:
        raise CheckpointError(f"{checkpoint_path}: the checkpoint's test "
                              f"split holds no cell lines, and evaluate "
                              f"reports on test pairs")
    dataset = load_csv(data_dir)
    check_compatible(ckpt, dataset, checkpoint_path)
    report, mu, gen_rows, comps = evaluate(
        ckpt, dataset, n_gen_per_component=n_gen, seed=seed)
    out_dir = _out_dir(out, f"eval-seed{seed}")
    out_dir.mkdir(parents=True, exist_ok=True)
    with atomic_open(out_dir / "report.json") as fh:
        fh.write(report.to_json() + "\n")

    labels = ckpt.guiding_labels or {}
    labeled = [i for i, d in enumerate(dataset.drug_ids) if d in labels]
    ids = [dataset.drug_ids[i] for i in labeled]
    # a projection needs 3 rows and 2 columns; without them it is not written
    for name, id_header, id_columns, rows in (
            ("latent_pca.csv", ["drug_id", "label"],
             [ids, [labels[d] for d in ids]], mu[labeled]),
            ("generated_ip_pca.csv", ["component"], [comps], gen_rows)):
        if rows.shape[0] >= 3 and rows.shape[1] >= 2:
            write_table(out_dir / name, [*id_header, "pc1", "pc2"], id_columns,
                        pca2(rows)[0])
    click.echo(f"report: {out_dir / 'report.json'}")


# ---------------------------------------------------------------------------
# experiment grid
# ---------------------------------------------------------------------------

def _list_flag(text: str, flag: str, kind, what: str, choices=()) -> list:
    """The values of a comma-separated list flag: one or more, distinct,
    each converted by ``kind`` (a type or a click type) and, given
    ``choices``, one of them; anything else is a usage error naming
    ``flag`` and ``what`` it lists."""
    try:
        values = [kind(s.strip()) for s in text.split(",") if s.strip()]
    except (ValueError, click.BadParameter):
        values = []
    if (not values or len(set(values)) < len(values)
            or choices and not set(values) <= set(choices)):
        raise click.BadParameter(f"{text!r} is not a comma-separated list "
                                 f"of distinct {what}", param_hint=flag)
    return values


@cli.command()
@click.option("--config", "config_path", type=str, default=None)
@click.option("--data", "data_dir", type=str, required=True)
@click.option("--out", type=str, default=None)
@click.option("--seeds", type=str, default="0,1,2,3,4")
@click.option("--variants", type=str, default=",".join(PRIOR_VARIANTS))
@click.option("--joint-epochs", type=int, default=None)
@click.option("--dspn-epochs", type=int, default=None)
def experiment(config_path, data_dir, out, seeds, variants, **flags):
    """Run the variant x seed grid and aggregate mean +- std per metric.
    Each cell is a ``train`` run directory plus ``report_test.json``."""
    seed_list = _list_flag(seeds, "--seeds", click.IntRange(min=0),
                           "integers >= 0")
    variant_list = _list_flag(variants, "--variants", str,
                              f"names of {', '.join(PRIOR_VARIANTS)}",
                              PRIOR_VARIANTS)
    config = _load_config(config_path, "seed", "variant")  # set per cell
    if _configured(SplitSpec, config, "split", flags, seed=0).n_test_cells < 1:
        raise DataError(f"{config.source}, section 'split', key "
                        f"'n_test_cells': an experiment reports on test "
                        f"pairs, so it must be >= 1")
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
            run_dir = out_dir / f"{variant}-seed{seed}"
            checkpoint = _train_run(run_dir, dataset, config, variant, seed,
                                    flags)
            report = evaluate(checkpoint, dataset, seed=seed).report
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
    use_one_blas_thread()
    try:
        cli.main(args=argv, standalone_mode=False)
        return 0
    except click.ClickException as exc:
        exc.show()
        return 1
    except click.exceptions.Abort:
        return 1
    except (DataError, CheckpointError) as exc:
        click.echo(f"data error: {exc}", err=True)
        return 2
    except NumericError as exc:
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
