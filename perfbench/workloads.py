"""Workloads of the vadeers benchmark.

A run sets its inputs up from the seed, then makes two passes.  The first
runs ``vadeers train``; both then serve the checkpoint with closed-loop
rank queries from one client, ``vadeers predict``, ``vadeers generate
--component k`` and ``vadeers evaluate``, and set the inputs up again
between them (the median of all set-ups is ``setup_s``).  A workload with
``repeat_train`` trains again in the second pass with the same seed, which
checks determinism; any other workload checks it on two short trains that
cross DVAE breaks.  With tracing on, the first pass is traced and the
second is the untraced reference for ``trace.overhead_pct``.  Every
operation's output is checked and a failed check counts as a failed
operation.
"""

from __future__ import annotations

import contextlib
import csv
import gc
import hashlib
import io
import json
import math
import resource
import shutil
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from vadeers import cli, data, training
from vadeers.data import DESK_SPEC, SynthSpec, generate_synthetic
from vadeers.metrics import MetricReport

from tracing import PHASES, Tracer, layer_metrics

MIN_QUERIES = 500  # per pass: p99 over both passes has ten samples beyond it
N_QUERY_DRUGS = 64
# Schedule of the two short trains that check determinism in a workload
# that trains once per run: one epoch per phase in batches of 512, with a
# break after every joint step, so the break path (its own Adam state and
# RNG) is compared too.
REPEAT_SCHEDULE = {"joint_epochs": 1, "dspn_epochs": 1, "batch_size": 512,
                   "dvae_break_every_steps": 1, "dvae_break_epochs": 1}


@dataclass(frozen=True)
class Workload:
    """Input sizes and the schedule of one workload."""

    spec: SynthSpec
    variant: str
    joint_epochs: int
    dspn_epochs: int
    n_val_cells: int
    n_test_cells: int
    predict_rows: int
    generate_rows: int
    cycles: int               # predict + generate rounds per pass
    evaluate_every: int = 1   # one evaluate and one set-up per this many cycles
    repeat_train: bool = False  # train again in the second pass

    def ops(self) -> list[str]:
        """Operations of one pass after its train, in order.  Many short
        calls spread over the pass sample the host's speed more evenly
        than a few long ones."""
        out = []
        for c in range(self.cycles):
            out += ["predict", "generate"]
            if c % self.evaluate_every == self.evaluate_every // 2:
                out += ["evaluate", "setup"]
        return out


WORKLOADS = {
    # Acceptance-fixture traffic: desk dims, stock lr/batch/break cadence;
    # 16 joint epochs of ~66 steps cross joint step 1000, so one full
    # 800-step DVAE break runs, then a DSPN phase.
    "train_desk": Workload(
        DESK_SPEC, "gmm_constrained", joint_epochs=16,
        dspn_epochs=1, n_val_cells=25, n_test_cells=25,
        predict_rows=2000, generate_rows=1000, cycles=12, evaluate_every=2),
    # Paper dims (300/294/241): the widest matrices, joint + DSPN, no
    # break (198 joint steps).  Explicit val/test sizes: the stock 100+100
    # split cannot be cut from 150 cell lines.
    "train_paper": Workload(
        SynthSpec(), "gmm_unconstrained", joint_epochs=3,
        dspn_epochs=2, n_val_cells=25, n_test_cells=25,
        predict_rows=250, generate_rows=125, cycles=8, evaluate_every=2,
        repeat_train=True),
    # GDSC-sized table at paper dims (~1e5 pairs).  A short training on 50
    # train cell lines makes the checkpoint; the serving commands carry
    # the weight.
    "serve": Workload(
        SynthSpec(n_drugs=300, n_profiled=150, n_cells=500),
        "gmm_constrained", joint_epochs=1, dspn_epochs=1,
        n_val_cells=150, n_test_cells=300,
        predict_rows=500, generate_rows=250, cycles=8, evaluate_every=8,
        repeat_train=True),
}


@dataclass
class Tally:
    """Attempted and failed operations, with the reason for each failure."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def record(self, op: str, problems: list[str], count: int = 1, failed: int = 1):
        """``count`` operations ran; when ``problems`` is non-empty,
        ``failed`` of them failed."""
        self.attempted += count
        if problems:
            self.failed += failed
            self.problems.extend(f"{op}: {p}" for p in problems)


@dataclass
class Inputs:
    """What set-up made: the data directory plus the request files."""

    data_dir: Path
    drugs_req: Path
    cells_req: Path
    req_drug_ids: list[str]
    req_cell_ids: list[str]
    req_emb: np.ndarray
    req_feats: np.ndarray
    queries: np.ndarray
    cell_features: np.ndarray
    digest: str = ""  # of every file set-up wrote; see tree_digest


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------

def _write_rows(path: Path, header: list[str], ids: list[str], rows: np.ndarray):
    """A feature CSV in the repo's schema; floats written with repr."""
    lines = [",".join(header)]
    lines += [",".join([rid, *map(repr, row)]) for rid, row in zip(ids, rows.tolist())]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def setup(w: Workload, seed: int, root: Path) -> Inputs:
    """Synthesize the dataset, write its CSVs and the request files; the
    same seed gives byte-identical files."""
    root.mkdir(parents=True, exist_ok=True)
    dataset = generate_synthetic(w.spec, seed=seed)
    data.save_csv(dataset, root / "data", seed=seed, generator_spec=w.spec)
    rng = np.random.Generator(np.random.PCG64([seed, 1]))
    emb = dataset.embedding_matrix()
    feats = dataset.feature_matrix()
    di = rng.integers(len(dataset.drugs), size=w.predict_rows)
    ci = rng.integers(len(dataset.cells), size=w.predict_rows)
    drug_ids = [dataset.drugs[i].id for i in di]
    cell_ids = [dataset.cells[i].id for i in ci]
    _write_rows(root / "req_drugs.csv",
                ["id"] + [f"e{i}" for i in range(emb.shape[1])], drug_ids, emb[di])
    _write_rows(root / "req_cells.csv",
                ["id"] + [f"f{i}" for i in range(feats.shape[1])], cell_ids, feats[ci])
    # new drugs for the rank queries: table drugs moved off their rows
    base = emb[rng.integers(len(dataset.drugs), size=N_QUERY_DRUGS)]
    queries = base + 0.5 * rng.standard_normal(base.shape)
    _write_rows(root / "queries.csv",
                ["id"] + [f"e{i}" for i in range(emb.shape[1])],
                [f"Q{i:03d}" for i in range(len(queries))], queries)
    return Inputs(data_dir=root / "data",
                  drugs_req=root / "req_drugs.csv", cells_req=root / "req_cells.csv",
                  req_drug_ids=drug_ids, req_cell_ids=cell_ids,
                  req_emb=emb[di], req_feats=feats[ci], queries=queries,
                  cell_features=feats)


def tree_digest(root: Path) -> str:
    """SHA-256 over the relative names and bytes of every file below root."""
    h = hashlib.sha256()
    for p in sorted(q for q in root.rglob("*") if q.is_file()):
        h.update(str(p.relative_to(root)).encode())
        h.update(p.read_bytes())
    return h.hexdigest()


def timed_setup(w: Workload, seed: int, root: Path) -> tuple[Inputs, float]:
    """One set-up and its wall time; the digest is taken after the clock
    stops."""
    gc.collect()
    t0 = time.perf_counter()
    inputs = setup(w, seed, root)
    wall = time.perf_counter() - t0
    inputs.digest = tree_digest(root)
    return inputs, wall


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def run_cli(argv: list[str], tracer: Tracer | None) -> tuple[int, str, float]:
    """Run one vadeers command in-process; returns (exit code, output, wall s)."""
    buf = io.StringIO()
    gc.collect()  # start every timed operation from the same heap state
    span = tracer.span(f"cli.{argv[0]}") if tracer else contextlib.nullcontext()
    t0 = time.perf_counter()
    with span, contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
        rc = cli.main(argv)
    return rc, buf.getvalue(), time.perf_counter() - t0


def schedule_of(w: Workload, seed: int, **changes) -> training.TrainSchedule:
    """The workload's schedule (stock lr, batch and break cadence), with
    ``changes`` applied."""
    return training.TrainSchedule(**{"joint_epochs": w.joint_epochs,
                                     "dspn_epochs": w.dspn_epochs,
                                     "seed": seed, **changes})


def train_argv(w: Workload, sched: training.TrainSchedule, inputs: Inputs,
               out: Path) -> list[str]:
    return ["train", "--data", str(inputs.data_dir), "--out", str(out),
            "--seed", str(sched.seed), "--variant", w.variant,
            "--joint-epochs", str(sched.joint_epochs),
            "--dspn-epochs", str(sched.dspn_epochs),
            "--batch-size", str(sched.batch_size),
            "--break-every", str(sched.dvae_break_every_steps),
            "--break-epochs", str(sched.dvae_break_epochs),
            "--n-val-cells", str(w.n_val_cells),
            "--n-test-cells", str(w.n_test_cells)]


def read_runlog(path: Path) -> training.RunLog:
    """Rebuild a RunLog from its exported JSONL (cells_touched is not
    exported, so it stays empty)."""
    log = training.RunLog()
    for line in path.read_text(encoding="utf-8").splitlines():
        rec = json.loads(line)
        kind = rec.pop("record")
        if kind == "meta":
            log.seed = rec["seed"]
            log.wall_clock_seconds = rec["wall_clock_seconds"]
        elif kind == "event":
            log.events.append(rec)
        else:
            log.epochs.append(rec)
    return log


def optimizer_steps(sched: training.TrainSchedule, n_profiled: int,
                    log: training.RunLog) -> dict[str, int]:
    """Optimizer steps of a run per phase, from its log and schedule.

    The log records joint steps, breaks and DSPN epochs but not the steps
    inside a break or a DSPN epoch: a break takes ``dvae_break_epochs``
    passes over the profiled drugs, and a DSPN epoch as many batches as a
    joint epoch.  The traced run checks these counts against the
    ``adam_step`` calls it sees."""
    joint = [e for e in log.epochs if e["phase"] == 1]
    per_epoch = joint[0]["joint_step"] if joint else 0
    breaks = sum(1 for e in log.events if e["event"] == "break_start")
    per_break = sched.dvae_break_epochs * math.ceil(n_profiled / sched.dvae_break_batch)
    dspn = sum(1 for e in log.epochs if e["phase"] == 2)
    return {"joint": joint[-1]["joint_step"] if joint else 0,
            "break": breaks * per_break, "dspn": dspn * per_epoch}


def check_train(sched: training.TrainSchedule, rc: int, output: str,
                run_dir: Path) -> list[str]:
    """Exit 0, schedule conformance, finite losses, loadable checkpoint."""
    if rc != 0:
        return [f"exit code {rc}: {output.strip()[-300:]}"]
    problems = []
    log = read_runlog(run_dir / "runlog.jsonl")
    problems += [f"schedule: {p}" for p in
                 training.check_schedule_conformance(log, sched)]
    for e in log.epochs:
        bad = [k for k, v in e.items() if k.startswith("loss_") and not math.isfinite(v)]
        if bad:
            problems.append(f"non-finite {bad} in epoch {e['phase']}/{e['phase_epoch']}")
    try:
        ckpt = training.load_checkpoint(run_dir / "checkpoint.bin")
    except Exception as exc:  # any load failure is a failed check
        return problems + [f"checkpoint does not load: {exc!r}"]
    if not all(np.all(np.isfinite(v)) for v in ckpt.model.params.values()):
        problems.append("checkpoint holds non-finite parameters")
    report = json.loads((run_dir / "report_val.json").read_text())
    for key in ("ic50_pearson", "centroid_pearson"):
        if not isinstance(report.get(key), float) or not math.isfinite(report[key]):
            problems.append(f"report_val.json {key}={report.get(key)!r}")
    return problems


def check_repeat(first: Path, second: Path) -> list[str]:
    """Two trains with one seed: identical checkpoint bytes, equal
    RunLog.comparable() and identical validation reports."""
    problems = []
    if (first / "checkpoint.bin").read_bytes() != (second / "checkpoint.bin").read_bytes():
        problems.append("checkpoint.bin differs between repeats of one seed")
    if (read_runlog(first / "runlog.jsonl").comparable()
            != read_runlog(second / "runlog.jsonl").comparable()):
        problems.append("RunLog.comparable() differs between repeats of one seed")
    if (first / "report_val.json").read_bytes() != (second / "report_val.json").read_bytes():
        problems.append("report_val.json differs between repeats of one seed")
    return problems


def expected_predictions(ckpt_path: Path, inputs: Inputs) -> np.ndarray:
    """The library path: encoder means -> predict_sensitivity -> inverse scaler."""
    ckpt = training.load_checkpoint(ckpt_path)
    model, scaler = ckpt.model, ckpt.scaler
    mu = model.drug_latent_means(scaler.transform_embedding(inputs.req_emb))
    lat = model.cell_latents(scaler.transform_cell(inputs.req_feats))
    return scaler.inverse_ic50(model.predict_sensitivity(mu, lat))


def check_predict(rc: int, output: str, out: Path, inputs: Inputs,
                  expected: np.ndarray) -> list[str]:
    if rc != 0:
        return [f"exit code {rc}: {output.strip()[-300:]}"]
    with open(out, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    if not rows or rows[0] != ["drug_id", "cell_id", "prediction"]:
        return ["bad header"]
    rows = rows[1:]
    if len(rows) != len(expected):
        return [f"{len(rows)} rows, expected {len(expected)}"]
    problems = []
    for i, (row, want) in enumerate(zip(rows, expected)):
        if row[:2] != [inputs.req_drug_ids[i], inputs.req_cell_ids[i]]:
            problems.append(f"row {i}: ids {row[:2]}")
        elif float(row[2]) != float(want):
            problems.append(f"row {i}: prediction {row[2]} != library {want!r}")
        if len(problems) >= 5:
            break
    return problems


def check_generate(rc: int, output: str, out: Path, component: int, n: int,
                   width: int) -> list[str]:
    if rc != 0:
        return [f"exit code {rc}: {output.strip()[-300:]}"]
    with open(out, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    if not rows or len(rows[0]) != width:
        return [f"header width {len(rows[0]) if rows else 0}, expected {width}"]
    body = rows[1:]
    if len(body) != n:
        return [f"{len(body)} rows, expected {n}"]
    for i, row in enumerate(body):
        if len(row) != width:
            return [f"row {i} has {len(row)} fields, expected {width}"]
        if int(row[0]) != component:
            return [f"row {i} from component {row[0]}, expected {component}"]
        try:
            values = [float(x) for x in row[1:]]
        except ValueError:
            return [f"row {i} is not numeric"]
        if not all(math.isfinite(v) for v in values):
            return [f"row {i} has non-finite values"]
    return []


def check_evaluate(rc: int, output: str, out_dir: Path) -> list[str]:
    if rc != 0:
        return [f"exit code {rc}: {output.strip()[-300:]}"]
    try:
        report = MetricReport.from_json((out_dir / "report.json").read_text())
    except Exception as exc:  # an unreadable report is a failed check
        return [f"report.json does not round-trip: {exc!r}"]
    bad = [k for k, v in vars(report).items()
           if isinstance(v, float) and not math.isfinite(v)]
    return [f"non-finite {bad} in report.json"] if bad else []


class QueryClient:
    """One closed-loop client ranking every cell line for a new drug."""

    def __init__(self, ckpt_path: Path, cell_features: np.ndarray):
        ckpt = training.load_checkpoint(ckpt_path)
        self.model, self.scaler = ckpt.model, ckpt.scaler
        self.cell_latent = self.model.cell_latents(
            self.scaler.transform_cell(cell_features))

    def rank(self, embedding: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Predicted sensitivities for every cell line and their order."""
        x = self.scaler.transform_embedding(embedding[None, :])
        mu = self.model.drug_latent_means(x)
        drug = np.repeat(mu, self.cell_latent.shape[0], axis=0)
        scores = self.scaler.inverse_ic50(
            self.model.predict_sensitivity(drug, self.cell_latent))
        return scores, np.argsort(scores)


def query_loop(client: QueryClient, queries: np.ndarray, start: int,
               min_count: int, seconds: float) -> tuple[list[float], int]:
    """Closed loop: the next query is sent when the previous one returns.
    Runs for ``seconds`` and at least ``min_count`` queries, cycling
    through ``queries`` from index ``start``.  Returns per-query
    latencies (s) and the number of bad answers."""
    n_cells = client.cell_latent.shape[0]
    latencies, bad = [], 0
    began = time.perf_counter()
    i = start
    while len(latencies) < min_count or time.perf_counter() - began < seconds:
        t0 = time.perf_counter()
        scores, order = client.rank(queries[i % len(queries)])
        latencies.append(time.perf_counter() - t0)
        if scores.shape != (n_cells,) or not np.all(np.isfinite(scores)) \
                or order.shape != (n_cells,):
            bad += 1
        i += 1
    return latencies, bad


# ---------------------------------------------------------------------------
# one run
# ---------------------------------------------------------------------------

@dataclass
class PassResult:
    """Measurements of one pass; ``walls`` sums each operation's wall time
    and ``query_counts`` holds the size of each query chunk."""

    train_s: float = math.nan
    steps: dict[str, int] = field(default_factory=dict)  # per phase
    steps_per_s: float = math.nan
    val_ic50_pearson: float = math.nan
    val_centroid_pearson: float = math.nan
    op_s: dict[str, list[float]] = field(default_factory=dict)  # checked calls
    query_s: list[float] = field(default_factory=list)
    query_counts: list[int] = field(default_factory=list)
    walls: dict[str, float] = field(default_factory=dict)

    def add_wall(self, op: str, seconds: float):
        self.walls[op] = self.walls.get(op, 0.0) + seconds


def checked(check, *args) -> list[str]:
    """Run an output check; a check that raises on a malformed output
    reports that as its problem."""
    try:
        return check(*args)
    except Exception as exc:  # malformed output of any kind is a failure
        return [f"{check.__name__} raised {exc!r}"]


def run_pass(w: Workload, seed: int, inputs: Inputs, out: Path, ckpt: Path,
             train: bool, tally: Tally, seconds: float,
             query_counts: list[int] | None, tracer: Tracer | None) -> PassResult:
    """One pass over the workload's operations, each checked after it ran.

    With ``train`` the pass first trains the checkpoint at ``ckpt``.  Then
    the operations of ``w.ops()`` run in order, each after a chunk of rank
    queries, so the query samples spread over the pass.  A ``setup``
    operation sets the inputs up again from the seed; its files must equal
    those of the first set-up.  ``seconds`` of queries split evenly over
    the chunks; given ``query_counts``, each chunk sends exactly that many
    queries instead.
    """
    res = PassResult()
    paused = tracer.paused if tracer else contextlib.nullcontext

    if train:
        run_dir = ckpt.parent
        sched = schedule_of(w, seed)
        rc, text, wall = run_cli(train_argv(w, sched, inputs, run_dir), tracer)
        res.add_wall("train", wall)
        with paused():
            problems = checked(check_train, sched, rc, text, run_dir)
        tally.record("train", problems)
        if problems:
            return res
        res.train_s = wall
        log = read_runlog(run_dir / "runlog.jsonl")
        res.steps = optimizer_steps(sched, w.spec.n_profiled, log)
        res.steps_per_s = sum(res.steps.values()) / log.wall_clock_seconds
        report = json.loads((run_dir / "report_val.json").read_text())
        res.val_ic50_pearson = report["ic50_pearson"]
        res.val_centroid_pearson = report["centroid_pearson"]
    if not ckpt.exists():
        tally.record("serve", ["no checkpoint to serve"])
        return res

    with paused():
        client = QueryClient(ckpt, inputs.cell_features)
        expected = expected_predictions(ckpt, inputs)
    ops = w.ops()
    n_chunks = len(ops)
    component = seed % 3
    width = 1 + w.spec.smiles_dim + w.spec.ip_dim
    pred, gen, eval_dir = out / "predictions.csv", out / "generated.csv", out / "eval"
    commands = {
        "predict": ["predict", "--checkpoint", str(ckpt), "--drugs", str(inputs.drugs_req),
                    "--cells", str(inputs.cells_req), "--out", str(pred)],
        "generate": ["generate", "--checkpoint", str(ckpt), "--component", str(component),
                     "--n", str(w.generate_rows), "--out", str(gen), "--seed", str(seed)],
        "evaluate": ["evaluate", "--checkpoint", str(ckpt), "--data", str(inputs.data_dir),
                     "--out", str(eval_dir), "--seed", str(seed)],
    }
    checks = {
        "predict": lambda rc, text: check_predict(rc, text, pred, inputs, expected),
        "generate": lambda rc, text: check_generate(rc, text, gen, component,
                                                    w.generate_rows, width),
        "evaluate": lambda rc, text: check_evaluate(rc, text, eval_dir),
    }

    def setup_again() -> tuple[list[str], float]:
        again, wall = timed_setup(w, seed, out / "setup")
        shutil.rmtree(out / "setup")
        return ([] if again.digest == inputs.digest
                else ["files differ from the first set-up of this seed"]), wall

    for chunk in range(n_chunks):
        if query_counts is None:
            count, budget = -(-MIN_QUERIES // n_chunks), seconds / n_chunks
        else:
            count, budget = query_counts[chunk], 0.0
        gc.collect()
        t0 = time.perf_counter()
        latencies, bad = query_loop(client, inputs.queries, len(res.query_s), count, budget)
        res.add_wall("query", time.perf_counter() - t0)
        res.query_s += latencies
        res.query_counts.append(len(latencies))
        tally.record("query", [f"{bad} queries without finite scores for every cell line"]
                     if bad else [], count=len(latencies), failed=bad)

        op = ops[chunk]
        if op == "setup":
            problems, wall = setup_again()
        else:
            rc, text, wall = run_cli(commands[op], tracer)
            with paused():
                problems = checked(checks[op], rc, text)
        res.add_wall(op, wall)
        tally.record(op, problems)
        if not problems:
            res.op_s.setdefault(op, []).append(wall)
    return res


def check_step_counts(tracer: Tracer, expected: dict[str, int]) -> list[str]:
    """The per-phase step counts behind ``steps_per_s`` equal the
    ``adam_step`` calls the traced train made."""
    return [f"{phase}: {tracer.counts.get(f'steps.{phase}', 0)} adam_step calls, "
            f"{expected[phase]} counted from the run log"
            for phase in PHASES
            if tracer.counts.get(f"steps.{phase}", 0) != expected[phase]]


def repeat_short_train(w: Workload, seed: int, inputs: Inputs, work: Path,
                       tally: Tally):
    """Determinism of a workload that trains once per run: two short trains
    from one seed that cross DVAE breaks must agree.  Untimed."""
    sched = schedule_of(w, seed, **REPEAT_SCHEDULE)
    runs = [work / "repeat0", work / "repeat1"]
    for run_dir in runs:
        rc, text, _ = run_cli(train_argv(w, sched, inputs, run_dir), None)
        problems = checked(check_train, sched, rc, text, run_dir)
        if not problems and not any(e["event"] == "break_start" for e in
                                    read_runlog(run_dir / "runlog.jsonl").events):
            problems = ["the short train crossed no DVAE break"]
        tally.record("short-train", problems)
        if problems:
            return
    tally.record("train-repeat", checked(check_repeat, *runs))


def check_passes_agree(first: Path, second: Path) -> list[str]:
    """Equal invocations are bit-reproducible: both passes serve one
    checkpoint with one seed, so their outputs must match byte for byte."""
    return [f"{name} differs between passes"
            for name in ("predictions.csv", "generated.csv", "eval/report.json")
            if (first / name).read_bytes() != (second / name).read_bytes()]


def _median(values) -> float:
    values = [v for v in values if not math.isnan(v)]
    return statistics.median(values) if values else math.nan


def _rate(rows: int, walls: list[float]) -> float:
    """Rows of all calls over their summed wall time.  On a host that
    switches between two speeds, the median of a few dozen short calls
    jumps between the speeds from run to run; this mean moves smoothly
    with the share of time spent in each."""
    return rows * len(walls) / sum(walls) if walls else math.nan


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_workload(w: Workload, seed: int, seconds: float, trace: bool,
                 work: Path, trace_path: Path | None = None) -> dict:
    """Run one workload; returns the result object the benchmark prints
    plus an ``info`` section (samples, error rate, failures)."""
    tally = Tally()
    tracer = Tracer() if trace else None

    inputs, first_setup_s = timed_setup(w, seed, work / "inputs")
    tally.record("setup", [])

    passes: list[PassResult] = []
    query_counts = None
    ckpt = work / "pass0" / "run" / "checkpoint.bin"
    for p in range(2):
        traced = tracer is not None and p == 0
        train = p == 0 or w.repeat_train
        if p == 1 and train:
            ckpt = work / "pass1" / "run" / "checkpoint.bin"
        with (tracer.installed() if traced else contextlib.nullcontext()):
            res = run_pass(w, seed, inputs, work / f"pass{p}", ckpt, train, tally,
                           seconds, query_counts, tracer if traced else None)
        passes.append(res)
        query_counts = res.query_counts
    if "train" in passes[1].walls:
        tally.record("train-repeat", checked(check_repeat, work / "pass0" / "run",
                                             work / "pass1" / "run"))
    else:
        repeat_short_train(w, seed, inputs, work, tally)
    if trace and passes[0].steps:
        tally.record("step-count", check_step_counts(tracer, passes[0].steps))
    if "evaluate" in passes[1].walls:
        tally.record("pass-repeat", checked(check_passes_agree, work / "pass0",
                                            work / "pass1"))

    queries_ms = [q * 1e3 for r in passes for q in r.query_s]
    calls = {op: [t for r in passes for t in r.op_s.get(op, [])]
             for op in ("predict", "generate", "evaluate", "setup")}
    setup_s = [first_setup_s] + calls.pop("setup")
    if trace:
        metrics = layer_metrics(tracer)
        common = passes[0].walls.keys() & passes[1].walls.keys()
        traced_wall = sum(passes[0].walls[k] for k in common)
        base = sum(passes[1].walls[k] for k in common)
        metrics["trace.overhead_pct"] = (
            (traced_wall / base - 1.0) * 100.0 if base else math.nan, "%")
        if trace_path is not None:
            tracer.write(trace_path)
    else:
        metrics = {
            "setup_s": (statistics.median(setup_s), "s"),
            "train_s": (_median(r.train_s for r in passes), "s"),
            "steps_per_s": (_median(r.steps_per_s for r in passes), "1/s"),
            "val_ic50_pearson": (_median(r.val_ic50_pearson for r in passes), "1"),
            "val_centroid_pearson": (_median(r.val_centroid_pearson for r in passes), "1"),
            "query_ms_p50": (float(np.percentile(queries_ms, 50)) if queries_ms else math.nan, "ms"),
            "predict_rows_per_s": (_rate(w.predict_rows, calls["predict"]), "rows/s"),
            "generate_rows_per_s": (_rate(w.generate_rows, calls["generate"]), "rows/s"),
            "evaluate_s": (statistics.fmean(calls["evaluate"])
                           if calls["evaluate"] else math.nan, "s"),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
        }
    failed = tally.failed
    correct = failed == 0 and all(math.isfinite(v) for v, _ in metrics.values())
    return {
        "result": {
            "correct": correct,
            "attempted": tally.attempted,
            "failed": failed,
            # a metric an operation failed to produce is null, not NaN
            "metrics": {k: {"value": v if math.isfinite(v) else None, "unit": u}
                        for k, (v, u) in metrics.items()},
        },
        "info": {
            "error_rate": failed / tally.attempted if tally.attempted else math.nan,
            "attempted": tally.attempted,
            "failed": failed,
            "problems": tally.problems[:20],
            "setup_s": setup_s,
            "op_walls_s": [r.walls for r in passes],
            "op_calls_s": calls,
            # ungated: too noisy on a shared host for a relative bound
            "query_ms_p99": float(np.percentile(queries_ms, 99)) if queries_ms else None,
            "samples": {"setups": len(setup_s),
                        "trains": sum("train" in r.walls for r in passes),
                        "queries": len(queries_ms),
                        "query_ms_p99_samples_beyond":
                            len(queries_ms) - math.ceil(0.99 * len(queries_ms)),
                        "predict_rows": w.predict_rows,
                        "generate_rows": w.generate_rows},
        },
    }
