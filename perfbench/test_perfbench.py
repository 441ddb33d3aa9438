"""Tests of the benchmark itself, on a tiny workload.

Run from the repository root:  PYTHONPATH=src python3 -m pytest perfbench -q
"""

import json
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import workloads  # noqa: E402
from vadeers.data import SynthSpec  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import (  # noqa: E402
    Workload,
    check_generate,
    check_predict,
    check_step_counts,
    run_workload,
    setup,
    tree_digest,
)

TINY = Workload(
    SynthSpec(n_drugs=24, n_profiled=12, n_cells=30, smiles_dim=8, ip_dim=6,
              bio_dim=6, n_binary_features=2),
    "gmm_constrained", joint_epochs=1, dspn_epochs=1,
    n_val_cells=4, n_test_cells=4, predict_rows=20, generate_rows=10,
    cycles=2)


@pytest.fixture(autouse=True)
def few_queries(monkeypatch):
    monkeypatch.setattr(workloads, "MIN_QUERIES", 5)


def declared(section: str) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


@pytest.mark.parametrize("trace,section", [(False, "end_to_end"), (True, "per_layer")])
@pytest.mark.parametrize("w", [TINY, replace(TINY, repeat_train=True)],
                         ids=["train-once", "train-twice"])
def test_every_declared_metric_is_emitted_with_its_unit(tmp_path, w, trace, section):
    out = run_workload(w, seed=3, seconds=0.0, trace=trace, work=tmp_path,
                       trace_path=tmp_path / "trace.json.gz" if trace else None)
    result = out["result"]
    assert result["correct"], out["info"]["problems"]
    assert result["failed"] == 0 and result["attempted"] > 0
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == declared(section)
    assert all(np.isfinite(v["value"]) for v in result["metrics"].values())
    if trace:
        assert (tmp_path / "trace.json.gz").stat().st_size > 0


def test_corrupted_outputs_are_failures(tmp_path):
    inputs = setup(TINY, 1, tmp_path / "in")
    expected = np.linspace(-1.0, 1.0, TINY.predict_rows)
    pred = tmp_path / "pred.csv"
    rows = ["drug_id,cell_id,prediction"] + [
        f"{d},{c},{y!r}" for d, c, y in
        zip(inputs.req_drug_ids, inputs.req_cell_ids, expected.tolist())]
    pred.write_text("\n".join(rows) + "\n")
    assert check_predict(0, "", pred, inputs, expected) == []
    rows[7] = rows[7].rsplit(",", 1)[0] + ",0.125"  # one altered prediction
    pred.write_text("\n".join(rows) + "\n")
    assert check_predict(0, "", pred, inputs, expected)

    width = 1 + TINY.spec.smiles_dim + TINY.spec.ip_dim
    gen = tmp_path / "gen.csv"
    body = [",".join(["1"] + ["0.5"] * (width - 1))] * 4
    gen.write_text("\n".join([",".join(["component"] + ["x"] * (width - 1))] + body) + "\n")
    assert check_generate(0, "", gen, 1, 4, width) == []
    gen.write_text(gen.read_text()[:-40])  # truncated mid-row
    assert check_generate(0, "", gen, 1, 4, width)


def test_corrupted_output_is_counted_in_a_run(tmp_path, monkeypatch):
    real = workloads.run_cli

    def truncating(argv, tracer):
        rc, text, wall = real(argv, tracer)
        if argv[0] == "generate":
            out = Path(argv[argv.index("--out") + 1])
            out.write_text(out.read_text()[:-40])
        return rc, text, wall

    monkeypatch.setattr(workloads, "run_cli", truncating)
    result = run_workload(TINY, seed=2, seconds=0.0, trace=False,
                          work=tmp_path)["result"]
    assert not result["correct"]
    assert result["failed"] >= 2  # the generate in each pass


def test_step_count_drift_is_a_failure():
    tracer = Tracer()
    tracer.counts.update({"steps.joint": 10, "steps.dspn": 5})
    assert check_step_counts(tracer, {"joint": 10, "break": 0, "dspn": 5}) == []
    assert check_step_counts(tracer, {"joint": 10, "break": 8, "dspn": 5})


def test_seed_fixes_the_inputs(tmp_path):
    digests = []
    for name, seed in (("a", 5), ("b", 5), ("c", 6)):
        setup(TINY, seed, tmp_path / name)
        digests.append(tree_digest(tmp_path / name))
    assert digests[0] == digests[1]
    assert digests[0] != digests[2]


def test_no_result_without_sources(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "serve",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert proc.stdout == ""
