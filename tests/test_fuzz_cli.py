"""Bounded fuzz of the CLI's JSON records: a checkpoint, a dataset
manifest and a config file, each mutated by Hypothesis and run through
``vadeers.cli.main`` in process; and a differential check of the two CSV
readers on generated text.

Whatever the mutation, the command exits 0, 1, 2 or 3, prints no
traceback, and an exit-2 message names the file that was read.  Where
the plain-text reader accepts a text, the csv-module reader gives the
same table.  The examples are derandomized so that a run is repeatable;
raise ``max_examples`` in ``FUZZ`` to search longer."""

import contextlib
import io
import json
import shutil
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vadeers import data as vdata
from vadeers.cli import main
from vadeers.data import write_table
from vadeers.training import CHECKPOINT_MAGIC

FUZZ = settings(max_examples=150, deadline=None, derandomize=True,
                database=None)

CONFIG = {
    "seed": 1,
    "variant": "gmm_constrained",
    "model": {"latent_dim": 4, "dvae_encoder_dims": [16, 8],
              "decoder_dims": [8, 16], "dspn_dims": [32, 16, 8]},
    "schedule": {"joint_epochs": 1, "dspn_epochs": 1, "batch_size": 64},
    "split": {"n_val_cells": 4, "n_test_cells": 4},
}

# JSON values of any type; ints stay small, so a value that fits its
# field sizes no large allocation
JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 40) | st.floats()
    | st.text(max_size=4),
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text(max_size=3), inner, max_size=3)),
    max_leaves=5)
# JSON values that fit no config field, so that no mutated config starts
# a longer training than CONFIG's
WRONG = (st.booleans() | st.text(min_size=1, max_size=4)
         | st.floats()
         | st.lists(st.text(max_size=2), min_size=1, max_size=2)
         | st.dictionaries(st.text(max_size=3), st.integers(-3, 3),
                           min_size=1, max_size=2))


def run(*argv):
    """Exit code and printed text of one in-process CLI call."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        code = main([str(a) for a in argv])
    return code, out.getvalue()


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    """A dataset, a 1+1-epoch checkpoint trained on it, and input CSVs
    for ``predict``."""
    root = tmp_path_factory.mktemp("fuzz")
    assert run("synth", "--out", root / "data", "--seed", "0",
               "--n-drugs", "24", "--n-profiled", "12", "--n-cells", "20",
               "--observance", "0.8")[0] == 0
    (root / "config.json").write_text(json.dumps(CONFIG))
    assert run("train", "--data", root / "data", "--config",
               root / "config.json", "--out", root / "run")[0] == 0
    write_table(root / "drugs_in.csv", ["id"] + [f"e{i}" for i in range(32)],
                [["D000"]], np.zeros((1, 32)))
    write_table(root / "cells_in.csv", ["id"] + [f"f{i}" for i in range(20)],
                [["C000"]], np.zeros((1, 20)))
    shutil.copytree(root / "data", root / "mdata")
    return root


def _check(code, text, *names):
    assert code in (0, 1, 2, 3), text
    assert "Traceback" not in text, text
    if code == 2:
        assert any(name.name in text for name in names), text


# ---------------------------------------------------------------------------
# checkpoint
# ---------------------------------------------------------------------------

def _header(raw):
    """(start, size) of a checkpoint's JSON header."""
    n = len(CHECKPOINT_MAGIC)
    return n + 8, int.from_bytes(raw[n: n + 8], "little")


def _serve(work, raw, command):
    """Run ``command`` on the checkpoint bytes ``raw``."""
    path = work / "bad.bin"
    path.write_bytes(raw)
    args = {"generate": ["--n", "5"], "evaluate": ["--data", work / "data"],
            "predict": ["--drugs", work / "drugs_in.csv",
                        "--cells", work / "cells_in.csv"]}[command]
    _check(*run(command, "--checkpoint", path, *args,
                "--out", work / "out" / command), path)


COMMANDS = st.sampled_from(["generate", "evaluate", "predict"])


@FUZZ
@given(data=st.data(), command=COMMANDS)
def test_checkpoint_bytes(work, data, command):
    raw = (work / "run" / "checkpoint.bin").read_bytes()
    start, size = _header(raw)
    kind = data.draw(st.sampled_from(["flip_header", "flip_any", "truncate",
                                      "length"]))
    if kind == "truncate":
        raw = raw[:data.draw(st.integers(0, len(raw) - 1))]
    elif kind == "length":
        new = data.draw(st.integers(0, len(raw) + 64) | st.integers(0, 2**64 - 1))
        raw = raw[:start - 8] + new.to_bytes(8, "little") + raw[start:]
    else:
        at = data.draw(st.integers(start, start + size - 1) if kind == "flip_header"
                       else st.integers(0, len(raw) - 1))
        raw = (raw[:at] + bytes([raw[at] ^ data.draw(st.integers(1, 255))])
               + raw[at + 1:])
    _serve(work, raw, command)


@FUZZ
@given(data=st.data(), command=COMMANDS, value=JSON)
def test_checkpoint_header_values(work, data, command, value):
    raw = (work / "run" / "checkpoint.bin").read_bytes()
    start, size = _header(raw)
    header = json.loads(raw[start: start + size])
    targets = ([("config", k) for k in header["config"]]
               + [("scaler", k) for k in header["scaler"]]
               + [("guiding_labels",), ("guiding_labels", "D000"),
                  ("split_cells",), ("split_cells", "train"),
                  ("split_cells", "test"), ("seed",)])
    *parents, key = data.draw(st.sampled_from(targets))
    record = header
    for parent in parents:
        record = record[parent]
    record[key] = value
    blob = json.dumps(header, sort_keys=True).encode()
    _serve(work, CHECKPOINT_MAGIC + len(blob).to_bytes(8, "little") + blob
           + raw[start + size:], command)


# ---------------------------------------------------------------------------
# manifest and config file
# ---------------------------------------------------------------------------

def _mutated_text(data, text):
    """``text`` as bytes, truncated or with one byte that is not UTF-8
    inserted, or None for a mutation of a value instead."""
    kind = data.draw(st.sampled_from(["truncate", "not_utf8", "value"]))
    raw = text.encode()
    if kind == "truncate":
        return raw[:data.draw(st.integers(0, len(raw) - 1))]
    if kind == "not_utf8":
        at = data.draw(st.integers(0, len(raw)))
        return raw[:at] + bytes([data.draw(st.integers(0x80, 0xff))]) + raw[at:]
    return None


@FUZZ
@given(data=st.data(), value=JSON)
def test_manifest(work, data, value):
    path = work / "mdata" / "manifest.json"
    text = (work / "data" / "manifest.json").read_text()
    raw = _mutated_text(data, text)
    if raw is None:
        manifest = json.loads(text)
        manifest[data.draw(st.sampled_from(sorted(manifest)))] = value
        raw = json.dumps(manifest).encode()
    path.write_bytes(raw)
    code, printed = run("evaluate", "--checkpoint",
                        work / "run" / "checkpoint.bin", "--data", path.parent,
                        "--out", work / "out" / "manifest")
    # a count or width the CSV files disagree with is named at the CSV file
    _check(code, printed, path, *(path.parent / f"{name}.csv"
                                  for name in ("drugs", "profiles", "cells",
                                               "ic50")))


@FUZZ
@given(data=st.data(), value=WRONG)
def test_config(work, data, value):
    path = work / "bad_config.json"
    text = json.dumps(CONFIG)
    raw = _mutated_text(data, text)
    if raw is None:
        config = json.loads(text)
        section = data.draw(st.sampled_from(sorted(config)))
        if isinstance(config[section], dict) and data.draw(st.booleans()):
            config[section][data.draw(st.sampled_from(sorted(config[section])))] \
                = value
        else:
            config[section] = value
        raw = json.dumps(config).encode()
    path.write_bytes(raw)
    _check(*run("train", "--data", work / "data", "--config", path,
                "--out", work / "out" / "config"), path)


# ---------------------------------------------------------------------------
# the two CSV readers
# ---------------------------------------------------------------------------

# spellings that float() or np.loadtxt may read differently, or not at all
FLOAT_SPELLINGS = ["1e5", "+.5", "-0", " 1", "1 ", "nan", "-nan", "inf",
                   "-Infinity", "1E-3", "1_0", ".", "", "1e400", "0x10",
                   "\u0661", "\xa01", "1\t", "+-1", "2.50"]
# ids of one text are all plain or all drawn from the csv metacharacters
IDS = st.sampled_from([st.text(alphabet="ab1 ", max_size=4),
                       st.text(alphabet='ab1 ,"\r', max_size=4)])
FIELD = st.sampled_from(FLOAT_SPELLINGS) | st.floats().map(repr)


@st.composite
def csv_texts(draw):
    """(text, n_ids, n_cols, chunk): CSV text of ``n_cols`` header fields
    and rows of ``n_ids`` ids and floats, each field as drawn, so that an
    id holding a quote or a comma stays raw; rows end in ``\r\n`` or
    ``\n``; ``chunk`` is a read size that puts chunk edges anywhere."""
    n_ids = draw(st.integers(1, 2))
    n_cols = n_ids + draw(st.integers(0, 3))
    id_text = draw(IDS)
    lines = [",".join(f"h{k}" for k in range(n_cols))]
    for _ in range(draw(st.integers(0, 6))):
        ids = [draw(id_text) for _ in range(n_ids)]
        lines.append(",".join(ids + [draw(FIELD)
                                     for _ in range(n_cols - n_ids)]))
    ends = [draw(st.sampled_from(["\n", "\r\n"])) for _ in lines]
    if not draw(st.booleans()):
        ends[-1] = ""
    text = "".join(line + end for line, end in zip(lines, ends))
    return text, n_ids, n_cols, draw(st.integers(1, len(text) + 1))


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(case=csv_texts())
def test_plain_reader_agrees_with_the_csv_module(case):
    text, n_ids, n_cols, chunk = case
    with mock.patch.object(vdata, "READ_CHUNK_BYTES", chunk):
        plain = vdata._parse_plain(io.StringIO(text, newline=""), n_ids,
                                   n_cols)
    if plain is None:
        return
    header, ids, values = vdata._parse_csv_module(
        "t.csv", io.StringIO(text, newline=""), n_ids, n_cols)
    assert plain[0] == header
    assert plain[1] == ids
    assert plain[2].shape == values.shape
    assert plain[2].tobytes() == values.tobytes()
