"""Data tests: k-means against the exhaustive-partition oracle, guiding
labels, CSV round-trips with precise error reporting, standardization
(including the train-only leakage check), and the planted structure of
the synthetic generator."""

import csv
import tempfile
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import vadeers.data
from vadeers.data import (
    Dataset,
    SynthSpec,
    apply_scaler,
    derive_guiding_labels,
    generate_synthetic,
    generate_synthetic_with_truth,
    json_fits,
    json_object,
    kmeans,
    load_csv,
    read_feature_csv,
    read_table,
    save_csv,
    standardize,
    write_table,
)
from vadeers.exceptions import ContractViolation, DataError
from vadeers.metrics import silhouette

from oracles import (
    csv_read_table,
    csv_write_table,
    exhaustive_kmeans_inertia,
    hungarian_agreement,
)

DESK = SynthSpec(smiles_dim=16, ip_dim=12, bio_dim=10, n_drugs=40,
                 n_profiled=24, n_cells=30)


# ---------------------------------------------------------------------------
# k-means
# ---------------------------------------------------------------------------

def test_kmeans_separable_pairs():
    pts = np.array([[0.0, 0.0], [0.2, 0.0], [10.0, 10.0], [10.2, 10.0]])
    labels, centroids, inertia = kmeans(pts, 2, seed=0)
    assert labels[0] == labels[1] and labels[2] == labels[3]
    assert labels[0] != labels[2]
    expected = 4 * 0.1**2  # within-pair spread
    assert abs(inertia - expected) < 1e-12


def test_kmeans_one_point_per_cluster():
    pts = np.random.default_rng(0).standard_normal((5, 3))
    _, _, inertia = kmeans(pts, 5, seed=1)
    assert inertia < 1e-20


def test_kmeans_matches_exhaustive_partition_oracle():
    rng = np.random.default_rng(2)
    for trial in range(5):
        pts = rng.standard_normal((6, 2))
        _, _, inertia = kmeans(pts, 2, seed=trial)
        best = exhaustive_kmeans_inertia(pts, 2)
        assert inertia <= best + 1e-9
        assert inertia >= best - 1e-9


def test_kmeans_deterministic_per_seed():
    pts = np.random.default_rng(3).standard_normal((30, 4))
    a = kmeans(pts, 3, seed=7)
    b = kmeans(pts, 3, seed=7)
    assert np.array_equal(a[0], b[0])
    assert np.array_equal(a[1], b[1])


def test_kmeans_bad_args():
    with pytest.raises(ContractViolation):
        kmeans(np.zeros((3, 2)), 4, seed=0)


# ---------------------------------------------------------------------------
# guiding labels
# ---------------------------------------------------------------------------

def test_paper_scale_label_shapes():
    spec = SynthSpec(n_drugs=304, n_profiled=117, n_cells=20,
                     smiles_dim=8, ip_dim=10, bio_dim=6, observance=0.5)
    dataset = generate_synthetic(spec, seed=4)
    labeled = derive_guiding_labels(dataset, n_labels=3, seed=4)
    labels = [d.guiding_label for d in labeled.drugs if d.guiding_label is not None]
    assert len(labels) == 117
    assert set(labels) <= {0, 1, 2}
    assert all(d.inhibition_profile is not None for d in labeled.drugs
               if d.guiding_label is not None)


def test_identical_profiles_log_warning(caplog):
    ids = [f"D{i}" for i in range(6)]
    dataset = Dataset.build((ids, np.zeros((6, 4))), (ids, np.ones((6, 5))),
                            (["C0"], np.zeros((1, 3))), ([], [], []))
    with caplog.at_level("WARNING"):
        labeled = derive_guiding_labels(dataset, n_labels=3, seed=0)
    assert "degenerate" in caplog.text
    got = {d.guiding_label for d in labeled.drugs}
    assert len(got) == 1  # single occupied cluster


def test_too_few_profiled_drugs():
    dataset = Dataset.build((["D0"], np.zeros((1, 4))), (["D0"], np.ones((1, 5))),
                            (["C0"], np.zeros((1, 3))), ([], [], []))
    with pytest.raises(DataError):
        derive_guiding_labels(dataset, n_labels=3, seed=0)


def test_derived_labels_recover_planted_clusters():
    dataset, truth = generate_synthetic_with_truth(DESK, seed=5)
    labeled = derive_guiding_labels(dataset, n_labels=3, seed=5)
    idx = {d.id: i for i, d in enumerate(labeled.drugs)}
    pred, planted = [], []
    for d in labeled.drugs:
        if d.guiding_label is not None:
            pred.append(d.guiding_label)
            planted.append(truth.planted_labels[idx[d.id]])
    agreement = hungarian_agreement(np.array(pred), np.array(planted), 3)
    assert agreement > 0.95


def test_labels_never_assigned_without_profile():
    dataset = generate_synthetic(DESK, seed=6)
    labeled = derive_guiding_labels(dataset, n_labels=3, seed=6)
    for d in labeled.drugs:
        if d.inhibition_profile is None:
            assert d.guiding_label is None


# ---------------------------------------------------------------------------
# CSV round-trips
# ---------------------------------------------------------------------------

def _tiny_tables():
    """The drug, profile and cell tables and the pair columns of a tiny
    dataset, as lists that a test may edit."""
    return [(["D0", "D1", "D2"], [[1.0, 2.5], [-0.25, 0.125], [3.0, -4.0]]),
            (["D0", "D2"], [[0.5, -1.5, 2.0], [1.0, 1.0, 1.0]]),
            (["C0", "C1"], [[0.0, 1.0, 0.5, 1.0], [1.0, 0.0, -0.25, 1.0]]),
            (["D0", "D0", "D1", "D2"], ["C0", "C1", "C0", "C1"],
             [1.25, -0.5, 0.75, 2.0])]


def _tiny_dataset():
    return Dataset.build(*_tiny_tables())


@pytest.mark.parametrize("edit, error, message", [
    (lambda t: t[0][0].append("D3"), ContractViolation,
     "drugs.csv: 4 ids for a matrix of shape (3, 2)"),
    (lambda t: t[2][1][1].__setitem__(2, np.inf), DataError,
     "cells.csv: row 2: non-finite value"),
    (lambda t: t[3][2].pop(), ContractViolation,
     "pair columns differ in length"),
    (lambda t: t[3][2].__setitem__(1, np.nan), DataError,
     "ic50.csv: row 2: non-finite sensitivity value for ('D0', 'C1')"),
], ids=["ids_and_rows", "non_finite_table_value", "pair_columns",
        "non_finite_pair_value"])
def test_build_rejects_tables_the_csv_reader_cannot_give(edit, error,
                                                         message):
    # read_table gives one id per row and finite values, so only a
    # library caller can give Dataset.build these
    tables = _tiny_tables()
    edit(tables)
    with pytest.raises(error) as err:
        Dataset.build(*tables)
    assert str(err.value) == message


def _same_pairs(a, b):
    return (np.array_equal(a.pair_drug, b.pair_drug)
            and np.array_equal(a.pair_cell, b.pair_cell)
            and np.array_equal(a.pair_y, b.pair_y))


def test_minimal_fixture_round_trips(tmp_path):
    dataset = _tiny_dataset()
    save_csv(dataset, tmp_path)
    loaded = load_csv(tmp_path)
    assert [d.id for d in loaded.drugs] == ["D0", "D1", "D2"]
    assert loaded.drugs[1].inhibition_profile is None
    assert np.array_equal(loaded.drugs[0].smiles_embedding,
                          dataset.drugs[0].smiles_embedding)
    assert _same_pairs(loaded, dataset)


def test_synthetic_export_import_exact(tmp_path):
    dataset = generate_synthetic(DESK, seed=7)
    save_csv(dataset, tmp_path, seed=7, generator_spec=DESK)
    loaded = load_csv(tmp_path)
    for a, b in zip(dataset.drugs, loaded.drugs):
        assert a.id == b.id
        assert np.array_equal(a.smiles_embedding, b.smiles_embedding)
        if a.inhibition_profile is not None:
            assert np.array_equal(a.inhibition_profile, b.inhibition_profile)
        else:
            assert b.inhibition_profile is None
    for a, b in zip(dataset.cells, loaded.cells):
        assert a.id == b.id and np.array_equal(a.features, b.features)
    assert _same_pairs(dataset, loaded)


def test_save_is_byte_deterministic(tmp_path):
    dataset = generate_synthetic(DESK, seed=8)
    save_csv(dataset, tmp_path / "a", seed=8, generator_spec=DESK)
    save_csv(dataset, tmp_path / "b", seed=8, generator_spec=DESK)
    for name in ("drugs.csv", "profiles.csv", "cells.csv", "ic50.csv",
                 "manifest.json"):
        assert (tmp_path / "a" / name).read_bytes() == \
            (tmp_path / "b" / name).read_bytes()


def test_unknown_drug_in_ic50_names_row(tmp_path):
    dataset = _tiny_dataset()
    save_csv(dataset, tmp_path)
    path = tmp_path / "ic50.csv"
    lines = path.read_text().splitlines()
    lines.insert(2, "DX,C0,1.0")
    path.write_text("\n".join(lines) + "\n")
    # keep the manifest count consistent so the id check is what fires
    with pytest.raises(DataError) as err:
        load_csv(tmp_path)
    assert "row 2" in str(err.value) and "DX" in str(err.value)


@pytest.mark.parametrize("row, problem", [
    ("D0,C0,3.0", "duplicate sensitivity entry for ('D0', 'C0')"),
    ("D0,CX,1.0", "references unknown cell 'CX'"),
    ("D1,C1,nan", "non-finite value"),
])
def test_bad_ic50_row_names_file_and_row(tmp_path, row, problem):
    save_csv(_tiny_dataset(), tmp_path)
    path = tmp_path / "ic50.csv"
    lines = path.read_text().splitlines()
    lines.insert(3, row)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(DataError) as err:
        load_csv(tmp_path)
    msg = str(err.value)
    assert msg.startswith("ic50.csv: row 3") and problem in msg


def _append_first_row(text):
    return text + text.splitlines()[1] + "\n"


@pytest.mark.parametrize("name, edit, message", [
    ("drugs.csv", _append_first_row, "drugs.csv: duplicate id 'D0' at row 4"),
    ("profiles.csv", _append_first_row,
     "profiles.csv: duplicate id 'D0' at row 3"),
    ("cells.csv", _append_first_row, "cells.csv: duplicate id 'C0' at row 3"),
    ("manifest.json", lambda t: t.replace('"n_drugs": 3', '"n_drugs": 4'),
     "drugs.csv: 3 rows, manifest says 4"),
    ("manifest.json", lambda t: t.replace('"n_profiled": 2', '"n_profiled": 1'),
     "profiles.csv: 2 rows, manifest says 1"),
    ("manifest.json", lambda t: t.replace('"n_cells": 2', '"n_cells": 3'),
     "cells.csv: 2 rows, manifest says 3"),
    ("manifest.json", lambda t: t.replace('"n_pairs": 4', '"n_pairs": 5'),
     "ic50.csv: 4 rows, manifest says 5"),
    ("profiles.csv", lambda t: t.replace("\nD2,", "\nDX,"),
     "profiles.csv: ids not present in drugs.csv: ['DX']"),
], ids=["drugs_repeat", "profiles_repeat", "cells_repeat", "drugs_count",
        "profiles_count", "cells_count", "ic50_count", "unknown_profile"])
def test_load_csv_single_fault_message(tmp_path, name, edit, message):
    save_csv(_tiny_dataset(), tmp_path)
    path = tmp_path / name
    text = path.read_text()
    path.write_text(edit(text))
    assert path.read_text() != text
    with pytest.raises(DataError) as err:
        load_csv(tmp_path)
    assert str(err.value) == message


def test_load_csv_peak_is_bounded(tmp_path):
    spec = SynthSpec(n_drugs=300, n_profiled=150, n_cells=500)
    save_csv(generate_synthetic(spec, seed=3), tmp_path, seed=3,
             generator_spec=spec)
    tracemalloc.start()
    try:
        dataset = load_csv(tmp_path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(dataset.pair_y) == 104_832
    # building the dataset through per-row records peaked at 16.75 MiB
    assert peak < 12 * 2**20


_IDS = st.text(alphabet="abXY09_-. ,\"", min_size=1, max_size=5)


@st.composite
def _datasets(draw):
    """Small datasets with random ids, widths, profiled drugs and observed
    pairs; values span the finite float64 range."""
    n_drugs, n_cells = draw(st.integers(1, 5)), draw(st.integers(1, 4))
    drug_ids = draw(st.lists(_IDS, min_size=n_drugs, max_size=n_drugs,
                             unique=True))
    cell_ids = draw(st.lists(_IDS, min_size=n_cells, max_size=n_cells,
                             unique=True))
    values = st.floats(allow_nan=False, allow_infinity=False)

    def matrix(n, width):
        return np.array(draw(st.lists(values, min_size=n * width,
                                      max_size=n * width))).reshape(n, width)

    emb = matrix(n_drugs, draw(st.integers(1, 3)))
    profiles = matrix(n_drugs, draw(st.integers(1, 3)))
    profiled = draw(st.lists(st.booleans(), min_size=n_drugs, max_size=n_drugs))
    feats = matrix(n_cells, draw(st.integers(1, 3)))
    observed = np.array(draw(st.lists(st.booleans(), min_size=n_drugs * n_cells,
                                      max_size=n_drugs * n_cells)),
                        dtype=bool).reshape(n_drugs, n_cells)
    rows, cols = np.nonzero(observed)
    keep = np.array(profiled, dtype=bool)
    return Dataset.build((drug_ids, emb),
                         (np.asarray(drug_ids, dtype=object)[keep].tolist(),
                          profiles[keep]),
                         (cell_ids, feats),
                         (np.asarray(drug_ids)[rows], np.asarray(cell_ids)[cols],
                          matrix(len(rows), 1)[:, 0]))


@settings(max_examples=50, deadline=None)
@given(_datasets())
def test_csv_round_trip_is_exact(dataset):
    with tempfile.TemporaryDirectory() as directory:
        save_csv(dataset, directory)
        loaded = load_csv(directory)
    assert loaded.drug_ids == dataset.drug_ids
    assert loaded.cell_ids == dataset.cell_ids
    for name in ("embeddings", "profiles", "profile_mask", "labels",
                 "features", "pair_drug", "pair_cell", "pair_y"):
        a, b = getattr(loaded, name), getattr(dataset, name)
        assert a.shape == b.shape and np.array_equal(a, b), name


def test_non_numeric_cell_names_file_row_col(tmp_path):
    dataset = _tiny_dataset()
    save_csv(dataset, tmp_path)
    path = tmp_path / "cells.csv"
    lines = path.read_text().splitlines()
    first = lines[1].split(",")
    first[2] = "oops"
    lines[1] = ",".join(first)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(DataError) as err:
        load_csv(tmp_path)
    msg = str(err.value)
    assert "cells.csv" in msg and "row 1" in msg and "f1" in msg


def test_nan_rejected(tmp_path):
    dataset = _tiny_dataset()
    save_csv(dataset, tmp_path)
    path = tmp_path / "drugs.csv"
    text = path.read_text().replace("2.5", "nan")
    path.write_text(text)
    with pytest.raises(DataError) as err:
        load_csv(tmp_path)
    assert "non-finite" in str(err.value)


def test_duplicate_id_rejected(tmp_path):
    dataset = _tiny_dataset()
    save_csv(dataset, tmp_path)
    path = tmp_path / "drugs.csv"
    lines = path.read_text().splitlines()
    lines.append(lines[1])
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(DataError) as err:
        load_csv(tmp_path)
    assert "duplicate" in str(err.value)


def test_width_mismatch_rejected(tmp_path):
    dataset = _tiny_dataset()
    save_csv(dataset, tmp_path)
    manifest = (tmp_path / "manifest.json")
    manifest.write_text(manifest.read_text().replace('"smiles_dim": 2',
                                                     '"smiles_dim": 3'))
    with pytest.raises(DataError) as err:
        load_csv(tmp_path)
    assert "3" in str(err.value)


# ---------------------------------------------------------------------------
# CSV codec parity with the csv-module oracle
# ---------------------------------------------------------------------------

_EDGE_FLOATS = [-0.0, 5e-324, 1e-05, 1e+16, 1.7976931348623157e308,
                -1.7976931348623157e308]


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_write_table_bytes_match_csv_writer(data):
    n_ids = data.draw(st.integers(1, 2))
    width = data.draw(st.integers(0, 4))
    n = data.draw(st.integers(0, 12))
    ids = st.one_of(_IDS, st.integers(-2, 3))
    columns = [data.draw(st.lists(ids, min_size=n, max_size=n))
               for _ in range(n_ids)]
    floats = st.one_of(st.floats(), st.sampled_from(_EDGE_FLOATS))
    values = np.array(data.draw(st.lists(floats, min_size=n * width,
                                         max_size=n * width)),
                      dtype=np.float64).reshape(n, width)
    header = [f"id{k}" for k in range(n_ids)] + [f"v{i}" for i in range(width)]
    with tempfile.TemporaryDirectory() as directory:
        got, want = Path(directory, "got.csv"), Path(directory, "want.csv")
        with patch.object(vadeers.data, "WRITE_CHUNK_VALUES",
                          data.draw(st.integers(1, 8))):
            write_table(got, header, columns, values)
        csv_write_table(want, header, columns, values)
        assert got.read_bytes() == want.read_bytes()


_TOKENS = st.one_of(
    st.floats(allow_nan=False).map(repr),
    st.sampled_from([repr(x) for x in _EDGE_FLOATS]),
    st.sampled_from(["1", " 1.5 ", "+1e3", "1E-2", ".5", "5.", "1_5", "nan",
                     "-inf", "Infinity", "1e500", "\uff11.\uff15",
                     "\xa01.5", "1.5\v", "", " ", "oops", "1d5", "0x10",
                     '"1.5"', '"1,5"', "1 5", "#2", " 2"]),
)
_PLAIN_IDS = st.text(alphabet="abXY09_-. #", min_size=1, max_size=5)


@st.composite
def _table_texts(draw):
    """CSV text for a table of ``n_ids`` id columns and ``width`` floats:
    mostly well-formed, with drawn blank lines, short and long rows,
    quoted fields, odd spellings and mixed row ends."""
    n_ids, width = draw(st.integers(1, 2)), draw(st.integers(0, 3))
    header = [f"id{k}" for k in range(n_ids)] + [f"v{i}" for i in range(width)]
    row_end = draw(st.sampled_from(["\n", "\r\n"]))
    defects = draw(st.booleans())

    def rare():
        return defects and draw(st.integers(0, 4)) == 0

    lines = [",".join(header)]
    for _ in range(draw(st.integers(0, 6))):
        ids = _IDS if rare() else _PLAIN_IDS
        fields = draw(st.lists(ids, min_size=n_ids, max_size=n_ids))
        if rare():
            fields = [f'"{f}"' if '"' not in f else f for f in fields]
        fields += [draw(_TOKENS) if rare() else repr(draw(st.floats()))
                   for _ in range(width)]
        if rare():
            kind = draw(st.sampled_from(["blank", "short", "long"]))
            if kind == "blank":
                fields = []
            elif kind == "short":
                fields = fields[:draw(st.integers(1, max(1, len(fields) - 1)))]
            else:
                fields.append(draw(_TOKENS))
        lines.append(",".join(fields))
    text = "".join(line + (draw(st.sampled_from(["\n", "\r\n", "\r"]))
                           if rare() else row_end) for line in lines)
    if draw(st.booleans()):
        text = text.rstrip("\r\n")
    if rare():
        text = "\ufeff" + text
    return n_ids, width, text


def _read_outcome(read, path, n_ids, width):
    """``read``'s ids and value bits, or its error's type and text."""
    try:
        ids, values = read(path, n_ids, width)
    except Exception as exc:  # any outcome is compared, errors included
        return type(exc).__name__, str(exc)
    return ids, values.shape, values.view(np.int64).tolist()


def _assert_read_matches_csv_reader(case):
    n_ids, width, text = case
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory, "t.csv")
        path.write_text(text, encoding="utf-8", newline="")
        assert (_read_outcome(read_table, path, n_ids, width)
                == _read_outcome(csv_read_table, path, n_ids, width))


@settings(max_examples=300, deadline=None)
@given(_table_texts())
def test_read_table_matches_csv_reader(case):
    _assert_read_matches_csv_reader(case)


@settings(max_examples=300, deadline=None)
@given(_table_texts())
def test_read_table_in_one_line_chunks_matches_csv_reader(case):
    # a one-byte chunk is completed to one whole line, so every table
    # with a row crosses chunk boundaries
    with patch.object(vadeers.data, "READ_CHUNK_BYTES", 1):
        _assert_read_matches_csv_reader(case)


@pytest.mark.parametrize("n_ids, width, text", [
    (2, 0, "a,b\nx,y,z\nw\n"),
    (1, 0, "\nD1\n"),
    (1, 2, "id,e0\nD1,1,2,3\n"),
    (2, 0, "a,b,c\nx\n"),
], ids=["long_and_short_row", "blank_header", "short_header_long_row",
        "long_header_short_row"])
def test_offsetting_field_counts_match_csv_reader(n_ids, width, text):
    # each passes a count of the commas in the whole text
    _assert_read_matches_csv_reader((n_ids, width, text))


def test_pair_table_shares_id_strings_in_bounded_memory(tmp_path):
    rng = np.random.default_rng(7)
    drugs = [f"D{i}" for i in range(300)]
    cells = [f"C{i}" for i in range(400)]
    drug_col = np.asarray(drugs, dtype=object)[rng.integers(0, 300, 100_000)]
    cell_col = np.asarray(cells, dtype=object)[rng.integers(0, 400, 100_000)]
    path = tmp_path / "ic50.csv"
    write_table(path, ["drug_id", "cell_id", "ic50"], [drug_col, cell_col],
                rng.standard_normal((100_000, 1)))
    tracemalloc.start()
    try:
        (got_drugs, got_cells), values = read_table(path, 2, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got_drugs == drug_col.tolist() and got_cells == cell_col.tolist()
    assert values.shape == (100_000, 1)
    for column in (got_drugs, got_cells):
        first = {}
        assert all(first.setdefault(i, i) is i for i in column)
    # reading the whole text at once held about 37 MiB
    assert peak < 8 * 2**20


@pytest.mark.parametrize("row_end", ["\n", "\r\n", "\r"],
                         ids=["lf", "crlf", "cr"])
def test_non_utf8_names_line_of_first_bad_byte(tmp_path, row_end):
    path = tmp_path / "t.csv"
    path.write_bytes(row_end.join(["id,e0", "D1,1", "D\xe92,2", ""])
                     .encode("latin-1"))
    with pytest.raises(DataError, match="^t.csv: line 3: byte 0xe9 is not "
                                        "UTF-8 text$"):
        read_table(path, 1, 1)


def test_field_over_csv_limit_names_row(tmp_path):
    limit = csv.field_size_limit()
    path = tmp_path / "t.csv"
    path.write_text(f'id,e0\nD1,1\n"{"x" * (limit + 1)}",2\n')
    with pytest.raises(DataError, match=f"^t.csv: row 2: field larger than "
                                        f"field limit \\({limit}\\)$"):
        read_table(path, 1, 1)
    assert csv.field_size_limit() == limit


def _read_text(tmp_path, text):
    path = tmp_path / "t.csv"
    path.write_bytes(text.encode("utf-8"))
    want = _read_outcome(csv_read_table, path, 1, 2)
    assert _read_outcome(read_table, path, 1, 2) == want
    return read_feature_csv(path, 2)


@pytest.mark.parametrize("text", [
    "id,e0,e1\nD0,1,2\n\nD1,3,4\n",
    "id,e0,e1\nD0,1,2\n\n",
    "id,e0,e1\r\nD0,1,2\r\n\r\n",
], ids=["middle", "end", "end_crlf"])
def test_blank_line_rejected(tmp_path, text):
    with pytest.raises(DataError, match="^t.csv: row 2, column id: row has "
                                        "0 fields, expected 3$"):
        _read_text(tmp_path, text)


def test_header_only_gives_empty_table_without_warning(tmp_path):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ids, values = _read_text(tmp_path, "id,e0,e1\r\n")
    assert ids == [] and values.shape == (0, 2)


def test_bare_cr_ends_a_row(tmp_path):
    # a table of ids only: no float parse can reject a misread row
    path = tmp_path / "t.csv"
    path.write_bytes(b"id\rD1\rD2\r\n")
    ids, values = read_table(path, 1, 0)
    assert ids == csv_read_table(path, 1, 0)[0] == [["D1", "D2"]]
    assert values.shape == (2, 0)


@pytest.mark.parametrize("text, ids, values", [
    ("id,e0,e1\n#D1,1,2\n", ["#D1"], [1.0, 2.0]),
    ("id,e0,e1\n D1 , 1 ,2\n", [" D1 "], [1.0, 2.0]),
    ('id,e0,e1\nD1,"1.5",2\n', ["D1"], [1.5, 2.0]),
    ('id,e0,e1\n"D,1",1.5,2\n', ["D,1"], [1.5, 2.0]),
    ("\ufeffid,e0,e1\nD1,1.5,2\n", ["D1"], [1.5, 2.0]),
    ("id,e0,e1\nD1,1.5,2", ["D1"], [1.5, 2.0]),
    ("id,e0,e1\r\nD1,1.5,2\r\nD2,-0.0,5e-324\r\n", ["D1", "D2"],
     [1.5, 2.0, -0.0, 5e-324]),
    ("id,e0,e1\nD1,1_5,2\n", ["D1"], [15.0, 2.0]),
], ids=["hash_id", "spaced_id", "quoted_number", "quoted_id", "bom",
        "no_final_newline", "crlf", "underscore"])
def test_accepted_spellings(tmp_path, text, ids, values):
    got_ids, got = _read_text(tmp_path, text)
    assert got_ids == ids
    assert got.ravel().view(np.int64).tolist() == \
        np.array(values).view(np.int64).tolist()


# ---------------------------------------------------------------------------
# standardization
# ---------------------------------------------------------------------------

def test_standardize_train_columns_centered():
    dataset = generate_synthetic(DESK, seed=9)
    train_cells = {c.id for c in dataset.cells[:20]}
    std, scaler = standardize(dataset, train_cells)
    emb = std.embedding_matrix()
    assert std.feature_matrix() is std.features
    assert np.max(np.abs(emb.mean(axis=0))) < 1e-10
    assert np.max(np.abs(emb.std(axis=0) - 1.0)) < 1e-10
    feats = np.stack([c.features for c in std.cells if c.id in train_cells])
    cont = ~scaler.cell_binary
    assert np.max(np.abs(feats[:, cont].mean(axis=0))) < 1e-10
    assert np.max(np.abs(feats[:, cont].std(axis=0) - 1.0)) < 1e-10
    # binary columns untouched
    assert set(np.unique(feats[:, scaler.cell_binary])) <= {0.0, 1.0}
    train_vals = np.array([
        v for c, v in zip(std.pair_cell, std.pair_y)
        if std.cell_ids[c] in train_cells
    ])
    assert abs(train_vals.mean()) < 1e-10
    assert abs(train_vals.std() - 1.0) < 1e-10


def test_standardize_inverse_round_trip():
    dataset = generate_synthetic(DESK, seed=10)
    train_cells = {c.id for c in dataset.cells[:20]}
    _, scaler = standardize(dataset, train_cells)
    rng = np.random.default_rng(11)
    rows = rng.standard_normal((5, DESK.ip_dim)) * 20 + 50
    assert np.max(np.abs(scaler.inverse_ip(scaler.transform_ip(rows)) - rows)) \
        < 1e-12
    emb = rng.standard_normal((5, DESK.smiles_dim))
    assert np.max(np.abs(
        scaler.inverse_embedding(scaler.transform_embedding(emb)) - emb)) < 1e-12
    vals = rng.standard_normal(20)
    assert np.max(np.abs(scaler.inverse_ic50(scaler.transform_ic50(vals))
                         - vals)) < 1e-12


def test_standardize_no_leakage_into_held_out_cells():
    dataset = generate_synthetic(DESK, seed=12)
    train_cells = {c.id for c in dataset.cells[:20]}
    std, scaler = standardize(dataset, train_cells)
    held = np.stack([c.features for c in std.cells if c.id not in train_cells])
    cont = ~scaler.cell_binary
    assert np.max(np.abs(held[:, cont].mean(axis=0))) > 1e-3


def test_apply_scaler_non_finite_value_names_pair():
    dataset = generate_synthetic(DESK, seed=13)
    _, scaler = standardize(dataset, {c.id for c in dataset.cells[:20]})
    k = len(dataset.pair_y) // 2
    y = dataset.pair_y.copy()
    y[k] = 1e308
    dataset = replace(dataset, pair_y=y)
    key = (dataset.drug_ids[dataset.pair_drug[k]],
           dataset.cell_ids[dataset.pair_cell[k]])
    with np.errstate(over="ignore"), \
            pytest.raises(DataError, match="non-finite sensitivity") as err:
        apply_scaler(dataset, replace(scaler, ic50_std=0.5))
    assert repr(key) in str(err.value)


@pytest.mark.parametrize("table, std_field, name, prefix", [
    ("embeddings", "embedding_std", "drugs.csv", "e"),
    ("profiles", "ip_std", "profiles.csv", "k"),
    ("features", "cell_std", "cells.csv", "f"),
])
def test_apply_scaler_names_the_value_that_overflows(table, std_field, name,
                                                     prefix):
    dataset = generate_synthetic(DESK, seed=13)
    _, scaler = standardize(dataset, {c.id for c in dataset.cells[:20]})
    r = int(np.flatnonzero(dataset.profile_mask)[1])
    j = int(np.flatnonzero(~scaler.cell_binary)[1])
    values = getattr(dataset, table).copy()
    values[r, j] = 1e300
    std = getattr(scaler, std_field).copy()
    std[j] = 1e-12
    row = (f"the row of drug {dataset.drug_ids[r]!r}" if table == "profiles"
           else f"row {r + 1}")
    with pytest.raises(DataError) as err:
        apply_scaler(replace(dataset, **{table: values}),
                     replace(scaler, **{std_field: std}))
    assert str(err.value) == (f"{name}: {row}, column {prefix}{j}: "
                              f"non-finite value after standardization")


def test_scaler_statistic_that_overflows_names_file_and_column():
    dataset = generate_synthetic(DESK, seed=13)
    features = dataset.features.copy()
    j = int(np.flatnonzero(features.std(axis=0) > 0)[-1])
    features[::2, j] = 1.7e308
    with pytest.raises(DataError, match=f"^cells.csv: column f{j}: the mean "
                                        f"or standard deviation overflows"):
        standardize(replace(dataset, features=features),
                    set(dataset.cell_ids))


def test_zero_variance_column_warns(caplog):
    ids, cells = [f"D{i}" for i in range(4)], [f"C{j}" for j in range(4)]
    x = np.arange(4.0)
    dataset = Dataset.build(
        (ids, np.column_stack([np.ones(4), x])),
        (ids, np.column_stack([x, np.full(4, 2.0), 2 * x])),
        (cells, np.column_stack([np.full(4, 0.5), x])), (ids, cells, x))
    with caplog.at_level("WARNING"):
        std, scaler = standardize(dataset, {"C0", "C1", "C2", "C3"})
    assert "zero-variance" in caplog.text
    assert scaler.embedding_std[0] == 1.0


def test_constant_sensitivities_are_left_unscaled(caplog):
    tables = _tiny_tables()
    tables[3] = (*tables[3][:2], [0.5] * 4)
    with caplog.at_level("WARNING"):
        std, scaler = standardize(Dataset.build(*tables), {"C0", "C1"})
    assert "zero-variance sensitivity values left unscaled" in caplog.text
    assert scaler.ic50_std == 1.0 and not std.pair_y.any()


# ---------------------------------------------------------------------------
# JSON records
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("value, hint, fits", [
    (1, float, True), (True, float, False), (1.0, int, False),
    (True, bool, True), (None, int | None, True), ("x", int | None, False),
    ([1, 2], tuple[int, ...], True), ([1, 2.5], list[int], False),
    ([], list[str], True), ("x", list[str], False), ([[1]], list[int], False),
    ({"a": 1}, dict[str, int], True), ({"a": True}, dict[str, int], False),
    ({"a": ["x"]}, dict[str, list[str]], True),
    ({"a": [1]}, dict[str, list[str]], False),
    (None, dict[str, int] | None, True), ([1], dict[str, int] | None, False),
])
def test_json_fits(value, hint, fits):
    assert json_fits(value, hint) is fits


@pytest.mark.parametrize("raw, message", [
    (b'{\n"a": "caf\xe9"}', "here: line 2: byte 0xe9 is not UTF-8 text"),
    (b'{"a": 1,', "here: invalid JSON: "),
    (b"[1]", "here is not a JSON object"),
    (b'{"format_version": 2}', "here: format_version 2 != supported 1"),
    (b"{}", "here: format_version None != supported 1"),
    (b"[" * 100_000, "here: invalid JSON: "),
], ids=["not_utf8", "truncated", "list", "version", "no_version", "deep"])
def test_json_object_errors_name_where(raw, message):
    with pytest.raises(DataError) as err:
        json_object(raw, "here", version=1)
    assert str(err.value).startswith(message), err.value


def test_json_object_reads_an_object():
    assert json_object(b'{"format_version": 1, "a": [1]}', "here",
                       version=1) == {"format_version": 1, "a": [1]}


# ---------------------------------------------------------------------------
# synthetic generator
# ---------------------------------------------------------------------------

def test_planted_ip_clusters_have_positive_silhouette():
    dataset, truth = generate_synthetic_with_truth(DESK, seed=13)
    rows, labs = [], []
    idx = {d.id: i for i, d in enumerate(dataset.drugs)}
    for d in dataset.drugs:
        if d.inhibition_profile is not None:
            rows.append(d.inhibition_profile)
            labs.append(truth.planted_labels[idx[d.id]])
    assert silhouette(np.stack(rows), np.array(labs)) > 0.3


def test_zero_noise_collapses_clusters():
    spec = SynthSpec(smiles_dim=8, ip_dim=6, bio_dim=6, n_drugs=20,
                     n_profiled=12, n_cells=10, ip_noise=0.0,
                     ip_factor_coupling=0.0, emb_noise=0.0, cell_noise=0.0,
                     ic50_noise=0.0)
    dataset, truth = generate_synthetic_with_truth(spec, seed=14)
    idx = {d.id: i for i, d in enumerate(dataset.drugs)}
    by_cluster = {}
    for d in dataset.drugs:
        if d.inhibition_profile is not None:
            by_cluster.setdefault(
                truth.planted_labels[idx[d.id]], []).append(d.inhibition_profile)
    for rows in by_cluster.values():
        for row in rows[1:]:
            assert np.array_equal(row, rows[0])


def test_full_observance_fills_table():
    spec = SynthSpec(smiles_dim=8, ip_dim=6, bio_dim=6, n_drugs=10,
                     n_profiled=5, n_cells=7, observance=1.0)
    dataset = generate_synthetic(spec, seed=15)
    assert len(dataset.pair_y) == 10 * 7


def test_sensitivity_depends_on_both_factors():
    dataset, truth = generate_synthetic_with_truth(DESK, seed=16)
    # cyclic shift: every cell gets a different factor (no fixed points)
    perm = np.roll(np.arange(truth.cell_factors.shape[0]), 1)
    shuffled = (truth.drug_factors @ truth.cell_factors[perm].T) \
        / np.sqrt(DESK.factor_dim) \
        + truth.cluster_effects[truth.planted_labels][:, None]
    delta = np.abs(shuffled - truth.interaction)
    changed = np.mean(delta > DESK.ic50_noise)
    assert changed > 0.9
