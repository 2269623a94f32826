import json
import os

import numpy as np
import pytest

from riesz import fieldio
from riesz.fieldio import atomic_write_text, dump_field, load_field
from riesz.grid import Field, GridSpec, random_band_limited


def test_dump_and_load_round_trip(tmp_path):
    g = GridSpec(1, 128, 8.0)
    f = random_band_limited(g, 2.0, np.random.default_rng(1))
    base = str(tmp_path / "field")
    csv_path, json_path = dump_field(f, base)
    assert os.path.exists(csv_path) and os.path.exists(json_path)
    back = load_field(base)
    assert back.grid == g
    assert back.domain == "spatial"
    assert np.array_equal(back.samples, f.samples)


def test_dump_and_load_2d(tmp_path):
    g = GridSpec(2, 16, 4.0)
    f = random_band_limited(g, 1.0, np.random.default_rng(2))
    base = str(tmp_path / "field2")
    dump_field(f, base)
    back = load_field(base)
    assert np.array_equal(back.samples, f.samples)


def test_manifest_contents(tmp_path):
    g = GridSpec(1, 64, 4.0)
    f = random_band_limited(g, 1.0, np.random.default_rng(3))
    _, json_path = dump_field(f, str(tmp_path / "field"))
    with open(json_path) as handle:
        meta = json.load(handle)
    assert meta["dim"] == 1 and meta["size"] == 64
    assert meta["domain"] == "spatial"
    assert meta["spacing"] == pytest.approx(g.h)
    assert "index" in meta["layout"]


def test_atomic_write_leaves_no_temp(tmp_path):
    path = str(tmp_path / "out.txt")
    atomic_write_text(path, "hello\n")
    assert open(path).read() == "hello\n"
    assert not os.path.exists(path + ".tmp")


def test_failed_write_leaves_neither_file_nor_temp(tmp_path):
    path = str(tmp_path / "out.txt")
    with pytest.raises(TypeError):
        atomic_write_text(path, 123)
    assert os.listdir(tmp_path) == []


def test_dump_field_leaves_no_temp(tmp_path):
    g = GridSpec(2, 16, 4.0)
    dump_field(random_band_limited(g, 1.0, np.random.default_rng(5)), str(tmp_path / "f"))
    assert sorted(os.listdir(tmp_path)) == ["f.csv", "f.json"]


def test_streamed_csv_is_one_repr_per_sample(tmp_path, monkeypatch):
    # 64 rows in blocks of 7 split unevenly; the text must be the same as
    # formatting every sample at once
    monkeypatch.setattr(fieldio, "_DUMP_ROWS", 7)
    special = [-0.0, 1e-5, 1e16, 5e-324, np.inf, -np.inf, np.nan, -1.5, 0.1, 2.0 / 3.0]
    values = np.empty(64, np.complex128)
    values.real = np.resize(special, 64)
    values.imag = np.random.default_rng(6).permutation(values.real)
    f = Field.spatial(GridSpec(2, 8, 2.0), values.reshape(8, 8))
    csv_path, _ = dump_field(f, str(tmp_path / "special"))
    lines = ["index,re,im"] + [f"{j},{float(v.real)!r},{float(v.imag)!r}"
                               for j, v in enumerate(f.samples.ravel())]
    assert open(csv_path).read() == "\n".join(lines) + "\n"
    # a non-finite sample is written as it is but not read back; the finite
    # specials, the largest float among them, round-trip bit for bit
    first = int(np.flatnonzero(~np.isfinite(values))[0])
    with pytest.raises(ValueError, match=f"the sample at index {first} is "):
        load_field(str(tmp_path / "special"))
    finite = Field.spatial(f.grid, np.nan_to_num(f.samples))
    dump_field(finite, str(tmp_path / "finite"))
    back = load_field(str(tmp_path / "finite"))
    assert np.array_equal(back.samples.view(np.uint64), finite.samples.view(np.uint64))


def test_dump_memory_is_bounded(tmp_path, traced_peak):
    # the whole 512^2 text is about 13 MiB and its list of lines about 50 MiB
    g = GridSpec(2, 512, 16.0)
    f = random_band_limited(g, 2.0, np.random.default_rng(7))
    _, peak = traced_peak(dump_field, f, str(tmp_path / "big"))
    assert peak < 16 * 2**20


def _rewrite_rows(csv_path, edit):
    with open(csv_path) as handle:
        header, *rows = handle.read().splitlines()
    with open(csv_path, "w") as handle:
        handle.write("\n".join([header, *edit(rows)]) + "\n")


def _relabel_row_5(rows):
    rows[5] = "1," + rows[5].split(",", 1)[1]
    return rows


@pytest.mark.parametrize("edit, problem", [
    (_relabel_row_5, "index 1 appears twice"),
    (lambda rows: rows[:200], "200 rows"),
    (lambda rows: rows[:-1] + [rows[-1][:6]], "number of columns changed"),
    (lambda rows: [r + ",0.0" for r in rows], "expected 3 columns"),
    (lambda rows: ["1" + r for r in rows[:1]] + rows[1:], "index 0 is missing"),
    (lambda rows: ["-1" + r[1:] for r in rows[:1]] + rows[1:], "index -1 is not a position"),
    (lambda rows: [], "0 rows"),
    (lambda rows: rows[:7] + ["7,nan," + rows[7].split(",")[2]] + rows[8:],
     r"the sample at index 7 is \(nan[+-].*j\), not finite"),
    (lambda rows: rows[:3] + [rows[3].rsplit(",", 1)[0] + ",-inf"] + rows[4:9]
     + ["9,inf,0.0"] + rows[10:], r"the sample at index 3 is .*-infj\), not finite"),
], ids=["relabelled-row", "truncated-rows", "truncated-mid-row", "four-columns",
        "index-missing", "index-negative", "no-rows", "nan-sample", "inf-samples"])
def test_malformed_dump_is_rejected(tmp_path, edit, problem):
    base = str(tmp_path / "field")
    csv_path, _ = dump_field(random_band_limited(GridSpec(2, 16, 4.0), 1.0,
                                                 np.random.default_rng(8)), base)
    _rewrite_rows(csv_path, edit)
    with pytest.raises(ValueError, match=problem) as err:
        load_field(base)
    assert str(err.value).startswith(f"{csv_path}: ")


@pytest.mark.parametrize("text", ['{"dim": 1, "size": 16}', "not json"],
                         ids=["no-domain", "not-json"])
def test_malformed_manifest_is_named(tmp_path, text):
    base = str(tmp_path / "field")
    _, json_path = dump_field(random_band_limited(GridSpec(1, 16, 4.0), 1.0,
                                                  np.random.default_rng(11)), base)
    with open(json_path, "w") as handle:
        handle.write(text)
    with pytest.raises(ValueError, match="not a field manifest") as err:
        load_field(base)
    assert json_path in str(err.value)


def test_frequency_domain_round_trip(tmp_path):
    from riesz.grid import forward_transform

    g = GridSpec(1, 64, 4.0)
    spec = forward_transform(random_band_limited(g, 2.0, np.random.default_rng(4)))
    base = str(tmp_path / "spec")
    dump_field(spec, base)
    back = load_field(base)
    assert back.domain == "frequency"
    assert np.array_equal(back.samples, spec.samples)
