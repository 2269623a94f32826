import json
import os

import numpy as np
import pytest

from riesz.fieldio import atomic_write_text, dump_field, load_field
from riesz.grid import GridSpec, random_band_limited


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


def test_frequency_domain_round_trip(tmp_path):
    from riesz.grid import forward_transform

    g = GridSpec(1, 64, 4.0)
    spec = forward_transform(random_band_limited(g, 2.0, np.random.default_rng(4)))
    base = str(tmp_path / "spec")
    dump_field(spec, base)
    back = load_field(base)
    assert back.domain == "frequency"
    assert np.array_equal(back.samples, spec.samples)
