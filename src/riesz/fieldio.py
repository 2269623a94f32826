"""Binary-free field dumps: CSV samples plus a JSON grid manifest.

The CSV has columns index, re, im where index is the C-order flattened
position in the sample array; the coordinate of entry j on axis i is
(unravel(j)[i] - size/2) * spacing, with spacing h in the spatial domain and
dxi in the frequency domain.  The JSON manifest records the grid and domain
so a dump round-trips exactly.

`dump_field` streams the CSV into its temp file `_DUMP_ROWS` rows at a time,
so the text of a dump is never held whole; each value is its `repr`, the
shortest text that reads back to the same float.  `load_field` checks that
the CSV has three columns and that its index column holds every flattened
position exactly once, and that every sample is finite, so a truncated,
relabelled or corrupted dump is an error rather than a wrong field.  Rows in
`dump_field`'s order are taken as they are, with no sort; rows in any other
order are sorted by index.  Either way the samples are copied once out of
the parsed columns, so a load holds the columns and the samples: two and a
half arrays of the field.
"""

import contextlib
import json
import os
import warnings

import numpy as np

from .grid import Field, GridSpec

LAYOUT_NOTE = (
    "index = C-order flattened position; coordinate on axis i is "
    "(unravel(index)[i] - size/2) * spacing"
)

# Rows formatted per write; bounds the text held in memory to under 1 MiB.
_DUMP_ROWS = 2**12


@contextlib.contextmanager
def _atomic_handle(path):
    """Text handle on path.tmp, renamed to path only when the block succeeds."""
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "w") as handle:
            yield handle
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise
    os.replace(tmp, path)


def atomic_write_text(path, text):
    """Write a whole file through a temp name so readers never see partials."""
    with _atomic_handle(path) as handle:
        handle.write(text)


def field_manifest(field):
    g = field.grid
    return {
        "dim": g.dim,
        "size": g.size,
        "half_width": g.half_width,
        "spacing": g.h if field.domain == "spatial" else g.dxi,
        "domain": field.domain,
        "layout": LAYOUT_NOTE,
    }


def dump_field(field, basepath):
    """Write basepath.csv and basepath.json; returns the two paths."""
    csv_path = f"{basepath}.csv"
    json_path = f"{basepath}.json"
    flat = field.samples.ravel()
    with _atomic_handle(csv_path) as handle:
        handle.write("index,re,im\n")
        for start in range(0, flat.size, _DUMP_ROWS):
            block = flat[start:start + _DUMP_ROWS]
            rows = zip(range(start, start + block.size),
                       block.real.tolist(), block.imag.tolist())
            handle.write("".join(["%d,%r,%r\n" % row for row in rows]))
    atomic_write_text(json_path, json.dumps(field_manifest(field), indent=2) + "\n")
    return csv_path, json_path


def load_field(basepath):
    """Read a dump produced by dump_field; a malformed dump is a ValueError."""
    json_path = f"{basepath}.json"
    csv_path = f"{basepath}.csv"
    with open(json_path) as handle:
        try:
            meta = json.load(handle)
            grid = GridSpec(meta["dim"], meta["size"], meta["half_width"])
            domain = meta["domain"]
        except (ValueError, KeyError, TypeError) as exc:
            raise ValueError(f"{json_path}: not a field manifest ({exc!r})") from None
    try:
        with warnings.catch_warnings():  # an empty body is reported by the row count
            warnings.simplefilter("ignore", UserWarning)
            data = np.loadtxt(csv_path, delimiter=",", skiprows=1, ndmin=2)
    except ValueError as exc:
        raise ValueError(f"{csv_path}: {exc}") from None
    count = grid.size**grid.dim
    if data.shape[0] != count:
        raise ValueError(f"{csv_path}: {data.shape[0]} rows, but a {grid.size}^{grid.dim} "
                         f"grid has {count} (truncated dump?)")
    if data.shape[1] != 3:
        raise ValueError(f"{csv_path}: expected 3 columns index,re,im, got {data.shape[1]}")
    index = data[:, 0]
    order = slice(None)
    if not np.array_equal(index, np.arange(count)):  # dump_field's order needs no sort
        order = np.argsort(index)
        index = index[order]
        wrong = np.flatnonzero(index != np.arange(count))
        if wrong.size:
            j = int(wrong[0])
            if j > 0 and index[j] == index[j - 1]:
                problem = f"index {index[j]:g} appears twice"
            elif index[j] > j:
                problem = f"index {j} is missing"
            else:
                problem = f"index {index[j]:g} is not a position"
            raise ValueError(f"{csv_path}: {problem}; the index column must hold each of "
                             f"0 ... {count - 1} exactly once")
    # Each (re, im) pair read as one complex, copied once into a contiguous
    # array: re + 1j * im would make an infinite im a nan re, and a -0.0 re
    # +0.0 when im >= 0.
    samples = np.ascontiguousarray(data[order, 1:]).view(np.complex128).reshape(grid.shape)
    del data, index, order
    bad = np.flatnonzero(~np.isfinite(samples))
    if bad.size:
        j = int(bad[0])
        raise ValueError(f"{csv_path}: the sample at index {j} is {samples.flat[j]}, "
                         f"not finite")
    return Field(grid, domain, samples)
