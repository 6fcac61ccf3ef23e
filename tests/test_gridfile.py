"""Binary field file round-trips and corruption handling."""
import io
import struct

import numpy as np
import pytest

from ssbspec.cli import main
from ssbspec.gridfile import MAGIC, GridFileError, read_field, write_field
from ssbspec.latticefields import Grid, smooth_gauge_field, smooth_multiplet_field

GRID = Grid(dim=2, shape=(4, 6), spacing=0.25, metric="lorentzian")


def test_multiplet_round_trip(tmp_path):
    path = tmp_path / "phi.field"
    field = smooth_multiplet_field(GRID, 3, seed=1)
    write_field(path, GRID, "multiplet", field)
    grid2, kind, back = read_field(path)
    assert kind == "multiplet"
    assert grid2 == GRID
    assert np.array_equal(back, field)


def test_gauge_round_trip_real_payload(tmp_path):
    path = tmp_path / "a.field"
    field = smooth_gauge_field(GRID, 4, seed=2)
    write_field(path, GRID, "gauge", field)
    _, kind, back = read_field(path)
    assert kind == "gauge"
    assert back.dtype == np.float64
    assert np.array_equal(back, field)


def test_transform_round_trip(tmp_path):
    path = tmp_path / "s.field"
    rng = np.random.default_rng(0)
    field = rng.normal(size=GRID.shape + (2, 2)) + 1j * rng.normal(size=GRID.shape + (2, 2))
    write_field(path, GRID, "transform", field)
    _, kind, back = read_field(path)
    assert kind == "transform"
    assert np.array_equal(back, field)


def test_wrong_shape_rejected(tmp_path):
    with pytest.raises(GridFileError, match="must have shape"):
        write_field(tmp_path / "x.field", GRID, "multiplet", np.zeros((4, 5, 2), dtype=complex))


def test_complex_gauge_payload_rejected(tmp_path):
    bad = smooth_gauge_field(GRID, 2, seed=3).astype(complex)
    bad[0, 0, 0, 0] += 1j
    with pytest.raises(GridFileError, match="must be real"):
        write_field(tmp_path / "x.field", GRID, "gauge", bad)


def test_unknown_kind_rejected(tmp_path):
    with pytest.raises(GridFileError, match="unknown field kind"):
        write_field(tmp_path / "x.field", GRID, "spinor", np.zeros((4, 6, 2), dtype=complex))


def test_bad_magic(tmp_path):
    path = tmp_path / "x.field"
    path.write_bytes(b"NOTAGRID" + b"\x00" * 64)
    with pytest.raises(GridFileError, match="bad magic"):
        read_field(path)


def test_truncated_header(tmp_path):
    path = tmp_path / "x.field"
    path.write_bytes(MAGIC + b"\x00\x00")
    with pytest.raises(GridFileError, match="truncated"):
        read_field(path)


def test_payload_length_mismatch(tmp_path):
    path = tmp_path / "x.field"
    field = smooth_multiplet_field(GRID, 2, seed=4)
    write_field(path, GRID, "multiplet", field)
    blob = path.read_bytes()
    path.write_bytes(blob[:-16])
    with pytest.raises(GridFileError, match="payload"):
        read_field(path)


def _unitary_gauge_on(path) -> tuple[int, str]:
    out = io.StringIO()
    code = main(["unitary-gauge", "--model", "models/electroweak.model", "--field", str(path)], stdout=out)
    return code, out.getvalue()


def test_infinite_spacing_exits_2_through_the_cli(tmp_path):
    # the header carries the spacing; patch a finite one to inf
    path = tmp_path / "x.field"
    write_field(path, GRID, "multiplet", smooth_multiplet_field(GRID, 2, seed=4))
    blob = bytearray(path.read_bytes())
    struct.pack_into("<d", blob, len(MAGIC) + 8 + 4 * GRID.dim, float("inf"))
    path.write_bytes(bytes(blob))
    assert _unitary_gauge_on(path) == (2, "error: spacing must be finite and positive, got inf\n")


def _header(kind=0, dim=2, shape=(4, 4), metric=0, n=2) -> bytes:
    """A grid-file header with no payload after it."""
    extents = struct.pack(f"<{len(shape)}I", *shape)
    return MAGIC + struct.pack("<II", kind, dim) + extents + struct.pack("<dIII", 0.25, metric, n, 0)


@pytest.mark.parametrize(
    "header, line",
    [
        (_header(kind=3), "unknown field kind index 3"),
        (_header(dim=17, shape=()), "implausible grid dimension 17"),
        (_header(metric=2), "unknown metric index 2"),
        # int64 counts of these headers wrapped: to 0, which an empty payload
        # matched, and to a negative count
        (
            _header(dim=4, shape=(2**16,) * 4),
            "payload holds 0 entries, but header extents (65536, 65536, 65536, 65536) "
            f"with 2 per site imply {2 * 2**64}",
        ),
        (
            _header(dim=4, shape=(2**32 - 1,) * 4),
            "payload holds 0 entries, but header extents (4294967295, 4294967295, 4294967295, 4294967295) "
            f"with 2 per site imply {2 * (2**32 - 1) ** 4}",
        ),
    ],
    ids=["kind", "dimension", "metric", "count-wraps-to-zero", "count-wraps-negative"],
)
def test_bad_header_exits_2_through_the_cli(tmp_path, header, line):
    path = tmp_path / "x.field"
    path.write_bytes(header)
    assert _unitary_gauge_on(path) == (2, f"error: {line}\n")


def test_gauge_payload_with_imaginary_parts_exits_2_through_the_cli(tmp_path):
    path = tmp_path / "a.field"
    write_field(path, GRID, "gauge", smooth_gauge_field(GRID, 4, seed=2))
    blob = bytearray(path.read_bytes())
    struct.pack_into("<d", blob, len(blob) - 8, 0.5)  # the last entry's imaginary part
    path.write_bytes(bytes(blob))
    assert _unitary_gauge_on(path) == (2, "error: gauge payload must have zero imaginary parts\n")
