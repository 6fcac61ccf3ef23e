"""Binary files for multiplet fields living on a periodic grid.

Layout, all little-endian:

    magic    8 bytes   "SSBGRID" + version byte 0x01
    kind     u32       0, a multiplet field, the only kind read or written
    dim      u32
    shape    dim * u32
    h        f64
    metric   u32       0 euclidean, 1 lorentzian
    n        u32       multiplet dimension
    r        u32       0
    payload  row-major complex128 entries of shape (*shape, n), each an
             adjacent (re, im) f64 pair
"""
from __future__ import annotations

import math
import os
import struct

import numpy as np

from .latticefields import Grid

__all__ = ["GridFileError", "read_field", "write_field"]

MAGIC = b"SSBGRID\x01"
_KIND = "multiplet"
_METRICS = ("euclidean", "lorentzian")
# the longest header: 16 extents
_HEADER_MAX = len(MAGIC) + struct.calcsize("<II16IdIII")


class GridFileError(ValueError):
    pass


def write_field(path, grid: Grid, kind: str, field: np.ndarray) -> None:
    if kind != _KIND:
        raise GridFileError(f"unknown field kind {kind!r}")
    arr = np.asarray(field)
    n = arr.shape[-1] if arr.ndim == grid.dim + 1 else 0
    if arr.shape != grid.shape + (n,) or n == 0:
        raise GridFileError(f"{kind} field on grid {grid.shape} must have shape {grid.shape + (n,)}, got {arr.shape}")
    header = MAGIC + struct.pack(
        f"<II{grid.dim}IdIII", 0, grid.dim, *grid.shape, grid.spacing, _METRICS.index(grid.metric), n, 0
    )
    payload = np.ascontiguousarray(arr, dtype="<c16").tobytes()
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(payload)


def read_field(path) -> tuple[Grid, str, np.ndarray]:
    """The grid, kind and field of a grid file.  The header is checked against
    the file's size before the payload is read, so a wrong size allocates
    nothing."""
    with open(path, "rb") as fh:
        blob = fh.read(_HEADER_MAX)
        if not blob.startswith(MAGIC):
            raise GridFileError("not a grid field file (bad magic)")
        off = len(MAGIC)

        def take(fmt):
            nonlocal off
            size = struct.calcsize(fmt)
            if off + size > len(blob):
                raise GridFileError("truncated header")
            out = struct.unpack_from(fmt, blob, off)
            off += size
            return out

        kind_idx, dim = take("<II")
        if kind_idx != 0:
            raise GridFileError(f"field kind {kind_idx} at byte {len(MAGIC)}: only kind 0, a multiplet, is read")
        if not 1 <= dim <= 16:
            raise GridFileError(f"implausible grid dimension {dim}")
        shape = take(f"<{dim}I")
        h, metric_idx, n, _ = take("<dIII")
        if metric_idx >= len(_METRICS):
            raise GridFileError(f"unknown metric index {metric_idx}")
        grid = Grid(dim=dim, shape=shape, spacing=h, metric=_METRICS[metric_idx])
        expected = grid.shape + (n,)
        # Python ints, so that no header's count wraps
        count = math.prod(expected)
        have = os.fstat(fh.fileno()).st_size - off
        if have != 16 * count:
            raise GridFileError(
                f"payload holds {have // 16} entries, but header extents {grid.shape} "
                f"with {n} per site imply {count}"
            )
        fh.seek(off)
        field = np.fromfile(fh, dtype="<c16", count=count).reshape(expected)
    return grid, _KIND, field
