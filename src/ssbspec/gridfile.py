"""Binary files for fields living on a periodic grid.

Layout, all little-endian:

    magic    8 bytes   "SSBGRID" + version byte 0x01
    kind     u32       0 multiplet, 1 gauge coefficients, 2 transform
    dim      u32
    shape    dim * u32
    h        f64
    metric   u32       0 euclidean, 1 lorentzian
    n        u32       multiplet dimension (0 when the kind has none)
    r        u32       algebra dimension (0 when the kind has none)
    payload  row-major complex128 entries, each an adjacent (re, im)
             f64 pair

Payload shapes: multiplet (*shape, n); gauge (*shape, dim, r), real
values with zero imaginary parts; transform (*shape, n, n).
"""
from __future__ import annotations

import math
import os
import struct

import numpy as np

from .latticefields import Grid

__all__ = ["GridFileError", "read_field", "write_field"]

MAGIC = b"SSBGRID\x01"
_KINDS = ("multiplet", "gauge", "transform")
_METRICS = ("euclidean", "lorentzian")
# the longest header: 16 extents
_HEADER_MAX = len(MAGIC) + struct.calcsize("<II16IdIII")


class GridFileError(ValueError):
    pass


def _payload_shape(kind: str, grid: Grid, n: int, r: int) -> tuple[int, ...]:
    if kind == "multiplet":
        return grid.shape + (n,)
    if kind == "gauge":
        return grid.shape + (grid.dim, r)
    return grid.shape + (n, n)


def write_field(path, grid: Grid, kind: str, field: np.ndarray) -> None:
    if kind not in _KINDS:
        raise GridFileError(f"unknown field kind {kind!r}")
    arr = np.asarray(field)
    n = r = 0
    if kind == "multiplet":
        n = arr.shape[-1] if arr.ndim == grid.dim + 1 else 0
    elif kind == "gauge":
        r = arr.shape[-1] if arr.ndim == grid.dim + 2 else 0
        if np.iscomplexobj(arr) and np.any(arr.imag):
            raise GridFileError("gauge coefficient fields must be real")
        arr = arr.real if np.iscomplexobj(arr) else arr
    else:
        n = arr.shape[-1] if arr.ndim == grid.dim + 2 else 0
    expected = _payload_shape(kind, grid, n, r)
    if arr.shape != expected or (kind != "gauge" and n == 0) or (kind == "gauge" and r == 0):
        raise GridFileError(
            f"{kind} field on grid {grid.shape} must have shape {expected}, got {arr.shape}"
        )
    header = MAGIC + struct.pack(
        "<II", _KINDS.index(kind), grid.dim
    ) + struct.pack(f"<{grid.dim}I", *grid.shape) + struct.pack(
        "<dIII", grid.spacing, _METRICS.index(grid.metric), n, r
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
        if kind_idx >= len(_KINDS):
            raise GridFileError(f"unknown field kind index {kind_idx}")
        if not 1 <= dim <= 16:
            raise GridFileError(f"implausible grid dimension {dim}")
        shape = take(f"<{dim}I")
        h, metric_idx, n, r = take("<dIII")
        if metric_idx >= len(_METRICS):
            raise GridFileError(f"unknown metric index {metric_idx}")
        kind = _KINDS[kind_idx]
        grid = Grid(dim=dim, shape=shape, spacing=h, metric=_METRICS[metric_idx])
        expected = _payload_shape(kind, grid, n, r)
        # Python ints, so that no header's count wraps
        count = math.prod(expected)
        have = os.fstat(fh.fileno()).st_size - off
        if have != 16 * count:
            raise GridFileError(
                f"payload holds {have // 16} entries, but header extents {grid.shape} "
                f"with {math.prod(expected[dim:])} per site imply {count}"
            )
        fh.seek(off)
        field = np.fromfile(fh, dtype="<c16", count=count).reshape(expected)
    if kind == "gauge":
        if np.any(field.imag):
            raise GridFileError("gauge payload must have zero imaginary parts")
        return grid, kind, field.real.copy()
    return grid, kind, field
