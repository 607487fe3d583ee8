"""Segment reductions over ragged rows stored in flat arrays, xlogy, and
the roots of a parent forest.

Rows are delimited by an indptr-style `row_start` array of length n+1;
row k owns the flat slice row_start[k]:row_start[k+1].  Empty rows are
legal and must not borrow neighbouring elements, which rules out naive
ufunc.reduceat calls.
"""

from __future__ import annotations

import numpy as np


def segment_sum(values: np.ndarray, row_start: np.ndarray) -> np.ndarray:
    counts = np.diff(row_start)
    out = np.zeros(counts.size, dtype=np.float64)
    nz = counts > 0
    if values.size and nz.any():
        out[nz] = np.add.reduceat(values, row_start[:-1][nz])
    return out


def scatter_sum(index: np.ndarray, weights: np.ndarray, size: int) -> np.ndarray:
    """out[k] = sum of weights[index == k]; float64 even when index is empty."""
    return np.bincount(index, weights=weights, minlength=size).astype(np.float64, copy=False)


def segment_max(values: np.ndarray, row_start: np.ndarray) -> np.ndarray:
    """The maximum of each row, -inf for an empty row."""
    counts = np.diff(row_start)
    out = np.full(counts.size, -np.inf)
    nz = counts > 0
    if values.size and nz.any():
        out[nz] = np.maximum.reduceat(values, row_start[:-1][nz])
    return out


def ragged_ranges(starts: np.ndarray, stops: np.ndarray):
    """(owner, values): for each k in turn, arange(starts[k], stops[k]) in
    values and k in owner, concatenated; int64, with one repeat."""
    starts = np.asarray(starts, dtype=np.int64)
    counts = np.maximum(np.asarray(stops, dtype=np.int64) - starts, 0)
    owner = np.repeat(np.arange(counts.size), counts)
    values = np.arange(owner.size)
    values += (starts - (np.cumsum(counts) - counts))[owner]
    return owner, values


def xlogy(x, y) -> np.ndarray:
    """x * log(y), and 0 where x == 0 unless y is NaN, so that 0 log 0 = 0.

    Broadcasts like a ufunc, warns on nothing and returns a float64 array.
    np.log may differ in the last bit from the C library's log.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.asarray(x * np.log(y))
    np.copyto(out, 0.0, where=(x == 0) & ~np.isnan(y))
    return out


def root_positions(parent: np.ndarray) -> np.ndarray:
    """0-based root event position per event, from each event's 1-based
    parent (0 for a root); parents always precede children.

    Pointer jumping: from each event's parent (itself for a root), replace
    every pointer by its target's until none moves, log2(depth) passes.
    """
    root = np.where(parent > 0, parent - 1, np.arange(parent.size))
    while True:
        up = root[root]
        if np.array_equal(up, root):
            return root
        root = up
