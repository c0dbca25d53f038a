"""Row-form GF(2) references for the tests.

The library holds every matrix as a column list and eliminates with
``extlab.f2core.EchelonAccumulator``.  The tests check it against the
textbook forms kept here: a matrix as one int per row, and full
Gauss-Jordan with the canonical reduced form, kernel, column space and
solution it gives.  ``reference_digest`` is the module digest as the
library first took it, from column tables that it builds and transposes.
"""

from __future__ import annotations

import hashlib
from typing import Iterable, NamedTuple, Optional, Sequence

from extlab.f2core import F2Error, Subspace, combine, transpose


class BitMatrix:
    """A GF(2) matrix with one int per row: bit j of ``data[i]`` is entry (i, j)."""

    def __init__(self, rows: int, cols: int, data: Sequence[int]):
        if len(data) != rows or any(r >> cols for r in data):
            raise F2Error(f"expected {rows} rows of {cols} bits")
        self.rows, self.cols, self.data = rows, cols, tuple(data)

    @classmethod
    def from_columns(cls, columns: Sequence[int], rows: int) -> "BitMatrix":
        if any(col >> rows for col in columns):
            raise F2Error("column has bits set beyond row count")
        return cls(rows, len(columns), transpose(columns, rows))

    def columns(self) -> list[int]:
        return transpose(self.data, self.cols)

    def mul_vec(self, v: int) -> int:
        """m @ v, one inner product per row."""
        return sum(((r & v).bit_count() & 1) << i for i, r in enumerate(self.data))

    def __matmul__(self, other: "BitMatrix") -> "BitMatrix":
        if self.cols != other.rows:
            raise F2Error("shape mismatch")
        return BitMatrix(self.rows, other.cols, [combine(other.data, r) for r in self.data])


def _rref_rows(data: list[int], cols: int) -> tuple[list[int], list[int]]:
    """In-place full Gauss-Jordan; returns (rows, pivot columns)."""
    pivots: list[int] = []
    for col in range(cols):
        top = len(pivots)
        i = next((i for i in range(top, len(data)) if data[i] >> col & 1), None)
        if i is None:
            continue
        data[top], data[i] = data[i], data[top]
        for k in range(len(data)):
            if k != top and data[k] >> col & 1:
                data[k] ^= data[top]
        pivots.append(col)
    return data, pivots


class RrefResult(NamedTuple):
    matrix: BitMatrix
    pivots: tuple[int, ...]
    rank: int


def rref(m: BitMatrix) -> RrefResult:
    """Unique reduced row-echelon form of m, with pivot columns and rank."""
    data, pivots = _rref_rows(list(m.data), m.cols)
    return RrefResult(BitMatrix(m.rows, m.cols, data), tuple(pivots), len(pivots))


def subspace_from_rows(vectors: Iterable[int], ambient_dim: int) -> Subspace:
    data, pivots = _rref_rows(list(vectors), ambient_dim)
    return Subspace(ambient_dim, [r for r in data if r], tuple(pivots))


def kernel_basis(m: BitMatrix) -> Subspace:
    """Basis of {v : m @ v = 0}, one vector per non-pivot column of rref(m)."""
    res = rref(m)
    vectors = [
        sum(1 << p for r, p in zip(res.matrix.data, res.pivots) if r >> j & 1) | 1 << j
        for j in range(m.cols) if j not in res.pivots
    ]
    return subspace_from_rows(vectors, m.cols)


def column_space(m: BitMatrix) -> Subspace:
    return subspace_from_rows(m.columns(), m.rows)


def solve(m: BitMatrix, b: int) -> Optional[int]:
    """Canonical x with m @ x = b, or None if the system is inconsistent:
    back-substitution from rref with every free variable set to zero."""
    if b >> m.rows:
        raise F2Error("right-hand side has bits set beyond row count")
    data, pivots = _rref_rows([r | (b >> i & 1) << m.cols for i, r in enumerate(m.data)], m.cols)
    if any(r >> m.cols for r in data[len(pivots):]):
        return None
    return sum(1 << p for r, p in zip(data, pivots) if r >> m.cols & 1)


def reference_digest(mod) -> str:
    """``GradedModule.digest`` from its definition: SHA-256 of ``EXTMOD1``,
    (max_t, dims), then each nonzero Sq^k in (k, t) order as its shape and
    rows, the rows taken by transposing the table ``mod.action(k, t)``."""
    h = hashlib.sha256()
    h.update(b"EXTMOD1")
    h.update(repr((mod.max_t, mod.dims)).encode())
    for k in range(1, mod.max_t + 1):
        for t in range(mod.max_t - k + 1):
            cols = mod.action(k, t)
            if any(cols):
                rows = mod.dims[t + k]
                h.update(repr(((k, t), (rows, len(cols)), tuple(transpose(cols, rows)))).encode())
    return h.hexdigest()
