"""Exact linear algebra over GF(2) with bit-packed rows.

Conventions, fixed repo-wide:

* A vector in F2^n is a Python int whose bit ``j`` (value ``(v >> j) & 1``)
  is coordinate ``j``.  Python ints give arbitrarily wide rows and word-level
  XOR for free; row XOR is the hot loop of every computation in this repo.
* A :class:`BitMatrix` with ``rows`` rows and ``cols`` columns represents a
  linear map F2^cols -> F2^rows.  Vectors are columns and maps act on the
  left: ``(m @ v)`` has bit ``i`` equal to ``<row_i, v>``.
* Maps of the module layer (module actions, module maps, free-module
  differentials, chain lifts) are held as *column lists*: a sequence whose
  entry ``j`` is the image of basis vector ``j``.  The product with a
  vector is :func:`combine`, the XOR of the columns picked out by the set
  bits of ``v``; it costs O(popcount v) XORs where ``BitMatrix.mul_vec``
  costs O(rows).  :func:`compose` multiplies two column lists, and
  :func:`rank` takes the columns as they are, since a span has the same
  dimension whether it is read off the rows or the columns.
  :class:`BitMatrix` remains for chart maps and for the reference
  functions; module digests hash the rows :func:`transpose` gives.
  :func:`image_and_kernel` and :class:`Solver` take a column list too,
  and both eliminate with the one :class:`EchelonAccumulator`: one pass
  gives the image span and the same canonical kernel as
  :func:`kernel_basis`, or a solver with the same answers as
  :func:`solve`, without building the row matrix or transposing it.
  :meth:`EchelonAccumulator.subspace` reduces by back-substitution to the
  basis :meth:`Subspace.from_rows` gives.  ``_rref_rows`` (full
  Gauss-Jordan) is left to :meth:`Subspace.from_rows` and to the
  references :func:`rref`, :func:`kernel_basis` and :func:`solve`.
* All outputs are canonical: rref is the unique reduced row-echelon form,
  ``solve`` returns the unique solution supported on pivot columns, and
  quotient complements are spanned by the non-pivot coordinates.  Everything
  downstream is therefore deterministic and cache files are reproducible.

Matrices and subspaces are immutable after construction and safe to share.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence


class F2Error(ValueError):
    """Dimension mismatch or malformed input to a GF(2) operation."""


def combine(columns: Sequence[int], v: int) -> int:
    """m @ v for the matrix m whose j-th column is ``columns[j]``."""
    acc = 0
    while v:
        low = v & -v
        acc ^= columns[low.bit_length() - 1]
        v ^= low
    return acc


def compose(outer: Sequence[int], inner: Sequence[int]) -> list[int]:
    """Column list of outer o inner."""
    return [combine(outer, c) for c in inner]


def transpose(columns: Sequence[int], rows: int) -> list[int]:
    """Rows of the matrix whose j-th column is ``columns[j]``, which has no
    bit at or above ``rows``."""
    data = [0] * rows
    for j, col in enumerate(columns):
        while col:
            low = col & -col
            data[low.bit_length() - 1] |= 1 << j
            col ^= low
    return data


def vector_to_bits(v: int, n: int) -> list[int]:
    return [(v >> j) & 1 for j in range(n)]


class BitMatrix:
    """Immutable dense GF(2) matrix with one int per row."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, rows: int, cols: int, data: Sequence[int]):
        if rows < 0 or cols < 0:
            raise F2Error("negative dimensions")
        if len(data) != rows:
            raise F2Error(f"expected {rows} rows, got {len(data)}")
        mask = (1 << cols) - 1
        for r in data:
            if r & ~mask:
                raise F2Error("row has bits set beyond column count")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "data", tuple(data))

    def __setattr__(self, name, value):
        raise AttributeError("BitMatrix is immutable")

    @classmethod
    def zero(cls, rows: int, cols: int) -> "BitMatrix":
        return cls(rows, cols, [0] * rows)

    @classmethod
    def identity(cls, n: int) -> "BitMatrix":
        return cls(n, n, [1 << i for i in range(n)])

    @classmethod
    def from_dense(cls, entries: Sequence[Sequence[int]], cols: Optional[int] = None) -> "BitMatrix":
        rows = len(entries)
        if cols is None:
            cols = len(entries[0]) if rows else 0
        data = []
        for row in entries:
            if len(row) != cols:
                raise F2Error("ragged rows")
            acc = 0
            for j, e in enumerate(row):
                if e & 1:
                    acc |= 1 << j
            data.append(acc)
        return cls(rows, cols, data)

    @classmethod
    def from_columns(cls, columns: Sequence[int], rows: int) -> "BitMatrix":
        """Build the matrix whose j-th column is the vector ``columns[j]``."""
        if any(col >> rows for col in columns):
            raise F2Error("column has bits set beyond row count")
        return cls(rows, len(columns), transpose(columns, rows))

    def row(self, i: int) -> int:
        return self.data[i]

    def column(self, j: int) -> int:
        if not 0 <= j < self.cols:
            raise F2Error("column index out of range")
        acc = 0
        for i, r in enumerate(self.data):
            if (r >> j) & 1:
                acc |= 1 << i
        return acc

    def columns(self) -> list[int]:
        out = [0] * self.cols
        for i, r in enumerate(self.data):
            while r:
                low = r & -r
                out[low.bit_length() - 1] |= 1 << i
                r ^= low
        return out

    def mul_vec(self, v: int) -> int:
        """m @ v for a column vector v in F2^cols."""
        if v >> self.cols:
            raise F2Error("vector has bits set beyond column count")
        acc = 0
        for i, r in enumerate(self.data):
            if (r & v).bit_count() & 1:
                acc |= 1 << i
        return acc

    def __matmul__(self, other: "BitMatrix") -> "BitMatrix":
        if self.cols != other.rows:
            raise F2Error(f"shape mismatch: {self.shape} @ {other.shape}")
        data = []
        for r in self.data:
            acc = 0
            rr = r
            while rr:
                low = rr & -rr
                acc ^= other.data[low.bit_length() - 1]
                rr ^= low
            data.append(acc)
        return BitMatrix(self.rows, other.cols, data)

    def transpose(self) -> "BitMatrix":
        return BitMatrix.from_columns(self.data, self.cols)

    def is_zero(self) -> bool:
        return not any(self.data)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    def to_dense(self) -> list[list[int]]:
        return [vector_to_bits(r, self.cols) for r in self.data]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, BitMatrix)
            and self.shape == other.shape
            and self.data == other.data
        )

    def __hash__(self) -> int:
        return hash((self.rows, self.cols, self.data))

    def __repr__(self) -> str:
        return f"BitMatrix({self.rows}x{self.cols})"


def _rref_rows(data: list[int], cols: int) -> tuple[list[int], list[int]]:
    """In-place full Gauss-Jordan; returns (rows, pivot columns)."""
    pivots: list[int] = []
    rank = 0
    nrows = len(data)
    for col in range(cols):
        bit = 1 << col
        pivot = -1
        for i in range(rank, nrows):
            if data[i] & bit:
                pivot = i
                break
        if pivot < 0:
            continue
        data[rank], data[pivot] = data[pivot], data[rank]
        prow = data[rank]
        for i in range(nrows):
            if i != rank and data[i] & bit:
                data[i] ^= prow
        pivots.append(col)
        rank += 1
    return data, pivots


@dataclass(frozen=True)
class RrefResult:
    matrix: "BitMatrix"
    pivots: tuple[int, ...]
    rank: int


def rref(m: BitMatrix) -> RrefResult:
    """Unique reduced row-echelon form of m, with pivot columns and rank."""
    data, pivots = _rref_rows(list(m.data), m.cols)
    return RrefResult(BitMatrix(m.rows, m.cols, data), tuple(pivots), len(pivots))


class Subspace:
    """A subspace of F2^n stored as a reduced row-echelon basis.

    Rows of ``basis`` are the basis vectors; pivot columns are strictly
    increasing and each pivot column has a single 1, so the representation
    is unique for the subspace.
    """

    __slots__ = ("ambient_dim", "basis", "pivots")

    def __init__(self, ambient_dim: int, basis: BitMatrix, pivots: tuple[int, ...]):
        if basis.cols != ambient_dim:
            raise F2Error("basis width does not match ambient dimension")
        if len(pivots) != basis.rows:
            raise F2Error("pivot count does not match basis rank")
        object.__setattr__(self, "ambient_dim", ambient_dim)
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "pivots", pivots)

    def __setattr__(self, name, value):
        raise AttributeError("Subspace is immutable")

    @classmethod
    def from_rows(cls, vectors: Iterable[int], ambient_dim: int) -> "Subspace":
        data, pivots = _rref_rows(list(vectors), ambient_dim)
        data = [r for r in data if r]
        return cls(ambient_dim, BitMatrix(len(data), ambient_dim, data), tuple(pivots))

    @property
    def rank(self) -> int:
        return self.basis.rows

    def reduce(self, v: int) -> int:
        """Canonical representative of v modulo this subspace."""
        for row, p in zip(self.basis.data, self.pivots):
            if (v >> p) & 1:
                v ^= row
        return v

    def contains(self, v: int) -> bool:
        return self.reduce(v) == 0

    def coordinates(self, v: int) -> Optional[int]:
        """Coefficients of v over the basis rows, or None if v is outside.

        Each pivot column of the reduced basis holds a single 1, so the
        coefficient of row i is v's bit at pivot i; v lies in the subspace
        exactly when those coefficients recombine to v.  The set bits of v
        are visited, so the cost follows popcount(v), not the rank.
        """
        pivots = self.pivots
        coords = 0
        rest = v
        while rest:
            low = rest & -rest
            p = low.bit_length() - 1
            i = bisect_left(pivots, p)
            if i < len(pivots) and pivots[i] == p:
                coords |= 1 << i
            rest ^= low
        return coords if combine(self.basis.data, coords) == v else None

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Subspace)
            and self.ambient_dim == other.ambient_dim
            and self.basis == other.basis
        )

    def __hash__(self) -> int:
        return hash((self.ambient_dim, self.basis))

    def __repr__(self) -> str:
        return f"Subspace(dim {self.rank} of F2^{self.ambient_dim})"


def kernel_basis(m: BitMatrix) -> Subspace:
    """Basis of {v : m @ v = 0}, canonicalized to reduced row-echelon form."""
    res = rref(m)
    pivot_set = set(res.pivots)
    vectors = []
    for j in range(m.cols):
        if j in pivot_set:
            continue
        v = 1 << j
        for r, p in zip(res.matrix.data, res.pivots):
            if (r >> j) & 1:
                v |= 1 << p
        vectors.append(v)
    return Subspace.from_rows(vectors, m.cols)


def column_space(m: BitMatrix) -> Subspace:
    return Subspace.from_rows(m.columns(), m.rows)


def rank(vectors: Iterable[int]) -> int:
    """Dimension of the span of ``vectors``: the rank of a matrix given by
    its rows (``m.data``) or by its columns alike."""
    acc = EchelonAccumulator(0)  # the width matters only to subspace()
    for v in vectors:
        acc.add(v)
    return acc.rank


def solve(m: BitMatrix, b: int) -> Optional[int]:
    """Canonical x with m @ x = b, or None if the system is inconsistent.

    The solution is the one produced by rref back-substitution with all free
    variables set to zero; it is unique for given inputs.
    """
    if b >> m.rows:
        raise F2Error("right-hand side has bits set beyond row count")
    aug = [r | (((b >> i) & 1) << m.cols) for i, r in enumerate(m.data)]
    data, pivots = _rref_rows(aug, m.cols)
    bcol = 1 << m.cols
    x = 0
    for r, p in zip(data, pivots):
        if r & bcol:
            x |= 1 << p
    for i in range(len(pivots), m.rows):
        if data[i] & bcol:
            return None
    return x


class Solver:
    """Reusable solver for many right-hand sides against a fixed matrix.

    The matrix comes as a column list with its row count.  Column j enters
    an :class:`EchelonAccumulator` as the graph vector ``(c_j << n) | 1 <<
    j``; ``solve(b)`` reduces ``b << n``.  A remainder with a nonzero high
    part means b is outside the image.  Otherwise the remainder is x with
    m @ x = b and no bit at a leading position below n.  Those leads are the
    highest coordinates of kernel vectors, which are exactly rref's non-pivot
    columns, so x is :func:`solve`'s answer bit for bit.
    """

    __slots__ = ("rows", "_shift", "_graph")

    def __init__(self, columns: Sequence[int], rows: int):
        n = len(columns)
        graph = EchelonAccumulator(rows + n)
        for j, c in enumerate(columns):
            if c >> rows:
                raise F2Error("column has bits set beyond row count")
            graph.add((c << n) | (1 << j))
        self.rows = rows
        self._shift = n
        self._graph = graph

    def solve(self, b: int) -> Optional[int]:
        if b >> self.rows:
            raise F2Error("right-hand side has bits set beyond row count")
        r = self._graph.reduce(b << self._shift)
        return None if r >> self._shift else r


def quotient_section(ambient_dim: int, sub: Subspace) -> tuple[list[int], list[int]]:
    """Projection onto the canonical complement of ``sub``, and its section.

    The complement is coordinatized by ``free``, the non-pivot coordinates
    of the subspace basis.  Returns (proj, free): proj is the column list of
    the projection F2^n -> F2^q, q = len(free), with kernel(proj) = sub and
    proj[free[k]] = e_k, so the section sends e_k to coordinate free[k].
    A basis row holds its pivot and otherwise only free coordinates, so
    the pivot's column is the projection of the rest of its row.
    """
    if sub.ambient_dim != ambient_dim:
        raise F2Error("subspace ambient dimension mismatch")
    pivot_set = set(sub.pivots)
    free = [j for j in range(ambient_dim) if j not in pivot_set]
    proj = [0] * ambient_dim
    for k, j in enumerate(free):
        proj[j] = 1 << k
    for r, p in zip(sub.basis.data, sub.pivots):
        proj[p] = combine(proj, r ^ (1 << p))
    return proj, free


class EchelonAccumulator:
    """Mutable semi-echelon span; the engine's complement chooser.

    Each stored row is kept under its leading (highest) bit, and no two rows
    share one; ``_lead`` is the mask of the leading bits.  Rows are not
    reduced against each other.  ``reduce`` clears v's bits at leading
    positions from the top down: a row has no bit above its own lead, so a
    cleared bit stays clear.  The remainder lies in v + span and has no bit
    at any leading position, and only one vector does: the difference of two
    lies in the span and has no bit at a leading position, but every nonzero
    vector of the span has its highest bit at one.  The leading positions
    are the highest bits of the span's vectors, so they, and with them every
    remainder, depend on the span alone and not on the feed order; they
    agree bit for bit with reduction against the reduced echelon basis.

    ``add`` returns the remainder (0 if v is in the span) and, when it is
    nonzero, stores it as a row.
    """

    __slots__ = ("ambient_dim", "_rows", "_lead")

    def __init__(self, ambient_dim: int):
        self.ambient_dim = ambient_dim
        self._rows: dict[int, int] = {}
        self._lead = 0

    @property
    def rank(self) -> int:
        return len(self._rows)

    def reduce(self, v: int) -> int:
        rows = self._rows
        lead = self._lead
        hit = v & lead
        while hit:
            v ^= rows[hit.bit_length() - 1]
            hit = v & lead
        return v

    def add(self, v: int) -> int:
        v = self.reduce(v)
        if v:
            p = v.bit_length() - 1
            self._rows[p] = v
            self._lead |= 1 << p
        return v

    def contains(self, v: int) -> bool:
        return self.reduce(v) == 0

    def rows(self) -> list[int]:
        """A basis of the span, leading bits descending."""
        return [self._rows[p] for p in sorted(self._rows, reverse=True)]

    def subspace(self) -> Subspace:
        """The span as :meth:`Subspace.from_rows` gives it, the same rows and
        pivots: the rows enter a second accumulator bit-reversed, so that
        each leads at its lowest coordinate, and back-substitution reduces
        them (:func:`_reversed_rref`)."""
        n = self.ambient_dim
        rev = EchelonAccumulator(n)
        for r in self._rows.values():
            rev.add(_reverse(r, n))
        return _reversed_rref(rev._rows, rev._lead, n)


def _reverse(v: int, n: int) -> int:
    """v with coordinate j moved to n - 1 - j."""
    return int(format(v, f"0{n}b")[::-1], 2)


def _reversed_rref(rows: dict[int, int], lead: int, n: int) -> Subspace:
    """The subspace of F2^n spanned by the bit reversals of ``rows``, a
    semi-echelon basis keyed by leading bit (their mask is ``lead``), in
    reduced echelon form.

    Back-substitution clears each row's bits at the other leads, rows led
    lower first: those are already reduced, so XORing one adds no lead bit.
    A row led by p then has its pivot at coordinate n - 1 - p, its lowest.
    """
    leads = sorted(rows)
    reduced: dict[int, int] = {}
    for p in leads:
        r = rows[p]
        hit = r & lead & ~(1 << p)
        while hit:
            low = hit & -hit
            r ^= reduced[low.bit_length() - 1]
            hit ^= low
        reduced[p] = r
    leads.reverse()
    basis = [_reverse(reduced[p], n) for p in leads]
    return Subspace(n, BitMatrix(len(basis), n, basis), tuple(n - 1 - p for p in leads))


def image_and_kernel(columns: Sequence[int], rows: int) -> tuple[EchelonAccumulator, Subspace]:
    """The image span and the canonical kernel of a matrix given as columns.

    One elimination serves both (Bruner's [d | I]): column j enters as the
    graph vector ``(c_j << n) | 1 << (n-1-j)``, its tag bit-reversed so that
    the highest bit stands for the lowest coordinate.  Rows led by a bit at
    or above n carry the image in their high part, with distinct leads;
    rows led below n have no high part and are kernel vectors, one per
    dimension of the kernel.  Back-substitution among the kernel rows and a
    bit reversal give ``kernel_basis(BitMatrix.from_columns(columns,
    rows))``, the same rows and pivots: a row led by p has its pivot at
    coordinate n - 1 - p.
    """
    n = len(columns)
    graph = EchelonAccumulator(rows + n)
    for j, c in enumerate(columns):
        if c >> rows:
            raise F2Error("column has bits set beyond row count")
        graph.add((c << n) | (1 << (n - 1 - j)))
    image = EchelonAccumulator(rows)
    kernel: dict[int, int] = {}
    for p, r in graph._rows.items():
        if p >= n:
            image._rows[p - n] = r >> n
            image._lead |= 1 << (p - n)
        else:
            kernel[p] = r
    return image, _reversed_rref(kernel, graph._lead & ((1 << n) - 1), n)
