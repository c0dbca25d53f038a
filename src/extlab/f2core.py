"""Exact linear algebra over GF(2) with bit-packed vectors.

Conventions, fixed repo-wide:

* A vector in F2^n is a Python int whose bit ``j`` (value ``(v >> j) & 1``)
  is coordinate ``j``.  Python ints give arbitrarily wide vectors and
  word-level XOR for free; XOR is the hot loop of every computation here.
* The one matrix form is the *column list*, whose entry ``j`` is the image
  of basis vector ``j``: module actions and maps, differentials, chain
  lifts and boundary maps alike.  :func:`combine` applies one to a vector
  in O(popcount v) XORs, :func:`compose` multiplies two, and :func:`rank`
  takes the columns as they are.  :func:`transpose`, the one transpose,
  gives the boundary maps' generator pairings and the rows module digests
  hash, which :func:`product_rows` carries through a submodule or quotient.
* The one elimination is :class:`EchelonAccumulator`, keyed by highest
  bit; on the graph vectors ``(c_j << n) | 1 << j`` of a column list it
  gives the image and a kernel basis (:func:`image_and_kernel`) and the
  canonical solutions of :class:`Solver`, the one solver (the chain lift
  and p_I).  :func:`reduced`, keyed by lowest bit and back-substituted, is
  the one reduced-echelon routine.  The row-form Gauss-Jordan they are
  tested against lives in ``tests/f2ref.py``.
* All outputs are canonical: a :class:`Subspace` holds the unique reduced
  row-echelon basis of its span, ``Solver.solve`` returns the unique
  solution supported on pivot columns, and quotient complements are
  spanned by the non-pivot coordinates.  Everything downstream is
  therefore deterministic and cache files are reproducible.
"""

from __future__ import annotations

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


def product_rows(
    down: Sequence[int], blocks: Iterable[tuple[int, int, Iterable[tuple[int, int]]]],
    up_rows: Sequence[int], rows: int,
) -> list[int]:
    """Rows of down o m o up, which has ``rows`` rows, from the rows of up
    and the nonzero rows of m in blocks (base, shift, pairs): a pair (q, r)
    is row base + q of m, ``r << shift``.  Row q of m o up goes to each row
    i with bit i in ``down[base + q]``."""
    out = [0] * rows
    for base, shift, pairs in blocks:
        for q, row in pairs:
            bits = down[base + q]
            if not bits:
                continue
            if row & (row - 1):
                row = combine(up_rows, row << shift)
            else:  # one bit, as most rows of the algebra's tables
                row = up_rows[shift + row.bit_length() - 1]
            while bits:
                low = bits & -bits
                out[low.bit_length() - 1] ^= row
                bits ^= low
    return out


class Subspace:
    """An immutable subspace of F2^n, stored as its reduced row-echelon basis.

    ``rows`` are the basis vectors and ``pivots[i]`` is the pivot of
    ``rows[i]``; pivots are strictly increasing and each pivot column has a
    single 1, so the representation is unique for the subspace.
    """

    __slots__ = ("ambient_dim", "rows", "pivots")

    def __init__(self, ambient_dim: int, rows: Sequence[int], pivots: tuple[int, ...]):
        rows = tuple(rows)
        if any(r >> ambient_dim for r in rows):
            raise F2Error("a basis row has a bit at or above the ambient dimension")
        if len(pivots) != len(rows):
            raise F2Error("pivot count does not match basis rank")
        object.__setattr__(self, "ambient_dim", ambient_dim)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "pivots", pivots)

    def __setattr__(self, name, value):
        raise AttributeError("Subspace is immutable")

    @property
    def rank(self) -> int:
        return len(self.rows)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Subspace)
            and self.ambient_dim == other.ambient_dim
            and self.rows == other.rows
        )

    def __repr__(self) -> str:
        return f"Subspace(dim {self.rank} of F2^{self.ambient_dim})"


def rank(vectors: Iterable[int]) -> int:
    """Dimension of the span of ``vectors``: the rank of a matrix given by
    its rows (``m.data``) or by its columns alike."""
    acc = EchelonAccumulator()
    for v in vectors:
        acc.add(v)
    return acc.rank


class Solver:
    """Reusable solver for many right-hand sides against a fixed matrix.

    The matrix comes as a column list with its row count, whose graph
    (:func:`_graph`) is eliminated; ``solve(b)`` reduces ``b << n``.  A
    remainder with a nonzero high part means b is outside the image.
    Otherwise the remainder is x with m @ x = b and no bit at a leading
    position below n.  Those leads are the highest coordinates of kernel
    vectors, which are exactly rref's non-pivot columns, so x is the answer
    of full Gauss-Jordan with every free variable set to zero, bit for bit:
    the reference ``solve`` of ``tests/f2ref.py``.
    """

    __slots__ = ("rows", "_shift", "_graph")

    def __init__(self, columns: Sequence[int], rows: int):
        self.rows = rows
        self._shift = len(columns)
        self._graph = _graph(columns, rows)

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
    for r, p in zip(sub.rows, sub.pivots):
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
    nonzero, stores it as a row.  The span holds no width: ``subspace(n)``
    takes the n of F2^n that its rows lie in.
    """

    __slots__ = ("_rows", "_lead")

    def __init__(self):
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

    def subspace(self, n: int) -> Subspace:
        """The span, a subspace of F2^n, in reduced echelon form (:func:`reduced`)."""
        return reduced(self._rows.values(), n)


def reduced(vectors: Iterable[int], n: int) -> Subspace:
    """The span of ``vectors`` in F2^n in reduced echelon form: the rows and
    pivots of full Gauss-Jordan (``subspace_from_rows`` of ``tests/f2ref.py``).

    Elimination keys each row by its lowest bit, its pivot: a row has no bit
    below it, so clearing v's pivot bits from the bottom up leaves them clear.
    Back-substitution, higher pivots first, then clears each row's other
    pivot bits with rows that hold no pivot bit but their own.
    """
    rows: dict[int, int] = {}
    lead = 0
    for v in vectors:
        hit = v & lead
        while hit:
            v ^= rows[(hit & -hit).bit_length() - 1]
            hit = v & lead
        if v:
            low = v & -v
            rows[low.bit_length() - 1] = v
            lead |= low
    pivots = sorted(rows)
    for p in reversed(pivots):
        r = rows[p]
        hit = (r & lead) ^ (1 << p)
        while hit:
            low = hit & -hit
            r ^= rows[low.bit_length() - 1]
            hit ^= low
        rows[p] = r
    return Subspace(n, [rows[p] for p in pivots], tuple(pivots))


def _graph(columns: Sequence[int], rows: int) -> EchelonAccumulator:
    """Semi-echelon span of the graph vectors ``(c_j << n) | 1 << j`` of n columns."""
    n = len(columns)
    graph = EchelonAccumulator()
    for j, c in enumerate(columns):
        if c >> rows:
            raise F2Error("column has bits set beyond row count")
        graph.add((c << n) | (1 << j))
    return graph


def image_and_kernel(columns: Sequence[int], rows: int) -> tuple[EchelonAccumulator, list[int]]:
    """The image span and an unreduced kernel basis of a matrix given as columns.

    One elimination of the graph (:func:`_graph`) serves both (Bruner's
    [d | I]).  Rows led at or above n carry the image in their high part,
    with distinct leads; rows led below n have no high part and are kernel
    vectors, one per dimension of the kernel.  :func:`reduced` turns them
    into the canonical basis of ``kernel_basis`` in ``tests/f2ref.py``.
    """
    n = len(columns)
    graph = _graph(columns, rows)
    image, kernel = EchelonAccumulator(), []
    for p, r in graph._rows.items():
        if p >= n:
            image._rows[p - n] = r >> n
            image._lead |= 1 << (p - n)
        else:
            kernel.append(r)
    return image, kernel
