"""The mod-2 Steenrod algebra in the admissible basis.

A monomial Sq^{i1}...Sq^{ik} is admissible when i_j >= 2*i_{j+1}; the
admissible monomials of each degree form a basis.  The action of Sq^k on
it comes from the Adem relations

    Sq^a Sq^b = sum_c binom(b-c-1, a-2c) Sq^{a+b-c} Sq^c   (a < 2b, mod 2),

binomial parity decided by Lucas' theorem.  An :class:`AlgebraTable` fixes a
degree bound, enumerates the bases once, and memoizes the action of each
Sq^k; elements are bit-vectors over the canonical basis ordering of their
degree.

The tables ``sq_columns(k, n)`` hold the columns of Sq^k from degree n to
n + k.  The column of a monomial m is (k, *m) when m is empty or m =
(a, *tail) with k >= 2a, else the Adem sum over c of Sq^{k+a-c}(Sq^c tail):
tables of the same total degree and a larger exponent k + a - c > k (as
c <= k/2 < a), or of lower total degree, so the memoized recursion ends.
``extlab verify`` checks every table entry to degree 64 against the
independent rewriter of :mod:`extlab.oracle`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .f2core import combine


class DegreeError(ValueError):
    """Operation would leave the configured degree window."""


Monomial = tuple[int, ...]  # admissible exponent sequence; () is the unit


def binom_mod2(m: int, n: int) -> int:
    """binom(m, n) mod 2 by Lucas: odd iff the bits of n sit inside m."""
    if n < 0 or m < 0 or n > m:
        return 0
    return 1 if (n & (m - n)) == 0 else 0


def milnor_basis_dims(max_t: int) -> list[int]:
    """Poincare series of the algebra from partitions into parts 2^i - 1.

    A second, enumeration-free oracle for the basis dimensions.
    """
    dims = [1] + [0] * max_t
    i = 1
    while (1 << i) - 1 <= max_t:
        p = (1 << i) - 1
        for t in range(p, max_t + 1):
            dims[t] += dims[t - p]
        i += 1
    return dims


@lru_cache(maxsize=None)
def _admissible_words(t: int) -> tuple[Monomial, ...]:
    if t == 0:
        return ((),)
    words = []
    for first in range(t, 0, -1):
        if first == t:
            words.append((t,))
            continue
        for rest in _admissible_words(t - first):
            if rest and first >= 2 * rest[0]:
                words.append((first,) + rest)
    # canonical ordering: descending lexicographic on exponent sequences
    return tuple(sorted(words, reverse=True))


@lru_cache(maxsize=None)
def _adem_pair(a: int, b: int) -> tuple[Monomial, ...]:
    """Admissible-side terms of the Adem relation for the pair Sq^a Sq^b."""
    if not 0 < a < 2 * b:
        raise ValueError(f"Sq^{a} Sq^{b} is admissible: no Adem relation applies")
    terms = []
    for c in range(0, a // 2 + 1):
        if binom_mod2(b - c - 1, a - 2 * c):
            terms.append((a + b - c,) if c == 0 else (a + b - c, c))
    return tuple(terms)


@dataclass(frozen=True)
class AlgebraElement:
    """Homogeneous element: bit j of coords = coefficient of basis monomial j."""

    degree: int
    coords: int


class AlgebraTable:
    """Basis enumeration and the memoized action of each Sq^k up to a
    degree bound.

    Built once, then read-only; the Sq^k and antipode tables fill in lazily
    and deterministically, so precomputing before sharing across threads is
    optional.
    """

    def __init__(self, max_degree: int):
        if max_degree < 0:
            raise DegreeError("max_degree must be non-negative")
        self._max_degree = max_degree
        self._basis: list[tuple[Monomial, ...]] = [
            _admissible_words(t) for t in range(max_degree + 1)
        ]
        self._index: list[dict[Monomial, int]] = [
            {m: i for i, m in enumerate(basis)} for basis in self._basis
        ]
        self._heads = [
            tuple((m[0], self._index[t - m[0]][m[1:]]) if m else (0, 0) for m in basis)
            for t, basis in enumerate(self._basis)
        ]
        self._sq: dict[tuple[int, int], list[int]] = {}
        self._antipode_sq: dict[int, int] = {0: 1}

    # -- basis bookkeeping -------------------------------------------------

    def check_degree(self, t: int) -> None:
        if not 0 <= t <= self._max_degree:
            raise DegreeError(f"degree {t} outside [0, {self._max_degree}]")

    def basis(self, t: int) -> tuple[Monomial, ...]:
        self.check_degree(t)
        return self._basis[t]

    def dim(self, t: int) -> int:
        self.check_degree(t)
        return len(self._basis[t])

    def index(self, mono: Monomial) -> int:
        return self._index[sum(mono)][mono]

    def sq(self, n: int) -> AlgebraElement:
        self.check_degree(n)
        return AlgebraElement(n, 1 << self._index[n][(n,) if n else ()])

    # -- the action of Sq^k ------------------------------------------------

    def heads(self, n: int) -> tuple[tuple[int, int], ...]:
        """(first exponent a, index of the tail in degree n - a) of each
        degree-n basis monomial; the unit gives (0, 0)."""
        self.check_degree(n)
        return self._heads[n]

    def sq_columns(self, k: int, n: int) -> list[int]:
        """Columns of left multiplication by Sq^k (k >= 1) from degree n to n + k."""
        cols = self._sq.get((k, n))
        if cols is None:
            self.check_degree(n + k)
            index = self._index[n + k]
            cols = []
            for m, (a, tail) in zip(self._basis[n], self.heads(n)):
                if k >= 2 * a:
                    cols.append(1 << index[(k,) + m])
                    continue
                acc = 0
                for term in _adem_pair(k, a):
                    if len(term) == 1:
                        acc ^= self.sq_columns(term[0], n - a)[tail]
                    else:
                        inner = self.sq_columns(term[1], n - a)[tail]
                        acc ^= combine(self.sq_columns(term[0], n - a + term[1]), inner)
                cols.append(acc)
            self._sq[(k, n)] = cols
        return cols

    # -- antipode ------------------------------------------------------------

    def antipode_sq(self, n: int) -> AlgebraElement:
        """chi(Sq^n) from the recursion sum_{i+j=n} Sq^i chi(Sq^j) = 0."""
        self.check_degree(n)
        for m in range(1, n + 1):
            if m in self._antipode_sq:
                continue
            acc = 0
            for j in range(m):
                acc ^= combine(self.sq_columns(m - j, j), self._antipode_sq[j])
            self._antipode_sq[m] = acc
        return AlgebraElement(n, self._antipode_sq[n])
