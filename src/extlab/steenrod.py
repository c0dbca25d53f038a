"""The mod-2 Steenrod algebra in the admissible basis.

A monomial Sq^{i1}...Sq^{ik} is admissible when i_j >= 2*i_{j+1}; the
admissible monomials of each degree form a basis.  Arbitrary words are
rewritten into this basis with the Adem relations

    Sq^a Sq^b = sum_c binom(b-c-1, a-2c) Sq^{a+b-c} Sq^c   (a < 2b, mod 2),

binomial parity decided by Lucas' theorem.  An :class:`AlgebraTable` fixes a
degree bound, enumerates the bases once, and memoizes products; elements are
bit-vectors over the canonical basis ordering of their degree.

Products apply tables ``sq_columns(k, n)``, the columns of Sq^k from degree
n to n + k.  The column of a monomial m is (k, *m) when m is empty or m =
(a, *tail) with k >= 2a, else the Adem sum over c of Sq^{k+a-c}(Sq^c tail):
tables of the same total degree and a larger exponent k + a - c > k (as
c <= k/2 < a), or of lower total degree, so the memoized recursion ends.
``adem_reduce`` rewrites words directly; it is the tables' test reference.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .f2core import EchelonAccumulator, combine


class DegreeError(ValueError):
    """Operation would leave the configured degree window."""


Monomial = tuple[int, ...]  # admissible exponent sequence; () is the unit


def is_admissible(word: Monomial) -> bool:
    return all(word[j] >= 2 * word[j + 1] for j in range(len(word) - 1))


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
    assert 0 < a < 2 * b
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

    def __add__(self, other: "AlgebraElement") -> "AlgebraElement":
        if self.degree != other.degree:
            raise DegreeError("cannot add elements of different degrees")
        return AlgebraElement(self.degree, self.coords ^ other.coords)


class AlgebraTable:
    """Basis enumeration and memoized multiplication up to a degree bound.

    Built once, then read-only; product and antipode tables fill in lazily
    and deterministically, so precomputing before sharing across threads is
    optional.
    """

    def __init__(self, max_degree: int):
        if max_degree < 0:
            raise DegreeError("max_degree must be non-negative")
        self.max_degree = max_degree
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
        self._antipode_mono: dict[tuple[int, int], int] = {}
        self._decomposables: dict[int, EchelonAccumulator] = {}

    # -- basis bookkeeping -------------------------------------------------

    def check_degree(self, t: int) -> None:
        if not 0 <= t <= self.max_degree:
            raise DegreeError(f"degree {t} outside [0, {self.max_degree}]")

    def basis(self, t: int) -> tuple[Monomial, ...]:
        self.check_degree(t)
        return self._basis[t]

    def dim(self, t: int) -> int:
        self.check_degree(t)
        return len(self._basis[t])

    def index(self, mono: Monomial) -> int:
        return self._index[sum(mono)][mono]

    def monomial(self, word: Monomial) -> AlgebraElement:
        """Admissible word as a basis element."""
        t = sum(word)
        self.check_degree(t)
        if not is_admissible(word):
            raise ValueError(f"{word} is not admissible")
        return AlgebraElement(t, 1 << self._index[t][word])

    def sq(self, n: int) -> AlgebraElement:
        return self.monomial((n,) if n else ())

    @property
    def unit(self) -> AlgebraElement:
        return AlgebraElement(0, 1)

    def zero(self, t: int) -> AlgebraElement:
        self.check_degree(t)
        return AlgebraElement(t, 0)

    def terms(self, x: AlgebraElement) -> list[Monomial]:
        basis = self.basis(x.degree)
        coords = x.coords
        out = []
        while coords:
            low = coords & -coords
            out.append(basis[low.bit_length() - 1])
            coords ^= low
        return out

    # -- Adem rewriting ----------------------------------------------------

    def adem_reduce(self, word: list[int], strategy: str = "leftmost") -> AlgebraElement:
        """Image of Sq^{w1}...Sq^{wk} in the admissible basis.

        ``strategy`` picks which inadmissible adjacent pair is rewritten
        first; the result is independent of the choice (tested), leftmost is
        the default.
        """
        if any(w <= 0 for w in word):
            raise ValueError("exponents must be positive")
        t = sum(word)
        self.check_degree(t)
        if strategy not in ("leftmost", "rightmost"):
            raise ValueError(f"unknown strategy {strategy!r}")
        result = 0
        stack: list[Monomial] = [tuple(word)]
        index = self._index[t]
        while stack:
            w = stack.pop()
            spots = range(len(w) - 1) if strategy == "leftmost" else range(len(w) - 2, -1, -1)
            pos = next((j for j in spots if w[j] < 2 * w[j + 1]), None)
            if pos is None:
                result ^= 1 << index[w]
                continue
            for repl in _adem_pair(w[pos], w[pos + 1]):
                stack.append(w[:pos] + repl + w[pos + 2 :])
        return AlgebraElement(t, result)

    # -- multiplication ----------------------------------------------------

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

    def multiply_mono(self, da: int, ia: int, db: int, ib: int) -> int:
        """Coords of basis[da][ia] * basis[db][ib] in degree da+db: the
        letters of the left factor applied right to left."""
        coords, deg = 1 << ib, db
        for e in reversed(self._basis[da][ia]):
            coords = combine(self.sq_columns(e, deg), coords)
            deg += e
        return coords

    def multiply(self, a: AlgebraElement, b: AlgebraElement) -> AlgebraElement:
        t = a.degree + b.degree
        self.check_degree(t)
        result = 0
        ac = a.coords
        while ac:
            la = ac & -ac
            ia = la.bit_length() - 1
            ac ^= la
            bc = b.coords
            while bc:
                lb = bc & -bc
                result ^= self.multiply_mono(a.degree, ia, b.degree, lb.bit_length() - 1)
                bc ^= lb
        return AlgebraElement(t, result)

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

    def antipode_elem(self, x: AlgebraElement) -> AlgebraElement:
        """chi extended as an anti-automorphism: reverse the word, conjugate letters."""
        out = self.zero(x.degree)
        for mono in self.terms(x):
            key = (x.degree, self._index[x.degree][mono])
            coords = self._antipode_mono.get(key)
            if coords is None:
                acc = self.unit
                for e in reversed(mono):
                    acc = self.multiply(acc, self.antipode_sq(e))
                coords = acc.coords
                self._antipode_mono[key] = coords
            out = out + AlgebraElement(x.degree, coords)
        return out

    # -- decomposables -------------------------------------------------------

    def _decomposable_span(self, t: int) -> EchelonAccumulator:
        span = self._decomposables.get(t)
        if span is None:
            span = EchelonAccumulator(self.dim(t))
            for d in range(1, t):
                for ia in range(self.dim(d)):
                    for ib in range(self.dim(t - d)):
                        span.add(self.multiply_mono(d, ia, t - d, ib))
            self._decomposables[t] = span
        return span

    def is_decomposable(self, x: AlgebraElement) -> bool:
        """Whether x lies in the span of products of positive-degree elements."""
        if x.degree < 1:
            raise ValueError("decomposability is defined in positive degrees")
        return self._decomposable_span(x.degree).contains(x.coords)
