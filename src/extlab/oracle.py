"""Naive dense cross-check for Ext dimension tables.

This is a deliberately independent second path to the numbers produced by
:mod:`extlab.resolve`: it has its own admissible-word enumeration (ascending
order), its own recursive Adem rewriting (rightmost pair first), and it
assembles every differential matrix entry from scratch by concatenating
words and re-reducing, instead of propagating columns.  Generators cover
kernels greedily, and Ext dimensions are read off as homology of the
dualized resolution (unit-coefficient matrices), so the result does not
depend on the cover being minimal.

It imports nothing from :mod:`extlab`: its linear algebra is its own small
Gauss-Jordan (:class:`Span`, :func:`kernel`, :func:`rank`) on rows packed
into ints, so an elimination bug in the engine cannot reach both sides of
a comparison.  Desk bounds only; this is a test oracle, not a tool.
"""

from __future__ import annotations

from functools import lru_cache


class Span:
    """A subspace kept in reduced row-echelon form: ``rows[p]`` is the basis
    row whose lowest set bit is p, and no other row has bit p set."""

    def __init__(self):
        self.rows: dict[int, int] = {}

    def add(self, v: int) -> bool:
        """Add v to the span; False if it was already inside."""
        for p, r in self.rows.items():
            if v >> p & 1:
                v ^= r
        if not v:
            return False
        p = (v & -v).bit_length() - 1
        for q, r in self.rows.items():
            if r >> p & 1:
                self.rows[q] = r ^ v
        self.rows[p] = v
        return True


def rank(rows: list[int]) -> int:
    span = Span()
    return sum(span.add(r) for r in rows)


def kernel(columns: list[int], nrows: int) -> list[int]:
    """A basis of {x : m x = 0} for the nrows-row matrix m whose j-th column
    is ``columns[j]``: one vector per non-pivot column of its reduced rows."""
    span = Span()
    for i in range(nrows):
        span.add(sum(((c >> i) & 1) << j for j, c in enumerate(columns)))
    return [
        sum(1 << p for p, r in span.rows.items() if r >> j & 1) | 1 << j
        for j in range(len(columns)) if j not in span.rows
    ]


Word = tuple[int, ...]


@lru_cache(maxsize=None)
def admissible_words(t: int) -> tuple[Word, ...]:
    """All admissible words of degree t, ascending lexicographic order."""
    if t == 0:
        return ((),)
    found = []
    for last in range(1, t + 1):
        if last == t:
            found.append((t,))
        else:
            for head in admissible_words(t - last):
                if head and head[-1] >= 2 * last:
                    found.append(head + (last,))
    return tuple(sorted(found))


def _odd_binom(m: int, n: int) -> bool:
    return 0 <= n <= m and (n & (m - n)) == 0


@lru_cache(maxsize=None)
def reduce_word(word: Word) -> frozenset[Word]:
    """Admissible expansion of a word, rewriting the rightmost bad pair."""
    for j in range(len(word) - 2, -1, -1):
        a, b = word[j], word[j + 1]
        if a < 2 * b:
            total: set[Word] = set()
            for c in range(0, a // 2 + 1):
                if not _odd_binom(b - c - 1, a - 2 * c):
                    continue
                mid = (a + b - c,) if c == 0 else (a + b - c, c)
                total.symmetric_difference_update(reduce_word(word[:j] + mid + word[j + 2 :]))
            return frozenset(total)
    return frozenset({word})


class OracleModule:
    """Presents a module by explicit per-degree bases and an action on them."""

    def dim(self, t: int) -> int:
        raise NotImplementedError

    def act(self, k: int, t: int, i: int) -> list[int]:
        """Indices (degree t+k) of Sq^k applied to basis element i of degree t."""
        raise NotImplementedError


class OracleF2(OracleModule):
    def dim(self, t: int) -> int:
        return 1 if t == 0 else 0

    def act(self, k: int, t: int, i: int) -> list[int]:
        return []


class OracleAModSq1(OracleModule):
    """A/ASq1 presented directly: admissible words whose last letter is >= 2.

    The submodule generated by Sq1 is spanned by the words ending in 1, so
    the quotient action just drops those terms.
    """

    @staticmethod
    @lru_cache(maxsize=None)
    def basis(t: int) -> tuple[Word, ...]:
        return tuple(w for w in admissible_words(t) if not (w and w[-1] == 1))

    def dim(self, t: int) -> int:
        return len(self.basis(t))

    def act(self, k: int, t: int, i: int) -> list[int]:
        target = self.basis(t + k)
        return [
            target.index(w)
            for w in reduce_word((k,) + self.basis(t)[i])
            if not (w and w[-1] == 1)
        ]


class _Level:
    """One level of the resolution: either the module itself or a free level."""

    def __init__(self, module: OracleModule | None, gen_degrees: list[int] | None):
        self.module = module
        self.gen_degrees = gen_degrees
        self._elements: dict[int, list[tuple[int, Word]]] = {}
        self._index: dict[int, dict[tuple[int, Word], int]] = {}

    def dim(self, t: int) -> int:
        if self.module is not None:
            return self.module.dim(t)
        return len(self.elements(t))

    def elements(self, t: int) -> list[tuple[int, Word]]:
        if self.gen_degrees is None:
            raise TypeError("the module level has no free basis to enumerate")
        got = self._elements.get(t)
        if got is None:
            got = [
                (g, w)
                for g, d in enumerate(self.gen_degrees)
                if d <= t
                for w in admissible_words(t - d)
            ]
            self._elements[t] = got
        return got

    def index(self, t: int) -> dict[tuple[int, Word], int]:
        got = self._index.get(t)
        if got is None:
            got = {gw: i for i, gw in enumerate(self.elements(t))}
            self._index[t] = got
        return got

    def apply_sq(self, k: int, t: int, vec: int) -> int:
        """Sq^k on a degree-t coordinate vector of this level."""
        out = 0
        if self.module is not None:
            for i in range(self.module.dim(t)):
                if (vec >> i) & 1:
                    for j in self.module.act(k, t, i):
                        out ^= 1 << j
            return out
        idx = self.index(t + k)
        for i, (g, w) in enumerate(self.elements(t)):
            if (vec >> i) & 1:
                for ww in reduce_word((k,) + w):
                    out ^= 1 << idx[(g, ww)]
        return out

    def apply_word(self, w: Word, t: int, vec: int) -> int:
        for k in reversed(w):
            vec = self.apply_sq(k, t, vec)
            t += k
        return vec


def oracle_ext_dims(kind: str, max_s: int, max_t: int) -> dict[tuple[int, int], int]:
    """Ext^{s,t} dimensions for F2 or A/ASq1, computed the slow blunt way."""
    module = {"f2": OracleF2, "a-mod-sq1": OracleAModSq1}[kind]()
    top_s = max_s + 1  # one extra level so homology at max_s is honest

    levels: list[_Level] = [_Level(module, None)]
    targets: list[list[int]] = [[]]  # targets[s][g]: vector over level s-1, s >= 1
    gen_degrees: list[list[int]] = [[]]

    for s in range(1, top_s + 2):
        prev = levels[s - 1]
        below = levels[s - 2] if s >= 2 else None
        gens: list[int] = []
        tgts: list[int] = []
        spans = [Span() for _ in range(max_t + 1)]
        for t in range(max_t + 1):
            for k in range(1, t + 1):
                for row in spans[t - k].rows.values():
                    spans[t].add(prev.apply_sq(k, t - k, row))
            if s == 1:
                needed = [1 << i for i in range(module.dim(t))]
            else:
                cols = [
                    below.apply_word(w, gen_degrees[s - 1][g], targets[s - 1][g])
                    for g, w in prev.elements(t)
                ]
                needed = kernel(cols, below.dim(t))
            for v in needed:
                if spans[t].add(v):
                    gens.append(t)
                    tgts.append(v)
        levels.append(_Level(None, gens))
        gen_degrees.append(gens)
        targets.append(tgts)

    # Indexing note: levels[s+1] is the free module P_s.
    def unit_matrix(p: int, t: int) -> list[int]:
        """Pairing of degree-t generators of P_{p-1} against d_p targets,
        one int per target."""
        lev_rows = p  # level index of P_{p-1}
        rows = [g for g, d in enumerate(gen_degrees[lev_rows]) if d == t]
        cols_g = [g for g, d in enumerate(gen_degrees[lev_rows + 1]) if d == t]
        idx = levels[lev_rows].index(t)
        units = [idx[(gi, ())] for gi in rows]
        return [
            sum(((targets[lev_rows + 1][gj] >> u) & 1) << i for i, u in enumerate(units))
            for gj in cols_g
        ]

    dims: dict[tuple[int, int], int] = {}
    for s in range(max_s + 1):
        for t in range(max_t + 1):
            n = sum(1 for d in gen_degrees[s + 1] if d == t)
            rank_in = rank(unit_matrix(s, t)) if s >= 1 else 0
            rank_out = rank(unit_matrix(s + 1, t))
            dims[(s, t)] = n - rank_in - rank_out
    return dims
