import random

import pytest

from extlab.f2core import combine
from extlab.oracle import Span, rank, reduce_word
from extlab.steenrod import (
    AlgebraElement,
    AlgebraTable,
    DegreeError,
    binom_mod2,
    milnor_basis_dims,
)


@pytest.fixture(scope="module")
def alg():
    return AlgebraTable(34)


# -- test-side products, read from the Sq^k tables -----------------------------


def terms(alg, x):
    return [m for j, m in enumerate(alg.basis(x.degree)) if x.coords >> j & 1]


def expansion(alg, words):
    """Coordinates of a sum of distinct admissible words, e.g. a ``reduce_word`` result."""
    return sum(1 << alg.index(w) for w in words)


def apply_word(alg, word, y):
    """Sq^{w1}...Sq^{wk} y: the letters applied to y right to left."""
    coords, deg = y.coords, y.degree
    for e in reversed(word):
        coords = combine(alg.sq_columns(e, deg), coords)
        deg += e
    return coords


def multiply(alg, x, y):
    out = 0
    for mono in terms(alg, x):
        out ^= apply_word(alg, mono, y)
    return AlgebraElement(x.degree + y.degree, out)


def antipode(alg, x):
    """chi extended as an anti-automorphism: reverse each word, conjugate its letters."""
    out = 0
    for mono in terms(alg, x):
        acc = AlgebraElement(0, 1)
        for e in mono:
            acc = multiply(alg, alg.antipode_sq(e), acc)
        out ^= acc.coords
    return AlgebraElement(x.degree, out)


def test_enumeration_examples(alg):
    assert alg.basis(0) == ((),)
    assert alg.basis(3) == ((3,), (2, 1))
    assert alg.basis(6) == ((6,), (5, 1), (4, 2))


def test_dimension_cross_check(alg):
    # independent oracle: partition counts from the Poincare series
    assert [alg.dim(t) for t in range(25)] == milnor_basis_dims(24)
    # frozen values from the exhaustive enumeration
    assert [alg.dim(t) for t in range(11)] == [1, 1, 1, 2, 2, 2, 3, 4, 4, 5, 6]


def test_admissibility_predicate(alg):
    # the basis of degree t is exactly the admissible words of positive letters
    def admissible(word):
        return all(word[j] >= 2 * word[j + 1] for j in range(len(word) - 1))

    def compositions(t):
        if t == 0:
            yield ()
        for first in range(1, t + 1):
            for rest in compositions(t - first):
                yield (first,) + rest

    assert admissible((4, 2, 1)) and not admissible((2, 2))
    for t in range(13):
        assert set(alg.basis(t)) == {w for w in compositions(t) if admissible(w)}, t


def test_binom_mod2():
    assert binom_mod2(0, 0) == 1
    assert binom_mod2(5, 2) == 0
    assert binom_mod2(5, 1) == 1
    assert binom_mod2(2, 3) == 0
    # full agreement with Pascal's triangle mod 2
    row = [1]
    for m in range(1, 40):
        row = [1] + [(row[i] + row[i + 1]) % 2 for i in range(len(row) - 1)] + [1]
        for n, v in enumerate(row):
            assert binom_mod2(m, n) == v, (m, n)


def test_adem_examples(alg):
    assert reduce_word((1, 1)) == frozenset()
    assert reduce_word((2, 2)) == {(3, 1)}
    assert reduce_word((5,)) == {(5,)}
    assert reduce_word((2, 3)) == {(5,), (4, 1)}
    assert reduce_word((3, 2)) == frozenset()
    assert reduce_word(()) == {()}
    assert alg.sq_columns(2, 3)[alg.index((3,))] == expansion(alg, [(5,), (4, 1)])


def test_sq_columns_match_adem_reduce():
    # every Sq^k table through degree 24, each filled by the Adem recursion
    alg = AlgebraTable(24)
    for n in range(24):
        for k in range(1, 25 - n):
            cols = alg.sq_columns(k, n)
            assert len(cols) == alg.dim(n)
            for i, mono in enumerate(alg.basis(n)):
                assert cols[i] == expansion(alg, reduce_word((k, *mono))), (k, mono)


def test_heads_match_slicing(alg):
    assert alg.heads(0) == ((0, 0),)
    for n in range(1, 25):
        assert alg.heads(n) == tuple((m[0], alg.index(m[1:])) for m in alg.basis(n))


def test_multiply_examples(alg):
    assert multiply(alg, AlgebraElement(0, 1), alg.sq(7)) == alg.sq(7)
    assert multiply(alg, alg.sq(1), alg.sq(2)) == alg.sq(3)
    assert multiply(alg, alg.sq(1), alg.sq(1)).coords == 0


def test_multiply_degree_overflow(alg):
    with pytest.raises(DegreeError):
        multiply(alg, alg.sq(20), alg.sq(20))


def test_associativity_exhaustive_low(alg):
    # all basis triples with total degree <= 14; degree 20 spot checks below
    for da in range(1, 13):
        for db in range(1, 14 - da):
            for dc in range(1, 15 - da - db):
                for ia in range(alg.dim(da)):
                    a = AlgebraElement(da, 1 << ia)
                    for ib in range(alg.dim(db)):
                        b = AlgebraElement(db, 1 << ib)
                        ab = multiply(alg, a, b)
                        for ic in range(alg.dim(dc)):
                            c = AlgebraElement(dc, 1 << ic)
                            assert multiply(alg, ab, c) == multiply(alg, a, multiply(alg, b, c))


def test_associativity_sampled_to_20(alg):
    rng = random.Random(11)
    done = 0
    while done < 2500:
        da, db, dc = (rng.randrange(1, 12) for _ in range(3))
        if da + db + dc > 20:
            continue
        a = AlgebraElement(da, 1 << rng.randrange(alg.dim(da)))
        b = AlgebraElement(db, 1 << rng.randrange(alg.dim(db)))
        c = AlgebraElement(dc, 1 << rng.randrange(alg.dim(dc)))
        assert multiply(alg, multiply(alg, a, b), c) == multiply(alg, a, multiply(alg, b, c))
        done += 1


def test_adem_confluence(alg):
    # the tables rewrite the leftmost letter into an admissible tail, the
    # oracle the rightmost inadmissible pair first
    rng = random.Random(23)
    done = 0
    while done < 2500:
        word = tuple(rng.randrange(1, 9) for _ in range(rng.randrange(2, 6)))
        if sum(word) > 20:
            continue
        assert apply_word(alg, word, AlgebraElement(0, 1)) == expansion(alg, reduce_word(word)), word
        done += 1


def test_antipode_examples(alg):
    assert alg.antipode_sq(1) == alg.sq(1)
    assert alg.antipode_sq(2) == alg.sq(2)
    assert alg.antipode_sq(3) == AlgebraElement(3, 1 << alg.index((2, 1)))
    assert alg.antipode_sq(0) == AlgebraElement(0, 1)


def test_antipode_involution(alg):
    for t in range(1, 21):
        for i in range(alg.dim(t)):
            x = AlgebraElement(t, 1 << i)
            assert antipode(alg, antipode(alg, x)) == x, (t, i)


def test_antipode_is_anti_homomorphism(alg):
    rng = random.Random(5)
    for _ in range(300):
        da, db = rng.randrange(1, 10), rng.randrange(1, 10)
        a = AlgebraElement(da, 1 << rng.randrange(alg.dim(da)))
        b = AlgebraElement(db, 1 << rng.randrange(alg.dim(db)))
        lhs = antipode(alg, multiply(alg, a, b))
        rhs = multiply(alg, antipode(alg, b), antipode(alg, a))
        assert lhs == rhs


def test_decomposability_pattern(alg):
    # Sq^n and chi(Sq^n) lie in the span of the products a * b of positive
    # degrees exactly when n is not a power of 2; the products come from the
    # oracle's Adem rewriting of the concatenated words
    for n in range(2, 33):
        span = Span()
        for d in range(1, n):
            for a in alg.basis(d):
                for b in alg.basis(n - d):
                    span.add(expansion(alg, reduce_word(a + b)))
        products = list(span.rows.values())

        def decomposable(x):
            return rank(products + [x.coords]) == len(products)

        expected = (n & (n - 1)) != 0
        assert decomposable(alg.sq(n)) == expected, n
        assert decomposable(alg.antipode_sq(n)) == expected, ("chi", n)


def test_degree_window(alg):
    with pytest.raises(DegreeError):
        alg.basis(35)
    with pytest.raises(DegreeError):
        alg.dim(-1)
    with pytest.raises(DegreeError):
        alg.sq(35)
