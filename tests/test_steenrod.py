import random

import pytest

from extlab.steenrod import (
    AlgebraElement,
    AlgebraTable,
    DegreeError,
    binom_mod2,
    is_admissible,
    milnor_basis_dims,
)


@pytest.fixture(scope="module")
def alg():
    return AlgebraTable(34)


def test_enumeration_examples(alg):
    assert alg.basis(0) == ((),)
    assert alg.basis(3) == ((3,), (2, 1))
    assert alg.basis(6) == ((6,), (5, 1), (4, 2))


def test_dimension_cross_check(alg):
    # independent oracle: partition counts from the Poincare series
    assert [alg.dim(t) for t in range(25)] == milnor_basis_dims(24)
    # frozen values from the exhaustive enumeration
    assert [alg.dim(t) for t in range(11)] == [1, 1, 1, 2, 2, 2, 3, 4, 4, 5, 6]


def test_admissibility_predicate():
    assert is_admissible(())
    assert is_admissible((5,))
    assert is_admissible((4, 2, 1))
    assert not is_admissible((2, 2))


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
    assert alg.adem_reduce([1, 1]).coords == 0
    assert alg.adem_reduce([2, 2]) == alg.monomial((3, 1))
    assert alg.adem_reduce([5]) == alg.sq(5)
    assert alg.adem_reduce([2, 3]) == alg.sq(5) + alg.monomial((4, 1))
    assert alg.adem_reduce([3, 2]).coords == 0
    assert alg.adem_reduce([]) == alg.unit


def test_adem_rejects_bad_words(alg):
    with pytest.raises(ValueError):
        alg.adem_reduce([0, 2])
    with pytest.raises(DegreeError):
        alg.adem_reduce([30, 30])
    with pytest.raises(ValueError):
        alg.adem_reduce([1, 1], strategy="inside-out")


def test_sq_columns_match_adem_reduce():
    # every Sq^k table through degree 24, each filled by the Adem recursion
    alg = AlgebraTable(24)
    for n in range(24):
        for k in range(1, 25 - n):
            cols = alg.sq_columns(k, n)
            assert len(cols) == alg.dim(n)
            for i, mono in enumerate(alg.basis(n)):
                assert cols[i] == alg.adem_reduce([k, *mono]).coords, (k, mono)


def test_multiply_mono_matches_adem_reduce(alg):
    for da in range(17):
        for db in range(17 - da):
            for ia, a in enumerate(alg.basis(da)):
                for ib, b in enumerate(alg.basis(db)):
                    assert alg.multiply_mono(da, ia, db, ib) == alg.adem_reduce([*a, *b]).coords


def test_heads_match_slicing(alg):
    assert alg.heads(0) == ((0, 0),)
    for n in range(1, 25):
        assert alg.heads(n) == tuple((m[0], alg.index(m[1:])) for m in alg.basis(n))


def test_multiply_examples(alg):
    assert alg.multiply(alg.unit, alg.sq(7)) == alg.sq(7)
    assert alg.multiply(alg.sq(1), alg.sq(2)) == alg.sq(3)
    assert alg.multiply(alg.sq(1), alg.sq(1)).coords == 0


def test_multiply_degree_overflow(alg):
    with pytest.raises(DegreeError):
        alg.multiply(alg.sq(20), alg.sq(20))


def test_associativity_exhaustive_low(alg):
    # all basis triples with total degree <= 14; degree 20 spot checks below
    for da in range(1, 13):
        for db in range(1, 14 - da):
            for dc in range(1, 15 - da - db):
                for ia in range(alg.dim(da)):
                    a = AlgebraElement(da, 1 << ia)
                    for ib in range(alg.dim(db)):
                        ab = alg.multiply(a, AlgebraElement(db, 1 << ib))
                        b = AlgebraElement(db, 1 << ib)
                        for ic in range(alg.dim(dc)):
                            c = AlgebraElement(dc, 1 << ic)
                            assert alg.multiply(ab, c) == alg.multiply(a, alg.multiply(b, c))


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
        assert alg.multiply(alg.multiply(a, b), c) == alg.multiply(a, alg.multiply(b, c))
        done += 1


def test_adem_confluence(alg):
    rng = random.Random(23)
    done = 0
    while done < 2500:
        word = [rng.randrange(1, 9) for _ in range(rng.randrange(2, 6))]
        if sum(word) > 20:
            continue
        left = alg.adem_reduce(word, "leftmost")
        right = alg.adem_reduce(word, "rightmost")
        assert left == right, word
        done += 1


def test_antipode_examples(alg):
    assert alg.antipode_sq(1) == alg.sq(1)
    assert alg.antipode_sq(2) == alg.sq(2)
    assert alg.antipode_sq(3) == alg.monomial((2, 1))
    assert alg.antipode_elem(alg.unit) == alg.unit
    assert alg.antipode_elem(alg.monomial((2, 1))) == alg.sq(3)


def test_antipode_involution(alg):
    for t in range(1, 21):
        for i in range(alg.dim(t)):
            x = AlgebraElement(t, 1 << i)
            assert alg.antipode_elem(alg.antipode_elem(x)) == x, (t, i)


def test_antipode_is_anti_homomorphism(alg):
    rng = random.Random(5)
    for _ in range(300):
        da, db = rng.randrange(1, 10), rng.randrange(1, 10)
        a = AlgebraElement(da, 1 << rng.randrange(alg.dim(da)))
        b = AlgebraElement(db, 1 << rng.randrange(alg.dim(db)))
        lhs = alg.antipode_elem(alg.multiply(a, b))
        rhs = alg.multiply(alg.antipode_elem(b), alg.antipode_elem(a))
        assert lhs == rhs


def test_decomposability_pattern(alg):
    assert not alg.is_decomposable(alg.sq(4))
    assert alg.is_decomposable(alg.sq(6))
    assert alg.is_decomposable(alg.antipode_sq(6))
    for n in range(2, 33):
        expected = (n & (n - 1)) != 0
        assert alg.is_decomposable(alg.sq(n)) == expected, n
        assert alg.is_decomposable(alg.antipode_sq(n)) == expected, ("chi", n)


def test_decomposability_rejects_degree_zero(alg):
    with pytest.raises(ValueError):
        alg.is_decomposable(alg.unit)


def test_element_arithmetic(alg):
    x = alg.sq(5) + alg.monomial((4, 1))
    assert x + alg.sq(5) == alg.monomial((4, 1))
    with pytest.raises(DegreeError):
        alg.sq(2) + alg.sq(3)
    assert alg.terms(x) == [(5,), (4, 1)]


def test_degree_window(alg):
    with pytest.raises(DegreeError):
        alg.basis(35)
    with pytest.raises(DegreeError):
        alg.zero(-1)
