import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from extlab.f2core import (
    EchelonAccumulator,
    F2Error,
    Solver,
    Subspace,
    combine,
    image_and_kernel,
    quotient_section,
    rank,
    reduced,
)
from f2ref import BitMatrix, column_space, kernel_basis, rref, solve, subspace_from_rows


@st.composite
def bit_matrices(draw, max_dim=64):
    r = draw(st.integers(0, max_dim))
    c = draw(st.integers(0, max_dim))
    data = [draw(st.integers(0, (1 << c) - 1)) for _ in range(r)]
    return BitMatrix(r, c, data)


@given(bit_matrices())
@settings(max_examples=200, deadline=None)
def test_rank_nullity(m):
    assert rref(m).rank + kernel_basis(m).rank == m.cols


@given(bit_matrices())
@settings(max_examples=200, deadline=None)
def test_rref_idempotent(m):
    reduced = rref(m).matrix
    assert rref(reduced).matrix.data == reduced.data


@given(bit_matrices(max_dim=24), st.integers(0, (1 << 24) - 1))
@settings(max_examples=200, deadline=None)
def test_solve_soundness(m, b):
    b &= (1 << m.rows) - 1
    x = solve(m, b)
    if x is not None:
        assert m.mul_vec(x) == b
    # batch solver agrees with the one-shot path bit for bit
    assert Solver(m.columns(), m.rows).solve(b) == x


@given(bit_matrices(max_dim=24))
@settings(max_examples=200, deadline=None)
def test_solve_finds_existing_solutions(m, ):
    # any column combination is solvable
    v = 0
    for j, col in enumerate(m.columns()):
        if j % 2 == 0:
            v ^= col
    assert solve(m, v) is not None


@given(st.integers(0, 24), st.lists(st.integers(0, (1 << 24) - 1), max_size=6))
@settings(max_examples=200, deadline=None)
def test_quotient_exactness(n, vectors):
    vectors = [v & ((1 << n) - 1) for v in vectors]
    sub = subspace_from_rows(vectors, n)
    proj, free = quotient_section(n, sub)
    assert len(free) == n - sub.rank
    assert [proj[j] for j in free] == [1 << k for k in range(len(free))]
    for row in sub.rows:
        assert combine(proj, row) == 0
    assert kernel_basis(BitMatrix.from_columns(proj, len(free))) == sub


def test_rref_empty_and_identity():
    assert rref(BitMatrix(0, 0, [])).rank == 0
    res = rref(BitMatrix(3, 3, [1, 2, 4]))
    assert res.matrix.data == (1, 2, 4)
    assert res.pivots == (0, 1, 2)
    assert res.rank == 3


def test_rref_dependent_rows():
    m = BitMatrix(3, 3, [0b011, 0b110, 0b101])
    assert rref(m).rank == 2


def test_kernel_examples():
    assert kernel_basis(BitMatrix(2, 3, [0, 0])).rank == 3
    assert kernel_basis(BitMatrix(5, 5, [1 << i for i in range(5)])).rank == 0
    ker = kernel_basis(BitMatrix(1, 2, [0b11]))
    assert ker.rank == 1 and ker.rows[0] == 0b11


def test_solve_examples():
    assert solve(BitMatrix(4, 4, [1, 2, 4, 8]), 0b1010) == 0b1010
    assert solve(BitMatrix(2, 2, [0, 0]), 0b10) is None
    assert solve(BitMatrix(2, 1, [1, 1]), 0b11) == 1


def test_solver_edges():
    assert Solver([], 0).solve(0) == 0
    zeros = Solver([0, 0, 0], 2)
    assert zeros.solve(0) == 0
    assert zeros.solve(0b10) is None
    # free variables stay zero: x is supported on the pivot column 0
    assert Solver([0b1, 0b1], 1).solve(1) == 0b01
    with pytest.raises(F2Error):
        Solver([], 0).solve(1)
    with pytest.raises(F2Error):
        Solver([0b01, 0b11], 2).solve(0b100)
    with pytest.raises(F2Error):
        Solver([0b100], 2)


def test_quotient_examples():
    full = subspace_from_rows([1, 2, 4], 3)
    _, free = quotient_section(3, full)
    assert len(free) == 0
    proj, free = quotient_section(3, subspace_from_rows([], 3))
    assert proj == [1, 2, 4]
    _, free = quotient_section(2, subspace_from_rows([0b11], 2))
    assert len(free) == 1


def test_subspace_coordinates_and_reduce():
    """Coordinates over a reduced basis are a solve against its rows."""
    sub = subspace_from_rows([0b011, 0b110], 3)
    solver = Solver(sub.rows, 3)
    assert solver.solve(0b101) is not None
    assert solver.solve(0b001) is None
    assert solver.solve(0b011) == 0b11


def test_column_space_and_from_columns():
    m = BitMatrix(2, 3, [0b101, 0b110])
    assert column_space(m).rank == 2
    assert BitMatrix.from_columns(m.columns(), m.rows).data == m.data


def test_immutability_and_padding():
    sub = Subspace(2, [0b01, 0b10], (0, 1))
    with pytest.raises(AttributeError):
        sub.rows = ()
    with pytest.raises(F2Error):
        Subspace(2, [0b100], (2,))  # bit at the ambient dimension
    with pytest.raises(F2Error):
        Subspace(2, [0b01, 0b10], (0,))  # one pivot for two rows


def test_echelon_accumulator():
    acc = EchelonAccumulator()
    assert acc.add(0b0110)
    assert acc.add(0b0110) == 0
    assert acc.add(0b1100)
    assert acc.reduce(0b1010) == 0
    assert acc.rank == 2
    assert acc.subspace(4) == subspace_from_rows([0b0110, 0b1100], 4)


def test_rank_helper():
    assert rank([1 << i for i in range(6)]) == 6
    assert rank([0, 0, 0]) == 0


@given(bit_matrices())
@settings(max_examples=200, deadline=None)
def test_rank_matches_rref(m):
    assert rank(m.data) == rref(m).rank


@st.composite
def matrices_and_vectors(draw, max_dim=64):
    m = draw(bit_matrices(max_dim))
    return m, draw(st.integers(0, (1 << m.cols) - 1))


@given(matrices_and_vectors())
@settings(max_examples=200, deadline=None)
def test_combine_matches_mul_vec(mv):
    m, v = mv
    assert combine(m.columns(), v) == m.mul_vec(v)


def _coordinates_by_reduction(sub, v):
    """Reduce v against the basis rows, recording which rows were used."""
    coords = 0
    for i, (row, p) in enumerate(zip(sub.rows, sub.pivots)):
        if (v >> p) & 1:
            v ^= row
            coords |= 1 << i
    return coords if v == 0 else None


@st.composite
def subspaces_and_vectors(draw, max_dim=48):
    n = draw(st.integers(0, max_dim))
    rows = draw(st.lists(st.integers(0, (1 << n) - 1), max_size=n + 2))
    sub = subspace_from_rows(rows, n)
    inside = combine(sub.rows, draw(st.integers(0, (1 << sub.rank) - 1)))
    anywhere = draw(st.integers(0, (1 << n) - 1))
    free = [j for j in range(n) if j not in sub.pivots]
    # a span vector is fixed by its pivot bits, so adding e_j off the pivots leaves the span
    outside = [inside ^ 1 << draw(st.sampled_from(free))] if free else []
    return sub, draw(st.sampled_from([inside, anywhere, *outside]))


@given(subspaces_and_vectors())
@settings(max_examples=300, deadline=None)
def test_coordinates_match_reduction(sv):
    """The rows of a reduced basis are independent, so ``Solver`` gives the
    one combination of them that makes v, and None for v outside the span."""
    sub, v = sv
    coords = Solver(sub.rows, sub.ambient_dim).solve(v)
    assert coords == _coordinates_by_reduction(sub, v)
    if coords is not None:
        assert combine(sub.rows, coords) == v


@st.composite
def column_lists(draw, max_dim=40):
    """Column lists with zero and repeated columns mixed in; rows or n may be 0."""
    rows = draw(st.integers(0, max_dim))
    cols = draw(st.lists(st.integers(0, (1 << rows) - 1), max_size=max_dim))
    picks = draw(st.lists(st.integers(0, len(cols) + 1), max_size=max_dim))
    mixed = [0 if i == len(cols) or not cols else cols[i % len(cols)] for i in picks]
    return draw(st.permutations(cols + mixed)), rows


@given(column_lists())
@settings(max_examples=300, deadline=None)
def test_image_and_kernel_match_kernel_basis(cr):
    cols, rows = cr
    m = BitMatrix.from_columns(cols, rows)
    image, vectors = image_and_kernel(cols, rows)
    kernel, reference = reduced(vectors, len(cols)), kernel_basis(m)
    assert kernel == reference  # Subspace equality ignores the pivots
    assert kernel.pivots == reference.pivots
    assert image.subspace(rows) == column_space(m)


@given(column_lists())
@settings(max_examples=300, deadline=None)
def test_accumulator_subspace_matches_from_rows(cr):
    vectors, n = cr
    acc = EchelonAccumulator()
    for v in vectors:
        acc.add(v)
    sub, reference = acc.subspace(n), subspace_from_rows(vectors, n)
    assert sub.rows == reference.rows
    assert sub.pivots == reference.pivots


def _kernel(cols, rows):
    return reduced(image_and_kernel(cols, rows)[1], len(cols))


def test_image_and_kernel_edges():
    assert _kernel([], 0).rows == ()
    assert image_and_kernel([], 3)[0].rank == 0
    assert _kernel([0, 0], 0).rows == (0b01, 0b10)
    assert _kernel([0b11, 0b11, 0b01], 2).rows == (0b011,)
    with pytest.raises(F2Error):
        image_and_kernel([0b100], 2)


@st.composite
def vector_lists(draw, max_dim=40):
    """Vectors in F2^n with zeros, repeats and sums of earlier vectors mixed
    in; n may be 0."""
    n = draw(st.integers(0, max_dim))
    vectors = draw(st.lists(st.integers(0, (1 << n) - 1), max_size=n + 4))
    for a, b in draw(st.lists(st.tuples(st.integers(0, 99), st.integers(0, 99)), max_size=6)):
        vectors.append(vectors[a % len(vectors)] ^ vectors[b % len(vectors)] if vectors else 0)
    vectors += [0] * draw(st.integers(0, 2))
    return draw(st.permutations(vectors)), n


@given(vector_lists())
@settings(max_examples=200, deadline=None)
def test_reduced_matches_subspace_from_rows(vn):
    vectors, n = vn
    sub, reference = reduced(vectors, n), subspace_from_rows(vectors, n)
    assert sub.rows == reference.rows
    assert sub.pivots == reference.pivots
    assert sub.ambient_dim == n


def test_reduced_edges():
    assert reduced([], 0) == Subspace(0, [], ())
    assert reduced([0, 0], 0).rows == ()
    assert reduced([0b011, 0b110, 0b101], 3).rows == (0b101, 0b110)  # back-substituted
    with pytest.raises(F2Error):
        reduced([0b100], 2)


@st.composite
def spans_and_vectors(draw, max_dim=20, max_rank=7):
    n = draw(st.integers(0, max_dim))
    span = draw(st.lists(st.integers(0, (1 << n) - 1), max_size=max_rank))
    return span, draw(st.permutations(span)), draw(st.integers(0, (1 << n) - 1)), n


@given(spans_and_vectors())
@settings(max_examples=300, deadline=None)
def test_accumulator_remainder_is_canonical(svn):
    span, shuffled, v, n = svn
    elements = {combine(span, c) for c in range(1 << len(span))}
    leads = 0
    for x in elements - {0}:
        leads |= 1 << (x.bit_length() - 1)
    remainders = []
    for order in (span, shuffled):
        acc = EchelonAccumulator()
        for x in order:
            acc.add(x)
        remainders.append(acc.reduce(v))
        assert acc.add(v) == remainders[-1]
    r = remainders[0]
    assert remainders[1] == r
    assert r ^ v in elements
    assert r & leads == 0
