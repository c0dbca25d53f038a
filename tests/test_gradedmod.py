import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import extlab.gradedmod
from extlab.f2core import combine, compose, image_and_kernel, quotient_section, reduced
from extlab.gradedmod import (
    ExactnessError,
    FreeIndexer,
    GradedModule,
    ModuleMap,
    ShortExactSequence,
    factor_map,
    free_module,
    inclusion_map,
    map_from_generators,
    quotient_map,
    sq1_quotient,
    trivial_module,
)
from extlab.oracle import reduce_word
from extlab.scenarios import ScenarioSpec, scenario_map
from extlab.steenrod import AlgebraTable
from f2ref import BitMatrix, kernel_basis, subspace_from_rows

MAX_T = 14


@pytest.fixture(scope="module")
def alg():
    return AlgebraTable(MAX_T + 2)


@pytest.fixture(scope="module")
def amod(alg):
    return free_module(alg, [0], MAX_T)


def check_adem_relations(mod, amax=None):
    """For every inadmissible pair (a, b) with a <= amax (default: the whole
    window), the action of Sq^a Sq^b equals the sum of its admissible
    rewriting applied as maps, in every degree."""
    for a in range(1, (amax or mod.max_t) + 1):
        for b in range((a + 2) // 2, mod.max_t + 1):
            for t in range(0, mod.max_t - a - b + 1):
                rhs = [0] * mod.dim(t)
                for mono in reduce_word((a, b)):
                    term = mod.action(mono[-1], t)
                    if len(mono) == 2:
                        term = compose(mod.action(mono[0], t + mono[1]), term)
                    rhs = [x ^ y for x, y in zip(rhs, term)]
                lhs = compose(mod.action(a, t + b), mod.action(b, t))
                assert lhs == rhs, f"Adem relation Sq^{a}Sq^{b} fails at degree {t}"


def test_free_module_is_the_algebra(alg, amod):
    assert amod.dims == tuple(alg.dim(t) for t in range(MAX_T + 1))
    check_adem_relations(amod)


def test_free_module_examples(alg):
    assert free_module(alg, [], 6).dims == (0,) * 7
    shifted = free_module(alg, [2, 4], 4)
    assert shifted.dims == (0, 0, 1, 1, 2)  # A0, A1, A2 (+) A0


def test_action_out_of_window_is_zero_shaped(amod):
    cols = amod.action(3, MAX_T - 1)
    assert cols == [0] * amod.dim(MAX_T - 1)


def test_apply_sq_out_of_window_is_zero(amod):
    top = (1 << amod.dim(MAX_T - 1)) - 1
    assert amod.apply_sq(3, MAX_T - 1, top) == 0
    assert amod.free_basis.apply_sq(3, MAX_T - 1, top) != 0  # the indexer has no window
    assert amod.apply_sq(1, MAX_T - 1, top) == combine(amod.action(1, MAX_T - 1), top)


# sha256 of free_module(alg, [2, 4, ..., 38], 38), taken from the stored
# action tables that the module kept before its indexer computed them.
FREE_EVEN_38 = "8f2b511b66be41d434ff8221230072359c400607dc22b712c10e6e28d843943c"


def test_free_module_stores_no_action():
    """The domain of scenario f at T = 38 holds its dimensions and its
    indexer; with the action tables it held about 1.3 MiB."""
    alg = AlgebraTable(38)
    shifts = list(range(2, 39, 2))
    assert free_module(alg, shifts, 38).digest() == FREE_EVEN_38  # also fills the algebra's tables
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        mod = free_module(alg, shifts, 38)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert retained < 256 * 1024, retained
    assert mod.digest() == FREE_EVEN_38


def test_digest_falls_back_to_hashlib():
    """With both builtin SHA-256 modules blocked, as on builds that strip
    them, the digest comes from hashlib and is the same."""
    code = (
        "import sys\n"
        "sys.modules['_sha2'] = sys.modules['_sha256'] = None\n"
        "import hashlib\n"
        "from extlab import gradedmod\n"
        "from extlab.steenrod import AlgebraTable\n"
        "print(gradedmod.sha256 is hashlib.sha256)\n"
        "print(gradedmod.free_module(AlgebraTable(38), list(range(2, 39, 2)), 38).digest())"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    out = subprocess.run([sys.executable, "-c", code],
                         env=env, capture_output=True, text=True, check=True).stdout
    assert out.split() == ["True", FREE_EVEN_38]


def test_map_from_generators_examples(alg, amod):
    sigma1 = free_module(alg, [1], MAX_T)
    zero = map_from_generators(sigma1, amod, [0])
    assert not any(any(cols) for cols in zero.columns)
    f = map_from_generators(sigma1, amod, [1 << alg.index((1,))])
    assert f.columns[1] == [1]
    f.check_linearity()


def test_map_from_generators_needs_free_domain(alg, amod):
    quotient = sq1_quotient(alg, MAX_T).codomain
    with pytest.raises(ValueError):
        map_from_generators(quotient, amod, [1])


def test_map_into_quotient(alg):
    # Sigma^2 A -> A/ASq1 sending the generator to [Sq2]: in degree 3 the
    # basis element Sq1*gen goes to [Sq1 Sq2] = [Sq3]
    p = sq1_quotient(alg, MAX_T)
    quotient = p.codomain
    dom = free_module(alg, [2], MAX_T)
    cls_sq2 = p.apply(2, 1 << alg.index((2,)))
    g = map_from_generators(dom, quotient, [cls_sq2])
    g.check_linearity()
    image = g.apply(3, 1)
    # the quotient basis: admissible monomials not ending in Sq1, in algebra order
    kept = [m for m in alg.basis(3) if not m or m[-1] != 1]
    assert image == 1 << kept.index((3,))


def test_factor_identity(alg, amod):
    ident = ModuleMap(amod, amod, tuple([1 << i for i in range(d)] for d in amod.dims))
    fac = factor_map(ident)
    assert fac.K.dims == (0,) * (MAX_T + 1)
    assert fac.C.dims == (0,) * (MAX_T + 1)
    assert fac.I.dims == amod.dims


def _right_mul_sq1(alg, max_t):
    """Right multiplication by Sq^1, Sigma A -> A."""
    return map_from_generators(
        free_module(alg, [1], max_t), free_module(alg, [0], max_t), [1 << alg.index((1,))]
    )


def test_factor_right_mul_sq1(alg):
    fac = factor_map(_right_mul_sq1(alg, MAX_T))
    assert fac.C.dims[:4] == (1, 0, 1, 1)
    for t in range(MAX_T + 1):
        assert fac.K.dims[t] + fac.I.dims[t] == fac.source.domain.dims[t]
        assert fac.I.dims[t] + fac.C.dims[t] == fac.source.codomain.dims[t]
    for mp in (fac.i_K, fac.p_I, fac.i_I, fac.p_C):
        mp.check_linearity()
    fac.kernel_sequence().check_exact()
    fac.cokernel_sequence().check_exact()


def test_a_mod_sq1_structure(alg):
    p = sq1_quotient(alg, MAX_T)
    quotient = p.codomain
    assert quotient.dims[:5] == (1, 0, 1, 1, 1)
    # freeness over the Sq1-exterior subalgebra, as a computed identity
    for t in range(1, MAX_T + 1):
        assert alg.dim(t) == quotient.dims[t] + quotient.dims[t - 1]
    # canonical complement basis = admissible monomials not ending in Sq1:
    # the projection sends them to e_0, e_1, ... in order and the rest to 0
    for t in range(MAX_T + 1):
        kept = [i for i, m in enumerate(alg.basis(t)) if not m or m[-1] != 1]
        assert p.columns[t] == [
            1 << kept.index(i) if i in kept else 0 for i in range(alg.dim(t))
        ], t
    check_adem_relations(quotient)
    # [Sq1] = 0 in degree 1
    assert sq1_quotient(alg, MAX_T).apply(1, 1 << alg.index((1,))) == 0


def test_big_map_cokernel_is_f2(alg):
    # the sum of right-multiplications by all even squares into A/ASq1
    max_t = 12
    p = sq1_quotient(alg, max_t)
    shifts = [2 * i for i in range(1, max_t // 2 + 1)]
    dom = free_module(alg, shifts, max_t)
    targets = [p.apply(2 * i, 1 << alg.index((2 * i,))) for i in range(1, max_t // 2 + 1)]
    fac = factor_map(map_from_generators(dom, p.codomain, targets))
    assert fac.C.dims == (1,) + (0,) * max_t
    # image is the kernel of the nonzero map to F2: everything in degrees >= 1
    for t in range(max_t + 1):
        assert fac.I.dims[t] == (p.codomain.dims[t] if t >= 1 else 0)


@pytest.mark.parametrize("max_t", [14, 26, 40])
def test_sq1_quotient_matches_the_factored_cokernel(max_t):
    """The coordinate quotient equals the cokernel of right multiplication
    by Sq^1, as factor_map builds it: same digest and projection."""
    alg = AlgebraTable(max_t)
    p = sq1_quotient(alg, max_t)
    fac = factor_map(_right_mul_sq1(alg, max_t))
    assert p.codomain.digest() == fac.C.digest()
    assert p.columns == fac.p_C.columns


def test_kernel_closure_under_action(alg):
    fac = factor_map(_right_mul_sq1(alg, MAX_T))
    dom = fac.source.domain
    for t in range(MAX_T):
        for v in [fac.i_K.columns[t][j] for j in range(fac.K.dims[t])]:
            image = dom.apply_sq(1, t, v)
            if fac.K.dims[t + 1] or image == 0:
                back = fac.source.apply(t + 1, image)
                assert back == 0


def test_linearity_check_catches_breakage(alg, amod):
    sigma1 = free_module(alg, [1], MAX_T)
    f = map_from_generators(sigma1, amod, [1 << alg.index((1,))])
    columns = list(f.columns)
    columns[3] = [0] * len(columns[3])
    broken = ModuleMap(sigma1, amod, tuple(columns))
    with pytest.raises(ExactnessError):
        broken.check_linearity()


def test_map_into_a_codomain_that_breaks_an_adem_relation_is_rejected(alg):
    # Sq^1 Sq^1 = 0 fails on this codomain, so no linear map from A sends
    # the generator to its bottom class
    broken = GradedModule(alg, 2, [1, 1, 1], {(1, 0): [1], (1, 1): [1]})
    with pytest.raises(ExactnessError, match="Sq\\^1 at degree 1"):
        map_from_generators(free_module(alg, [0], 2), broken, [1])


def test_module_constructor_checks_actions(alg):
    dims = [1, 1, 1]
    GradedModule(alg, 2, dims, {(1, 0): [1], (1, 1): [1]})
    with pytest.raises(ValueError, match="columns"):
        GradedModule(alg, 2, dims, {(1, 0): [1, 0]})
    with pytest.raises(ValueError, match="beyond degree 1"):
        GradedModule(alg, 2, dims, {(1, 0): [0b10]})
    with pytest.raises(ValueError, match="outside window"):
        GradedModule(alg, 2, dims, {(2, 1): [1]})


def test_module_map_constructor_checks_columns(alg):
    one = trivial_module(alg, 2)
    ModuleMap(one, one, ([1], [], []))
    with pytest.raises(ValueError, match="one column list per degree"):
        ModuleMap(one, one, ([1], []))
    with pytest.raises(ValueError, match="columns"):
        ModuleMap(one, one, ([1], [0], []))
    with pytest.raises(ValueError, match="beyond the codomain"):
        ModuleMap(one, one, ([0b10], [], []))


def test_module_digest_is_its_content(alg):
    m1 = trivial_module(alg, 6)
    m2 = GradedModule(alg, 6, m1.dims, {})
    assert m1.digest() == m2.digest()
    m3 = GradedModule(alg, 6, [0, 1, 0, 0, 0, 0, 0], {})
    assert m1.digest() != m3.digest()


@pytest.mark.parametrize("mid_dim, incl, proj, message", [
    (1, [1], [1], "rank mismatch"),
    (2, [0], [0, 1], "inclusion not injective"),
    (2, [1], [0, 0], "projection not surjective"),
    (2, [1], [1, 0], "projection o inclusion nonzero"),
])
def test_check_exact_names_the_broken_piece(alg, mid_dim, incl, proj, message):
    """0 -> F2 -> mid -> F2 -> 0 in degree 0, with one piece broken; the
    unbroken sequence is mid = F2 + F2, e_0 -> e_0 and (e_0, e_1) -> (0, e_0)."""
    one = GradedModule(alg, 0, [1], {})

    def sequence(mid_dim, incl, proj):
        mid = GradedModule(alg, 0, [mid_dim], {})
        return ShortExactSequence(one, mid, one, ModuleMap(one, mid, (incl,)),
                                  ModuleMap(mid, one, (proj,)))

    with pytest.raises(ExactnessError, match=f"{message} at degree 0"):
        sequence(mid_dim, incl, proj).check_exact()
    sequence(2, [1], [0, 1]).check_exact()


def test_factor_map_refuses_a_column_outside_its_image(alg, monkeypatch):
    """An image one row short, as a wrong elimination would give, leaves a
    column of the map outside it."""
    real = extlab.gradedmod.image_and_kernel

    def one_row_short(columns, rows):
        image, kernel = real(columns, rows)
        lead = max(image._rows)
        del image._rows[lead]
        image._lead ^= 1 << lead
        return image, kernel

    monkeypatch.setattr(extlab.gradedmod, "image_and_kernel", one_row_short)
    free = free_module(alg, [0], 2)
    identity = ModuleMap(free, free, tuple([1 << i for i in range(d)] for d in free.dims))
    with pytest.raises(ExactnessError, match="a column of the map leaves its image at degree 0"):
        factor_map(identity)


def test_linearity_checked_over_every_generating_square(alg):
    """Sq^4 g is reached by no Sq^1 or Sq^2, so only a check that includes
    k = 4 sees a map that is wrong on it alone."""
    free = free_module(alg, [0], 4)
    columns = [[1 << i for i in range(d)] for d in free.dims]
    sq4 = alg.index((4,))
    columns[4][sq4] ^= 1 << alg.index((3, 1))
    broken = ModuleMap(free, free, tuple(columns))
    with pytest.raises(ExactnessError):
        factor_map(broken)


@pytest.mark.parametrize("kind, n", [("fn", 4), ("fnz", 4), ("f", None), ("f-conj", None)])
def test_induced_actions_read_through_the_pivots(kind, n):
    """inclusion_map reads Sq^k at the pivots with no membership test, and
    factor_map checks linearity over the generating squares only.  On the
    scenario maps the read equals ``Subspace.coordinates`` of each Sq^k v,
    for every k, and the four maps of the factorization are linear over
    every Sq^k."""
    max_t = 18
    fac = factor_map(scenario_map(ScenarioSpec(kind, 2, max_t, n), AlgebraTable(max_t)))
    for incl in (fac.i_K, fac.i_I):
        sub, mid = incl.domain, incl.codomain
        subs = [subspace_from_rows(cols, mid.dim(t)) for t, cols in enumerate(incl.columns)]
        assert [list(s.rows) for s in subs] == list(incl.columns)
        for k in range(1, max_t + 1):
            for t in range(max_t - k + 1):
                reference = [
                    subs[t + k].coordinates(mid.apply_sq(k, t, v)) for v in incl.columns[t]
                ]
                assert sub.action(k, t) == reference, (k, t)
    for mp in (fac.i_K, fac.p_I, fac.i_I, fac.p_C):
        mp.check_linearity()


def _window(max_t):
    return [(k, t) for k in range(1, max_t + 1) for t in range(max_t - k + 1)]


def _eager_sub_actions(incl):
    """Every Sq^k of a submodule by the formula that stored it as a table:
    the pivot read compose(compose(sel, Sq^k), rows)."""
    sub, mid = incl.domain, incl.codomain
    subs = [subspace_from_rows(cols, mid.dim(t)) for t, cols in enumerate(incl.columns)]
    sels = [[0] * mid.dim(t) for t in range(sub.max_t + 1)]
    for t, space in enumerate(subs):
        for i, p in enumerate(space.pivots):
            sels[t][p] = 1 << i
    return sub, {
        (k, t): compose(compose(sels[t + k], mid.action(k, t)), list(subs[t].rows))
        for k, t in _window(sub.max_t)
    }


def _eager_quotient_actions(proj):
    """Every Sq^k of a quotient by the formula that stored it as a table: the
    projection of Sq^k of each coordinate at no pivot of the kernel."""
    mid, quot = proj.domain, proj.codomain
    frees = []
    for t, cols in enumerate(proj.columns):
        kernel = kernel_basis(BitMatrix.from_columns(cols, quot.dim(t)))
        projs, free = quotient_section(mid.dim(t), kernel)
        assert projs == cols, t
        frees.append(free)
    return quot, {
        (k, t): [combine(proj.columns[t + k], mid.action(k, t)[j]) for j in frees[t]]
        for k, t in _window(quot.max_t)
    }


@pytest.fixture(scope="module")
def transported_at_20():
    """K, I and C of f, fnz (n = 4) and f-conj at (8, 20), and A//A(0), each
    with its Sq^k by the eager formulas."""
    alg = AlgebraTable(20)
    out = [_eager_quotient_actions(sq1_quotient(alg, 20))]
    for kind, n in [("f", None), ("fnz", 4), ("f-conj", None)]:
        fac = factor_map(scenario_map(ScenarioSpec(kind, 8, 20, n), alg))
        out += [_eager_sub_actions(fac.i_K), _eager_sub_actions(fac.i_I),
                _eager_quotient_actions(fac.p_C)]
    return out


def test_transported_actions_match_the_eager_tables(transported_at_20):
    """K, I and C apply Sq^k through their middle module and A//A(0) stores a
    table built from its transported quotient: every Sq^k in the window is
    the table the eager formula builds, and past it both are zero."""
    for mod, eager in transported_at_20:
        for (k, t), cols in eager.items():
            assert mod.action(k, t) == cols, (k, t)
        for t in range(mod.max_t + 1):
            top = (1 << mod.dim(t)) - 1
            assert mod.action(mod.max_t - t + 1, t) == [0] * mod.dim(t)
            assert mod.apply_sq(mod.max_t - t + 1, t, top) == 0


@given(data=st.data())
@settings(max_examples=200, deadline=None)
def test_transported_apply_sq_is_the_action(transported_at_20, data):
    mod, eager = data.draw(st.sampled_from(transported_at_20))
    k, t = data.draw(st.sampled_from(sorted(eager)))
    v = data.draw(st.integers(0, (1 << mod.dim(t)) - 1))
    assert mod.apply_sq(k, t, v) == combine(mod.action(k, t), v) == combine(eager[(k, t)], v)


# sha256 of K, I and C of scenario f at T = 38, taken from the stored action
# tables that the modules kept before they applied Sq^k through D and A//A(0).
F_38_FACTORS = (
    "7c767a850895eae2f6a12c30371a98849132038413cfc7260c1dc6102d5375ff",
    "38bbbacde41fe420601ddb89ae4b6f99bb5dd86e333618ded5c0868435a5678b",
    "7cdcc9179ba0cbf5767710f8acc284fc81e237df89ea00e3df0184f38075674e",
)


def test_factored_modules_store_no_action():
    """K, I and C of scenario f at T = 38 hold their dimensions and the column
    lists into their middle module and back; with the action tables,
    factor_map retained about 1.6 MiB beyond f."""
    f = scenario_map(ScenarioSpec("f", 14, 38), AlgebraTable(38))
    first = factor_map(f)  # also fills the algebra's tables
    assert (first.K.digest(), first.I.digest(), first.C.digest()) == F_38_FACTORS
    del first
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        fac = factor_map(f)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert retained < 1024 * 1024, retained
    assert (fac.K.digest(), fac.I.digest(), fac.C.digest()) == F_38_FACTORS


def test_image_that_is_no_submodule_is_rejected(alg, amod):
    """F2 -> A sending 1 to the unit is not A-linear, and its image, the
    unit alone, is no submodule.  The pivot read drops Sq^1 of the unit,
    and factor_map rejects the map by the linearity of p_C, whose kernel
    the image is."""
    unit = ModuleMap(trivial_module(alg, MAX_T), amod, ([1],) + ([],) * MAX_T)
    with pytest.raises(ExactnessError, match="not linear over Sq\\^1 at degree 0"):
        factor_map(unit)


def test_kernel_that_is_no_submodule_is_rejected(alg):
    """The identity of A except zero in degree 0: its image A_{>0} is a
    submodule, its kernel A_0 is not, so only the kernel side can reject
    it, by the linearity of p_I, whose kernel K is."""
    amod = free_module(alg, [0], 8)
    columns = [[1 << i for i in range(d)] for d in amod.dims]
    columns[0] = [0]
    with pytest.raises(ExactnessError, match="not linear over Sq\\^1 at degree 0"):
        factor_map(ModuleMap(amod, amod, tuple(columns)))


def _four_maps(f):
    """i_K, p_I, i_I and p_C of f, built apart from factor_map."""
    kers, imgs = [], []
    for t in range(f.max_t + 1):
        image, kernel = image_and_kernel(f.columns[t], f.codomain.dim(t))
        kers.append(reduced(kernel, f.domain.dim(t)))
        imgs.append(image.subspace(f.codomain.dim(t)))
    i_K, i_I = inclusion_map(f.domain, kers), inclusion_map(f.codomain, imgs)
    p_I = ModuleMap(f.domain, i_I.domain, tuple(
        [imgs[t].coordinates(c) for c in cols] for t, cols in enumerate(f.columns)
    ))
    return i_K, p_I, i_I, quotient_map(f.codomain, imgs)


def _fails_linearity(mp):
    try:
        mp.check_linearity()
    except ExactnessError:
        return True
    return False


@pytest.fixture(scope="module")
def linear_maps_at_10(alg):
    return [
        _right_mul_sq1(alg, 10),
        scenario_map(ScenarioSpec("f", 2, 10), AlgebraTable(10)),
    ]


@given(data=st.data())
@settings(max_examples=80, deadline=None)
def test_the_projections_reject_what_any_of_the_four_maps_rejects(linear_maps_at_10, data):
    """One bit flipped in one column of a linear map: factor_map, which
    checks p_I and p_C, raises exactly when one of i_K, p_I, i_I and p_C
    fails linearity over the generating squares, and exactly when the
    flipped map itself does."""
    f = data.draw(st.sampled_from(linear_maps_at_10))
    t = data.draw(st.sampled_from([
        t for t in range(11) if f.domain.dim(t) and f.codomain.dim(t)
    ]))
    j = data.draw(st.integers(0, f.domain.dim(t) - 1))
    bit = data.draw(st.integers(0, f.codomain.dim(t) - 1))
    columns = [list(cols) for cols in f.columns]
    columns[t][j] ^= 1 << bit
    flipped = ModuleMap(f.domain, f.codomain, tuple(columns))
    any_fails = any(_fails_linearity(mp) for mp in _four_maps(flipped))
    assert any_fails == _fails_linearity(flipped)
    try:
        factor_map(flipped)
    except ExactnessError:
        assert any_fails
    else:
        assert not any_fails


def test_free_indexer_with_unsorted_generators(alg):
    idx = FreeIndexer(alg, [4, 2, 0])
    assert idx.blocks(2) == [(1, 2, 0), (2, 0, 1)]
    assert idx.offset(0, 2) == 0  # generator 0 starts above degree 2
    assert idx.dim(4) == 1 + alg.dim(2) + alg.dim(4)
    assert idx.offset(2, 4) == 1 + alg.dim(2)
    # Sq^2 of generator 1 is the (1, Sq2) basis vector of degree 4
    assert idx.apply_sq(2, 2, 1 << idx.offset(1, 2)) == 1 << (idx.offset(1, 4) + alg.index((2,)))
    assert idx.action_columns(2, 2) == [
        idx.apply_sq(2, 2, 1 << j) for j in range(idx.dim(2))
    ]
    with pytest.raises(ValueError):
        idx.add_generator(-1)  # appended generators stay non-decreasing
    assert idx.add_generator(0) == 3


# Digests taken from the code before free modules and resolutions shared
# one basis indexer; no other test builds a free module on unsorted shifts.
FREE_4_2_0 = "5d6b58506ca0c2a5a971f0450d33414ad1db77cc6459c847ae49114285af6dbe"
SQ4_SQ2_FACTORS = (
    "0c775c5e1ebb1d1fd6d923f160b28f093d117b9e6740b10eddf0fdbea60d88c7",
    "e0696bebfce44a1763b0588a1a0c834a9a011fd8033b2eccf541ab002902d559",
    "50bc52d800dca125ceb5612c39fc38b38f599bf109d6cf81b15f0bc107571c8a",
)


def test_free_module_on_unsorted_shifts():
    alg = AlgebraTable(14)
    mod = free_module(alg, [4, 2, 0], 14)
    assert mod.digest() == FREE_4_2_0
    basis = [(g, m) for g, d, _ in mod.free_basis.blocks(4) for m in alg.basis(4 - d)]
    assert basis == [(0, ()), (1, (2,)), (2, (4,)), (2, (3, 1))]
    check_adem_relations(mod, amax=4)
    targets = [1 << alg.index((4,)), 1 << alg.index((2,))]
    fac = factor_map(map_from_generators(
        free_module(alg, [4, 2], 14), free_module(alg, [0], 14), targets
    ))
    assert (fac.K.digest(), fac.I.digest(), fac.C.digest()) == SQ4_SQ2_FACTORS
