import hashlib
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import extlab.resolve
from extlab.f2core import image_and_kernel, reduced
from extlab.gradedmod import (
    factor_map,
    free_module,
    map_from_generators,
    sq1_quotient,
    trivial_module,
)
from extlab.oracle import admissible_words, oracle_ext_dims, reduce_word
from extlab.resolve import (
    CacheError,
    ExtChart,
    FreeIndexer,
    Resolution,
    cached_resolution,
    load_resolution,
    minimal_resolution,
    save_resolution,
    serialize_resolution,
)
from extlab.scenarios import ScenarioSpec, scenario_map
from extlab.steenrod import AlgebraElement, AlgebraTable

# Frozen from the dense oracle (tests/test_resolve.py computes them again in
# test_oracle_equivalence); every nonzero entry below has dimension 1.
EXT_F2_NONZERO_6_14 = {
    (0, 0),
    (1, 1), (1, 2), (1, 4), (1, 8),
    (2, 2), (2, 4), (2, 5), (2, 8), (2, 9), (2, 10),
    (3, 3), (3, 6), (3, 10), (3, 11), (3, 12),
    (4, 4), (4, 11), (4, 13),
    (5, 5), (5, 14),
    (6, 6),
}


@pytest.fixture(scope="module")
def alg():
    return AlgebraTable(16)


@pytest.fixture(scope="module")
def res_f2(alg):
    return minimal_resolution(trivial_module(alg, 14), 6, 14)


def test_resolution_of_free_module(alg):
    res = minimal_resolution(free_module(alg, [0], 10), 4, 10)
    assert sum(map(sum, res.chart().dims)) == res.chart().dim(0, 0) == 1


def test_resolution_of_suspended_free(alg):
    res = minimal_resolution(free_module(alg, [5], 10), 4, 10)
    assert sum(map(sum, res.chart().dims)) == res.chart().dim(0, 5) == 1


def test_ext_f2_frozen_chart(res_f2):
    chart = res_f2.chart()
    for s in range(7):
        for t in range(15):
            want = 1 if (s, t) in EXT_F2_NONZERO_6_14 else 0
            assert chart.dim(s, t) == want, (s, t)


def test_h_family(res_f2):
    chart = res_f2.chart()
    for t in range(15):
        assert chart.dim(1, t) == (1 if t in (1, 2, 4, 8) else 0)
    assert chart.dim(2, 2) == 1  # h0^2
    assert chart.dim(1, 3) == 0


def test_two_line_products(res_f2):
    # the s = 2 line is spanned by h_i h_j with j >= i and j != i + 1
    chart = res_f2.chart()
    pairs = {(i, j) for i in range(4) for j in range(4) if j >= i and j != i + 1}
    for t in range(15):
        want = sum(1 for (i, j) in pairs if 2**i + 2**j == t)
        assert chart.dim(2, t) == want, (t, chart.dim(2, t), want)


def test_tower(alg):
    res = minimal_resolution(sq1_quotient(alg, 14).codomain, 6, 14)
    chart = res.chart()
    for s in range(7):
        for t in range(15):
            assert chart.dim(s, t) == (1 if s == t else 0), (s, t)


def test_invariants(res_f2):
    res_f2.verify()


@pytest.mark.parametrize("build", [
    lambda alg: trivial_module(alg, 14),
    lambda alg: _scenario_f_kernel(14),
], ids=["f2", "f-kernel"])
def test_forgotten_columns_are_rebuilt_bit_identical(alg, build):
    res = minimal_resolution(build(alg), 6, 14)
    built = [dict(cols) for cols in res._cols]
    res.forget_columns()
    assert all(not cols for cols in res._cols)
    rebuilt = [{t: res.diff_columns(s, t) for t in range(res.max_t + 1)}
               for s in range(res.max_s + 1)]
    assert rebuilt == built
    res.forget_columns()
    res.verify()


def test_oracle_equivalence(alg):
    dims = oracle_ext_dims("f2", 6, 14)
    chart = minimal_resolution(trivial_module(alg, 14), 6, 14).chart()
    for (s, t), d in dims.items():
        assert chart.dim(s, t) == d, (s, t)
    dims = oracle_ext_dims("a-mod-sq1", 5, 12)
    chart = minimal_resolution(sq1_quotient(alg, 12).codomain, 5, 12).chart()
    for (s, t), d in dims.items():
        assert chart.dim(s, t) == d, (s, t)


def test_oracle_independents():
    # the oracle's own enumeration and rewriting behave
    assert admissible_words(3) == ((2, 1), (3,))
    assert reduce_word((2, 2)) == frozenset({(3, 1)})
    assert reduce_word((1, 1)) == frozenset()


def test_determinism(alg):
    a = minimal_resolution(trivial_module(alg, 12), 5, 12)
    b = minimal_resolution(trivial_module(alg, 12), 5, 12)
    assert serialize_resolution(a) == serialize_resolution(b)


def test_save_load_round_trip(tmp_path, alg, res_f2):
    path = str(tmp_path / "f2.extres")
    save_resolution(res_f2, path)
    loaded = load_resolution(path, trivial_module(alg, 14), 6, 14)
    assert serialize_resolution(loaded) == serialize_resolution(res_f2)
    path2 = str(tmp_path / "again.extres")
    save_resolution(loaded, path2)
    with open(path, "rb") as a, open(path2, "rb") as b:
        assert a.read() == b.read()


@pytest.mark.parametrize(
    "build, max_s",
    [
        (lambda alg: trivial_module(alg, 14), 6),
        (lambda alg: sq1_quotient(alg, 14).codomain, 6),
        (lambda alg: free_module(alg, [4, 2, 0], 14), 5),
    ],
    ids=["f2", "a-mod-sq1", "free-4-2-0"],
)
def test_load_gives_the_built_differential(tmp_path, alg, build, max_s):
    module = build(alg)
    built = minimal_resolution(module, max_s, 14)
    path = str(tmp_path / "res.extres")
    save_resolution(built, path)
    loaded = load_resolution(path, module, max_s, 14)
    assert loaded.targets == built.targets
    assert [ix.gen_degrees for ix in loaded.indexers] == [
        ix.gen_degrees for ix in built.indexers
    ]


def test_load_hash_mismatch(tmp_path, alg, res_f2):
    path = str(tmp_path / "f2.extres")
    save_resolution(res_f2, path)
    with pytest.raises(CacheError, match="different module"):
        load_resolution(path, sq1_quotient(alg, 14).codomain, 6, 14)


def test_load_truncated(tmp_path, alg, res_f2):
    path = str(tmp_path / "f2.extres")
    save_resolution(res_f2, path)
    with open(path) as fh:
        text = fh.read()
    with open(path, "w") as fh:
        fh.write(text[: len(text) // 2])
    with pytest.raises(CacheError, match="truncated"):
        load_resolution(path, trivial_module(alg, 14), 6, 14)


def test_load_bad_magic(tmp_path, alg):
    path = str(tmp_path / "junk.extres")
    with open(path, "w") as fh:
        fh.write("NOTEXTLAB\nend\n")
    with pytest.raises(CacheError, match="magic"):
        load_resolution(path, trivial_module(alg, 14), 6, 14)


def test_load_version_mismatch(tmp_path, alg, res_f2):
    path = str(tmp_path / "f2.extres")
    save_resolution(res_f2, path)
    with open(path) as fh:
        text = fh.read().replace("version 1", "version 9")
    with open(path, "w") as fh:
        fh.write(text)
    with pytest.raises(CacheError, match="cache format"):
        load_resolution(path, trivial_module(alg, 14), 6, 14)


def test_load_refuses_a_generator_beyond_max_t(tmp_path, alg):
    # neither verify nor the canonical re-serialization reads past max_t, so
    # only the window check on each gen line stops this file
    module = trivial_module(alg, 10)
    path = str(tmp_path / "f2.extres")
    save_resolution(minimal_resolution(module, 4, 10), path)
    with open(path) as fh:
        text = fh.read()
    assert text.endswith("\nend\n") and "gen 4 1 " not in text
    with open(path, "w") as fh:
        fh.write(text[: -len("end\n")] + "gen 4 1 11\nend\n")
    with pytest.raises(CacheError, match=r"generator 1 at \(s=4, t=11\) outside the window"):
        load_resolution(path, module, 4, 10)


def test_load_a_directory(tmp_path, alg):
    with pytest.raises(CacheError, match="cannot read"):
        load_resolution(str(tmp_path), trivial_module(alg, 14), 6, 14)


def test_a_failed_save_leaves_no_temp_file_and_the_old_file(tmp_path, alg, res_f2, monkeypatch):
    path = tmp_path / "f2.extres"
    save_resolution(res_f2, str(path))
    before = path.read_bytes()

    def refuse(res):
        raise RuntimeError("serialization failed")

    monkeypatch.setattr(extlab.resolve, "serialize_resolution", refuse)
    with pytest.raises(RuntimeError, match="serialization failed"):
        save_resolution(res_f2, str(path))
    assert os.listdir(tmp_path) == ["f2.extres"]
    assert path.read_bytes() == before


def test_cached_resolution(tmp_path, alg):
    cache = str(tmp_path / "cache")
    module = trivial_module(alg, 10)
    first = cached_resolution(module, 4, 10, cache)
    assert len(os.listdir(cache)) == 1
    mtime = os.path.getmtime(os.path.join(cache, os.listdir(cache)[0]))
    second = cached_resolution(module, 4, 10, cache)
    assert serialize_resolution(first) == serialize_resolution(second)
    assert os.path.getmtime(os.path.join(cache, os.listdir(cache)[0])) == mtime


def test_cached_resolution_recovers_from_corruption(tmp_path, alg):
    cache = str(tmp_path / "cache")
    module = trivial_module(alg, 10)
    first = cached_resolution(module, 4, 10, cache)
    victim = os.path.join(cache, os.listdir(cache)[0])
    with open(victim, "w") as fh:
        fh.write("garbage")
    second = cached_resolution(module, 4, 10, cache)
    assert serialize_resolution(first) == serialize_resolution(second)


def test_chart_shift(res_f2):
    chart = res_f2.chart()
    down = chart.shift_t(-1)
    assert down.dim(1, 0) == chart.dim(1, 1) == 1
    assert down.max_t == chart.max_t - 1


def test_free_indexer(alg):
    idx = FreeIndexer(alg)
    idx.add_generator(0)
    idx.add_generator(2)
    assert idx.dim(2) == alg.dim(2) + 1
    assert idx.blocks(2) == [(0, 0, 0), (1, 2, alg.dim(2))]
    with pytest.raises(ValueError):
        idx.add_generator(1)  # must be non-decreasing
    # the 2-dimensional degree-2 piece splits into Sq2 * g0 and g1
    assert idx.element_of(0b11, 2) == {0: AlgebraElement(2, 1), 1: AlgebraElement(0, 1)}


def test_bounds_validation(alg):
    with pytest.raises(ValueError):
        minimal_resolution(trivial_module(alg, 5), 3, -1)
    with pytest.raises(ValueError):
        minimal_resolution(trivial_module(alg, 5), 3, 10)  # module window too small


def test_ext_chart_helpers():
    chart = ExtChart(1, 2, ((1, 0, 0), (0, 1, 0)))
    assert chart.dim(0, 0) == 1
    assert chart.dim(5, 5) == 0


def test_resolution_of_unsorted_free_module():
    # sha256 taken from the code before free modules and resolutions shared
    # one basis indexer
    mod = free_module(AlgebraTable(14), [4, 2, 0], 14)
    text = serialize_resolution(minimal_resolution(mod, 5, 14))
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "3bd85632f59723594dd2101f75e3ad94f7b7a829f3f9d92c7eec010824b0b8c3"
    )


def test_free_indexer_table_follows_new_generators(alg):
    idx = FreeIndexer(alg)
    idx.add_generator(0)
    assert idx.blocks(3) == [(0, 0, 0)]
    assert idx.dim(3) == alg.dim(3)
    idx.add_generator(2)
    assert idx.blocks(3) == [(0, 0, 0), (1, 2, alg.dim(3))]
    assert idx.dim(3) == alg.dim(3) + alg.dim(1)
    assert idx.offset(1, 3) == alg.dim(3)
    assert idx.offset(1, 1) == idx.dim(1) == alg.dim(1)  # generator 1 starts above degree 1


@pytest.mark.parametrize("start", [(), (4, 2, 0)])
def test_add_generator_keeps_the_table_it_extends(alg, start):
    idx = FreeIndexer(alg, start)
    for t in (0, 0, 1, 3, 3, 6):
        for u in (0, 2, 5, t, t + 1):
            idx.dim(u)
        held = sorted(idx._table)
        idx.add_generator(t)
        assert sorted(idx._table) == held  # each degree read stays tabulated
        fresh = FreeIndexer(alg, idx.gen_degrees)
        for u in held:
            assert idx._table[u] == fresh._offsets(u)


def _eager_resolution(module, max_s, max_t):
    """The sweep with the canonical kernel of d_s reduced at every (s, t):
    the reference for :func:`minimal_resolution`, which reduces it only where
    the next s adds a generator."""
    res = Resolution(module, max_s, max_t)
    for t in range(max_t + 1):
        candidates = [1 << j for j in range(module.dim(t))]
        for s in range(max_s + 1):
            cols = res.diff_columns(s, t)
            image, kernel = image_and_kernel(cols, res.ambient_dim(s, t))
            new_cols = list(cols)
            for v in candidates:
                r = image.add(v)
                if r:
                    res.indexers[s].add_generator(t)
                    res.targets[s].append(r)
                    new_cols.append(r)
            res._cols[s][t] = new_cols
            candidates = reduced(kernel, len(cols)).rows
    return res


def _scenario_f_kernel(max_t):
    return factor_map(scenario_map(ScenarioSpec("f", 2, max_t))).K


@pytest.mark.parametrize("build, max_s, max_t", [
    (lambda alg: trivial_module(alg, 30), 12, 30),
    (lambda alg: sq1_quotient(alg, 24).codomain, 10, 24),
    (lambda alg: _scenario_f_kernel(20), 8, 20),
], ids=["f2", "a-mod-sq1", "f-kernel"])
def test_a_kernel_is_reduced_only_where_a_generator_appears(monkeypatch, build, max_s, max_t):
    """The image of the old columns lies in ker d_{s-1}, so where their ranks
    agree no candidate survives; only the (s, t) with s >= 1 that gain a
    generator reduce the kernel of the step before."""
    calls = []

    def counted(vectors, n):
        calls.append(n)
        return reduced(vectors, n)

    monkeypatch.setattr(extlab.resolve, "reduced", counted)
    res = minimal_resolution(build(AlgebraTable(max_t)), max_s, max_t)
    gained = [
        (s, t) for t in range(max_t + 1) for s in range(1, max_s + 1) if res.gens(s, t)
    ]
    assert len(calls) == len(gained) > 0


def test_a_kernel_vector_outside_the_kernel_stops_the_sweep(monkeypatch):
    """The d o d guard of minimal_resolution has teeth: with the first
    kernel vector of each elimination moved off the kernel by a basis vector
    whose column is nonzero, the sweep raises and names the bidegree."""
    def spoiled(columns, rows):
        image, kernel = image_and_kernel(columns, rows)
        hit = next((j for j, c in enumerate(columns) if c), None)
        if kernel and hit is not None:
            kernel[0] ^= 1 << hit
        return image, kernel

    monkeypatch.setattr(extlab.resolve, "image_and_kernel", spoiled)
    with pytest.raises(AssertionError, match=r"d o d != 0 on generator 2 at \(s=2, t=4\)"):
        minimal_resolution(trivial_module(AlgebraTable(14), 14), 6, 14)


@st.composite
def maps_onto_a(draw, max_t=14):
    """A map free:[a, b] -> free:[0] sending the two generators to random
    elements of A."""
    alg = AlgebraTable(max_t)
    shifts = [draw(st.integers(0, max_t)) for _ in range(2)]
    targets = [draw(st.integers(0, (1 << alg.dim(d)) - 1)) for d in shifts]
    return map_from_generators(
        free_module(alg, shifts, max_t), free_module(alg, [0], max_t), targets
    )


@given(maps_onto_a())
@settings(max_examples=30, deadline=None)
def test_lazy_kernels_resolve_as_the_eager_sweep(f):
    fac = factor_map(f)
    for module in (fac.K, fac.I, fac.C):
        assert serialize_resolution(minimal_resolution(module, 6, 14)) == (
            serialize_resolution(_eager_resolution(module, 6, 14))
        )


@pytest.mark.parametrize("shifts", [[3, 0, 1], [0, 2]], ids=["free:3,0,1", "free:0,2"])
def test_free_modules_resolve_as_the_eager_sweep(shifts):
    module = free_module(AlgebraTable(20), shifts, 20)
    assert serialize_resolution(minimal_resolution(module, 8, 20)) == (
        serialize_resolution(_eager_resolution(module, 8, 20))
    )
