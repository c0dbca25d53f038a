import re
from dataclasses import replace

import pytest

from extlab.cli import main
from extlab.gradedmod import GradedModule, factor_map
from extlab.resolve import ExtChart, minimal_resolution, serialize_resolution
from extlab.scenarios import (
    ScenarioSpec,
    assemble_e3,
    build_scenario,
    compare_projection_filtration,
    expected_e3,
    expected_pattern,
    kernel_image_lemma_check,
    scenario_map,
    verify_scenario,
)


@pytest.fixture(scope="module")
def fn2():
    return build_scenario(ScenarioSpec("fn", 8, 16, n=2))


@pytest.fixture(scope="module")
def fbig():
    return build_scenario(ScenarioSpec("f", 8, 18))


def _entries(page):
    """A page's nonzero entries, {(s, t): dim}."""
    return {(s, t): d for s, row in enumerate(page.dims) for t, d in enumerate(row) if d}


class Hashed(Exception):
    """Raised by a patched GradedModule.digest."""


def test_a_build_without_a_cache_never_hashes_a_module(monkeypatch, fbig):
    def refuse(self):
        raise Hashed

    monkeypatch.setattr(GradedModule, "digest", refuse)
    result = build_scenario(ScenarioSpec("f", 8, 18))
    assert result.e3 == fbig.e3 and verify_scenario(result) == []
    res = minimal_resolution(result.factored.K, 8, 18)
    assert res.chart() == result.res_k.chart()
    with pytest.raises(Hashed):
        serialize_resolution(res)  # the cache names and checks files by it


def test_spec_validation():
    with pytest.raises(ValueError):
        ScenarioSpec("nope", 8, 16)
    with pytest.raises(ValueError):
        ScenarioSpec("fn", 8, 16)  # missing n
    with pytest.raises(ValueError):
        ScenarioSpec("fn", 8, 4, n=2)  # max_t < n + 4
    with pytest.raises(ValueError):
        ScenarioSpec("f", 8, 16, n=2)  # stray n


def test_fn_collapse(fn2):
    assert fn2.ok
    assert verify_scenario(fn2) == []
    assert _entries(fn2.e3) == {(0, 0): 1, (1, 2): 1}  # stems 0 and 1
    # beta is a per-bidegree isomorphism everywhere in window
    beta = fn2.beta
    for s in range(beta.max_s + 1):
        for t in range(beta.max_t + 1):
            assert beta.is_iso(s, t), (s, t)


def test_fn_c_charts(fn2):
    # Ext^0(C) = F2, Ext^1(C) = Sigma^n F2
    chart = fn2.chart_c
    assert [t for t in range(17) if chart.dim(0, t)] == [0]
    assert [t for t in range(17) if chart.dim(1, t)] == [2]


def test_fnz_collapse():
    result = build_scenario(ScenarioSpec("fnz", 8, 16, n=4))
    assert result.ok
    assert verify_scenario(result) == []
    tower = {(s, s) for s in range(result.e3.max_s + 1)}
    assert set(_entries(result.e3)) == tower | {(1, 4)}  # sigma(1, 4) in stem 3
    # beta injective everywhere
    for s in range(result.beta.max_s + 1):
        for t in range(result.beta.max_t + 1):
            assert result.beta.kernel_dim(s, t) == 0


def test_fnz_odd_n_allowed():
    result = build_scenario(ScenarioSpec("fnz", 6, 13, n=3))
    assert result.ok
    assert verify_scenario(result) == []


def test_fnz_n1_degenerates_loudly():
    # [Sq1] = 0 in the integral quotient, so the single-square map is zero
    # and the collapse hypothesis must fail rather than emit a page.
    result = build_scenario(ScenarioSpec("fnz", 6, 12, n=1))
    assert not result.ok
    assert result.e3 is None
    assert result.hypothesis.violations()


def test_big_fiber(fbig):
    assert fbig.ok
    assert verify_scenario(fbig) == []
    rep = kernel_image_lemma_check(fbig)
    assert rep.ok, rep.violations()[:4]


def test_big_fiber_les_exactness(fbig):
    from extlab.lescalc import les_exactness_report
    from extlab.verify import free_chart

    max_s, max_t = fbig.spec.max_s, fbig.spec.max_t
    # first sequence: middle is the sum of suspended frees, Ext = sum of shifted F2's
    shifts = [2 * i for i in range(1, max_t // 2 + 1)]
    rep = les_exactness_report(
        fbig.d_ik, fbig.res_k.chart(), free_chart(shifts, max_s, max_t), fbig.chart_i
    )
    assert rep.ok, rep.violations()[:4]
    # second sequence: middle is the integral quotient, Ext = the tower
    tower = ExtChart(
        max_s, max_t,
        tuple(tuple(1 if s == t else 0 for t in range(max_t + 1)) for s in range(max_s + 1)),
    )
    rep = les_exactness_report(fbig.d_ci, fbig.chart_i, tower, fbig.chart_c)
    assert rep.ok, rep.violations()[:4]


def test_big_fiber_stems(fbig):
    e3 = fbig.e3
    for stem in range(1, e3.max_t + 1):
        filts = [s for s in range(e3.max_s + 1) if e3.dim(s, stem + s)]
        if stem % 2 == 0:
            assert filts == [], stem
        else:
            i = (stem + 1) // 2
            want = 1 if (i & (i - 1)) == 0 else 0
            assert filts == [want], (stem, filts)


def test_conjugate_matches_big():
    a = build_scenario(ScenarioSpec("f", 6, 14))
    b = build_scenario(ScenarioSpec("f-conj", 6, 14))
    assert a.ok and b.ok
    assert a.e3 == b.e3
    assert verify_scenario(b) == []


def test_expected_e3_examples():
    chart = expected_e3(ScenarioSpec("f", 10, 26))
    assert chart.dim(1, 8) == 1 and chart.dim(0, 7) == 0  # stem 7 = 2^3 - 1
    assert chart.dim(0, 9) == 1 and chart.dim(1, 10) == 0  # stem 9 = 2*5 - 1
    assert all(chart.dim(s, 2 + s) == 0 for s in range(chart.max_s + 1))  # stem 2
    chart = expected_e3(ScenarioSpec("fn", 8, 16, n=3))
    assert sorted(_entries(chart)) == [(0, 0), (1, 3)]  # stems 0 and 2


def test_lemma_check_requires_big(fn2):
    with pytest.raises(ValueError):
        kernel_image_lemma_check(fn2)


def test_negative_control_corrupted_beta(fbig):
    # flip one matrix of beta: the gate must refuse to assemble
    beta = fbig.beta
    key = (0, 4)  # kernel expected 0 here; make it 1 by zeroing the matrix
    original = beta.columns(*key)
    assert len(original) > 0
    beta.cols[key] = [0] * len(original)
    try:
        chart, report = assemble_e3(beta, expected_pattern(fbig.spec))
        assert chart is None
        assert not report.ok
        bad = {(c.s, c.t) for c in report.violations()}
        assert key in bad or (key[0] + 2, key[1] + 1) in bad
    finally:
        beta.cols[key] = original


@pytest.mark.parametrize("spec", [
    ScenarioSpec("fn", 6, 14, n=2),
    ScenarioSpec("fnz", 6, 14, n=2),
    ScenarioSpec("f", 6, 14),
    ScenarioSpec("f-conj", 6, 14),
], ids=ScenarioSpec.describe)
def test_the_gate_demands_every_bidegree(spec):
    result = build_scenario(spec)
    beta, target = result.beta, result.beta.target_chart
    checks = result.hypothesis.checks
    assert [(c.s, c.t) for c in checks if c.what == "kernel"] == [
        (s, t) for s in range(beta.max_s + 1) for t in range(beta.max_t + 1)
    ]
    assert [(c.s, c.t) for c in checks if c.what == "cokernel"] == [
        (s, t) for s in range(target.max_s + 1) for t in range(target.max_t + 1)
    ]


def test_the_gate_refuses_an_extra_class_below_filtration_2(fn2):
    # one class too many in Ext^{1,3}(C): beta maps nothing into filtration 1,
    # so only the cokernel demand at s = 1 can catch it
    target = fn2.beta.target_chart
    dims = [list(row) for row in target.dims]
    dims[1][3] += 1
    bad = ExtChart(target.max_s, target.max_t, tuple(tuple(row) for row in dims))
    chart, report = assemble_e3(replace(fn2.beta, target_chart=bad), expected_pattern(fn2.spec))
    assert chart is None
    assert [(c.what, c.s, c.t, c.computed, c.expected) for c in report.violations()] == [
        ("cokernel", 1, 3, 1, 0)
    ]


def test_negative_control_corrupted_chart(fbig):
    # entrywise diff must light up if the assembled page is wrong: one class
    # too many at (s, t) = (0, 2), stem 2 in filtration 0
    assert fbig.e3.dim(0, 2) == 0
    dims = [list(row) for row in fbig.e3.dims]
    dims[0][2] = 1
    tampered = replace(fbig.e3, dims=tuple(tuple(row) for row in dims))
    assert verify_scenario(replace(fbig, e3=tampered)) == [(2, 0, 1, 0)]


def test_filtration_comparison(fbig):
    singles = [
        build_scenario(ScenarioSpec("fnz", 6, 2 * i + 10, n=2 * i)) for i in (1, 2, 3, 4)
    ]
    deltas = compare_projection_filtration(fbig, singles, require=[1, 2, 3, 4])
    assert [d.i for d in deltas] == [1, 2, 3, 4]
    for d in deltas:
        if d.i & (d.i - 1) == 0:
            assert d.filt_big == d.filt_single, d
        else:
            assert d.filt_big - d.filt_single == -1, d
            assert d.filt_single == d.filt_big + 1  # projection raises filtration


def test_filtration_comparison_missing_counterpart(fbig):
    with pytest.raises(ValueError):
        compare_projection_filtration(fbig, [fbig], require=[])  # not an fnz result
    single = build_scenario(ScenarioSpec("fnz", 6, 12, n=2))
    with pytest.raises(ValueError, match="missing counterpart"):
        compare_projection_filtration(fbig, [single], require=[1, 3])


def test_filtration_comparison_refusals(fbig):
    single = build_scenario(ScenarioSpec("fnz", 6, 12, n=2))
    with pytest.raises(ValueError, match="must be a big-fiber scenario"):
        compare_projection_filtration(single, [single], require=[])
    with pytest.raises(ValueError, match="big-fiber scenario has no assembled page"):
        compare_projection_filtration(replace(fbig, e3=None), [single], require=[])
    with pytest.raises(ValueError, match=re.escape("fnz(n=2) has no assembled page")):
        compare_projection_filtration(fbig, [replace(single, e3=None)], require=[])
    odd = build_scenario(ScenarioSpec("fnz", 6, 13, n=3))
    with pytest.raises(ValueError, match="comparison needs even n"):
        compare_projection_filtration(fbig, [odd], require=[])
    # fbig's page ends at t = 17, so stem 17 has no certified filtration 1
    far = build_scenario(ScenarioSpec("fnz", 6, 22, n=18))
    assert far.ok and fbig.e3.max_t == 17
    with pytest.raises(ValueError, match="stem 17 not certified at these bounds"):
        compare_projection_filtration(fbig, [far], require=[])
    # the class of stem 1 removed from the single's page
    dims = [list(row) for row in single.e3.dims]
    assert dims[1][2] == 1
    dims[1][2] = 0
    emptied = replace(single, e3=replace(single.e3, dims=tuple(tuple(row) for row in dims)))
    with pytest.raises(ValueError, match=re.escape("stem 1 does not carry a unique class: filtrations []")):
        compare_projection_filtration(fbig, [emptied], require=[])


def test_annotations(fbig):
    assert fbig.e3.labels[(0, 0)] == ("h0-tower",)
    assert fbig.e3.labels[(1, 4)] == ("h2",)  # stem 3
    assert fbig.e3.labels[(0, 5)] == ("filtration-0 class",)  # stem 5
    assert set(fbig.e3.labels) <= set(_entries(fbig.e3))


def test_e3_window():
    # the page of f (5, 7) is certified for s <= 3 and t <= 6
    spec = ScenarioSpec("f", 5, 7)
    page, pattern = expected_e3(spec), expected_pattern(spec)
    assert (page.max_s, page.max_t) == (3, 6)
    assert len(page.dims) == 4 and all(len(row) == 7 for row in page.dims)
    assert page.dim(3, 3) == 1 and page.dim(1, 4) == 1 and page.dim(0, 5) == 1
    # the pattern has classes beyond max_s and max_t; the page reads 0 there
    assert pattern.coker(4, 4) == 1 and page.dim(4, 4) == 0
    assert pattern.coker(1, 8) == 1 and page.dim(1, 8) == 0
    assert pattern.kernel(0, 9) == 1 and page.dim(0, 9) == 0
    # and nothing below t = s, where stems would be negative
    assert all(page.dims[s][t] == 0 for s in range(4) for t in range(s))


def _a_tampered_lift_fails_the_scenario(flip_solve, capsys, lift, h):
    # one bit of tau_2 on generator h of P_2 of the lift's quot flipped in its
    # solve: the lift must stop the build and name that generator's bidegree.
    # The C -> I lift runs first, one solve per generator of P(C), so the
    # K -> I lift's count starts after them.
    spec = ScenarioSpec("f", 6, 14)
    fac = factor_map(scenario_map(spec))
    res_i, res_c = (minimal_resolution(m, spec.max_s, spec.max_t) for m in (fac.I, fac.C))
    if lift == "K -> I":
        res_quot, after = res_i, sum(len(ix.gen_degrees) for ix in res_c.indexers)
    else:
        res_quot, after = res_c, 0
    bidegree = f"(s=2, t={res_quot.indexers[2].gen_degrees[h]})"
    flip_solve(res_quot, 2, h, 0, after=after)
    with pytest.raises(AssertionError, match=re.escape(f"generator {h} at {bidegree}")):
        build_scenario(spec)
    flip_solve(res_quot, 2, h, 0, after=after)
    assert main(["scenario", "--kind", "f", "--max-s", "6", "--max-t", "14", "--no-cache"]) == 1
    assert bidegree in capsys.readouterr().err


def test_a_tampered_lift_fails_the_scenario(flip_solve, capsys):
    _a_tampered_lift_fails_the_scenario(flip_solve, capsys, "K -> I", 0)


def test_a_tampered_c_to_i_lift_fails_the_scenario(flip_solve, capsys):
    # not generator 0 of P_2(C): P_1(I) is zero in its degree, so tau_2 of
    # it has no bit 0 to flip
    _a_tampered_lift_fails_the_scenario(flip_solve, capsys, "C -> I", 1)


def test_a_scenario_hands_back_resolutions_with_no_memoised_column():
    # each resolution's d_s columns are dropped after their last reader
    result = build_scenario(ScenarioSpec("f", 10, 26))
    assert result.ok
    for res in (result.res_k, result.res_i, result.res_c):
        assert all(not cols for cols in res._cols)
