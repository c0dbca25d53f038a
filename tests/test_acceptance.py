"""Acceptance suite: one test per criterion, at the stated bounds.

Every comparison is exact.  Each test prints its own PASS line (visible
with ``pytest -s``) and enforces the stated runtime budget.
"""

import time

import pytest

from extlab.cli import main
from extlab.gradedmod import sq1_quotient, trivial_module
from extlab.oracle import oracle_ext_dims
from extlab.resolve import minimal_resolution
from extlab.scenarios import (
    ScenarioSpec,
    build_scenario,
    compare_projection_filtration,
    kernel_image_lemma_check,
    verify_scenario,
)
from extlab.steenrod import AlgebraTable
from extlab.verify import run_suites


def _entries(page):
    """A page's nonzero entries, {(s, t): dim}."""
    return {(s, t): d for s, row in enumerate(page.dims) for t, d in enumerate(row) if d}


def report(num, label, seconds, budget):
    print(f"ACCEPTANCE {num}: PASS - {label} ({seconds:.1f}s, budget {budget}s)")
    assert seconds < budget, f"runtime {seconds:.1f}s exceeds budget {budget}s"


@pytest.fixture(scope="module")
def big_f():
    return build_scenario(ScenarioSpec("f", 10, 26))


@pytest.fixture(scope="module")
def big_f_conj():
    return build_scenario(ScenarioSpec("f-conj", 10, 26))


def test_criterion_1_ext_f2_window():
    start = time.time()
    alg = AlgebraTable(20)
    chart = minimal_resolution(trivial_module(alg, 20), 8, 20).chart()
    oracle = oracle_ext_dims("f2", 8, 20)
    for (s, t), want in oracle.items():
        assert chart.dim(s, t) == want, (s, t, chart.dim(s, t), want)
    for t in range(21):
        assert chart.dim(1, t) == (1 if t in (1, 2, 4, 8, 16) else 0), t
    report(1, "Ext(F2) to (8,20) matches the dense oracle; h_j at t = 2^j", time.time() - start, 60)


def test_criterion_2_tower():
    start = time.time()
    alg = AlgebraTable(24)
    chart = minimal_resolution(sq1_quotient(alg, 24).codomain, 10, 24).chart()
    for s in range(11):
        for t in range(25):
            assert chart.dim(s, t) == (1 if s == t else 0), (s, t)
    report(2, "Ext(A/ASq1) is exactly the h0 tower to (10,24)", time.time() - start, 60)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 6])
def test_criterion_3_single_square(n):
    start = time.time()
    result = build_scenario(ScenarioSpec("fn", 8, n + 14, n=n))
    assert result.ok, result.hypothesis.violations()[:4]
    beta = result.beta
    for s in range(beta.max_s + 1):
        for t in range(beta.max_t + 1):
            assert beta.is_iso(s, t), (s, t)
    assert verify_scenario(result) == []
    assert _entries(result.e3) == {(0, 0): 1, (1, n): 1}  # stems 0 and n - 1
    report(3, f"mod-2 single square n={n}: composite iso, page = two classes",
           time.time() - start, 120)


@pytest.mark.parametrize("n", [2, 4, 6, 8])
def test_criterion_4_single_square_integral(n):
    start = time.time()
    result = build_scenario(ScenarioSpec("fnz", 8, n + 14, n=n))
    assert result.ok, result.hypothesis.violations()[:4]
    assert verify_scenario(result) == []
    expected = {(s, s): 1 for s in range(result.e3.max_s + 1)}
    expected[(1, n)] = 1  # stem n - 1
    assert _entries(result.e3) == expected
    report(4, f"integral single square n={n}: tower plus one class", time.time() - start, 120)


def test_criterion_5_big_fiber(big_f):
    start = time.time()
    result = big_f
    assert result.ok, result.hypothesis.violations()[:4]
    assert verify_scenario(result) == []
    e3 = result.e3
    for s in range(e3.max_s + 1):
        assert e3.dim(s, s) == 1, s  # the tower
    for stem in range(1, 24):
        filts = [s for s in range(e3.max_s + 1) if e3.dim(s, stem + s)]
        if stem % 2 == 0:
            assert filts == [], stem
        elif stem in (1, 3, 7, 15):
            assert filts == [1] and e3.dim(1, stem + 1) == 1, stem
        else:
            assert filts == [0] and e3.dim(0, stem) == 1, stem
    report(5, "big fiber (10,26): one class per odd stem at the right filtration",
           time.time() - start, 600)


def test_criterion_6_conjugated(big_f, big_f_conj):
    start = time.time()
    assert big_f_conj.ok, big_f_conj.hypothesis.violations()[:4]
    assert big_f_conj.e3 == big_f.e3
    assert verify_scenario(big_f_conj) == []
    report(6, "conjugated fiber (10,26): identical page", time.time() - start, 600)


def test_criterion_7_lemma_internals(big_f):
    start = time.time()
    rep = kernel_image_lemma_check(big_f)
    assert rep.ok, rep.violations()[:6]
    # spot checks straight from the statements
    d_ik, d_ci = big_f.d_ik, big_f.d_ci
    assert d_ik.kernel_dim(0, 12) == 1   # 2i = 12, i = 6 not a power of 2
    assert d_ik.kernel_dim(0, 8) == 0    # 2i = 8, i = 4 a power of 2
    assert d_ik.kernel_dim(0, 16) == 0
    chart_i, chart_f2 = big_f.chart_i, big_f.chart_c
    for s in range(big_f.spec.max_s):
        for t in range(big_f.spec.max_t + 1):
            assert d_ci.kernel_dim(s, t) == 0
            want = chart_f2.dim(s + 1, t) if t - s > 1 else 0
            assert chart_i.dim(s, t) == want, (s, t)
    report(7, "kernel/image lemma internals on the big fiber", time.time() - start, 600)


def test_criterion_8_filtration_comparison(big_f):
    start = time.time()
    singles = [
        build_scenario(ScenarioSpec("fnz", 6, 2 * i + 10, n=2 * i))
        for i in (1, 2, 3, 4, 5, 6, 8)
    ]
    deltas = compare_projection_filtration(big_f, singles, require=[1, 2, 3, 4, 5, 6, 8])
    assert [d.i for d in deltas] == [1, 2, 3, 4, 5, 6, 8]
    for d in deltas:
        if d.i in (1, 2, 4, 8):
            assert d.filt_big == d.filt_single, d
        else:
            assert d.filt_big - d.filt_single == -1, d
    report(8, "projection preserves filtration exactly for i in {1,2,4,8}",
           time.time() - start, 600)


def test_criterion_9_property_suites(tmp_path, capsys):
    start = time.time()
    suite_report = run_suites(["steenrod", "resolution", "les", "scenarios"])
    failures = [c for c in suite_report.checks if not c.passed]
    assert suite_report.passed, failures[:4]

    # CLI exit-code contract: 0 verified, 1 mismatch, 2 usage
    cache = str(tmp_path / "cache")
    assert main(["resolve", "--module", "a", "--max-s", "3", "--max-t", "6",
                 "--cache-dir", cache]) == 0
    assert main(["scenario", "--kind", "fnz", "--n", "1", "--max-s", "6",
                 "--max-t", "12", "--cache-dir", cache]) == 1
    with pytest.raises(SystemExit) as info:
        main(["scenario", "--kind", "fnz", "--cache-dir", cache])
    assert info.value.code == 2
    capsys.readouterr()
    report(9, f"property suites green ({len(suite_report.checks)} checks) and exit codes honored",
           time.time() - start, 300)
