"""Property suites behind ``extlab verify``.

Each suite runs a fixed list of named checks at pinned desk bounds and
reports structured results; the CLI turns these into exit codes and JSON.
The same functions back the pytest suite, so green here and green there
mean the same thing.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field

from .gradedmod import free_module, sq1_quotient, trivial_module
from .lescalc import compose_boundaries, connecting_map, horseshoe_lift, les_exactness_report
from .resolve import (
    ExtChart,
    load_resolution,
    minimal_resolution,
    save_resolution,
    serialize_resolution,
)
from .scenarios import (
    ScenarioSpec,
    build_scenario,
    kernel_image_lemma_check,
    verify_scenario,
)
from .steenrod import AlgebraElement, AlgebraTable, milnor_basis_dims

SUITES = ("steenrod", "resolution", "les", "scenarios")


@dataclass
class Check:
    suite: str
    name: str
    passed: bool
    detail: str = ""
    seconds: float = 0.0


@dataclass
class SuiteReport:
    checks: list[Check] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def run(self, suite: str, name: str, fn) -> None:
        start = time.perf_counter()
        try:
            fn()
            self.checks.append(Check(suite, name, True, seconds=time.perf_counter() - start))
        except AssertionError as exc:
            self.checks.append(
                Check(suite, name, False, detail=str(exc), seconds=time.perf_counter() - start)
            )


def free_chart(shifts, max_s: int, max_t: int) -> ExtChart:
    """Closed-form chart of a sum of suspended free modules."""
    dims = [[0] * (max_t + 1) for _ in range(max_s + 1)]
    for sh in shifts:
        if sh <= max_t:
            dims[0][sh] += 1
    return ExtChart(max_s, max_t, tuple(tuple(row) for row in dims))


# -- steenrod ---------------------------------------------------------------


def suite_steenrod(report: SuiteReport) -> None:
    alg = AlgebraTable(34)

    def dims_vs_partition_oracle():
        assert [alg.dim(t) for t in range(25)] == milnor_basis_dims(24)

    def associativity_all_low():
        for da in range(1, 13):
            for db in range(1, 13 - da + 1):
                for dc in range(1, 14 - da - db + 1):
                    for ia in range(alg.dim(da)):
                        a = AlgebraElement(da, 1 << ia)
                        for ib in range(alg.dim(db)):
                            b = AlgebraElement(db, 1 << ib)
                            ab = alg.multiply(a, b)
                            for ic in range(alg.dim(dc)):
                                c = AlgebraElement(dc, 1 << ic)
                                assert alg.multiply(ab, c) == alg.multiply(
                                    a, alg.multiply(b, c)
                                ), (da, ia, db, ib, dc, ic)

    def associativity_sampled_20():
        rng = random.Random(20221)
        done = 0
        while done < 4000:
            da, db, dc = (rng.randrange(1, 12) for _ in range(3))
            if da + db + dc > 20:
                continue
            a = AlgebraElement(da, 1 << rng.randrange(alg.dim(da)))
            b = AlgebraElement(db, 1 << rng.randrange(alg.dim(db)))
            c = AlgebraElement(dc, 1 << rng.randrange(alg.dim(dc)))
            assert alg.multiply(alg.multiply(a, b), c) == alg.multiply(a, alg.multiply(b, c))
            done += 1

    def adem_confluence():
        rng = random.Random(777)
        done = 0
        while done < 3000:
            length = rng.randrange(2, 6)
            word = [rng.randrange(1, 9) for _ in range(length)]
            if sum(word) > 20:
                continue
            assert alg.adem_reduce(word, "leftmost") == alg.adem_reduce(word, "rightmost"), word
            done += 1

    def antipode_involution():
        for t in range(1, 21):
            for i in range(alg.dim(t)):
                x = AlgebraElement(t, 1 << i)
                assert alg.antipode_elem(alg.antipode_elem(x)) == x, (t, i)

    def decomposability_pattern():
        for n in range(2, 33):
            expected = not (n & (n - 1)) == 0
            assert alg.is_decomposable(alg.sq(n)) == expected, n
            assert alg.is_decomposable(alg.antipode_sq(n)) == expected, ("chi", n)

    report.run("steenrod", "basis dims vs partition oracle", dims_vs_partition_oracle)
    report.run("steenrod", "associativity, all triples of total degree <= 14", associativity_all_low)
    report.run("steenrod", "associativity, sampled to degree 20", associativity_sampled_20)
    report.run("steenrod", "Adem confluence, leftmost vs rightmost", adem_confluence)
    report.run("steenrod", "antipode is an involution to degree 20", antipode_involution)
    report.run("steenrod", "Sq^n decomposable iff n not a power of 2 (n <= 32)", decomposability_pattern)


# -- resolution --------------------------------------------------------------


def suite_resolution(report: SuiteReport) -> None:
    from .oracle import oracle_ext_dims  # loaded here only, so resolve and scenario skip it

    alg = AlgebraTable(24)
    f2 = trivial_module(alg, 20)
    res_f2 = minimal_resolution(f2, 8, 20)
    quotient = sq1_quotient(alg, 24).codomain
    res_q = minimal_resolution(quotient, 10, 24)

    def oracle_f2():
        dims = oracle_ext_dims("f2", 8, 20)
        chart = res_f2.chart()
        for (s, t), d in dims.items():
            assert chart.dim(s, t) == d, (s, t, chart.dim(s, t), d)

    def oracle_quotient():
        dims = oracle_ext_dims("a-mod-sq1", 8, 20)
        chart = res_q.chart()
        for (s, t), d in dims.items():
            assert chart.dim(s, t) == d, (s, t, chart.dim(s, t), d)

    def h_family():
        chart = res_f2.chart()
        for t in range(21):
            want = 1 if t in (1, 2, 4, 8, 16) else 0
            assert chart.dim(1, t) == want, (t, chart.dim(1, t))

    def tower():
        chart = res_q.chart()
        for s in range(11):
            for t in range(25):
                assert chart.dim(s, t) == (1 if s == t else 0), (s, t)

    def invariants():
        for res in (res_f2, res_q):
            res.verify()

    def determinism():
        again = minimal_resolution(trivial_module(alg, 20), 8, 20)
        assert serialize_resolution(again) == serialize_resolution(res_f2)

    def cache_round_trip():
        import os
        import tempfile

        with tempfile.TemporaryDirectory() as d:
            path = os.path.join(d, "r.extres")
            save_resolution(res_f2, path)
            loaded = load_resolution(path, f2, 8, 20)
            path2 = os.path.join(d, "r2.extres")
            save_resolution(loaded, path2)
            with open(path, "rb") as a, open(path2, "rb") as b:
                assert a.read() == b.read()

    report.run("resolution", "Ext(F2) to (8,20) matches the dense oracle", oracle_f2)
    report.run("resolution", "Ext(A/ASq1) to (8,20) matches the dense oracle", oracle_quotient)
    report.run("resolution", "filtration-1 classes exactly at t = 2^j", h_family)
    report.run("resolution", "Ext(A/ASq1) is the tower to (10,24)", tower)
    report.run("resolution", "d o d = 0, minimality, exactness ranks", invariants)
    report.run("resolution", "byte-for-byte determinism", determinism)
    report.run("resolution", "cache round-trip is bit-exact", cache_round_trip)


# -- les ---------------------------------------------------------------------


def suite_les(report: SuiteReport) -> None:
    from .gradedmod import factor_map, map_from_generators

    max_s, max_t = 6, 14
    alg = AlgebraTable(max_t)
    dom = free_module(alg, [2], max_t)
    cod = free_module(alg, [0], max_t)
    fac = factor_map(map_from_generators(dom, cod, [1 << alg.index((2,))]))
    res_k = minimal_resolution(fac.K, max_s, max_t)
    res_i = minimal_resolution(fac.I, max_s, max_t)
    res_c = minimal_resolution(fac.C, max_s, max_t)
    lift_ik = horseshoe_lift(fac.kernel_sequence(), res_k, res_i)
    lift_ci = horseshoe_lift(fac.cokernel_sequence(), res_i, res_c)
    d_ik = connecting_map(lift_ik)
    d_ci = connecting_map(lift_ci)

    def horseshoe_invariants():
        lift_ik.verify()
        lift_ci.verify()

    def free_middle_isos():
        for s in range(0, max_s):
            for t in range(0, max_t + 1):
                assert d_ik.is_iso(s, t), ("d_IK", s, t)
                assert d_ci.is_iso(s, t), ("d_CI", s, t)

    def rank_alternation():
        rep1 = les_exactness_report(d_ik, res_k.chart(), free_chart([2], max_s, max_t), res_i.chart())
        assert rep1.ok, rep1.violations()[:3]
        rep2 = les_exactness_report(d_ci, res_i.chart(), free_chart([0], max_s, max_t), res_c.chart())
        assert rep2.ok, rep2.violations()[:3]

    def composite_bidegree():
        beta = compose_boundaries(d_ik, d_ci)
        for s in range(0, beta.max_s + 1):
            for t in range(0, beta.max_t + 1):
                assert beta.shape(s, t) == (
                    res_c.chart().dim(s + 2, t + 1),
                    res_k.chart().shift_t(-1).dim(s, t),
                ), (s, t)

    report.run("les", "horseshoe lifts satisfy d^Q o d^Q = 0", horseshoe_invariants)
    report.run("les", "free middle forces boundary isomorphisms", free_middle_isos)
    report.run("les", "long-exact-sequence rank alternation", rank_alternation)
    report.run("les", "composite raises (s, t) by (2, 1)", composite_bidegree)


# -- scenarios ----------------------------------------------------------------


def suite_scenarios(report: SuiteReport) -> None:
    def run_kind(spec: ScenarioSpec):
        result = build_scenario(spec)
        assert result.ok, result.hypothesis.violations()[:3]
        diff = verify_scenario(result)
        assert diff == [], diff[:5]
        return result

    def single_mod2():
        run_kind(ScenarioSpec("fn", 8, 16, n=2))

    def single_integral():
        run_kind(ScenarioSpec("fnz", 8, 16, n=2))

    def big():
        result = run_kind(ScenarioSpec("f", 8, 18))
        rep = kernel_image_lemma_check(result)
        assert rep.ok, rep.violations()[:3]

    def conjugate_matches():
        a = run_kind(ScenarioSpec("f", 6, 14))
        b = run_kind(ScenarioSpec("f-conj", 6, 14))
        assert a.e3 == b.e3

    report.run("scenarios", "mod-2 single square collapses to two classes", single_mod2)
    report.run("scenarios", "integral single square collapses to tower + class", single_integral)
    report.run("scenarios", "big fiber matches the odd-stem pattern", big)
    report.run("scenarios", "conjugated fiber gives the identical page", conjugate_matches)


def run_suites(names: list[str]) -> SuiteReport:
    report = SuiteReport()
    runners = {
        "steenrod": suite_steenrod,
        "resolution": suite_resolution,
        "les": suite_les,
        "scenarios": suite_scenarios,
    }
    for name in names:
        runners[name](report)
    return report
