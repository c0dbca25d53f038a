"""Property suites behind ``extlab verify``.

Each suite runs a fixed list of named checks at pinned desk bounds and
reports structured results; the CLI turns these into exit codes and JSON.
The same functions back the pytest suite, so green here and green there
mean the same thing.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from .gradedmod import sq1_quotient, trivial_module
from .lescalc import les_exactness_report
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
    compare_projection_filtration,
    kernel_image_lemma_check,
    verify_scenario,
)
from .steenrod import AlgebraTable, milnor_basis_dims

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
        except (AssertionError, RuntimeError, ValueError) as exc:
            detail = str(exc) if isinstance(exc, AssertionError) else f"{type(exc).__name__}: {exc}"
            self.checks.append(
                Check(suite, name, False, detail=detail, seconds=time.perf_counter() - start)
            )


def _require(ok: bool, detail: object = "") -> None:
    """A failed check, raised explicitly so that ``python -O`` keeps it."""
    if not ok:
        raise AssertionError(detail)


def free_chart(shifts, max_s: int, max_t: int) -> ExtChart:
    """Closed-form chart of a sum of suspended free modules."""
    dims = [[0] * (max_t + 1) for _ in range(max_s + 1)]
    for sh in shifts:
        if sh <= max_t:
            dims[0][sh] += 1
    return ExtChart(max_s, max_t, tuple(tuple(row) for row in dims))


# -- steenrod ---------------------------------------------------------------


def suite_steenrod(report: SuiteReport) -> None:
    from .oracle import reduce_word  # loaded here only, so resolve and scenario skip it

    top = 64
    alg = AlgebraTable(top)

    def coords(words) -> int:
        return sum(1 << alg.index(w) for w in words)

    def dims_vs_partition_oracle():
        _require([alg.dim(t) for t in range(top + 1)] == milnor_basis_dims(top))

    # a degree-N word rewrites only into degree-N words: clear the cache per N
    def sq_tables_vs_oracle():
        for total in range(1, top + 1):
            for k in range(1, total + 1):
                for m, col in zip(alg.basis(total - k), alg.sq_columns(k, total - k)):
                    _require(col == coords(reduce_word((k,) + m)), (k, m))
            reduce_word.cache_clear()

    def antipode_recursion():
        for n in range(1, top + 1):
            acc = alg.antipode_sq(n).coords
            for i in range(1, n + 1):
                chi = alg.antipode_sq(n - i).coords
                for j, m in enumerate(alg.basis(n - i)):
                    if chi >> j & 1:
                        acc ^= coords(reduce_word((i,) + m))
            _require(acc == 0, n)
            reduce_word.cache_clear()

    report.run("steenrod", f"basis dims vs partition oracle to degree {top}", dims_vs_partition_oracle)
    report.run("steenrod", f"every Sq^k table entry to degree {top} vs the oracle's Adem rewriting",
               sq_tables_vs_oracle)
    report.run("steenrod", f"sum_i Sq^i chi(Sq^(n-i)) = 0 for n <= {top}", antipode_recursion)
    reduce_word.cache_clear()  # a check that failed left its degree's words in it


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
            _require(chart.dim(s, t) == d, (s, t, chart.dim(s, t), d))

    def oracle_quotient():
        dims = oracle_ext_dims("a-mod-sq1", 8, 20)
        chart = res_q.chart()
        for (s, t), d in dims.items():
            _require(chart.dim(s, t) == d, (s, t, chart.dim(s, t), d))

    def h_family():
        chart = res_f2.chart()
        for t in range(21):
            want = 1 if t in (1, 2, 4, 8, 16) else 0
            _require(chart.dim(1, t) == want, (t, chart.dim(1, t)))

    def tower():
        chart = res_q.chart()
        for s in range(11):
            for t in range(25):
                _require(chart.dim(s, t) == (1 if s == t else 0), (s, t))

    def invariants():
        for res in (res_f2, res_q):
            res.verify()

    def determinism():
        again = minimal_resolution(trivial_module(alg, 20), 8, 20)
        _require(serialize_resolution(again) == serialize_resolution(res_f2))

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
                _require(a.read() == b.read())

    report.run("resolution", "Ext(F2) to (8,20) matches the dense oracle", oracle_f2)
    report.run("resolution", "Ext(A/ASq1) to (8,20) matches the dense oracle", oracle_quotient)
    report.run("resolution", "filtration-1 classes exactly at t = 2^j", h_family)
    report.run("resolution", "Ext(A/ASq1) is the tower to (10,24)", tower)
    report.run("resolution", "d o d = 0, minimality, exactness ranks", invariants)
    report.run("resolution", "byte-for-byte determinism", determinism)
    report.run("resolution", "cache round-trip is bit-exact", cache_round_trip)


# -- les ---------------------------------------------------------------------


def suite_les(report: SuiteReport) -> None:
    spec = ScenarioSpec("fn", 6, 14, n=2)  # Sq^2 on A
    max_s, max_t = spec.max_s, spec.max_t
    built = []  # the scenario, once its lifts stand

    def horseshoe_invariants():
        built.append(build_scenario(spec))

    def scenario():
        _require(built, "no boundary maps: the horseshoe lifts failed")
        return built[0]

    def free_middle_isos():
        result = scenario()
        for s in range(0, max_s):
            for t in range(0, max_t + 1):
                _require(result.d_ik.is_iso(s, t), ("d_IK", s, t))
                _require(result.d_ci.is_iso(s, t), ("d_CI", s, t))

    def rank_alternation():
        result = scenario()
        rep1 = les_exactness_report(
            result.d_ik, result.res_k.chart(), free_chart([2], max_s, max_t), result.chart_i
        )
        _require(rep1.ok, rep1.violations()[:3])
        rep2 = les_exactness_report(
            result.d_ci, result.chart_i, free_chart([0], max_s, max_t), result.chart_c
        )
        _require(rep2.ok, rep2.violations()[:3])

    def composite_bidegree():
        result = scenario()
        beta = result.beta
        for s in range(0, beta.max_s + 1):
            for t in range(0, beta.max_t + 1):
                _require(beta.shape(s, t) == (
                    result.chart_c.dim(s + 2, t + 1),
                    result.res_k.chart().shift_t(-1).dim(s, t),
                ), (s, t))

    report.run("les", "horseshoe lifts satisfy d^Q o d^Q = 0", horseshoe_invariants)
    report.run("les", "free middle forces boundary isomorphisms", free_middle_isos)
    report.run("les", "long-exact-sequence rank alternation", rank_alternation)
    report.run("les", "composite raises (s, t) by (2, 1)", composite_bidegree)


# -- scenarios ----------------------------------------------------------------


def suite_scenarios(report: SuiteReport) -> None:
    built = {}

    def run_kind(spec: ScenarioSpec):
        result = build_scenario(spec)
        _require(result.ok, result.hypothesis.violations()[:3])
        diff = verify_scenario(result)
        _require(diff == [], diff[:5])
        built[spec] = result
        return result

    def single_mod2():
        run_kind(ScenarioSpec("fn", 8, 16, n=2))

    def single_integral():
        run_kind(ScenarioSpec("fnz", 8, 16, n=2))

    def big():
        result = run_kind(ScenarioSpec("f", 8, 18))
        rep = kernel_image_lemma_check(result)
        _require(rep.ok, rep.violations()[:3])

    def projection_filtration():
        big_spec = ScenarioSpec("f", 8, 18)
        big_f = built.get(big_spec) or run_kind(big_spec)
        singles = [run_kind(ScenarioSpec("fnz", 6, 2 * i + 10, n=2 * i)) for i in range(1, 5)]
        for d in compare_projection_filtration(big_f, singles, require=[1, 2, 3, 4]):
            raised = 0 if d.i & (d.i - 1) == 0 else 1
            _require(d.filt_single - d.filt_big == raised, d)

    def conjugate_matches():
        a = run_kind(ScenarioSpec("f", 6, 14))
        b = run_kind(ScenarioSpec("f-conj", 6, 14))
        _require(a.e3 == b.e3)

    report.run("scenarios", "mod-2 single square collapses to two classes", single_mod2)
    report.run("scenarios", "integral single square collapses to tower + class", single_integral)
    report.run("scenarios", "big fiber matches the odd-stem pattern", big)
    report.run("scenarios", "projection keeps the filtration for i a power of 2, raises it by one "
               "otherwise (i <= 4)", projection_filtration)
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
