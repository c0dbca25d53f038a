"""End-to-end pipelines for the studied fibers.

Each scenario builds a map between (sums of) free modules and the integral
quotient, factors it, resolves the kernel / image / cokernel, computes both
connecting maps and their composite beta, and assembles the page the
composite leaves behind:

    E3(s, t) = ker(beta at (s, t)) + coker(beta into (s, t)).

The assembly is gated: the computed per-bidegree kernel and cokernel of
beta must match the scenario's closed-form expectation everywhere.  On a
mismatch no chart is emitted; the report names the offending bidegrees.
This mirrors how the collapse argument actually runs: injectivity of the
composite splits the Ext of the fiber into a sub piece and a quotient
piece, and the d2-homology is then read off from beta alone.

At most one resolution's column memo (the columns of its d_s) is alive at
any point.  A horseshoe lift reads the columns of its sub's resolution
only; of its quot's, it reads the generators and the targets.  So the
pipeline resolves C and drops its memo, since C is only ever a quotient;
resolves I, runs the C -> I lift and drops I's memo; then resolves K, runs
the K -> I lift and drops K's memo.  Each lift checks its solves as it
makes them, so no pass over the degrees follows it.

A page is an :class:`~extlab.resolve.ExtChart` indexed by (s, t) like the
Ext it comes from, with its classes named in ``labels``; renderers read it
at (stem, filtration) = (t - s, s).  Its window is the certified one:
s up to max_s - 2 and t up to max_t - 1 (boundary data one column short of
the resolution bound is not trustworthy).  Nothing is claimed outside.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from .gradedmod import (
    FactoredMap,
    factor_map,
    free_module,
    map_from_generators,
    sq1_quotient,
)
from .lescalc import (
    BoundaryMap,
    HypothesisCheck,
    HypothesisReport,
    compose_boundaries,
    connecting_map,
    horseshoe_lift,
)
from .resolve import ExtChart, Resolution, cached_resolution
from .steenrod import AlgebraTable

KINDS = ("fn", "fnz", "f", "f-conj")


def _is_pow2(x: int) -> bool:
    return x >= 1 and (x & (x - 1)) == 0


@dataclass(frozen=True)
class ScenarioSpec:
    """Which fiber to reconstruct, and how far."""

    kind: str
    max_s: int
    max_t: int
    n: Optional[int] = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS}")
        if self.kind in ("fn", "fnz"):
            if self.n is None or self.n < 1:
                raise ValueError(f"scenario {self.kind!r} needs n >= 1")
            if self.max_t < self.n + 4:
                raise ValueError("max_t must be at least n + 4")
        elif self.n is not None:
            raise ValueError(f"scenario {self.kind!r} takes no n")
        if self.max_s < 2 or self.max_t < 2:
            raise ValueError("bounds too small to be meaningful")

    def describe(self) -> str:
        if self.kind in ("fn", "fnz"):
            return f"{self.kind}(n={self.n})"
        return self.kind


@dataclass
class ExpectedPattern:
    """Closed-form per-bidegree demands on beta for one scenario: the single
    statement of its answer, from which the expected page is read.

    ``kernel(s, t)`` is the expected kernel dimension at a source bidegree;
    ``coker(s, t)`` the expected cokernel dimension into a target bidegree.
    Both are defined at every bidegree.
    """

    kernel: Callable[[int, int], int]
    coker: Callable[[int, int], int]
    annotate: Callable[[int, int], tuple[str, ...]]


def expected_pattern(spec: ScenarioSpec) -> ExpectedPattern:
    kind, n = spec.kind, spec.n

    if kind == "fn":
        return ExpectedPattern(
            kernel=lambda s, t: 0,
            coker=lambda s, t: 1 if (s, t) in ((0, 0), (1, n)) else 0,
            annotate=lambda stem, filt: ("unit",) if (stem, filt) == (0, 0) else (
                (f"sigma(1,{n})",) if (stem, filt) == (n - 1, 1) else ()
            ),
        )
    if kind == "fnz":
        return ExpectedPattern(
            kernel=lambda s, t: 0,
            coker=lambda s, t: (1 if s == t else 0) + (1 if (s, t) == (1, n) else 0),
            annotate=lambda stem, filt: ("h0-tower",) if stem == 0 else (
                (f"sigma(1,{n})",) if (stem, filt) == (n - 1, 1) else ()
            ),
        )

    # the big fiber and its conjugate
    def kernel(s: int, t: int) -> int:
        # desuspended coordinates: one class at (0, 2i - 1), i not a power of 2
        return 1 if (s == 0 and t % 2 == 1 and t >= 3 and not _is_pow2((t + 1) // 2)) else 0

    def coker(s: int, t: int) -> int:
        if s == t:
            return 1
        if s == 1 and t >= 2 and _is_pow2(t):
            return 1
        return 0

    def annotate(stem: int, filt: int) -> tuple[str, ...]:
        if stem == 0:
            return ("h0-tower",)
        if filt == 1 and _is_pow2(stem + 1):
            return (f"h{(stem + 1).bit_length() - 1}",)
        if filt == 0:
            return ("filtration-0 class",)
        return ()

    return ExpectedPattern(kernel=kernel, coker=coker, annotate=annotate)


def _page(max_s, max_t, kernel, coker, annotate) -> ExtChart:
    """The page kernel + coker over the window s <= max_s, t <= max_t.

    Stems are never negative, so below t = s the page stores 0.  A class at
    (s, t) is named by ``annotate(t - s, s)``, in (stem, filtration).
    """
    dims = tuple(
        tuple(kernel(s, t) + coker(s, t) if t >= s else 0 for t in range(max_t + 1))
        for s in range(max_s + 1)
    )
    labels = {
        (s, t): names
        for s, row in enumerate(dims) for t, d in enumerate(row)
        if d and (names := annotate(t - s, s))
    }
    return ExtChart(max_s, max_t, dims, labels)


def assemble_e3(
    beta: BoundaryMap, pattern: ExpectedPattern
) -> tuple[Optional[ExtChart], HypothesisReport]:
    """Gate on the expected kernel/cokernel pattern, then read off the page.

    Emits no chart when any bidegree disagrees.
    """
    checks: list[HypothesisCheck] = []
    target = beta.target_chart
    for s in range(0, beta.max_s + 1):
        for t in range(0, beta.max_t + 1):
            checks.append(
                HypothesisCheck("kernel", s, t, beta.kernel_dim(s, t), pattern.kernel(s, t))
            )
    for s in range(0, target.max_s + 1):
        for t in range(0, target.max_t + 1):
            checks.append(
                HypothesisCheck("cokernel", s, t, beta.coker_dim(s, t), pattern.coker(s, t))
            )
    report = HypothesisReport(checks)
    if not report.ok:
        return None, report
    return _page(beta.max_s, beta.max_t, beta.kernel_dim, beta.coker_dim, pattern.annotate), report


def expected_e3(spec: ScenarioSpec) -> ExtChart:
    """The page the scenario's pattern demands, kernel + coker, over the
    certified window."""
    pattern = expected_pattern(spec)
    return _page(spec.max_s - 2, spec.max_t - 1, pattern.kernel, pattern.coker, pattern.annotate)


@dataclass
class ScenarioResult:
    spec: ScenarioSpec
    factored: FactoredMap
    res_k: Resolution
    res_i: Resolution
    res_c: Resolution
    d_ik: BoundaryMap
    d_ci: BoundaryMap
    beta: BoundaryMap
    hypothesis: HypothesisReport
    e3: Optional[ExtChart]

    @property
    def chart_i(self) -> ExtChart:
        return self.res_i.chart()

    @property
    def chart_c(self) -> ExtChart:
        return self.res_c.chart()

    @property
    def ok(self) -> bool:
        return self.e3 is not None


def scenario_map(spec: ScenarioSpec, algebra: Optional[AlgebraTable] = None):
    """The map whose fiber the scenario studies, as a ModuleMap."""
    alg = algebra or AlgebraTable(spec.max_t)
    max_t = spec.max_t
    if spec.kind == "fn":
        dom = free_module(alg, [spec.n], max_t)
        cod = free_module(alg, [0], max_t)
        targets = [1 << alg.index((spec.n,))]
        return map_from_generators(dom, cod, targets)
    p = sq1_quotient(alg, max_t)
    cod = p.codomain
    if spec.kind == "fnz":
        dom = free_module(alg, [spec.n], max_t)
        targets = [p.apply(spec.n, 1 << alg.index((spec.n,)))]
        return map_from_generators(dom, cod, targets)
    shifts = [2 * i for i in range(1, max_t // 2 + 1)]
    dom = free_module(alg, shifts, max_t)
    if spec.kind == "f":
        gens = [alg.sq(2 * i) for i in range(1, max_t // 2 + 1)]
    else:
        gens = [alg.antipode_sq(2 * i) for i in range(1, max_t // 2 + 1)]
    targets = [p.apply(elem.degree, elem.coords) for elem in gens]
    return map_from_generators(dom, cod, targets)


def build_scenario(spec: ScenarioSpec, cache_dir: Optional[str] = None) -> ScenarioResult:
    """Build, factor, resolve, lift, compose, gate, assemble.

    Resolves C, then I and lifts C -> I, then K and lifts K -> I, dropping
    each resolution's column memo after its last reader; the lifts check
    themselves.  The resolutions handed back refill their memos when read.
    """
    f = scenario_map(spec)
    fac = factor_map(f)
    res_c = cached_resolution(fac.C, spec.max_s, spec.max_t, cache_dir)
    res_c.forget_columns()
    res_i = cached_resolution(fac.I, spec.max_s, spec.max_t, cache_dir)
    lift_ci = horseshoe_lift(fac.cokernel_sequence(), res_i, res_c)
    res_i.forget_columns()
    res_k = cached_resolution(fac.K, spec.max_s, spec.max_t, cache_dir)
    lift_ik = horseshoe_lift(fac.kernel_sequence(), res_k, res_i)
    res_k.forget_columns()
    d_ik = connecting_map(lift_ik)
    d_ci = connecting_map(lift_ci)
    beta = compose_boundaries(d_ik, d_ci)
    e3, report = assemble_e3(beta, expected_pattern(spec))
    return ScenarioResult(spec, fac, res_k, res_i, res_c, d_ik, d_ci, beta, report, e3)


def verify_scenario(result: ScenarioResult) -> list[tuple[int, int, int, int]]:
    """(stem, filt, assembled dim, expected dim), stem-major, wherever the
    assembled page and the closed form disagree in the window both certify.

    Empty list = pass.  Requires an assembled page.
    """
    got = result.e3
    if got is None:
        raise ValueError("scenario has no assembled page (hypothesis failed)")
    want = expected_e3(result.spec)
    max_s, max_t = min(got.max_s, want.max_s), min(got.max_t, want.max_t)
    return [
        (stem, s, got.dim(s, stem + s), want.dim(s, stem + s))
        for stem in range(max_t + 1)
        for s in range(min(max_s, max_t - stem) + 1)
        if got.dim(s, stem + s) != want.dim(s, stem + s)
    ]


def kernel_image_lemma_check(result: ScenarioResult) -> HypothesisReport:
    """Per-bidegree verification of the kernel/image structure of the big
    fiber's boundary maps.

    Checks, inside the window: the kernel of the first boundary map sits at
    (0, 2i), dimension one, exactly for i not a power of 2; the second
    boundary map is injective with the tower as cokernel, matching the
    shifted chart of the cokernel module; and the composite has the
    advertised kernel and cokernel, which are the gate's own checks.
    """
    if result.spec.kind not in ("f", "f-conj"):
        raise ValueError("lemma check applies to the big-fiber scenarios")
    checks: list[HypothesisCheck] = []
    d_ik, d_ci = result.d_ik, result.d_ci
    ch_i, ch_c = result.chart_i, result.chart_c
    max_s, max_t = result.spec.max_s, result.spec.max_t
    pattern = expected_pattern(result.spec)

    for s in range(0, max_s):
        for t in range(0, max_t + 1):
            # d_CI is injective, so ker beta is ker d_IK desuspended
            want = pattern.kernel(s, t - 1)
            checks.append(HypothesisCheck("ker d_IK", s, t, d_ik.kernel_dim(s, t), want))
            checks.append(HypothesisCheck("d_CI injective", s, t, d_ci.kernel_dim(s, t), 0))
    for s in range(0, max_s):
        for t in range(0, max_t + 1):
            want = ch_c.dim(s + 1, t) if t - s > 1 else 0
            checks.append(HypothesisCheck("Ext(I) shifted", s, t, ch_i.dim(s, t), want))
    for s in range(0, max_s + 1):
        for t in range(0, max_t + 1):
            want = 1 if s == t else 0
            checks.append(HypothesisCheck("coker d_CI tower", s, t, d_ci.coker_dim(s, t), want))
    return HypothesisReport(checks + result.hypothesis.checks)


@dataclass
class FiltrationDelta:
    i: int
    stem: int
    filt_big: int
    filt_single: int


def _unique_class_filtration(page: ExtChart, stem: int) -> int:
    filts = [s for s in range(page.max_s + 1) if page.dim(s, stem + s)]
    if len(filts) != 1:
        raise ValueError(f"stem {stem} does not carry a unique class: filtrations {filts}")
    return filts[0]


def compare_projection_filtration(
    big: ScenarioResult,
    singles: list[ScenarioResult],
    require: list[int],
) -> list[FiltrationDelta]:
    """Filtration of the odd-stem class in the big fiber vs its projection target.

    For each supplied integral single-square scenario with n = 2i, locate
    the unique class in stem 2i - 1 of both collapsed pages and report the
    filtration difference.  Zero means the projection preserves filtration;
    -1 means the single-square class sits one filtration higher (the
    projection raises filtration by one).  ``require`` lists the i that must
    be present among the comparison scenarios.
    """
    if big.spec.kind not in ("f", "f-conj"):
        raise ValueError("first argument must be a big-fiber scenario")
    if big.e3 is None:
        raise ValueError("big-fiber scenario has no assembled page")
    by_n = {}
    for res in singles:
        if res.spec.kind != "fnz":
            raise ValueError("comparison scenarios must be integral single-square fibers")
        by_n[res.spec.n] = res
    missing = [i for i in require if 2 * i not in by_n]
    if missing:
        raise ValueError(f"missing counterpart scenarios for i in {missing}")
    out = []
    for n in sorted(by_n):
        single = by_n[n]
        if single.e3 is None:
            raise ValueError(f"fnz(n={n}) has no assembled page")
        if n % 2:
            raise ValueError("comparison needs even n")
        i = n // 2
        stem = n - 1
        if any(page.max_s < 1 or page.max_t < stem + 1 for page in (big.e3, single.e3)):
            raise ValueError(f"stem {stem} not certified at these bounds")
        out.append(
            FiltrationDelta(
                i=i,
                stem=stem,
                filt_big=_unique_class_filtration(big.e3, stem),
                filt_single=_unique_class_filtration(single.e3, stem),
            )
        )
    return out
