"""Connecting homomorphisms of Ext long exact sequences.

Given a short exact sequence 0 -> sub -> mid -> quot -> 0 and minimal
resolutions P(sub), P(quot) of the outer terms, the horseshoe construction
splices them into a resolution Q_s = P_s(sub) (+) P_s(quot) of the middle.
Its off-diagonal blocks tau_s are found degreewise by canonical solves of

    e_{s-1} o tau_s = tau_{s-1} o d^quot_s        (s >= 0)

where e_{-1} is the projection and tau_{-1} o d^quot_0 the augmentation of
quot, so tau_0 = sigma lifts that augmentation through the projection;
e_0 = incl o aug_sub, and e_s = d^sub_s.  A lift holds tau on generators
only: the right side is tau_{s-1} evaluated on d(h), and each solve is
checked where it is made.  Both resolutions being minimal, the
dualized differentials vanish, and the connecting map is simply d[phi] =
[phi o tau]: its matrix entry is the unit coefficient of a sub-generator
in tau of a quot-generator.

The composite of two boundary maps is taken per bidegree; the suspension
re-indexing that presents it as a map out of Ext(desuspended sub) happens
here, once.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .f2core import Solver, combine, compose, rank as f2rank, transpose
from .gradedmod import ShortExactSequence
from .resolve import ExtChart, Resolution


class LiftError(RuntimeError):
    """A chain-lift solve failed: the sequence is not exact or the bounds
    were violated upstream."""


class ChainLift:
    """Horseshoe data for one short exact sequence, on generators only.

    ``tau[s][h]`` is the splice homotopy on the h-th generator of
    P_s(quot), a vector over the degree basis of mid for s = 0, where tau_0
    = sigma lifts the augmentation, and of P_{s-1}(sub) after.
    :meth:`apply_tau` evaluates tau_s on any vector.
    """

    def __init__(self, ses: ShortExactSequence, res_sub: Resolution, res_quot: Resolution):
        self.ses = ses
        self.res_sub = res_sub
        self.res_quot = res_quot
        self.tau: list[list[int]] = []

    def tau_codomain(self, s: int):
        """Where tau_s lands: mid for s = 0, P_{s-1}(sub) after."""
        return self.ses.mid if s == 0 else self.res_sub.indexers[s - 1]

    def apply_tau(self, s: int, t: int, vec: int, memo: dict[tuple[int, int, int], int]) -> int:
        """tau_s of a degree-t vector of P_s(quot).  Each monomial of a
        generator's block is applied one square at a time from the right,
        memoised in ``memo`` by (g, monomial), as ``map_columns`` builds the
        column of (g, monomial): so the columns would give the same bits.

        A second column routine on purpose: the lift needs tau_s on one
        vector d(h) per generator, and most monomials of a degree occur in
        no d(h).  Building tau_s's columns per degree with ``map_columns``
        instead called ``FreeIndexer.apply_sq`` 36,864 times over both lifts
        of scenario f at (14, 38), against 18,245 here, and ran slower."""
        images = self.tau[s]
        apply_sq = self.tau_codomain(s).apply_sq
        indexer = self.res_quot.indexers[s]
        degrees, heads = indexer.gen_degrees, indexer.algebra.heads

        def image(g: int, n: int, i: int) -> int:  # of g times monomial i of degree n
            if n == 0:
                return images[g]
            got = memo.get((g, n, i))
            if got is None:
                a, tail = heads(n)[i]
                got = memo[g, n, i] = apply_sq(a, degrees[g] + n - a, image(g, n - a, tail))
            return got

        out = 0
        for g, elem in indexer.element_of(vec, t).items():
            for i in range(elem.coords.bit_length()):
                if elem.coords >> i & 1:
                    out ^= image(g, elem.degree, i)
        return out

    def e_columns(self, s: int, t: int) -> list[int]:
        """Columns of e_s from (P_s sub)_t to the codomain of tau_s; e_{-1},
        which tau_0 lifts the augmentation of quot through, is the projection."""
        if s < 0:
            return self.ses.projection.columns[t]
        d = self.res_sub.diff_columns(s, t)
        return compose(self.ses.inclusion.columns[t], d) if s == 0 else d

    def verify(self) -> None:
        """proj o sigma = aug_quot on every generator of P_0(quot), sigma =
        tau_0.  Then eps = [e_0 | sigma] is onto mid: its image holds im e_0
        = ker proj, as aug_sub is onto, and maps onto quot, as aug_quot does.
        The lift checks this, and the rest of the horseshoe, per generator."""
        proj = self.ses.projection.columns
        for g, t in enumerate(self.res_quot.indexers[0].gen_degrees):
            if combine(proj[t], self.tau[0][g]) != self.res_quot.targets[0][g]:
                raise AssertionError(f"proj o sigma != aug on generator {g} at degree {t}")


def horseshoe_lift(
    ses: ShortExactSequence, res_sub: Resolution, res_quot: Resolution
) -> ChainLift:
    """Construct tau by canonical degreewise solves of its recurrence, from
    s = 0, where e_{-1} is the projection and the right side is aug_quot(h),
    and check each tau_s(h) right after its solve.  The right side for s >= 1
    is tau_{s-1}(d h), from :meth:`ChainLift.apply_tau`.  As the inclusion
    is injective, ker(e_0) = ker(aug_sub): solving for tau_1 in one step
    gives what solving through the inclusion, then aug_sub, gives."""
    if res_sub.module is not ses.sub:
        raise ValueError("res_sub does not resolve the sequence's own sub module object")
    if res_quot.module is not ses.quot:
        raise ValueError("res_quot does not resolve the sequence's own quot module object")
    if (res_sub.max_s, res_sub.max_t) != (res_quot.max_s, res_quot.max_t):
        raise ValueError("resolutions must share bounds")
    lift = ChainLift(ses, res_sub, res_quot)
    for s in range(res_sub.max_s + 1):
        solvers: dict[int, Solver] = {}  # one of e_{s-1} per degree, read only during this s
        below: dict[int, list[int]] = {}  # e_{s-1}'s columns, beside its solvers
        memo: dict[tuple[int, int, int], int] = {}  # tau_{s-1} on (generator, monomial)
        target = lift.tau_codomain(s - 1) if s else ses.quot
        lift.tau.append([])
        for h, t in enumerate(res_quot.indexers[s].gen_degrees):
            if t not in solvers:
                below[t] = lift.e_columns(s - 1, t)
                solvers[t] = Solver(below[t], target.dim(t))
            v = res_quot.targets[s][h]  # aug_quot(h) at s = 0
            if s:
                v = lift.apply_tau(s - 1, t, v, memo)
            x = solvers[t].solve(v)
            if x is None:
                raise LiftError(f"chain-lift recurrence at (s={s}, t={t}) unsolvable")
            if combine(below[t], x) != v:
                raise AssertionError(f"tau recurrence fails on generator {h} at (s={s}, t={t})")
            lift.tau[s].append(x)
    return lift


@dataclass
class BoundaryMap:
    """A bigraded map of Ext charts: Ext^{s,t}(source) -> Ext^{s+ds,t+dt}(target).

    A connecting homomorphism Ext^{s,t}(sub) -> Ext^{s+1,t}(quot) has
    ``degree`` (ds, dt) = (1, 0); the composite of two, indexed against the
    desuspended source, has (2, 1).  ``cols[(s, t)]`` is the column list of
    the map at bidegree (s, t): one vector over the target chart's
    generators for each source generator.  Maps exist for 0 <= s <= max_s
    and 0 <= t <= max_t; missing keys are zero maps between the charts'
    spaces.
    """

    source_chart: ExtChart
    target_chart: ExtChart
    max_s: int
    max_t: int
    degree: tuple[int, int] = (1, 0)
    cols: dict[tuple[int, int], list[int]] = field(default_factory=dict)

    def columns(self, s: int, t: int) -> list[int]:
        got = self.cols.get((s, t))
        return [0] * self.source_chart.dim(s, t) if got is None else got

    def shape(self, s: int, t: int) -> tuple[int, int]:
        """(rows, columns) at (s, t): the target chart's dimension and the
        number of columns held."""
        ds, dt = self.degree
        return self.target_chart.dim(s + ds, t + dt), len(self.columns(s, t))

    def rank(self, s: int, t: int) -> int:
        return f2rank(self.columns(s, t))

    def kernel_dim(self, s: int, t: int) -> int:
        return self.source_chart.dim(s, t) - self.rank(s, t)

    def coker_dim(self, s: int, t: int) -> int:
        """Cokernel in the target chart's bidegree (s, t), i.e. of the map
        arriving from (s - ds, t - dt)."""
        ds, dt = self.degree
        return self.target_chart.dim(s, t) - self.rank(s - ds, t - dt)

    def is_iso(self, s: int, t: int) -> bool:
        ds, dt = self.degree
        src = self.source_chart.dim(s, t)
        tgt = self.target_chart.dim(s + ds, t + dt)
        return src == tgt and self.rank(s, t) == src


def connecting_map(lift: ChainLift) -> BoundaryMap:
    """Read the boundary map off the splice homotopy.

    Minimality of both resolutions dualizes to vanishing differentials, so
    the class of phi o tau is just its generator pairing: bit h of column g
    at (s, t) is the unit coefficient of sub-generator g in tau_{s+1}(h),
    so column g is the row, at g's unit, of the transpose of those taus.
    """
    rs, rq = lift.res_sub, lift.res_quot
    bmap = BoundaryMap(rs.chart(), rq.chart(), rs.max_s - 1, rs.max_t)
    for s in range(0, rs.max_s):
        sub_idx = rs.indexers[s]
        for t in range(0, rs.max_t + 1):
            src_gens, tgt_gens = rs.gens(s, t), rq.gens(s + 1, t)
            if not src_gens or not tgt_gens:
                continue
            rows = transpose([lift.tau[s + 1][h] for h in tgt_gens], sub_idx.dim(t))
            bmap.cols[(s, t)] = [rows[sub_idx.offset(g, t)] for g in src_gens]
    return bmap


def compose_boundaries(d1: BoundaryMap, d2: BoundaryMap) -> BoundaryMap:
    """d2 o d1 per bidegree, re-indexed by the desuspension of d1's source.

    d1 must land in the chart d2 departs from.  The result has degree
    (2, 1): Ext^{s,t}(desuspended sub) = Ext^{s,t+1}(sub) ->
    Ext^{s+2,t+1}(target of d2).
    """
    if d1.target_chart != d2.source_chart:
        raise ValueError("boundary maps do not compose: charts differ")
    comp = BoundaryMap(
        source_chart=d1.source_chart.shift_t(-1),
        target_chart=d2.target_chart,
        max_s=min(d1.max_s, d2.max_s - 1),
        max_t=min(d1.max_t, d2.max_t) - 1,
        degree=(2, 1),
    )
    for s in range(0, comp.max_s + 1):
        for t in range(0, comp.max_t + 1):
            m = compose(d2.columns(s + 1, t + 1), d1.columns(s, t + 1))
            if any(m):
                comp.cols[(s, t)] = m
    return comp


@dataclass
class HypothesisCheck:
    """One bidegree of a check: a computed against an expected dimension."""

    what: str  # "kernel" or "cokernel" in the gate; the statement checked otherwise
    s: int
    t: int
    computed: int
    expected: int

    @property
    def ok(self) -> bool:
        return self.computed == self.expected


@dataclass
class HypothesisReport:
    checks: list[HypothesisCheck]

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def violations(self) -> list[HypothesisCheck]:
        return [c for c in self.checks if not c.ok]


def les_exactness_report(
    boundary: BoundaryMap,
    chart_sub: ExtChart,
    chart_mid: ExtChart,
    chart_quot: ExtChart,
) -> HypothesisReport:
    """Shape and rank-alternation consistency of the long exact sequence.

    Per bidegree, the boundary matrix must have the charts' shape ("boundary
    rows", "boundary cols").  Where the shape is right, exactness forces

        [quot_s - rank d_{s-1}] + [sub_s - rank d_s] = mid_s

    ("rank alternation").  The brackets are the ranks of p* and i*.  They
    need no check of their own: once the shapes hold, each is a dimension
    minus the rank of a matrix with that many rows or columns, so neither
    is negative, and a shape that fails fails the report.
    """
    checks = []
    for s in range(0, boundary.max_s + 1):
        for t in range(0, boundary.max_t + 1):
            rows, cols = boundary.shape(s, t)
            want_rows, want_cols = chart_quot.dim(s + 1, t), chart_sub.dim(s, t)
            checks.append(HypothesisCheck("boundary rows", s, t, rows, want_rows))
            checks.append(HypothesisCheck("boundary cols", s, t, cols, want_cols))
            if (rows, cols) != (want_rows, want_cols):
                continue
            r_p = chart_quot.dim(s, t) - boundary.rank(s - 1, t)
            r_i = chart_sub.dim(s, t) - boundary.rank(s, t)
            checks.append(HypothesisCheck("rank alternation", s, t, r_p + r_i, chart_mid.dim(s, t)))
    return HypothesisReport(checks)
