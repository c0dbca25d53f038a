"""Connecting homomorphisms of Ext long exact sequences.

Given a short exact sequence 0 -> sub -> mid -> quot -> 0 and minimal
resolutions P(sub), P(quot) of the outer terms, the horseshoe construction
splices them into a resolution Q_s = P_s(sub) (+) P_s(quot) of the middle.
The off-diagonal block tau_s : P_s(quot) -> P_{s-1}(sub) is found degreewise
by canonical solves of

    d^sub o tau_{s+1} = tau_s o d^quot        (s >= 1)
    incl o aug_sub o tau_1 = sigma o d^quot_1

where sigma lifts the augmentation of quot through the projection.  Because
both resolutions are minimal the dualized differentials vanish, and the
connecting map is simply  d[phi] = [phi o tau]: its matrix entry is the
unit coefficient of a sub-generator in tau of a quot-generator.

The composite of two boundary maps is taken per bidegree; the suspension
re-indexing that presents it as a map out of Ext(desuspended sub) happens
here, once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .f2core import Solver, combine, compose, rank as f2rank
from .gradedmod import ShortExactSequence
from .resolve import ExtChart, Resolution


class LiftError(RuntimeError):
    """A chain-lift solve failed: the sequence is not exact or the bounds
    were violated upstream."""


class ChainLift:
    """Horseshoe data for one short exact sequence.

    ``sigma[g]`` lifts the augmentation image of the g-th generator of
    P_0(quot) into the middle module; ``tau[s][h]`` (s >= 1) is the value of
    the splice homotopy on the h-th generator of P_s(quot), a vector over
    the degree basis of P_{s-1}(sub).  Maps are handed out as column lists
    (see :mod:`extlab.f2core`).
    """

    def __init__(self, ses: ShortExactSequence, res_sub: Resolution, res_quot: Resolution):
        self.ses = ses
        self.res_sub = res_sub
        self.res_quot = res_quot
        self.sigma: list[int] = []
        self.tau: list[list[int]] = [[]]  # tau[0] unused
        self._sigma_cols: dict[int, list[int]] = {}
        self._tau_cols: dict[int, dict[int, list[int]]] = {}

    @property
    def max_s(self) -> int:
        return self.res_sub.max_s

    @property
    def max_t(self) -> int:
        return self.res_sub.max_t

    def sigma_columns(self, t: int) -> list[int]:
        """Columns of sigma from (P_0 quot)_t to mid_t."""
        return self.res_quot.indexers[0].map_columns(
            t, self.sigma, self.ses.mid.apply_sq, self._sigma_cols
        )

    def tau_columns(self, s: int, t: int) -> list[int]:
        """Columns of tau_s from (P_s quot)_t to (P_{s-1} sub)_t."""
        return self.res_quot.indexers[s].map_columns(
            t, self.tau[s], self.res_sub.indexers[s - 1].apply_sq,
            self._tau_cols.setdefault(s, {}),
        )

    # -- invariants ---------------------------------------------------------

    def verify(self) -> None:
        """Base surjectivity, and the tau recurrences on generators.

        Mod 2, d^Q o d^Q = [[d d, d tau + tau d], [0, d d]] and
        eps o d^Q_1 = [incl aug d_1, incl aug tau_1 + sigma d_1].  The
        off-diagonal blocks are the recurrences, and d o d = 0 on both
        resolutions is certified when they are built or loaded, so the
        horseshoe differential needs no check of its own.  Both sides of a
        recurrence are A-linear maps out of the free module P_s(quot), so
        they agree iff they agree on generators: each h is checked once, in
        its degree, on columns the lift built to solve for tau_s(h).
        Surjectivity is checked in every degree.
        """
        ses, rs, rq = self.ses, self.res_sub, self.res_quot
        for t in range(self.max_t + 1):
            eps = compose(ses.inclusion.columns[t], rs.diff_columns(0, t)) + self.sigma_columns(t)
            if f2rank(eps) != ses.mid.dim(t):
                raise AssertionError(f"horseshoe base not surjective at degree {t}")
        for s in range(1, self.max_s + 1):
            for h, t in enumerate(rq.indexers[s].gen_degrees):
                tau_h, d_h = self.tau[s][h], rq.targets[s][h]
                if s == 1:
                    lhs = combine(ses.inclusion.columns[t], combine(rs.diff_columns(0, t), tau_h))
                    rhs = combine(self.sigma_columns(t), d_h)
                else:
                    lhs = combine(rs.diff_columns(s - 1, t), tau_h)
                    rhs = combine(self.tau_columns(s - 1, t), d_h)
                if lhs != rhs:
                    raise AssertionError(f"tau recurrence fails on generator {h} at (s={s}, t={t})")


def horseshoe_lift(
    ses: ShortExactSequence, res_sub: Resolution, res_quot: Resolution
) -> ChainLift:
    """Construct sigma and tau by canonical degreewise solves."""
    if res_sub.module_hash != ses.sub.digest():
        raise ValueError("res_sub does not resolve the subobject of the sequence")
    if res_quot.module_hash != ses.quot.digest():
        raise ValueError("res_quot does not resolve the quotient of the sequence")
    if (res_sub.max_s, res_sub.max_t) != (res_quot.max_s, res_quot.max_t):
        raise ValueError("resolutions must share bounds")
    lift = ChainLift(ses, res_sub, res_quot)
    max_s, max_t = res_sub.max_s, res_sub.max_t

    solvers: dict[tuple, Solver] = {}

    def preimage(key: tuple, b: int, what: str) -> int:
        """Canonical x with m @ x = b in degree t, where key = (m, t) names
        m: "projection" or "inclusion" of the sequence, or s for d_s of
        res_sub.  Each key's solver is built once."""
        solver = solvers.get(key)
        if solver is None:
            m, t = key
            if isinstance(m, str):
                mp = getattr(ses, m)
                solver = Solver(mp.columns[t], mp.codomain.dim(t))
            else:
                solver = Solver(res_sub.diff_columns(m, t), res_sub.ambient_dim(m, t))
            solvers[key] = solver
        x = solver.solve(b)
        if x is None:
            raise LiftError(f"{what} unsolvable")
        return x

    # sigma on generators of P_0(quot)
    for g, tg in enumerate(res_quot.indexers[0].gen_degrees):
        lift.sigma.append(
            preimage(("projection", tg), res_quot.targets[0][g], f"projection lift at t={tg}")
        )

    for s in range(1, max_s + 1):
        solvers.clear()  # a solver is read only during its own s
        lift.tau.append([])
        for h, th in enumerate(res_quot.indexers[s].gen_degrees):
            dvec = res_quot.targets[s][h]
            if s == 1:
                w = combine(lift.sigma_columns(th), dvec)
                v = preimage(("inclusion", th), w, f"inclusion preimage at t={th}")
            else:
                v = combine(lift.tau_columns(s - 1, th), dvec)
            lift.tau[s].append(
                preimage((s - 1, th), v, f"chain-lift recurrence at (s={s}, t={th})")
            )
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
    at (s, t) is the unit coefficient of sub-generator g in tau_{s+1}(h).
    """
    rs, rq = lift.res_sub, lift.res_quot
    bmap = BoundaryMap(rs.chart(), rq.chart(), rs.max_s - 1, rs.max_t)
    for s in range(0, rs.max_s):
        sub_idx = rs.indexers[s]
        for t in range(0, rs.max_t + 1):
            src_gens = sub_idx.gens_in_degree(t)
            tgt_gens = rq.indexers[s + 1].gens_in_degree(t)
            if not src_gens or not tgt_gens:
                continue
            taus = [lift.tau[s + 1][h] for h in tgt_gens]
            units = [sub_idx.offset(g, t) for g in src_gens]
            bmap.cols[(s, t)] = [
                sum(((tau >> p) & 1) << i for i, tau in enumerate(taus)) for p in units
            ]
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
    chart_mid: Optional[ExtChart],
    chart_quot: ExtChart,
) -> HypothesisReport:
    """Shape and rank-alternation consistency of the long exact sequence.

    Per bidegree, the boundary matrix must have the charts' shape ("boundary
    rows", "boundary cols").  With the middle chart available and the shape
    right, exactness forces

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
            if chart_mid is None or (rows, cols) != (want_rows, want_cols):
                continue
            r_p = chart_quot.dim(s, t) - boundary.rank(s - 1, t)
            r_i = chart_sub.dim(s, t) - boundary.rank(s, t)
            checks.append(HypothesisCheck("rank alternation", s, t, r_p + r_i, chart_mid.dim(s, t)))
    return HypothesisReport(checks)
