"""Degreewise-finite graded left modules over the Steenrod algebra.

A module is stored as dimensions per degree plus one action matrix per
(Sq^k, source degree); a map is one matrix per degree.  Free modules, and
every P_s of a resolution, keep their basis order in a :class:`FreeIndexer`:
(generator, admissible monomial) in generator-major order.  Its initial
generators may come in any degree order; ``add_generator``, with which a
resolution grows, appends in non-decreasing degree.  Its ``map_columns`` is
the one routine that builds the columns of a map out of a free module.

Everything is only meaningful up to the construction bound ``max_t``:
consumers must propagate that margin.  Construction of kernels, images and cokernels is degreewise
GF(2) linear algebra followed by transport of the action, mirroring how the
long exact cohomology sequence of a map gets cut into short exact sequences.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Optional, Sequence

from .f2core import (
    BitMatrix,
    Subspace,
    combine,
    image_and_kernel,
    quotient_section,
    rank as f2rank,
)
from .steenrod import AlgebraElement, AlgebraTable, Monomial


class ExactnessError(RuntimeError):
    """An action escaped a subspace or a sequence failed a rank check.

    Indicates an upstream bug, never bad user input.
    """


class GradedModule:
    """A graded left module, valid for degrees t <= max_t.

    ``actions[(k, t)]`` is the matrix of Sq^k from degree t to degree t+k;
    missing keys mean the zero map.  ``labels[t]`` are display names for the
    degree-t basis.  ``free_basis`` is set for free modules: the
    :class:`FreeIndexer` that orders their basis.
    """

    __slots__ = ("algebra", "max_t", "dims", "labels", "free_basis", "_actions", "_digest")

    def __init__(
        self,
        algebra: AlgebraTable,
        max_t: int,
        dims: Sequence[int],
        actions: dict[tuple[int, int], BitMatrix],
        labels: Optional[Sequence[Sequence[str]]] = None,
        free_basis: Optional[FreeIndexer] = None,
    ):
        if max_t < 0:
            raise ValueError("max_t must be non-negative")
        if len(dims) != max_t + 1:
            raise ValueError("dims must cover degrees 0..max_t")
        self.algebra = algebra
        self.max_t = max_t
        self.dims = tuple(dims)
        for (k, t), mat in actions.items():
            if k < 1 or t < 0 or t + k > max_t:
                raise ValueError(f"action key ({k},{t}) outside window")
            if mat.shape != (self.dims[t + k], self.dims[t]):
                raise ValueError(f"action ({k},{t}) has shape {mat.shape}")
        self._actions = {key: mat for key, mat in actions.items() if not mat.is_zero()}
        if labels is None:
            labels = [tuple(f"e{t}_{i}" for i in range(self.dims[t])) for t in range(max_t + 1)]
        self.labels = tuple(tuple(l) for l in labels)
        self.free_basis = free_basis
        self._digest: Optional[str] = None

    def dim(self, t: int) -> int:
        return self.dims[t] if 0 <= t <= self.max_t else 0

    def action(self, k: int, t: int) -> BitMatrix:
        if k == 0:
            return BitMatrix.identity(self.dims[t])
        mat = self._actions.get((k, t))
        if mat is None:
            mat = BitMatrix.zero(self.dim(t + k), self.dims[t])
        return mat

    def column_action(self):
        """``apply_sq(k, t, vec)``: Sq^k on a degree-t vector, combined over
        the columns of ``action(k, t)``, which each applier keeps once taken."""
        columns: dict[tuple[int, int], list[int]] = {}

        def apply_sq(k: int, t: int, vec: int) -> int:
            cols = columns.get((k, t))
            if cols is None:
                cols = columns[(k, t)] = self.action(k, t).columns()
            return combine(cols, vec)

        return apply_sq

    def digest(self) -> str:
        """Content hash of (max_t, dims, actions); labels are presentation only."""
        if self._digest is None:
            h = hashlib.sha256()
            h.update(b"EXTMOD1")
            h.update(repr((self.max_t, self.dims)).encode())
            for key in sorted(self._actions):
                mat = self._actions[key]
                h.update(repr((key, mat.shape, mat.data)).encode())
            self._digest = h.hexdigest()
        return self._digest

    def check_actions(self, sample_only: bool = False) -> None:
        """Verify the Adem relations hold on the stored action matrices.

        For every inadmissible pair (a, b), action(a) o action(b) must equal
        the sum of the admissible rewriting applied as matrices.  The full
        check is quadratic in max_t; ``sample_only`` restricts to a <= 4.
        """
        alg = self.algebra
        amax = 4 if sample_only else self.max_t
        for a in range(1, amax + 1):
            for b in range(1, self.max_t + 1):
                if a >= 2 * b:
                    continue
                for t in range(0, self.max_t - a - b + 1):
                    lhs = self.action(a, t + b) @ self.action(b, t)
                    rhs = BitMatrix.zero(self.dim(t + a + b), self.dim(t))
                    for mono in alg.terms(alg.adem_reduce([a, b])):
                        if len(mono) == 1:
                            rhs = rhs + self.action(mono[0], t)
                        else:
                            rhs = rhs + (self.action(mono[0], t + mono[1]) @ self.action(mono[1], t))
                    if lhs != rhs:
                        raise ExactnessError(f"Adem relation Sq^{a}Sq^{b} fails at degree {t}")

    def __repr__(self) -> str:
        return f"GradedModule(max_t={self.max_t}, dims={self.dims})"


@dataclass
class ModuleMap:
    """A degreewise linear map; linearity over the algebra is an invariant."""

    domain: GradedModule
    codomain: GradedModule
    mats: tuple[BitMatrix, ...]

    def __post_init__(self):
        bound = self.max_t
        if len(self.mats) != bound + 1:
            raise ValueError("need one matrix per degree 0..max_t")
        for t, mat in enumerate(self.mats):
            if mat.shape != (self.codomain.dim(t), self.domain.dim(t)):
                raise ValueError(f"matrix at degree {t} has shape {mat.shape}")

    @property
    def max_t(self) -> int:
        return min(self.domain.max_t, self.codomain.max_t)

    def mat(self, t: int) -> BitMatrix:
        return self.mats[t]

    def apply(self, t: int, v: int) -> int:
        return self.mats[t].mul_vec(v)

    def check_linearity(self, ks: Optional[Sequence[int]] = None) -> None:
        """mats[t+k] o dom.action = cod.action o mats[t] for all k, t in range."""
        bound = self.max_t
        krange = ks if ks is not None else range(1, bound + 1)
        for k in krange:
            for t in range(0, bound - k + 1):
                lhs = self.mats[t + k] @ self.domain.action(k, t)
                rhs = self.codomain.action(k, t) @ self.mats[t]
                if lhs != rhs:
                    raise ExactnessError(f"map is not linear over Sq^{k} at degree {t}")

    def compose(self, other: "ModuleMap") -> "ModuleMap":
        """self o other."""
        if other.codomain is not self.domain and other.codomain.dims != self.domain.dims:
            raise ValueError("composition domain mismatch")
        bound = min(self.max_t, other.max_t)
        return ModuleMap(
            other.domain,
            self.codomain,
            tuple(self.mats[t] @ other.mats[t] for t in range(bound + 1)),
        )

    def is_zero(self) -> bool:
        return all(m.is_zero() for m in self.mats)


def trivial_module(algebra: AlgebraTable, max_t: int, shift: int = 0) -> GradedModule:
    """The module F2 concentrated in one degree, with zero action."""
    dims = [1 if t == shift else 0 for t in range(max_t + 1)]
    labels = [("1",) if t == shift else () for t in range(max_t + 1)]
    return GradedModule(algebra, max_t, dims, {}, labels)


class FreeIndexer:
    """Basis bookkeeping for a free module on an ordered generator list.

    The degree-t basis is (generator, admissible monomial of degree
    t - gen_degree) in generator-major order, monomials in the canonical
    algebra order.  The initial generators may come in any degree order;
    ``add_generator`` appends in non-decreasing degree, which resolutions
    and cache loads rely on.

    The blocks of each degree, and the offset of every generator in it, are
    tabulated on first use: ``offsets[g]`` is where generator g's block
    starts (or would start), ``offsets[-1]`` the dimension.
    ``add_generator`` clears the table, because a new generator changes
    every degree at or above its own.
    """

    __slots__ = ("algebra", "gen_degrees", "_table")

    def __init__(self, algebra: AlgebraTable, gen_degrees: Sequence[int] = ()):
        self.algebra = algebra
        self.gen_degrees: list[int] = list(gen_degrees)
        self._table: dict[int, tuple[list[tuple[int, int, int]], list[int]]] = {}

    def add_generator(self, t: int) -> int:
        if self.gen_degrees and t < self.gen_degrees[-1]:
            raise ValueError("generators must be added in non-decreasing degree")
        self.gen_degrees.append(t)
        self._table.clear()
        return len(self.gen_degrees) - 1

    def gens_in_degree(self, t: int) -> list[int]:
        return [g for g, d in enumerate(self.gen_degrees) if d == t]

    def _degree(self, t: int) -> tuple[list[tuple[int, int, int]], list[int]]:
        """(blocks, offsets) of degree t, from the table."""
        got = self._table.get(t)
        if got is None:
            alg = self.algebra
            blocks = []
            offsets = []
            off = 0
            for g, d in enumerate(self.gen_degrees):
                offsets.append(off)
                if d <= t:
                    blocks.append((g, d, off))
                    off += alg.dim(t - d)
            offsets.append(off)
            got = self._table[t] = (blocks, offsets)
        return got

    def dim(self, t: int) -> int:
        if t < 0:
            return 0
        return self._degree(t)[1][-1]

    def offset(self, g: int, t: int) -> int:
        return self._degree(t)[1][g]

    def blocks(self, t: int) -> list[tuple[int, int, int]]:
        """(generator, generator degree, offset) for each block in degree t."""
        return self._degree(t)[0]

    def position(self, g: int, mono: Monomial, t: int) -> int:
        return self.offset(g, t) + self.algebra.index(mono)

    def map_columns(self, t: int, image, apply_sq, memo: dict[int, list[int]]) -> list[int]:
        """Degree-t columns of the module map sending generator g to image(g).

        The column of (g, mono) is Sq^{mono[0]} applied, by
        ``apply_sq(k, t, vec)`` in target coordinates, to the column of
        (g, mono[1:]); ``memo`` holds the columns of each degree built so far.
        """
        cols = memo.get(t)
        if cols is None:
            cols = []
            for g, d, _ in self.blocks(t):
                if d == t:
                    cols.append(image(g))
                    continue
                for mono in self.algebra.basis(t - d):
                    k = mono[0]
                    below = self.map_columns(t - k, image, apply_sq, memo)
                    cols.append(apply_sq(k, t - k, below[self.position(g, mono[1:], t - k)]))
            memo[t] = cols
        return cols

    def basis(self, t: int) -> list[tuple[int, Monomial]]:
        out = []
        for g, d, _ in self.blocks(t):
            out.extend((g, m) for m in self.algebra.basis(t - d))
        return out

    def action_columns(self, k: int, t: int) -> list[int]:
        """Columns of Sq^k from degree t to degree t + k."""
        alg = self.algebra
        out_offsets = self._degree(t + k)[1]
        return [
            alg.multiply_mono(k, 0, t - d, i) << out_offsets[g]
            for g, d, _ in self.blocks(t)
            for i in range(alg.dim(t - d))
        ]

    def apply_sq(self, k: int, t: int, vec: int) -> int:
        """Sq^k acting on a degree-t vector of the free module."""
        if k == 0 or vec == 0:
            return vec
        alg = self.algebra
        out = 0
        out_offsets = self._degree(t + k)[1]
        for g, d, off in reversed(self.blocks(t)):
            block = vec >> off
            if not block:
                continue
            vec ^= block << off
            acc = 0
            while block:
                low = block & -block
                acc ^= alg.multiply_mono(k, 0, t - d, low.bit_length() - 1)
                block ^= low
            out |= acc << out_offsets[g]
        return out

    def element_of(self, vec: int, t: int) -> dict[int, AlgebraElement]:
        """Split a degree-t vector into generator components."""
        alg = self.algebra
        out = {}
        for g, d, off in self.blocks(t):
            size = alg.dim(t - d)
            block = (vec >> off) & ((1 << size) - 1)
            if block:
                out[g] = AlgebraElement(t - d, block)
        return out

    def vector_of(self, parts: dict[int, AlgebraElement], t: int) -> int:
        vec = 0
        for g, elem in parts.items():
            d = self.gen_degrees[g]
            if elem.degree != t - d:
                raise ValueError("component degree mismatch")
            vec |= elem.coords << self.offset(g, t)
        return vec


def free_module(algebra: AlgebraTable, shifts: Sequence[int], max_t: int) -> GradedModule:
    """Free module on one generator per shift, in any order; basis
    (g, admissible monomial) as ordered by its ``free_basis``."""
    shifts = tuple(shifts)
    if any(s < 0 for s in shifts):
        raise ValueError("shifts must be non-negative")
    basis = FreeIndexer(algebra, shifts)
    labels = []
    for t in range(max_t + 1):
        names = []
        for g, mono in basis.basis(t):
            word = "".join(f"Sq{e}" for e in mono) or "1"
            names.append(f"g{g}[{shifts[g]}]*{word}" if len(shifts) > 1 else word)
        labels.append(tuple(names))
    actions = {
        (k, t): BitMatrix.from_columns(basis.action_columns(k, t), basis.dim(t + k))
        for k in range(1, max_t + 1)
        for t in range(0, max_t - k + 1)
    }
    dims = [basis.dim(t) for t in range(max_t + 1)]
    return GradedModule(algebra, max_t, dims, actions, labels, free_basis=basis)


def map_from_generators(
    dom: GradedModule, codomain: GradedModule, targets: Sequence[int]
) -> ModuleMap:
    """The unique linear extension of generator -> target for a free domain.

    ``targets[g]`` is a codomain vector in the degree of generator g.
    """
    basis = dom.free_basis
    if basis is None:
        raise ValueError("domain must be a free module")
    if len(targets) != len(basis.gen_degrees):
        raise ValueError("need one target per generator")
    bound = min(dom.max_t, codomain.max_t)
    for g, d in enumerate(basis.gen_degrees):
        if d <= bound and targets[g] >> codomain.dim(d):
            raise ValueError(f"target {g} does not live in codomain degree {d}")
    apply_sq = codomain.column_action()
    memo: dict[int, list[int]] = {}
    mp = ModuleMap(dom, codomain, tuple(
        BitMatrix.from_columns(
            basis.map_columns(t, targets.__getitem__, apply_sq, memo), codomain.dim(t)
        )
        for t in range(bound + 1)
    ))
    mp.check_linearity(ks=_generating_squares(bound))
    return mp


@dataclass
class ShortExactSequence:
    """0 -> sub -> mid -> quot -> 0 with explicit inclusion and projection."""

    sub: GradedModule
    mid: GradedModule
    quot: GradedModule
    inclusion: ModuleMap
    projection: ModuleMap

    def check_exact(self) -> None:
        bound = min(self.sub.max_t, self.mid.max_t, self.quot.max_t)
        for t in range(bound + 1):
            if self.sub.dim(t) + self.quot.dim(t) != self.mid.dim(t):
                raise ExactnessError(f"rank mismatch at degree {t}")
            if f2rank(self.inclusion.mat(t)) != self.sub.dim(t):
                raise ExactnessError(f"inclusion not injective at degree {t}")
            if f2rank(self.projection.mat(t)) != self.quot.dim(t):
                raise ExactnessError(f"projection not surjective at degree {t}")
            if not self.projection.mat(t).__matmul__(self.inclusion.mat(t)).is_zero():
                raise ExactnessError(f"projection o inclusion nonzero at degree {t}")


@dataclass
class FactoredMap:
    """Kernel / image / cokernel factorization of a map f.

    The short exact sequences 0 -> K -> Dom -> I -> 0 and
    0 -> I -> Cod -> C -> 0 are exact in every degree of the window.
    """

    source: ModuleMap
    K: GradedModule
    I: GradedModule
    C: GradedModule
    i_K: ModuleMap
    p_I: ModuleMap
    i_I: ModuleMap
    p_C: ModuleMap

    def kernel_sequence(self) -> ShortExactSequence:
        return ShortExactSequence(self.K, self.source.domain, self.I, self.i_K, self.p_I)

    def cokernel_sequence(self) -> ShortExactSequence:
        return ShortExactSequence(self.I, self.source.codomain, self.C, self.i_I, self.p_C)


def factor_map(f: ModuleMap) -> FactoredMap:
    """Degreewise kernel, image and cokernel of f, with induced actions."""
    dom, cod = f.domain, f.codomain
    bound = f.max_t
    alg = dom.algebra
    kers: list[Subspace] = []
    imgs: list[Subspace] = []
    projs: list[BitMatrix] = []
    lifts: list[BitMatrix] = []
    for t in range(bound + 1):
        image, kernel = image_and_kernel(f.mat(t).columns(), cod.dim(t))
        kers.append(kernel)
        imgs.append(image.subspace())
        proj, lift = quotient_section(cod.dim(t), imgs[t])
        projs.append(proj)
        lifts.append(lift)

    k_dims = [kers[t].rank for t in range(bound + 1)]
    i_dims = [imgs[t].rank for t in range(bound + 1)]
    c_dims = [cod.dim(t) - imgs[t].rank for t in range(bound + 1)]

    K = GradedModule(
        alg, bound, k_dims, _induced_sub_actions_window(dom, kers, bound),
        labels=[tuple(f"k{t}_{i}" for i in range(k_dims[t])) for t in range(bound + 1)],
    )
    I = GradedModule(
        alg, bound, i_dims, _induced_sub_actions_window(cod, imgs, bound),
        labels=[tuple(f"i{t}_{i}" for i in range(i_dims[t])) for t in range(bound + 1)],
    )
    c_actions = {}
    for k in range(1, bound + 1):
        for t in range(0, bound - k + 1):
            c_actions[(k, t)] = projs[t + k] @ cod.action(k, t) @ lifts[t]
    pivot_free_labels = []
    for t in range(bound + 1):
        pivot_set = set(imgs[t].pivots)
        pivot_free_labels.append(
            tuple(cod.labels[t][j] for j in range(cod.dim(t)) if j not in pivot_set)
        )
    C = GradedModule(alg, bound, c_dims, c_actions, labels=pivot_free_labels)

    i_K = ModuleMap(K, dom, tuple(
        BitMatrix.from_columns(list(kers[t].basis.data), dom.dim(t)) for t in range(bound + 1)
    ))
    p_I_mats = []
    for t in range(bound + 1):
        cols = []
        for j, col in enumerate(f.mat(t).columns()):
            coords = imgs[t].coordinates(col)
            assert coords is not None
            cols.append(coords)
        p_I_mats.append(BitMatrix.from_columns(cols, i_dims[t]))
    p_I = ModuleMap(dom, I, tuple(p_I_mats))
    i_I = ModuleMap(I, cod, tuple(
        BitMatrix.from_columns(list(imgs[t].basis.data), cod.dim(t)) for t in range(bound + 1)
    ))
    p_C = ModuleMap(cod, C, tuple(projs))
    fac = FactoredMap(f, K, I, C, i_K, p_I, i_I, p_C)
    fac.kernel_sequence().check_exact()
    fac.cokernel_sequence().check_exact()
    for mp in (i_K, p_I, i_I, p_C):
        mp.check_linearity(ks=_generating_squares(bound))
    return fac


def _generating_squares(bound: int) -> list[int]:
    """k = 1, 2, 4, 8, ... up to bound: the Sq^k that generate the algebra, so
    linearity over them is linearity over every Sq^k."""
    return [1 << i for i in range(bound.bit_length())]


def _induced_sub_actions_window(
    ambient: GradedModule, subs: list[Subspace], bound: int
) -> dict[tuple[int, int], BitMatrix]:
    actions = {}
    for k in range(1, bound + 1):
        for t in range(0, bound - k + 1):
            amb = ambient.action(k, t).columns()
            cols = []
            for v in subs[t].basis.data:
                coords = subs[t + k].coordinates(combine(amb, v))
                if coords is None:
                    raise ExactnessError(f"Sq^{k} escapes the subspace at degree {t}")
                cols.append(coords)
            actions[(k, t)] = BitMatrix.from_columns(cols, subs[t + k].rank)
    return actions


def sq1_cokernel_factorization(algebra: AlgebraTable, max_t: int) -> FactoredMap:
    """Factorization of right multiplication by Sq^1 on the free module."""
    dom = free_module(algebra, [1], max_t)
    cod = free_module(algebra, [0], max_t)
    sq1 = 1 << algebra.index((1,))
    f = map_from_generators(dom, cod, [sq1])
    return factor_map(f)


def a_mod_sq1(algebra: AlgebraTable, max_t: int) -> GradedModule:
    """The quotient by the left ideal generated by Sq^1.

    Constructed as the cokernel of right multiplication by Sq^1; the
    canonical complement basis comes out labeled by the admissible monomials
    whose last exponent is at least 2.
    """
    return sq1_cokernel_factorization(algebra, max_t).C


def direct_sum(
    modules: Sequence[GradedModule],
    algebra: Optional[AlgebraTable] = None,
    max_t: Optional[int] = None,
) -> GradedModule:
    """Block direct sum; the window is the smallest of the summands'."""
    if not modules:
        if algebra is None or max_t is None:
            raise ValueError("empty sum needs explicit algebra and max_t")
        return GradedModule(algebra, max_t, [0] * (max_t + 1), {})
    alg = modules[0].algebra
    bound = min(m.max_t for m in modules)
    if max_t is not None:
        bound = min(bound, max_t)
    dims = [sum(m.dim(t) for m in modules) for t in range(bound + 1)]
    labels = []
    for t in range(bound + 1):
        names = []
        for i, m in enumerate(modules):
            names.extend(f"s{i}:{l}" for l in m.labels[t])
        labels.append(tuple(names))
    actions = {}
    for k in range(1, bound + 1):
        for t in range(0, bound - k + 1):
            cols = []
            in_offs = []
            off = 0
            for m in modules:
                in_offs.append(off)
                off += m.dim(t + k)
            for i, m in enumerate(modules):
                for col in m.action(k, t).columns():
                    cols.append(col << in_offs[i])
            actions[(k, t)] = BitMatrix.from_columns(cols, dims[t + k])
    return GradedModule(alg, bound, dims, actions, labels)


def suspend(m: GradedModule, a: int) -> GradedModule:
    """Degree shift by a; negative shifts require the low degrees to vanish."""
    if a < 0 and any(m.dims[t] for t in range(min(-a, m.max_t + 1))):
        raise ValueError("negative suspension hits nonzero degrees")
    new_max = m.max_t + a
    if new_max < 0:
        raise ValueError("suspension empties the window")
    dims = [m.dim(t - a) if t - a >= 0 else 0 for t in range(new_max + 1)]
    labels = [
        m.labels[t - a] if 0 <= t - a <= m.max_t else () for t in range(new_max + 1)
    ]
    actions = {}
    for (k, t), mat in m._actions.items():
        if 0 <= t + a and t + a + k <= new_max:
            actions[(k, t + a)] = mat
    return GradedModule(m.algebra, new_max, dims, actions, labels)
