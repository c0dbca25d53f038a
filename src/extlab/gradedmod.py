"""Degreewise-finite graded left modules over the Steenrod algebra.

A module is its dimensions per degree plus its Sq^k, and nothing else: its
basis vectors carry no names.  A map is one linear map per degree.  Both are
held in the library's one matrix form, the column list of
:mod:`extlab.f2core` (entry j is the image of basis vector j), applied with
:func:`~extlab.f2core.combine` and composed with
:func:`~extlab.f2core.compose`.  :meth:`GradedModule.digest` hashes the
rows of each Sq^k; a submodule's or quotient's come from its middle
module's rows, read off the algebra's tables, so its own tables are never
built.  Free modules, and every P_s of a resolution, keep their basis order
in a :class:`FreeIndexer`: (generator, admissible monomial) in
generator-major order.  Its initial generators may come in any degree
order; ``add_generator``, with which a resolution grows, appends in
non-decreasing degree.  Its ``map_columns`` is the one routine that builds
the columns of a map out of a free module.

Everything is only meaningful up to the construction bound ``max_t``:
consumers must propagate that margin.  Given one
:class:`~extlab.f2core.Subspace` per degree, a tuple of reduced rows,
:func:`inclusion_map` builds the submodule and :func:`quotient_map` the
quotient, each applying Sq^k through the middle module on every call.
:func:`factor_map` cuts a map into kernel, image and cokernel through these
two builders, and :func:`sq1_quotient` builds A//A(0) as a coordinate
quotient of A, the one module here that stores a table.

The digest, which is the cache key, is SHA-256 from the interpreter's
builtin module (``_sha2``, or ``_sha256`` before Python 3.12).  Importing
``hashlib`` loads ``_hashlib`` and OpenSSL's libcrypto, about 3.5 MB of
resident memory in every process, for the one hash the library takes.
``hashlib`` is the fallback on builds without the builtin hashes (FIPS
builds, PyPy); every source gives the same digest.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence

try:
    from _sha2 import sha256
except ImportError:
    try:
        from _sha256 import sha256
    except ImportError:
        from hashlib import sha256

from .f2core import (
    Subspace,
    combine,
    compose,
    image_and_kernel,
    product_rows,
    quotient_section,
    rank as f2rank,
    reduced,
    transpose,
)
from .steenrod import AlgebraElement, AlgebraTable


class ExactnessError(RuntimeError):
    """An action escaped a subspace or a sequence failed a rank check.

    Indicates an upstream bug, never bad user input.
    """


class GradedModule:
    """A graded left module, valid for degrees t <= max_t; Sq^k is zero past it.

    Sq^k comes from ``free_basis``, the :class:`FreeIndexer` of a free
    module; or from ``through`` = (mid, up, down), the column lists into a
    module mid and back, as down o Sq^k o up; or from the stored column list
    ``actions[(k, t)]`` of Sq^k from degree t to t+k, where a missing key
    means the zero map.  The module keeps the lists it is given, which nobody
    may change afterwards.
    """

    __slots__ = ("algebra", "max_t", "dims", "free_basis", "_through", "_actions", "_digest")

    def __init__(
        self,
        algebra: AlgebraTable,
        max_t: int,
        dims: Iterable[int],
        actions: dict[tuple[int, int], list[int]],
        free_basis: Optional[FreeIndexer] = None,
        through: Optional[tuple[GradedModule, Sequence, Sequence]] = None,
    ):
        self.dims = tuple(dims)
        if max_t < 0:
            raise ValueError("max_t must be non-negative")
        if len(self.dims) != max_t + 1:
            raise ValueError("dims must cover degrees 0..max_t")
        self.algebra = algebra
        self.max_t = max_t
        for (k, t), cols in actions.items():
            if k < 1 or t < 0 or t + k > max_t:
                raise ValueError(f"action key ({k},{t}) outside window")
            if len(cols) != self.dims[t]:
                raise ValueError(f"action ({k},{t}) has {len(cols)} columns, not {self.dims[t]}")
            if any(c >> self.dims[t + k] for c in cols):
                raise ValueError(f"action ({k},{t}) has a bit beyond degree {t + k}")
        self._actions = {key: cols for key, cols in actions.items() if any(cols)}
        self.free_basis = free_basis
        self._through = through
        self._digest: Optional[str] = None

    def dim(self, t: int) -> int:
        return self.dims[t] if 0 <= t <= self.max_t else 0

    def action(self, k: int, t: int) -> list[int]:
        """Columns of Sq^k, k >= 1, from degree t: zeros when the action is
        absent or leaves the window.  Only a stored table is kept.

        :meth:`ModuleMap.check_linearity` composes these columns.  A row form
        of that check, on :meth:`_sq_rows`, was slower: 0.021 s against
        0.014 s on the scenario map at (14, 38), median of seven.
        """
        if t + k <= self.max_t and self.free_basis is not None:
            return self.free_basis.action_columns(k, t)
        if t + k <= self.max_t and self._through is not None:
            mid, up, down = self._through
            return compose(compose(down[t + k], mid.action(k, t)), up[t])
        cols = self._actions.get((k, t))
        return [0] * self.dims[t] if cols is None else cols

    def apply_sq(self, k: int, t: int, vec: int) -> int:
        """Sq^k, k >= 1, on a degree-t vector."""
        if not vec or t + k > self.max_t:
            return 0
        if self.free_basis is not None:
            return self.free_basis.apply_sq(k, t, vec)
        if self._through is not None:
            mid, up, down = self._through
            return combine(down[t + k], mid.apply_sq(k, t, combine(up[t], vec)))
        cols = self._actions.get((k, t))
        return 0 if cols is None else combine(cols, vec)

    def _sq_blocks(self) -> Callable[[int, int], list[tuple[int, int, list[tuple[int, int]]]]]:
        """A function giving the nonzero rows of Sq^k from degree t, for
        t + k <= max_t, as blocks (base, shift, pairs): a pair (i, r) is row
        base + i, ``r << shift``.

        A free module has one block per generator present in degree t, the
        nonzero rows of the transposed ``sq_columns`` of the algebra, kept
        for one k at a time.  Any other module has one block, from
        :meth:`_sq_rows`.
        """
        if self.free_basis is None:
            sq_rows = self._sq_rows()
            return lambda k, t: [(0, 0, [(i, r) for i, r in enumerate(sq_rows(k, t)) if r])]
        basis, alg, memo = self.free_basis, self.algebra, {}

        def blocks(k: int, t: int) -> list[tuple[int, int, list[tuple[int, int]]]]:
            if k not in memo:  # callers go k by k: keep one k's transposes
                memo.clear()
                memo[k] = {}
            nonzero, found = memo[k], []
            for g, d, offset in basis.blocks(t):
                pairs = nonzero.get(t - d)
                if pairs is None:
                    rows = transpose(alg.sq_columns(k, t - d), alg.dim(t + k - d))
                    pairs = nonzero[t - d] = [(i, r) for i, r in enumerate(rows) if r]
                found.append((basis.offset(g, t + k), offset, pairs))
            return found

        return blocks

    def _sq_rows(self) -> Callable[[int, int], list[int]]:
        """A function giving the rows of Sq^k from degree t, for t + k <= max_t.

        A module built ``through`` = (mid, up, down) takes them as the
        :func:`~extlab.f2core.product_rows` of mid's :meth:`_sq_blocks`, and
        reads nothing of mid where degree t or t + k is zero.  Any other
        module transposes its columns, which for a free module are the
        algebra's, shifted.  The transposes last as long as the function.
        """
        if self._through is None:
            return lambda k, t: transpose(self.action(k, t), self.dims[t + k])
        mid, up, down = self._through
        mid_blocks = mid._sq_blocks()
        up_rows = [transpose(cols, mid.dim(t)) for t, cols in enumerate(up)]

        def rows(k: int, t: int) -> list[int]:
            if not self.dims[t] or not self.dims[t + k]:
                return [0] * self.dims[t + k]
            return product_rows(down[t + k], mid_blocks(k, t), up_rows[t], self.dims[t + k])

        return rows

    def digest(self) -> str:
        """SHA-256 of (max_t, dims) and the shape and rows of each nonzero
        Sq^k in (k, t) order, from :meth:`_sq_rows`, which holds at most
        about 0.25 MB at scenario f (14, 38)'s K, against 0.06 MB when each
        table was composed and transposed."""
        if self._digest is None:
            sq_rows = self._sq_rows()
            h = sha256()
            h.update(b"EXTMOD1")
            h.update(repr((self.max_t, self.dims)).encode())
            for k in range(1, self.max_t + 1):
                for t in range(self.max_t - k + 1):
                    rows = sq_rows(k, t)
                    if any(rows):
                        h.update(repr(((k, t), (len(rows), self.dims[t]), tuple(rows))).encode())
            self._digest = h.hexdigest()
        return self._digest

    def __repr__(self) -> str:
        return f"GradedModule(max_t={self.max_t}, dims={self.dims})"


@dataclass
class ModuleMap:
    """A degreewise linear map; linearity over the algebra is an invariant.

    ``columns[t]`` is the column list of the map in degree t.
    """

    domain: GradedModule
    codomain: GradedModule
    columns: tuple[list[int], ...]

    def __post_init__(self):
        bound = self.max_t
        if len(self.columns) != bound + 1:
            raise ValueError("need one column list per degree 0..max_t")
        for t, cols in enumerate(self.columns):
            if len(cols) != self.domain.dim(t):
                raise ValueError(f"degree {t} has {len(cols)} columns, not {self.domain.dim(t)}")
            if any(c >> self.codomain.dim(t) for c in cols):
                raise ValueError(f"a column at degree {t} has a bit beyond the codomain")

    @property
    def max_t(self) -> int:
        return min(self.domain.max_t, self.codomain.max_t)

    def apply(self, t: int, v: int) -> int:
        return combine(self.columns[t], v)

    def check_linearity(self) -> None:
        """columns[t+k] o dom.action = cod.action o columns[t] for k = 1, 2, 4,
        8, ... and every t in range.  These Sq^k generate the algebra, so
        linearity over them is linearity over every Sq^k."""
        bound = self.max_t
        for k in (1 << i for i in range(bound.bit_length())):
            for t in range(0, bound - k + 1):
                lhs = compose(self.columns[t + k], self.domain.action(k, t))
                rhs = compose(self.codomain.action(k, t), self.columns[t])
                if lhs != rhs:
                    raise ExactnessError(f"map is not linear over Sq^{k} at degree {t}")


def trivial_module(algebra: AlgebraTable, max_t: int) -> GradedModule:
    """The module F2 in degree 0, with zero action."""
    return GradedModule(algebra, max_t, [1] + [0] * max_t, {})


class FreeIndexer:
    """Basis bookkeeping for a free module on an ordered generator list.

    The degree-t basis is (generator, admissible monomial of degree
    t - gen_degree) in generator-major order, monomials in the canonical
    algebra order.  The initial generators may come in any degree order;
    ``add_generator`` appends in non-decreasing degree, which resolutions
    and cache loads rely on.

    The offset of every generator in each degree is tabulated on first use:
    ``offsets[g]`` is where generator g's block starts (or would start),
    ``offsets[-1]`` the dimension.  A new generator's block comes last, so
    ``add_generator`` extends each degree in place.  Sq^k acts block by
    block through the algebra's ``sq_columns`` tables, shifted to the
    block's offset.
    """

    __slots__ = ("algebra", "gen_degrees", "_table")

    def __init__(self, algebra: AlgebraTable, gen_degrees: Sequence[int] = ()):
        self.algebra = algebra
        self.gen_degrees: list[int] = list(gen_degrees)
        self._table: dict[int, list[int]] = {}

    def add_generator(self, t: int) -> int:
        if self.gen_degrees and t < self.gen_degrees[-1]:
            raise ValueError("generators must be added in non-decreasing degree")
        for u, offsets in self._table.items():
            offsets.append(offsets[-1] + self.algebra.dim(u - t) if u >= t else offsets[-1])
        self.gen_degrees.append(t)
        return len(self.gen_degrees) - 1

    def _offsets(self, t: int) -> list[int]:
        """The offsets of degree t, from the table."""
        got = self._table.get(t)
        if got is None:
            dim = self.algebra.dim
            got = self._table[t] = [0]
            for d in self.gen_degrees:
                got.append(got[-1] + dim(t - d) if d <= t else got[-1])
        return got

    def dim(self, t: int) -> int:
        if t < 0:
            return 0
        return self._offsets(t)[-1]

    def offset(self, g: int, t: int) -> int:
        return self._offsets(t)[g]

    def blocks(self, t: int) -> list[tuple[int, int, int]]:
        """(generator, generator degree, offset) for each block in degree t."""
        offsets = self._offsets(t)
        return [(g, d, offsets[g]) for g, d in enumerate(self.gen_degrees) if d <= t]

    def map_columns(
        self, t: int, images: Sequence[int], apply_sq, memo: dict[int, list[int]]
    ) -> list[int]:
        """Degree-t columns of the module map sending generator g to images[g].

        ``images[g]`` is a vector in target coordinates, in the degree of
        generator g.  Only generators of degree at most t are read, so a
        resolution may append to the list as its sweep goes up in t.  The
        column of (g, Sq^a * tail) is Sq^a applied, by ``apply_sq(k, t,
        vec)`` in target coordinates, to the column of (g, tail): in degree
        t - a, at ``offsets[g]`` plus the tail index from ``AlgebraTable.heads``.
        ``memo`` holds the columns of each degree built so far.
        """
        cols = memo.get(t)
        if cols is None:
            cols = []
            for g, d, _ in self.blocks(t):
                if d == t:
                    cols.append(images[g])
                    continue
                k = 0
                for a, tail in self.algebra.heads(t - d):
                    if a != k:  # monomials come grouped by first exponent
                        k = a
                        below = self.map_columns(t - k, images, apply_sq, memo)
                        base = self._offsets(t - k)[g]
                    cols.append(apply_sq(k, t - k, below[base + tail]))
            memo[t] = cols
        return cols

    def action_columns(self, k: int, t: int) -> list[int]:
        """Columns of Sq^k from degree t to degree t + k."""
        sq_columns = self.algebra.sq_columns
        out_offsets = self._offsets(t + k)
        return [
            c << out_offsets[g] for g, d, _ in self.blocks(t) for c in sq_columns(k, t - d)
        ]

    def apply_sq(self, k: int, t: int, vec: int) -> int:
        """Sq^k on a degree-t vector, block by block down from its highest bit
        p, whose block is the last generator with offset at most p: an absent
        generator has the offset of the next one."""
        sq_columns, degrees = self.algebra.sq_columns, self.gen_degrees
        offsets, out_offsets = self._offsets(t), self._offsets(t + k)
        out = 0
        while vec:
            g = bisect_right(offsets, vec.bit_length() - 1) - 1
            off = offsets[g]
            block = vec >> off
            vec ^= block << off
            out |= combine(sq_columns(k, t - degrees[g]), block) << out_offsets[g]
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


def free_module(algebra: AlgebraTable, shifts: Sequence[int], max_t: int) -> GradedModule:
    """Free module on one generator per shift, in any order; basis
    (g, admissible monomial) as ordered by its ``free_basis``."""
    shifts = tuple(shifts)
    if any(s < 0 for s in shifts):
        raise ValueError("shifts must be non-negative")
    basis = FreeIndexer(algebra, shifts)
    return GradedModule(algebra, max_t, map(basis.dim, range(max_t + 1)), {}, free_basis=basis)


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
    memo: dict[int, list[int]] = {}
    mp = ModuleMap(dom, codomain, tuple(
        basis.map_columns(t, targets, codomain.apply_sq, memo)
        for t in range(bound + 1)
    ))
    mp.check_linearity()
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
            if f2rank(self.inclusion.columns[t]) != self.sub.dim(t):
                raise ExactnessError(f"inclusion not injective at degree {t}")
            if f2rank(self.projection.columns[t]) != self.quot.dim(t):
                raise ExactnessError(f"projection not surjective at degree {t}")
            if any(compose(self.projection.columns[t], self.inclusion.columns[t])):
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


def inclusion_map(mid: GradedModule, subs: Sequence[Subspace]) -> ModuleMap:
    """Inclusion into ``mid`` of the submodule whose degree-t part is
    ``subs[t]``, on the window 0..len(subs) - 1.

    Precondition: the subspaces are closed under every Sq^k of ``mid``.  A
    vector of a reduced-echelon subspace has its coordinates at the pivots,
    so the induced Sq^k is read through the selection columns ``sel[p_i] =
    e_i``, with no membership test.  Under the precondition that read is
    exact and the inclusion is linear.  Closure under the generating squares
    gives closure under every Sq^k in the window, as each Sq^k is a sum of
    products of them; the caller checks it, as :func:`factor_map` does
    through the projection whose kernel the subspaces are.
    """
    rows = tuple(list(s.rows) for s in subs)
    sels = []
    for t, sub in enumerate(subs):
        sel = [0] * mid.dim(t)
        for i, p in enumerate(sub.pivots):
            sel[p] = 1 << i
        sels.append(sel)
    sub = GradedModule(mid.algebra, len(subs) - 1, map(len, rows), {}, through=(mid, rows, sels))
    return ModuleMap(sub, mid, rows)


def quotient_map(mid: GradedModule, subs: Sequence[Subspace]) -> ModuleMap:
    """Projection of ``mid`` onto its quotient by the submodule whose
    degree-t part is ``subs[t]``, on the window 0..len(subs) - 1.

    The quotient's basis is the canonical complement of ``quotient_section``:
    the basis vectors of ``mid`` at no pivot, in order, which are also the
    columns up into ``mid``.  Callers check that the subspaces are a submodule.
    """
    projs, frees = zip(*(quotient_section(mid.dim(t), sub) for t, sub in enumerate(subs)))
    ups = [[1 << j for j in free] for free in frees]
    quot = GradedModule(mid.algebra, len(subs) - 1, map(len, ups), {}, through=(mid, ups, projs))
    return ModuleMap(mid, quot, projs)


def factor_map(f: ModuleMap) -> FactoredMap:
    """Degreewise kernel, image and cokernel of f, with induced actions.

    Both short exact sequences are checked degree by degree, and the two
    projections p_I and p_C for linearity over the generating squares
    (:meth:`ModuleMap.check_linearity`).  That certifies the inclusions as
    well: ker p_I = K and ker p_C = I, so a linear projection makes its
    kernel closed under each Sq^(2^i), hence a submodule, on which
    :func:`inclusion_map`'s pivot read is exact and i_K and i_I are linear.
    """
    dom, cod = f.domain, f.codomain
    bound = f.max_t
    kers, imgs = [], []
    for t in range(bound + 1):
        image, kernel = image_and_kernel(f.columns[t], cod.dim(t))
        kers.append(reduced(kernel, dom.dim(t)))
        imgs.append(image.subspace(cod.dim(t)))
    i_K = inclusion_map(dom, kers)
    i_I = inclusion_map(cod, imgs)
    p_C = quotient_map(cod, imgs)
    p_I_cols = tuple([imgs[t].coordinates(c) for c in f.columns[t]] for t in range(bound + 1))
    for t, cols in enumerate(p_I_cols):
        if None in cols:
            raise ExactnessError(f"a column of the map leaves its image at degree {t}")
    p_I = ModuleMap(dom, i_I.domain, p_I_cols)
    fac = FactoredMap(f, i_K.domain, i_I.domain, p_C.codomain, i_K, p_I, i_I, p_C)
    fac.kernel_sequence().check_exact()
    fac.cokernel_sequence().check_exact()
    for mp in (p_I, p_C):
        mp.check_linearity()
    return fac


def sq1_quotient(algebra: AlgebraTable, max_t: int) -> ModuleMap:
    """The projection A -> A//A(0) = A/A·Sq^1.

    A·Sq^1 is spanned by the admissible monomials that end in Sq^1: for an
    admissible a, a·Sq^1 is 0 if a ends in Sq^1 and the admissible (*a, 1)
    otherwise.  So the quotient keeps the other admissible monomials, and
    its action is "multiply, then drop the terms that end in Sq^1".  Their
    coordinate span is already reduced: row ``1 << i`` has pivot i.  The
    table is stored, so that the modules built through A//A(0) sit one level
    above a table.  The linearity check guards that the span is a left ideal.
    """
    free = free_module(algebra, [0], max_t)
    subs = []
    for t in range(max_t + 1):
        ends = [i for i, mono in enumerate(algebra.basis(t)) if mono and mono[-1] == 1]
        subs.append(Subspace(free.dim(t), [1 << i for i in ends], tuple(ends)))
    p = quotient_map(free, subs)
    window = [(k, t) for k in range(1, max_t + 1) for t in range(max_t - k + 1)]
    actions = {key: p.codomain.action(*key) for key in window}
    p = ModuleMap(free, GradedModule(algebra, max_t, p.codomain.dims, actions), p.columns)
    p.check_linearity()
    return p
