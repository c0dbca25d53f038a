"""Minimal free resolution engine.

Sweeps bidegrees with t ascending and s ascending (Bruner-style).  At each
(s, t) one graph elimination of the old columns of d_s, those of the
generators of degree below t, yields their image and a kernel basis
(:func:`~extlab.f2core.image_and_kernel`).  The image lies in ker d_{s-1}
at t (M_t at s = 0), as d o d = 0 is checked on each generator as it is
added, so where their ranks agree the step adds nothing.  Elsewhere the
kernel kept from the step before is reduced (:func:`~extlab.f2core.reduced`)
and each basis vector's nonzero remainder against the image becomes a new
generator mapping onto it.  New columns span a canonical echelon complement
of the old ones, so ker d_s at t is the old columns' kernel, padded with
zeros in the new generators' coordinates, which come last.  Minimality
holds by construction: the generator count at (s, t) *is* dim Ext^{s,t}.

Charts report every (s, t) with s <= max_s, t <= max_t: a generator at
(s, t) depends only on data in internal degrees <= t.  Consumers that chase
boundary maps across the t = max_t column must subtract a one-column margin
(see lescalc / scenarios).

A resolution holds d of each generator as one vector, the remainder the
sweep found.  Resolutions serialize to a plain-text cache file (magic
``EXTLAB1``) keyed by module content hash, bounds, and format version; the
split of each vector into one ``d`` line per target generator lives only in
:func:`serialize_resolution` and :func:`load_resolution`.  Orderings are
canonical, so round-trips are byte-exact; a load serves only a canonical
file, and certifies it in one pass (:meth:`Resolution.verify`).  A fresh
build checks d o d on each new generator as the sweep finds it.
"""

from __future__ import annotations

import logging
import os
from dataclasses import dataclass, field
from bisect import bisect_left, bisect_right
from typing import Optional

from .f2core import EchelonAccumulator, combine, image_and_kernel, reduced
from .gradedmod import FreeIndexer, GradedModule

FORMAT_VERSION = 1
MAGIC = "EXTLAB1"

logger = logging.getLogger(__name__)


class CacheError(ValueError):
    """A resolution cache file that cannot be served; the message says why."""


@dataclass(frozen=True)
class ExtChart:
    """A bigraded table, dims[s][t] for s <= max_s, t <= max_t; 0 outside.

    For a resolution, dim Ext^{s,t}: its generator counts.  For a collapsed
    page, dim E_3^{s,t}, with ``labels`` naming its classes at (s, t).
    """

    max_s: int
    max_t: int
    dims: tuple[tuple[int, ...], ...]
    labels: dict[tuple[int, int], tuple[str, ...]] = field(default_factory=dict, hash=False)

    def dim(self, s: int, t: int) -> int:
        if 0 <= s <= self.max_s and 0 <= t <= self.max_t:
            return self.dims[s][t]
        return 0

    def shift_t(self, a: int) -> "ExtChart":
        """Chart of the suspension: entry (s, t) becomes (s, t + a)."""
        new_max = self.max_t + a
        dims = tuple(
            tuple(self.dim(s, t - a) for t in range(new_max + 1))
            for s in range(self.max_s + 1)
        )
        return ExtChart(self.max_s, new_max, dims)


class Resolution:
    """A minimal free resolution of a module up to (max_s, max_t).

    ``indexers[s].gen_degrees`` lists generator degrees of P_s in insertion
    order.  ``targets[s][g]`` is d(g_{s,g}) for g of degree t: a vector over
    the degree-t basis of P_{s-1}, or of the module when s = 0.

    Completed resolutions are never mutated, but their column memo may be
    dropped (:meth:`forget_columns`).  The memo fills lazily, per degree,
    with deterministic values, so concurrent readers can at worst recompute
    an entry, never observe a wrong one.  Only the cache functions read the
    module's digest: a build without a cache never hashes.
    """

    def __init__(self, module: GradedModule, max_s: int, max_t: int):
        if max_t < 0:
            raise ValueError("max_t must be non-negative")
        if max_s < 0:
            raise ValueError("max_s must be non-negative")
        if module.max_t < max_t:
            raise ValueError("module window too small for requested max_t")
        self.module = module
        self.max_s = max_s
        self.max_t = max_t
        self.indexers = [FreeIndexer(module.algebra) for _ in range(max_s + 1)]
        self.targets: list[list[int]] = [[] for _ in range(max_s + 1)]
        self._cols: list[dict[int, list[int]]] = [{} for _ in range(max_s + 1)]

    # -- structure queries ---------------------------------------------------

    def gens(self, s: int, t: int) -> range:
        """The generators of P_s in degree t: ``add_generator`` keeps the
        degrees non-decreasing, so they are one run of indices."""
        degrees = self.indexers[s].gen_degrees
        return range(bisect_left(degrees, t), bisect_right(degrees, t))

    def ambient_dim(self, s: int, t: int) -> int:
        """Dimension of the target of d_s in degree t (module coords for s=0)."""
        return self.module.dim(t) if s == 0 else self.indexers[s - 1].dim(t)

    def diff_columns(self, s: int, t: int) -> list[int]:
        """Columns of d_s at degree t over the (generator, monomial) basis."""
        apply_sq = self.module.apply_sq if s == 0 else self.indexers[s - 1].apply_sq
        return self.indexers[s].map_columns(t, self.targets[s], apply_sq, self._cols[s])

    def forget_columns(self) -> None:
        """Drop the memoised columns of every d_s.  A later read rebuilds
        them: the same values, at the cost of recomputing them."""
        for cols in self._cols:
            cols.clear()

    # -- verification ----------------------------------------------------------

    def verify(self) -> None:
        """Certify a minimal resolution of the module in its window, in one pass.

        The pass walks (t, s) in the sweep's order and reads the columns of
        d_s at t once.  An accumulator takes the older generators' columns;
        then each new generator's column must have no unit coefficient on a
        degree-t generator of P_{s-1} (minimality), vanish under the columns
        of d_{s-1} read by the step before (d o d = 0, an A-linear map out of
        a free module, so zero once zero on generators), and raise the rank
        (none is redundant).  Then rank(d_0)_t = dim M_t and rank(d_s)_t +
        rank(d_{s+1})_t = dim(P_s)_t for s < max_s: with d o d = 0 the image
        of d_{s+1} lies in the kernel of d_s, and the rank sum makes the two
        equal.  A resolution that passes is a minimal resolution of the
        module in its window, unique up to isomorphism, so its generator
        counts are Ext.
        """
        for t in range(self.max_t + 1):
            need = self.module.dim(t)  # the rank d_s must reach
            prev: list[int] = []  # columns of d_{s-1} at t
            for s in range(self.max_s + 1):
                new = self.gens(s, t)
                cols = self.diff_columns(s, t)  # the new generators' columns come last
                old = len(cols) - len(new)
                acc = EchelonAccumulator()
                for c in cols[:old]:
                    acc.add(c)
                below = self.indexers[s - 1] if s else None
                units = [(j, below.offset(j, t)) for j in self.gens(s - 1, t)] if s else []
                for g, c in zip(new, cols[old:]):
                    for j, p in units:
                        if c >> p & 1:
                            raise AssertionError(
                                f"unit coefficient on generator {j} in d of generator {g}"
                                f" at (s={s}, t={t})"
                            )
                    if s and combine(prev, c):
                        raise AssertionError(f"d o d != 0 on generator {g} at (s={s}, t={t})")
                    if not acc.add(c):
                        raise AssertionError(
                            f"generator {g} at (s={s}, t={t}) is redundant: "
                            "its image lies in the span of the older columns"
                        )
                if acc.rank != need:
                    raise AssertionError(
                        f"exactness fails at (s={s}, t={t}): d_{s} has rank {acc.rank}, "
                        f"exactness needs {need}"
                    )
                need = len(cols) - acc.rank
                prev = cols

    def chart(self) -> ExtChart:
        dims = tuple(
            tuple(len(self.gens(s, t)) for t in range(self.max_t + 1))
            for s in range(self.max_s + 1)
        )
        return ExtChart(self.max_s, self.max_t, dims)


def minimal_resolution(module: GradedModule, max_s: int, max_t: int) -> Resolution:
    """Resolve ``module`` minimally up to homological degree max_s, internal
    degree max_t."""
    res = Resolution(module, max_s, max_t)
    for t in range(max_t + 1):
        kernel = [1 << j for j in range(module.dim(t))]  # M_t, then ker d_{s-1} at t
        prev: list[int] = []  # columns of d_{s-1} at t
        for s in range(max_s + 1):
            cols = res.diff_columns(s, t)  # the memo's list, over old generators only
            rows = res.ambient_dim(s, t)
            image, next_kernel = image_and_kernel(cols, rows)
            if image.rank < len(kernel):  # the image falls short of ker d_{s-1}
                candidates = reduced(kernel, rows).rows if s else kernel
                for v in candidates:
                    r = image.add(v)
                    if r == 0:
                        continue
                    g = res.indexers[s].add_generator(t)
                    if s and combine(prev, r):
                        raise AssertionError(f"d o d != 0 on generator {g} at (s={s}, t={t})")
                    res.targets[s].append(r)
                    cols.append(r)  # extends the memo with the new generator's column
            kernel = next_kernel
            prev = cols
    return res


# -- persistence ----------------------------------------------------------------


def serialize_resolution(res: Resolution) -> str:
    out = [MAGIC]
    out.append(f"version {FORMAT_VERSION}")
    out.append(f"module {res.module.digest()}")
    out.append(f"max_s {res.max_s}")
    out.append(f"max_t {res.max_t}")
    out.extend(f"gens {s} {t} {n}" for s, row in enumerate(res.chart().dims)
               for t, n in enumerate(row) if n)
    out.append("end_header")
    for s in range(res.max_s + 1):
        for g, t in enumerate(res.indexers[s].gen_degrees):
            out.append(f"gen {s} {g} {t}")
            if s == 0:
                out.append(f"aug {res.targets[0][g]:x}")
            else:
                for j, elem in res.indexers[s - 1].element_of(res.targets[s][g], t).items():
                    out.append(f"d {j} {elem.degree} {elem.coords:x}")
    out.append("end")
    return "\n".join(out) + "\n"


def save_resolution(res: Resolution, path: str) -> None:
    """Write atomically (temp file + rename); output is byte-deterministic."""
    import tempfile  # here, not at the top: warm runs write nothing
    dirname = os.path.dirname(os.path.abspath(path))
    os.makedirs(dirname, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=dirname, prefix=".extlab-tmp-")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(serialize_resolution(res))
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def load_resolution(path: str, module: GradedModule, max_s: int, max_t: int) -> Resolution:
    """Load and validate a cached resolution of ``module`` in the window
    (max_s, max_t).

    Checks that the file is ASCII, its magic bytes, format version, module
    content hash and window: all before a :class:`Resolution` is built, so
    the numbers in a header never set the cost of a load.  Then checks that every generator,
    augmentation and differential line lies in range (the ``d`` lines of a
    generator name strictly increasing targets), certifies the resolution
    in one pass (:meth:`Resolution.verify`: minimality, d o d = 0, and
    exactness with no redundant generator by ranks), and last that the file
    is the canonical serialization of what it holds, so a repeated line, a
    wrong ``gens`` table or a padded number is caught; any failure is a
    :class:`CacheError`.  A file that passes is a minimal resolution of
    ``module`` in its window, written in canonical form.
    """
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise CacheError(f"cannot read {path}: {exc}") from exc
    try:
        text = data.decode("ascii")
        lines = text.splitlines()
        if not lines or lines[0] != MAGIC:
            raise CacheError("missing EXTLAB1 magic")
        if not text.endswith("end\n"):
            raise CacheError("truncated file: missing end marker")
        header: dict[str, str] = {}
        idx = 1
        while lines[idx] != "end_header":  # the gens table is checked as text, below
            keyword, _, rest = lines[idx].partition(" ")
            header[keyword] = rest
            idx += 1
        version = int(header["version"])
        if version != FORMAT_VERSION:
            raise CacheError(f"cache format {version}, expected {FORMAT_VERSION}")
        if header["module"] != module.digest():
            raise CacheError(
                "cache was built from a different module "
                f"({header['module'][:12]}.. != {module.digest()[:12]}..)"
            )
        held = (int(header["max_s"]), int(header["max_t"]))
        if held != (max_s, max_t):
            raise CacheError(
                f"it holds the window (s={held[0]}, t={held[1]}), "
                f"not the requested (s={max_s}, t={max_t})"
            )
        res = Resolution(module, max_s, max_t)
        idx += 1
        cur: Optional[tuple[int, int, int]] = None
        for line in lines[idx:]:
            if line == "end":
                break
            parts = line.split()
            if parts[0] == "gen":
                s, g, t = int(parts[1]), int(parts[2]), int(parts[3])
                if not (0 <= s <= max_s and 0 <= t <= max_t):
                    raise CacheError(f"generator {g} at (s={s}, t={t}) outside the window")
                if res.indexers[s].add_generator(t) != g:
                    raise CacheError("generator indices out of order")
                res.targets[s].append(0)
                cur = (s, g, t)
                last_j = -1  # d lines name strictly increasing generators
            elif parts[0] == "aug":
                s, g, t = cur
                vec = int(parts[1], 16)
                if s != 0 or vec >> module.dim(t):
                    raise CacheError(f"aug line of g_{s},{g} out of range")
                res.targets[0][g] = vec
            elif parts[0] == "d":
                s, g, t = cur
                j, deg, coords = int(parts[1]), int(parts[2]), int(parts[3], 16)
                below = res.indexers[s - 1].gen_degrees if s else []
                if not (
                    last_j < j < len(below) and deg == t - below[j] >= 0
                    and not coords >> module.algebra.dim(deg)
                ):
                    raise CacheError(f"d line of g_{s},{g} out of range: {line!r}")
                # appending a generator never moves an earlier one's offset
                res.targets[s][g] |= coords << res.indexers[s - 1].offset(j, t)
                last_j = j
            else:
                raise CacheError(f"unexpected line {line!r}")
        res.verify()
        if serialize_resolution(res) != text:
            raise CacheError("not the canonical serialization of the resolution it holds")
    except CacheError:
        raise
    except AssertionError as exc:
        raise CacheError(f"invariant fails: {exc}") from exc
    except (KeyError, ValueError, IndexError, TypeError) as exc:
        raise CacheError(f"malformed cache file: {exc}") from exc
    return res


def cache_path(cache_dir: str, module: GradedModule, max_s: int, max_t: int) -> str:
    name = f"{module.digest()[:24]}_s{max_s}_t{max_t}_v{FORMAT_VERSION}.extres"
    return os.path.join(cache_dir, name)


def cached_resolution(
    module: GradedModule, max_s: int, max_t: int, cache_dir: Optional[str]
) -> Resolution:
    """Resolve through the cache: load on hit, compute and store on miss.
    With ``cache_dir`` None, only compute.

    A hit and a miss are logged at INFO, naming the file.  A cache file that
    fails to load, or holds another window than the one requested, is logged
    as a warning, then recomputed and overwritten.
    """
    if cache_dir is None:
        return minimal_resolution(module, max_s, max_t)
    path = cache_path(cache_dir, module, max_s, max_t)
    if os.path.exists(path):
        try:
            res = load_resolution(path, module, max_s, max_t)
            logger.info("cache hit %s", path)
            return res
        except CacheError as exc:
            logger.warning("cache file %s is unusable (%s); recomputing it", path, exc)
    else:
        logger.info("cache miss %s; resolving", path)
    res = minimal_resolution(module, max_s, max_t)
    save_resolution(res, path)
    return res
