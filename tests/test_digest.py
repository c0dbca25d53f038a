"""``GradedModule.digest`` reads the rows of each Sq^k off the algebra's
tables and the column lists a module was built from.  Its bytes must stay
those of the definition, which builds each column table with ``action`` and
transposes it (``f2ref.reference_digest``): the digest names cache files,
so one changed byte would turn every cached resolution into a miss."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from extlab.f2core import reduced
from extlab.gradedmod import (
    GradedModule,
    factor_map,
    free_module,
    inclusion_map,
    quotient_map,
    sq1_quotient,
    trivial_module,
)
from extlab.scenarios import ScenarioSpec, scenario_map
from extlab.steenrod import AlgebraTable
from f2ref import reference_digest

MAX_T = 10
ALG = AlgebraTable(MAX_T)


@st.composite
def free_modules(draw):
    """Free modules on shifts in any order, repeated, or past the window,
    so that some degrees are empty."""
    max_t = draw(st.integers(0, MAX_T))
    shifts = draw(st.lists(st.integers(0, max_t + 2), max_size=5))
    return free_module(ALG, shifts, max_t)


@st.composite
def stored_modules(draw):
    """Random tables, which need not satisfy the Adem relations, with some
    keys absent and some tables zero."""
    max_t = draw(st.integers(0, 6))
    dims = draw(st.lists(st.integers(0, 4), min_size=max_t + 1, max_size=max_t + 1))
    actions = {}
    for k in range(1, max_t + 1):
        for t in range(max_t - k + 1):
            if draw(st.booleans()):
                cells = st.integers(0, (1 << dims[t + k]) - 1)
                actions[k, t] = draw(st.lists(cells, min_size=dims[t], max_size=dims[t]))
    return GradedModule(ALG, max_t, dims, actions)


@st.composite
def through_modules(draw, mids):
    """The submodule or quotient of a drawn module by random subspaces, on a
    window up to the middle module's; the subspaces need not be closed."""
    mid = draw(mids)
    window = draw(st.integers(0, mid.max_t))
    subs = [reduced(draw(st.lists(st.integers(0, (1 << mid.dim(t)) - 1), max_size=4)), mid.dim(t))
            for t in range(window + 1)]
    if draw(st.booleans()):
        return inclusion_map(mid, subs).domain
    return quotient_map(mid, subs).codomain


MODULES = st.one_of(
    free_modules(),
    stored_modules(),
    through_modules(free_modules()),
    through_modules(stored_modules()),
    through_modules(through_modules(free_modules())),
)


@given(MODULES)
@settings(max_examples=300, deadline=None)
def test_digest_is_the_reference(mod):
    assert mod.digest() == reference_digest(mod)


def test_the_trivial_module_and_a_mod_sq1():
    for mod in (trivial_module(ALG, MAX_T), sq1_quotient(ALG, MAX_T).codomain):
        assert mod.digest() == reference_digest(mod)


@pytest.mark.parametrize("kind, n", [("fn", 4), ("fnz", 4), ("f", None), ("f-conj", None)])
def test_factored_modules_digest_as_the_reference(kind, n):
    fac = factor_map(scenario_map(ScenarioSpec(kind, 4, 16, n), AlgebraTable(16)))
    for mod in (fac.K, fac.I, fac.C):
        assert mod.digest() == reference_digest(mod)
