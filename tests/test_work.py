"""Exact work counts, each for a named state.

Wall time on a shared host moves more than the effects these stages are
tuned for; the counts do not depend on the machine.  A change that moves a
count updates its pin and says why: an unexplained rise is a work
regression on any host.
"""

import hashlib

import pytest

import extlab.gradedmod
import extlab.resolve
from extlab.f2core import image_and_kernel, reduced
from extlab.gradedmod import FreeIndexer, factor_map, trivial_module
from extlab.lescalc import horseshoe_lift
from extlab.resolve import cached_resolution, minimal_resolution
from extlab.scenarios import ScenarioSpec, scenario_map
from extlab.steenrod import AlgebraTable


@pytest.fixture
def apply_sq_calls(monkeypatch):
    """A one-element list counting ``FreeIndexer.apply_sq`` calls."""
    count = [0]
    original = FreeIndexer.apply_sq

    def counted(self, k, t, vec):
        count[0] += 1
        return original(self, k, t, vec)

    monkeypatch.setattr(FreeIndexer, "apply_sq", counted)
    return count


def test_digest_bytes_of_scenario_f_14_38(monkeypatch):
    """Bytes and ``update`` calls each digest hashes for K, I and C of
    scenario f at (14, 38): the header, then one update per nonzero Sq^k."""
    counts = []

    class Counted:
        def __init__(self):
            self.hash, self.bytes, self.updates = hashlib.sha256(), 0, 0
            counts.append(self)

        def update(self, data):
            self.bytes += len(data)
            self.updates += 1
            self.hash.update(data)

        def hexdigest(self):
            return self.hash.hexdigest()

    monkeypatch.setattr(extlab.gradedmod, "sha256", Counted)
    fac = factor_map(scenario_map(ScenarioSpec("f", 14, 38)))
    for mod in (fac.K, fac.I, fac.C):
        mod.digest()
    assert [(c.bytes, c.updates) for c in counts] == [(700_849, 596), (55_744, 656), (130, 2)]


def test_cold_resolve_of_f2_18_46(monkeypatch, apply_sq_calls):
    """A cold resolve of F2 at (18, 46): one elimination per bidegree, a
    kernel reduction only where a generator appears, and the Sq^k that
    building the columns of every d_s applies on P_{s-1}."""
    calls = {"image_and_kernel": 0, "reduced": 0}

    def counted(name, function):
        def wrapper(*args):
            calls[name] += 1
            return function(*args)
        return wrapper

    monkeypatch.setattr(extlab.resolve, "image_and_kernel", counted("image_and_kernel", image_and_kernel))
    monkeypatch.setattr(extlab.resolve, "reduced", counted("reduced", reduced))
    minimal_resolution(trivial_module(AlgebraTable(46), 46), 18, 46)
    assert calls == {"image_and_kernel": 893, "reduced": 188}
    assert apply_sq_calls[0] == 42_886


def test_both_lifts_of_a_warm_scenario_f_14_38(tmp_path, apply_sq_calls):
    """``FreeIndexer.apply_sq`` calls over both lifts of scenario f at
    (14, 38) on a filled cache.  In ``build_scenario``'s order, each lift
    finds its sub resolution's columns built by the load that certified it;
    with every memo dropped first, the lifts rebuild them."""
    spec = ScenarioSpec("f", 14, 38)
    fac = factor_map(scenario_map(spec))
    for mod in (fac.C, fac.I, fac.K):
        cached_resolution(mod, 14, 38, str(tmp_path))

    def lift_calls(sequence, res_sub, res_quot):
        before = apply_sq_calls[0]
        horseshoe_lift(sequence, res_sub, res_quot)
        return apply_sq_calls[0] - before

    res_c = cached_resolution(fac.C, 14, 38, str(tmp_path))
    res_c.forget_columns()
    res_i = cached_resolution(fac.I, 14, 38, str(tmp_path))
    in_order = lift_calls(fac.cokernel_sequence(), res_i, res_c)
    res_i.forget_columns()
    res_k = cached_resolution(fac.K, 14, 38, str(tmp_path))
    in_order += lift_calls(fac.kernel_sequence(), res_k, res_i)
    assert in_order == 3_423

    dropped = 0
    for sequence, res_sub, res_quot in [(fac.cokernel_sequence(), res_i, res_c),
                                        (fac.kernel_sequence(), res_k, res_i)]:
        for res in (res_c, res_i, res_k):
            res.forget_columns()
        dropped += lift_calls(sequence, res_sub, res_quot)
    assert dropped == 18_245
