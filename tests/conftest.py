import itertools

import pytest

from extlab import lescalc


@pytest.fixture
def flip_solve(monkeypatch):
    """``flip_solve(res_quot, s, h, bit, after=0)`` lets ``after`` solves
    through, then makes the next horseshoe lift onto ``res_quot`` solve
    tau_s(h) (sigma(h) = tau_0(h) for s = 0) with bit ``bit`` of the answer
    flipped; calling it again restarts the count.  Only the ``Solver`` that
    :mod:`extlab.lescalc` names is replaced, so the solves of ``factor_map``
    are not counted.  The lift solves once per generator of P(quot): tau_0's
    first, then tau_1's, and so on, each level in generator order.  To
    tamper the second of two lifts, pass the first's solve count, its quot's
    generator count, as ``after``."""
    solver = lescalc.Solver

    def install(res_quot, s: int, h: int, bit: int, after: int = 0) -> None:
        call = after + sum(len(res_quot.indexers[r].gen_degrees) for r in range(s)) + h
        calls = itertools.count()

        class Tampered(solver):
            def solve(self, b):
                x = super().solve(b)
                return x ^ (1 << bit) if next(calls) == call and x is not None else x

        monkeypatch.setattr(lescalc, "Solver", Tampered)

    return install
