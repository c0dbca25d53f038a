import copy
import hashlib
import random

import pytest

from extlab.f2core import combine, compose, rank
from extlab.gradedmod import (
    GradedModule,
    ModuleMap,
    ShortExactSequence,
    factor_map,
    free_module,
    map_from_generators,
    trivial_module,
)
from extlab.lescalc import (
    ChainLift,
    LiftError,
    compose_boundaries,
    connecting_map,
    horseshoe_lift,
    les_exactness_report,
)
from extlab.resolve import ExtChart, minimal_resolution
from extlab.scenarios import ScenarioSpec, build_scenario, scenario_map
from extlab.steenrod import AlgebraTable
from extlab.verify import free_chart
from f2ref import BitMatrix, solve

MAX_S, MAX_T = 6, 14


@pytest.fixture(scope="module")
def alg():
    return AlgebraTable(MAX_T)


@pytest.fixture(scope="module")
def fn_setup(alg):
    """The single-square factorization 0->K->Sigma^2 A->I->0, 0->I->A->C->0."""
    dom = free_module(alg, [2], MAX_T)
    cod = free_module(alg, [0], MAX_T)
    fac = factor_map(map_from_generators(dom, cod, [1 << alg.index((2,))]))
    res_k = minimal_resolution(fac.K, MAX_S, MAX_T)
    res_i = minimal_resolution(fac.I, MAX_S, MAX_T)
    res_c = minimal_resolution(fac.C, MAX_S, MAX_T)
    return fac, res_k, res_i, res_c


def _tau_columns(lift, s, t):
    """Columns of tau_s from (P_s quot)_t, built as the free module map
    sending each generator to its tau value (sigma's for s = 0)."""
    return lift.res_quot.indexers[s].map_columns(
        t, lift.tau[s] if s else lift.sigma, lift.tau_codomain(s).apply_sq, {}
    )


def _lifts(spec):
    """The scenario's K -> I and C -> I lifts, built without a cache."""
    fac = factor_map(scenario_map(spec, AlgebraTable(spec.max_t)))
    res = [minimal_resolution(m, spec.max_s, spec.max_t) for m in (fac.K, fac.I, fac.C)]
    return [
        horseshoe_lift(fac.kernel_sequence(), res[0], res[1]),
        horseshoe_lift(fac.cokernel_sequence(), res[1], res[2]),
    ]


def test_horseshoe_invariants(fn_setup):
    fac, res_k, res_i, res_c = fn_setup
    lift = horseshoe_lift(fac.kernel_sequence(), res_k, res_i)
    lift.verify()
    lift2 = horseshoe_lift(fac.cokernel_sequence(), res_i, res_c)
    lift2.verify()


def test_degenerate_sub_zero(alg):
    # 0 -> 0 -> A -> A -> 0: tau is empty, sigma is the identity lift
    amod = free_module(alg, [0], MAX_T)
    ident = ModuleMap(amod, amod, tuple([1 << i for i in range(d)] for d in amod.dims))
    fac = factor_map(ident)
    res_zero = minimal_resolution(fac.K, MAX_S, MAX_T)
    res_i = minimal_resolution(fac.I, MAX_S, MAX_T)
    lift = horseshoe_lift(fac.kernel_sequence(), res_zero, res_i)
    lift.verify()
    bmap = connecting_map(lift)
    for s in range(MAX_S):
        for t in range(MAX_T + 1):
            assert not any(bmap.columns(s, t))


def test_degenerate_quot_zero(alg):
    # kernel sequence of the zero map A -> A: quotient side is zero
    amod = free_module(alg, [0], MAX_T)
    zero = ModuleMap(amod, amod, tuple([0] * d for d in amod.dims))
    fac = factor_map(zero)
    res_k = minimal_resolution(fac.K, MAX_S, MAX_T)
    res_i = minimal_resolution(fac.I, MAX_S, MAX_T)
    lift = horseshoe_lift(fac.kernel_sequence(), res_k, res_i)
    assert all(not taus for taus in lift.tau[1:])
    lift.verify()


def test_boundary_isos_for_free_middle(fn_setup):
    fac, res_k, res_i, res_c = fn_setup
    d_ik = connecting_map(horseshoe_lift(fac.kernel_sequence(), res_k, res_i))
    d_ci = connecting_map(horseshoe_lift(fac.cokernel_sequence(), res_i, res_c))
    for s in range(0, MAX_S):
        for t in range(0, MAX_T + 1):
            assert d_ik.is_iso(s, t), ("d_IK", s, t)
            assert d_ci.is_iso(s, t), ("d_CI", s, t)


def test_connecting_map_bidegree(fn_setup):
    fac, res_k, res_i, res_c = fn_setup
    d_ik = connecting_map(horseshoe_lift(fac.kernel_sequence(), res_k, res_i))
    for s in range(0, MAX_S):
        for t in range(0, MAX_T + 1):
            assert d_ik.shape(s, t) == (res_i.chart().dim(s + 1, t), res_k.chart().dim(s, t))


def test_composite_bidegree_and_iso(fn_setup):
    fac, res_k, res_i, res_c = fn_setup
    d_ik = connecting_map(horseshoe_lift(fac.kernel_sequence(), res_k, res_i))
    d_ci = connecting_map(horseshoe_lift(fac.cokernel_sequence(), res_i, res_c))
    beta = compose_boundaries(d_ik, d_ci)
    src = res_k.chart().shift_t(-1)
    tgt = res_c.chart()
    for s in range(0, beta.max_s + 1):
        for t in range(0, beta.max_t + 1):
            assert beta.shape(s, t) == (tgt.dim(s + 2, t + 1), src.dim(s, t))
            assert beta.is_iso(s, t), (s, t)


def test_composite_chart_mismatch(fn_setup):
    fac, res_k, res_i, res_c = fn_setup
    d_ik = connecting_map(horseshoe_lift(fac.kernel_sequence(), res_k, res_i))
    with pytest.raises(ValueError):
        compose_boundaries(d_ik, d_ik)  # Ext(I) chart != Ext(K) chart


def test_zero_factor_gives_zero_composite(fn_setup):
    fac, res_k, res_i, res_c = fn_setup
    d_ik = connecting_map(horseshoe_lift(fac.kernel_sequence(), res_k, res_i))
    d_ci = connecting_map(horseshoe_lift(fac.cokernel_sequence(), res_i, res_c))
    d_zero = type(d_ci)(d_ci.source_chart, d_ci.target_chart, d_ci.max_s, d_ci.max_t)
    beta = compose_boundaries(d_ik, d_zero)
    assert all(not any(beta.columns(s, t))
               for s in range(beta.max_s + 1) for t in range(beta.max_t + 1))


def test_les_rank_alternation(fn_setup):
    fac, res_k, res_i, res_c = fn_setup
    d_ik = connecting_map(horseshoe_lift(fac.kernel_sequence(), res_k, res_i))
    report = les_exactness_report(
        d_ik, res_k.chart(), free_chart([2], MAX_S, MAX_T), res_i.chart()
    )
    assert report.ok, report.violations()[:3]
    # without the middle chart only shapes are checked
    report = les_exactness_report(d_ik, res_k.chart(), None, res_i.chart())
    assert report.ok


def test_les_zero_sequence(alg):
    amod = free_module(alg, [0], MAX_T)
    zero = ModuleMap(amod, amod, tuple([0] * d for d in amod.dims))
    fac = factor_map(zero)
    res_k = minimal_resolution(fac.K, MAX_S, MAX_T)
    res_i = minimal_resolution(fac.I, MAX_S, MAX_T)
    d = connecting_map(horseshoe_lift(fac.kernel_sequence(), res_k, res_i))
    report = les_exactness_report(
        d, res_k.chart(), free_chart([0], MAX_S, MAX_T), res_i.chart()
    )
    assert report.ok


def test_les_detects_inconsistency(fn_setup):
    fac, res_k, res_i, res_c = fn_setup
    d_ik = connecting_map(horseshoe_lift(fac.kernel_sequence(), res_k, res_i))
    # lying about the middle chart must fail the alternation
    report = les_exactness_report(
        d_ik, res_k.chart(), free_chart([2, 3], MAX_S, MAX_T), res_i.chart()
    )
    assert not report.ok


@pytest.mark.parametrize("side, what", [("sub", "boundary cols"), ("quot", "boundary rows")])
def test_les_report_fails_a_chart_of_the_wrong_shape(fn_setup, side, what):
    fac, res_k, res_i, _ = fn_setup
    d_ik = connecting_map(horseshoe_lift(fac.kernel_sequence(), res_k, res_i))
    charts = {"sub": res_k.chart(), "quot": res_i.chart()}
    s, t = 2, 6
    dims = [list(row) for row in charts[side].dims]
    dims[s + (side == "quot")][t] += 1  # the quot chart is read at s + 1
    charts[side] = ExtChart(MAX_S, MAX_T, tuple(map(tuple, dims)))
    report = les_exactness_report(d_ik, charts["sub"], None, charts["quot"])
    assert [(c.what, c.s, c.t) for c in report.violations()] == [(what, s, t)]


def test_lift_requires_matching_resolutions(fn_setup, alg):
    fac, res_k, res_i, res_c = fn_setup
    with pytest.raises(ValueError):
        horseshoe_lift(fac.kernel_sequence(), res_i, res_i)
    other = minimal_resolution(fac.K, MAX_S - 1, MAX_T)
    with pytest.raises(ValueError):
        horseshoe_lift(fac.kernel_sequence(), other, res_i)


def test_lift_refuses_a_resolution_of_an_equal_but_distinct_module():
    # a second build of the same map gives modules of equal digest, but the
    # lift reads its sequence's own objects, so it takes only theirs
    spec = ScenarioSpec("f", 4, 10)
    fac, twin = (factor_map(scenario_map(spec)) for _ in range(2))
    assert (twin.K.digest(), twin.I.digest()) == (fac.K.digest(), fac.I.digest())
    res_k, res_i, twin_k, twin_i = (
        minimal_resolution(m, spec.max_s, spec.max_t) for m in (fac.K, fac.I, twin.K, twin.I)
    )
    horseshoe_lift(fac.kernel_sequence(), res_k, res_i).verify()
    with pytest.raises(ValueError, match="sub module"):
        horseshoe_lift(fac.kernel_sequence(), twin_k, res_i)
    with pytest.raises(ValueError, match="quot module"):
        horseshoe_lift(fac.kernel_sequence(), res_k, twin_i)


def test_lift_error_on_non_exact_sequence(alg):
    # fake sequence claiming A/0 = A with a zero 'projection' is not exact
    amod = free_module(alg, [0], 6)
    zero_mod = trivial_module(alg, 6)
    zero_map = ModuleMap(zero_mod, amod, tuple([0] * zero_mod.dim(t) for t in range(7)))
    proj = ModuleMap(amod, amod, tuple([0] * d for d in amod.dims))
    ses = ShortExactSequence(zero_mod, amod, amod, zero_map, proj)
    res_sub = minimal_resolution(zero_mod, 3, 6)
    res_quot = minimal_resolution(amod, 3, 6)
    with pytest.raises(LiftError):
        horseshoe_lift(ses, res_sub, res_quot)


SPECS_8_20 = pytest.mark.parametrize("spec", [
    ScenarioSpec("fn", 8, 20, n=2),
    ScenarioSpec("fnz", 8, 20, n=4),
    ScenarioSpec("f", 8, 20),
    ScenarioSpec("f-conj", 8, 20),
], ids=ScenarioSpec.describe)


@SPECS_8_20
def test_tau_1_is_the_two_step_solve(spec):
    """Solving tau_1 through e_0 = incl o aug in one step gives what solving
    through the inclusion, then through aug, gives with full Gauss-Jordan."""
    nonzero = 0
    for lift in _lifts(spec):
        ses, rs, rq = lift.ses, lift.res_sub, lift.res_quot
        two_step = []
        for h, t in enumerate(rq.indexers[1].gen_degrees):
            w = combine(_tau_columns(lift, 0, t), rq.targets[1][h])
            incl = BitMatrix.from_columns(ses.inclusion.columns[t], ses.mid.dim(t))
            aug = BitMatrix.from_columns(rs.diff_columns(0, t), rs.ambient_dim(0, t))
            two_step.append(solve(aug, solve(incl, w)))
        assert lift.tau[1] == two_step
        nonzero += sum(map(bool, two_step))
    assert nonzero >= 2


@SPECS_8_20
def test_apply_tau_is_the_columns(spec):
    """tau_s evaluated from its values on generators is, bit for bit, what
    the columns of tau_s give: on every basis vector of every (P_s quot)_t,
    and on one random vector per degree."""
    rng = random.Random(27)
    for lift in _lifts(spec):
        for s in range(lift.res_sub.max_s + 1):
            memo = {}
            for t in range(lift.res_sub.max_t + 1):
                cols = _tau_columns(lift, s, t)
                assert [lift.apply_tau(s, t, 1 << j, memo) for j in range(len(cols))] == cols
                v = rng.getrandbits(len(cols))
                assert lift.apply_tau(s, t, v, memo) == combine(cols, v), (s, t)


def test_lift_error_names_the_degree_where_sigma_d_1_leaves_e_0(fn_setup):
    # flip a bit of d_1(h) that the augmentation sees: then aug o d_1(h) != 0,
    # so sigma o d_1(h) is outside ker(projection) = im(e_0)
    fac, res_k, res_i, _ = fn_setup
    h, t, bit = next(
        (h, t, bit) for h, t in enumerate(res_i.indexers[1].gen_degrees)
        for bit, c in enumerate(res_i.diff_columns(0, t)) if c
    )
    bad = copy.copy(res_i)
    bad.targets = [list(level) for level in res_i.targets]
    bad.targets[1][h] ^= 1 << bit
    with pytest.raises(LiftError, match=rf"\(s=1, t={t}\) unsolvable"):
        horseshoe_lift(fac.kernel_sequence(), res_k, bad)


def _permuted_copy(module: GradedModule, seed: int) -> tuple[GradedModule, list[list[int]]]:
    """An isomorphic module with each degree's basis shuffled."""
    rng = random.Random(seed)
    perms = []
    inverses = []
    for t in range(module.max_t + 1):
        p = list(range(module.dim(t)))
        rng.shuffle(p)
        perms.append([1 << p[j] for j in range(len(p))])
        inverses.append([1 << p.index(i) for i in range(len(p))])
    actions = {}
    for k in range(1, module.max_t + 1):
        for t in range(0, module.max_t - k + 1):
            actions[(k, t)] = compose(perms[t + k], compose(module.action(k, t), inverses[t]))
    permuted = GradedModule(module.algebra, module.max_t, module.dims, actions)
    return permuted, perms


def test_naturality_under_basis_permutation(alg):
    """Re-coordinatizing the codomain must not change boundary ranks."""
    max_s, max_t = 5, 12
    dom = free_module(alg, [2], max_t)
    cod = free_module(alg, [0], max_t)
    f = map_from_generators(dom, cod, [1 << alg.index((2,))])
    fac = factor_map(f)
    d1 = connecting_map(
        horseshoe_lift(
            fac.kernel_sequence(),
            minimal_resolution(fac.K, max_s, max_t),
            minimal_resolution(fac.I, max_s, max_t),
        )
    )

    cod_p, perms = _permuted_copy(cod, seed=99)
    f_p = ModuleMap(dom, cod_p, tuple(compose(perms[t], f.columns[t]) for t in range(max_t + 1)))
    f_p.check_linearity(ks=[1, 2])
    fac_p = factor_map(f_p)
    d2 = connecting_map(
        horseshoe_lift(
            fac_p.kernel_sequence(),
            minimal_resolution(fac_p.K, max_s, max_t),
            minimal_resolution(fac_p.I, max_s, max_t),
        )
    )
    for s in range(0, max_s):
        for t in range(0, max_t + 1):
            assert d1.rank(s, t) == d2.rank(s, t), (s, t)
            assert d1.shape(s, t) == d2.shape(s, t)


def _horseshoe_by_row_matrices(lift, s, t):
    """d^Q assembled from row matrices and per-column extraction."""
    rs, rq = lift.res_sub, lift.res_quot
    rows_sub = rs.indexers[s - 1].dim(t)
    tau_m = BitMatrix.from_columns(_tau_columns(lift, s, t), rows_sub)
    dq = BitMatrix.from_columns(rq.diff_columns(s, t), rq.ambient_dim(s, t))
    cols = list(rs.diff_columns(s, t))
    for tau_j, dq_j in zip(tau_m.columns(), dq.columns(), strict=True):
        cols.append(tau_j | (dq_j << rows_sub))
    return BitMatrix.from_columns(cols, rows_sub + rq.indexers[s - 1].dim(t))


def _block_check(lift):
    """eps o d^Q_1 = 0 and d^Q o d^Q = 0 from row matrices: the horseshoe
    block check that the lift makes as one tau recurrence per generator."""
    ses, rs = lift.ses, lift.res_sub
    for t in range(rs.max_t + 1):
        incl_aug = BitMatrix.from_columns(ses.inclusion.columns[t], ses.mid.dim(t)) @ (
            BitMatrix.from_columns(rs.diff_columns(0, t), rs.ambient_dim(0, t)))
        prev = BitMatrix.from_columns(incl_aug.columns() + _tau_columns(lift, 0, t), ses.mid.dim(t))
        for s in range(1, rs.max_s + 1):
            cur = _horseshoe_by_row_matrices(lift, s, t)
            if any((prev @ cur).data):
                raise AssertionError(f"d^Q o d^Q != 0 at (s={s}, t={t})")
            prev = cur


def _raises(check) -> bool:
    try:
        check()
    except AssertionError:
        return True
    return False


def _with_tau_bit_flipped(lift, s, h, bit):
    bad = ChainLift(lift.ses, lift.res_sub, lift.res_quot)
    bad.sigma = list(lift.sigma)
    bad.tau = [list(level) for level in lift.tau]
    (bad.tau[s] if s else bad.sigma)[h] ^= 1 << bit
    return bad


def test_verify_agrees_with_horseshoe_block_check(alg, flip_solve):
    """A bit flipped in the solve of tau_s(h) stops the lift exactly when it
    breaks recurrence s, which is when the block check fails on the flipped
    tau; a flip the recurrence cannot see leaves a lift that passes it."""
    fac = factor_map(scenario_map(ScenarioSpec("f", MAX_S, MAX_T), alg))
    res = [minimal_resolution(m, MAX_S, MAX_T) for m in (fac.K, fac.I, fac.C)]
    sequences = [
        (fac.kernel_sequence(), res[0], res[1]),
        (fac.cokernel_sequence(), res[1], res[2]),
    ]
    lifts = [horseshoe_lift(*seq) for seq in sequences]
    for (ses, res_sub, res_quot), lift in zip(sequences, lifts, strict=True):
        lift.verify()
        _block_check(lift)
        for s in range(1, 4):
            flipped = 0
            for h, th in enumerate(res_quot.indexers[s].gen_degrees):
                # e_{s-1}, the map that tau_s(h) is pushed through by its recurrence
                for bit, c in enumerate(lift.e_columns(s - 1, th)):
                    flip_solve(res_quot, s, h, bit)
                    try:
                        tampered = horseshoe_lift(ses, res_sub, res_quot)
                    except AssertionError as exc:
                        assert c, (s, h, bit)
                        assert f"generator {h} at (s={s}, t={th})" in str(exc)
                        assert _raises(lambda: _block_check(_with_tau_bit_flipped(lift, s, h, bit)))
                        flipped += 1
                    else:
                        assert not c, (s, h, bit)
                        assert tampered.tau[s][h] == lift.tau[s][h] ^ 1 << bit
                        _block_check(tampered)
                if flipped >= 2:
                    break
            assert flipped >= 2, s


def test_a_lift_holds_no_columns():
    # sigma and each tau_s as one value per generator of P_s(quot), and nothing else
    for lift in _lifts(ScenarioSpec("f", 8, 18)):
        assert set(vars(lift)) == {"ses", "res_sub", "res_quot", "sigma", "tau"}
        gens = [len(ix.gen_degrees) for ix in lift.res_quot.indexers]
        assert [len(lift.sigma)] + [len(level) for level in lift.tau[1:]] == gens
        assert all(type(v) is int for level in [lift.sigma, *lift.tau] for v in level)
        lift.verify()
        assert set(vars(lift)) == {"ses", "res_sub", "res_quot", "sigma", "tau"}


def _surjective(lift) -> bool:
    """The pass the sigma check replaced: eps = [e_0 | sigma] is onto mid,
    by rank, in every degree."""
    return all(
        rank(lift.e_columns(0, t) + _tau_columns(lift, 0, t)) == lift.ses.mid.dim(t)
        for t in range(lift.res_sub.max_t + 1)
    )


def test_the_sigma_check_agrees_with_the_surjectivity_pass(flip_solve):
    """A bit flipped in the solve of sigma(h) stops the lift, naming h and
    its degree, exactly when it changes proj o sigma; a flip inside ker proj
    leaves a lift whose [e_0 | sigma] is still onto mid.  So no flip passes
    the sigma check and fails the surjectivity pass; some that it stops
    leave eps onto mid, as the check is the stronger of the two."""
    caught = kept = both = 0
    for lift in _lifts(ScenarioSpec("f", 8, 18)) + _lifts(ScenarioSpec("fn", 8, 18, n=2)):
        ses, res_sub, res_quot = lift.ses, lift.res_sub, lift.res_quot
        assert _surjective(lift)
        proj = ses.projection.columns
        for h, t in enumerate(res_quot.indexers[0].gen_degrees):
            for bit in range(ses.mid.dim(t)):
                flip_solve(res_quot, 0, h, bit)
                try:
                    tampered = horseshoe_lift(ses, res_sub, res_quot)
                except AssertionError as exc:
                    assert proj[t][bit], (h, bit)
                    assert f"generator {h} at degree {t}" in str(exc)
                    both += not _surjective(_with_tau_bit_flipped(lift, 0, h, bit))
                    caught += 1
                else:
                    assert not proj[t][bit], (h, bit)
                    assert tampered.sigma[h] == lift.sigma[h] ^ 1 << bit
                    assert _surjective(tampered), (h, bit)
                    kept += 1
    assert caught and kept and both, (caught, kept, both)


def test_verify_names_a_broken_base_or_tau_1(fn_setup, flip_solve):
    fac, res_k, res_i, _ = fn_setup
    ses = fac.kernel_sequence()
    lift = horseshoe_lift(ses, res_k, res_i)
    bad = ChainLift(ses, res_k, res_i)
    bad.sigma, bad.tau = [0] * len(lift.sigma), lift.tau
    # I, the quot, is generated by the image of Sigma^2 A's generator, in degree 2
    with pytest.raises(AssertionError, match="proj o sigma != aug on generator 0 at degree 2"):
        bad.verify()
    # tau_1 is checked by the lift itself, on the generator it has just solved
    h, t = next(
        (h, t) for h, t in enumerate(res_i.indexers[1].gen_degrees)
        if compose(ses.inclusion.columns[t], res_k.diff_columns(0, t))[0]
    )
    flip_solve(res_i, 1, h, 0)
    with pytest.raises(AssertionError, match=rf"generator {h} at \(s=1, t={t}\)"):
        horseshoe_lift(ses, res_k, res_i)


# sha256 of repr(sorted(cols.items())) of d_IK and d_CI of scenario f at
# (10, 26). Every consumer reads only ranks, and d_IK is an isomorphism for
# s >= 1 (the middle module is free), so a permuted basis would leave every
# chart as it is: these pin the matrices themselves.
BOUNDARY_F_10_26 = [
    "8d9fda9a9d57dda2252b9bd844ae86668cba2055ae6e55ada812a5716ad9b33f",
    "48a2ae45a4a2d2c75532c91a41dcd93765f495b12fe583439ea1950193d54f77",
]


def test_connecting_map_matrices_are_pinned():
    result = build_scenario(ScenarioSpec("f", 10, 26))
    assert [
        hashlib.sha256(repr(sorted(d.cols.items())).encode()).hexdigest()
        for d in (result.d_ik, result.d_ci)
    ] == BOUNDARY_F_10_26
