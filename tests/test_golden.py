"""Pinned bytes of the canonical outputs.

Other tests compare two runs of the current code with each other, which
would not notice the canonical form drifting.  These sha256 values were
taken from the resolver before it switched to one elimination per bidegree.
"""

import hashlib
import os

from extlab.cli import _build_parser, _parse_module, main
from extlab.gradedmod import factor_map, trivial_module
from extlab.lescalc import horseshoe_lift
from extlab.resolve import minimal_resolution, serialize_resolution
from extlab.scenarios import ScenarioSpec, scenario_map
from extlab.steenrod import AlgebraTable

F2_10_26 = "54fcf78e1e37db1d89f5707edf659ed0faa9723dc801d225d5f8eb0a81a09b47"
SCENARIO_F_10_26_STDOUT = "ecd9fee6a1add339e9cc80207e968af10c9c06df57c7b71eda386ccc15468a36"
SCENARIO_F_10_26_CACHE = {
    F2_10_26,
    "218f1caf93ae8e14e299b6b18cdb61813863ba114a33092ff00de0629cf17fa4",
    "42eec5120345477a2c121e94384c00cd29e4436ffb8295110e428cba5eb2de9a",
}
# A//A(0) and scenario fnz, pinned before A//A(0) became a coordinate
# quotient of A instead of the cokernel of right multiplication by Sq^1
A_MOD_SQ1_10_24 = "5b63a5e347436e4bd7b579d9951055e168e47e95d34efb3e6cc769cda7f08587"
SCENARIO_FNZ_4_8_16_STDOUT = "88ca91f86909f615a974c2b00f3068a16b98c3a746e07dda9b8ee5d0bee715fc"
SCENARIO_FNZ_4_8_16_CACHE = {
    "263274605e68c9fbeaebb050d7845f0e82e5291dd2a8f42c030dccbcc6243361",
    "ca5fb69b5075f7b3e020d1bc094d0c920ea5f385feb8e1b669840f417dcc58df",
    "fe4b0023cf577d46f2292056682387789468a39e96499a5d70591faa51b322c2",
}
# sha256 of repr((sigma, tau)) of the two horseshoe lifts of scenario f
# (10, 26), taken from the code that solved them with a Gauss-Jordan of [m | I]
LIFT_F_10_26_KERNEL = "5eafa964d6fc7ad0cb5b5111857b0615a42e5bf840b3388653f9d462cc82a5d6"
LIFT_F_10_26_COKERNEL = "f96695298100d6dd3c7587a57f59dff19188a3c5295dd3e46551984ebc5285ef"


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def test_f2_resolution_bytes():
    res = minimal_resolution(trivial_module(AlgebraTable(26), 26), 10, 26)
    assert _sha256(serialize_resolution(res).encode()) == F2_10_26


def test_scenario_f_stdout_and_cache_bytes(capsys, tmp_path):
    code = main(["scenario", "--kind", "f", "--max-s", "10", "--max-t", "26",
                 "--format", "json", "--cache-dir", str(tmp_path)])
    out, _ = capsys.readouterr()
    assert code == 0
    assert _sha256(out.encode()) == SCENARIO_F_10_26_STDOUT
    files = sorted(os.listdir(tmp_path))
    assert len(files) == 3
    assert {_sha256((tmp_path / name).read_bytes()) for name in files} == SCENARIO_F_10_26_CACHE


def test_a_mod_sq1_resolution_bytes():
    module, _ = _parse_module("a-mod-sq1", _build_parser(), 24)
    res = minimal_resolution(module, 10, 24)
    assert _sha256(serialize_resolution(res).encode()) == A_MOD_SQ1_10_24


def test_scenario_fnz_stdout_and_cache_bytes(capsys, tmp_path):
    code = main(["scenario", "--kind", "fnz", "--n", "4", "--max-s", "8", "--max-t", "16",
                 "--format", "json", "--cache-dir", str(tmp_path)])
    out, _ = capsys.readouterr()
    assert code == 0
    assert _sha256(out.encode()) == SCENARIO_FNZ_4_8_16_STDOUT
    files = sorted(os.listdir(tmp_path))
    assert len(files) == 3
    assert {_sha256((tmp_path / name).read_bytes()) for name in files} == SCENARIO_FNZ_4_8_16_CACHE


def test_scenario_f_lift_bytes():
    # the cache files above pin the resolutions, not which of the valid
    # preimages each lift solve picks; these pin the lifts themselves
    fac = factor_map(scenario_map(ScenarioSpec("f", 10, 26)))
    res_k, res_i, res_c = (minimal_resolution(m, 10, 26) for m in (fac.K, fac.I, fac.C))
    lifts = [
        horseshoe_lift(fac.kernel_sequence(), res_k, res_i),
        horseshoe_lift(fac.cokernel_sequence(), res_i, res_c),
    ]
    # tau[0] is sigma; the values were pinned when sigma was held apart,
    # beside an empty tau_0
    assert [_sha256(repr((lift.tau[0], [[], *lift.tau[1:]])).encode()) for lift in lifts] == [
        LIFT_F_10_26_KERNEL, LIFT_F_10_26_COKERNEL,
    ]
