import contextlib
import hashlib
import io
import json
import logging
import os
import subprocess
import sys
from pathlib import Path
from xml.etree import ElementTree

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from extlab import cli, verify
from extlab.cli import main
from extlab.gradedmod import ExactnessError, factor_map, free_module, sq1_quotient, trivial_module
from extlab.oracle import reduce_word
from extlab.resolve import (
    Resolution,
    cache_path,
    load_resolution,
    minimal_resolution,
    serialize_resolution,
)
from extlab.scenarios import ScenarioSpec, scenario_map
from extlab.steenrod import AlgebraTable


def run(argv, capsys):
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


def test_resolve_ascii(capsys, tmp_path):
    code, out, _ = run(
        ["resolve", "--module", "a", "--max-s", "4", "--max-t", "10",
         "--cache-dir", str(tmp_path)],
        capsys,
    )
    assert code == 0
    # a single dot at the origin: exactly one nonzero cell
    grid = [line for line in out.splitlines() if line.startswith("s=")]
    assert sum(cell.strip().isdigit() for line in grid for cell in line[5:].split()) == 1


def test_resolve_json_h0(capsys, tmp_path):
    code, out, _ = run(
        ["resolve", "--module", "f2", "--max-s", "6", "--max-t", "14",
         "--format", "json", "--cache-dir", str(tmp_path)],
        capsys,
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == "extlab.chart/1"
    assert doc["dims"][1][1] == 1  # h0
    assert doc["dims"][1][3] == 0
    assert doc["dims"][2][2] == 1  # h0^2


def test_resolve_tower(capsys, tmp_path):
    code, out, _ = run(
        ["resolve", "--module", "a-mod-sq1", "--max-s", "6", "--max-t", "14",
         "--format", "json", "--cache-dir", str(tmp_path)],
        capsys,
    )
    assert code == 0
    doc = json.loads(out)
    for s in range(7):
        for t in range(15):
            assert doc["dims"][s][t] == (1 if s == t else 0)


def test_resolve_free_selector(capsys, tmp_path):
    code, out, _ = run(
        ["resolve", "--module", "free:2,4", "--max-s", "3", "--max-t", "8",
         "--format", "json", "--cache-dir", str(tmp_path)],
        capsys,
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["dims"][0][2] == 1 and doc["dims"][0][4] == 1


def test_resolve_bad_module_exits_2(tmp_path):
    with pytest.raises(SystemExit) as info:
        main(["resolve", "--module", "bogus", "--max-s", "2", "--max-t", "4"])
    assert info.value.code == 2


def test_resolve_bad_bounds_exits_2():
    with pytest.raises(SystemExit) as info:
        main(["resolve", "--module", "f2", "--max-s", "0", "--max-t", "4"])
    assert info.value.code == 2


def test_scenario_bounds_too_small_exit_2(capsys):
    # a page needs s <= max_s - 2 and t <= max_t - 1 to hold anything
    with pytest.raises(SystemExit) as info:
        main(["scenario", "--kind", "f", "--max-s", "1", "--max-t", "10", "--no-cache"])
    assert info.value.code == 2
    assert "bounds too small to be meaningful" in capsys.readouterr().err


class _Built(Exception):
    """Raised by the guard below where a table or a resolution would be built."""


@pytest.fixture
def guard_construction(monkeypatch):
    def refuse(self, *args, **kwargs):
        raise _Built(type(self).__name__)

    monkeypatch.setattr(AlgebraTable, "__init__", refuse)
    monkeypatch.setattr(Resolution, "__init__", refuse)


COMMANDS = [["resolve", "--module", "f2"], ["scenario", "--kind", "f"]]


@pytest.mark.parametrize("command", COMMANDS, ids=lambda c: c[0])
@pytest.mark.parametrize("max_s, max_t", [("1000000000", "46"), ("18", "1000000000")])
def test_absurd_bounds_exit_2_before_building(command, max_s, max_t, guard_construction, capsys):
    with pytest.raises(SystemExit) as info:
        main([*command, "--max-s", max_s, "--max-t", max_t, "--no-cache"])
    assert info.value.code == 2
    assert f"--max-s {max_s} --max-t {max_t} is too large" in capsys.readouterr().err


@pytest.mark.parametrize("command, max_s, max_t", [
    (COMMANDS[0], 24, 64),  # the largest resolve window in use
    (COMMANDS[0], 18, 46),  # the benchmark's resolve
    (COMMANDS[1], 20, 60),  # the largest scenario window in use
    (COMMANDS[1], 14, 38),  # the benchmark's scenario
])
def test_windows_in_use_pass_the_bound_check(command, max_s, max_t, guard_construction):
    with pytest.raises(_Built):
        main([*command, "--max-s", str(max_s), "--max-t", str(max_t), "--no-cache"])


@pytest.mark.parametrize("command", COMMANDS, ids=lambda c: c[0])
@pytest.mark.parametrize("how", ["flag", "env", "below"])
def test_a_cache_dir_that_cannot_be_a_directory_exits_2_before_building(
        command, how, guard_construction, monkeypatch, tmp_path, capsys):
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    argv = [*command, "--max-s", "4", "--max-t", "10"]
    if how == "env":
        monkeypatch.setenv("EXTLAB_CACHE", str(blocker))
    else:
        argv += ["--cache-dir", str(blocker if how == "flag" else blocker / "sub")]
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2
    assert f"{blocker} is not a directory" in capsys.readouterr().err


@pytest.mark.parametrize("command", COMMANDS, ids=lambda c: c[0])
@pytest.mark.parametrize("where", ["missing-dir", "a-dir"])
def test_an_output_that_cannot_be_written_exits_2_before_building(
        command, where, guard_construction, tmp_path, capsys):
    output = tmp_path / "missing" / "x.txt" if where == "missing-dir" else tmp_path
    with pytest.raises(SystemExit) as info:
        main([*command, "--max-s", "4", "--max-t", "10", "--no-cache", "--output", str(output)])
    assert info.value.code == 2
    assert f"--output {output}" in capsys.readouterr().err


def test_verify_json_output_into_a_missing_directory_exits_2_before_running(
        monkeypatch, tmp_path, capsys):
    def refuse(names):
        raise _Built("run_suites")

    monkeypatch.setattr(cli, "run_suites", refuse)
    output = tmp_path / "missing" / "report.json"
    with pytest.raises(SystemExit) as info:
        main(["verify", "--suite", "steenrod", "--json-output", str(output)])
    assert info.value.code == 2
    assert f"--json-output {output}: no directory" in capsys.readouterr().err


@pytest.mark.parametrize("command", COMMANDS, ids=lambda c: c[0])
@pytest.mark.parametrize("how", ["flag", "env"])
def test_an_empty_cache_dir_exits_2_before_building(
        command, how, guard_construction, monkeypatch, tmp_path, capsys):
    """An empty EXTLAB_CACHE or --cache-dir is refused, not read as the
    current directory or as no value at all."""
    monkeypatch.chdir(tmp_path)
    argv = [*command, "--max-s", "2", "--max-t", "4"]
    if how == "env":
        monkeypatch.setenv("EXTLAB_CACHE", "")
    else:
        argv += ["--cache-dir", ""]
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2
    assert "cache directory (--cache-dir or EXTLAB_CACHE) is empty" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", COMMANDS, ids=lambda c: c[0])
def test_an_empty_output_exits_2_before_building(command, guard_construction, capsys):
    with pytest.raises(SystemExit) as info:
        main([*command, "--max-s", "4", "--max-t", "10", "--no-cache", "--output", ""])
    assert info.value.code == 2
    assert "--output is empty" in capsys.readouterr().err


def test_an_empty_json_output_exits_2_before_running(monkeypatch, capsys):
    def refuse(names):
        raise _Built("run_suites")

    monkeypatch.setattr(cli, "run_suites", refuse)
    with pytest.raises(SystemExit) as info:
        main(["verify", "--suite", "steenrod", "--json-output", ""])
    assert info.value.code == 2
    assert "--json-output is empty" in capsys.readouterr().err


def test_scenario_ok(capsys, tmp_path):
    code, out, err = run(
        ["scenario", "--kind", "fn", "--n", "2", "--max-s", "8", "--max-t", "16",
         "--cache-dir", str(tmp_path)],
        capsys,
    )
    assert code == 0
    assert "matches the closed form" in err


def test_scenario_missing_n_exits_2():
    with pytest.raises(SystemExit) as info:
        main(["scenario", "--kind", "fnz"])
    assert info.value.code == 2


@pytest.mark.parametrize("argv, command", [
    (["resolve", "--module", "f2", "--max-s", "1000000000", "--max-t", "46"], "resolve"),
    (["resolve", "--module", "bogus", "--max-s", "2", "--max-t", "4"], "resolve"),
    (["scenario", "--kind", "fn"], "scenario"),
    (["scenario", "--kind", "f", "--n", "3"], "scenario"),
])
def test_usage_errors_print_the_command_usage(argv, command, capsys):
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2
    assert capsys.readouterr().err.startswith(f"usage: extlab {command}")


def test_scenario_hypothesis_failure_exits_1(capsys, tmp_path):
    # integral n=1 is degenerate; the tool must refuse and exit 1
    code, _, err = run(
        ["scenario", "--kind", "fnz", "--n", "1", "--max-s", "6", "--max-t", "12",
         "--cache-dir", str(tmp_path)],
        capsys,
    )
    assert code == 1
    assert "hypothesis FAILED" in err


def test_scenario_json(capsys, tmp_path):
    code, out, _ = run(
        ["scenario", "--kind", "f", "--max-s", "6", "--max-t", "14",
         "--format", "json", "--cache-dir", str(tmp_path)],
        capsys,
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == "extlab.scenario/1"
    assert doc["hypothesis_ok"] is True
    assert doc["diff"] == []
    stems = {(e["stem"], e["filtration"]) for e in doc["assembled"]["entries"]}
    assert (1, 1) in stems and (5, 0) in stems


# sha256 of the json stdout of the two kinds tests/test_golden.py does not
# pin, taken before the expected page was read off the gate's pattern
@pytest.mark.parametrize("argv, digest", [
    (["--kind", "fn", "--n", "4"], "adfc77ab97ff1163864ae9ffa2cf8bee6edab1754878e7d0fb80b315757309e1"),
    (["--kind", "f-conj"], "a53e641a3e6bde3b4ab552490ca32f3f6f5defc59be10fc55cb441bd9f53e5a8"),
])
def test_scenario_json_bytes(argv, digest, capsys):
    code, out, _ = run(
        ["scenario", *argv, "--max-s", "10", "--max-t", "26", "--format", "json", "--no-cache"],
        capsys,
    )
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# sha256 of the ascii and svg stdout of a page and of an Ext chart, and of the
# json of a failing gate, taken while pages and Ext charts had separate types
@pytest.mark.parametrize("argv, code, digest", [
    (["scenario", "--kind", "f", "--max-s", "10", "--max-t", "26"], 0,
     "116e09f857cc2e7ca68aacd10a8388f99e26b297cea36e042baf83993275fc6b"),
    (["scenario", "--kind", "f", "--max-s", "10", "--max-t", "26", "--format", "svg"], 0,
     "784f3aa989cc0fcab51dcafa6b900f789bc5b7bf2f232d3f31f968688bd940f6"),
    (["resolve", "--module", "f2", "--max-s", "10", "--max-t", "26"], 0,
     "d168460844b6b6dabcc31a9e62054fc377a23126dc337a5927a45f8861eee355"),
    (["resolve", "--module", "f2", "--max-s", "10", "--max-t", "26", "--format", "svg"], 0,
     "9968e085d2178d4f6b98c859a64dca06ada5e7cf34d66bba924c2834db37b490"),
    (["scenario", "--kind", "fnz", "--n", "1", "--max-s", "6", "--max-t", "14", "--format", "json"], 1,
     "7b6883573d7735cacb6859da1937a5c6de1f4a619733a4af923ec76fb436ed11"),
])
def test_rendered_stdout_bytes(argv, code, digest, capsys):
    got, out, _ = run([*argv, "--no-cache"], capsys)
    assert got == code
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_scenario_svg_output(capsys, tmp_path):
    out_path = tmp_path / "chart.svg"
    code, _, _ = run(
        ["scenario", "--kind", "fn", "--n", "1", "--max-s", "6", "--max-t", "12",
         "--format", "svg", "--output", str(out_path), "--cache-dir", str(tmp_path / "c")],
        capsys,
    )
    assert code == 0
    text = out_path.read_text()
    assert text.startswith("<?xml")
    assert "<svg" in text and "</svg>" in text
    assert "<circle" in text
    assert "<title>" in text  # hover annotations
    ElementTree.fromstring(text.encode())  # well-formed: the title's "<=" is escaped


def test_cache_env_override(capsys, tmp_path, monkeypatch):
    cache = tmp_path / "envcache"
    monkeypatch.setenv("EXTLAB_CACHE", str(cache))
    monkeypatch.chdir(tmp_path)
    code, _, _ = run(
        ["resolve", "--module", "f2", "--max-s", "3", "--max-t", "6"], capsys
    )
    assert code == 0
    assert cache.is_dir() and len(os.listdir(cache)) == 1


def test_no_cache(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, _, _ = run(
        ["resolve", "--module", "f2", "--max-s", "3", "--max-t", "6", "--no-cache"],
        capsys,
    )
    assert code == 0
    assert not (tmp_path / ".extlab-cache").exists()


def test_verify_single_suite(capsys):
    code, out, _ = run(["verify", "--suite", "steenrod"], capsys)
    assert code == 0
    assert "[PASS]" in out
    assert "OK:" in out
    assert reduce_word.cache_info().currsize == 0  # the suite frees its words


def test_verify_json_report(capsys, tmp_path):
    path = tmp_path / "report.json"
    code, _, _ = run(["verify", "--suite", "les", "--json-output", str(path)], capsys)
    assert code == 0
    doc = json.loads(path.read_text())
    assert doc["schema"] == "extlab.verify/1"
    assert doc["passed"] is True
    assert all(c["passed"] for c in doc["checks"])


def test_verify_records_a_pipeline_error_as_a_failed_check(capsys, tmp_path, monkeypatch):
    def broken(result):
        raise ExactnessError("rank mismatch at degree 5")

    monkeypatch.setattr(verify, "kernel_image_lemma_check", broken)
    path = tmp_path / "report.json"
    code, out, _ = run(["verify", "--suite", "scenarios", "--json-output", str(path)], capsys)
    assert code == 1
    assert "[FAIL] scenarios: big fiber" in out
    assert "ExactnessError: rank mismatch at degree 5" in out
    doc = json.loads(path.read_text())
    assert doc["passed"] is False
    checks = {c["name"]: c for c in doc["checks"]}
    assert [c["passed"] for c in doc["checks"]].count(False) == 1
    assert checks["conjugated fiber gives the identical page"]["passed"]  # ran after the failure


def _verify_records_a_broken_lift(capsys, flip_solve, lift):
    # the les suite builds its lifts inside the named check, so a recurrence
    # that fails there is one [FAIL] line, and the suites after it still run.
    # The C -> I lift runs first, one solve per generator of P(C), so the
    # K -> I lift's count starts after them.
    spec = ScenarioSpec("fn", 6, 14, n=2)  # the les suite's map, Sq^2 on A
    fac = factor_map(scenario_map(spec))
    res_i, res_c = (minimal_resolution(m, spec.max_s, spec.max_t) for m in (fac.I, fac.C))
    if lift == "K -> I":
        res_quot, after = res_i, sum(len(ix.gen_degrees) for ix in res_c.indexers)
    else:
        res_quot, after = res_c, 0
    flip_solve(res_quot, 1, 0, 0, after=after)
    code, out, _ = run(["verify", "--suite", "all"], capsys)
    assert code == 1
    failed = [line for line in out.splitlines() if line.startswith("[FAIL]")]
    assert failed[0].startswith("[FAIL] les: horseshoe lifts")
    t = res_quot.indexers[1].gen_degrees[0]
    assert f"tau recurrence fails on generator 0 at (s=1, t={t})" in out
    assert all(line.startswith("[FAIL] les: ") for line in failed)
    for suite in ("steenrod", "resolution", "scenarios"):
        assert f"[PASS] {suite}: " in out


def test_verify_records_a_broken_lift_as_a_failed_check(capsys, flip_solve):
    _verify_records_a_broken_lift(capsys, flip_solve, "K -> I")


def test_verify_records_a_broken_c_to_i_lift_as_a_failed_check(capsys, flip_solve):
    _verify_records_a_broken_lift(capsys, flip_solve, "C -> I")


_OFF_BY_ONE_ORACLE = """
import sys
from extlab import oracle
from extlab.cli import main
exact = oracle.oracle_ext_dims
oracle.oracle_ext_dims = lambda *args: {key: d + 1 for key, d in exact(*args).items()}
sys.exit(main(["verify", "--suite", "resolution"]))
"""


def test_verify_fails_a_wrong_oracle_under_python_O():
    # python -O strips assert statements; the suites' checks must not vanish with them
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run(
        [sys.executable, "-O", "-c", _OFF_BY_ONE_ORACLE],
        env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True, text=True,
    )
    assert proc.returncode == 1, proc.stderr
    failed = [line for line in proc.stdout.splitlines() if line.startswith("[FAIL]")]
    assert [line.rpartition(" (")[0] for line in failed] == [
        "[FAIL] resolution: Ext(F2) to (8,20) matches the dense oracle",
        "[FAIL] resolution: Ext(A/ASq1) to (8,20) matches the dense oracle",
    ]


F2_6_14 = ["resolve", "--module", "f2", "--max-s", "6", "--max-t", "14", "--format", "json"]
F2_3_6 = ["resolve", "--module", "f2", "--max-s", "3", "--max-t", "6", "--format", "json"]


def _logged_and_recomputed(argv, tamper, capsys, caplog, cache):
    """Run argv into an empty cache, rewrite its one file as ``tamper`` of
    the text (as latin-1 bytes), and run again: the stdout must be the same,
    and the file logged once and rewritten to the fresh bytes.  Returns the
    stdout and the warning."""
    code, fresh_out, _ = run(argv + ["--cache-dir", str(cache)], capsys)
    assert code == 0
    (name,) = os.listdir(cache)
    path = cache / name
    fresh_file = path.read_bytes()
    bad = tamper(fresh_file.decode())
    assert bad != fresh_file.decode()
    path.write_bytes(bad.encode("latin-1"))
    code, out, _ = run(argv + ["--cache-dir", str(cache)], capsys)
    assert code == 0
    assert out == fresh_out
    assert path.read_bytes() == fresh_file
    warnings = [r.getMessage() for r in caplog.records if r.levelname == "WARNING"]
    assert len(warnings) == 1 and name in warnings[0]
    return out, warnings[0]


def _tamper_coefficient(text):
    """Flip the lowest bit of d(g_{2,2})'s first coefficient."""
    lines = text.split("\n")
    i = lines.index("gen 2 2 5") + 1
    tag, j, deg, coords = lines[i].split()
    lines[i] = f"d {j} {deg} {int(coords, 16) ^ 1:x}"
    return "\n".join(lines)


def _add_unit_coefficient(text):
    """Give d(h0^2) a unit coefficient on h1."""
    return text.replace("gen 2 0 2\nd 0 1 1\n", "gen 2 0 2\nd 0 1 1\nd 1 0 1\n")


@pytest.mark.parametrize(
    "tamper, reason",
    [
        (_tamper_coefficient, "d o d != 0"),
        pytest.param(
            _add_unit_coefficient,
            "unit coefficient on generator 1 in d of generator 0 at (s=2, t=2)",
            id="_add_unit_coefficient-unit coefficient",
        ),
    ],
)
def test_bad_cache_file_is_logged_and_recomputed(tamper, reason, capsys, caplog, tmp_path):
    assert reason in _logged_and_recomputed(F2_6_14, tamper, capsys, caplog, tmp_path)[1]


def _duplicate_top_generator(text):
    """Repeat the block of g_{3,1} (degree 6) as a second generator g_{3,2}."""
    head, block = text.removesuffix("end\n").split("gen 3 1 6\n")
    head = head.replace("gens 3 6 1\n", "gens 3 6 2\n")
    bad = f"{head}gen 3 1 6\n{block}gen 3 2 6\n{block}end\n"
    assert bad.count("gen 3 2 6\n") == 1 and "gens 3 6 2\n" in bad
    return bad


def test_redundant_generator_in_cache_is_logged_and_recomputed(capsys, caplog, tmp_path):
    out, warning = _logged_and_recomputed(F2_3_6, _duplicate_top_generator, capsys, caplog, tmp_path)
    assert json.loads(out)["dims"][3][6] == 1
    assert "generator 2 at (s=3, t=6) is redundant" in warning


def _drop_top_generator(text):
    """Delete the block of g_{3,1} (degree 6), the last one, and its gens line."""
    head = text.split("gen 3 1 6\n")[0]
    return head.replace("gens 3 6 1\n", "") + "end\n"


def _replace_line(after, old, new):
    """Replace the line ``old`` that follows the line ``after``."""
    return lambda text: text.replace(f"{after}\n{old}\n", f"{after}\n{new}\n")


@pytest.mark.parametrize(
    "tamper, reason",
    [
        (_drop_top_generator, "exactness fails at (s=3, t=6)"),
        (_replace_line("gen 0 0 0", "aug 1", "aug 3"), "aug line of g_0,0 out of range"),
        # a missing generator of P_2, a degree that is not t - 2, a bit beyond dim A_1
        (_replace_line("gen 3 1 6", "d 0 4 1", "d 3 4 1"), "d line of g_3,1 out of range"),
        (_replace_line("gen 2 0 2", "d 0 1 1", "d 0 2 1"), "d line of g_2,0 out of range"),
        (_replace_line("gen 2 0 2", "d 0 1 1", "d 0 1 3"), "d line of g_2,0 out of range"),
        # the same target generator twice
        (_replace_line("gen 2 0 2", "d 0 1 1", "d 0 1 1\nd 0 1 1"), "d line of g_2,0 out of range"),
        # files that hold the right resolution in a form no build writes
        (_replace_line("gen 0 0 0", "aug 1", "aug 1\naug 1"), "not the canonical serialization"),
        (lambda text: text.replace("gens 3 6 1\n", ""), "not the canonical serialization"),
        (_replace_line("gen 0 0 0", "aug 1", "aug 0x01"), "not the canonical serialization"),
        # one byte 0xff inside the module line, written as latin-1
        (lambda text: text[:20] + "\xff" + text[21:], "can't decode byte 0xff in position 20"),
    ],
    ids=["missing-generator", "aug-bit", "d-generator", "d-degree", "d-bit", "d-repeated",
         "aug-repeated", "gens-dropped", "hex-padded", "non-ascii-byte"],
)
def test_incomplete_or_out_of_range_cache_is_logged_and_recomputed(
    tamper, reason, capsys, caplog, tmp_path
):
    assert reason in _logged_and_recomputed(F2_3_6, tamper, capsys, caplog, tmp_path)[1]


def test_header_window_is_refused_before_building(monkeypatch, capsys, caplog, tmp_path):
    """A header that claims max_s 200000 is refused for its window before a
    Resolution of that size is built, then recomputed."""
    build = Resolution.__init__

    def requested_window_only(self, module, max_s, max_t):
        if (max_s, max_t) != (3, 6):
            raise _Built(f"Resolution at (s={max_s}, t={max_t})")
        build(self, module, max_s, max_t)

    monkeypatch.setattr(Resolution, "__init__", requested_window_only)
    _, warning = _logged_and_recomputed(
        F2_3_6, lambda text: text.replace("\nmax_s 3\n", "\nmax_s 200000\n"), capsys, caplog, tmp_path
    )
    assert "window (s=200000, t=6)" in warning


def test_cache_file_of_another_window_is_logged_and_recomputed(capsys, caplog, tmp_path):
    argv = ["resolve", "--module", "f2", "--max-t", "10"]
    cache = tmp_path / "c"
    code, _, _ = run(argv + ["--max-s", "4", "--cache-dir", str(cache)], capsys)
    assert code == 0
    (small,) = os.listdir(cache)
    assert small.endswith("_s4_t10_v1.extres")
    name = small.replace("_s4_", "_s6_")
    os.rename(cache / small, cache / name)
    code, out, _ = run(argv + ["--max-s", "6", "--cache-dir", str(cache)], capsys)
    assert code == 0
    code, fresh_out, _ = run(argv + ["--max-s", "6", "--no-cache"], capsys)
    assert out == fresh_out
    warnings = [r.getMessage() for r in caplog.records if r.levelname == "WARNING"]
    assert len(warnings) == 1
    assert name in warnings[0] and "window (s=4, t=10)" in warnings[0]
    code, _, _ = run(argv + ["--max-s", "6", "--cache-dir", str(tmp_path / "fresh")], capsys)
    assert (cache / name).read_bytes() == (tmp_path / "fresh" / name).read_bytes()


def test_cache_hits_and_misses_are_logged_at_info(capsys, caplog, tmp_path):
    caplog.set_level(logging.INFO, logger="extlab.resolve")
    argv = ["scenario", "--kind", "f", "--max-s", "4", "--max-t", "10",
            "--cache-dir", str(tmp_path)]

    def events():
        out = [r.getMessage() for r in caplog.records
               if r.name == "extlab.resolve" and r.levelname == "INFO"]
        caplog.clear()
        return out

    assert run(argv, capsys)[0] == 0
    files = sorted(str(tmp_path / name) for name in os.listdir(tmp_path))
    assert len(files) == 3  # K, I and C
    assert sorted(events()) == [f"cache miss {path}; resolving" for path in files]
    assert run(argv, capsys)[0] == 0
    assert sorted(events()) == [f"cache hit {path}" for path in files]


def test_a_scenario_on_a_sibling_cache_mixes_hits_lifts_and_a_build(capsys, caplog, tmp_path):
    # f and f-conj have the same image and cokernel (their modules share
    # digests) but another kernel, so f-conj on the cache f filled loads C
    # and I, lifts C -> I, then resolves K; its stdout is a cold run's
    caplog.set_level(logging.INFO, logger="extlab.resolve")
    window = ["--max-s", "10", "--max-t", "26"]
    run(["scenario", "--kind", "f", *window, "--cache-dir", str(tmp_path)], capsys)
    filled = set(os.listdir(tmp_path))
    caplog.clear()
    code, out, _ = run(["scenario", "--kind", "f-conj", *window, "--cache-dir", str(tmp_path)], capsys)
    assert code == 0
    events = [r.getMessage().split()[:2] for r in caplog.records
              if r.name == "extlab.resolve" and r.levelname == "INFO"]
    assert events == [["cache", "hit"], ["cache", "hit"], ["cache", "miss"]]  # C, I, then K
    assert len(set(os.listdir(tmp_path)) - filled) == 1
    assert out == run(["scenario", "--kind", "f-conj", *window, "--no-cache"], capsys)[1]




FUZZ_ARGV = {
    "f2": ["resolve", "--module", "f2", "--max-s", "4", "--max-t", "10"],
    "a-mod-sq1": ["resolve", "--module", "a-mod-sq1", "--max-s", "4", "--max-t", "10"],
    "free:0,2": ["resolve", "--module", "free:0,2", "--max-s", "4", "--max-t", "10"],
    "f-kernel": ["scenario", "--kind", "f", "--max-s", "4", "--max-t", "10"],
}
# the base of each number field of a cache line, by keyword
NUMBER_FIELDS = {b"version": (10,), b"module": (16,), b"max_s": (10,), b"max_t": (10,),
                 b"gens": (10, 10, 10), b"gen": (10, 10, 10), b"aug": (16,), b"d": (10, 10, 16)}


@st.composite
def damaged(draw, data):
    """One mutation of a cache file: delete, duplicate or swap a line, add
    +-1 to a decimal field, flip a hex digit, insert a byte at or above
    0x80, or truncate the file."""
    kind = draw(st.sampled_from(["delete", "duplicate", "swap", "decimal", "hex", "byte", "cut"]))
    if kind == "byte":
        at = draw(st.integers(0, len(data)))
        return data[:at] + bytes([draw(st.integers(0x80, 0xFF))]) + data[at:]
    if kind == "cut":
        return data[:draw(st.integers(0, len(data) - 1))]
    lines = [line.split(b" ") for line in data.split(b"\n")[:-1]]
    i, j = draw(st.integers(0, len(lines) - 1)), draw(st.integers(0, len(lines) - 1))
    if kind == "delete":
        del lines[i]
    elif kind == "duplicate":
        lines.insert(i, lines[i])
    elif kind == "swap":
        lines[i], lines[j] = lines[j], lines[i]
    else:
        base = 10 if kind == "decimal" else 16
        i, k = draw(st.sampled_from([
            (i, k) for i, fields in enumerate(lines)
            for k, b in enumerate(NUMBER_FIELDS.get(fields[0], ()), 1) if b == base
        ]))
        field = lines[i][k]
        if base == 10:
            lines[i][k] = b"%d" % (int(field) + draw(st.sampled_from([-1, 1])))
        else:
            at = draw(st.integers(0, len(field) - 1))
            digit = int(field[at:at + 1], 16) ^ draw(st.integers(1, 15))
            lines[i][k] = field[:at] + b"%x" % digit + field[at + 1:]
    return b"".join(b" ".join(fields) + b"\n" for fields in lines)


@pytest.fixture(scope="module")
def fuzz_fresh(tmp_path_factory):
    """Per case: the stdout of a --no-cache run, the fresh cache files, and
    the name and module of the file that is damaged."""
    alg = AlgebraTable(10)
    modules = {"f2": trivial_module(alg, 10), "a-mod-sq1": sq1_quotient(alg, 10).codomain,
               "free:0,2": free_module(alg, [0, 2], 10),
               "f-kernel": factor_map(scenario_map(ScenarioSpec("f", 4, 10), alg)).K}
    fresh = {}
    for case, argv in FUZZ_ARGV.items():
        cache = tmp_path_factory.mktemp(case)
        with contextlib.redirect_stdout(io.StringIO()) as out:
            assert main(argv + ["--no-cache"]) == 0
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(argv + ["--cache-dir", str(cache)]) == 0
        files = {path.name: path.read_bytes() for path in cache.iterdir()}
        name = os.path.basename(cache_path(str(cache), modules[case], 4, 10))
        fresh[case] = (out.getvalue(), files, name, modules[case])
    return fresh


@pytest.mark.parametrize("case", FUZZ_ARGV)
@given(data=st.data())
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_damaged_cache_file_is_recomputed_or_certified(case, fuzz_fresh, capsys, caplog, tmp_path, data):
    """Whatever one mutation does to a cache file, the command prints what a
    --no-cache run prints, and either logs the file once and rewrites it, or
    serves it unchanged: then it is the canonical serialization of another
    minimal resolution, which loads and certifies again."""
    expected, files, name, module = fuzz_fresh[case]
    bad = data.draw(damaged(files[name]))
    for file, content in files.items():
        (tmp_path / file).write_bytes(bad if file == name else content)
    caplog.clear()
    code, out, _ = run(FUZZ_ARGV[case] + ["--cache-dir", str(tmp_path)], capsys)
    assert code == 0 and out == expected
    warnings = [r.getMessage() for r in caplog.records if r.levelname == "WARNING"]
    if warnings:
        assert len(warnings) == 1 and name in warnings[0]
        assert (tmp_path / name).read_bytes() == files[name]
    else:
        assert (tmp_path / name).read_bytes() == bad
        res = load_resolution(str(tmp_path / name), module, 4, 10)
        assert serialize_resolution(res).encode() == bad
