import json
import logging
import os
from xml.etree import ElementTree

import pytest

from extlab.cli import main
from extlab.resolve import Resolution
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


def test_verify_json_report(capsys, tmp_path):
    path = tmp_path / "report.json"
    code, _, _ = run(["verify", "--suite", "les", "--json-output", str(path)], capsys)
    assert code == 0
    doc = json.loads(path.read_text())
    assert doc["schema"] == "extlab.verify/1"
    assert doc["passed"] is True
    assert all(c["passed"] for c in doc["checks"])


F2_6_14 = ["resolve", "--module", "f2", "--max-s", "6", "--max-t", "14", "--format", "json"]


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
    [(_tamper_coefficient, "d o d != 0"), (_add_unit_coefficient, "unit coefficient")],
)
def test_bad_cache_file_is_logged_and_recomputed(tamper, reason, capsys, caplog, tmp_path):
    code, fresh_out, _ = run(F2_6_14 + ["--cache-dir", str(tmp_path)], capsys)
    assert code == 0
    (name,) = os.listdir(tmp_path)
    path = tmp_path / name
    fresh_file = path.read_bytes()
    bad = tamper(fresh_file.decode())
    assert bad != fresh_file.decode()
    path.write_text(bad)
    code, out, _ = run(F2_6_14 + ["--cache-dir", str(tmp_path)], capsys)
    assert code == 0
    assert out == fresh_out
    assert path.read_bytes() == fresh_file
    warnings = [r.getMessage() for r in caplog.records if r.levelname == "WARNING"]
    assert len(warnings) == 1
    assert name in warnings[0] and reason in warnings[0]


def _duplicate_top_generator(text):
    """Repeat the block of g_{3,1} (degree 6) as a second generator g_{3,2}."""
    head, block = text.removesuffix("end\n").split("gen 3 1 6\n")
    head = head.replace("gens 3 6 1\n", "gens 3 6 2\n")
    return f"{head}gen 3 1 6\n{block}gen 3 2 6\n{block}end\n"


def test_redundant_generator_in_cache_is_logged_and_recomputed(capsys, caplog, tmp_path):
    argv = ["resolve", "--module", "f2", "--max-s", "3", "--max-t", "6", "--format", "json",
            "--cache-dir", str(tmp_path)]
    code, fresh_out, _ = run(argv, capsys)
    assert code == 0
    assert json.loads(fresh_out)["dims"][3][6] == 1
    (name,) = os.listdir(tmp_path)
    path = tmp_path / name
    fresh_file = path.read_bytes()
    bad = _duplicate_top_generator(fresh_file.decode())
    assert bad.count("gen 3 2 6\n") == 1 and "gens 3 6 2\n" in bad
    path.write_text(bad)
    code, out, _ = run(argv, capsys)
    assert code == 0
    assert out == fresh_out
    assert path.read_bytes() == fresh_file
    warnings = [r.getMessage() for r in caplog.records if r.levelname == "WARNING"]
    assert len(warnings) == 1
    assert name in warnings[0] and "generator 2 at (s=3, t=6) is redundant" in warnings[0]


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
        # one byte 0xff inside the module line, written as latin-1 below
        (lambda text: text[:20] + "\xff" + text[21:], "can't decode byte 0xff in position 20"),
    ],
    ids=["missing-generator", "aug-bit", "d-generator", "d-degree", "d-bit", "d-repeated",
         "aug-repeated", "gens-dropped", "hex-padded", "non-ascii-byte"],
)
def test_incomplete_or_out_of_range_cache_is_logged_and_recomputed(
    tamper, reason, capsys, caplog, tmp_path
):
    argv = ["resolve", "--module", "f2", "--max-s", "3", "--max-t", "6", "--format", "json",
            "--cache-dir", str(tmp_path)]
    code, fresh_out, _ = run(argv, capsys)
    assert code == 0
    (name,) = os.listdir(tmp_path)
    path = tmp_path / name
    fresh_file = path.read_bytes()
    bad = tamper(fresh_file.decode())
    assert bad != fresh_file.decode()
    path.write_bytes(bad.encode("latin-1"))
    code, out, _ = run(argv, capsys)
    assert code == 0
    assert out == fresh_out
    assert path.read_bytes() == fresh_file
    warnings = [r.getMessage() for r in caplog.records if r.levelname == "WARNING"]
    assert len(warnings) == 1
    assert name in warnings[0] and reason in warnings[0]


def test_header_window_is_refused_before_building(monkeypatch, capsys, caplog, tmp_path):
    """A header that claims max_s 200000 is refused for its window before a
    Resolution of that size is built, then recomputed."""
    argv = ["resolve", "--module", "f2", "--max-s", "3", "--max-t", "6", "--format", "json",
            "--cache-dir", str(tmp_path)]
    code, fresh_out, _ = run(argv, capsys)
    assert code == 0
    (name,) = os.listdir(tmp_path)
    path = tmp_path / name
    fresh_file = path.read_bytes()
    path.write_bytes(fresh_file.replace(b"\nmax_s 3\n", b"\nmax_s 200000\n"))
    build = Resolution.__init__

    def requested_window_only(self, module, max_s, max_t):
        if (max_s, max_t) != (3, 6):
            raise _Built(f"Resolution at (s={max_s}, t={max_t})")
        build(self, module, max_s, max_t)

    monkeypatch.setattr(Resolution, "__init__", requested_window_only)
    code, out, _ = run(argv, capsys)
    assert code == 0
    assert out == fresh_out
    assert path.read_bytes() == fresh_file
    warnings = [r.getMessage() for r in caplog.records if r.levelname == "WARNING"]
    assert len(warnings) == 1
    assert name in warnings[0] and "window (s=200000, t=6)" in warnings[0]


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
