import json
import re

import pytest

from extlab.gradedmod import trivial_module
from extlab.render import (
    ascii_chart,
    dump_json,
    e3_chart_json,
    ext_chart_json,
    scenario_json,
    svg_chart,
)
from extlab.resolve import ExtChart, minimal_resolution
from extlab.scenarios import ScenarioSpec, build_scenario, verify_scenario
from extlab.steenrod import AlgebraTable


@pytest.fixture(scope="module")
def f2_chart():
    alg = AlgebraTable(12)
    return minimal_resolution(trivial_module(alg, 12), 5, 12).chart()


# a page's entries at (s, t); drawn at (stem, filtration) = (t - s, s)
PAGE_ENTRIES = {(0, 0): 1, (1, 1): 1, (1, 4): 1, (0, 5): 2}
PAGE_CELLS = {(t - s, s): dim for (s, t), dim in PAGE_ENTRIES.items()}


@pytest.fixture(scope="module")
def e3():
    dims = tuple(tuple(PAGE_ENTRIES.get((s, t), 0) for t in range(9)) for s in range(4))
    return ExtChart(3, 8, dims, {(1, 4): ("h2",)})


def _ascii_cells(text):
    cells = set()
    for line in text.splitlines():
        m = re.match(r"s=\s*(\d+) \|(.*)", line)
        if not m:
            continue
        filt = int(m.group(1))
        row = m.group(2)
        width = 2
        for stem in range(len(row) // width):
            cell = row[stem * width : (stem + 1) * width].strip()
            if cell.isdigit():
                cells.add((stem, filt, int(cell)))
    return cells


def test_ascii_matches_chart(f2_chart):
    cells = _ascii_cells(ascii_chart(f2_chart))
    expected = {
        (t - s, s, f2_chart.dim(s, t))
        for s in range(f2_chart.max_s + 1)
        for t in range(f2_chart.max_t + 1)
        if f2_chart.dim(s, t) and t - s >= 0
    }
    assert cells == expected


def test_ascii_and_svg_same_lattice(e3):
    ascii_cells = {(stem, filt) for stem, filt, _ in _ascii_cells(ascii_chart(e3))}
    svg = svg_chart(e3, "test")
    svg_cells = len(re.findall(r"<circle ", svg))
    assert svg_cells == len(PAGE_CELLS)
    assert ascii_cells == set(PAGE_CELLS)


def test_svg_is_wellformed_xml(e3):
    import xml.etree.ElementTree as ET

    tree = ET.fromstring(svg_chart(e3, "page"))
    assert tree.tag.endswith("svg")
    titles = [el.text for el in tree.iter() if el.tag.endswith("title")]
    assert any("h2" in t for t in titles)


def test_ext_chart_json_schema(f2_chart):
    doc = ext_chart_json(f2_chart, kind="F2")
    assert doc["schema"] == "extlab.chart/1"
    assert doc["dims"][0][0] == 1
    text = dump_json(doc)
    assert json.loads(text) == doc


def test_e3_chart_json(e3):
    doc = e3_chart_json(e3)
    entries = {(e["stem"], e["filtration"]): e["dim"] for e in doc["entries"]}
    assert entries == PAGE_CELLS
    labeled = [e for e in doc["entries"] if e["labels"]]
    assert labeled and labeled[0]["labels"] == ["h2"]


def test_scenario_json_round_trip():
    result = build_scenario(ScenarioSpec("fn", 6, 12, n=1))
    doc = scenario_json(result, verify_scenario(result))
    assert doc["schema"] == "extlab.scenario/1"
    assert doc["hypothesis_ok"] and doc["diff"] == []
    json.loads(dump_json(doc))
