"""Chart rendering: ASCII, SVG 1.1, and versioned JSON.

Ext charts and collapsed pages are both ExtCharts, drawn on one lattice:
stems (t - s) run horizontally, Adams filtration s runs vertically.  SVG
output is static; a page's class labels become hover titles.
"""

from __future__ import annotations

import json
from typing import Optional

from .resolve import ExtChart
from .scenarios import expected_e3

CHART_SCHEMA = "extlab.chart/1"
SCENARIO_SCHEMA = "extlab.scenario/1"
VERIFY_SCHEMA = "extlab.verify/1"


def ascii_chart(chart: ExtChart, title: str = "") -> str:
    """Filtration rows top-down, one cell per stem; dots are empty cells."""
    width = max(2, 1 + max(len(str(d)) for row in chart.dims for d in row))
    lines = []
    if title:
        lines.append(title)
    for filt in range(chart.max_s, -1, -1):
        cells = []
        for stem in range(chart.max_t + 1):
            d = chart.dim(filt, stem + filt)
            cells.append((str(d) if d else ".").rjust(width))
        lines.append(f"s={filt:>2} |" + "".join(cells))
    lines.append("     +" + "-" * ((chart.max_t + 1) * width))
    stems = "".join(
        (str(stem) if stem % 5 == 0 else "").rjust(width) for stem in range(chart.max_t + 1)
    )
    lines.append("      " + stems + "   (stem)")
    return "\n".join(lines) + "\n"


def svg_chart(chart: ExtChart, title: str) -> str:
    from xml.sax.saxutils import escape  # imports urllib and ssl: only SVG output pays

    max_stem, max_filt = chart.max_t, chart.max_s
    cell = 24
    margin = 40
    width = margin * 2 + (max_stem + 1) * cell
    height = margin * 2 + (max_filt + 1) * cell + 20
    top = margin + 20

    def x_of(stem):
        return margin + stem * cell + cell // 2

    def y_of(filt):
        return top + (max_filt - filt) * cell + cell // 2

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg version="1.1" xmlns="http://www.w3.org/2000/svg" '
        f'width="{width}" height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{margin}" y="{margin - 16}" font-family="monospace" '
        f'font-size="14">{escape(title)}</text>',
    ]
    # light grid
    for stem in range(max_stem + 2):
        x = margin + stem * cell
        parts.append(
            f'<line x1="{x}" y1="{top}" x2="{x}" '
            f'y2="{top + (max_filt + 1) * cell}" stroke="#eeeeee"/>'
        )
    for filt in range(max_filt + 2):
        y = top + filt * cell
        parts.append(
            f'<line x1="{margin}" y1="{y}" x2="{margin + (max_stem + 1) * cell}" '
            f'y2="{y}" stroke="#eeeeee"/>'
        )
    for stem in range(0, max_stem + 1, 5):
        parts.append(
            f'<text x="{x_of(stem)}" y="{top + (max_filt + 1) * cell + 14}" '
            f'font-family="monospace" font-size="10" text-anchor="middle">{stem}</text>'
        )
    for filt in range(0, max_filt + 1, 2):
        parts.append(
            f'<text x="{margin - 8}" y="{y_of(filt) + 3}" font-family="monospace" '
            f'font-size="10" text-anchor="end">{filt}</text>'
        )
    for stem in range(max_stem + 1):
        for filt in range(max_filt + 1):
            d = chart.dim(filt, stem + filt)
            if not d:
                continue
            labels = chart.labels.get((filt, stem + filt), ())
            hover = f"({stem}, {filt}): dim {d}"
            if labels:
                hover += " " + " ".join(labels)
            parts.append("<g>")
            parts.append(f"<title>{escape(hover)}</title>")
            parts.append(f'<circle cx="{x_of(stem)}" cy="{y_of(filt)}" r="4" fill="black"/>')
            if d > 1:
                parts.append(
                    f'<text x="{x_of(stem) + 6}" y="{y_of(filt) - 4}" '
                    f'font-family="monospace" font-size="10">{d}</text>'
                )
            parts.append("</g>")
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def ext_chart_json(chart: ExtChart, kind: str) -> dict:
    return {
        "schema": CHART_SCHEMA,
        "kind": kind,
        "max_s": chart.max_s,
        "max_t": chart.max_t,
        "dims": [list(row) for row in chart.dims],
    }


def e3_chart_json(page: ExtChart) -> dict:
    """A page's nonzero entries in (stem, filtration) order."""
    cells = sorted((t - s, s) for s, row in enumerate(page.dims) for t, d in enumerate(row) if d)
    return {
        "max_filt": page.max_s,
        "max_total": page.max_t,
        "entries": [
            {
                "stem": stem,
                "filtration": s,
                "dim": page.dims[s][stem + s],
                "labels": list(page.labels.get((s, stem + s), ())),
            }
            for stem, s in cells
        ],
    }


def scenario_json(result, diff: Optional[list] = None) -> dict:
    spec = result.spec
    doc = {
        "schema": SCENARIO_SCHEMA,
        "kind": spec.kind,
        "n": spec.n,
        "max_s": spec.max_s,
        "max_t": spec.max_t,
        "hypothesis_ok": result.hypothesis.ok,
        "hypothesis_violations": [
            {"what": c.what, "s": c.s, "t": c.t, "computed": c.computed, "expected": c.expected}
            for c in result.hypothesis.violations()
        ],
        "assembled": e3_chart_json(result.e3) if result.e3 is not None else None,
        "expected": e3_chart_json(expected_e3(spec)),
    }
    if diff is not None:
        doc["diff"] = [
            {"stem": stem, "filtration": filt, "assembled": got, "expected": want}
            for (stem, filt, got, want) in diff
        ]
    return doc


def dump_json(doc: dict) -> str:
    return json.dumps(doc, indent=2, sort_keys=False) + "\n"
