"""Command-line interface.

    extlab resolve  --module a-mod-sq1 --max-s 10 --max-t 24 [--format json]
    extlab scenario --kind f --max-s 10 --max-t 26 [--output chart.svg]
    extlab verify   --suite all [--json-output report.json]

Exit codes: 0 verified / success, 1 mathematical mismatch or internal
invariant failure, 2 usage error (bad bounds, selectors or paths, an empty
one included, refused before anything is built).  The cache directory
defaults to ``.extlab-cache``; the EXTLAB_CACHE environment variable
overrides the default, and --cache-dir overrides both.  --no-cache
disables it.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Optional

from . import render
from .gradedmod import free_module, sq1_quotient, trivial_module
from .resolve import cached_resolution
from .scenarios import KINDS, ScenarioSpec, build_scenario, expected_e3, verify_scenario
from .steenrod import AlgebraTable, milnor_basis_dims
from .verify import SUITES, run_suites

# Largest window accepted: (max_s + 1) x admissible monomials of degree
# <= max_t, one free generator per filtration; (24, 64) has 131k cells.
MAX_WINDOW_CELLS = 1_000_000


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="extlab",
        description="Ext charts over the mod-2 Steenrod algebra and collapsed Adams pages",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def bounds(p):
        p.add_argument("--max-s", type=int, default=12, metavar="S",
                       help="homological bound (default 12)")
        p.add_argument("--max-t", type=int, default=28, metavar="T",
                       help="internal degree bound (default 28)")
        p.add_argument("--cache-dir", default=None, help="resolution cache directory")
        p.add_argument("--no-cache", action="store_true", help="disable the resolution cache")

    p_res = sub.add_parser("resolve", help="compute an Ext chart")
    p_res.add_argument("--module", required=True,
                       help="f2 | a | a-mod-sq1 | free:<comma-separated shifts>")
    bounds(p_res)
    p_res.add_argument("--format", choices=("ascii", "svg", "json"), default="ascii")
    p_res.add_argument("--output", default=None, help="write the chart here instead of stdout")
    p_res.set_defaults(run=cmd_resolve, parser=p_res)

    p_sc = sub.add_parser("scenario", help="reconstruct and verify a collapsed page")
    p_sc.add_argument("--kind", required=True, choices=KINDS)
    p_sc.add_argument("--n", type=int, default=None, help="the square (required for fn/fnz)")
    bounds(p_sc)
    p_sc.add_argument("--format", choices=("ascii", "svg", "json"), default="ascii")
    p_sc.add_argument("--output", default=None)
    p_sc.set_defaults(run=cmd_scenario, parser=p_sc)

    p_ver = sub.add_parser("verify", help="run the property suites")
    p_ver.add_argument("--suite", default="all", choices=("all",) + SUITES)
    p_ver.add_argument("--json-output", default=None, help="write the machine-readable report here")
    p_ver.set_defaults(run=cmd_verify, parser=p_ver)

    return parser


def _cache_dir(args, parser: argparse.ArgumentParser) -> Optional[str]:
    """The cache directory, or None; exit 2 when it is empty, or when a path
    on the way to it exists and is not a directory, since the cache could
    not be written."""
    if args.no_cache:
        return None
    path = args.cache_dir
    if path is None:
        path = os.environ.get("EXTLAB_CACHE", ".extlab-cache")
    if not path:
        parser.error("the cache directory (--cache-dir or EXTLAB_CACHE) is empty")
    probe = os.path.abspath(path)
    while not os.path.lexists(probe):
        probe = os.path.dirname(probe)
    if not os.path.isdir(probe):
        parser.error(f"cache directory {path}: {probe} is not a directory")
    return path


def _check_output(parser: argparse.ArgumentParser, flag: str, path: Optional[str]) -> None:
    """Exit 2 unless ``path`` can name a file in an existing directory."""
    if path is None:
        return
    if not path:
        parser.error(f"{flag} is empty")
    if os.path.isdir(path):
        parser.error(f"{flag} {path} is a directory")
    if not os.path.isdir(os.path.dirname(path) or "."):
        parser.error(f"{flag} {path}: no directory {os.path.dirname(path)}")


def _emit(text: str, output: Optional[str]) -> None:
    if output:
        with open(output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _check_window(parser: argparse.ArgumentParser, max_s: int, max_t: int) -> None:
    """Exit 2 on bounds below 1 or past MAX_WINDOW_CELLS, before anything is built."""
    if max_s < 1 or max_t < 1:
        parser.error("--max-s and --max-t must be at least 1")
    t = 0
    while t < max_t:  # doubling, so an absurd max_t is counted no further than the ceiling
        t = min(max_t, 2 * t + 32)
        if (max_s + 1) * sum(milnor_basis_dims(t)) > MAX_WINDOW_CELLS:
            parser.error(f"--max-s {max_s} --max-t {max_t} is too large (over {MAX_WINDOW_CELLS} cells)")


def _parse_module(selector: str, parser: argparse.ArgumentParser, max_t: int):
    alg = AlgebraTable(max_t)
    if selector == "f2":
        return trivial_module(alg, max_t), "F2"
    if selector == "a":
        return free_module(alg, [0], max_t), "A"
    if selector == "a-mod-sq1":
        return sq1_quotient(alg, max_t).codomain, "A/ASq1"
    if selector.startswith("free:"):
        try:
            shifts = [int(x) for x in selector[5:].split(",") if x != ""]
        except ValueError:
            parser.error(f"bad shift list in {selector!r}")
        if not shifts or any(s < 0 for s in shifts):
            parser.error(f"free module selector needs non-negative shifts: {selector!r}")
        return free_module(alg, shifts, max_t), f"free{shifts}"
    parser.error(f"unknown module selector {selector!r}")


def cmd_resolve(args, parser) -> int:
    _check_window(parser, args.max_s, args.max_t)
    cache_dir = _cache_dir(args, parser)
    _check_output(parser, "--output", args.output)
    module, name = _parse_module(args.module, parser, args.max_t)
    res = cached_resolution(module, args.max_s, args.max_t, cache_dir)
    chart = res.chart()
    title = f"Ext({name}) for s <= {args.max_s}, t <= {args.max_t}"
    if args.format == "ascii":
        _emit(render.ascii_chart(chart, title), args.output)
    elif args.format == "svg":
        _emit(render.svg_chart(chart, title), args.output)
    else:
        _emit(render.dump_json(render.ext_chart_json(chart, kind=name)), args.output)
    return 0


def cmd_scenario(args, parser) -> int:
    _check_window(parser, args.max_s, args.max_t)
    cache_dir = _cache_dir(args, parser)
    _check_output(parser, "--output", args.output)
    try:
        spec = ScenarioSpec(args.kind, args.max_s, args.max_t, n=args.n)
    except ValueError as exc:
        parser.error(str(exc))
    result = build_scenario(spec, cache_dir=cache_dir)

    if result.e3 is None:
        bad = result.hypothesis.violations()
        sys.stderr.write(
            f"hypothesis FAILED at {len(bad)} bidegrees; no page emitted. First few:\n"
        )
        for c in bad[:8]:
            sys.stderr.write(
                f"  {c.what} at (s={c.s}, t={c.t}): computed {c.computed}, expected {c.expected}\n"
            )
        if args.format == "json":
            _emit(render.dump_json(render.scenario_json(result)), args.output)
        return 1

    diff = verify_scenario(result)
    title = f"E3 = Einf for {spec.describe()}  (s <= {spec.max_s}, t <= {spec.max_t})"
    if args.format == "ascii":
        text = render.ascii_chart(result.e3, title)
        text += "\nexpected:\n" + render.ascii_chart(expected_e3(spec))
        _emit(text, args.output)
    elif args.format == "svg":
        _emit(render.svg_chart(result.e3, title), args.output)
    else:
        _emit(render.dump_json(render.scenario_json(result, diff)), args.output)

    if diff:
        sys.stderr.write(f"{len(diff)} entries differ from the closed-form page:\n")
        for stem, filt, got, want in diff[:10]:
            sys.stderr.write(f"  stem {stem}, filtration {filt}: got {got}, expected {want}\n")
        return 1
    sys.stderr.write("hypothesis ok; assembled page matches the closed form.\n")
    return 0


def cmd_verify(args, parser) -> int:
    _check_output(parser, "--json-output", args.json_output)
    names = list(SUITES) if args.suite == "all" else [args.suite]
    report = run_suites(names)
    for check in report.checks:
        status = "PASS" if check.passed else "FAIL"
        line = f"[{status}] {check.suite}: {check.name} ({check.seconds:.2f}s)"
        if not check.passed and check.detail:
            line += f"\n       {check.detail}"
        print(line)
    doc = {
        "schema": render.VERIFY_SCHEMA,
        "suites": names,
        "passed": report.passed,
        "checks": [
            {
                "suite": c.suite,
                "name": c.name,
                "passed": c.passed,
                "detail": c.detail,
                "seconds": round(c.seconds, 3),
            }
            for c in report.checks
        ],
    }
    if args.json_output:
        with open(args.json_output, "w") as fh:
            fh.write(json.dumps(doc, indent=2) + "\n")
    print(f"{'OK' if report.passed else 'FAILED'}: "
          f"{sum(c.passed for c in report.checks)}/{len(report.checks)} checks passed")
    return 0 if report.passed else 1


def main(argv: Optional[list[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.run(args, args.parser)
    except BrokenPipeError:
        return 1
    except (AssertionError, RuntimeError, ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
