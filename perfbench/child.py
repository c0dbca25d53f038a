"""One benchmark sample, run by run.py in a fresh interpreter.

    python3 child.py MODE REPORT CACHE_DIR EXTLAB_ARGS...

MODE is one of

* ``cli``: call ``extlab.cli.main(EXTLAB_ARGS + ["--cache-dir", CACHE_DIR])``;
* ``trace``: do the same work by calling, in the order ``cmd_resolve`` and
  ``build_scenario`` call them, the public functions of each layer, and
  time each call;
* ``fill``: for a ``scenario`` command, only write the resolutions it needs
  into CACHE_DIR (the cache fill of the warm workload).

The chart goes to stdout and the exit code is extlab's.  REPORT receives a
JSON object with ``time.monotonic()`` at the start and end of the timed
call (a system-wide clock, so run.py can subtract its own spawn time to get
the set-up time), the peak RSS of this process, and for ``trace`` the
per-layer spans.
"""

import argparse
import json
import os
import resource
import sys
import time
from contextlib import contextmanager

from extlab import render
from extlab.cli import main as cli_main
from extlab.gradedmod import factor_map, trivial_module
from extlab.lescalc import compose_boundaries, connecting_map, horseshoe_lift
from extlab.resolve import cached_resolution
from extlab.scenarios import (
    ScenarioResult,
    ScenarioSpec,
    assemble_e3,
    expected_pattern,
    scenario_map,
    verify_scenario,
)
from extlab.steenrod import AlgebraTable


class Trace:
    """Seconds per layer span and work counts, keyed by metric name."""

    def __init__(self):
        self.metrics: dict[str, float] = {}

    def add(self, name: str, value: float) -> None:
        self.metrics[name] = self.metrics.get(name, 0) + value

    @contextmanager
    def span(self, name: str):
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.add(name, time.perf_counter() - t0)


def _listing(cache_dir: str) -> dict[str, tuple[int, int]]:
    with os.scandir(cache_dir) as entries:
        return {e.name: (e.stat().st_size, e.stat().st_mtime_ns) for e in entries}


def _cached_resolution(module, max_s, max_t, cache_dir, trace: Trace):
    """``cached_resolution`` with hit/miss read off the cache directory."""
    before = _listing(cache_dir)
    with trace.span("resolve.cached_s"):
        res = cached_resolution(module, max_s, max_t, cache_dir)
    after = _listing(cache_dir)
    trace.add("resolve.misses" if after != before else "resolve.hits", 1)
    trace.add("resolve.generators", sum(len(ix.gen_degrees) for ix in res.indexers))
    trace.add("resolve.diff_bits", sum(
        res.ambient_dim(s, t) * res.indexers[s].dim(t)
        for s in range(res.max_s + 1)
        for t in range(res.max_t + 1)
    ))
    trace.metrics["resolve.cache_bytes"] = sum(size for size, _ in after.values())
    return res


def _emit(text: str, trace: Trace) -> None:
    sys.stdout.write(text)
    sys.stdout.flush()
    trace.add("render.output_bytes", len(text.encode()))


def _resolve_scenario(args, cache_dir: str, trace: Trace):
    """The first half of ``build_scenario``: map, factor, three resolutions."""
    spec = ScenarioSpec(args.kind, args.max_s, args.max_t)
    with trace.span("steenrod.algebra_s"):
        alg = AlgebraTable(spec.max_t)
    with trace.span("scenarios.map_s"):
        f = scenario_map(spec, alg)
    with trace.span("gradedmod.factor_s"):
        fac = factor_map(f)
    res = [_cached_resolution(m, spec.max_s, spec.max_t, cache_dir, trace)
           for m in (fac.K, fac.I, fac.C)]
    return spec, fac, res


def traced_scenario(args, cache_dir: str, trace: Trace) -> int:
    spec, fac, (res_k, res_i, res_c) = _resolve_scenario(args, cache_dir, trace)
    with trace.span("lescalc.lift_s"):
        lift_ik = horseshoe_lift(fac.kernel_sequence(), res_k, res_i)
        lift_ci = horseshoe_lift(fac.cokernel_sequence(), res_i, res_c)
    with trace.span("lescalc.verify_s"):
        lift_ik.verify()
        lift_ci.verify()
    with trace.span("lescalc.boundary_s"):
        d_ik = connecting_map(lift_ik)
        d_ci = connecting_map(lift_ci)
        beta = compose_boundaries(d_ik, d_ci)
    with trace.span("scenarios.assemble_s"):
        e3, report = assemble_e3(beta, expected_pattern(spec))
        result = ScenarioResult(spec, fac, res_k, res_i, res_c, d_ik, d_ci, beta, report, e3)
        if e3 is None:
            return 1
        diff = verify_scenario(result)
    with trace.span("render.emit_s"):
        _emit(render.dump_json(render.scenario_json(result, diff)), trace)
    return 1 if diff else 0


def traced_resolve(args, cache_dir: str, trace: Trace) -> int:
    if args.module != "f2":
        raise SystemExit(f"trace: unsupported module {args.module!r}")
    with trace.span("steenrod.algebra_s"):
        alg = AlgebraTable(args.max_t)
    module = trivial_module(alg, args.max_t)
    res = _cached_resolution(module, args.max_s, args.max_t, cache_dir, trace)
    chart = res.chart()
    with trace.span("render.emit_s"):
        _emit(render.dump_json(render.ext_chart_json(chart, kind="F2")), trace)
    return 0


def _parse(argv: list[str]):
    """The subset of the extlab command line the benchmark workloads use."""
    parser = argparse.ArgumentParser(prog="child.py")
    parser.add_argument("command", choices=("resolve", "scenario"))
    parser.add_argument("--module")
    parser.add_argument("--kind")
    parser.add_argument("--max-s", type=int, required=True)
    parser.add_argument("--max-t", type=int, required=True)
    parser.add_argument("--format", choices=("json",), required=True)
    return parser.parse_args(argv)


def main() -> None:
    mode, report_path, cache_dir, *argv = sys.argv[1:]
    args = _parse(argv)
    trace = Trace()
    t_call = time.monotonic()
    if mode == "cli":
        code = cli_main(argv + ["--cache-dir", cache_dir])
        sys.stdout.flush()
    elif mode == "trace":
        run = traced_scenario if args.command == "scenario" else traced_resolve
        code = run(args, cache_dir, trace)
    elif mode == "fill" and args.command == "scenario":
        _resolve_scenario(args, cache_dir, trace)
        code = 0
    else:
        raise SystemExit(f"unknown mode {mode!r} for {args.command!r}")
    t_end = time.monotonic()
    report = {
        "t_call": t_call,
        "t_end": t_end,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "trace": trace.metrics,
    }
    with open(report_path, "w") as fh:
        json.dump(report, fh)
    sys.exit(code)


if __name__ == "__main__":
    main()
