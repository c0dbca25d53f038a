#!/usr/bin/env python3
"""The extlab benchmark: two command-line workloads, timed end to end
with tracing off, and per layer in a separate traced run.

    python3 perfbench/run.py --workload fiber-f-warm --seed 1 --seconds 50 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 50 --trace 1
    python3 perfbench/run.py --workload all --record    # rewrite reference.json

Run it from the root of a checkout; it uses the sources under ``src/``.
Every sample is a fresh interpreter running ``child.py``, one at a time
(closed loop, one client), always with an explicit ``--cache-dir`` under
``.perfbench-tmp/``: a fresh empty one per sample on the cold workload,
one filled during set-up on the warm one.  Samples are taken while the next
one, as long as the last, still ends within ``--seconds``, and at least
``MIN_SAMPLES`` of them.

The gated wall-clock metric is ``wall_mean_s``, the mean over the samples
of a run: their summed time divided by their count.  On a shared host,
other tenants make single samples up to twice as slow, for minutes at a
time; the mean averages that over the whole run, where the median and the
fastest sample each rest on one sample and moved more between runs of the
same code.  The median, its sample count and a tail percentile are printed
on the human-readable lines.

A sample fails when its exit code is not 0, when the sha256 of its stdout
differs from ``reference.json``, or when the cache directory it ran against
does not hold exactly the reference files.  The seed only orders the runs
(workloads under ``all``, traced against untraced samples under
``--trace 1``); extlab always receives the fixed arguments below.

Human-readable lines go first; the last line of stdout is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  A copy of it,
with the samples and the machine (Python, git SHA, nproc, CPU model), is
written to ``.perfbench-results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE = HERE / "reference.json"
MIN_SAMPLES = 3
SETUP_REPEATS = 3  # cache fills per warm run; setup_s is their median
CHILD_TIMEOUT_S = 150

@dataclass(frozen=True)
class Workload:
    argv: tuple[str, ...]
    warm: bool  # run against a cache directory filled during set-up


WORKLOADS = {
    "ext-f2": Workload(
        ("resolve", "--module", "f2", "--max-s", "18", "--max-t", "46", "--format", "json"),
        warm=False,
    ),
    "fiber-f-warm": Workload(
        ("scenario", "--kind", "f", "--max-s", "14", "--max-t", "38", "--format", "json"),
        warm=True,
    ),
}

END_TO_END = {"wall_mean_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "steenrod.algebra_s": "s",
    "scenarios.map_s": "s",
    "gradedmod.factor_s": "s",
    "resolve.cached_s": "s",
    "resolve.hits": "count",
    "resolve.misses": "count",
    "resolve.cache_bytes": "bytes",
    "resolve.generators": "count",
    "resolve.diff_bits": "count",
    "lescalc.lift_s": "s",
    "lescalc.verify_s": "s",
    "lescalc.boundary_s": "s",
    "scenarios.assemble_s": "s",
    "render.emit_s": "s",
    "render.output_bytes": "bytes",
    "trace.total_s": "s",
    "trace.overhead_s": "s",
}


@dataclass
class Run:
    """Everything one workload run observed."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    setup: list[float] = field(default_factory=list)
    wall: list[float] = field(default_factory=list)
    rss_mb: list[float] = field(default_factory=list)
    traced: list[dict[str, float]] = field(default_factory=list)

    def record(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems)


def cache_digests(cache_dir: Path) -> dict[str, str]:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(cache_dir.iterdir())}


def child_env(tmp: Path) -> dict[str, str]:
    env = dict(os.environ)
    env.pop("EXTLAB_CACHE", None)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    env["TMPDIR"] = str(tmp)
    return env


class Runner:
    """Starts child processes and checks their output against a reference."""

    def __init__(self, tmp: Path, references: dict, record: bool):
        self.tmp = tmp
        self.env = child_env(tmp)
        self.references = references
        self.record = record

    def fresh_dir(self) -> Path:
        return Path(tempfile.mkdtemp(prefix="cache-", dir=self.tmp))

    def spawn(self, mode: str, argv: tuple[str, ...], cache_dir: Path):
        """Run one child to completion; returns (report or None, stdout, stderr)."""
        report_path = self.tmp / "report.json"
        report_path.unlink(missing_ok=True)
        cmd = [sys.executable, str(HERE / "child.py"), mode, str(report_path),
               str(cache_dir), *argv]
        t_spawn = time.monotonic()
        proc = subprocess.run(cmd, capture_output=True, env=self.env, cwd=self.tmp,
                              timeout=CHILD_TIMEOUT_S, check=False)
        report = json.loads(report_path.read_text()) if report_path.exists() else None
        if report is not None:
            report["setup_s"] = report["t_call"] - t_spawn
            report["wall_s"] = report["t_end"] - report["t_call"]
            report["code"] = proc.returncode
        return report, proc.stdout, proc.stderr

    def check(self, argv, report, stdout: bytes, stderr: bytes, cache_dir: Path,
              with_stdout: bool = True) -> list[str]:
        """Problems with one sample; an empty list means it passed."""
        key = " ".join(argv)
        if report is None or report["code"] != 0:
            tail = stderr.decode(errors="replace").strip().splitlines()[-3:]
            return [f"{key}: exit {report and report['code']}: {' | '.join(tail)}"]
        got = {"cache": cache_digests(cache_dir)}
        if with_stdout:
            got["stdout"] = hashlib.sha256(stdout).hexdigest()
        if self.record:
            for part, digest in got.items():
                self.references.setdefault(key, {}).setdefault(part, digest)
        want = self.references.get(key)
        if want is None:
            return [f"{key}: no reference digests"]
        return [f"{key}: {part} digest differs from the reference"
                for part in got if got[part] != want.get(part)]


def measure(runner: Runner, wl: Workload, seconds: float, trace: bool, seed: int) -> Run:
    run = Run()
    warm_dir = None
    if wl.warm:
        for _ in range(1 if trace else SETUP_REPEATS):
            fill_dir = runner.fresh_dir()
            report, out, err = runner.spawn("fill", wl.argv, fill_dir)
            run.record(runner.check(wl.argv, report, out, err, fill_dir, with_stdout=False))
            if report is not None:
                run.setup.append(report["setup_s"] + report["wall_s"])
            if warm_dir is not None:
                shutil.rmtree(warm_dir)
            warm_dir = fill_dir

    modes = ["cli", "trace"] if trace else ["cli"]
    random.Random(seed).shuffle(modes)
    start = time.monotonic()
    took = 0.0  # how long the last sample took
    i = 0
    while i < MIN_SAMPLES * len(modes) or time.monotonic() - start + took <= seconds:
        mode = modes[i % len(modes)]
        i += 1
        cache_dir = warm_dir or runner.fresh_dir()
        t_sample = time.monotonic()
        report, out, err = runner.spawn(mode, wl.argv, cache_dir)
        took = time.monotonic() - t_sample
        run.record(runner.check(wl.argv, report, out, err, cache_dir))
        if cache_dir != warm_dir:
            shutil.rmtree(cache_dir)
        if report is None:
            continue
        if mode == "trace":
            run.traced.append({**report["trace"], "trace.total_s": report["wall_s"]})
            continue
        run.wall.append(report["wall_s"])
        run.rss_mb.append(report["maxrss_kb"] / 1024)
        if not wl.warm:
            run.setup.append(report["setup_s"])
    if warm_dir is not None:
        shutil.rmtree(warm_dir)
    return run


def tail_percentile(values: list[float]):
    """The highest of p99 and p90 with at least ten samples above it, or None."""
    for p in (99, 90):
        if len(values) * (100 - p) / 100 >= 10:
            return p, statistics.quantiles(values, n=100)[p - 1]
    return None


def metrics_of(run: Run, trace: bool) -> dict[str, float]:
    if not trace:
        return {
            "wall_mean_s": statistics.fmean(run.wall),
            "setup_s": statistics.median(run.setup),
            "peak_rss_mb": statistics.median(run.rss_mb),
        }
    out = {name: statistics.median(t.get(name, 0) for t in run.traced) for name in PER_LAYER
           if name != "trace.overhead_s"}
    out["trace.overhead_s"] = out["trace.total_s"] - statistics.median(run.wall)
    return out


def summary_lines(name: str, run: Run, metrics: dict[str, float], trace: bool) -> list[str]:
    lines = [f"{name}: failed_frac {run.failed}/{run.attempted} = "
             f"{run.failed / run.attempted:.3f}"]
    if trace:
        for metric, value in metrics.items():
            lines.append(f"{name}: {metric} {value:.6g} {PER_LAYER[metric]} "
                         f"(median, n={len(run.traced)})")
        return lines
    lines.append(f"{name}: wall_mean_s {metrics['wall_mean_s']:.6g} s "
                 f"(mean, n={len(run.wall)})")
    samples = {"wall_s": run.wall, "setup_s": run.setup, "peak_rss_mb": run.rss_mb}
    for metric, values in samples.items():
        line = (f"{name}: {metric} {statistics.median(values):.6g} "
                f"{END_TO_END.get(metric, 's')} (median, n={len(values)})")
        tail = tail_percentile(values)
        if tail:
            line += f", p{tail[0]} {tail[1]:.6g}"
        lines.append(line)
    return lines


def machine() -> dict[str, object]:
    # The ceiling keeps git from reading a repository above the checkout.
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                             cwd=ROOT, env=env, timeout=30, check=False).stdout.strip()
    except OSError:
        sha = ""
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "git_sha": sha or "unknown",
        "nproc": os.cpu_count(),
        "cpu_model": cpu or "unknown",
    }


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=50)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help=f"write observed digests to {REFERENCE.name} instead of checking")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "extlab" / "cli.py").is_file():
        sys.stderr.write(f"run.py: no extlab sources under {ROOT / 'src'}; "
                         "run from the root of an extlab checkout\n")
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    random.Random(args.seed).shuffle(names)
    references = {} if args.record else json.loads(REFERENCE.read_text())
    trace = bool(args.trace)

    tmp_root = ROOT / ".perfbench-tmp"
    tmp_root.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="run-", dir=tmp_root))
    try:
        runner = Runner(tmp, references, args.record)
        runs = {name: measure(runner, WORKLOADS[name], args.seconds, trace, args.seed)
                for name in names}
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp_root.rmdir()
        except OSError:
            pass  # another run is still using it

    env = machine()
    print("machine: " + ", ".join(f"{k} {v}" for k, v in env.items()))
    metrics: dict[str, dict[str, object]] = {}
    units = PER_LAYER if trace else END_TO_END
    for name, run in runs.items():
        values = metrics_of(run, trace)
        print("\n".join(summary_lines(name, run, values, trace)))
        for problem in run.problems[:5]:
            print(f"{name}: FAILED {problem}")
        prefix = f"{name}." if args.workload == "all" else ""
        metrics.update({prefix + m: {"value": v, "unit": units[m]} for m, v in values.items()})
    result = {
        "correct": all(run.failed == 0 for run in runs.values()),
        "attempted": sum(run.attempted for run in runs.values()),
        "failed": sum(run.failed for run in runs.values()),
        "metrics": metrics,
    }
    if args.record:
        REFERENCE.write_text(json.dumps(references, indent=2, sort_keys=True) + "\n")
    results_dir = ROOT / ".perfbench-results"
    results_dir.mkdir(exist_ok=True)
    detail = {"args": vars(args), "machine": env, **result,
              "samples": {name: vars(run) for name, run in runs.items()}}
    out = results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(detail, indent=2) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
