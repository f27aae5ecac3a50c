"""thzlink benchmark: run one seeded workload and print its metrics.

    python3 perfbench/run.py --workload spectrum --seed 1 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` wraps the library's layer boundaries and reports per-layer
self time, call counts and exact work counts. ``--smoke`` runs the same
code on tiny inputs. The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``. The exit code
is 0 when every operation matched the oracle, 1 when one did not, and 2
when nothing could be measured. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

from tracer import COUNTS, SPANS, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".bench_build" / "perfbench"

WORKLOAD_NAMES = ("spectrum", "capacity-sweeps", "large-catalog",
                  "point-queries")

END_TO_END = {"setup_s": "s", "run_s": "s", "peak_rss_mb": "MiB"}

# Fresh interpreters timed for setup_s at least, after one that compiles
# bytecode; an untraced run takes one after each timed pass.
SETUP_SAMPLES = 7

# Reference loop of HostSpeed: its iterations, and the time it is scaled to.
REFERENCE_ITERATIONS = 3000
REFERENCE_S = 0.02
# Operation time between two runs of the reference loop within a pass.
SEGMENT_S = 0.25

# Timed passes per untraced run at least, whatever --seconds says.
MIN_PASSES = 3


def _between(lo, hi):
    return (f"{lo}-{hi} %", lo, hi)


def _about(x):
    return (f"~{x} %", 0.75 * x, 1.25 * x)  # "~x" is met within x +- 25 %


# Self-time shares predicted before measuring, of one traced pass ("pass")
# or of import + load_scenario ("setup"). Reported as met or missed.
PREDICTIONS = [
    ("spectrum", ("sweep.sweep_pathloss_vs_frequency",), "pass", _about(65)),
    ("spectrum", ("propagation.dielectric_path_loss",), "pass", _about(15)),
    ("spectrum", ("cli.render_csv",), "pass", _about(12)),
    ("spectrum", ("kernels.kappa_totals",), "pass", _about(3)),
    ("capacity-sweeps", ("kernels.pack_lines",), "pass", _between(14, 18)),
    ("capacity-sweeps", ("kernels.kappa_totals",), "pass", _about(25)),
    ("capacity-sweeps", ("capacity.psi_coefficients",), "pass",
     _between(22, 33)),
    ("capacity-sweeps", ("capacity.water_filling",), "pass",
     _between(11, 13)),
    ("capacity-sweeps", ("capacity.allocation_capacity",
                         "capacity.channel_capacity",
                         "capacity.flat_allocation_capacity"), "pass",
     _between(5, 8)),
    ("large-catalog", ("kernels.kappa_totals",), "pass", _about(65)),
    ("large-catalog", ("spectro.parse_line_catalog",), "setup",
     ("most", 50, 100)),
    ("point-queries", ("kernels.pack_lines",), "pass", _between(14, 18)),
    ("point-queries", ("absorption.kappa_over_grid",
                       "absorption.medium_kappa"), "pass", _about(30)),
    ("point-queries", ("capacity.psi_coefficients",), "pass",
     _between(22, 33)),
] + [(name, ("config.load_scenario",), "setup", ("small", 0, 10))
     for name in WORKLOAD_NAMES]


class SetupError(RuntimeError):
    """The library or the workload's inputs could not be set up."""


def from_src(module_file: str) -> bool:
    return Path(module_file).resolve().parent.parent == SRC.resolve()


def import_library() -> float:
    """Import thzlink from this checkout's src/; return the import time."""
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    try:
        import thzlink
    except ImportError as exc:
        raise SetupError(f"cannot import thzlink from {SRC}: {exc}") from exc
    import_s = time.perf_counter() - start
    if not from_src(thzlink.__file__):
        raise SetupError(f"thzlink came from {thzlink.__file__}, not {SRC}")
    return import_s


def per_layer_units() -> dict[str, str]:
    units = {}
    for span in SPANS:
        units[f"{span}.self_s"] = "s"
        units[f"{span}.calls"] = "count"
    for name in COUNTS:
        units[name] = "B" if name.endswith(".bytes") else "count"
    units.update({"spectro.keep_ratio": "1",
                  "kernels.kappa_totals.pairs_per_s": "1/s",
                  "trace.run_s": "s", "trace.untraced_run_s": "s",
                  "trace.overhead_s": "s", "trace.spans": "count"})
    return units


class SetupProbe:
    """Times set-up in fresh interpreters; the first call, which compiles
    bytecode, is run but not kept."""

    def __init__(self, catalog_path: str | None):
        self.env = {k: v for k, v in os.environ.items() if k != "THZ_CATALOG"}
        self.env["PYTHONPATH"] = str(SRC)
        self.command = [sys.executable, str(HERE / "setup_probe.py")]
        if catalog_path is not None:
            self.command.append(catalog_path)
        self.times: list[float] = []
        self.sample()
        self.times.clear()

    def sample(self) -> float:
        done = subprocess.run(self.command, env=self.env, cwd=ROOT,
                              capture_output=True, text=True, timeout=120)
        if done.returncode != 0:
            raise SetupError(f"set-up probe failed:\n{done.stderr}")
        probe = json.loads(done.stdout.strip().splitlines()[-1])
        if not from_src(probe["module"]):
            raise SetupError(f"set-up probe imported {probe['module']}")
        self.times.append(probe["setup_s"])
        return probe["setup_s"]


class Pass:
    """One pass over the workload's operations, timed whole and per op.

    With a HostSpeed, the reference loop also runs after every stretch of
    at least SEGMENT_S of operations, outside the timed spans, and
    ``scaled_s`` sums the stretches rescaled to the reference speed.
    """

    def __init__(self, ops, speed=None):
        self.outputs = []
        self.op_s = []
        self.errors = {}
        self.scaled_s = 0.0
        clock = time.perf_counter
        segment_s = 0.0
        for index, op in enumerate(ops):
            op_start = clock()
            try:
                output = op.run()
            except Exception:  # the run goes on; the op counts as failed
                output = None
                self.errors[index] = traceback.format_exc()
            self.op_s.append(clock() - op_start)
            self.outputs.append(output)
            segment_s += self.op_s[-1]
            if speed is not None and (segment_s >= SEGMENT_S
                                      or index == len(ops) - 1):
                self.scaled_s += speed.scale(segment_s)
                segment_s = 0.0
        self.wall_s = math.fsum(self.op_s)


class Checker:
    """Oracle and determinism checks over every pass of one run."""

    def __init__(self, workload, scenario):
        self.workload = workload
        self.scenario = scenario
        self.reference: list[str | None] | None = None
        self.passes = 0
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def __call__(self, done: Pass) -> None:
        workload = self.workload
        rng = workload.oracle_rng(self.passes)
        failed = dict(done.errors)
        prints = [None if out is None else workload.fingerprint(out)
                  for out in done.outputs]
        if self.reference is None:
            self.reference = prints
        for index, (now, first) in enumerate(zip(prints, self.reference)):
            if now is not None and first is not None and now != first:
                failed[index] = "output differs from the first pass"
        for index in workload.to_check(len(done.outputs), rng):
            output = done.outputs[index]
            if output is not None:
                problems = workload.check(self.scenario, index, output, rng)
                if problems:
                    failed[index] = "; ".join(problems)
        self.attempted += len(done.outputs)
        self.failed += len(failed)
        self.messages += [f"pass {self.passes} op {index}: {why}"
                          for index, why in sorted(failed.items())]
        self.passes += 1

    def output_sha256(self, ops) -> dict[str, str]:
        """sha256 per operation label of the first pass's outputs: the
        rendered CSV for a sweep, the joined answers for point queries."""
        by_label: dict[str, list[str]] = {}
        for op, fingerprint in zip(ops, self.reference or []):
            by_label.setdefault(op.label, []).append(str(fingerprint))
        return {label: prints[0] if len(prints) == 1 else
                hashlib.sha256("\n".join(prints).encode()).hexdigest()
                for label, prints in by_label.items()}


def run_passes(ops, check, seconds, min_passes, before=None, after=None,
               speed=None):
    """Passes until both ``seconds`` of pass time and ``min_passes``."""
    passes = []
    while (sum(p.wall_s for p in passes) < seconds
           or len(passes) < min_passes):
        if before is not None:
            before(len(passes))
        done = Pass(ops, speed)
        if after is not None:
            after(done)
        check(done)
        done.outputs = None  # keep the timings only
        passes.append(done)
    return passes


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def print_rows(rows) -> None:
    widths = [max(len(str(row[i])) for row in rows)
              for i in range(len(rows[0]))]
    for row in rows:
        print("  ".join(str(c).ljust(w) for c, w in zip(row, widths)).rstrip())


_REFERENCE_X = np.linspace(1.0, 3.0, 64)


def reference_loop_s() -> float:
    """Time a fixed loop of scalar math, small numpy calls and string
    formatting, the kinds of work a pass does, but none of thzlink's."""
    start = time.perf_counter()
    rows = []
    for i in range(REFERENCE_ITERATIONS):
        f = 1.0e12 + i * 1.0e8
        level = 20.0 * math.log10(f) + math.sqrt(i + 1.0)
        total = float(np.exp(-_REFERENCE_X * (i % 7 + 1)).sum())
        rows.append(f"{f:.6e},{level:.6f},{total:.6f}")
    "\n".join(rows)
    return time.perf_counter() - start


class HostSpeed:
    """Rescales wall times to a host of fixed speed.

    The reference loop is timed before the first step and after each one;
    a step's wall time is multiplied by REFERENCE_S over the mean of the
    two reference times around it. Slow phases of a shared host stretch
    both alike, so the ratio holds where the wall time does not.
    """

    def __init__(self):
        reference_loop_s()  # warm-up
        self.last = reference_loop_s()
        self.loops: list[float] = []

    def scale(self, wall_s: float) -> float:
        now = reference_loop_s()
        self.loops.append(now)
        around = 0.5 * (self.last + now)
        self.last = now
        return wall_s * REFERENCE_S / around


def untraced_metrics(args, workload, ops, checker, probe, setup_samples
                     ) -> dict[str, float]:
    """Timed passes, each followed by one set-up sample, until --seconds
    have passed, all on one CPU, with the host's speed read around each."""
    cpus = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpus[-1]})  # set-up samples inherit it
    passes: list[Pass] = []
    pass_s: list[float] = []
    setup_s: list[float] = []
    start = time.perf_counter()
    try:
        speed = HostSpeed()
        while (time.perf_counter() - start < args.seconds
               or len(passes) < MIN_PASSES
               or len(setup_s) < setup_samples):
            passes += run_passes(ops, checker, 0.0, 1, speed=speed)
            pass_s.append(passes[-1].scaled_s)
            if len(passes) == MIN_PASSES:
                # read after a fixed number of passes, so a faster pass,
                # which fits more passes into --seconds, cannot raise it
                # through heap growth
                peak_rss_mb = peak_rss_mib()
            setup_s.append(speed.scale(probe.sample()))
    finally:
        os.sched_setaffinity(0, cpus)
    walls = [p.wall_s for p in passes]
    setup_times = probe.times
    metrics = {"setup_s": statistics.median(setup_s),
               "run_s": statistics.median(pass_s),
               "peak_rss_mb": peak_rss_mb}
    q1, _median, q3 = statistics.quantiles(walls, n=4)
    rows = [("metric", "value", "unit", "samples"),
            ("setup_s", f"{metrics['setup_s']:.4f}", "s",
             f"median of {len(setup_s)} fresh processes, rescaled; "
             f"unscaled {statistics.median(setup_times):.4f}"),
            ("run_s", f"{metrics['run_s']:.4f}", "s",
             f"median of {len(pass_s)} passes, rescaled; unscaled "
             f"{statistics.median(walls):.4f} (q1 {q1:.4f}, q3 {q3:.4f})"),
            ("reference_loop_s", f"{statistics.median(speed.loops):.5f}",
             "s", f"median of {len(speed.loops)}; rescaled to "
             f"{REFERENCE_S}"),
            ("peak_rss_mb", f"{metrics['peak_rss_mb']:.1f}", "MiB",
             f"high-water mark after the warm-up and {MIN_PASSES} passes"),
            ("error_ratio", f"{checker.failed / checker.attempted:.4g}", "1",
             f"{checker.failed} failed of {checker.attempted} operations")]
    if workload.name == "point-queries":
        latencies = [s * 1e3 for p in passes for s in p.op_s]
        p99 = statistics.quantiles(latencies, n=100)[98]
        beyond = sum(1 for x in latencies if x > p99)
        rows += [("query_p50_ms", f"{statistics.median(latencies):.4f}",
                  "ms", f"{len(latencies)} queries in {len(walls)} passes"),
                 ("query_p99_ms", f"{p99:.4f}", "ms",
                  f"{len(latencies)} queries, {beyond} beyond p99")]
    print(f"workload {workload.name}, seed {args.seed}, untraced")
    print_rows(rows)
    return metrics


def traced_metrics(args, workload, ops, checker, tracer, setup_stats,
                   setup_base_s) -> dict[str, float]:
    untraced = run_passes(ops, checker, args.seconds / 3.0, 2)
    per_pass = []

    def before(index):
        tracer.pass_id = index + 1  # pass 0 is the set-up
        tracer.keep_spans = index == 0  # raw spans of one pass suffice
        tracer.install()

    def after(done):
        tracer.restore()
        per_pass.append(tracer.take())

    traced = run_passes(ops, checker, args.seconds * 2.0 / 3.0, 2,
                        before, after)
    spans_path = WORKDIR / f"spans-{workload.name}-seed{args.seed}.csv"
    tracer.write_spans(spans_path)

    run_s = statistics.median(p.wall_s for p in traced)
    untraced_s = statistics.median(p.wall_s for p in untraced)
    first = per_pass[0]
    exact = all(p["calls"] == first["calls"] and p["counts"] == first["counts"]
                for p in per_pass)
    metrics = {}
    for span in SPANS:
        metrics[f"{span}.self_s"] = (
            setup_stats["self_s"].get(span, 0.0)
            + statistics.median(p["self_s"].get(span, 0.0) for p in per_pass))
        metrics[f"{span}.calls"] = (setup_stats["calls"].get(span, 0)
                                    + first["calls"].get(span, 0))
    for name in COUNTS:
        metrics[name] = (setup_stats["counts"].get(name, 0)
                         + first["counts"].get(name, 0))
    read = metrics["spectro.records_read"]
    metrics["spectro.keep_ratio"] = (metrics["spectro.lines_kept"] / read
                                     if read else 0.0)
    kernel_s = metrics["kernels.kappa_totals.self_s"]
    metrics["kernels.kappa_totals.pairs_per_s"] = (
        metrics["kernels.kappa_totals.pairs"] / kernel_s if kernel_s else 0.0)
    metrics["trace.run_s"] = run_s
    metrics["trace.untraced_run_s"] = untraced_s
    metrics["trace.overhead_s"] = run_s - untraced_s
    metrics["trace.spans"] = sum(first["calls"].values())

    print(f"workload {workload.name}, seed {args.seed}, traced: one "
          f"load_scenario plus the median of {len(traced)} traced passes")
    base = {"pass": run_s, "setup": setup_base_s}
    rows = [("span", "self_s", "calls", "share %", "of")]
    for span in SPANS:
        basis = "setup" if span in setup_stats["calls"] else "pass"
        rows.append((span, f"{metrics[f'{span}.self_s']:.6f}",
                     metrics[f"{span}.calls"],
                     f"{100 * metrics[f'{span}.self_s'] / base[basis]:.2f}",
                     basis))
    print_rows(rows)
    print_rows([("count", "value")] + [
        (name, metrics[name]) for name in COUNTS + [
            "spectro.keep_ratio", "kernels.kappa_totals.pairs_per_s",
            "trace.spans"]])
    print(f"counts repeat exactly across {len(per_pass)} traced passes: "
          f"{exact}")
    print(f"tracing overhead: traced run_s {run_s:.4f} s - untraced run_s "
          f"{untraced_s:.4f} s = {run_s - untraced_s:.4f} s")
    rows = [("prediction", "share of", "measured %", "predicted", "verdict")]
    for name, spans, basis, (text, lo, hi) in PREDICTIONS:
        if name == workload.name:
            share = 100 * sum(metrics[f"{s}.self_s"] for s in spans) / \
                base[basis]
            rows.append((" + ".join(spans), basis, f"{share:.1f}", text,
                         "met" if lo <= share <= hi else "missed"))
    print_rows(rows)
    print(f"spans of the first traced pass: "
          f"{os.path.relpath(spans_path, ROOT)}")
    return metrics


def provenance(args, workload, scenario, checker, ops) -> dict:
    import numpy
    from thzlink import config, kernels
    if workload.catalog_path is None:
        source = "bundled"
        digest = hashlib.sha256(
            config.read_bundled_catalog().encode("ascii")).hexdigest()
    else:
        source = os.path.relpath(workload.catalog_path, ROOT)
        digest = hashlib.sha256(
            Path(workload.catalog_path).read_bytes()).hexdigest()
    return {"workload": workload.name, "seed": args.seed,
            "trace": args.trace, "smoke": args.smoke,
            "seconds": args.seconds, "nproc": os.cpu_count(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "backend": kernels.active_backend(),
            "numba_available": kernels.NUMBA_AVAILABLE,
            "catalog": {"source": source, "sha256": digest},
            "medium_lines": len(scenario.medium.lines),
            "output_sha256": checker.output_sha256(ops)}


def measure(args, workload, import_s) -> int:
    if args.trace:
        tracer = Tracer()
        tracer.install()
        try:
            start = time.perf_counter()
            scenario = workload.load()
            load_s = time.perf_counter() - start
        finally:
            tracer.restore()
        setup_stats = tracer.take()
    else:
        probe = SetupProbe(workload.catalog_path)
        scenario = workload.load()
    ops = workload.ops(scenario)
    checker = Checker(workload, scenario)
    run_passes(ops, checker, 0.0, 1)  # warm-up: checked, not timed
    if args.trace:
        metrics = traced_metrics(args, workload, ops, checker, tracer,
                                 setup_stats, import_s + load_s)
        units = per_layer_units()
    else:
        metrics = untraced_metrics(args, workload, ops, checker, probe,
                                   1 if args.smoke else SETUP_SAMPLES)
        units = END_TO_END
    print("provenance " + json.dumps(
        provenance(args, workload, scenario, checker, ops), sort_keys=True))
    for message in checker.messages[:20]:
        print(f"mismatch: {message}", file=sys.stderr)
    correct = checker.failed == 0
    print(json.dumps({
        "correct": correct, "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()}}))
    return 0 if correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="pass time measured per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs through the same code")
    args = parser.parse_args(argv)
    os.environ.pop("THZ_CATALOG", None)  # each workload names its catalog

    workload = None
    try:
        import_s = import_library()
        from workloads import WORKLOADS
        workload = WORKLOADS[args.workload](args.seed, args.smoke)
        WORKDIR.mkdir(parents=True, exist_ok=True)
        workload.prepare(WORKDIR)
        return measure(args, workload, import_s)
    except (SetupError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        if workload is not None and workload.catalog_path is not None:
            Path(workload.catalog_path).unlink(missing_ok=True)


if __name__ == "__main__":
    sys.exit(main())
