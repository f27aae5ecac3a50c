"""Spans around thzlink's public functions, installed from outside.

The tracer wraps each function in ``TARGETS`` and records one span per
call: name, start, end, parent span and pass id. A span's self time is its
duration minus the time its child spans cover. Modules bind names with
``from .x import f``, so the wrapper replaces every ``thzlink.*`` module
attribute that *is* the target function object, and ``restore`` puts the
originals back.
"""

from __future__ import annotations

import csv
import functools
import importlib
import sys
import time
from collections import defaultdict
from pathlib import Path

GAP_REASONS = ("two-ray-null", "opaque")


def _pairs(counts, args, kwargs, result):
    lines = args[1] if len(args) > 1 else kwargs["lines"]
    counts["kernels.kappa_totals.pairs"] += len(lines) * result.size


def _records(counts, args, kwargs, result):
    raw_text = args[0] if args else kwargs["raw_text"]
    counts["spectro.records_read"] += sum(1 for record in raw_text.split("\n")
                                          if record)
    counts["spectro.lines_kept"] += len(result)


def _rows(counts, args, kwargs, result):
    counts["sweep.rows"] += len(result.points)
    for reason in GAP_REASONS:
        counts[f"sweep.gap_rows.{reason}"] += len(
            {x for x, _column, why in result.gaps if why == reason})


def _bytes(counts, args, kwargs, result):
    counts["cli.render_csv.bytes"] += len(result.encode("ascii"))


# The layer boundaries: thzlink module -> traced functions -> count hook.
TARGETS = {
    "config": {"load_scenario": None},
    "spectro": {"parse_line_catalog": _records},
    "kernels": {"pack_lines": None, "kappa_totals": _pairs},
    "absorption": {"kappa_over_grid": None, "medium_kappa": None},
    "propagation": {"dielectric_path_loss": None, "total_path_loss": None,
                    "link_budget_db": None},
    "capacity": {"psi_coefficients": None, "water_filling": None,
                 "allocation_capacity": None, "channel_capacity": None,
                 "flat_allocation_capacity": None},
    "sweep": {name: _rows for name in (
        "sweep_pathloss_vs_frequency", "sweep_capacity_vs_frequency",
        "sweep_vs_temperature", "sweep_vs_pressure",
        "sweep_capacity_vs_distance")},
    "cli": {"render_csv": _bytes},
}

SPANS = [f"{module}.{name}" for module, names in TARGETS.items()
         for name in names]

COUNTS = (["spectro.records_read", "spectro.lines_kept",
           "kernels.kappa_totals.pairs", "sweep.rows"]
          + [f"sweep.gap_rows.{reason}" for reason in GAP_REASONS]
          + ["cli.render_csv.bytes"])


class Tracer:
    """Span recorder; aggregates self time and calls by span name."""

    def __init__(self):
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(int)
        self.spans: list[tuple] = []
        self.pass_id = 0
        self.keep_spans = True
        self._stack: list[list] = []
        self._next_id = 0
        self._patched: list[tuple] = []

    def take(self) -> dict:
        """Return the aggregates since the last call and reset them."""
        taken = {"self_s": dict(self.self_s), "calls": dict(self.calls),
                 "counts": dict(self.counts)}
        self.self_s.clear()
        self.calls.clear()
        self.counts.clear()
        return taken

    def _wrap(self, name, fn, count):
        clock = time.perf_counter
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1][0] if stack else -1
            frame = [span_id, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                self.self_s[name] += duration - frame[1]
                self.calls[name] += 1
                if self.keep_spans:
                    self.spans.append((span_id, name, start, end, parent,
                                       self.pass_id))
            if count is not None:
                count(self.counts, args, kwargs, result)
            return result
        return wrapper

    def install(self) -> None:
        modules = [module for name, module in list(sys.modules.items())
                   if name == "thzlink" or name.startswith("thzlink.")]
        for module_name, names in TARGETS.items():
            home = importlib.import_module(f"thzlink.{module_name}")
            for name, count in names.items():
                original = getattr(home, name)
                wrapper = self._wrap(f"{module_name}.{name}", original,
                                     count)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                            self._patched.append((module, attr, original))

    def restore(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def write_spans(self, path: Path) -> None:
        with open(path, "w", newline="", encoding="ascii") as handle:
            writer = csv.writer(handle)
            writer.writerow(["span", "name", "start_s", "end_s", "parent",
                             "pass"])
            writer.writerows(self.spans)
