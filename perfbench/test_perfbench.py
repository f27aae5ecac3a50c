"""Tests of the benchmark harness, on its tiny --smoke inputs.

    PYTHONPATH=src python -m pytest -q perfbench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def bench(*args, cwd=ROOT):
    command = [sys.executable, str(Path(cwd) / "perfbench" / "run.py"),
               "--seconds", "0.2", *args]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True,
                          timeout=170)


def result_of(done):
    assert done.returncode == 0, done.stderr
    return done.stdout, json.loads(done.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def declared():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def units_of(entries):
    return {entry["name"]: entry["unit"] for entry in entries}


def test_benchmark_json_matches_the_harness(declared):
    assert [w["name"] for w in declared["workloads"]] == list(
        run.WORKLOAD_NAMES)
    assert units_of(declared["end_to_end"]) == run.END_TO_END
    assert units_of(declared["per_layer"]) == run.per_layer_units()


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_untraced_smoke_reports_every_end_to_end_metric(name, declared):
    stdout, result = result_of(bench("--workload", name, "--seed", "3",
                                     "--trace", "0", "--smoke"))
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        units_of(declared["end_to_end"])
    assert all(v["value"] > 0 for v in result["metrics"].values())
    for metric in ("setup_s", "run_s", "peak_rss_mb", "error_ratio"):
        assert f"\n{metric} " in stdout
    if name == "point-queries":
        assert "\nquery_p50_ms " in stdout and "\nquery_p99_ms " in stdout


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_traced_smoke_reports_every_span_and_count(name, declared):
    stdout, result = result_of(bench("--workload", name, "--seed", "3",
                                     "--trace", "1", "--smoke"))
    assert result["correct"] is True
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        units_of(declared["per_layer"])
    for span in tracer.SPANS:
        assert f"\n{span} " in stdout
    assert "counts repeat exactly across" in stdout
    assert "tracing overhead" in stdout
    metrics = result["metrics"]
    assert metrics["config.load_scenario.calls"]["value"] == 1
    assert metrics["spectro.parse_line_catalog.calls"]["value"] == 1
    assert metrics["trace.spans"]["value"] > 0


def test_two_traced_runs_of_one_seed_give_identical_counts():
    def counts():
        _stdout, result = result_of(bench("--workload", "large-catalog",
                                          "--seed", "5", "--trace", "1",
                                          "--smoke"))
        return {name: entry["value"]
                for name, entry in result["metrics"].items()
                if entry["unit"] in ("count", "B")}
    first = counts()
    assert first["kernels.kappa_totals.pairs"] > 0
    assert first["spectro.records_read"] == 500
    assert first["spectro.lines_kept"] == 23  # 25 kept-species records, 2 weak
    assert counts() == first


def test_tracer_patches_from_imports_and_restores_them():
    import thzlink
    from thzlink import capacity, sweep
    original = capacity.channel_capacity
    spans = tracer.Tracer()
    spans.install()
    try:
        for namespace in (capacity, sweep, thzlink):
            assert namespace.channel_capacity is not original
            assert namespace.channel_capacity.__wrapped__ is original
    finally:
        spans.restore()
    for namespace in (capacity, sweep, thzlink):
        assert namespace.channel_capacity is original


def test_self_time_excludes_child_spans():
    from thzlink import capacity, config
    scenario = config.load_scenario()
    spans = tracer.Tracer()
    spans.install()
    try:
        capacity.channel_capacity(scenario.geom, scenario.medium,
                                  scenario.env, scenario.band,
                                  scenario.geom.d, scenario.p_t)
    finally:
        spans.restore()
    names = {span[1] for span in spans.spans}
    assert {"capacity.channel_capacity", "capacity.psi_coefficients",
            "kernels.kappa_totals", "capacity.water_filling"} <= names
    top = next(s for s in spans.spans if s[1] == "capacity.channel_capacity")
    children = [s for s in spans.spans if s[4] == top[0]]
    covered = sum(s[3] - s[2] for s in children)
    assert spans.self_s["capacity.channel_capacity"] == pytest.approx(
        (top[3] - top[2]) - covered)
    ids = {s[0] for s in spans.spans}
    assert all(s[4] in ids for s in spans.spans if s[4] >= 0)


def test_oracle_flags_a_perturbed_sweep_cell():
    from thzlink import config
    scenario = config.load_scenario()
    workload = workloads.Spectrum(seed=1, smoke=True)
    op = workload.ops(scenario)[0]
    result, csv = op.run()
    assert workload.check(scenario, 0, (result, csv),
                          np.random.default_rng(0)) == []
    column = result.columns[0]
    for _x, row in result.points:
        row[column] *= 1.0 + 1e-9
    problems = workload.check(scenario, 0, (result, csv),
                              np.random.default_rng(0))
    assert problems and all(column in p for p in problems)


def test_without_the_library_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = bench("--workload", "spectrum", "--seed", "1", "--trace", "0",
                 cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
