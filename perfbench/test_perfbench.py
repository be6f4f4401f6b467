"""Tests of the benchmark itself: tracer coverage, the independent
expected-group route, the output checks and the metric lists.

    PYTHONPATH=src python3 -m pytest perfbench
"""

from __future__ import annotations

import cProfile
import json
import pstats
import shutil
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import pytest

import run
import workloads
from critgroups.jsonio import graph_to_json
from critgroups.multigraph import reduced_laplacian
from tracer import TARGETS, Tracer, original_function

HERE = Path(__file__).resolve().parent
BENCHMARK = HERE.parent / "BENCHMARK.json"

SMALL = {
    "verify-ladder": ("concentric_polygon(4)", ["verify", "--trials", "25", "--seed", "3"]),
    "compute-ladder": ("circulant(31,[1,2])", ["compute"]),
    "sweep-oracle": ("circulant(21,[1,2,3])", ["verify", "--trials", "20", "--oracle", "--seed", "3"]),
}


def _graph_file(tmp_path: Path, name: str) -> Path:
    path = tmp_path / workloads.instance_file(name)
    path.write_text(json.dumps(workloads.build_graph(name, 0)))
    return path


@pytest.mark.parametrize("workload", sorted(SMALL))
def test_tracer_counts_match_cprofile(workload, tmp_path):
    name, command = SMALL[workload]
    words = ["--format", "json", command[0], str(_graph_file(tmp_path, name)), *command[1:]]
    codes = {f"{t.module}.{t.name}": original_function(t).__code__ for t in TARGETS}
    tracer = Tracer()
    profiler = cProfile.Profile()
    with tracer.installed():
        start = perf_counter()
        profiler.enable()
        _, rc, out = run.in_process(words, 60.0)
        profiler.disable()
        wall = perf_counter() - start
        stats = tracer.reset()
    assert rc == 0
    assert workloads.check_output(tuple(command), json.loads(workloads.GOLDENS.read_text())[name], rc, out) is None
    ncalls = {(f, line, fn): v[1] for (f, line, fn), v in pstats.Stats(profiler).stats.items()}
    for metric, code in codes.items():
        expected = ncalls.get((code.co_filename, code.co_firstlineno, code.co_name), 0)
        assert stats[metric].calls == expected, metric
    assert stats["intmatrix.smith_normal_form"].calls > 0
    assert sum(s.self_s for s in stats.values()) <= wall


def test_deadline_is_charged_to_canonical_chain(tmp_path):
    path = _graph_file(tmp_path, "circulant(101,[1,2])")
    tracer = Tracer()
    with tracer.installed():
        elapsed, rc, _ = run.in_process(["--format", "json", "compute", str(path)], 0.5)
        stats = tracer.reset()
    assert rc is None and elapsed == 0.5
    assert stats["abelian.canonical_chain"].deadline_hits == 1
    assert stats["abelian.canonical_chain"].max_bits > 64
    assert stats["intmatrix.hermite_normal_form"].calls == 0


def _random_rows(seed: int, n: int) -> list[list[int]]:
    return reduced_laplacian(workloads.random_multigraph(seed, n, 3 * n), 0).to_rows()


@pytest.mark.parametrize(
    "rows",
    [
        [[2, 0], [0, 3]],
        [[4, 2], [2, 4]],
        reduced_laplacian(workloads.FAMILIES["concentric_polygon(8)"]()[0], 0).to_rows(),
        reduced_laplacian(workloads.FAMILIES["chained_copies(cycle4,9)"]()[0], 0).to_rows(),
        _random_rows(1, 12),
        _random_rows(2, 20),
    ],
)
def test_cokernel_chain_mod_det_matches_sympy(rows):
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import invariant_factors

    m = sympy.Matrix(rows)
    expected = [int(x) for x in invariant_factors(m, domain=sympy.ZZ) if x != 1]
    assert workloads.determinant(rows) == int(m.det())
    assert workloads.cokernel_chain_mod_det(rows, workloads.determinant(rows)) == expected


def test_determinant_pivots_and_signs():
    assert workloads.determinant([[2, 0], [0, 3]]) == 6
    assert workloads.determinant([[0, 1], [1, 0]]) == -1
    assert workloads.determinant([[0, 2, 1], [3, 0, 0], [1, 1, 1]]) == -3
    assert workloads.determinant([[1, 2], [2, 4]]) == 0
    assert workloads.determinant([[-7]]) == -7


@pytest.mark.parametrize("name", ["concentric_polygon(8)", "chained_copies(cycle4,9)", "circulant(31,[1,2])"])
def test_expected_group_matches_stored_golden(name):
    golden = json.loads(workloads.GOLDENS.read_text())[name]
    doc = workloads.expected_group(workloads.FAMILIES[name]()[0])
    assert doc == {"invariant_factors": golden["invariant_factors"], "order": golden["order"]}


def test_check_output_flags_wrong_values():
    golden = {"invariant_factors": [2, 6], "order": 12}
    good = {"invariant_factors": [2, 6], "order": 12, "spanning_trees": 12}
    assert workloads.check_output(("compute",), golden, 0, json.dumps(good)) is None
    for bad in ({**good, "invariant_factors": [12]}, {**good, "spanning_trees": 11}):
        assert workloads.check_output(("compute",), golden, 0, json.dumps(bad)) is not None
    assert workloads.check_output(("compute",), golden, 1, json.dumps(good)) == "exit code 1"


def test_random_graph_is_seeded_and_connected():
    a, b = workloads.random_multigraph(5), workloads.random_multigraph(5)
    assert a == b and a.is_connected() and a.vertex_count == 60
    assert a != workloads.random_multigraph(6)
    assert workloads.build_graph(workloads.RANDOM_NAME, 5) == graph_to_json(a)


def test_benchmark_json_lists_the_emitted_metrics():
    spec = json.loads(BENCHMARK.read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [(m, run.layer_unit(m)) for m in run.PER_LAYER]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_run_fails_without_program_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCHMARK, tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify-ladder", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""


def test_scaled_keeps_raw_seconds_and_results():
    seconds, raw, extra = run.scaled(lambda: (2.0, "out"))
    assert raw == 2.0 and extra == "out"
    assert 0 < seconds < 2.0 * 100
