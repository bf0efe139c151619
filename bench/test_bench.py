"""Checks of the benchmark itself: exact repeats for a fixed seed, and its guards.

Run from the root of a source checkout: ``python3 -m pytest bench/test_bench.py``.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import bridgerates as br  # noqa: E402
import bridgerates.cli as cli  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer, installed  # noqa: E402

SEED = 11


def _traced_pass(ops, root: Path):
    config_dir = root / "configs"
    workloads.write_configs(ops, config_dir)
    tracer = Tracer()
    with installed(tracer):
        result = run.run_pass(cli, ops, config_dir, root / "pass", tracer, "pass")
    metrics = run.layer_metrics(tracer, [result], result.wall_s, 0.0, br)
    counts = {name: metrics[name][0]
              for name in ("conjugate.calls", "estimate.descent_iters", "ratefun.dvg_failures")}
    failed = [name for name, outcome in result.outcomes if not outcome.passed]
    return counts, failed


# decomp-occ keeps only its t0 = 0.5 operation to bound the test's run time
@pytest.mark.parametrize("workload, keep", [("decomp-occ", 1), ("ring-oracle", None), ("rates-mc", None)])
def test_fixed_seed_repeats_exactly(tmp_path, workload, keep):
    ops = workloads.WORKLOADS[workload](SEED, br)[:keep]
    first = _traced_pass(ops, tmp_path / "a")
    second = _traced_pass(ops, tmp_path / "b")
    assert first == second
    for op in ops:
        name = f"{op.command}.json"
        a = tmp_path / "a" / "pass" / op.name / name
        b = tmp_path / "b" / "pass" / op.name / name
        assert a.is_file() == b.is_file()
        if a.is_file():
            assert a.read_bytes() == b.read_bytes(), op.name


def test_rates_panel_fails_the_same_operations_for_any_seed(tmp_path):
    failed = []
    for seed in (SEED, SEED + 1):
        ops = [op for op in workloads.WORKLOADS["rates-mc"](seed, br) if op.command != "mc-verify"]
        failed.append(_traced_pass(ops, tmp_path / str(seed))[1])
    assert failed[0] == failed[1]


def test_traced_counts_match_the_cli_outputs(tmp_path):
    ops = workloads.WORKLOADS["rates-mc"](SEED, br)[:8]
    counts, failed = _traced_pass(ops, tmp_path)
    assert counts["conjugate.calls"] == 0
    expected = sum(
        json.loads((tmp_path / "pass" / op.name / "error.json").read_text())["error"] == "NonConvergence"
        for op in ops if (tmp_path / "pass" / op.name / "error.json").is_file()
    )
    assert counts["ratefun.dvg_failures"] == expected


def test_layer_metrics_match_the_benchmark_file():
    declared = json.loads((BENCH.parent / "BENCHMARK.json").read_text())["per_layer"]
    empty = run.PassResult(1.0, [], 0)
    reported = run.layer_metrics(Tracer(), [empty], 1.0, 0.0, br)
    assert [(m["name"], m["unit"]) for m in declared] == [(k, u) for k, (_, u) in reported.items()]


def test_refuses_when_seed_override_is_set():
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "ring-oracle", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=BENCH.parent, env=dict(os.environ, BRIDGERATES_SEED="5"),
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert done.stdout == ""
    assert "BRIDGERATES_SEED" in done.stderr


def test_tracing_restores_the_originals():
    before = (cli.infconv_dvg, br.estimate.conjugate_at, br.bridge.transition_at)
    with installed(Tracer()):
        assert cli.infconv_dvg is not before[0]
    assert (cli.infconv_dvg, br.estimate.conjugate_at, br.bridge.transition_at) == before
