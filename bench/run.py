"""bridgerates benchmark: CLI-driven workloads, tolerance-gated failures, per-layer tracing.

Run from the root of a source checkout:

    python3 bench/run.py --workload decomp-occ --seed 1 --seconds 20 --trace 0

The benchmark imports the package from ``src/`` of the checkout, generates
the workload's JSON configs from ``--seed``, and calls
``bridgerates.cli.main`` in-process, single-threaded (``--threads 1``), once
per operation. It repeats passes over the operations until the next pass
would overrun ``--seconds`` (always at least one), checks every output of
every pass, and prints one JSON object as its last line:

- ``--trace 0``: end-to-end metrics ``setup_s`` (median of five
  package-import-plus-config-generation runs, each in a fresh interpreter),
  ``wall_s`` (median time of one pass), ``pass_frac`` (operations that
  passed their check in every pass, over those attempted) and
  ``peak_rss_mb``.
- ``--trace 1``: one untraced pass, then traced passes with wrappers around
  the library boundaries (see tracing.py); per-layer metrics are per pass.
  Spans go to ``.bench_out/traces/<workload>-s<seed>.json``.

``attempted`` counts the workload's operations and ``failed`` those that
failed their check in any pass; every pass is checked. ``correct`` is false
when any output breaks the CLI's own contract (see workloads.py).
Outputs go to a fresh directory per run under ``.bench_out/``, removed at
the end; ``--cache`` is never passed.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_ROOT = ROOT / ".bench_out"
SEED_ENV = "BRIDGERATES_SEED"
SETUP_REPEATS = 5

# One core per run, as --threads 1 asks of the program: numpy's BLAS pool
# would otherwise spread small products over a shared host's cores. Set
# before numpy loads; the setup interpreters inherit it.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

sys.path.insert(0, str(BENCH_DIR))
from workloads import WORKLOADS, Outcome, judge, write_configs  # noqa: E402

# Runs in a fresh interpreter: package import plus config generation, timed.
SETUP_CHILD = r"""
import sys, time
start = time.perf_counter()
src, bench, workload, seed, out = sys.argv[1:]
sys.path[:0] = [src, bench]
import bridgerates
import bridgerates.cli
from pathlib import Path
from workloads import WORKLOADS, write_configs
write_configs(WORKLOADS[workload](int(seed), bridgerates), Path(out))
print(time.perf_counter() - start)
"""


@dataclass
class PassResult:
    wall_s: float
    outcomes: list[tuple[str, Outcome]]
    bytes_written: int


def setup_once(workload: str, seed: int, out: Path) -> float:
    done = subprocess.run(
        [sys.executable, "-c", SETUP_CHILD, str(SRC), str(BENCH_DIR), workload, str(seed), str(out)],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(done.stdout.strip().splitlines()[-1])


def run_pass(cli, ops, config_dir: Path, pass_dir: Path, tracer=None, label: str = "") -> PassResult:
    """Run every operation once into fresh output directories and judge each."""
    wall = 0.0
    outcomes = []
    written = 0
    main = cli.main if tracer is None else tracer.wrap(cli.main, "cli.main")
    for op in ops:
        if tracer is not None:
            tracer.run = f"{label}:{op.name}"
        out_dir = pass_dir / op.name
        argv = [op.command, "--config", str(config_dir / f"{op.name}.json"),
                "--out", str(out_dir), "--threads", "1"]
        chatter = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(chatter), contextlib.redirect_stderr(chatter):
            try:
                rc = main(argv)
            except Exception as exc:  # main catches everything itself; an escape is a defect
                rc = f"raised {type(exc).__name__}: {exc}"
        wall += time.perf_counter() - start
        outcomes.append((op.name, judge(op, rc, out_dir)))
        written += sum(f.stat().st_size for f in out_dir.iterdir() if f.is_file())
    return PassResult(wall, outcomes, written)


def measure(cli, ops, config_dir: Path, run_dir: Path, seconds: float, tracer=None) -> list[PassResult]:
    """Passes until the next one would overrun the budget (at least one)."""
    passes = []
    start = time.perf_counter()
    while True:
        label = f"pass{len(passes)}"
        passes.append(run_pass(cli, ops, config_dir, run_dir / label, tracer, label))
        if time.perf_counter() - start + passes[-1].wall_s > seconds:
            return passes


# ---------------------------------------------------------------------------
# per-layer metrics from spans


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer, passes: list[PassResult], untraced_wall: float, cpu_s: float, br) -> dict:
    """Per-pass layer numbers, named by module; ratios are 0 where their base is."""
    n = len(passes)
    own = tracer.self_times()
    spans = defaultdict(list)
    self_s = defaultdict(float)
    for span, mine in zip(tracer.spans, own):
        spans[span.name].append(span)
        self_s[span.name] += mine

    def total(name):
        return sum(s.duration for s in spans[name])

    def facts(key):
        return [v for p in passes for _, o in p.outcomes
                if isinstance(v := o.facts.get(key), (int, float))]

    wall = sum(p.wall_s for p in passes)
    bridge = spans["bridge.conditional_samples"]
    drawn = sum(s.facts["n"] for s in bridge)
    attempts = 0.0
    for s in bridge:
        Q = br.validate_generator(s.facts["generator"])
        attempts += s.facts["n"] / br.transition_at(Q, s.facts["t0"]).probs[s.facts["x"], s.facts["y"]]
    conj = spans["conjugate.conjugate_at"]
    dvg = spans["ratefun.dvg_rate"]
    sim = spans["simulate.batch_occupations"]
    infconv_self = self_s["estimate.infconv_dvg"] + self_s["estimate.infconv_bfg"]
    return {
        "bridge.time_s": (total("bridge.conditional_samples") / n, "s"),
        "bridge.samples_per_s": (_ratio(drawn, total("bridge.conditional_samples")), "1/s"),
        "bridge.attempts_per_sample": (_ratio(attempts, drawn), "ratio"),
        "bridge.wall_share": (_ratio(total("bridge.conditional_samples"), wall), "ratio"),
        "bridge.max_z": (max(facts("bridge_max_z"), default=0.0), "ratio"),
        "conjugate.calls": (len(conj) / n, "count"),
        "conjugate.time_s": (total("conjugate.conjugate_at") / n, "s"),
        "conjugate.ms_per_call": (_ratio(1e3 * total("conjugate.conjugate_at"), len(conj)), "ms"),
        "conjugate.samples_per_call": (_ratio(sum(s.facts["n"] for s in conj), len(conj)), "count"),
        "conjugate.unconverged_frac": (_ratio(sum(not s.facts["converged"] for s in conj), len(conj)), "ratio"),
        "conjugate.boundary_frac": (_ratio(sum(s.facts["boundary"] for s in conj), len(conj)), "ratio"),
        "conjugate.warm_frac": (_ratio(sum(s.facts["warm"] for s in conj), len(conj)), "ratio"),
        "conjugate.wall_share": (_ratio(total("conjugate.conjugate_at"), wall), "ratio"),
        "estimate.infconv_self_s": (infconv_self / n, "s"),
        "estimate.descent_iters": (sum(facts("descent_iters")) / n, "count"),
        "estimate.certificate": (max(facts("certificate"), default=0.0), "ratio"),
        "estimate.abs_err": (max(facts("abs_err"), default=0.0), "1"),
        "estimate.build_oracle_s": (total("estimate.build_oracle") / n, "s"),
        "estimate.contract_s": (total("estimate.contract_dvg_from_bfg") / n, "s"),
        "estimate.contract_gap": (max(map(abs, facts("contract_gap")), default=0.0), "1"),
        "estimate.ball_rate_s": (total("estimate.ball_rate") / n, "s"),
        "estimate.slope_rel_err": (max(facts("slope_rel_err"), default=0.0), "ratio"),
        "ratefun.dvg_calls": (len(dvg) / n, "count"),
        "ratefun.dvg_ms_per_call": (_ratio(1e3 * total("ratefun.dvg_rate"), len(dvg)), "ms"),
        "ratefun.dvg_iters": (sum(s.facts.get("iters", 0) for s in dvg) / n, "count"),
        "ratefun.dvg_failures": (sum(s.error is not None for s in dvg) / n, "count"),
        "ratefun.bfg_s": (total("ratefun.bfg_rate") / n, "s"),
        "simulate.time_s": (total("simulate.batch_occupations") / n, "s"),
        "simulate.paths_per_s": (_ratio(sum(s.facts["paths"] for s in sim),
                                        total("simulate.batch_occupations")), "1/s"),
        "chain.transition_calls": (len(spans["chain.transition_at"]) / n, "count"),
        "chain.transition_s": (total("chain.transition_at") / n, "s"),
        "cli.self_s": (self_s["cli.main"] / n, "s"),
        "cli.bytes_written": (sum(p.bytes_written for p in passes) / n, "bytes"),
        "proc.cpu_s": (cpu_s / n, "s"),
        "proc.cpu_per_wall": (_ratio(cpu_s, wall), "ratio"),
        "trace.overhead_s": (statistics.median(p.wall_s for p in passes) - untraced_wall, "s"),
    }


# ---------------------------------------------------------------------------
# environment record


def _git_commit() -> str:
    if not (ROOT / ".git").exists():  # an exported checkout; do not report an enclosing repo
        return "unknown"
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def environment() -> dict:
    import numpy
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": _git_commit(),
    }


# ---------------------------------------------------------------------------


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if SEED_ENV in os.environ:
        print(f"refusing to run: {SEED_ENV} is set and would override every config seed",
              file=sys.stderr)
        return 2
    if not (SRC / "bridgerates" / "__init__.py").is_file():
        print(f"no package source at {SRC / 'bridgerates'}; run from a source checkout",
              file=sys.stderr)
        return 2

    run_dir = OUT_ROOT / f"{args.workload}-s{args.seed}-p{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    try:
        setups = [setup_once(args.workload, args.seed, run_dir / f"setup{k}")
                  for k in range(SETUP_REPEATS)]
        sys.path.insert(0, str(SRC))
        import bridgerates as br
        import bridgerates.cli as cli

        if Path(br.__file__).resolve().parent != (SRC / "bridgerates").resolve():
            print(f"imported bridgerates from {br.__file__}, not from {SRC}", file=sys.stderr)
            return 2
        ops = WORKLOADS[args.workload](args.seed, br)
        config_dir = run_dir / "configs"
        write_configs(ops, config_dir)
        if args.trace:
            from tracing import Tracer, installed

            untraced = run_pass(cli, ops, config_dir, run_dir / "untraced")
            tracer = Tracer()
            cpu0 = time.process_time()
            with installed(tracer):
                passes = measure(cli, ops, config_dir, run_dir, args.seconds, tracer)
            layers = layer_metrics(tracer, passes, untraced.wall_s, time.process_time() - cpu0, br)
        else:
            passes = measure(cli, ops, config_dir, run_dir, args.seconds)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    # an operation fails if any pass of it fails; passes of one seed should agree
    failed_ops = {name for p in passes for name, o in p.outcomes if not o.passed}
    attempted = len(passes[0].outcomes)
    if args.trace:
        metrics = {name: {"value": v, "unit": u} for name, (v, u) in layers.items()}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "wall_s": {"value": statistics.median(p.wall_s for p in passes), "unit": "s"},
            "pass_frac": {"value": 1.0 - len(failed_ops) / attempted, "unit": "ratio"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                            "unit": "MB"},
        }
    env = environment()
    if args.trace:
        trace_file = OUT_ROOT / "traces" / f"{args.workload}-s{args.seed}.json"
        trace_file.parent.mkdir(parents=True, exist_ok=True)
        trace_file.write_text(json.dumps({
            "workload": args.workload, "seed": args.seed, "env": env,
            "spans": [dataclasses.asdict(s) for s in tracer.spans],
        }), encoding="utf-8")
    for name, o in passes[0].outcomes:
        if not o.passed:
            print(f"{args.workload}: {name} failed: {o.detail}", file=sys.stderr)
    print("env " + json.dumps(env, sort_keys=True))
    print(json.dumps({
        "correct": all(o.wellformed for p in passes for _, o in p.outcomes),
        "attempted": attempted,
        "failed": len(failed_ops),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
