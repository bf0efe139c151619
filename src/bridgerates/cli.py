"""Command-line front end: config-driven experiments with reproducible outputs.

Every subcommand reads one JSON config, runs a single experiment, and
writes three files into the output directory: ``<cmd>.json`` (the full
result), ``<cmd>.csv`` (flat numeric metrics), and ``<cmd>.schema.json``
(the shape of the JSON). All three come from one walk over the result,
which maps each numpy type to its plain JSON form once. Outputs carry
the config hash and the effective seed and contain no timestamps, so a
rerun with the same config is byte-identical. Failures write
``error.json`` and exit nonzero.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import ctypes
import dataclasses
import functools
import hashlib
import json
import math
import os
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .bridge import BridgeSpec, conditional_samples
from .chain import (GeneratorMatrix, ProbVector, _check_count, _check_grid, _check_positive,
                    _check_seed, _check_state, _check_window, invariant_measure, is_irreducible,
                    transition_at, validate_generator)
from .conjugate import save_samples
from .estimate import (
    ball_rate,
    build_oracle,
    contract_dvg_from_bfg,
    infconv_bfg,
    infconv_dvg,
    mc_decay_rate,
)
from .ratefun import PairMeasure, bfg_rate, dvg_rate, pair_empirical_rate
from .simulate import _check_mode

__all__ = ["ExperimentConfig", "main"]

SEED_ENV = "BRIDGERATES_SEED"


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment's inputs, loaded strictly from JSON and checked whatever the command.

    Every key present is checked at load, by a ``ValueError`` that names it,
    and held as the type the commands read: the ``generator``'s n states bound
    ``rho`` (a ``ProbVector``), ``flux`` (a float matrix), ``theta`` (a
    ``PairMeasure``) and ``x``/``y`` (both or neither); ``n_grid`` is a grid.
    """

    generator: GeneratorMatrix
    t0: float = 1.0
    mode: str = "occupation"
    n_samples: int = 20_000
    seed: int = 0
    rho: ProbVector | None = None
    flux: np.ndarray | None = None
    theta: PairMeasure | None = None
    x: int | None = None
    y: int | None = None
    epsilon: float = 0.03
    n_grid: np.ndarray | None = None
    n_paths: int = 100_000

    def __post_init__(self):
        with _naming("generator"):
            Q = validate_generator(self.generator)
        n = Q.n_states
        _check_window(self.t0)
        _check_mode(self.mode)
        _check_count(self.n_samples, "n_samples")
        _check_count(self.n_paths, "n_paths")
        _check_seed(self.seed)
        _check_positive(self.epsilon, "epsilon")
        if (self.x is None) != (self.y is None):
            raise ValueError("set both 'x' and 'y', or neither")
        if self.x is not None:
            _check_state(n, self.x, "x")
            _check_state(n, self.y, "y")
        typed = {"generator": Q}
        if self.n_grid is not None:
            typed["n_grid"] = _check_grid(self.n_grid, "n_grid")
        as_floats = functools.partial(np.asarray, dtype=float)
        for key, convert, shape in (("rho", ProbVector, (n,)), ("flux", as_floats, (n, n)),
                                    ("theta", PairMeasure, (n, n))):
            if getattr(self, key) is not None:
                with _naming(key):
                    typed[key] = convert(getattr(self, key))
                    if getattr(typed[key], "weights", typed[key]).shape != shape:
                        raise ValueError(f"needs shape {shape}")
        for key, value in typed.items():
            object.__setattr__(self, key, value)

    @classmethod
    def from_file(cls, path, seed=None) -> tuple["ExperimentConfig", str]:
        """The config in ``path`` with its hash; a ``seed`` given here replaces the file's."""
        with open(path, encoding="utf-8") as handle:
            raw = json.load(handle)
        if not isinstance(raw, dict):
            raise ValueError("config must be a JSON object")
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = sorted(set(raw) - known)
        if unknown:
            raise ValueError(f"unknown config keys: {', '.join(unknown)}")
        if "generator" not in raw:
            raise ValueError("config needs a 'generator' matrix")
        canonical = json.dumps(raw, sort_keys=True, separators=(",", ":"))
        digest = hashlib.sha256(canonical.encode()).hexdigest()
        return cls(**(raw if seed is None else {**raw, "seed": seed})), digest

    def need(self, key: str):
        """The value of ``key``, which the running command cannot do without."""
        value = getattr(self, key)
        if value is None:
            raise ValueError(f"config needs '{key}' for this command")
        return value


@contextlib.contextmanager
def _naming(key: str):
    """Re-raise a refusal of the config value ``key`` with the key in its message."""
    try:
        yield
    except (TypeError, ValueError) as exc:
        error = type(exc) if isinstance(exc, ValueError) else ValueError
        raise error(f"config '{key}': {exc}") from None


# ---------------------------------------------------------------------------
# serialization


def _walk(value, prefix: str, rows: list):
    """Plain JSON form and schema of ``value``, appending its numeric leaves to ``rows``.

    Each numeric leaf is appended as (dotted path, value), with ``prefix``
    the path of ``value`` plus a trailing dot. Dict keys are sorted,
    booleans count as 0/1, nonfinite floats become the strings "nan",
    "inf" and "-inf" (still a metric in the CSV), and an array's items are
    described by their one schema, or by ``anyOf`` over their distinct
    schemas in first-seen order when they disagree.
    """
    if isinstance(value, dict):
        items = {str(k): v for k, v in value.items()}
        plain, properties = {}, {}
        for key in sorted(items):
            plain[key], properties[key] = _walk(items[key], f"{prefix}{key}.", rows)
        return plain, {"type": "object", "properties": properties}
    if isinstance(value, np.ndarray):
        value = value.tolist()
    if isinstance(value, (list, tuple)):
        walked = [_walk(item, f"{prefix}{idx}.", rows) for idx, item in enumerate(value)]
        schemas = []
        for _, schema in walked:
            if schema not in schemas:
                schemas.append(schema)
        items = schemas[0] if len(schemas) == 1 else {"anyOf": schemas} if schemas else {}
        return [form for form, _ in walked], {"type": "array", "items": items}
    if isinstance(value, (bool, np.bool_)):
        rows.append((prefix[:-1], int(value)))
        return bool(value), {"type": "boolean"}
    if isinstance(value, (int, np.integer)):
        rows.append((prefix[:-1], int(value)))
        return int(value), {"type": "integer"}
    if isinstance(value, (float, np.floating)):
        value = float(value) if math.isfinite(value) else str(float(value))
        rows.append((prefix[:-1], value))
        return value, {"type": "number" if isinstance(value, float) else "string"}
    if value is None:
        return None, {"type": "null"}
    # a string: json.dumps rejects anything else
    return value, {"type": "string"}


def _dump(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, sort_keys=True, indent=2) + "\n", encoding="utf-8")


def _write_outputs(out_dir: Path, name: str, payload: dict, config_hash: str, seed: int) -> None:
    rows = []
    plain, schema = _walk({**payload, "config_hash": config_hash, "seed": seed}, "", rows)
    _dump(out_dir / f"{name}.json", plain)
    _dump(out_dir / f"{name}.schema.json", schema)
    with open(out_dir / f"{name}.csv", "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["metric", "value", "config_hash", "seed"])
        # the seed has its own column, and the config hash is a string, not a row
        writer.writerows([metric, value, config_hash, seed]
                         for metric, value in rows if metric != "seed")


# ---------------------------------------------------------------------------
# subcommands


def cmd_chain_info(cfg: ExperimentConfig, args) -> dict:
    """Describe the chain: exit rates, invariant measure and the transition matrix at t0."""
    Q = cfg.generator
    P = transition_at(Q, cfg.t0)
    return {
        "n_states": Q.n_states,
        "irreducible": is_irreducible(Q),
        "exit_rates": Q.exit_rates,
        "uniformization_rate": float(Q.exit_rates.max()),
        "invariant": invariant_measure(Q).weights,
        "t0": cfg.t0,
        "transition_t0": P.probs,
    }


def cmd_rates(cfg: ExperimentConfig, args) -> dict:
    """Evaluate the occupation rate at rho, plus the flux and pair rates when configured."""
    Q, rho = cfg.generator, cfg.need("rho")
    res = dvg_rate(rho, Q)
    payload = {
        "rho": rho.weights,
        "dvg": {
            "value": res.value,
            "maximizer": res.maximizer,
            "gradient_norm": res.gradient_norm,
            "iterations": res.iterations,
        },
    }
    if cfg.flux is not None:
        payload["bfg"] = {"value": bfg_rate(rho, cfg.flux, Q), "flux": cfg.flux}
    if cfg.theta is not None:
        P = transition_at(Q, cfg.t0)
        payload["pair"] = {"value": pair_empirical_rate(cfg.theta, P), "t0": cfg.t0}
    return payload


def cmd_bridge_sample(cfg: ExperimentConfig, args) -> dict:
    """Sample bridge-conditioned block statistics and dump them as .f64 files."""
    Q, out_dir = cfg.generator, Path(args.out)
    n = Q.n_states
    pairs = [(cfg.x, cfg.y)] if cfg.x is not None else [(x, y) for x in range(n) for y in range(n)]
    summary = []
    for x, y in pairs:
        spec = BridgeSpec(Q, x, y, cfg.t0)
        law = conditional_samples(spec, cfg.mode, cfg.n_samples, cfg.seed)
        dump = out_dir / f"samples_{cfg.mode}_x{x}_y{y}.f64"
        save_samples(dump, law.samples)
        summary.append({
            "x": x,
            "y": y,
            "n_samples": law.n_samples,
            "d": law.d,
            "mean": law.mean(),
            "file": dump.name,
        })
    return {"mode": cfg.mode, "t0": cfg.t0, "pairs": summary}


def cmd_infconv(cfg: ExperimentConfig, args) -> dict:
    """Recover a rate from sampled block laws by inf-convolution, against its direct value."""
    Q, rho = cfg.generator, cfg.need("rho")
    oracle = build_oracle(Q, cfg.t0, cfg.mode, cfg.n_samples, cfg.seed)
    if cfg.mode == "occupation":
        res = infconv_dvg(rho, oracle)
        reference = dvg_rate(rho, Q).value
        target = {"rho": rho.weights}
    else:
        j = cfg.need("flux")
        res = infconv_bfg(rho, j, oracle)
        reference = bfg_rate(rho, j, Q)
        target = {"rho": rho.weights, "flux": j}
    per_time = res.value / cfg.t0 if math.isfinite(res.value) else math.inf
    error = abs(per_time - reference) if math.isfinite(per_time) and math.isfinite(reference) \
        else (0.0 if per_time == reference else math.inf)
    return {
        "mode": cfg.mode,
        "t0": cfg.t0,
        "n_samples": cfg.n_samples,
        "target": target,
        "value_per_window": res.value,
        "value_per_time": per_time,
        "reference": reference,
        "abs_error": error,
        "certificate": res.certificate,
        "feasible": res.feasible,
        "converged": res.converged,
        "iterations": res.iterations,
        "decrement": res.decrement,
        "theta": res.theta.weights,
        "k": res.k.vectors,
    }


def cmd_contract(cfg: ExperimentConfig, args) -> dict:
    """Contract the joint occupation-flux rate onto rho, certified by its duality gap."""
    Q, rho = cfg.generator, cfg.need("rho")
    res = contract_dvg_from_bfg(rho, Q)
    # the dual value is the dvg_rate call the contraction already made
    return {
        "rho": rho.weights,
        "value": res.value,
        "dual_value": res.dual_value,
        "gap": res.gap,
        "reference": res.dual_value,
        "abs_error": abs(res.value - res.dual_value),
        "flux": res.flux,
        "potential": res.potential,
    }


def cmd_mc_verify(cfg: ExperimentConfig, args) -> dict:
    """Fit the Monte Carlo decay rate of l1-ball hit probabilities and compare it with the ball rate."""
    Q, rho = cfg.generator, cfg.need("rho")
    fit = mc_decay_rate(Q, rho, cfg.epsilon, cfg.need("n_grid"), cfg.n_paths, cfg.seed)
    ball = ball_rate(Q, rho, cfg.epsilon)
    rel_error = abs(fit.slope - ball.value) / ball.value if ball.value > 0 else math.inf
    return {
        "target": rho.weights,
        "epsilon": cfg.epsilon,
        "n_grid": fit.n_grid,
        "hits": fit.hits,
        "n_paths": fit.n_paths,
        "neg_log_prob": fit.neg_log_prob,
        "slope": fit.slope,
        "slope_se": fit.slope_se,
        "intercept": fit.intercept,
        "reference": ball.value,
        "reference_gap": ball.gap,
        "reference_iterations": ball.iterations,
        "rel_error": rel_error,
    }


HANDLERS = {
    "chain-info": cmd_chain_info,
    "rates": cmd_rates,
    "bridge-sample": cmd_bridge_sample,
    "infconv": cmd_infconv,
    "contract": cmd_contract,
    "mc-verify": cmd_mc_verify,
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    # built once per process: argparse spends most of a build on gettext lookups
    parser = argparse.ArgumentParser(
        prog="bridgerates",
        description="Rate functionals of Markov chains, cross-validated three ways.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, handler in HANDLERS.items():
        cmd = sub.add_parser(name, help=handler.__doc__)
        cmd.add_argument("--config", required=True, help="path to the JSON experiment config")
        cmd.add_argument("--out", default="out", help="output directory (default: out)")
        cmd.add_argument("--threads", type=int, default=None,
                         help="ignored; sampling is single-threaded (kept so old command lines run)")
        cmd.set_defaults(handler=handler)
    return parser


@functools.cache
def _steady_heap() -> None:
    """Pin glibc's malloc thresholds where its own heuristic would end up.

    By default glibc hands the top of the heap back to the kernel once more
    than 128 KiB of it is free, and raises that bound only after it frees a
    large mmapped block. So whether a ``main`` call reuses the heap of the
    call before it, or faults about 0.7 MB back in (an ``infconv`` on 8000
    samples), depends on what ran earlier in the process. With both bounds
    fixed the heap keeps its pages, and blocks under 32 MiB, the
    heuristic's ceiling, come from it.
    """
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)  # glibc only
    if mallopt is not None:
        mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD
        mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD


def main(argv=None) -> int:
    _steady_heap()
    args = build_parser().parse_args(argv)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    config_hash = None
    seed = None
    try:
        env_seed = os.environ.get(SEED_ENV)
        cfg, digest = ExperimentConfig.from_file(
            args.config, seed=None if env_seed is None else int(env_seed))
        # only a config that loaded, with its seed override, has a hash
        config_hash, seed = digest, cfg.seed
        payload = args.handler(cfg, args)
    except Exception as exc:
        error = {
            "command": args.command,
            "error": type(exc).__name__,
            "message": str(exc),
            "config_hash": config_hash,
        }
        _dump(out_dir / "error.json", error)
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    _write_outputs(out_dir, args.command, payload, config_hash, seed)
    print(f"wrote {out_dir / (args.command + '.json')}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
