"""Benchmark workloads: seeded CLI configs and the check each operation must pass.

Every workload is a list of operations. An operation is one in-process
``bridgerates.cli.main`` call on a generated JSON config, followed by a
check of what it wrote. Configs depend only on the benchmark seed; the
program sees nothing but the config files.

An operation *fails* when the command exits nonzero, reports an
unconverged or infeasible solve where a finite value is expected, or
misses its stated tolerance. It is *malformed* when its output breaks
the CLI's own contract (exit 0 without a parseable ``<cmd>.json`` carrying
the config hash and seed, a nonzero exit without ``error.json``, a sample
dump that does not match its summary). Failures are counted; a malformed
output makes the whole run incorrect.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

SYM2 = [[-1.0, 1.0], [1.0, -1.0]]
RING3 = [[-1.2, 1.0, 0.2], [0.3, -1.3, 1.0], [1.0, 0.4, -1.4]]

OCC_TOL = 0.01  # acceptance tolerance of the occupation decomposition (test 05)
FLUX_TOL = 0.02  # acceptance tolerance of the flux decomposition (test 06)
SLOPE_RTOL = 0.25  # acceptance tolerance of the Monte Carlo decay slope (test 08)
CONTRACT_TOL = 1e-6  # contraction value against dvg_rate, relative to max(1, rate)
RATE_RTOL = 1e-8  # closed-form functionals against the benchmark's own formulas
BRIDGE_Z = 5.0  # sample means within this many standard errors of the exact bridge means
QUAD_NODES = 48  # Gauss-Legendre nodes for the exact bridge means
RATE_CHAINS = 64  # 16 chains of each size n = 2..5, half of them with a zero in rho
RATE_PANEL = 0xB0  # the chain panel is fixed, so its known failures are the same in every run


@dataclass
class Outcome:
    """What the check made of one operation's output."""

    passed: bool
    wellformed: bool
    detail: str = ""
    facts: dict = field(default_factory=dict)


@dataclass
class Op:
    """One CLI invocation: subcommand, config and the check of its output."""

    name: str
    command: str
    config: dict
    check: Callable[[dict, Path], Outcome]


def _closed_dvg_sym2(rho) -> float:
    """Occupation rate of the unit-rate symmetric 2-state chain."""
    return (math.sqrt(rho[0]) - math.sqrt(rho[1])) ** 2


def _rel_entropy(a: np.ndarray, b: np.ndarray) -> float:
    """Sum of a log(a/b) - a + b with 0 log 0 = 0; inf where a > 0 meets b = 0."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if np.any((a > 0) & (b <= 0)):
        return math.inf
    pos = a > 0
    return float(np.sum(a[pos] * np.log(a[pos] / b[pos])) - a.sum() + b.sum())


def _close(value, reference, rtol) -> bool:
    return isinstance(value, (int, float)) and abs(value - reference) <= rtol * max(1.0, abs(reference))


# ---------------------------------------------------------------------------
# decomp-occ / decomp-flux: inf-convolution against the closed forms


def _check_infconv(reference: float, tol: float):
    def check(out: dict, out_dir: Path) -> Outcome:
        facts = {
            "abs_err": out.get("abs_error"),
            "certificate": out.get("certificate"),
            "descent_iters": out.get("iterations"),
        }
        if not (out.get("feasible") is True and out.get("converged") is True):
            return Outcome(False, True, "infeasible or unconverged", facts)
        if not _close(out.get("reference"), reference, RATE_RTOL):
            return Outcome(False, True, f"reference {out.get('reference')} != closed form {reference}", facts)
        value = out.get("value_per_time")
        if not isinstance(value, float) or abs(value - reference) > tol:
            return Outcome(False, True, f"value {value} misses {reference} by more than {tol}", facts)
        return Outcome(True, True, "", facts)

    return check


def decomp_occ(seed: int, br) -> list[Op]:
    rho = [0.7, 0.3]
    check = _check_infconv(_closed_dvg_sym2(rho), OCC_TOL)
    return [
        Op(f"infconv-occ-t{t0:g}", "infconv",
           {"generator": SYM2, "t0": t0, "mode": "occupation", "n_samples": 8_000,
            "seed": seed, "rho": rho}, check)
        for t0 in (0.5, 1.0, 2.0)
    ]


def decomp_flux(seed: int, br) -> list[Op]:
    reference = 2.0 * _rel_entropy(np.array([1.0]), np.array([0.5]))
    return [
        Op("infconv-flux-t0.5", "infconv",
           {"generator": SYM2, "t0": 0.5, "mode": "flux", "n_samples": 5_000, "seed": seed,
            "rho": [0.5, 0.5], "flux": [[0.0, 1.0], [1.0, 0.0]]},
           _check_infconv(reference, FLUX_TOL)),
    ]


# ---------------------------------------------------------------------------
# ring-oracle: bridge sampling against exact endpoint-conditioned means


def exact_bridge_means(transition_at, Q, t0: float, mode: str) -> dict:
    """Exact bridge block means per pair, by quadrature over the window.

    Occupation of z: (1/t0) int_0^t0 P_xz(s) P_zy(t0-s) ds / P_xy(t0).
    Jumps a->b per unit time: (1/t0) int_0^t0 P_xa(s) Q_ab P_by(t0-s) ds / P_xy(t0).
    """
    rates = np.asarray(Q.rates, dtype=float)
    n = rates.shape[0]
    nodes, weights = np.polynomial.legendre.leggauss(QUAD_NODES)
    s = 0.5 * t0 * (nodes + 1.0)
    w = 0.5 * t0 * weights
    head = np.array([transition_at(Q, si).probs for si in s])  # P(s)
    tail = np.array([transition_at(Q, t0 - si).probs for si in s])  # P(t0 - s)
    p_xy = transition_at(Q, t0).probs
    off = rates * (1.0 - np.eye(n))
    means = {}
    for x in range(n):
        for y in range(n):
            occ = np.einsum("k,kz,kz->z", w, head[:, x, :], tail[:, :, y]) / (t0 * p_xy[x, y])
            if mode == "occupation":
                means[(x, y)] = occ
                continue
            jumps = np.einsum("k,ka,ab,kb->ab", w, head[:, x, :], off, tail[:, :, y])
            means[(x, y)] = np.concatenate([occ, (jumps / (t0 * p_xy[x, y])).ravel()])
    return means


def _check_bridge(expected: dict, n_states: int, t0: float, load_samples):
    def check(out: dict, out_dir: Path) -> Outcome:
        worst = 0.0
        for entry in out.get("pairs", []):
            pair = (entry["x"], entry["y"])
            dump = out_dir / entry["file"]
            if not dump.is_file():
                return Outcome(False, False, f"missing sample dump {entry['file']}")
            samples = load_samples(dump)
            if samples.shape != (entry["n_samples"], entry["d"]) or not np.allclose(
                    samples.mean(axis=0), entry["mean"], rtol=0.0, atol=1e-12):
                return Outcome(False, False, f"sample dump {entry['file']} disagrees with its summary")
            exact = expected[pair]
            count = samples.shape[0]
            se = samples.std(axis=0, ddof=1) / math.sqrt(count)
            # jump counts of rare transitions are Poisson-like: a handful of
            # events (or none) understates the spread, so floor their
            # standard error at the one the exact mean count implies
            jumps = slice(n_states, None)
            se[jumps] = np.maximum(se[jumps], np.sqrt(np.maximum(exact[jumps], 0.0) / (t0 * count)))
            gap = np.abs(samples.mean(axis=0) - exact)
            degenerate = se == 0.0
            if np.any(gap[degenerate] > 1e-12):
                return Outcome(False, True, f"pair {pair}: constant component off its exact mean")
            z = gap[~degenerate] / se[~degenerate]
            worst = max(worst, float(z.max(initial=0.0)))
        if len(out.get("pairs", [])) != len(expected):
            return Outcome(False, False, "bridge-sample did not cover every pair")
        facts = {"bridge_max_z": worst}
        if worst > BRIDGE_Z:
            return Outcome(False, True, f"a sample mean is {worst:.1f} standard errors off", facts)
        return Outcome(True, True, "", facts)

    return check


def ring_oracle(seed: int, br) -> list[Op]:
    """Both modes on the 3-state ring at a short window, where acceptance is low."""
    t0 = 0.25
    Q = br.validate_generator(RING3)
    return [
        Op(f"bridge-{mode}", "bridge-sample",
           {"generator": RING3, "t0": t0, "mode": mode, "n_samples": 5_000, "seed": seed},
           _check_bridge(exact_bridge_means(br.transition_at, Q, t0, mode), Q.n_states, t0,
                         br.load_samples))
        for mode in ("occupation", "flux")
    ]


# ---------------------------------------------------------------------------
# rates-mc: closed-form functionals on random chains, plus Monte Carlo decay


def _random_chain(rng: np.random.Generator, n: int) -> np.ndarray:
    rates = rng.uniform(0.2, 2.0, (n, n))
    np.fill_diagonal(rates, 0.0)
    np.fill_diagonal(rates, -rates.sum(axis=1))
    return rates


def _check_rates(Q: np.ndarray, rho: np.ndarray, j: np.ndarray, theta: np.ndarray, P: np.ndarray):
    off = ~np.eye(Q.shape[0], dtype=bool)
    base = rho[:, None] * Q
    bfg_ref = _rel_entropy(j[off], base[off])
    pair_ref = _rel_entropy(theta, theta.sum(axis=1)[:, None] * P)

    def check(out: dict, out_dir: Path) -> Outcome:
        dvg = out.get("dvg", {})
        v = np.asarray(dvg.get("maximizer"), dtype=float)
        value = dvg.get("value")
        # states outside supp(rho) may sit at a very negative potential; their
        # rows carry no flow, so keep exp overflow there from turning 0 into nan
        with np.errstate(over="ignore", invalid="ignore"):
            flow = np.where(off & (base > 0), base * np.exp(v[None, :] - v[:, None]), 0.0)
        attained = -float(np.sum((flow - base)[off]))
        grad = float(np.abs(flow.sum(axis=1) - flow.sum(axis=0)).max())
        if not (isinstance(value, float) and value >= -1e-12 and _close(value, attained, RATE_RTOL)
                and grad <= 1e-6):
            return Outcome(False, True, f"dvg value {value} not attained at its maximizer")
        if not _close(out.get("bfg", {}).get("value"), bfg_ref, RATE_RTOL):
            return Outcome(False, True, f"bfg {out.get('bfg', {}).get('value')} != {bfg_ref}")
        if not _close(out.get("pair", {}).get("value"), pair_ref, RATE_RTOL):
            return Outcome(False, True, f"pair rate {out.get('pair', {}).get('value')} != {pair_ref}")
        return Outcome(True, True)

    return check


def _check_contract(out: dict, out_dir: Path) -> Outcome:
    value, reference = out.get("value"), out.get("reference")
    facts = {"contract_gap": out.get("gap")}
    if not (isinstance(value, float) and isinstance(reference, float)):
        return Outcome(False, True, "nonfinite contraction", facts)
    if abs(value - reference) > CONTRACT_TOL * max(1.0, reference):
        return Outcome(False, True, f"contraction {value} != dvg_rate {reference}", facts)
    return Outcome(True, True, "", facts)


def _check_mc(out: dict, out_dir: Path) -> Outcome:
    slope, reference = out.get("slope"), out.get("reference")
    if not (isinstance(slope, float) and isinstance(reference, float) and reference > 0):
        return Outcome(False, True, "no finite slope or reference")
    rel = abs(slope - reference) / reference
    facts = {"slope_rel_err": rel}
    if rel > SLOPE_RTOL:
        return Outcome(False, True, f"slope {slope} vs ball rate {reference}: {rel:.1%}", facts)
    return Outcome(True, True, "", facts)


def rates_mc(seed: int, br) -> list[Op]:
    """A fixed panel of random chains with n = 2..5, half of each size with a zero in rho.

    Each chain runs ``rates`` (dvg, bfg and pair rates) and ``contract``.
    Neither command draws random numbers, so the panel is drawn from a
    fixed stream: the same operations fail in every run, whatever ``seed``
    is, and a fix shows as the same drop in every run.
    ``seed`` goes into each config and drives the Monte Carlo of
    ``mc-verify``. The pair-rate reference needs exp(t0 Q), taken from
    scipy here so the check does not lean on the program's own kernel.
    """
    from scipy.linalg import expm

    rng = np.random.default_rng(np.random.SeedSequence(RATE_PANEL))
    ops = []
    for idx in range(RATE_CHAINS):
        n = 2 + idx % 4
        Q = _random_chain(rng, n)
        rho = rng.dirichlet(np.ones(n))
        if (idx // 4) % 2:  # every size gets interior and boundary occupations
            rho[rng.integers(n)] = 0.0
            rho /= rho.sum()
        base = rho[:, None] * Q
        j = rng.uniform(0.5, 2.0) * np.sqrt(np.where(np.eye(n, dtype=bool), 0.0, base * base.T))
        sym = rng.uniform(0.1, 1.0, (n, n))
        theta = (sym + sym.T) / (sym + sym.T).sum()
        t0 = float(rng.uniform(0.3, 1.5))
        config = {"generator": Q.tolist(), "t0": t0, "rho": rho.tolist(), "flux": j.tolist(),
                  "theta": theta.tolist(), "seed": seed}
        ops.append(Op(f"rates-{idx:02d}", "rates", config,
                      _check_rates(Q, rho, j, theta, expm(t0 * Q))))
        ops.append(Op(f"contract-{idx:02d}", "contract", config, _check_contract))
    ops.append(Op("mc-verify", "mc-verify",
                  {"generator": SYM2, "rho": [0.7, 0.3], "epsilon": 0.03,
                   "n_grid": [40, 60, 80, 100], "n_paths": 100_000, "seed": seed},
                  _check_mc))
    return ops


WORKLOADS = {
    "decomp-occ": decomp_occ,
    "decomp-flux": decomp_flux,
    "ring-oracle": ring_oracle,
    "rates-mc": rates_mc,
}


def write_configs(ops: list[Op], config_dir: Path) -> None:
    config_dir.mkdir(parents=True, exist_ok=True)
    for op in ops:
        (config_dir / f"{op.name}.json").write_text(json.dumps(op.config), encoding="utf-8")


def config_hash(config: dict) -> str:
    """The CLI's config hash: sha256 of the canonical JSON of the config."""
    canonical = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def judge(op: Op, rc, out_dir: Path) -> Outcome:
    """Check one operation's exit code and files against the CLI contract and its tolerance."""
    if rc == 1:
        try:
            error = json.loads((out_dir / "error.json").read_text(encoding="utf-8"))
        except (OSError, ValueError):
            return Outcome(False, False, "nonzero exit without a readable error.json")
        return Outcome(False, "error" in error, f"{error.get('error')}: {error.get('message')}")
    if rc != 0:
        return Outcome(False, False, f"unexpected exit {rc!r}")
    try:
        out = json.loads((out_dir / f"{op.command}.json").read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return Outcome(False, False, f"exit 0 without a readable {op.command}.json")
    if out.get("config_hash") != config_hash(op.config) or out.get("seed") != op.config.get("seed", 0):
        return Outcome(False, False, "output carries the wrong config hash or seed")
    for suffix in (".csv", ".schema.json"):
        if not (out_dir / f"{op.command}{suffix}").is_file():
            return Outcome(False, False, f"missing {op.command}{suffix}")
    return op.check(out, out_dir)
