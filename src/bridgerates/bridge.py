"""Endpoint-conditioned chains (bridges) and their block statistics.

A bridge pins the chain to start at x and end at y after a window of
length t0. Its inhomogeneous transition law is a ratio of unconditioned
kernels; sampling is by rejection: run the unconditioned chain from x over
the window and keep paths that end in y. ``conditional_samples`` runs the
candidates in lockstep batches on the uniformized window step of
``simulate``, draws occupation fractions for the kept candidates only, and
returns their occupation (and optionally flux) blocks, the conditional
laws feeding the per-pair conjugate oracle.
``sample_bridge`` draws single paths with the Gillespie loop of
``simulate`` and stays as the independent reference for the kernels.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .chain import GeneratorMatrix, transition_at
from .conjugate import EmpiricalLaw
from .simulate import (
    MODES,
    PathRecord,
    _batch_step,
    _gillespie_jumps,
    _jump_tables,
    _occupation_fractions,
)

__all__ = [
    "DegenerateDenominator",
    "RejectionBudgetExceeded",
    "BridgeSpec",
    "PathRecord",
    "bridge_transition",
    "bridge_transition_row",
    "bridge_generator",
    "sample_bridge",
    "conditional_samples",
]

DEFAULT_MAX_ATTEMPTS = 1_000_000
# Candidate paths per lockstep rejection round of conditional_samples.
ROUND_SIZE = 8192


class DegenerateDenominator(ValueError):
    """A bridge ratio has a vanishing denominator (endpoint unreachable)."""


class RejectionBudgetExceeded(RuntimeError):
    """Rejection sampling hit its attempt cap before acceptance."""


@dataclass(frozen=True)
class BridgeSpec:
    """Chain bridged from x at time 0 to y at time t0."""

    Q: GeneratorMatrix
    x: int
    y: int
    t0: float

    def __post_init__(self):
        n = self.Q.n_states
        if not (0 <= self.x < n and 0 <= self.y < n):
            raise ValueError("bridge endpoints out of range")
        if self.t0 <= 0:
            raise ValueError("window length must be positive")
        if transition_at(self.Q, self.t0).probs[self.x, self.y] <= 0.0:
            raise DegenerateDenominator(
                f"endpoint {self.y} unreachable from {self.x} in time {self.t0!r}"
            )

    @property
    def n_states(self) -> int:
        return self.Q.n_states


def bridge_transition_row(spec: BridgeSpec, a: int, s: float, t: float) -> np.ndarray:
    """Conditional law of X(t) given X(s) = a under the bridge, as a row."""
    if not 0 <= s <= t <= spec.t0:
        raise ValueError("need 0 <= s <= t <= t0")
    p_step = transition_at(spec.Q, t - s).probs[a]
    p_close = transition_at(spec.Q, spec.t0 - t).probs[:, spec.y]
    denom = transition_at(spec.Q, spec.t0 - s).probs[a, spec.y]
    if denom <= 0.0:
        raise DegenerateDenominator(f"state {a} cannot reach {spec.y} in time {spec.t0 - s!r}")
    return p_step * p_close / denom


def bridge_transition(spec: BridgeSpec, a: int, b: int, s: float, t: float) -> float:
    """Bridge transition probability P(X(t) = b | X(s) = a).

    Equals P_ab(t - s) P_by(t0 - t) / P_ay(t0 - s): the unconditioned step
    reweighted by the likelihood of still hitting the pinned endpoint. The
    start state of the bridge does not enter, only the pinned endpoint does.
    Rows sum to 1 and satisfy the two-step (Chapman-Kolmogorov) identity.
    """
    row = bridge_transition_row(spec, a, s, t)
    if not 0 <= b < spec.n_states:
        raise ValueError("state out of range")
    return float(row[b])


def bridge_generator(spec: BridgeSpec, a: int, b: int, t: float) -> float:
    """Time-inhomogeneous jump rate a -> b of the bridge at time t < t0.

    Equals Q_ab P_by(t0 - t) / P_ay(t0 - t). Rates into the pinned state
    blow up as t approaches t0, which is what forces the bridge home.
    """
    if a == b:
        raise ValueError("generator entries are defined for a != b")
    if not 0 <= t < spec.t0:
        raise ValueError("need 0 <= t < t0")
    if not (0 <= a < spec.n_states and 0 <= b < spec.n_states):
        raise ValueError("state out of range")
    p_close = transition_at(spec.Q, spec.t0 - t).probs[:, spec.y]
    if p_close[a] <= 0.0:
        raise DegenerateDenominator(f"state {a} cannot reach {spec.y} in time {spec.t0 - t!r}")
    return float(spec.Q.rates[a, b] * p_close[b] / p_close[a])


def sample_bridge(
    spec: BridgeSpec,
    rng: np.random.Generator,
    max_attempts: int = DEFAULT_MAX_ATTEMPTS,
) -> PathRecord:
    """Draw one bridge path by rejection on the unconditioned chain.

    Simulates from x over [0, t0] with the draws of ``simulate.gillespie``
    until a path ends at y; the chain's jump tables are built once per
    call, and only the accepted path becomes a PathRecord. The acceptance
    probability is P_xy(t0), positive by BridgeSpec validation.

    Raises
    ------
    RejectionBudgetExceeded
        If no path is accepted within max_attempts draws.
    """
    tables = _jump_tables(spec.Q)
    for _ in range(max_attempts):
        times, dests = _gillespie_jumps(tables, spec.x, spec.t0, rng)
        if (dests[-1] if dests else spec.x) == spec.y:
            return PathRecord(spec.n_states, spec.x, spec.t0, np.array(times),
                              np.array(dests, dtype=np.int64))
    raise RejectionBudgetExceeded(
        f"no acceptance in {max_attempts} attempts for pair ({spec.x}, {spec.y})"
    )


def conditional_samples(spec: BridgeSpec, mode: str, n_samples: int, seed: int) -> EmpiricalLaw:
    """Sample the conditional law of a block statistic given its endpoints.

    In "occupation" mode each sample is the occupation-fraction vector of a
    bridge path (d = n); in "flux" mode the jump counts divided by t0 are
    appended (d = n + n^2, diagonal entries always zero, kept for fixed
    shape). Rejection runs in lockstep rounds of ROUND_SIZE candidate paths
    from x; round r draws from the stream keyed by (seed, pair index, r)
    and keeps, in order, the paths that end in y, drawing occupation
    fractions for those alone. The result depends only on (seed, spec,
    n_samples), and its first k rows are the same for every n_samples >= k.

    Raises
    ------
    RejectionBudgetExceeded
        If DEFAULT_MAX_ATTEMPTS consecutive candidates bring no acceptance.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}")
    if n_samples < 1:
        raise ValueError("need at least one sample")
    n = spec.n_states
    pair_index = spec.x * n + spec.y
    starts = np.full(ROUND_SIZE, spec.x)
    parts = []
    kept = 0
    misses = 0  # candidates rejected since the last acceptance
    round_index = 0
    while kept < n_samples:
        rng = np.random.default_rng(np.random.SeedSequence([seed, pair_index, round_index]))
        window = _batch_step(spec.Q, spec.t0, starts, rng, mode == "flux")
        hits = np.flatnonzero(window.ends == spec.y)
        first = hits[0] if hits.size else ROUND_SIZE
        if misses + first >= DEFAULT_MAX_ATTEMPTS:
            raise RejectionBudgetExceeded(
                f"no acceptance in {DEFAULT_MAX_ATTEMPTS} attempts for pair ({spec.x}, {spec.y})"
            )
        misses = ROUND_SIZE - 1 - hits[-1] if hits.size else misses + ROUND_SIZE
        visits, flux = window.rows(hits)
        block = _occupation_fractions(visits, rng)
        if mode == "flux":
            block = np.concatenate([block, flux.reshape(hits.size, n * n) / spec.t0], axis=1)
        parts.append(block)
        kept += hits.size
        round_index += 1
    return EmpiricalLaw(np.concatenate(parts, axis=0)[:n_samples])
