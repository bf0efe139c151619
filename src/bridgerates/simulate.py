"""Exact simulation of CTMC paths and their empirical statistics.

Single paths are simulated jump by jump (exponential holding times plus the
embedded jump chain). Whole-path statistics (occupation fractions, jump
counts) and the windowed block embedding (endpoint skeleton plus per-window
additive statistics) are computed from the recorded jump sequence. Batch
helpers advance many paths in lockstep with vectorized draws, one stream
per batch; they drive tail-probability estimation and the rejection rounds
of bridge sampling (``bridge.conditional_samples``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .chain import GeneratorMatrix, ProbVector
from .ratefun import FluxField, PairMeasure

__all__ = [
    "AbsorbingState",
    "PathRecord",
    "DiscreteEmbedding",
    "EmpiricalPair",
    "gillespie",
    "occupation",
    "cumulative_flux",
    "discrete_embedding",
    "accumulate",
    "batch_occupations",
    "batch_pair_statistics",
]

MODES = ("occupation", "flux")


class AbsorbingState(RuntimeError):
    """Simulation entered a state with zero total exit rate."""


@dataclass(frozen=True)
class PathRecord:
    """A cadlag CTMC path on [0, horizon]: start state plus jump sequence."""

    n_states: int
    x0: int
    horizon: float
    jump_times: np.ndarray
    destinations: np.ndarray

    def __post_init__(self):
        times = np.asarray(self.jump_times, dtype=float)
        dests = np.asarray(self.destinations, dtype=np.int64)
        if times.shape != dests.shape or times.ndim != 1:
            raise ValueError("jump times and destinations must be matching 1-d arrays")
        if times.size:
            if times[0] <= 0 or np.any(np.diff(times) <= 0):
                raise ValueError("jump times must be strictly increasing and positive")
            if times[-1] > self.horizon:
                raise ValueError("jump beyond the path horizon")
            if dests.min() < 0 or dests.max() >= self.n_states:
                raise ValueError("destination out of range")
        if not 0 <= self.x0 < self.n_states:
            raise ValueError("start state out of range")
        object.__setattr__(self, "jump_times", times)
        object.__setattr__(self, "destinations", dests)

    @property
    def n_jumps(self) -> int:
        return self.jump_times.size

    def states(self) -> np.ndarray:
        """State sequence between jumps: x0 followed by each destination."""
        return np.concatenate(([self.x0], self.destinations))

    def state_at(self, t: float) -> int:
        """State at time t (right-continuous)."""
        if not 0 <= t <= self.horizon:
            raise ValueError(f"time {t!r} outside [0, {self.horizon!r}]")
        idx = int(np.searchsorted(self.jump_times, t, side="right"))
        return int(self.x0) if idx == 0 else int(self.destinations[idx - 1])


@dataclass(frozen=True)
class DiscreteEmbedding:
    """Endpoint skeleton and per-window additive blocks of a path.

    ``states`` holds the n+1 window endpoints X(0), X(t0), ..., X(n t0);
    ``blocks`` holds one d-vector per window: occupation fractions, or
    occupation fractions followed by the n^2 jump counts divided by t0.
    """

    t0: float
    n_states: int
    mode: str
    states: np.ndarray
    blocks: np.ndarray

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}")
        states = np.asarray(self.states, dtype=np.int64)
        blocks = np.asarray(self.blocks, dtype=float)
        if states.ndim != 1 or blocks.ndim != 2 or states.size != blocks.shape[0] + 1:
            raise ValueError("states must hold one more entry than blocks has rows")
        d = self.n_states if self.mode == "occupation" else self.n_states + self.n_states**2
        if blocks.shape[1] != d:
            raise ValueError(f"blocks must have width {d} in mode {self.mode!r}")
        occ = blocks[:, : self.n_states]
        if occ.size and (occ.min() < -1e-12 or np.abs(occ.sum(axis=1) - 1.0).max() > 1e-9):
            raise ValueError("occupation components of each block must sum to 1")
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "blocks", blocks)

    @property
    def n_windows(self) -> int:
        return self.blocks.shape[0]

    @property
    def d(self) -> int:
        return self.blocks.shape[1]


@dataclass(frozen=True)
class EmpiricalPair:
    """Pair-indexed block averages: K (per-pair sums / n) and Theta."""

    k: FluxField
    theta: PairMeasure
    n_windows: int

    def __post_init__(self):
        if self.k.n_states != self.theta.n_states:
            raise ValueError("k and theta must share the state space")
        scaled = self.theta.weights * self.n_windows
        if np.abs(scaled - np.round(scaled)).max() > 1e-9:
            raise ValueError("theta must sit on the 1/n lattice")


def gillespie(Q: GeneratorMatrix, x0: int, horizon: float, rng: np.random.Generator) -> PathRecord:
    """Simulate one exact path of the chain on [0, horizon] from x0.

    Holding times are exponential with the state's exit rate and the next
    state follows the embedded jump chain.

    Raises
    ------
    AbsorbingState
        If the path visits a state with zero exit rate.
    """
    if not 0 <= x0 < Q.n_states:
        raise ValueError("start state out of range")
    if horizon < 0:
        raise ValueError("horizon must be nonnegative")
    exit_rates = Q.exit_rates
    cum_jump = np.cumsum(Q.jump_probs(), axis=1)
    times: list[float] = []
    dests: list[int] = []
    state = x0
    t = 0.0
    while True:
        rate = exit_rates[state]
        if rate <= 0.0:
            raise AbsorbingState(f"state {state} has zero exit rate")
        t += rng.exponential(1.0 / rate)
        if t > horizon:
            break
        u = rng.random()
        state = int(np.searchsorted(cum_jump[state], u, side="right"))
        times.append(t)
        dests.append(state)
    return PathRecord(Q.n_states, x0, horizon, np.array(times), np.array(dests, dtype=np.int64))


def _segments(path: PathRecord, t_max: float):
    """(state, start, end) triples covering [0, t_max]."""
    bounds = np.concatenate(([0.0], path.jump_times, [path.horizon]))
    states = path.states()
    for idx in range(states.size):
        lo, hi = bounds[idx], bounds[idx + 1]
        if lo >= t_max:
            break
        yield int(states[idx]), lo, min(hi, t_max)


def occupation(path: PathRecord, t_max: float | None = None) -> ProbVector:
    """Occupation fractions of the path over [0, t_max] (default: whole path)."""
    t_max = path.horizon if t_max is None else t_max
    if not 0 < t_max <= path.horizon:
        raise ValueError("t_max must lie in (0, horizon]")
    occ = np.zeros(path.n_states)
    for state, lo, hi in _segments(path, t_max):
        occ[state] += hi - lo
    return ProbVector(occ / t_max)


def cumulative_flux(path: PathRecord) -> np.ndarray:
    """Integer jump counts W_xy over the whole path, zero on the diagonal."""
    counts = np.zeros((path.n_states, path.n_states), dtype=np.int64)
    states = path.states()
    np.add.at(counts, (states[:-1], states[1:]), 1)
    return counts


def discrete_embedding(path: PathRecord, t0: float, mode: str) -> DiscreteEmbedding:
    """Split a path over [0, n*t0] into its endpoint skeleton and window blocks.

    Window m covers ((m-1) t0, m t0]. Occupation fractions are relative to
    t0; jump counts are divided by t0 so every block is an average per unit
    time. The horizon must be an integer multiple of t0.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}")
    if t0 <= 0:
        raise ValueError("window length must be positive")
    n_windows = int(round(path.horizon / t0))
    if n_windows < 1 or abs(n_windows * t0 - path.horizon) > 1e-9 * max(1.0, path.horizon):
        raise ValueError("path horizon must be a positive integer multiple of t0")
    n = path.n_states
    occ = np.zeros((n_windows, n))
    for state, lo, hi in _segments(path, path.horizon):
        w = min(int(lo / t0), n_windows - 1)
        while w < n_windows and w * t0 < hi:
            overlap = min(hi, (w + 1) * t0) - max(lo, w * t0)
            if overlap > 0:
                occ[w, state] += overlap
            w += 1
    occ /= t0

    endpoints = np.empty(n_windows + 1, dtype=np.int64)
    for m in range(n_windows + 1):
        endpoints[m] = path.state_at(min(m * t0, path.horizon))

    if mode == "occupation":
        blocks = occ
    else:
        flux = np.zeros((n_windows, n, n))
        states = path.states()
        for j, tau in enumerate(path.jump_times):
            w = min(int(math.ceil(tau / t0)) - 1, n_windows - 1)
            w = max(w, 0)
            flux[w, states[j], states[j + 1]] += 1.0
        blocks = np.concatenate([occ, flux.reshape(n_windows, n * n) / t0], axis=1)
    return DiscreteEmbedding(t0, n, mode, endpoints, blocks)


def accumulate(embedding: DiscreteEmbedding) -> EmpiricalPair:
    """Average the blocks of an embedding by their endpoint pair.

    Returns K (block sums per endpoint pair, divided by the number of
    windows) and Theta (endpoint-pair frequencies). The total of K over all
    pairs equals the plain average of all blocks.
    """
    n = embedding.n_states
    n_win = embedding.n_windows
    k = np.zeros((n, n, embedding.d))
    counts = np.zeros((n, n))
    for m in range(n_win):
        x, y = embedding.states[m], embedding.states[m + 1]
        counts[x, y] += 1.0
        k[x, y] += embedding.blocks[m]
    return EmpiricalPair(FluxField(k / n_win), PairMeasure(counts / n_win), n_win)


# ---------------------------------------------------------------------------
# vectorized batch simulation


def _batch_step(Q: GeneratorMatrix, t0: float, states: np.ndarray, rng: np.random.Generator,
                want_flux: bool):
    """Advance a batch of paths through one window of length t0.

    Returns occupation fractions over the window, jump counts (or None),
    and the end states. Paths advance in lockstep: one exponential and one
    uniform draw per active path per jump round. Each round works on
    compact arrays of the still-moving paths (batch index, state, time
    left) and scatters their holding times into the batch once, through a
    flat (path, state) index. Raises AbsorbingState when a path that is
    still moving sits in a state with zero exit rate.
    """
    exit_rates = Q.exit_rates
    absorbing = bool((exit_rates <= 0.0).any())
    cum_jump = np.cumsum(Q.jump_probs(), axis=1)
    n = Q.n_states
    batch = states.size
    occ = np.zeros(batch * n)
    flux = np.zeros(batch * n * n, dtype=np.int64) if want_flux else None
    current = states.copy()
    active = np.arange(batch)
    state = states.copy()
    remaining = np.full(batch, t0)
    while active.size:
        rates = exit_rates[state]
        if absorbing and rates.min() <= 0.0:
            raise AbsorbingState(f"state {state[rates.argmin()]} has zero exit rate")
        dwell = rng.standard_exponential(active.size) / rates
        jumped = dwell < remaining
        occ[active * n + state] += np.minimum(dwell, remaining)
        movers = np.flatnonzero(jumped)
        if movers.size < active.size:
            held = ~jumped
            current[active[held]] = state[held]
            if not movers.size:
                break
            active, state = active[movers], state[movers]
            remaining, dwell = remaining[movers], dwell[movers]
        new = (rng.random(active.size)[:, None] >= cum_jump[state]).sum(axis=1)
        if want_flux:
            flux[(active * n + state) * n + new] += 1
        state = new
        remaining = remaining - dwell
    flux = flux.reshape(batch, n, n) if want_flux else None
    return occ.reshape(batch, n) / t0, flux, current


def batch_occupations(
    Q: GeneratorMatrix,
    horizon: float,
    n_paths: int,
    rng: np.random.Generator,
    init: ProbVector | int,
) -> np.ndarray:
    """Occupation fractions over [0, horizon] for n_paths independent paths.

    ``init`` is either a fixed start state or a distribution to draw the
    start states from. Statistically identical to repeated gillespie calls;
    draws are interleaved across the batch.
    """
    if isinstance(init, ProbVector):
        states = rng.choice(Q.n_states, size=n_paths, p=init.weights)
    else:
        states = np.full(n_paths, int(init))
    occ, _, _ = _batch_step(Q, horizon, states, rng, want_flux=False)
    return occ


def batch_pair_statistics(
    Q: GeneratorMatrix,
    t0: float,
    n_windows: int,
    n_paths: int,
    rng: np.random.Generator,
    init: ProbVector | int,
    mode: str = "flux",
):
    """Per-path block averages (K, Theta) over n_windows windows of length t0.

    Returns (k, theta) arrays of shapes (n_paths, n, n, d) and
    (n_paths, n, n); memory scales accordingly, so keep batches moderate.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}")
    n = Q.n_states
    d = n if mode == "occupation" else n + n * n
    if isinstance(init, ProbVector):
        states = rng.choice(n, size=n_paths, p=init.weights)
    else:
        states = np.full(n_paths, int(init))
    k = np.zeros((n_paths, n, n, d))
    theta = np.zeros((n_paths, n, n))
    rows = np.arange(n_paths)
    for _ in range(n_windows):
        occ, flux, new_states = _batch_step(Q, t0, states, rng, want_flux=(mode == "flux"))
        if mode == "occupation":
            blocks = occ
        else:
            blocks = np.concatenate([occ, flux.reshape(n_paths, n * n) / t0], axis=1)
        k[rows, states, new_states] += blocks
        theta[rows, states, new_states] += 1.0
        states = new_states
    return k / n_windows, theta / n_windows
