"""Exact simulation of CTMC paths by uniformization, many paths at once.

Every sampler here runs a batch of paths with one stream per batch: a
Poisson number of events per path, and the skeleton chain
P = I + Q / lam (``chain._uniformized``) run in lockstep by
``_skeleton``, which returns each path's end state, visit counts and jump
counts in batch order. The lockstep walk keeps states in the smallest
signed integer type that holds n and visit counts in the smallest type
that holds the longest path's step count, and walks each step's paths
CHUNK rows at a time through preallocated buffers, so a batch costs a few
bytes per path plus a fixed scratch; index arithmetic on states
(``a * n + b``) is done in a wide type or replaced by a multi-index, since
it wraps in int8 once n >= 12. The draws are those of a walk over whole
steps: the same uniforms in the same order, and the same gamma variates
from the same counts in batch order. ``_blocks`` is the one place that
turns those counts into window blocks: occupation fractions drawn from
the Dirichlet law of the event spacings given the visit counts, followed
in flux mode by the jump counts per unit time. Absorbing states need no
special case: uniformization keeps a path in a state it cannot leave,
which is the exact law. ``_batch_step`` advances a batch through one
window. It drives the Monte Carlo decay fit, where ``batch_occupations``
carries each path's end state from one horizon of a grid to the next, so
a path is simulated once for the whole grid; in flux mode it is the
forward-simulated reference that the bridge tests condition by rejection
on the end state. ``_skeleton`` also runs the endpoint-conditioned
skeletons of bridge sampling (``bridge.conditional_samples``), with
next-state tables that depend on the number of steps left, and
``_blocks`` builds their blocks too.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from .chain import (GeneratorMatrix, ProbVector, _check_count, _check_grid, _check_state,
                    _uniformized)

__all__ = ["batch_occupations"]

MODES = ("occupation", "flux")


def _check_mode(mode) -> None:
    """Refuse a block mode that is not one of ``MODES``."""
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")


# rows per chunk of the lockstep walk and of the gamma draws: the per-step
# scratch of a batch is a few arrays of this many rows, whatever its size
CHUNK = 8192


def _next_state_table(probs: np.ndarray) -> np.ndarray:
    """Cumulative row sums of a stochastic matrix, without the last column.

    The next state from ``a`` with uniform draw u is the number of entries
    of row ``a`` that u reaches (u >= entry), so no draw can index past the
    last state, whatever rounding left in the row total. Entries that
    already equal the row total are set above 1: the states after them
    have zero probability and are never picked. A stack of matrices
    (..., n, n) gives a stack of tables.
    """
    cum = np.cumsum(probs, axis=-1)
    return np.where(cum[..., :-1] >= cum[..., -1:], 2.0, cum[..., :-1])


def _state_dtype(n: int) -> np.dtype:
    """Smallest signed integer type that holds the states of an n-state chain.

    Index arithmetic such as ``a * n + b`` wraps silently in int8 once
    n >= 12, so callers widen the states first or index by (a, b).
    """
    return np.min_scalar_type(-n)


def _skeleton(events: np.ndarray, states: np.ndarray, tables: np.ndarray, uniforms,
              want_flux: bool) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """Run a batch of skeleton chains in lockstep: path p takes events[p] steps from states[p].

    ``tables`` stacks next-state tables (``_next_state_table``) as an
    (R, n, n - 1) array. With R = 1 every step reads the one table, which
    is the homogeneous skeleton; otherwise a step after which j steps are
    still to come reads table j, which is how an endpoint-conditioned
    skeleton moves. ``uniforms(k)`` is called once for each step k and
    returns ``draw(paths)``, which gives one uniform for each path in
    ``paths`` (batch indices of paths that take a k-th step, in simulation
    order); it is called chunk by chunk along the step's paths, so a
    generator that draws ``len(paths)`` uniforms per call takes the same
    numbers as one draw for the whole step.

    Paths are sorted by their number of steps once, and ``np.bincount``
    of the events gives where each step's tail starts: step k runs on the
    contiguous tail of paths with events >= k, walked CHUNK rows at a time
    through preallocated threshold, mask and next-state buffers. The
    states live in the smallest signed type that holds n
    (``_state_dtype``) and the visit counts in the smallest unsigned type
    that holds the largest event count plus one, so the working set is a
    few bytes per path plus O(CHUNK) scratch (plus O(batch n^2) floats
    with flux), whatever the number of steps. Tables are read by index
    arithmetic on steps left, which is int64, so nothing wraps; jumps are
    counted straight into their batch row by (path, from, to) indices.
    End states and visit counts are scattered back to batch order at the
    end. The draws are those of the unchunked walk.
    Returns (ends, visits, jumps) in batch order: the end states, the
    (batch, n) visit counts per state (each row sums to events + 1) and,
    if want_flux, the (batch, n^2) float counts of real jumps a -> b in
    column a n + b, with the skeleton's self-loops (the diagonal columns)
    zeroed; jumps is None otherwise.
    """
    n = tables.shape[1]
    batch = states.size
    top = int(events.max(initial=0))
    # numpy radix-sorts 16-bit keys; the order only has to be deterministic
    order = np.argsort(events.astype(np.uint16) if top < 2**16 else events, kind="stable")
    per_count = np.bincount(events, minlength=top + 1)
    # the sorted rows from starts[k - 1] on take a k-th step
    starts = np.cumsum(per_count).tolist()
    state = states.astype(_state_dtype(n), copy=False)[order]
    # one row per state, so each step works on contiguous slices; row 0 is
    # filled in at the end
    visits = np.zeros((n, batch), dtype=np.min_scalar_type(top + 1))
    for z in range(1, n):
        visits[z] = state == z
    jumps = np.zeros((batch, n * n)) if want_flux else None
    cells = None if jumps is None else jumps.reshape(batch, n, n)
    homogeneous = tables.shape[0] == 1
    columns = [np.ascontiguousarray(tables[..., c]).ravel() for c in range(n - 1)]
    size = min(CHUNK, batch)
    threshold, mask = np.empty(size), np.empty(size, dtype=bool)
    chunk_next = np.empty(size, dtype=state.dtype)
    for k in range(1, top + 1):
        draw = uniforms(k)
        for lo in range(starts[k - 1], batch, CHUNK):
            hi = min(lo + CHUNK, batch)
            here, paths = state[lo:hi], order[lo:hi]
            thr, hit, new = threshold[: hi - lo], mask[: hi - lo], chunk_next[: hi - lo]
            u = draw(paths)
            if homogeneous:
                entry = here
            else:
                entry = events[paths] - k  # steps left after this one, int64
                entry *= n
                entry += here
            new.fill(0)
            for col in columns:
                np.take(col, entry, out=thr)
                np.greater_equal(u, thr, out=hit)
                new += hit
            if want_flux:
                cells[paths, here, new] += 1.0
            here[...] = new
            for z in range(1, n):
                np.equal(new, z, out=hit)
                visits[z, lo:hi] += hit
    # every row holds events + 1 visits; state 0 has those not counted
    visits[0] = np.repeat(np.arange(1, top + 2, dtype=visits.dtype), per_count)
    for z in range(1, n):
        visits[0] -= visits[z]
    if want_flux:
        jumps[:, :: n + 1] = 0.0  # skeleton self-loops are not jumps
    ends = np.empty_like(state)
    ends[order] = state
    counts = np.empty((batch, n), dtype=visits.dtype)
    counts[order] = visits.T
    return ends, counts, jumps


def _batch_step(Q: GeneratorMatrix, t0: float, states: np.ndarray, rng: np.random.Generator,
                want_flux: bool) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """Advance a batch of paths through one window of length t0 by uniformization.

    With lam the largest exit rate, each path sees N ~ Poisson(lam t0)
    events, and its states at the events follow the skeleton chain with
    kernel P = I + Q / lam (``chain._uniformized``), run by ``_skeleton``
    with uniforms drawn from ``rng`` in simulation order, one per path
    and step; returns its (ends, visits, jumps), which ``_blocks`` turns
    into the window's blocks. A state with zero exit rate has the unit
    row in P and keeps its paths, so chains with absorbing states sample
    exactly. The cost is proportional to lam t0, not to the number of real
    jumps. ``batch_occupations`` runs it without flux; with
    ``want_flux`` it is the bridge tests' forward reference for flux means.
    """
    lam, probs = _uniformized(Q)
    events = rng.poisson(lam * t0, states.size)
    return _skeleton(events, states, _next_state_table(probs)[None],
                     lambda k: lambda paths: rng.random(paths.size), want_flux)


def _blocks(visits: np.ndarray, jumps: np.ndarray | None, rng: np.random.Generator,
            t0: float, out: np.ndarray | None = None) -> np.ndarray:
    """Window blocks (batch, d) from the skeleton counts of ``_skeleton``.

    The first n columns are the occupation fractions: the N + 1 spacings
    of N uniform event times are Dirichlet(1, ..., 1), so grouped by the
    state the skeleton holds in each spacing they are Dirichlet(visits),
    drawn as normalized gamma variates (a zero count gives an exact 0).
    With jumps (flux mode) the n^2 jump counts divided by t0 follow.
    The blocks are written to ``out`` when it is given, which may be a
    strided or transposed view. The gamma variates are drawn CHUNK rows
    at a time into one float buffer that holds the counts of those rows,
    C-contiguous and in batch order, which is the draw of one call on the
    whole (batch, n) array; so the visit counts stay in their compact
    type and no batch-sized float temporary is made.
    """
    batch, n = visits.shape
    block = np.empty((batch, n if jumps is None else n + jumps.shape[1])) if out is None else out
    buffer = np.empty((min(CHUNK, batch), n))
    for lo in range(0, batch, CHUNK):
        gamma = buffer[: min(CHUNK, batch - lo)]
        gamma[...] = visits[lo : lo + CHUNK]
        rng.standard_gamma(gamma, out=gamma)
        np.divide(gamma, gamma.sum(axis=1, keepdims=True), out=block[lo : lo + CHUNK, :n])
    if jumps is not None:
        np.divide(jumps, t0, out=block[:, n:])
    return block


def _start_states(n: int, n_paths: int, rng: np.random.Generator,
                  init: ProbVector | int) -> np.ndarray:
    """Start states of a batch: all ``init`` if it is a state, else drawn from it.

    The states come in ``_state_dtype(n)``, the type ``_skeleton`` keeps
    them in.
    """
    _check_count(n_paths, "n_paths")
    if isinstance(init, ProbVector):
        if init.weights.size != n:
            raise ValueError(f"start distribution has {init.weights.size} entries "
                             f"for a chain of {n} states")
        return rng.choice(n, size=n_paths, p=init.weights).astype(_state_dtype(n))
    _check_state(n, init, "start state")
    return np.full(n_paths, init, dtype=_state_dtype(n))


def batch_occupations(
    Q: GeneratorMatrix,
    horizon: float | Sequence[float],
    n_paths: int,
    rng: np.random.Generator,
    init: ProbVector | int,
) -> np.ndarray:
    """Occupation fractions over [0, T] for n_paths independent paths, at one T or a grid of them.

    ``horizon`` is either one horizon T, giving an (n_paths, n) array, or
    an increasing grid T_1 < ... < T_G, giving (n_paths, G, n) with the
    fractions over [0, T_i] in column i. Each path is simulated once, to
    T_G: the chain is Markov, so the batch advances one window
    (T_{i-1}, T_i] at a time from the previous window's end states, and
    the occupation over [0, T_i] is that over [0, T_{i-1}] plus the
    window's. The grid points of one path are thus dependent, and the
    draws up to T_i do not depend on the later grid points. A single T is
    the grid of one. ``init`` is either a fixed start state or a
    distribution to draw the start states from. The paths are simulated
    together by uniformization, exactly also on chains with absorbing
    states; see ``_batch_step``.
    """
    grid = _check_grid(horizon, "horizon")
    times = np.atleast_1d(grid)
    states = _start_states(Q.n_states, n_paths, rng, init)
    out = np.empty((n_paths, times.size, Q.n_states))
    before = 0.0
    for i, t in enumerate(times.tolist()):
        states, visits, _ = _batch_step(Q, t - before, states, rng, want_flux=False)
        frac = _blocks(visits, None, rng, t - before, out=out[:, i])
        if i:
            # (window * frac + before * previous) / t, in place
            frac *= (t - before) / before
            frac += out[:, i - 1]
            frac *= before / t
        before = t
    return out if grid.ndim else out[:, 0]
