"""Endpoint-conditioned chains (bridges) and their block statistics.

A bridge pins the chain to start at x and end at y after a window of
length t0. Its inhomogeneous transition law is a ratio of unconditioned
kernels: ``bridge_transition_row`` gives its rows and ``bridge_generator``
its jump rates. ``conditional_samples`` is the one bridge sampler. It
samples the bridge exactly by uniformization (Hobolth & Stone, Ann. Appl.
Stat. 3(3):1204-1231, 2009): with lam the largest exit rate and
P = I + Q / lam (``chain._uniformized``), it draws the number N of
skeleton events given both endpoints, runs the skeleton conditioned to
reach y in N steps on the lockstep loop of ``simulate``, and hands its
counts to ``simulate._blocks``, which draws the occupation fractions from
the Dirichlet law of the event spacings and, in flux mode, appends the
jump counts per unit time. The blocks are the conditional laws feeding
the per-pair conjugate oracle; no path is rejected, however small
P_xy(t0). ``BridgeSpec`` solves no kernel: each of these three refuses an
endpoint unreachable in time t0 where it divides by a kernel entry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .chain import (GeneratorMatrix, _check_count, _check_seed, _check_state, _check_window,
                    _is_real, _uniformized, transition_at)
from .conjugate import EmpiricalLaw
from .simulate import _blocks, _check_mode, _next_state_table, _skeleton, _state_dtype

__all__ = [
    "DegenerateDenominator",
    "BridgeSpec",
    "bridge_transition_row",
    "bridge_generator",
    "conditional_samples",
]

# The law of the skeleton's event count is truncated at the first k where
# the Poisson tail beyond k is at most this fraction of the weight so far.
TAIL_RTOL = 1e-16


class DegenerateDenominator(ValueError):
    """A bridge ratio has a vanishing denominator (endpoint unreachable)."""


@dataclass(frozen=True)
class BridgeSpec:
    """Chain bridged from x at time 0 to y at time t0.

    It only validates: x and y must be integer states of the chain
    (``ValueError``) and t0 positive and finite (``ChainError``). An
    unreachable y raises ``DegenerateDenominator`` where a kernel entry is
    divided by, not here.
    """

    Q: GeneratorMatrix
    x: int
    y: int
    t0: float

    def __post_init__(self):
        _check_state(self.Q.n_states, self.x, "bridge start x")
        _check_state(self.Q.n_states, self.y, "bridge end y")
        _check_window(self.t0)

    @property
    def n_states(self) -> int:
        return self.Q.n_states


def bridge_transition_row(spec: BridgeSpec, a: int, s: float, t: float) -> np.ndarray:
    """Conditional law of X(t) given X(s) = a under the bridge, as a row.

    Entry b is P_ab(t - s) P_by(t0 - t) / P_ay(t0 - s): the unconditioned
    step reweighted by the likelihood of still hitting the pinned endpoint.
    The start state of the bridge does not enter, only the pinned endpoint
    does. Rows sum to 1 and satisfy the two-step (Chapman-Kolmogorov)
    identity. A bad state or time, bools included, raises ``ValueError``.
    """
    _check_state(spec.n_states, a, "bridge state a")
    if not (_is_real(s) and _is_real(t) and 0 <= s <= t <= spec.t0):
        raise ValueError(f"need real times 0 <= s <= t <= t0, got s = {s!r}, t = {t!r}")
    p_step = transition_at(spec.Q, t - s).probs[a]
    p_close = transition_at(spec.Q, spec.t0 - t).probs[:, spec.y]
    denom = transition_at(spec.Q, spec.t0 - s).probs[a, spec.y]
    if denom <= 0.0:
        raise DegenerateDenominator(f"state {a} cannot reach {spec.y} in time {spec.t0 - s!r}")
    return p_step * p_close / denom


def bridge_generator(spec: BridgeSpec, a: int, b: int, t: float) -> float:
    """Time-inhomogeneous jump rate a -> b of the bridge at time t < t0.

    Equals Q_ab P_by(t0 - t) / P_ay(t0 - t). Rates into the pinned state
    blow up as t approaches t0, which is what forces the bridge home.
    """
    _check_state(spec.n_states, a, "bridge state a")
    _check_state(spec.n_states, b, "bridge state b")
    if a == b:
        raise ValueError("generator entries are defined for a != b")
    if not (_is_real(t) and 0 <= t < spec.t0):
        raise ValueError(f"need a real time 0 <= t < t0, got t = {t!r}")
    p_close = transition_at(spec.Q, spec.t0 - t).probs[:, spec.y]
    if p_close[a] <= 0.0:
        raise DegenerateDenominator(f"state {a} cannot reach {spec.y} in time {spec.t0 - t!r}")
    return float(spec.Q.rates[a, b] * p_close[b] / p_close[a])


def _stream(seed: int, pair_index: int, key: int) -> np.random.Generator:
    """Random stream keyed by (seed, pair index, key)."""
    return np.random.default_rng(np.random.SeedSequence([seed, pair_index, key]))


def _event_count_law(probs: np.ndarray, x: int, y: int, mean: float):
    """Law of the skeleton's event count N given the endpoints x and y.

    P(N = k | x -> y) is proportional to Pois(k; mean) (P^k)_xy. Returns
    the cumulative weights over k = 0..K, with total 1 up to rounding, and
    the columns P^k e_y for k = 0..K, each rescaled to maximum 1 so that
    none underflows. The Poisson weights are taken in log space, so a mean
    past 745 does not underflow exp(-mean). K is the first k at which a
    bound on the Poisson tail beyond k, which also bounds the neglected
    weight since (P^j)_xy <= 1, falls to TAIL_RTOL of the weight
    accumulated so far: for k + 2 > mean the tail is at most
    Pois(k + 1) / (1 - mean / (k + 2)), which goes to zero.

    Raises
    ------
    DegenerateDenominator
        If the skeleton cannot reach y from x at all.
    """
    n = probs.shape[0]
    log_mean = math.log(mean) if mean > 0.0 else -math.inf
    log_rtol = math.log(TAIL_RTOL)
    column = np.zeros(n)
    column[y] = 1.0
    log_scale = 0.0  # log of the factor the stored column was divided by
    columns, log_weights = [], []
    log_total = -math.inf
    k = 0
    while True:
        columns.append(column)
        log_pois = -mean - math.lgamma(k + 1) + (k * log_mean if k else 0.0)
        log_weights.append(log_pois + log_scale + math.log(column[x]) if column[x] > 0.0
                           else -math.inf)
        log_total = float(np.logaddexp(log_total, log_weights[-1]))
        if log_total == -math.inf:
            if k >= n:
                raise DegenerateDenominator(f"the skeleton never reaches {y} from {x}")
        elif k + 2 > mean:
            log_tail = (-mean - math.lgamma(k + 2) + (k + 1) * log_mean
                        - math.log1p(-mean / (k + 2)))
            if log_tail <= log_total + log_rtol:
                break
        column = probs @ column
        scale = float(column.max())
        if scale > 0.0:
            column = column / scale
            log_scale += math.log(scale)
        k += 1
    cdf = np.cumsum(np.exp(np.array(log_weights) - log_total))
    return cdf, np.array(columns)


def _bridge_tables(probs: np.ndarray, columns: np.ndarray) -> np.ndarray:
    """Next-state tables of the skeleton bridge, one per number of steps to come.

    Table j moves a to z with probability P_az (P^j)_zy / (P^(j+1))_ay,
    from the rescaled columns P^j e_y of ``_event_count_law``. A state that
    cannot reach y in j + 1 steps is never occupied with that many steps
    left; its row keeps P's row.
    """
    step = probs * columns[:, None, :]
    total = step.sum(axis=-1, keepdims=True)
    rows = np.divide(step, total, out=np.broadcast_to(probs, step.shape).copy(), where=total > 0.0)
    return _next_state_table(rows)


def conditional_samples(spec: BridgeSpec, mode: str, n_samples: int, seed: int) -> EmpiricalLaw:
    """Sample the conditional law of a block statistic given its endpoints.

    In "occupation" mode each sample is the occupation-fraction vector of a
    bridge path (d = n); in "flux" mode the jump counts divided by t0 are
    appended (d = n + n^2, diagonal entries always zero, kept for fixed
    shape). Sampling is exact, by uniformization: each row draws its event
    count N from ``_event_count_law`` by inverse CDF, runs the skeleton
    P = I + Q / lam under the bridge kernel (with r steps left from a, it
    moves to z with probability P_az (P^(r-1))_zy / (P^r)_ay), and builds
    its block with ``simulate._blocks``: occupation fractions from the
    Dirichlet law of the event spacings given the skeleton's visit counts,
    then in flux mode the jump counts. The N uniforms, the spacings and the
    uniforms of step k come from streams keyed by (seed, pair index, key)
    with key 0, 1 and k + 1, one draw per row in row order, so the result
    depends only on (seed, spec, n_samples) and its first k rows are the
    same for every n_samples >= k. A bad count or seed, or an unreachable
    endpoint (``DegenerateDenominator``), raises before any draw.
    """
    _check_mode(mode)
    _check_count(n_samples, "sample count")
    _check_seed(seed)
    n = spec.n_states
    pair_index = spec.x * n + spec.y
    lam, probs = _uniformized(spec.Q)
    cdf, columns = _event_count_law(probs, spec.x, spec.y, lam * spec.t0)
    draws = _stream(seed, pair_index, 0).random(n_samples) * cdf[-1]
    events = np.minimum(np.searchsorted(cdf, draws, side="right"), cdf.size - 1)
    tables = _bridge_tables(probs, columns[: events.max()])
    _, visits, jumps = _skeleton(
        events, np.full(n_samples, spec.x, dtype=_state_dtype(n)), tables,
        lambda k: _stream(seed, pair_index, k + 1).random(n_samples).take,
        mode == "flux",
    )
    # the law keeps the blocks in the (d, N) layout of its moment passes;
    # _blocks fills that array through its transposed view, so no
    # transposing copy is made
    columns = np.empty((n if jumps is None else n + jumps.shape[1], n_samples))
    _blocks(visits, jumps, _stream(seed, pair_index, 1), spec.t0, out=columns.T)
    return EmpiricalLaw(columns.T)
