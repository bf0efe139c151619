"""Finite-state continuous-time Markov chain primitives.

Generators, transition kernels, invariant measures, and the uniformization
construction of exp(tQ) that keeps transition matrices exactly nonnegative
and row-stochastic.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ChainError",
    "NonZeroRowSum",
    "NegativeOffDiagonal",
    "Reducible",
    "GeneratorMatrix",
    "TransitionKernel",
    "ProbVector",
    "validate_generator",
    "transition_at",
    "invariant_measure",
    "dtmc_invariant",
    "is_irreducible",
]

ROW_SUM_TOL = 1e-12
STOCHASTIC_TOL = 1e-10
POISSON_TAIL = 1e-14
# largest |x A| an invariant-measure solve may leave, times max(1, max |A|)
RESIDUAL_TOL = 1e-10
# uniformization loses accuracy once lam*t gets large; switch to squaring
_MAX_UNIFORMIZATION_MASS = 200.0


class ChainError(ValueError):
    """Base class for malformed chain and time inputs; a ``ValueError``, like every bad input."""


class NonZeroRowSum(ChainError):
    """A generator row does not sum to zero."""


class NegativeOffDiagonal(ChainError):
    """A generator has a negative off-diagonal rate."""


class Reducible(ChainError):
    """The chain is not irreducible, so no unique invariant measure exists."""


@dataclass(frozen=True)
class GeneratorMatrix:
    """Generator (rate matrix) of a finite-state CTMC.

    Off-diagonal entries are jump rates, each diagonal entry is minus the
    total exit rate of its state, so every row sums to zero.
    """

    rates: np.ndarray

    def __post_init__(self):
        rates = np.asarray(self.rates, dtype=float)
        if rates.ndim != 2 or rates.shape[0] != rates.shape[1]:
            raise ChainError(f"generator must be square, got shape {rates.shape}")
        if not np.all(np.isfinite(rates)):
            raise ChainError("generator entries must be finite")
        off = rates[~np.eye(rates.shape[0], dtype=bool)]
        if off.size and off.min() < 0:
            raise NegativeOffDiagonal(f"negative off-diagonal rate {off.min()!r}")
        row_sums = rates.sum(axis=1)
        worst = float(np.abs(row_sums).max()) if row_sums.size else 0.0
        if worst > ROW_SUM_TOL * max(1.0, float(np.abs(rates).max())):
            raise NonZeroRowSum(f"row sums deviate from 0 by {worst!r}")
        object.__setattr__(self, "rates", rates)

    @property
    def n_states(self) -> int:
        return self.rates.shape[0]

    @property
    def exit_rates(self) -> np.ndarray:
        """Total exit rate per state (nonnegative vector)."""
        return -np.diag(self.rates)


@dataclass(frozen=True)
class TransitionKernel:
    """Row-stochastic transition matrix of a discrete-time chain."""

    probs: np.ndarray

    def __post_init__(self):
        probs = np.asarray(self.probs, dtype=float)
        if probs.ndim != 2 or probs.shape[0] != probs.shape[1]:
            raise ChainError(f"kernel must be square, got shape {probs.shape}")
        if not np.all(np.isfinite(probs)):
            raise ChainError("kernel entries must be finite")
        if probs.min() < -STOCHASTIC_TOL or probs.max() > 1.0 + STOCHASTIC_TOL:
            raise ChainError("kernel entries must lie in [0, 1]")
        worst = float(np.abs(probs.sum(axis=1) - 1.0).max())
        if worst > STOCHASTIC_TOL:
            raise ChainError(f"kernel rows deviate from sum 1 by {worst!r}")
        object.__setattr__(self, "probs", probs)

    @property
    def n_states(self) -> int:
        return self.probs.shape[0]


@dataclass(frozen=True)
class ProbVector:
    """Probability vector on the state space."""

    weights: np.ndarray

    def __post_init__(self):
        weights = np.asarray(self.weights, dtype=float)
        if weights.ndim != 1:
            raise ChainError(f"probability vector must be 1-d, got shape {weights.shape}")
        if not np.all(np.isfinite(weights)) or weights.min() < 0:
            raise ChainError("probability weights must be finite and nonnegative")
        if abs(float(weights.sum()) - 1.0) > 1e-12:
            raise ChainError(f"probability weights sum to {weights.sum()!r}, not 1")
        object.__setattr__(self, "weights", weights)

    @property
    def n_states(self) -> int:
        return self.weights.shape[0]


def _check_state(n: int, state, what: str) -> None:
    """Refuse a state, named ``what``, that is not an integer in [0, n); bools are refused too."""
    if isinstance(state, bool) or not isinstance(state, (int, np.integer)):
        raise ValueError(f"{what} must be an integer state, got {state!r}")
    if not 0 <= state < n:
        raise ValueError(f"{what} {state!r} outside [0, {n})")


def _check_count(count, what: str) -> None:
    """Refuse a count that is not a positive integer; bools are refused too."""
    if isinstance(count, bool) or not (isinstance(count, (int, np.integer)) and count >= 1):
        raise ValueError(f"{what} must be a positive integer, got {count!r}")


def _check_seed(seed) -> None:
    """Refuse a seed that is not a nonnegative integer; bools are refused too."""
    if isinstance(seed, bool) or not (isinstance(seed, (int, np.integer)) and seed >= 0):
        raise ValueError(f"seed must be a nonnegative integer, got {seed!r}")


def _is_real(value) -> bool:
    """Whether value is a finite real number other than a bool."""
    return not isinstance(value, bool) and isinstance(value, numbers.Real) and math.isfinite(value)


def _check_positive(value, what: str, error: type[ValueError] = ValueError) -> None:
    """Refuse a value that is not a positive, finite real number; bools are refused too."""
    if not (_is_real(value) and value > 0):
        raise error(f"{what} must be positive and finite, got {value!r}")


def _check_window(t0) -> None:
    """Refuse a window length t0 that is not positive and finite, with a ``ChainError``."""
    _check_positive(t0, "window length t0", ChainError)


def _check_horizon(horizon, what: str = "horizon") -> None:
    """Refuse a time that is not finite and nonnegative, with a ``ChainError``; bools too."""
    if not (_is_real(horizon) and horizon >= 0):
        raise ChainError(f"{what} must be finite and nonnegative, got {horizon!r}")


def _check_grid(times, what: str) -> np.ndarray:
    """``times``, one positive finite time or an increasing 1-d grid of them, as floats.

    Any other entry (bools too), and an empty, nested or unsorted grid, raise ``ValueError``.
    """
    raw = np.asarray(times, dtype=object)
    grid = np.atleast_1d(raw)
    if (grid.ndim != 1 or grid.size == 0 or not all(_is_real(t) and t > 0 for t in grid.tolist())
            or np.any(np.diff(grid.astype(float)) <= 0)):
        raise ValueError(f"{what} must be a positive, finite time or an increasing grid of them, "
                         f"got {times!r}")
    return raw.astype(float)


def validate_generator(raw) -> GeneratorMatrix:
    """Validate a raw rate matrix and wrap it as a GeneratorMatrix.

    Raises
    ------
    NonZeroRowSum
        If some row does not sum to zero within tolerance.
    NegativeOffDiagonal
        If some off-diagonal rate is negative.
    """
    return GeneratorMatrix(np.asarray(raw, dtype=float))


def _uniformized(Q: GeneratorMatrix) -> tuple[float, np.ndarray]:
    """Uniformization rate lam (the largest exit rate) and skeleton kernel P = I + Q / lam.

    A state with zero exit rate has the unit row in P; a chain with no
    moves at all has lam = 0 and P = I.
    """
    lam = float(Q.exit_rates.max())
    eye = np.eye(Q.n_states)
    return lam, (eye + Q.rates / lam if lam > 0.0 else eye)


def _uniformized_kernel(lam: float, base: np.ndarray, t: float) -> np.ndarray:
    """exp(tQ) via Poisson(lam t)-weighted powers of the skeleton kernel ``base``."""
    n = base.shape[0]
    if lam * t == 0.0:
        return np.eye(n)
    mass = lam * t
    # p_k = Poisson(mass) pmf, accumulated until the tail is negligible
    result = np.zeros((n, n))
    term = np.eye(n)
    p = math.exp(-mass)
    acc = p
    result += p * term
    k = 0
    while 1.0 - acc > POISSON_TAIL:
        k += 1
        term = term @ base
        p *= mass / k
        acc += p
        result += p * term
        if k > 10_000_000:  # pragma: no cover - safety valve
            raise ChainError("uniformization failed to converge")
    # distribute the truncated tail mass over the last computed power so the
    # rows still sum to 1 up to roundoff
    result += (1.0 - acc) * term
    return result


def transition_at(Q: GeneratorMatrix, t: float) -> TransitionKernel:
    """Transition kernel exp(tQ) of the chain at a finite horizon t >= 0.

    Uses uniformization: with lam the largest exit rate, exp(tQ) is the
    Poisson(lam*t) mixture of powers of I + Q/lam (``_uniformized``). All
    intermediate matrices are nonnegative and row-stochastic, so the
    result is a valid kernel by construction. Large lam*t is handled by
    repeated squaring of a shorter-horizon kernel. Each squaring roughly
    doubles the rounding error in the row sums, so the rows are
    renormalized after every squaring.
    """
    _check_horizon(t, "time")
    lam, base = _uniformized(Q)
    mass = lam * t
    if mass <= _MAX_UNIFORMIZATION_MASS:
        return TransitionKernel(_uniformized_kernel(lam, base, t))
    n_halvings = int(math.ceil(math.log2(mass / _MAX_UNIFORMIZATION_MASS)))
    kernel = _uniformized_kernel(lam, base, t / 2.0**n_halvings)
    for _ in range(n_halvings):
        kernel = kernel @ kernel
        kernel /= kernel.sum(axis=1, keepdims=True)
    return TransitionKernel(kernel)


def _strong_components(edges: np.ndarray) -> list[np.ndarray]:
    """Strongly connected components of a boolean adjacency matrix, in topological order.

    Reachability is the closure of ``edges`` by repeated boolean squaring.
    A component that reaches another reaches strictly more states, so
    sorting by reach count puts every component before those it feeds.
    """
    reach = edges | np.eye(edges.shape[0], dtype=bool)
    while True:
        closed = reach @ reach
        if np.array_equal(closed, reach):
            break
        reach = closed
    # each component is led by its lowest state, the first one its members reach both ways
    first = (reach & reach.T).argmax(axis=1)
    leaders = np.flatnonzero(first == np.arange(first.size))
    order = leaders[np.argsort(-reach[leaders].sum(axis=1), kind="stable")]
    return [np.flatnonzero(reach[lead] & reach[:, lead]) for lead in order]


def is_irreducible(model: GeneratorMatrix | TransitionKernel) -> bool:
    """Whether the support digraph of the chain is one strongly connected component."""
    matrix = model.rates if isinstance(model, GeneratorMatrix) else model.probs
    return len(_strong_components(matrix > 0)) == 1


def _stationary(A: np.ndarray) -> ProbVector:
    """Solution x of x A = 0 with sum(x) = 1, by a dense solve with a residual check.

    The residual is bounded relative to the largest entry of A, as
    ``GeneratorMatrix`` bounds its row sums: rounding alone leaves a
    residual near 1e-10 at rates near 1e6.
    """
    n = A.shape[0]
    system = A.T.copy()
    system[-1, :] = 1.0
    rhs = np.zeros(n)
    rhs[-1] = 1.0
    x = np.linalg.solve(system, rhs)
    residual = float(np.abs(x @ A).max())
    if residual > RESIDUAL_TOL * max(1.0, float(np.abs(A).max())):
        raise ChainError(f"invariant measure residual {residual!r} exceeds tolerance")
    x = np.clip(x, 0.0, None)
    return ProbVector(x / x.sum())


def invariant_measure(Q: GeneratorMatrix) -> ProbVector:
    """Unique invariant probability measure pi of an irreducible generator.

    Solves pi Q = 0 with the normalization sum(pi) = 1 by a dense linear
    solve, then checks the residual.

    Raises
    ------
    Reducible
        If the chain is not irreducible.
    """
    if not is_irreducible(Q):
        raise Reducible("generator support graph is not strongly connected")
    return _stationary(Q.rates)


def dtmc_invariant(P: TransitionKernel) -> ProbVector:
    """Invariant measure mu of an irreducible transition kernel, mu P = mu."""
    if not is_irreducible(P):
        raise Reducible("kernel support graph is not strongly connected")
    return _stationary(P.probs - np.eye(P.n_states))
