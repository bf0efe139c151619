"""Rate functionals for empirical occupation, flux, and pair statistics.

The building block is the relative-entropy kernel
``s(a | b) = a log(a/b) - a + b`` with the conventions ``s(0 | b) = b`` and
``s(a | 0) = inf`` for ``a > 0``. Infeasible inputs (broken divergence or
marginal constraints, absolute-continuity failures) evaluate to ``math.inf``
rather than raising.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import optimize
from scipy.special import rel_entr

from .chain import GeneratorMatrix, ProbVector, TransitionKernel

__all__ = [
    "NegativeInput",
    "NonConvergence",
    "PairMeasure",
    "FluxField",
    "VariationalResult",
    "rel_entropy",
    "divergence",
    "dvg_objective",
    "dvg_rate",
    "bfg_rate",
    "pair_empirical_rate",
    "cond_rate",
    "theorem_rate",
]

DIV_TOL = 1e-12
MARGINAL_TOL = 1e-12


class NegativeInput(ValueError):
    """A quantity that must be nonnegative was negative."""


class NonConvergence(RuntimeError):
    """An iterative solver hit its cap before reaching tolerance."""

    def __init__(self, message: str, best=None):
        super().__init__(message)
        self.best = best


@dataclass(frozen=True)
class PairMeasure:
    """Probability measure on ordered state pairs (x, y)."""

    weights: np.ndarray

    def __post_init__(self):
        weights = np.asarray(self.weights, dtype=float)
        if weights.ndim != 2 or weights.shape[0] != weights.shape[1]:
            raise ValueError(f"pair measure must be square, got shape {weights.shape}")
        if not np.all(np.isfinite(weights)) or weights.min() < 0:
            raise NegativeInput("pair weights must be finite and nonnegative")
        if abs(float(weights.sum()) - 1.0) > 1e-12:
            raise ValueError(f"pair weights sum to {weights.sum()!r}, not 1")
        object.__setattr__(self, "weights", weights)

    @property
    def n_states(self) -> int:
        return self.weights.shape[0]

    def first_marginal(self) -> np.ndarray:
        return self.weights.sum(axis=1)

    def second_marginal(self) -> np.ndarray:
        return self.weights.sum(axis=0)


@dataclass(frozen=True)
class FluxField:
    """A d-vector attached to every ordered state pair, stored as (n, n, d)."""

    vectors: np.ndarray

    def __post_init__(self):
        vectors = np.asarray(self.vectors, dtype=float)
        if vectors.ndim != 3 or vectors.shape[0] != vectors.shape[1]:
            raise ValueError(f"flux field must have shape (n, n, d), got {vectors.shape}")
        if not np.all(np.isfinite(vectors)):
            raise ValueError("flux field entries must be finite")
        object.__setattr__(self, "vectors", vectors)

    @property
    def n_states(self) -> int:
        return self.vectors.shape[0]

    @property
    def d(self) -> int:
        return self.vectors.shape[2]

    def total(self) -> np.ndarray:
        """Sum of the per-pair vectors."""
        return self.vectors.sum(axis=(0, 1))


@dataclass(frozen=True)
class VariationalResult:
    """Outcome of a variational optimization: value plus maximizer."""

    value: float
    maximizer: np.ndarray
    gradient_norm: float
    iterations: int


def rel_entropy(a: float, b: float) -> float:
    """Relative-entropy kernel s(a | b) = a log(a/b) - a + b.

    Conventions: s(0 | b) = b for b >= 0, and s(a | 0) = inf for a > 0.
    Negative arguments raise NegativeInput. The kernel is nonnegative,
    vanishes exactly at a = b, and is jointly convex.
    """
    if a < 0 or b < 0:
        raise NegativeInput(f"rel_entropy needs nonnegative arguments, got ({a!r}, {b!r})")
    if a == 0:
        return float(b)
    if b == 0:
        return math.inf
    # scipy's kernel stays exact at a = b and never rounds below zero,
    # where a naive a*log(a/b) under/overflows at extreme magnitudes
    return float(rel_entr(a, b) - a + b)


def _rel_entropy_sum(a: np.ndarray, b: np.ndarray) -> float:
    """Sum of rel_entropy over arrays, with +inf when a > 0 meets b == 0."""
    if a.min() < 0 or b.min() < 0:
        raise NegativeInput("rel_entropy needs nonnegative arguments")
    if np.any((a > 0) & (b == 0)):
        return math.inf
    return float(np.sum(rel_entr(a, b) - a + b))


def divergence(j: np.ndarray) -> np.ndarray:
    """Net outflow per state of a flux matrix: row sums minus column sums."""
    j = np.asarray(j, dtype=float)
    return j.sum(axis=1) - j.sum(axis=0)


def dvg_objective(rho: ProbVector, Q: GeneratorMatrix, v: np.ndarray) -> float:
    """Value of the occupation-rate variational objective at potential v.

    With u = exp(v), this is -sum_x rho_x (Q u)_x / u_x, written in a form
    that is exactly invariant under shifting v by a constant.
    """
    v = np.asarray(v, dtype=float)
    expdiff = np.exp(v[None, :] - v[:, None])
    off = ~np.eye(Q.n_states, dtype=bool)
    return -float(np.sum((rho.weights[:, None] * Q.rates * (expdiff - 1.0))[off]))


def _dvg_gradient(rho: ProbVector, Q: GeneratorMatrix, v: np.ndarray) -> np.ndarray:
    expdiff = np.exp(v[None, :] - v[:, None])
    flow = rho.weights[:, None] * Q.rates * expdiff
    np.fill_diagonal(flow, 0.0)
    return flow.sum(axis=1) - flow.sum(axis=0)


def dvg_rate(
    rho: ProbVector,
    Q: GeneratorMatrix,
    *,
    grad_tol: float = 1e-10,
    max_iters: int = 100_000,
    n_random_starts: int = 4,
    seed: int = 0,
) -> VariationalResult:
    """Occupation-measure rate functional sup_{u > 0} -sum_x rho_x (Qu)_x / u_x.

    The supremum is taken in log coordinates u = exp(v) with the gauge
    v[0] = 0, where the objective is smooth and concave. BFGS runs on the
    free coordinates v[1:] from v = 0 and from ``n_random_starts`` random
    starts; the best value with gradient below tolerance wins. Curvature-
    scaled steps matter here: near flat optima the objective moves by less
    than one ulp per step, which defeats any value-gated line search long
    before the gradient reaches tolerance.

    Returns a VariationalResult whose ``value`` is the rate and whose
    ``maximizer`` is the optimal log potential v. The value is 0 exactly
    when rho is the invariant measure of Q.

    Raises
    ------
    NonConvergence
        If every start stops with gradient norm above tolerance; its
        ``best`` is the highest-valued of those unconverged results.
    """
    if rho.n_states != Q.n_states:
        raise ValueError("dimension mismatch between rho and Q")
    n = Q.n_states
    rng = np.random.default_rng(seed)
    starts = [np.zeros(n)]
    for _ in range(n_random_starts):
        v = rng.normal(scale=1.0, size=n)
        v[0] = 0.0
        starts.append(v)

    def negated(w: np.ndarray):
        v = np.concatenate([[0.0], w])
        grad = _dvg_gradient(rho, Q, v)
        return -dvg_objective(rho, Q, v), -grad[1:]

    best: VariationalResult | None = None
    best_unconverged: VariationalResult | None = None
    for v0 in starts:
        res = optimize.minimize(
            negated,
            v0[1:],
            jac=True,
            method="BFGS",
            options={"gtol": grad_tol, "maxiter": max_iters},
        )
        gnorm = float(np.abs(res.jac).max(initial=0.0))
        result = VariationalResult(
            -float(res.fun), np.concatenate([[0.0], res.x]), gnorm, int(res.nit)
        )
        if gnorm >= grad_tol:
            if best_unconverged is None or result.value > best_unconverged.value:
                best_unconverged = result
        elif best is None or result.value > best.value:
            best = result
    if best is None:
        raise NonConvergence("occupation-rate ascent failed to converge from every start",
                             best=best_unconverged)
    return best


def bfg_rate(rho: ProbVector, j: np.ndarray, Q: GeneratorMatrix) -> float:
    """Joint occupation-flux rate functional.

    Equals ``sum_{x != y} s(j_xy | rho_x Q_xy)`` when j is divergence free
    and vanishes wherever ``rho_x Q_xy`` does; otherwise ``inf``. Diagonal
    entries of j are ignored. The functional is jointly convex in (rho, j)
    and vanishes exactly at rho = pi, j = pi_x Q_xy.
    """
    j = np.asarray(j, dtype=float)
    if j.shape != (Q.n_states, Q.n_states):
        raise ValueError(f"flux matrix shape {j.shape} does not match chain")
    off = ~np.eye(Q.n_states, dtype=bool)
    if j[off].min() < 0:
        raise NegativeInput("flux entries must be nonnegative")
    if float(np.abs(divergence(np.where(off, j, 0.0))).max()) > DIV_TOL:
        return math.inf
    reference = rho.weights[:, None] * Q.rates
    return _rel_entropy_sum(j[off], reference[off])


def pair_empirical_rate(theta: PairMeasure, P: TransitionKernel) -> float:
    """Large-deviation rate of the empirical pair measure of a DTMC.

    Equals ``sum_{x,y} s(theta_xy | theta_x. P_xy)`` when the two marginals
    of theta agree within tolerance, and ``inf`` otherwise.
    """
    if theta.n_states != P.n_states:
        raise ValueError("dimension mismatch between theta and P")
    row = theta.first_marginal()
    if float(np.abs(row - theta.second_marginal()).max()) > MARGINAL_TOL:
        return math.inf
    reference = row[:, None] * P.probs
    return _rel_entropy_sum(theta.weights.ravel(), reference.ravel())


def cond_rate(k: FluxField, theta: PairMeasure, oracle) -> float:
    """Conditional-cost part of the block rate: sum_xy theta_xy phi*_xy(k_xy / theta_xy).

    ``oracle`` supplies the per-pair conjugates (see conjugate.ConjugateOracle).
    Pairs with theta_xy = 0 contribute 0 if their k vector is exactly zero
    and inf otherwise. The value is inf whenever some conjugate is
    effectively infinite at its evaluation point.
    """
    if k.n_states != theta.n_states:
        raise ValueError("dimension mismatch between k and theta")
    n = theta.n_states
    total = 0.0
    for x in range(n):
        for y in range(n):
            w = theta.weights[x, y]
            vec = k.vectors[x, y]
            if w == 0.0:
                if np.any(vec != 0.0):
                    return math.inf
                continue
            est = oracle.conjugate(x, y, vec / w)
            if not math.isfinite(est.value):
                return math.inf
            total += w * est.value
    return total


def theorem_rate(k: FluxField, theta: PairMeasure, P: TransitionKernel, oracle) -> float:
    """Composite rate of the block empirical pair (K, Theta).

    Sum of the conditional-cost part (per-pair conjugates weighted by theta)
    and the pair-empirical rate of theta under P. Jointly convex in (k, theta)
    and inf off the feasible set (unbalanced theta or k not dominated by
    theta).
    """
    pair_part = pair_empirical_rate(theta, P)
    if not math.isfinite(pair_part):
        return math.inf
    cond_part = cond_rate(k, theta, oracle)
    if not math.isfinite(cond_part):
        return math.inf
    return cond_part + pair_part
