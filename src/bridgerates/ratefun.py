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

from .chain import GeneratorMatrix, ProbVector, TransitionKernel, _strong_components
from .conjugate import conjugate_at

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

DIV_TOL = 1e-12  # net flow per state, relative to max(1, its outflow plus inflow)
MARGINAL_TOL = 1e-12
OFF_SUPPORT_GAP = 60.0  # potential drop to states whose inflow the rate counts in full
ARMIJO = 1e-4  # sufficient-increase fraction of the Newton slope
MIN_STEP = 2.0**-40  # smallest step fraction the Newton line search tries
MAX_ASCENT_STEPS = 100  # Newton steps per strongly connected component
# gradient max-norm the Newton ascent must reach, or NonConvergence, relative
# to max(1, the largest outflow plus inflow of a state)
GRAD_TOL = 1e-10
# each state's net flow at which the ascent stops, relative to its flows
STATION_RTOL = 64 * float(np.finfo(float).eps)
_TINY = np.finfo(float).tiny  # smallest normal double


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
    """Outcome of the occupation-rate ascent: value, maximizer and the flux it induces.

    ``flux`` is rho_x Q_xy e^{v_y - v_x} at the maximizer v on the edges
    inside one strongly connected component of supp(rho), and zero on every
    other edge: the divergence-free flux that attains the contraction of
    the joint rate onto rho (see ``contract_dvg_from_bfg``).
    """

    value: float
    maximizer: np.ndarray
    gradient_norm: float
    iterations: int
    flux: np.ndarray


def _rel_entr(a, b) -> np.ndarray:
    """Elementwise a log(a/b) for a, b >= 0, with 0 at a = 0 and inf at a > 0 = b.

    Three branches keep it accurate across magnitudes (the arithmetic of
    ``scipy.special.rel_entr``). Near a = b (0.5 < a/b < 2) it is
    a log1p((a - b)/b): a - b is exact there, so the value keeps full
    relative accuracy as it shrinks to 0, where log(a/b) would turn the
    ratio's rounding error (about 1e-16) into an error as large as the
    value itself. Where a/b is a normal finite number it is a log(a/b).
    Where the ratio is subnormal (fewer significant bits), underflows to 0
    or overflows to inf, the logarithms are taken first: a (log a - log b).
    """
    a, b = np.broadcast_arrays(np.asarray(a, dtype=float), np.asarray(b, dtype=float))
    with np.errstate(divide="ignore", over="ignore", under="ignore", invalid="ignore"):
        ratio = a / b
        out = np.where(
            (ratio > 0.5) & (ratio < 2.0),
            a * np.log1p((a - b) / b),
            np.where((ratio > _TINY) & (ratio < math.inf),
                     a * np.log(ratio), a * (np.log(a) - np.log(b))),
        )
    return np.where(a == 0, 0.0, out)


def rel_entropy(a: float, b: float) -> float:
    """Relative-entropy kernel s(a | b) = a log(a/b) - a + b.

    Conventions: s(0 | b) = b for b >= 0, and s(a | 0) = inf for a > 0.
    Negative arguments raise NegativeInput. The kernel is nonnegative,
    vanishes exactly at a = b, and is jointly convex. It is
    ``_rel_entropy_sum`` on one-element arrays.
    """
    return _rel_entropy_sum(np.array([a], dtype=float), np.array([b], dtype=float))


def _rel_entropy_sum(a: np.ndarray, b: np.ndarray) -> float:
    """Sum of s(a | b) over arrays, with +inf when a > 0 meets b == 0."""
    if a.min() < 0 or b.min() < 0:
        raise NegativeInput("rel_entropy needs nonnegative arguments")
    if np.any((a > 0) & (b == 0)):
        return math.inf
    return float(np.sum(_rel_entr(a, b) - a + b))


def divergence(j: np.ndarray) -> np.ndarray:
    """Net outflow per state of a flux matrix: row sums minus column sums."""
    j = np.asarray(j, dtype=float)
    return j.sum(axis=1) - j.sum(axis=0)


def dvg_objective(rho: ProbVector, Q: GeneratorMatrix, v: np.ndarray) -> float:
    """Value of the occupation-rate variational objective at potential v.

    With u = exp(v), this is -sum_x rho_x (Q u)_x / u_x, summed over the
    edges with rho_x Q_xy > 0 as -rho_x Q_xy expm1(v_y - v_x): exactly
    invariant under shifting v by a constant, and finite at potentials far
    below the support (see ``dvg_rate``).
    """
    v = np.asarray(v, dtype=float)
    base = rho.weights[:, None] * Q.rates
    src, dst = np.nonzero(~np.eye(Q.n_states, dtype=bool) & (base > 0))
    return -float(np.sum(base[src, dst] * np.expm1(v[dst] - v[src])))


def _laplacian_solve(src: np.ndarray, dst: np.ndarray, flow: np.ndarray, rhs: np.ndarray):
    """Solve L x = rhs, L the weighted Laplacian of the symmetrized flow.

    ``flow`` sits on the edges src -> dst of a strongly connected graph on
    ``rhs.shape[0]`` states; each column of ``rhs`` (vector or matrix) sums
    to zero. The system is Jacobi-scaled (D^-1/2 L D^-1/2, D the weighted
    degrees), so each state's row is O(1) whatever its mass, and its gauge
    fixed by an identity row at the state of largest degree. It is solved
    by least squares on the rank it has: where a flow underflows, the
    Laplacian is singular to working precision, and the directions it
    cannot resolve get no step instead of raising.
    """
    k = rhs.shape[0]
    sym = np.zeros((k, k))
    sym[src, dst] = flow
    sym += sym.T
    degree = sym.sum(axis=1)
    gauge = int(degree.argmax())
    scale = 1.0 / np.sqrt(degree)
    # I - D^-1/2 S D^-1/2 in place: the edges carry no self-loops
    sym *= -scale
    sym *= scale[:, None]
    sym[gauge] = sym[:, gauge] = 0.0
    sym.flat[::k + 1] = 1.0
    b = (rhs.T * scale).T
    b[gauge] = 0.0
    return (np.linalg.lstsq(sym, b, rcond=None)[0].T * scale).T


def _newton_ascent(w: np.ndarray, v: np.ndarray):
    """Maximize sum_xy w_xy (1 - exp(v_y - v_x)) over v, up to a constant shift.

    ``w`` is the weight matrix of a strongly connected graph, so the
    maximum is attained. The Hessian is minus the weighted Laplacian of the
    symmetrized flow w_xy exp(v_y - v_x); the Newton step (from
    ``_laplacian_solve``) is halved until the Armijo rule holds, with the
    gain summed as -flow * expm1(step difference) so that it stays exact
    near the optimum, where the value itself moves by less than one ulp.
    It stops once the gradient is below ``GRAD_TOL`` times
    max(1, largest outflow plus inflow) and every state's net flow at most
    ``STATION_RTOL`` times its outflow plus inflow, after ``MAX_ASCENT_STEPS``
    steps, or when the line search fails. Returns (v, value, gradient
    max-norm, Newton steps, whether the gradient met its tolerance).
    """
    src, dst = np.nonzero(w > 0)
    weights = w[src, dst]
    k = w.shape[0]
    steps = 0
    while True:
        flow = weights * np.exp(v[dst] - v[src])
        outflow, inflow = np.bincount(src, flow, k), np.bincount(dst, flow, k)
        grad = outflow - inflow
        net = np.abs(grad)
        gnorm = float(net.max(initial=0.0))
        within_tol = gnorm < GRAD_TOL * max(1.0, float((outflow + inflow).max(initial=0.0)))
        if (within_tol and np.all(net <= STATION_RTOL * (outflow + inflow))) or steps >= MAX_ASCENT_STEPS:
            break
        step = _laplacian_solve(src, dst, flow, grad)
        slope = float(grad @ step)
        t = 1.0
        with np.errstate(over="ignore", invalid="ignore"):
            while (t >= MIN_STEP
                   and -np.sum(flow * np.expm1(t * (step[dst] - step[src]))) < ARMIJO * t * slope):
                t *= 0.5
        if t < MIN_STEP:
            break
        v = v + t * step
        steps += 1
    value = -float(np.sum(weights * np.expm1(v[dst] - v[src])))
    return v, value, gnorm, steps, within_tol


def dvg_rate(
    rho: ProbVector | np.ndarray,
    Q: GeneratorMatrix,
) -> VariationalResult:
    """Occupation-measure rate functional sup_{u > 0} -sum_x rho_x (Qu)_x / u_x.

    In log coordinates u = exp(v) the objective is
    sum over edges x -> y with rho_x Q_xy > 0 of rho_x Q_xy (1 - e^{v_y - v_x}),
    which is concave, and the supremum splits exactly:

    - States outside S = supp(rho) send their potential to -inf, so every
      edge from S out of S contributes its full weight rho_x Q_xy.
    - Inside S, the strongly connected components of that edge graph form
      a DAG; pushing each component's potentials below those of the
      components feeding it makes every edge between components contribute
      its full weight too.
    - What remains is one strongly connected problem per component, whose
      maximum is attained. Each is solved by Newton with the
      weighted-Laplacian Hessian and Armijo halving, from v = log(rho) / 2
      (exact for symmetric chains), until the gradient is below
      ``GRAD_TOL`` (times the largest flow through a state, when that
      exceeds 1) and every state's net flow is at rounding level
      relative to its own flows, so a state of mass near 1e-30 converges
      as well as a heavy one. A Laplacian singular to working precision
      (a flow that underflows at rho entries near 1e-37) is solved on the
      rank it has, not raised.

    There is no multistart: each component's problem is strictly concave
    modulo the gauge, so Newton's answer is its unique maximum.

    ``rho`` may be a plain array; it is validated as a ProbVector.

    Returns a VariationalResult whose ``value`` is the rate and whose
    ``maximizer`` is a finite log potential v attaining it up to a relative
    e^{-60}: each component sits ``OFF_SUPPORT_GAP`` below the lowest
    potential feeding it, and states outside S sit that far below all of S.
    ``gradient_norm`` is the largest per-component gradient max-norm and
    ``iterations`` the total number of Newton steps, capped by
    ``MAX_ASCENT_STEPS`` per component. A single-state component takes no step,
    so rho = e_x gives the exit rate of x with 0 iterations. The value is
    0 exactly when rho is the invariant measure of Q. ``flux`` is the
    flux of the tilted chain at v, rho_x Q_xy e^{v_y - v_x}, on the edges
    inside a component and zero elsewhere; it is divergence free to
    rounding because each component's ascent stops only once every
    state's net flow is at rounding level relative to its flows.

    Raises
    ------
    NonConvergence
        If some component stops with gradient norm at or above its
        tolerance, ``GRAD_TOL`` scaled by that component's flows;
        its ``best`` is the result assembled from that unconverged iterate,
        flux included.
    """
    rho = rho if isinstance(rho, ProbVector) else ProbVector(rho)
    if rho.n_states != Q.n_states:
        raise ValueError("dimension mismatch between rho and Q")
    n = Q.n_states
    base = rho.weights[:, None] * Q.rates
    np.fill_diagonal(base, 0.0)
    support = np.flatnonzero(rho.weights > 0)
    # each state outside the support is its own component
    labels = -1 - np.arange(n)
    v = np.zeros(n)
    value = gnorm = 0.0
    iterations = 0
    converged = True
    placed = np.zeros(n, dtype=bool)
    for comp in _strong_components(base[np.ix_(support, support)] > 0):
        states = support[comp]
        labels[states] = states[0]
        local, value_c, gnorm_c, steps, within_tol = _newton_ascent(
            base[np.ix_(states, states)], 0.5 * np.log(rho.weights[states])
        )
        converged &= within_tol
        feeders = placed & (base[:, states] > 0).any(axis=1)
        ceiling = v[feeders].min() - OFF_SUPPORT_GAP if feeders.any() else 0.0
        v[states] = local - local.max() + ceiling
        placed[states] = True
        value += value_c
        gnorm = max(gnorm, gnorm_c)
        iterations += steps
    inside = labels[:, None] == labels[None, :]
    # edges between components, or out of the support, keep their whole weight
    value += float(base[~inside].sum())
    outside = rho.weights == 0
    v[outside] = v[support].min() - OFF_SUPPORT_GAP
    src, dst = np.nonzero(inside & (base > 0))
    flux = np.zeros_like(base)
    flux[src, dst] = base[src, dst] * np.exp(v[dst] - v[src])
    result = VariationalResult(value, v, gnorm, iterations, flux)
    if not converged:
        raise NonConvergence("occupation-rate Newton ascent stopped above the gradient tolerance",
                             best=result)
    return result


def bfg_rate(rho: ProbVector | np.ndarray, j: np.ndarray, Q: GeneratorMatrix) -> float:
    """Joint occupation-flux rate functional.

    Equals ``sum_{x != y} s(j_xy | rho_x Q_xy)`` when j is divergence free
    (each state's net flow within ``DIV_TOL`` times max(1, its outflow plus
    inflow)) and vanishes wherever ``rho_x Q_xy`` does; otherwise ``inf``.
    Diagonal entries of j are ignored. The functional is jointly convex in
    (rho, j) and vanishes exactly at rho = pi, j = pi_x Q_xy. ``rho`` may
    be a plain array; it is validated as a ProbVector. A rho or j sized
    for another chain, or a nonfinite off-diagonal flux, raises
    ``ValueError``, and a negative one ``NegativeInput``.
    """
    rho = rho if isinstance(rho, ProbVector) else ProbVector(rho)
    if rho.n_states != Q.n_states:
        raise ValueError("dimension mismatch between rho and Q")
    j = np.asarray(j, dtype=float)
    if j.shape != (Q.n_states, Q.n_states):
        raise ValueError(f"flux matrix shape {j.shape} does not match chain")
    off = ~np.eye(Q.n_states, dtype=bool)
    if not np.all(np.isfinite(j[off])):
        raise ValueError("flux entries must be finite")
    if j[off].min() < 0:
        raise NegativeInput("flux entries must be nonnegative")
    j_off = np.where(off, j, 0.0)
    flows = j_off.sum(axis=1) + j_off.sum(axis=0)
    if np.any(np.abs(divergence(j_off)) > DIV_TOL * np.maximum(1.0, flows)):
        return math.inf
    reference = rho.weights[:, None] * Q.rates
    return _rel_entropy_sum(j[off], reference[off])


def pair_empirical_rate(theta: PairMeasure | np.ndarray, P: TransitionKernel) -> float:
    """Large-deviation rate of the empirical pair measure of a DTMC.

    Equals ``sum_{x,y} s(theta_xy | theta_x. P_xy)`` when the two marginals
    of theta agree within tolerance, and ``inf`` otherwise. ``theta`` may be
    a plain (n, n) array; it is validated as a PairMeasure.
    """
    theta = theta if isinstance(theta, PairMeasure) else PairMeasure(theta)
    if theta.n_states != P.n_states:
        raise ValueError("dimension mismatch between theta and P")
    row = theta.first_marginal()
    if float(np.abs(row - theta.second_marginal()).max()) > MARGINAL_TOL:
        return math.inf
    reference = row[:, None] * P.probs
    return _rel_entropy_sum(theta.weights.ravel(), reference.ravel())


def cond_rate(k: FluxField, theta: PairMeasure, oracle) -> float:
    """Conditional-cost part of the block rate: sum_xy theta_xy phi*_xy(k_xy / theta_xy).

    ``oracle`` supplies the per-pair block laws (see estimate.ConjugateOracle).
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
            est = conjugate_at(oracle.law(x, y), vec / w)
            if not math.isfinite(est.value):
                return math.inf
            total += w * est.value
    return total


def theorem_rate(k: FluxField, theta: PairMeasure, oracle) -> float:
    """Composite rate of the block empirical pair (K, Theta).

    Sum of the conditional-cost part (per-pair conjugates weighted by theta)
    and the pair-empirical rate of theta under the oracle's window kernel.
    Jointly convex in (k, theta) and inf off the feasible set (unbalanced
    theta or k not dominated by theta).
    """
    pair_part = pair_empirical_rate(theta, oracle.kernel)
    if not math.isfinite(pair_part):
        return math.inf
    cond_part = cond_rate(k, theta, oracle)
    if not math.isfinite(cond_part):
        return math.inf
    return cond_part + pair_part
