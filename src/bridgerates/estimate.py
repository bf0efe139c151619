"""Cross-validation layer: inf-convolution solvers, contraction, MC decay fits.

This module closes the loop between the three rate representations. The
block decomposition says that the continuous-time rate of a time-averaged
statistic equals (after dividing by the window length) the infimum of the
composite block rate over all pair decompositions (k, theta) whose totals
hit the target. ``build_oracle`` samples the per-pair block laws afresh on
every call, and ``infconv_dvg`` / ``infconv_bfg`` compute that infimum
numerically against the sampled oracle through its dual: the conjugate, at
the target, of the log Perron root of the window kernel tilted by each
pair's block law. That is one d-dimensional ``conjugate_at`` call, which
doubles its box only when the maximizer is pinned against it, and the
minimizing (k, theta) is read off the tilted chain at its maximizer.
``contract_dvg_from_bfg`` checks the flux-to-occupation contraction by
convex duality: its dual is the ``dvg_rate`` problem, whose call returns
the divergence-free flux its potentials induce; ``bfg_rate`` at that flux
and the primal-dual gap certify it. ``mc_decay_rate`` estimates the decay
exponent of ball probabilities from direct simulation, each path simulated
once across the horizon grid and tested at every grid point, and
``ball_rate`` gives its reference: the occupation rate's minimum over the
l1 ball, certified by a Frank-Wolfe duality gap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .bridge import BridgeSpec, conditional_samples
from .chain import (GeneratorMatrix, ProbVector, TransitionKernel, _check_count, _check_grid,
                    _check_positive, _check_seed, invariant_measure, transition_at)
from .conjugate import _moment_work, conjugate_at
from .ratefun import (
    ARMIJO,
    MIN_STEP,
    FluxField,
    NegativeInput,
    NonConvergence,
    PairMeasure,
    _laplacian_solve,
    bfg_rate,
    dvg_rate,
)
from .simulate import CHUNK, _check_mode, batch_occupations

__all__ = [
    "ConjugateOracle",
    "InsufficientHits",
    "InfConvResult",
    "ContractionResult",
    "BallResult",
    "DecayFit",
    "build_oracle",
    "infconv_dvg",
    "infconv_bfg",
    "contract_dvg_from_bfg",
    "ball_rate",
    "mc_decay_rate",
]

EPS = float(np.finfo(float).eps)
# smallest normal double: a Perron vector entry at or below it, relative to
# the largest, has left double precision
TINY = float(np.finfo(float).tiny)
# l1-ball minimum: Frank-Wolfe gap, relative to max(1, value), that
# certifies it, the cap on rate evaluations, and the smallest radius (the
# l1 distance of two probability vectors carries rounding near 1e-16)
BALL_GAP_RTOL = 1e-12
BALL_MAX_EVALS = 300
BALL_MIN_EPSILON = 1e-12
MC_BATCH = 50_000
MIN_HITS = 30


class InsufficientHits(RuntimeError):
    """Too few ball hits to fit a decay slope.

    ``largest_usable_n`` is the largest horizon that still produced enough
    hits (None when even the smallest failed).
    """

    def __init__(self, message: str, largest_usable_n=None):
        super().__init__(message)
        self.largest_usable_n = largest_usable_n


# ---------------------------------------------------------------------------
# oracle construction


def build_oracle(Q: GeneratorMatrix, t0: float, mode: str, n_samples: int,
                 seed: int) -> ConjugateOracle:
    """Sample every endpoint pair's conditional block law and wrap it.

    One empirical law per ordered pair (x, y), diagonal included, each from
    its own deterministic stream, so the same inputs always give the same
    draws, together with the window kernel P(t0) the decomposition tilts.
    Every call samples afresh: a whole oracle takes a fraction of a second,
    well under the solves it feeds.
    """
    _check_mode(mode)
    n = Q.n_states
    laws = {(x, y): conditional_samples(BridgeSpec(Q, x, y, t0), mode, n_samples, seed)
            for x in range(n) for y in range(n)}
    return ConjugateOracle(laws=laws, kernel=transition_at(Q, t0), mode=mode, t0=t0)


# ---------------------------------------------------------------------------
# inf-convolution over pair decompositions


@dataclass(frozen=True)
class InfConvResult:
    """Minimizing pair decomposition of a block-rate target.

    ``value`` is the composite block rate per window (divide by the window
    length for the continuous-time rate); infinite, and ``feasible`` False,
    when the target was flagged unreachable. ``certificate`` is the dual
    solve's ``ConjugateEstimate.growth``: the relative change of the optimum
    when its maximizer pressed the box and the box was doubled, 0.0 when it
    did not. ``theta`` and ``k`` are the pair measure and pair block sums of
    the tilted chain at the maximizer. ``iterations`` counts the oracle's
    evaluations over the call (its log Perron root with gradient and
    Hessian, one moment pass per pair each), and ``decrement`` is the solve's
    ``ConjugateEstimate.decrement``, the dual value its maximizer has left
    to gain; ``converged`` says every box's solve met its gradient tolerance.
    """

    value: float
    theta: PairMeasure
    k: FluxField
    certificate: float
    converged: bool
    feasible: bool
    iterations: int
    decrement: float


@dataclass(eq=False)
class ConjugateOracle:
    """Per-pair bridge block laws over windows of length t0, tilted together as one law.

    ``laws`` maps every ordered state pair (x, y) to the law of its
    conditioned block statistic, ``kernel`` is the window kernel P(t0) they
    were conditioned under, and a pair's own conjugate is
    ``conjugate_at(oracle.law(x, y), a)``. The oracle is itself the law whose
    conjugate is the decomposition: at a multiplier lam, each pair
    p = (x, y) with P_xy > 0 tilts its window transition by the log-MGF
    Lambda_p of its block law,

        M(lam)_xy = P_xy exp(Lambda_xy(lam)),

    and ``_moments`` returns log r(M(lam)), the log Perron root, with its
    gradient and Hessian. log r is convex in lam (Kingman, Quart. J. Math.
    12:283-284, 1961), and by the Donsker-Varadhan pair-measure formula
    (Comm. Pure Appl. Math. 28:1-47, 1975) it is the Legendre dual of the
    block decomposition: its conjugate at a target is the infimum over
    (k, theta) of sum_p theta_p phi*_p(k_p / theta_p) plus the pair entropy
    of theta under P, with k summing to the target. A box on lam is a box on
    every pair's multiplier, so the boxed conjugate is the decomposition
    with boxed per-pair conjugates.

    The derivatives come from the Doob transform K_xy = M_xy h_y / (r h_x),
    with h the right Perron vector from one ``np.linalg.eig`` of M. One
    inverse Z = (I - K + 1 1^T / n)^-1 gives K's stationary law
    pi = 1^T Z / n, hence the pair measure theta = pi_x K_xy, which is the
    minimizing decomposition's theta. The gradient is the tilted block mean
    sum_p theta_p m_p, and the Hessian is the asymptotic variance of the
    block sum along K: each pair's tilted covariance, plus the
    autocovariance series of the centered means f_p = m_p - grad, which Z
    sums by solving a Poisson equation. Z solves it up to an additive
    constant, which drops out since sum_p theta_p f_p = 0. ``evaluations``
    counts the passes, which share one set of moment-pass temporaries, made
    at the first pass for its sample count.
    """

    laws: dict
    kernel: TransitionKernel
    mode: str
    t0: float
    evaluations: int = field(default=0, init=False)
    _work: tuple | None = field(default=None, init=False, repr=False)

    @property
    def d(self) -> int:
        return next(iter(self.laws.values())).d

    def law(self, x: int, y: int):
        try:
            return self.laws[(x, y)]
        except KeyError:
            raise KeyError(f"oracle does not cover endpoint pair ({x}, {y})") from None

    def tilt(self, lam: np.ndarray):
        """log r(M(lam)), the tilted chain K with its inverse Z and pair measure theta,
        and the per-pair tilted means and covariances."""
        self.evaluations += 1
        P = self.kernel.probs
        n, d = P.shape[0], self.d
        log_m = np.full((n, n), -np.inf)
        means = np.zeros((n, n, d))
        covs = np.zeros((n, n, d, d))
        for x, y in zip(*np.nonzero(P > 0)):
            law = self.law(x, y)
            if self._work is None:
                self._work = _moment_work(d, law.n_samples)
            work = self._work if law.n_samples == self._work[0].size else None
            lmgf, means[x, y], covs[x, y] = law._moments(lam, work)
            log_m[x, y] = math.log(P[x, y]) + lmgf
        shift = log_m.max()
        M = np.exp(log_m - shift)
        r, h = _perron(M, lam)
        K = M * h[None, :] / (r * h[:, None])
        Z = np.linalg.inv(np.eye(n) - K + 1.0 / n)
        theta = Z.sum(axis=0)[:, None] * K
        return shift + math.log(r), K, Z, theta / theta.sum(), means, covs

    def _moments(self, lam: np.ndarray):
        log_r, K, Z, theta, means, covs = self.tilt(lam)
        grad = np.einsum("xy,xyi->i", theta, means)
        f = means - grad
        w = Z @ np.einsum("xy,xyi->xi", K, f)
        cross = np.einsum("xy,xyi,yj->ij", theta, f, w)
        hess = (np.einsum("xy,xyij->ij", theta, covs) + np.einsum("xy,xyi,xyj->ij", theta, f, f)
                + cross + cross.T)
        return log_r, grad, hess


def _perron(M: np.ndarray, lam: np.ndarray):
    """Perron root and vector of a nonnegative matrix, the vector scaled to max 1.

    Raises ``NonConvergence`` when the vector has an entry at or below
    ``TINY`` of its largest: the tilted kernel has then split into classes
    that double precision cannot couple, which is where the decomposition
    of a target on the edge of the decomposable set (such as zero flux)
    is driven.
    """
    values, vectors = np.linalg.eig(M)
    top = int(np.argmax(values.real))
    h = vectors[:, top].real
    h = h / h[np.argmax(np.abs(h))]
    if not h.min() > TINY:
        raise NonConvergence(
            f"decomposition Newton step at |lambda|_max = {np.abs(lam).max():.3g}: the tilted "
            f"window kernel splits into classes (Perron vector entry {h.min():.2e} of 1)")
    return float(values[top].real), h


def _infconv(oracle: ConjugateOracle, target: np.ndarray) -> InfConvResult:
    if target.shape != (oracle.d,):
        raise ValueError(f"target has dimension {target.shape}, oracle expects ({oracle.d},)")
    if not np.all(np.isfinite(target)):
        raise ValueError("target entries must be finite")
    start = oracle.evaluations
    # off the decomposable set the value grows with the box, so it comes back inf
    est = conjugate_at(oracle, target)
    _, _, _, theta, means, _ = oracle.tilt(est.maximizer)
    return InfConvResult(est.value, PairMeasure(theta), FluxField(theta[:, :, None] * means),
                         est.growth, est.converged, math.isfinite(est.value),
                         oracle.evaluations - start, est.decrement)


def infconv_dvg(rho, oracle: ConjugateOracle) -> InfConvResult:
    """Infimum of the block rate over decompositions of an occupation target.

    Divided by the window length, the value matches the occupation rate of
    the underlying chain at ``rho``. Requires an occupation-mode oracle.
    The infimum is computed as its dual, the conjugate of the log Perron
    root of the oracle's window kernel tilted by its bridge laws, by one
    ``conjugate_at`` call. A target off the simplex comes back flagged
    infeasible; a nonfinite one raises ``ValueError``. Raises
    ``NonConvergence`` when the tilted kernel splits into classes that
    double precision cannot couple.
    """
    if oracle.mode != "occupation":
        raise ValueError("infconv_dvg needs an occupation-mode oracle")
    rho = rho.weights if isinstance(rho, ProbVector) else np.asarray(rho, dtype=float)
    return _infconv(oracle, rho)


def infconv_bfg(rho, j, oracle: ConjugateOracle) -> InfConvResult:
    """Infimum of the block rate over decompositions of a joint (rho, j) target.

    The flux part of the target is in jumps per unit time; unreachable
    targets (for instance a flux with nonzero divergence) come back flagged
    infeasible with an infinite value. Requires a flux-mode oracle. As in
    ``bfg_rate``, a negative off-diagonal flux raises ``NegativeInput``,
    and a nonfinite target raises ``ValueError``, before any solve.
    The solve and ``NonConvergence`` mean what they do for ``infconv_dvg``;
    a target on the edge of the decomposable set, such as zero flux, can
    raise it.
    """
    if oracle.mode != "flux":
        raise ValueError("infconv_bfg needs a flux-mode oracle")
    rho = rho.weights if isinstance(rho, ProbVector) else np.asarray(rho, dtype=float)
    j = np.asarray(j, dtype=float)
    n = rho.size
    if j.shape != (n, n):
        raise ValueError(f"flux target shape {j.shape} does not match {n} states")
    if np.any(j[~np.eye(n, dtype=bool)] < 0):
        raise NegativeInput("flux entries must be nonnegative")
    return _infconv(oracle, np.concatenate([rho, j.ravel()]))


# ---------------------------------------------------------------------------
# contraction of the joint rate onto occupation measures


@dataclass(frozen=True)
class ContractionResult:
    """Occupation rate recovered by minimizing the joint rate over fluxes.

    ``gap = value - dual_value`` is a duality certificate: both bound the
    true contraction from above and below, so a tiny gap certifies the
    value to that accuracy.
    """

    value: float
    dual_value: float
    gap: float
    flux: np.ndarray
    potential: np.ndarray


def contract_dvg_from_bfg(rho, Q: GeneratorMatrix) -> ContractionResult:
    """Minimize the joint occupation-flux rate over divergence-free fluxes.

    The concave dual of this problem over potentials v is the occupation
    rate problem, so the dual side is one ``dvg_rate`` call: its value is
    ``dual_value`` and its maximizer the returned ``potential``. The primal
    side is that call's ``flux``, evaluated by ``bfg_rate``. A flux must
    vanish wherever ``rho_x Q_xy`` does, and a divergence-free one also
    vanishes on every edge that lies on no cycle, so it lives on the edges
    inside one strongly connected component of S = supp(rho); every other
    edge costs its full weight ``rho_x Q_xy``. On a component the flux
    is ``j_xy = rho_x Q_xy exp(v_y - v_x)``, divergence free to rounding
    at the ``dvg_rate`` maximizer. The gap bounds the error whatever
    optimizer found v: ``bfg_rate`` at a feasible flux bounds the
    contraction from above, the dual value at any v from below.
    """
    rho = rho if isinstance(rho, ProbVector) else ProbVector(np.asarray(rho, dtype=float))
    dual = dvg_rate(rho, Q)
    value = bfg_rate(rho, dual.flux, Q)
    return ContractionResult(value, dual.value, value - dual.value, dual.flux, dual.maximizer)


@dataclass(frozen=True)
class BallResult:
    """Minimum of the occupation rate over an l1 ball, with its certificate.

    ``value`` is the rate at ``minimizer``. ``gap`` is the Frank-Wolfe
    duality gap there: ``value - gap`` bounds the true minimum from below,
    so the value is certified to within ``gap``. ``iterations`` counts the
    ``dvg_rate`` evaluations (0 when the ball holds the invariant measure).
    """

    value: float
    minimizer: np.ndarray
    gap: float
    iterations: int


def _ball_vertex(g: np.ndarray, center: np.ndarray, epsilon: float) -> np.ndarray:
    """argmin of <g, s> over the probability vectors s with |s - center|_1 <= epsilon.

    Mass epsilon / 2 (or all the mass outside) moves to argmin g, taken from
    the highest-g states first, each giving up at most its own mass.
    """
    s = center.copy()
    low = int(np.argmin(g))
    left = min(0.5 * epsilon, 1.0 - center[low])
    s[low] += left
    for x in np.argsort(g)[::-1]:
        if left <= 0.0:
            break
        if x != low:
            take = min(center[x], left)
            s[x] -= take
            left -= take
    return s


def _rate_derivatives(rho: np.ndarray, Q: GeneratorMatrix, v: np.ndarray):
    """Gradient and Hessian of the occupation rate at a positive rho, from its maximizer v.

    With E_xy = Q_xy exp(v_y - v_x) off the diagonal, the gradient is
    g_x = sum_y Q_xy - sum_y E_xy (envelope theorem) and the Hessian is
    J L^-1 J^T, with J = diag(E 1) - E and L the weighted Laplacian of the
    symmetrized flow rho_x E_xy, solved by ``_laplacian_solve``. Both are
    read off each state's potential, which ``dvg_rate`` converges state by
    state, so they hold for states of tiny mass too.
    """
    rates = Q.rates.copy()
    np.fill_diagonal(rates, 0.0)
    E = rates * np.exp(v[None, :] - v[:, None])
    src, dst = np.nonzero(rates > 0)
    J = np.diag(E.sum(axis=1)) - E
    hessian = J @ _laplacian_solve(src, dst, rho[src] * E[src, dst], J.T)
    return rates.sum(axis=1) - E.sum(axis=1), hessian


def _face_newton(g: np.ndarray, H: np.ndarray, gain: np.ndarray, loss: np.ndarray):
    """Newton step on the face that keeps the sums of d over gainers and losers.

    Minimizes g.D + D.H.D / 2 over D supported on gain | loss with zero
    sum on each, in the basis e_x - e_p of each set, p its member of least
    curvature. Pivoting on a state of tiny mass, whose curvature is many
    orders above the rest, or solving the KKT system with multipliers
    instead loses the step to rounding. Returns D and the gradient
    g + H D that the step predicts, level on each set.
    """
    curvature = np.diag(H)
    basis = []
    for members in (np.flatnonzero(gain), np.flatnonzero(loss)):
        pivot = members[np.argmin(curvature[members])]
        for x in members[members != pivot]:
            z = np.zeros_like(g)
            z[pivot], z[x] = -1.0, 1.0
            basis.append(z)
    step = np.zeros_like(g)
    if basis:
        Z = np.array(basis).T
        step = Z @ np.linalg.solve(Z.T @ H @ Z, -(Z.T @ g))
    return step, g + H @ step


def _face_step(g: np.ndarray, H: np.ndarray, gain: np.ndarray, loss: np.ndarray,
               can_lose: np.ndarray):
    """Newton step on the face, grown by the neutral states that break its levels.

    The neutral state whose predicted gradient lies furthest below the
    gainers' level, or above the losers' (if it has mass to lose), joins
    the face, as long as the grown face's step moves it the right way;
    this repeats until no neutral state breaks the levels. Returns the
    face and its step.
    """
    step, predicted = _face_newton(g, H, gain, loss)
    while True:
        neutral = ~(gain | loss)
        below = np.where(neutral, predicted[gain].mean() - predicted, 0.0)
        above = np.where(neutral & can_lose, predicted - predicted[loss].mean(), 0.0)
        x = int(np.argmax(np.maximum(below, above)))
        if max(below[x], above[x]) <= 0.0:
            return gain, loss, step
        joins = np.arange(g.size) == x
        to_gain = below[x] >= above[x]
        face = (gain | joins, loss) if to_gain else (gain, loss | joins)
        face_step, face_predicted = _face_newton(g, H, *face)
        if not (face_step[x] > 0 if to_gain else face_step[x] < 0):
            return gain, loss, step
        (gain, loss), step, predicted = face, face_step, face_predicted


def ball_rate(Q: GeneratorMatrix, center, epsilon: float) -> BallResult:
    """Minimize the occupation rate I(rho) = ``dvg_rate(rho, Q)`` over the l1 ball.

    The ball is B = {rho in the simplex : |rho - center|_1 <= epsilon}; its
    minimum is the exponent that ball-hitting probabilities decay with, the
    reference for ``mc_decay_rate``. I is convex and vanishes only at the
    invariant measure pi, so the minimum is 0 at pi when pi lies in B, and
    otherwise lies on the sphere |rho - center|_1 = epsilon.

    On the sphere the method is an active-set Newton method on d = rho - center.
    Gainers (d_x > 0) carry epsilon / 2 and losers (d_x < 0) give it up;
    at the minimum the gradient g is level on each set (alpha, beta) and
    lies in [alpha, beta] elsewhere. Each step is a Newton step on the face
    that fixes both sums, with the Hessian from ``dvg_rate``'s maximizer
    (see ``_rate_derivatives``); a state whose predicted gradient breaks
    the levels joins the face. A ratio test keeps the signs of d (a state
    whose d reaches 0 leaves the face) and every entry of rho positive,
    Armijo backtracking on I follows, and d is rescaled on each set so the
    sums stay exact. The start is the point of the segment from the
    center to pi at distance epsilon, strictly inside the simplex.

    The stop is a certificate: for any potential v, I(s) >= <g, s> with
    g the gradient built from v, so I's minimum over B is at least
    <g, s(g)>, s(g) the vertex of B that minimizes <g, s>. The Frank-Wolfe
    gap <g, rho - s(g)> (Jaggi, ICML 2013) therefore bounds the error of
    the value, and the iteration stops once it is at most
    ``BALL_GAP_RTOL * max(1, value)``.

    Raises ``ValueError`` for a center that is not a probability vector on
    Q's states or an epsilon below ``BALL_MIN_EPSILON``, and
    ``NonConvergence`` (``best`` holds the last ``BallResult`` with its
    gap) when ``BALL_MAX_EVALS`` rate evaluations do not reach the
    tolerance.
    """
    center = (center if isinstance(center, ProbVector) else ProbVector(center)).weights
    n = Q.n_states
    if center.shape != (n,):
        raise ValueError(f"center must have shape ({n},), got {center.shape}")
    _check_positive(epsilon, "epsilon")
    if epsilon < BALL_MIN_EPSILON:
        raise ValueError(f"epsilon {epsilon!r} is below {BALL_MIN_EPSILON:g}, where l1 distances "
                         "between probability vectors are not resolved")
    pi = invariant_measure(Q).weights
    outward = pi - center
    distance = float(np.abs(outward).sum())
    if distance <= epsilon:
        return BallResult(0.0, pi, 0.0, 0)

    half = 0.5 * epsilon

    def on_sphere(d: np.ndarray) -> np.ndarray:
        gain, loss = d > 0, d < 0
        d[gain] *= half / d[gain].sum()
        d[loss] *= half / -d[loss].sum()
        return d

    def evaluate(d: np.ndarray):
        rho = center + d
        return rho, dvg_rate(rho, Q)

    d = on_sphere(outward * (epsilon / distance))
    rho, res = evaluate(d)
    evals = 1
    while True:
        g, H = _rate_derivatives(rho, Q, res.maximizer)
        gap = max(res.value - float(g @ _ball_vertex(g, center, epsilon)), 0.0)
        best = BallResult(res.value, rho, gap, evals)
        if gap <= BALL_GAP_RTOL * max(1.0, res.value):
            return best
        if evals >= BALL_MAX_EVALS:
            raise NonConvergence(f"ball_rate stopped at gap {gap:.3g} after {evals} rate "
                                 "evaluations", best=best)
        gain, loss, step = _face_step(g, H, d > 0, d < 0, center > 0)
        slope = float(g @ step)
        if not slope < 0.0:
            raise NonConvergence(f"ball_rate stalled at gap {gap:.3g}: the face step is not "
                                 "a descent direction", best=best)
        # ratio test: no entry of d changes sign (the first to reach 0 leaves
        # the face), and no entry of rho falls below half its value
        to_zero = np.full(n, math.inf)
        crossing = (gain & (step < 0)) | (loss & (step > 0))
        to_zero[crossing] = -d[crossing] / step[crossing]
        falling = step < 0
        to_half = float(np.min(0.5 * rho[falling] / -step[falling], initial=math.inf))
        hit = int(np.argmin(to_zero))
        t = t_max = min(1.0, to_zero[hit], to_half)
        while True:
            trial = d + t * step
            if t == to_zero[hit]:
                trial[hit] = 0.0
            trial_rho, trial_res = evaluate(on_sphere(trial))
            evals += 1
            if trial_res.value <= res.value + ARMIJO * t * slope + 4 * EPS * max(1.0, res.value):
                break
            t *= 0.5
            if t < MIN_STEP * t_max:
                raise NonConvergence(f"ball_rate line search failed at gap {gap:.3g}", best=best)
        d, rho, res = trial, trial_rho, trial_res


# ---------------------------------------------------------------------------
# Monte Carlo decay fits


@dataclass(frozen=True)
class DecayFit:
    """Weighted least-squares fit of -log P(occupation ball hit) against the horizon.

    ``slope`` is the estimated decay exponent, clamped at zero (rates are
    nonnegative). ``hits[i]`` counts the paths whose occupation over
    [0, n_grid[i]] lies in the ball; every grid point reads the same
    ``n_paths`` paths, each simulated once to the last grid point.
    ``slope_se`` is the standard error for independent binomial hit
    counts at each point: the sharing makes the counts positively
    correlated, but over seeds 0-29 (sym2, rho = (0.7, 0.3), epsilon =
    0.03, grid 40..100, 1e5 paths) the mean ``slope_se`` was 0.00338
    against a seed-to-seed sd of ``slope`` of 0.00326.
    The paths run in batches of at most MC_BATCH, each with the working
    set ``_count_hits`` describes.
    """

    n_grid: np.ndarray
    hits: np.ndarray
    n_paths: int
    neg_log_prob: np.ndarray
    slope: float
    slope_se: float
    intercept: float
    epsilon: float

    def probabilities(self) -> np.ndarray:
        return self.hits / self.n_paths


def _ball_distances(Q: GeneratorMatrix, n_grid: np.ndarray, n_paths: int, rng: np.random.Generator,
                    init, target: np.ndarray) -> np.ndarray:
    """(n_paths, G) l1 distances of each path's occupation from ``target`` at each grid point."""
    stat = batch_occupations(Q, n_grid, n_paths, rng, init)
    stat -= target
    np.abs(stat, out=stat)
    # each l1 norm goes into the first component, CHUNK rows at a time
    for lo in range(0, n_paths, CHUNK):
        stat[lo : lo + CHUNK, :, 0] = stat[lo : lo + CHUNK].sum(axis=2)
    return stat[:, :, 0]


def _count_hits(Q: GeneratorMatrix, n_grid: np.ndarray, target: np.ndarray,
                epsilon: float, n_paths: int, seed: int, init) -> np.ndarray:
    """Ball hits at every grid point, in batches of at most MC_BATCH paths.

    Batch b draws from the stream keyed (seed, b), and a path's occupation
    at a grid point uses only the draws up to that point, so
    ``hits[:i + 1]`` depends only on ``n_grid[:i + 1]``. A batch of m
    paths holds the (m, G, n) float occupations of ``batch_occupations``,
    reduced in place to the distances, plus the lockstep walk's
    byte-sized states and visit counts, an int64 event count and sort
    index per path and CHUNK-row scratch: for the mc-verify shape
    (m = 50 000, G = 4, n = 2) that is 3.2 MB of occupations and a
    tracemalloc peak of 4.6 MB.
    """
    hits = np.zeros(n_grid.size, dtype=np.int64)
    for batch_index, done in enumerate(range(0, n_paths, MC_BATCH)):
        size = min(MC_BATCH, n_paths - done)
        rng = np.random.default_rng(np.random.SeedSequence([seed, batch_index]))
        hits += np.count_nonzero(
            _ball_distances(Q, n_grid, size, rng, init, target) <= epsilon, axis=0)
    return hits


def mc_decay_rate(Q: GeneratorMatrix, target, epsilon: float, n_grid, n_paths: int,
                  seed: int) -> DecayFit:
    """Estimate the decay exponent in T of P(|occupation over [0, T] - target|_1 <= epsilon).

    ``ball_rate`` gives its reference value. ``n_paths`` paths start from
    the invariant measure; each is simulated once, to the last horizon of
    ``n_grid``, and tested at every horizon on the way (see ``DecayFit``
    for what that means for ``slope_se``). The exponent is the slope of a
    weighted linear fit of -log(hit fraction) on the grid. Horizons with
    fewer than MIN_HITS hits, or where every path hits, are dropped (their
    ``neg_log_prob`` is inf); if fewer than two survive, InsufficientHits
    carries the largest horizon still usable. Deterministic in (seed,
    n_grid, n_paths), and the hits up to a horizon do not depend on later
    ones. Invalid inputs, bools among them, raise ValueError before
    anything is simulated.
    """
    n = Q.n_states
    target = np.asarray(target.weights if isinstance(target, ProbVector) else target, dtype=float)
    if target.shape != (n,):
        raise ValueError(f"occupation target must have shape ({n},), got {target.shape}")
    n_grid = _check_grid(n_grid, "n_grid")
    if n_grid.ndim != 1 or n_grid.size < 2:
        raise ValueError("n_grid must be an increasing grid of at least two horizons")
    _check_positive(epsilon, "epsilon")
    _check_count(n_paths, "n_paths")
    _check_seed(seed)
    hits = _count_hits(Q, n_grid, target, epsilon, n_paths, seed, invariant_measure(Q))
    # a point where every path hits carries no decay information (and an
    # infinite binomial weight), so it is as unusable as a rare one
    usable = (hits >= MIN_HITS) & (hits < n_paths)
    if usable.sum() < 2:
        largest = float(n_grid[usable].max()) if usable.any() else None
        raise InsufficientHits(
            f"only {int(usable.sum())} horizons had at least {MIN_HITS} hits and a miss "
            f"(counts: {hits.tolist()} of {n_paths}); enlarge n_paths or move the grid",
            largest_usable_n=largest,
        )
    ns = n_grid[usable]
    phat = hits[usable] / n_paths
    y = -np.log(phat)
    weights = hits[usable] / (1.0 - phat)
    design = np.stack([ns, np.ones_like(ns)], axis=1)
    gram = design.T @ (weights[:, None] * design)
    coef = np.linalg.solve(gram, design.T @ (weights * y))
    cov = np.linalg.inv(gram)
    slope = max(float(coef[0]), 0.0)
    slope_se = float(math.sqrt(max(cov[0, 0], 0.0)))
    neg_log = np.full(n_grid.size, math.inf)
    neg_log[usable] = y
    return DecayFit(n_grid, hits, n_paths, neg_log, slope, slope_se, float(coef[1]), epsilon)
