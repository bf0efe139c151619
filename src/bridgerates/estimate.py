"""Cross-validation layer: inf-convolution solvers, contraction, MC decay fits.

This module closes the loop between the three rate representations. The
block decomposition says that the continuous-time rate of a time-averaged
statistic equals (after dividing by the window length) the infimum of the
composite block rate over all pair decompositions (k, theta) whose totals
hit the target. ``build_oracle`` samples the per-pair block laws afresh on
every call, and ``infconv_dvg`` / ``infconv_bfg`` compute that infimum
numerically against the sampled oracle: an equality-constrained,
gradient-regularized Newton method on (k, theta) whose Hessian comes from
the curvature each conjugate solve already returns, run on the conjugate
box and again on the doubled box to certify the optimum. Its start, and
the verdict on targets that cannot be decomposed at all, come from one
least-squares solve for k at the stationary pair measure.
``contract_dvg_from_bfg`` checks the flux-to-occupation contraction by
convex duality: its dual is the ``dvg_rate`` problem, so it builds a
divergence-free flux from that call's potentials and certifies it by
``bfg_rate`` and the primal-dual gap. ``mc_decay_rate`` estimates the decay
exponent of ball probabilities from direct simulation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bridge import BridgeSpec, conditional_samples
from .chain import (
    GeneratorMatrix,
    ProbVector,
    TransitionKernel,
    _strong_components,
    dtmc_invariant,
    invariant_measure,
)
from .conjugate import (
    DEFAULT_LAM_BOX,
    ConjugateOracle,
    conjugate_at,
)
from .ratefun import (
    FluxField,
    NonConvergence,
    PairMeasure,
    _laplacian_solve,
    bfg_rate,
    dvg_rate,
)
from .simulate import MODES, batch_occupations, batch_pair_statistics

__all__ = [
    "InsufficientHits",
    "InfConvResult",
    "ContractionResult",
    "DecayFit",
    "build_oracle",
    "infconv_dvg",
    "infconv_bfg",
    "contract_dvg_from_bfg",
    "ball_rate",
    "mc_decay_rate",
]

# Pairs whose weight ends a solve below this are dropped exactly.
THETA_UNFLOOR = 1e-10
# Newton on (k, theta): steps per box pass, the decrement (relative to
# max(1, |value|)) that ends a pass, share of the distance to theta = 0 a
# step may cover, Armijo sufficient-decrease fraction, and the step length
# below which backtracking gives up.
MAX_NEWTON = 100
NEWTON_TOL = 1e-7
FRACTION_TO_BOUNDARY = 0.99
ARMIJO = 1e-4
MIN_STEP = 1e-12
# Relative growth of the optimum under box doubling that flags an
# unreachable target (the box acts as a penalty weight on the constraints).
SWEEP_GROWTH_RTOL = 1e-2
# Contraction: flux-weighted Newton rounds that repair a component's
# divergence, stopped early once it is at rounding level, EPS times the
# largest flux.
REPAIR_ROUNDS = 5
EPS = float(np.finfo(float).eps)
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
    draws. Every call samples afresh: a whole oracle takes a fraction of a
    second, well under the solves it feeds.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}")
    n = Q.n_states
    laws = {(x, y): conditional_samples(BridgeSpec(Q, x, y, t0), mode, n_samples, seed)
            for x in range(n) for y in range(n)}
    return ConjugateOracle(laws=laws, mode=mode, t0=t0)


# ---------------------------------------------------------------------------
# inf-convolution over pair decompositions


@dataclass(frozen=True)
class InfConvResult:
    """Minimizing pair decomposition of a block-rate target.

    ``value`` is the composite block rate per window (divide by the window
    length for the continuous-time rate); infinite when the target was
    flagged unreachable. ``certificate`` is the relative change of the
    optimum under doubling of the conjugate box, small when the reported
    optimum has stabilized. ``iterations`` counts the Newton steps of both
    box passes, ``conjugate_solves`` the per-pair conjugate solves they
    made, and ``decrement`` is the Newton decrement at the end of the
    doubled-box pass; ``converged`` says both passes brought their
    decrement under tolerance.
    """

    value: float
    theta: PairMeasure
    k: FluxField
    certificate: float
    converged: bool
    feasible: bool
    iterations: int
    conjugate_solves: int
    decrement: float


class _JointProjector:
    """Affine constraints of a pair decomposition (k, theta), by least squares.

    The constraints tie the decomposition together: pair totals hit the
    target, each pair's block mass matches its theta weight (block
    occupation fractions sum to one), flux blocks carry the divergence and
    zero diagonal their endpoints force on them, and theta is a balanced
    measure supported on the allowed pairs. Keeping these exact is what
    keeps every conjugate evaluation on the affine hull of its law's
    support, where the conjugate is smooth. ``null_basis`` spans the
    directions that keep every constraint, where the Newton steps run.

    At a theta that is balanced and positive on every allowed pair, the
    constraints left on k have a solution exactly when the target can be
    decomposed, so one least-squares solve for k (``start``) gives both the
    feasible start and the infeasibility verdict. ``drop`` removes pairs
    from a feasible point with one minimum-norm correction on the rest.
    """

    def __init__(self, mode: str, n: int, d: int, t0: float | None,
                 allowed: np.ndarray, target: np.ndarray):
        self.n = n
        self.d = d
        self._target = target
        size = n * n * d + n * n
        theta_off = n * n * d
        rows = []
        rhs = []

        def k_col(p: int, i: int) -> int:
            return p * d + i

        for i in range(d):
            row = np.zeros(size)
            row[[k_col(p, i) for p in range(n * n)]] = 1.0
            rows.append(row)
            rhs.append(target[i])
        occ_dims = d if mode == "occupation" else n
        for p in range(n * n):
            row = np.zeros(size)
            row[[k_col(p, i) for i in range(occ_dims)]] = 1.0
            row[theta_off + p] = -1.0
            rows.append(row)
            rhs.append(0.0)
        if mode == "flux":
            for p in range(n * n):
                x, y = divmod(p, n)
                for z in range(n):
                    row = np.zeros(size)
                    for b in range(n):
                        row[k_col(p, n + z * n + b)] += 1.0
                        row[k_col(p, n + b * n + z)] -= 1.0
                    row[theta_off + p] = -(float(z == x) - float(z == y)) / t0
                    rows.append(row)
                    rhs.append(0.0)
                for z in range(n):
                    row = np.zeros(size)
                    row[k_col(p, n + z * n + z)] = 1.0
                    rows.append(row)
                    rhs.append(0.0)
        row = np.zeros(size)
        row[theta_off:] = 1.0
        rows.append(row)
        rhs.append(1.0)
        for i in range(n - 1):
            row = np.zeros(size)
            for b in range(n):
                row[theta_off + i * n + b] += 1.0
                row[theta_off + b * n + i] -= 1.0
            rows.append(row)
            rhs.append(0.0)
        for p in np.flatnonzero(~allowed.ravel()):
            row = np.zeros(size)
            row[theta_off + p] = 1.0
            rows.append(row)
            rhs.append(0.0)
            for i in range(d):
                row = np.zeros(size)
                row[k_col(p, i)] = 1.0
                rows.append(row)
                rhs.append(0.0)
        self._C = np.array(rows)
        self._b = np.array(rhs)
        self._theta_off = theta_off
        # orthonormal directions that keep every affine constraint: the right
        # singular vectors past the numerical rank, by the rank rule of
        # scipy.linalg.null_space. Stored row-major, as null_space returns
        # it: BLAS rounds the reduced Newton products by layout, and an
        # unconverged solve on a boundary target can end on either side of
        # the feasibility test depending on those last bits.
        _, sing, vh = np.linalg.svd(self._C)
        rank = int(np.sum(sing > sing.max(initial=0.0) * np.finfo(float).eps * max(self._C.shape)))
        self.null_basis = np.ascontiguousarray(vh[rank:].T)
        # flat positions of the allowed theta entries
        self.theta_slots = theta_off + np.flatnonzero(allowed.ravel())

    def split(self, z: np.ndarray):
        """(k, theta) views of a flat (k.ravel(), theta.ravel()) vector."""
        off = self._theta_off
        return z[:off].reshape(self.n, self.n, self.d), z[off:].reshape(self.n, self.n)

    def start(self, theta: np.ndarray):
        """Flat z at this theta, and its largest constraint residual.

        k is the least-squares solution nearest to every pair sitting at the
        target (k_p = theta_p * target); theta is kept as given. A residual
        above roundoff means the target cannot be decomposed.
        """
        off = self._theta_off
        z = np.concatenate([(theta[:, :, None] * self._target).ravel(), theta.ravel()])
        z[:off] += np.linalg.lstsq(self._C[:, :off], self._b - self._C @ z, rcond=None)[0]
        return z, float(np.abs(self._C @ z - self._b).max())

    def drop(self, z: np.ndarray, small: np.ndarray) -> np.ndarray:
        """z with the pairs ``small`` zeroed, then corrected back onto the constraints.

        The correction is the minimum-norm least-squares one on the kept
        pairs, so it moves a feasible z by about the mass it removes.
        """
        z = z.copy()
        k, theta = self.split(z)
        k[small] = 0.0
        theta[small] = 0.0
        keep = np.concatenate([np.repeat(~small.ravel(), self.d), ~small.ravel()])
        z[keep] += np.linalg.lstsq(self._C[:, keep], self._b - self._C @ z, rcond=None)[0]
        return z


class _BoxedObjective:
    """Composite block rate on a fixed box, with its gradient and Hessian.

    Over the allowed pairs p = (x, y),

        F(k, theta) = sum_p theta_p phi*_p(k_p / theta_p)
                      + sum_p theta_p log(theta_p / (row_x(theta) P_xy)),

    with each conjugate phi*_p solved on the box [-L, L]^d (L = ``lam_box``,
    ``DEFAULT_LAM_BOX`` until the caller doubles it), which keeps F finite
    everywhere. F is jointly convex. The conjugate terms
    differentiate by the envelope rule: the k slope is the maximizing
    multiplier and the theta slope is phi*_p(u) - lam . u at u = k_p /
    theta_p; their second derivatives form the perspective Hessian
    (1/theta_p) [[A, -A u], [-u' A, u' A u]] of the conjugate's curvature A,
    all read off the solved conjugate. The entropy part adds diag(1/theta)
    minus 1/row_x within each row. Pairs of zero weight (dropped at the
    end of a solve) contribute nothing: the perspective vanishes at (0, 0).
    Gradient and Hessian are in the flat layout (k.ravel(), theta.ravel()).
    Keeps one warm-start multiplier per pair to make repeated solves cheap,
    and counts the solves in ``solves``.
    """

    def __init__(self, oracle: ConjugateOracle, P: TransitionKernel, allowed: np.ndarray):
        self.oracle = oracle
        self.P = P
        self.allowed = allowed
        self.lam_box = DEFAULT_LAM_BOX
        n = allowed.shape[0]
        self._pairs = [(x, y) for x in range(n) for y in range(n) if allowed[x, y]]
        self._warm = {p: None for p in self._pairs}
        self.solves = 0

    def __call__(self, k: np.ndarray, theta: np.ndarray):
        n, _, d = k.shape
        off = n * n * d
        grad = np.zeros(off + n * n)
        hess = np.zeros((grad.size, grad.size))
        total = 0.0
        live = [(x, y) for x, y in self._pairs if theta[x, y] > 0]
        row = np.where(self.allowed, theta, 0.0).sum(axis=1)
        for x, y in live:
            w = theta[x, y]
            u = k[x, y] / w
            est = conjugate_at(self.oracle.law(x, y), u, self.lam_box, lam0=self._warm[(x, y)])
            self.solves += 1
            self._warm[(x, y)] = est.maximizer
            ks = slice((x * n + y) * d, (x * n + y + 1) * d)
            t = off + x * n + y
            log_ratio = math.log(w / (row[x] * self.P.probs[x, y]))
            total += w * (est.value + log_ratio)
            grad[ks] = est.maximizer
            grad[t] = est.value - float(est.maximizer @ u) + log_ratio
            au = est.curvature @ u / w
            hess[ks, ks] = est.curvature / w
            hess[ks, t] = hess[t, ks] = -au
            hess[t, t] = float(u @ au) + 1.0 / w
        for x in range(n):
            slots = [off + x * n + y for y in range(n) if (x, y) in live]
            if slots:
                hess[np.ix_(slots, slots)] -= 1.0 / row[x]
        return total, grad, hess


def _newton(objective: _BoxedObjective, proj: _JointProjector, z: np.ndarray):
    """Equality-constrained, gradient-regularized Newton on z = (k, theta).

    Each step solves (H + mu I) dz = -g on the null space of the
    projector's constraints with mu = |projected gradient| (Polyak,
    Math. Program. 120:125-145, 2009); the shift keeps steps bounded along
    directions where the boxed conjugates are linear (pinned multipliers,
    flat hull directions) and fades as the gradient vanishes. The step is
    cut so theta stays positive (fraction to the boundary), then halved
    until the value drops by the Armijo rule. Stops once the Newton
    decrement -g . dz / 2 falls below ``NEWTON_TOL * max(1, |F|)``, or
    unconverged after ``MAX_NEWTON`` steps.

    Returns (value, z, steps, decrement, converged).
    """
    basis = proj.null_basis
    live = proj.theta_slots
    value, grad, hess = objective(*proj.split(z))
    steps = 0
    while True:
        g = basis.T @ grad
        mu = float(np.linalg.norm(g))
        if mu == 0.0:
            return value, z, steps, 0.0, True
        reduced = basis.T @ hess @ basis
        reduced[np.diag_indices_from(reduced)] += mu
        spectrum = np.linalg.eigvalsh(reduced)
        if not spectrum[0] > spectrum[-1] * np.finfo(float).eps:
            # the step would carry no correct digit: the curvature 1/theta of
            # a pair weight running to zero, or of a conjugate near its box,
            # has swamped the rest (a target on the boundary of the
            # decomposable set, such as zero flux, leads here)
            raise NonConvergence(
                f"decomposition Newton step {steps + 1}: reduced Hessian eigenvalues span "
                f"[{spectrum[0]:.2e}, {spectrum[-1]:.2e}], beyond double precision")
        dz = basis @ np.linalg.solve(reduced, -g)
        slope = float(grad @ dz)
        decrement = -0.5 * slope
        if decrement < NEWTON_TOL * max(1.0, abs(value)):
            return value, z, steps, decrement, True
        if steps == MAX_NEWTON:
            return value, z, steps, decrement, False
        shrink = dz[live] < 0
        alpha = 1.0
        if shrink.any():
            room = float(np.min(-z[live][shrink] / dz[live][shrink]))
            alpha = min(1.0, FRACTION_TO_BOUNDARY * room)
        while alpha >= MIN_STEP:
            trial = z + alpha * dz
            trial_value, trial_grad, trial_hess = objective(*proj.split(trial))
            if trial_value <= value + ARMIJO * alpha * slope:
                break
            alpha *= 0.5
        else:
            return value, z, steps, decrement, False
        z, value, grad, hess = trial, trial_value, trial_grad, trial_hess
        steps += 1


def _solve_at_box(objective: _BoxedObjective, proj: _JointProjector, start: np.ndarray):
    value, z, steps, decrement, converged = _newton(objective, proj, start)
    # the Newton iterate is on the affine set up to roundoff, so it stands as
    # it is unless a pair is dropped
    small = (proj.split(z)[1] < THETA_UNFLOOR) & objective.allowed
    if not small.any():
        return value, z, *proj.split(z), steps, decrement, converged
    # drop residual mass exactly and correct on the remaining pairs
    k, theta = proj.split(proj.drop(z, small))
    return objective(k, theta)[0], z, k, theta, steps, decrement, converged


def _infconv(oracle: ConjugateOracle, P: TransitionKernel, target: np.ndarray) -> InfConvResult:
    target = np.asarray(target, dtype=float)
    if target.shape != (oracle.d,):
        raise ValueError(f"target has dimension {target.shape}, oracle expects ({oracle.d},)")
    allowed = P.probs > 0
    n = P.n_states
    proj = _JointProjector(oracle.mode, n, oracle.d, oracle.t0, allowed, target)
    # the stationary pair measure is balanced and positive on every allowed
    # pair, so the constraints left on k are consistent exactly when the
    # target can be decomposed (a flux with nonzero divergence cannot)
    theta0 = dtmc_invariant(P).weights[:, None] * P.probs
    theta0 /= theta0.sum()
    start, residual = proj.start(theta0)
    if residual > 1e-8:
        k = FluxField(np.zeros((n, n, oracle.d)))
        return InfConvResult(math.inf, PairMeasure(theta0), k, math.inf, True, False, 0, 0, 0.0)
    objective = _BoxedObjective(oracle, P, allowed)
    v1, z1, _, _, it1, _, conv1 = _solve_at_box(objective, proj, start)
    # the doubled-box pass refines the base-box Newton iterate (theta still
    # positive there) from the base-box multipliers; the objective stays
    # convex when the box grows
    objective.lam_box *= 2
    v2, _, k2, t2, it2, dec2, conv2 = _solve_at_box(objective, proj, z1)
    growth = (v2 - v1) / max(1.0, abs(v1))
    feasible = growth <= SWEEP_GROWTH_RTOL
    certificate = abs(v2 - v1) / max(1.0, abs(v1))
    theta = PairMeasure(np.maximum(t2, 0.0) / np.maximum(t2, 0.0).sum())
    value = v2 if feasible else math.inf
    return InfConvResult(value, theta, FluxField(k2), certificate, conv1 and conv2, feasible,
                         it1 + it2, objective.solves, dec2)


def infconv_dvg(rho, oracle: ConjugateOracle, P: TransitionKernel) -> InfConvResult:
    """Infimum of the block rate over decompositions of an occupation target.

    Divided by the window length, the value matches the occupation rate of
    the underlying chain at ``rho``. Requires an occupation-mode oracle.
    Each of the two box passes stops once its Newton decrement falls below
    ``NEWTON_TOL * max(1, |value|)``, or unconverged after ``MAX_NEWTON``
    Newton steps. Raises ``NonConvergence`` when a Newton system becomes too
    ill-conditioned for its step to carry a correct digit.
    """
    if oracle.mode != "occupation":
        raise ValueError("infconv_dvg needs an occupation-mode oracle")
    rho = rho.weights if isinstance(rho, ProbVector) else np.asarray(rho, dtype=float)
    return _infconv(oracle, P, rho)


def infconv_bfg(rho, j, oracle: ConjugateOracle, P: TransitionKernel) -> InfConvResult:
    """Infimum of the block rate over decompositions of a joint (rho, j) target.

    The flux part of the target is in jumps per unit time; unreachable
    targets (for instance a flux with nonzero divergence) come back flagged
    infeasible with an infinite value. Requires a flux-mode oracle.
    The stopping rule and ``NonConvergence`` mean what they do for
    ``infconv_dvg``; a target on the edge of the decomposable set, such as
    zero flux, can raise it.
    """
    if oracle.mode != "flux":
        raise ValueError("infconv_bfg needs a flux-mode oracle")
    rho = rho.weights if isinstance(rho, ProbVector) else np.asarray(rho, dtype=float)
    j = np.asarray(j, dtype=float)
    n = rho.size
    if j.shape != (n, n):
        raise ValueError(f"flux target shape {j.shape} does not match {n} states")
    target = np.concatenate([rho, j.ravel()])
    return _infconv(oracle, P, target)


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
    side is a flux built from v and evaluated by ``bfg_rate``. A flux must
    vanish wherever ``rho_x Q_xy`` does, and a divergence-free one also
    vanishes on every edge that lies on no cycle, so it lives on the edges
    inside one strongly connected component of S = supp(rho); every other
    edge costs its full weight ``rho_x Q_xy``. On a component the flux
    starts at ``j_xy = rho_x Q_xy exp(v_y - v_x)``, and its divergence is
    repaired by at most ``REPAIR_ROUNDS`` flux-weighted Newton steps, each
    solving ``L phi = div(j)`` with the weighted Laplacian of j and setting
    ``j_xy *= exp(phi_y - phi_x)``, so every flux stays positive. The gap
    bounds the error whatever optimizer found v: ``bfg_rate`` at a feasible
    flux bounds the contraction from above, the dual value at any v from
    below.
    """
    rho = rho if isinstance(rho, ProbVector) else ProbVector(np.asarray(rho, dtype=float))
    dual = dvg_rate(rho, Q)
    v = dual.maximizer
    base = rho.weights[:, None] * Q.rates
    np.fill_diagonal(base, 0.0)
    support = np.flatnonzero(rho.weights > 0)
    j = np.zeros_like(base)
    for comp in _strong_components(base[np.ix_(support, support)] > 0):
        states = support[comp]
        tail, head = np.nonzero(base[np.ix_(states, states)] > 0)
        src, dst = states[tail], states[head]
        flow = base[src, dst] * np.exp(v[dst] - v[src])
        for _ in range(REPAIR_ROUNDS):
            div = np.bincount(tail, flow, states.size) - np.bincount(head, flow, states.size)
            if np.abs(div).max() <= EPS * flow.max(initial=0.0):
                break
            phi = _laplacian_solve(tail, head, flow, div)
            flow *= np.exp(phi[head] - phi[tail])
        j[src, dst] = flow
    value = bfg_rate(rho, j, Q)
    return ContractionResult(value, dual.value, value - dual.value, j, v)


def ball_rate(Q: GeneratorMatrix, center, epsilon: float) -> tuple[float, np.ndarray]:
    """Minimize the occupation rate over the l1 ball around ``center``.

    The minimization runs over probability vectors within l1 distance
    ``epsilon`` of the center, parametrized by nonnegative up/down moves to
    keep every constraint linear. This is the exponent that ball-hitting
    probabilities decay with, the reference for ``mc_decay_rate``.
    """
    from scipy import optimize  # imported here: no other command needs its load time

    center = np.asarray(center.weights if isinstance(center, ProbVector) else center, dtype=float)
    n = center.size
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")

    def rho_of(z: np.ndarray) -> np.ndarray:
        rho = center + z[:n] - z[n:]
        rho = np.clip(rho, 1e-15, None)
        return rho / rho.sum()

    def objective(z: np.ndarray):
        rho = rho_of(z)
        res = dvg_rate(ProbVector(rho), Q)
        v = res.maximizer
        expdiff = np.exp(v[None, :] - v[:, None])
        slope = -np.sum(np.where(np.eye(n, dtype=bool), 0.0, Q.rates * (expdiff - 1.0)), axis=1)
        return res.value, np.concatenate([slope, -slope])

    constraints = [
        {"type": "eq", "fun": lambda z: z[:n].sum() - z[n:].sum(),
         "jac": lambda z: np.concatenate([np.ones(n), -np.ones(n)])},
        {"type": "ineq", "fun": lambda z: epsilon - z.sum(),
         "jac": lambda z: -np.ones(2 * n)},
        {"type": "ineq", "fun": lambda z: center + z[:n] - z[n:],
         "jac": lambda z: np.hstack([np.eye(n), -np.eye(n)])},
    ]
    res = optimize.minimize(
        objective, np.zeros(2 * n), jac=True, method="SLSQP",
        bounds=[(0.0, epsilon)] * (2 * n), constraints=constraints,
        options={"maxiter": 200, "ftol": 1e-12},
    )
    rho = rho_of(res.x)
    return dvg_rate(ProbVector(rho), Q).value, rho


# ---------------------------------------------------------------------------
# Monte Carlo decay fits


@dataclass(frozen=True)
class DecayFit:
    """Weighted least-squares fit of -log P(ball hit) against the horizon.

    ``slope`` is the estimated decay exponent, clamped at zero (rates are
    nonnegative); ``slope_se`` is its standard error under binomial hit
    counts.
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


def _count_hits(Q: GeneratorMatrix, horizon: float, target: np.ndarray,
                epsilon: float, n_paths: int, seed: int, n_index: int,
                init, kind: str, t0: float | None) -> int:
    hits = 0
    done = 0
    batch_index = 0
    while done < n_paths:
        size = min(MC_BATCH, n_paths - done)
        rng = np.random.default_rng(np.random.SeedSequence([seed, n_index, batch_index]))
        if kind == "occupation":
            stat = batch_occupations(Q, horizon, size, rng, init)
            dist = np.abs(stat - target).sum(axis=1)
        else:
            _, theta = batch_pair_statistics(Q, t0, int(round(horizon)), size, rng, init,
                                             mode="occupation")
            dist = np.abs(theta - target).sum(axis=(1, 2))
        hits += int(np.count_nonzero(dist <= epsilon))
        done += size
        batch_index += 1
    return hits


def mc_decay_rate(
    Q: GeneratorMatrix,
    target,
    epsilon: float,
    n_grid,
    n_paths: int,
    seed: int,
    *,
    kind: str = "occupation",
    t0: float | None = None,
    init: ProbVector | int | None = None,
) -> DecayFit:
    """Estimate the exponential decay exponent of l1-ball hit probabilities.

    With ``kind="occupation"`` each point of ``n_grid`` is a time horizon T:
    simulate ``n_paths`` occupation vectors over [0, T] and count paths with
    ``|occ - target|_1 <= epsilon``. With ``kind="pair"`` the grid entries
    are window counts m, ``t0`` is the window length, and the hit statistic
    is the empirical pair measure of the window skeleton against an (n, n)
    target. Either way the decay exponent comes from a weighted linear fit
    of -log(hit fraction) on the grid. Grid points with fewer than MIN_HITS
    hits, or where every path hits, are dropped (their ``neg_log_prob`` is
    inf); if fewer than two survive, InsufficientHits is raised carrying the
    largest grid point that was still usable. Deterministic in
    (seed, n_grid, n_paths).
    """
    if kind not in ("occupation", "pair"):
        raise ValueError("kind must be 'occupation' or 'pair'")
    if kind == "pair" and (t0 is None or t0 <= 0):
        raise ValueError("pair kind needs a positive window length t0")
    target = np.asarray(target.weights if isinstance(target, ProbVector) else target, dtype=float)
    n_grid = np.asarray(n_grid, dtype=float)
    if n_grid.ndim != 1 or n_grid.size < 2 or np.any(np.diff(n_grid) <= 0):
        raise ValueError("n_grid must be an increasing grid of at least two horizons")
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    if init is None:
        init = invariant_measure(Q)
    hits = np.empty(n_grid.size, dtype=np.int64)
    for idx, horizon in enumerate(n_grid):
        hits[idx] = _count_hits(Q, float(horizon), target, epsilon,
                                n_paths, seed, idx, init, kind, t0)
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
