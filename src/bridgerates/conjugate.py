"""Log moment generating functions and their Legendre-Fenchel conjugates.

A law is anything with a ``_moments`` method that returns its log-MGF with
the tilted mean and covariance (its gradient and Hessian) at one point.
``DiscreteLaw`` covers every law on weighted atoms, and ``EmpiricalLaw``,
the sampled bridge blocks, is its uniform case; its ``log_mgf`` is the one
log-MGF evaluation. ``conjugate_at`` is the one conjugate solver:
a projected Newton method with minimum-norm steps on a box [-L, L]^d, so
directions in which a law's support is flat (occupation fractions summing
to one, zero flux diagonals) never move. When the maximizer is pinned
against the box it solves once more on the doubled box; a value that is
still pinned there and grew by more than ``GROWTH_RTOL`` is infinite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property, partial

import numpy as np

from .chain import GeneratorMatrix, _check_state, _check_window, _is_real, transition_at

__all__ = [
    "ZeroRate",
    "ConjugateEstimate",
    "EmpiricalLaw",
    "DiscreteLaw",
    "conjugate_at",
    "flux_mgf_bound",
    "save_samples",
    "load_samples",
]

DEFAULT_LAM_BOX = 40.0
GRAD_TOL = 1e-9
# curvature below this fraction of the largest tilted variance is a flat
# direction of the support's affine hull, not a Newton direction
EIG_RTOL = 1e-12
MAX_NEWTON = 100
MAX_RAY = 40
# a ray point is accepted once its slope has fallen to within this fraction
# of the starting slope below zero (the ray maximum is then close)
RAY_ETA = 0.25
# relative growth across a box doubling above which a boundary-contacting
# conjugate is declared effectively infinite; hull vertices carrying point
# mass plateau across doublings, genuinely unreachable points keep growing
# linearly in the box size
GROWTH_RTOL = 1e-2
# time points at which flux_mgf_bound scans the conditioned jump rates
FLUX_GRID_POINTS = 2000


class ZeroRate(ValueError):
    """An operation requiring strictly positive jump rates saw a zero."""


@dataclass(frozen=True)
class ConjugateEstimate:
    """Numerical conjugate value with its maximizer and status flags.

    ``decrement`` is the Newton decrement at the last iterate, g . H+ g / 2
    with g the gradient a - mean and H the tilted covariance: an estimate
    of the value still to gain. It is taken on the coordinates not pinned
    to the box, where the boxed conjugate is linear, and the flat
    directions of the law's affine hull (curvature below ``EIG_RTOL`` of
    the largest) contribute nothing. ``growth`` is the value's relative
    gain from the box to the doubled box, 0.0 when the box was not touched.
    """

    value: float
    maximizer: np.ndarray
    converged: bool
    boundary: bool
    decrement: float
    growth: float


# ---------------------------------------------------------------------------
# laws


@dataclass(frozen=True)
class DiscreteLaw:
    """Law on N weighted atoms in R^d; without weights the atoms are uniform.

    ``atoms`` is an (N, d) array (a 1-d array holds N scalar atoms) and
    ``weights`` positive probabilities summing to one, or None for the
    uniform law, which then stores no per-atom weights and gives every
    atom the log-weight -log N exactly. The law holds one copy of its
    atoms, as a C-contiguous (d, N) array whose rows the moment passes
    sweep, and ``atoms`` is its (N, d) view: an input already in that
    layout (the transposed view ``bridge.conditional_samples`` builds) is
    kept as given, and a row-major one, such as ``load_samples`` returns,
    is copied once. The law keeps no scratch: a moment pass writes its
    temporaries into the ``work`` it is given or into fresh arrays, and
    the solvers hold one set while they run (``conjugate_at`` one for
    both its boxes, ``estimate.ConjugateOracle`` one shared by all its laws).
    """

    atoms: np.ndarray
    weights: np.ndarray | None = None

    def __post_init__(self):
        atoms = np.asarray(self.atoms, dtype=float)
        if atoms.ndim == 1:
            atoms = atoms[:, None]
        if atoms.ndim != 2 or atoms.shape[0] < 1:
            raise ValueError(f"atoms must be a nonempty (N, d) array, got {atoms.shape}")
        columns = np.ascontiguousarray(atoms.T)
        if not np.all(np.isfinite(columns)):
            raise ValueError("atoms must be finite")
        object.__setattr__(self, "atoms", columns.T)
        if self.weights is not None:
            weights = np.asarray(self.weights, dtype=float)
            if weights.shape != columns.shape[1:]:
                raise ValueError("atoms and weights must have matching first dimension")
            if not weights.min() > 0 or abs(float(weights.sum()) - 1.0) > 1e-12:
                raise ValueError("weights must be positive and sum to 1")
            object.__setattr__(self, "weights", weights)

    @property
    def samples(self) -> np.ndarray:
        return self.atoms

    @property
    def n_samples(self) -> int:
        return self.atoms.shape[0]

    @property
    def d(self) -> int:
        return self.atoms.shape[1]

    @cached_property
    def _log_weights(self):
        # a scalar for the uniform law: adding it is the same rounding per atom
        if self.weights is None:
            return -math.log(self.n_samples)
        return np.log(self.weights)

    def _moments(self, lam: np.ndarray, work=None):
        return _tilted_moments(self.atoms.T, self._log_weights, lam, work)

    def mean(self) -> np.ndarray:
        if self.weights is None:
            return self.atoms.mean(axis=0)
        return self.weights @ self.atoms

    def log_mgf(self, lam) -> float:
        """log E exp(lam . A), computed with a max shift for stability."""
        lam = np.asarray(lam, dtype=float).ravel()
        if lam.size != self.d:
            raise ValueError(f"lambda dimension {lam.size} does not match law dimension {self.d}")
        return self._moments(lam)[0]


class EmpiricalLaw(DiscreteLaw):
    """Empirical law of N i.i.d. d-dimensional samples: the uniform ``DiscreteLaw``."""

    def __init__(self, samples):
        super().__init__(samples)


def _tilted_moments(columns: np.ndarray, logw, lam: np.ndarray, work=None):
    """log-MGF, tilted mean and tilted covariance at lam, in one pass.

    ``columns`` holds the support points as a C-contiguous (d, N) array,
    so every sweep runs along contiguous rows. The covariance is taken
    about the tilted mean, so flat directions of the support come out with
    curvature at roundoff level rather than at cancellation level.
    ``logw`` holds the log-weights, or one scalar for uniform atoms. Every
    temporary of size N is written into ``work``, an (N,) and two (d, N)
    arrays, allocated afresh when it is None: fresh arrays of that size
    can cost a page fault per page on each pass.
    """
    z, centered, scaled = _moment_work(*columns.shape) if work is None else work
    np.matmul(lam, columns, out=z)
    z += logw
    m = z.max()
    np.subtract(z, m, out=z)
    e = np.exp(z, out=z)
    total = e.sum()
    w = np.divide(e, total, out=z)
    mean = columns @ w
    np.subtract(columns, mean[:, None], out=centered)
    np.multiply(centered, w, out=scaled)
    return float(m + math.log(total)), mean, scaled @ centered.T


def _moment_work(d: int, n: int):
    """Temporaries of one moment pass over n atoms in R^d: an (n,) and two (d, n) arrays."""
    return np.empty(n), np.empty((d, n)), np.empty((d, n))


# ---------------------------------------------------------------------------
# projected Newton solver


def _hull_eigh(H: np.ndarray):
    """Eigenpairs of a tilted covariance and the mask of its curved directions."""
    w, V = np.linalg.eigh(H)
    keep = w > EIG_RTOL * w[-1] if w[-1] > 0 else np.zeros(w.size, dtype=bool)
    return w, V, keep


def _decrement(H: np.ndarray, g: np.ndarray, free: np.ndarray) -> float:
    """Newton decrement g . H+ g / 2 on the free coordinates, flat directions left out."""
    if not free.any():
        return 0.0
    w, V, keep = _hull_eigh(H[np.ix_(free, free)])
    coef = V[:, keep].T @ g[free]
    return 0.5 * float(coef @ (coef / w[keep]))


def _newton_direction(H: np.ndarray, g: np.ndarray, fixed: np.ndarray, lam_box: float,
                      null_tol: float) -> np.ndarray:
    """Minimum-norm Newton step on the free coordinates.

    Curvature directions below a relative cutoff are flat directions of the
    law's affine hull: the log-MGF is linear along them, so the step leaves
    them alone unless the gradient has a component there (the target lies
    off the hull), in which case the step runs far enough to reach the box.
    """
    p = np.zeros_like(g)
    free = ~fixed
    if not free.any():
        return p
    w, V, keep = _hull_eigh(H[np.ix_(free, free)] if fixed.any() else H)
    coef = V.T @ g[free]
    step = V[:, keep] @ (coef[keep] / w[keep])
    off_hull = V[:, ~keep] @ coef[~keep]
    reach = float(np.abs(off_hull).max(initial=0.0))
    if reach > null_tol:
        step = step + off_hull * (2.0 * lam_box / reach)
    p[free] = step
    return p


def _boxed_conjugate(moments, a: np.ndarray, lam_box: float, lam: np.ndarray) -> ConjugateEstimate:
    """Conjugate sup_{lam in [-L, L]^d} (lam . a - phi(lam)) from the start ``lam``.

    ``moments`` returns phi's value, gradient and Hessian at a point.
    Projected Newton (Bertsekas 1982): coordinates pinned on the box (within
    1e-12 of it) with an outward gradient are held fixed, the rest take the
    minimum-norm Newton step of the tilted covariance, and a safeguarded
    search along that ray accepts a point by the sign and size of the slope
    there, which stays reliable where value differences drown in roundoff.
    It stops once the projected gradient drops below ``GRAD_TOL``. The
    returned ``decrement`` is built from the tilted covariance already held
    at the last iterate, so it costs no further pass over the law, and
    ``boundary`` says some coordinate of the maximizer is pinned.
    """
    edge = lam_box * (1 - 1e-12)
    phi_val, mean, H = moments(lam)
    grad = a - mean
    converged = False
    for _ in range(MAX_NEWTON):
        on_hi, on_lo = lam >= edge, lam <= -edge
        fixed = (on_hi & (grad > 0)) | (on_lo & (grad < 0))
        if float(np.abs(np.where(fixed, 0.0, grad)).max(initial=0.0)) < GRAD_TOL:
            converged = True
            break
        while True:
            # a coordinate on the box that the step would push outward is
            # held too, so the ray below never starts against a wall
            p = _newton_direction(H, grad, fixed, lam_box, 0.5 * GRAD_TOL)
            pushed = (on_hi & (p > 0)) | (on_lo & (p < 0))
            if not pushed.any():
                break
            fixed |= pushed
        slope0 = float(p @ grad)
        if not slope0 > 0:
            break
        moving = p != 0
        wall = np.where(p[moving] > 0, lam_box, -lam_box)
        t = min(1.0, float(np.min((wall - lam[moving]) / p[moving])))
        for _ in range(MAX_RAY):
            trial = np.clip(lam + t * p, -lam_box, lam_box)
            trial_phi, trial_mean, trial_H = moments(trial)
            slope = float(p @ (a - trial_mean))
            # f is concave along the ray: a nonnegative slope means the value
            # rose; a small negative one means the ray maximum is close
            if slope >= -RAY_ETA * slope0:
                break
            # overshot: safeguarded Newton step on the slope, back toward 0
            curvature = float(p @ trial_H @ p)
            t_next = t + slope / curvature if curvature > 0 else 0.0
            t = t_next if 0.1 * t < t_next < t else 0.5 * t
        else:
            break
        lam, phi_val, mean, H = trial, trial_phi, trial_mean, trial_H
        grad = a - mean
    pinned = ((lam >= edge) & (grad > 0)) | ((lam <= -edge) & (grad < 0))
    return ConjugateEstimate(float(lam @ a - phi_val), lam, converged, bool(pinned.any()),
                             _decrement(H, grad, ~pinned), 0.0)


def conjugate_at(phi, a) -> ConjugateEstimate:
    """Conjugate sup_lam (lam . a - phi(lam)) of a law's log-MGF, inf when unbounded.

    ``phi`` is a law object (a ``DiscreteLaw``, or any object with its
    ``_moments`` and ``d``); anything else raises ``TypeError``, and a target of the wrong dimension
    or with a nonfinite entry raises ``ValueError``. The solve runs on the
    box of half-width ``DEFAULT_LAM_BOX`` from the origin. Only when its
    maximizer is pinned against the box does it run again, on the doubled
    box from that maximizer, and report the doubled solve with its relative
    ``growth``: a value still pinned there that grew by more than
    ``GROWTH_RTOL`` is infinite, as off the support's hull, where it grows
    linearly with the box, while a hull vertex carrying point mass
    plateaus. ``converged`` holds when every solve that ran converged. On a
    ``DiscreteLaw`` every moment pass of both solves writes into one set of
    temporaries.
    """
    moments = getattr(phi, "_moments", None)
    if moments is None:
        raise TypeError(f"conjugate_at needs a law object, got {type(phi).__name__}")
    if isinstance(phi, DiscreteLaw):
        moments = partial(moments, work=_moment_work(phi.d, phi.n_samples))
    a = np.asarray(a, dtype=float).ravel()
    if a.size != phi.d:
        raise ValueError(f"target dimension {a.size} does not match law dimension {phi.d}")
    if not np.all(np.isfinite(a)):
        raise ValueError("target entries must be finite")
    est = _boxed_conjugate(moments, a, DEFAULT_LAM_BOX, np.zeros(a.size))
    if not est.boundary:
        return est
    doubled = _boxed_conjugate(moments, a, 2 * DEFAULT_LAM_BOX, est.maximizer)
    growth = (doubled.value - est.value) / max(1.0, abs(est.value))
    infinite = doubled.boundary and growth > GROWTH_RTOL
    return replace(doubled, value=math.inf if infinite else doubled.value,
                   converged=est.converged and doubled.converged, growth=growth)


# ---------------------------------------------------------------------------
# bridge-block MGF bound


def flux_mgf_bound(Q: GeneratorMatrix, y: int, t0: float, s: float) -> float:
    """Upper bound on the |.|_1 log-MGF of a bridge block ending at y, uniform in its start.

    The endpoint-conditioned jump rates are bounded over the window by a
    constant Qbar (a sup over a grid of ``FLUX_GRID_POINTS`` times, together
    with closed-form endpoint limits); a Poisson dominating process then gives

        bound(s) = s + Qbar * t0 * (exp(2 s / t0) - 1),

    which dominates the log-MGF of occupation-plus-flux blocks uniformly in
    the endpoints for s >= 0. At s < 0 it does not: on the unit two-state
    chain at t0 = 0.5 and s = -0.5 the pair (0, 0) has log-MGF about -0.60
    and the bound is -0.70. Bridge blocks are nonnegative, so the |.|_1
    log-MGF this bounds is ``law.log_mgf(np.full(law.d, s))``, whatever
    the bridge's start. Requires all off-diagonal rates positive.

    Raises
    ------
    ValueError
        If y is not an integer state, t0 is not positive and finite (a
        ``ChainError``), or s is not finite and nonnegative (bools too).
    ZeroRate
        If some off-diagonal rate of Q vanishes.
    """
    n = Q.n_states
    _check_state(n, y, "end state y")
    _check_window(t0)
    if not (_is_real(s) and s >= 0):
        raise ValueError(f"s must be finite and nonnegative, got {s!r}")
    off = ~np.eye(n, dtype=bool)
    if Q.rates[off].min() <= 0:
        raise ZeroRate("flux bound needs strictly positive off-diagonal rates")

    # conditioned jump rate at a -> b, time t: Q_ab P_by(T0 - t) / P_ay(T0 - t);
    # scan u = T0 - t over [delta, T0] and add the u -> 0 limits
    delta = 1e-4 * t0
    spacing = (t0 - delta) / (FLUX_GRID_POINTS - 1)
    kernel = transition_at(Q, delta).probs
    step = transition_at(Q, spacing).probs
    sup_ratio = np.zeros((n, n))
    for _ in range(FLUX_GRID_POINTS):
        col = kernel[:, y]
        ratio = Q.rates * (col[None, :] / col[:, None])
        sup_ratio = np.maximum(sup_ratio, ratio)
        kernel = kernel @ step
    # closed-form limits as the window end is approached
    p_t0 = transition_at(Q, t0).probs
    limit = np.zeros((n, n))
    for a in range(n):
        for b in range(n):
            if a == b or b == y:
                continue
            if a == y:
                limit[a, b] = Q.rates[y, b] * p_t0[b, y]
            else:
                limit[a, b] = Q.rates[a, b] * Q.rates[b, y] / Q.rates[a, y]
    sup_ratio = np.maximum(sup_ratio, limit)

    mask = off.copy()
    mask[:, y] = False  # jumps into the terminal state have divergent conditioned rates
    q_bar = float(sup_ratio[mask].sum())
    return float(s + q_bar * t0 * math.expm1(2.0 * s / t0))


# ---------------------------------------------------------------------------
# sample serialization


def save_samples(path, samples: np.ndarray) -> None:
    """Write samples as a flat float64 dump: d, N, then the N*d values row by row.

    A C-contiguous float64 array is written as it is; any other layout,
    such as a law's (N, d) view of its (d, N) atoms, is copied once.
    """
    samples = np.asarray(samples, dtype=float)
    if samples.ndim != 2:
        raise ValueError("samples must be an (N, d) array")
    n, d = samples.shape
    with open(path, "wb") as handle:
        np.array([d, n], dtype="<f8").tofile(handle)
        np.ascontiguousarray(samples, dtype="<f8").tofile(handle)


def load_samples(path) -> np.ndarray:
    """Read a flat float64 sample dump written by save_samples."""
    flat = np.fromfile(str(path), dtype="<f8")
    if flat.size < 2:
        raise ValueError(f"sample dump {path} is truncated")
    d, n = int(flat[0]), int(flat[1])
    if d <= 0 or n <= 0 or flat.size != 2 + n * d:
        raise ValueError(f"sample dump {path} has inconsistent header ({d}, {n})")
    return flat[2:].reshape(n, d)
