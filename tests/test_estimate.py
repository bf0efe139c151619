import math

import numpy as np
import pytest

import bridgerates as br
from bridgerates.estimate import _JointProjector
from conftest import random_generator

DVG_73 = 0.08348486100883201
BALL_73_003 = 0.07096824596787867


@pytest.fixture(scope="module")
def occ_oracle(symmetric_two):
    return br.build_oracle(symmetric_two, 0.5, "occupation", 4000, seed=20)


def test_build_oracle_covers_all_pairs(occ_oracle):
    assert sorted(occ_oracle.laws) == [(0, 0), (0, 1), (1, 0), (1, 1)]
    assert occ_oracle.mode == "occupation"
    assert occ_oracle.d == 2
    for law in occ_oracle.laws.values():
        assert law.n_samples == 4000


def test_infconv_dvg_matches_closed_form(symmetric_two, occ_oracle):
    P = br.transition_at(symmetric_two, 0.5)
    res = br.infconv_dvg(np.array([0.7, 0.3]), occ_oracle, P)
    assert res.feasible
    assert res.converged
    assert res.value / 0.5 == pytest.approx(DVG_73, abs=0.01)
    # reported decomposition is a valid pair measure
    assert res.theta.weights.sum() == pytest.approx(1.0, abs=1e-9)
    assert np.all(res.theta.weights >= 0)


def test_infconv_dvg_converges_on_ring(ring_three):
    # nonreversible three-state chain: the decomposition has nine pairs with
    # three-dimensional block laws and must still converge
    t0 = 1.0
    oracle = br.build_oracle(ring_three, t0, "occupation", 20_000, seed=7)
    rho = br.ProbVector([0.5, 0.3, 0.2])
    res = br.infconv_dvg(rho, oracle, br.transition_at(ring_three, t0))
    assert res.converged
    assert res.feasible
    assert res.decrement < 1e-6
    assert res.conjugate_solves >= 9
    assert res.value / t0 == pytest.approx(br.dvg_rate(rho, ring_three).value, abs=0.01)


def test_infconv_dvg_rejects_flux_oracle(symmetric_two):
    flux_oracle = br.build_oracle(symmetric_two, 0.5, "flux", 200, seed=1)
    P = br.transition_at(symmetric_two, 0.5)
    with pytest.raises(ValueError):
        br.infconv_dvg(np.array([0.7, 0.3]), flux_oracle, P)


def test_infconv_dvg_rejects_bad_shape(symmetric_two, occ_oracle):
    P = br.transition_at(symmetric_two, 0.5)
    with pytest.raises(ValueError):
        br.infconv_dvg(np.array([0.5, 0.3, 0.2]), occ_oracle, P)


def test_infconv_bfg_flags_broken_divergence(symmetric_two):
    oracle = br.build_oracle(symmetric_two, 1.0, "flux", 500, seed=3)
    P = br.transition_at(symmetric_two, 1.0)
    res = br.infconv_bfg(
        np.array([0.5, 0.5]), np.array([[0.0, 1.0], [0.2, 0.0]]), oracle, P
    )
    assert not res.feasible
    assert res.value == math.inf


def _projector(Q, mode, rho):
    t0 = 0.5
    n = Q.n_states
    P = br.transition_at(Q, t0)
    if mode == "occupation":
        target = rho
    else:
        # a divergence-free cycle flux 0 -> 1 -> ... -> n-1 -> 0
        j = np.zeros((n, n))
        j[np.arange(n), (np.arange(n) + 1) % n] = 0.4
        target = np.concatenate([rho, j.ravel()])
    proj = _JointProjector(mode, n, target.size, t0, P.probs > 0, target)
    theta0 = br.dtmc_invariant(P).weights[:, None] * P.probs
    return proj, theta0 / theta0.sum()


def _ring_projector(ring_three, mode):
    return _projector(ring_three, mode, np.array([0.5, 0.3, 0.2]))


@pytest.mark.parametrize("mode", ["occupation", "flux"])
@pytest.mark.parametrize("chain", ["ring", "random4"])
def test_null_basis_is_orthonormal_kernel_of_constraints(ring_three, chain, mode):
    linalg = pytest.importorskip("scipy.linalg")
    if chain == "ring":
        proj, _ = _ring_projector(ring_three, mode)
    else:
        proj, _ = _projector(random_generator(np.random.default_rng(11), 4), mode,
                             np.array([0.1, 0.2, 0.3, 0.4]))
    basis = proj.null_basis
    assert basis.shape[1] > 0
    assert np.allclose(basis.T @ basis, np.eye(basis.shape[1]), rtol=0.0, atol=1e-12)
    assert np.abs(proj._C @ basis).max() <= 1e-12
    reference = linalg.null_space(proj._C)
    assert basis.shape == reference.shape
    # same subspace: equal orthogonal projectors
    assert np.allclose(basis @ basis.T, reference @ reference.T, rtol=0.0, atol=1e-10)


@pytest.mark.parametrize("mode", ["occupation", "flux"])
def test_projector_start_keeps_theta_and_meets_constraints(ring_three, mode):
    proj, theta0 = _ring_projector(ring_three, mode)
    z, residual = proj.start(theta0)
    assert residual <= 1e-12
    assert np.array_equal(proj.split(z)[1], theta0)


def test_projector_drop_zeroes_pair_and_stays_feasible(ring_three):
    proj, theta0 = _ring_projector(ring_three, "flux")
    z, _ = proj.start(theta0)
    # walk along a constraint-keeping direction until one pair weight is
    # 5e-11 while every other weight stays clearly positive
    moved = None
    for v in proj.null_basis.T:
        for slot in proj.theta_slots:
            if abs(v[slot]) < 1e-3:
                continue
            trial = z - (z[slot] - 5e-11) / v[slot] * v
            others = np.delete(trial[proj.theta_slots], np.flatnonzero(proj.theta_slots == slot))
            if others.min() > 1e-3:
                moved = trial
                break
        if moved is not None:
            break
    assert moved is not None
    small = proj.split(moved)[1] < 1e-10
    assert small.sum() == 1
    out = proj.drop(moved, small)
    k, theta = proj.split(out)
    assert np.abs(proj._C @ out - proj._b).max() <= 1e-12
    assert theta.min() >= 0.0
    assert np.all(theta[small] == 0.0)
    assert np.all(k[small] == 0.0)


def test_infconv_dvg_flags_target_off_the_simplex(symmetric_two, occ_oracle):
    P = br.transition_at(symmetric_two, 0.5)
    res = br.infconv_dvg(np.array([0.71, 0.3]), occ_oracle, P)
    assert not res.feasible
    assert res.value == math.inf


@pytest.mark.parametrize("t0, n_samples", [(0.5, 5000), (1.0, 5000), (0.5, 20_000)])
@pytest.mark.parametrize("seed", [3, 7])
def test_infconv_bfg_zero_flux_fails_typed_or_converges(symmetric_two, t0, n_samples, seed):
    # zero flux is a valid target (the joint rate is the total exit rate,
    # 1.0) whose optimal decomposition puts no weight on the jumping pairs;
    # the Newton method must not crash untyped or call it unreachable
    oracle = br.build_oracle(symmetric_two, t0, "flux", n_samples, seed)
    P = br.transition_at(symmetric_two, t0)
    rho, j = br.ProbVector([0.5, 0.5]), np.zeros((2, 2))
    assert br.bfg_rate(rho, j, symmetric_two) == pytest.approx(1.0)
    try:
        res = br.infconv_bfg(rho, j, oracle, P)
    except br.NonConvergence as exc:
        assert "decomposition Newton step" in str(exc)
        return
    assert res.feasible
    assert res.converged
    assert res.value / t0 == pytest.approx(1.0, abs=0.02)


def test_contract_matches_occupation_rate(symmetric_two):
    rho = br.ProbVector([0.7, 0.3])
    out = br.contract_dvg_from_bfg(rho.weights, symmetric_two)
    want = br.dvg_rate(rho, symmetric_two).value
    assert out.value == pytest.approx(want, abs=1e-8)
    assert out.gap < 1e-7
    # minimizing flux is divergence-free and lives on the support of rho Q
    assert np.abs(br.divergence(out.flux)).max() < 1e-8


def test_contract_random_chains():
    rng = np.random.default_rng(40)
    for _ in range(5):
        n = int(rng.integers(2, 5))
        Q = random_generator(rng, n)
        rho = br.ProbVector(rng.dirichlet(np.ones(n)))
        out = br.contract_dvg_from_bfg(rho.weights, Q)
        want = br.dvg_rate(rho, Q).value
        assert out.value == pytest.approx(want, abs=1e-6)


def _stress_chains():
    """The seeded stress set: 2000 irreducible 8-state chains with sparse, spiky rho.

    Rates are log-normal with sigma 2 and 30% of edges cut; rho is
    Dirichlet(0.05) with 15% of entries zeroed, so many support entries
    are far below 1e-16.
    """
    rng = np.random.default_rng(5)
    for _ in range(2000):
        while True:
            rates = np.exp(2 * rng.standard_normal((8, 8)))
            rates[rng.random((8, 8)) < 0.3] = 0.0
            np.fill_diagonal(rates, 0.0)
            rates[np.diag_indices(8)] = -rates.sum(axis=1)
            try:
                Q = br.validate_generator(rates)
            except ValueError:
                continue
            if br.is_irreducible(Q):
                break
        rho = rng.dirichlet(np.full(8, 0.05))
        rho[rng.random(8) < 0.15] = 0.0
        if not rho.any():
            rho[rng.integers(8)] = 1.0
        yield Q, rho / rho.sum()


def test_contract_stress_set_small_rho():
    # every chain returns a certified contraction equal to dvg_rate; failures
    # are counted per bucket of the smallest rho entry on the support
    edges = (1e-8, 1e-16, 1e-30)
    chains = [0, 0, 0, 0]
    failures = [0, 0, 0, 0]
    for Q, rho in _stress_chains():
        bucket = sum(rho[rho > 0].min() < edge for edge in edges)
        chains[bucket] += 1
        try:
            want = br.dvg_rate(rho, Q).value
            out = br.contract_dvg_from_bfg(rho, Q)
        except (ValueError, RuntimeError):  # np.linalg.LinAlgError is a ValueError
            failures[bucket] += 1
            continue
        scale = max(1.0, want)
        if not (abs(out.value - want) <= 1e-9 * scale and out.gap >= -1e-12 * scale):
            failures[bucket] += 1
    assert chains == [125, 665, 906, 304]
    assert failures == [0, 0, 0, 0], f"failures per min-rho bucket (>=1e-8, 1e-16, 1e-30, below): {failures}"


def test_ball_rate_zero_when_center_is_invariant(symmetric_two):
    value, rho = br.ball_rate(symmetric_two, np.array([0.5, 0.5]), 0.05)
    assert value == pytest.approx(0.0, abs=1e-10)


def test_ball_rate_frozen_reference(symmetric_two):
    value, rho = br.ball_rate(symmetric_two, np.array([0.7, 0.3]), 0.03)
    assert value == pytest.approx(BALL_73_003, abs=1e-6)
    # minimizer sits inside the ball, on the invariant-measure side
    assert np.abs(rho - np.array([0.7, 0.3])).sum() <= 0.03 + 1e-8
    assert rho.sum() == pytest.approx(1.0, abs=1e-10)
    assert rho[0] < 0.7


def test_mc_decay_validations(symmetric_two):
    target = np.array([0.7, 0.3])
    with pytest.raises(ValueError):
        br.mc_decay_rate(symmetric_two, target, 0.1, (10,), 1000, 0)
    with pytest.raises(ValueError):
        br.mc_decay_rate(symmetric_two, target, -0.1, (10, 20), 1000, 0)
    with pytest.raises(ValueError):
        br.mc_decay_rate(symmetric_two, target, 0.1, (20, 10), 1000, 0)
    with pytest.raises(ValueError):
        br.mc_decay_rate(symmetric_two, target, 0.1, (10, 20), 1000, 0, kind="nope")
    with pytest.raises(ValueError):
        br.mc_decay_rate(symmetric_two, target, 0.1, (10, 20), 1000, 0, kind="pair")


def test_mc_decay_insufficient_hits(symmetric_two):
    # a tiny ball around a far-from-invariant point is essentially never hit
    with pytest.raises(br.InsufficientHits) as info:
        br.mc_decay_rate(
            symmetric_two, np.array([0.99, 0.01]), 0.005, (60, 90), 2000, 0
        )
    assert hasattr(info.value, "largest_usable_n")


def test_mc_decay_all_hits_is_insufficient(symmetric_two):
    # a ball every path lands in carries no decay information: its grid
    # points must be dropped, not given an infinite weight and a NaN fit
    with pytest.raises(br.InsufficientHits) as info:
        br.mc_decay_rate(symmetric_two, [0.7, 0.3], 2.5, [1, 2], 2000, 1)
    assert info.value.largest_usable_n is None


def test_mc_decay_occupation_slope(symmetric_two):
    fit = br.mc_decay_rate(
        symmetric_two, np.array([0.7, 0.3]), 0.05, (20, 30, 40), 60_000, seed=2
    )
    ref, _ = br.ball_rate(symmetric_two, np.array([0.7, 0.3]), 0.05)
    assert fit.slope > 0
    assert 0.5 * ref < fit.slope < 2.0 * ref
    probs = fit.probabilities()
    assert probs.shape == (3,)
    assert np.all(np.diff(fit.neg_log_prob) > 0)


def test_mc_decay_pair_kind_runs(symmetric_two):
    # pair statistic over windows: target the stationary pair measure
    P = br.transition_at(symmetric_two, 1.0)
    mu = br.dtmc_invariant(P).weights
    theta = mu[:, None] * P.probs
    fit = br.mc_decay_rate(
        symmetric_two, theta, 0.35, (6, 10), 4000, seed=4, kind="pair", t0=1.0
    )
    assert fit.slope >= 0
    assert len(fit.hits) == 2
