import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import bridgerates as br
from bridgerates import conjugate, estimate
from bridgerates.estimate import BALL_MIN_EPSILON, _count_hits
from conftest import random_generator, scaled_sweep_chains

REPO = Path(__file__).resolve().parents[1]

DVG_73 = 0.08348486100883201
BALL_73_003 = 0.07096824596787867
RING3 = [[-1.2, 1.0, 0.2], [0.3, -1.3, 1.0], [1.0, 0.4, -1.4]]
EPS = float(np.finfo(float).eps)


@pytest.fixture(scope="module")
def occ_oracle(symmetric_two):
    return br.build_oracle(symmetric_two, 0.5, "occupation", 4000, seed=20)


def test_build_oracle_covers_all_pairs(occ_oracle):
    assert sorted(occ_oracle.laws) == [(0, 0), (0, 1), (1, 0), (1, 1)]
    assert occ_oracle.mode == "occupation"
    assert occ_oracle.d == 2
    for law in occ_oracle.laws.values():
        assert law.n_samples == 4000


@pytest.mark.parametrize("mode", ["occupation", "flux"])
def test_build_oracle_holds_its_window_kernel(ring_three, mode):
    oracle = br.build_oracle(ring_three, 0.7, mode, 50, seed=2)
    assert np.array_equal(oracle.kernel.probs, br.transition_at(ring_three, 0.7).probs)
    assert oracle.t0 == 0.7


@pytest.mark.parametrize("mode, n_samples", [("flux", 4000), ("occupation", 8000)])
def test_oracle_holds_one_copy_of_its_samples(ring_three, mode, n_samples, monkeypatch):
    # each pair's blocks live once, as the (d, N) array the moment passes
    # read: build and solve peak near 1x the sample bytes, not 4x
    pi = br.invariant_measure(ring_three)
    tracemalloc.start()
    try:
        oracle = br.build_oracle(ring_three, 0.5, mode, n_samples, seed=4)
        if mode == "flux":
            flux = pi.weights[:, None] * ring_three.rates
            np.fill_diagonal(flux, 0.0)
            res = br.infconv_bfg(pi, flux, oracle)
        else:
            res = br.infconv_dvg(pi, oracle)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.converged and res.feasible
    sample_bytes = sum(law.atoms.nbytes for law in oracle.laws.values())
    assert peak <= 1.6 * sample_bytes
    reads = []
    moments = conjugate._tilted_moments

    def spy(columns, *rest):
        reads.append(columns)
        return moments(columns, *rest)

    monkeypatch.setattr(conjugate, "_tilted_moments", spy)
    oracle._moments(np.zeros(oracle.d))
    assert len(reads) == len(oracle.laws)
    for law, columns in zip(oracle.laws.values(), reads):
        assert columns.flags.c_contiguous and columns.shape == (oracle.d, n_samples)
        assert columns.base is law.atoms.base and columns.base.flags.owndata


def test_infconv_dvg_matches_closed_form(symmetric_two, occ_oracle):
    res = br.infconv_dvg(np.array([0.7, 0.3]), occ_oracle)
    assert res.feasible
    assert res.converged
    assert res.value / 0.5 == pytest.approx(DVG_73, abs=0.01)
    # reported decomposition is a valid pair measure
    assert res.theta.weights.sum() == pytest.approx(1.0, abs=1e-9)
    assert np.all(res.theta.weights >= 0)


def test_interior_infconv_makes_one_fixed_box_solve(occ_oracle, monkeypatch):
    # an interior target's maximizer never touches the box, so the dual is
    # one solve on the base box with zero growth; the numbers are pinned
    # bit for bit, except the decrement, which is pure roundoff (about 5e-28)
    boxes = []
    boxed = conjugate._boxed_conjugate

    def spy(moments, a, lam_box, lam):
        boxes.append(lam_box)
        return boxed(moments, a, lam_box, lam)

    monkeypatch.setattr(conjugate, "_boxed_conjugate", spy)
    res = br.infconv_dvg(np.array([0.7, 0.3]), occ_oracle)
    assert boxes == [conjugate.DEFAULT_LAM_BOX]
    assert res.certificate == 0.0
    assert res.converged and res.feasible
    assert res.iterations == 6
    assert res.value == 0.041866125621617
    assert 0.0 <= res.decrement <= 1e-20
    assert res.theta.weights.tolist() == [[0.5606769653896674, 0.13950732450512868],
                                          [0.13950732450512873, 0.1603083856000752]]
    assert res.k.vectors.tolist() == [
        [[0.543013413375861, 0.017663552013796907], [0.07491053253525708, 0.06459679196987164]],
        [[0.07487040224062959, 0.06463692226449913], [0.007205651848227321, 0.15310273375184622]],
    ]


def test_infconv_dvg_converges_on_ring(ring_three):
    # nonreversible three-state chain: the decomposition has nine pairs with
    # three-dimensional block laws and must still converge
    t0 = 1.0
    oracle = br.build_oracle(ring_three, t0, "occupation", 20_000, seed=7)
    rho = br.ProbVector([0.5, 0.3, 0.2])
    res = br.infconv_dvg(rho, oracle)
    assert res.converged
    assert res.feasible
    assert res.decrement < 1e-6
    assert res.certificate == 0.0
    assert res.theta.weights.min() > 0
    assert res.value / t0 == pytest.approx(br.dvg_rate(rho, ring_three).value, abs=0.01)


def test_infconv_dvg_rejects_flux_oracle(symmetric_two):
    flux_oracle = br.build_oracle(symmetric_two, 0.5, "flux", 200, seed=1)
    with pytest.raises(ValueError):
        br.infconv_dvg(np.array([0.7, 0.3]), flux_oracle)


def test_infconv_dvg_rejects_bad_shape(symmetric_two, occ_oracle):
    with pytest.raises(ValueError):
        br.infconv_dvg(np.array([0.5, 0.3, 0.2]), occ_oracle)


def test_infconv_bfg_flags_broken_divergence(symmetric_two):
    oracle = br.build_oracle(symmetric_two, 1.0, "flux", 500, seed=3)
    res = br.infconv_bfg(
        np.array([0.5, 0.5]), np.array([[0.0, 1.0], [0.2, 0.0]]), oracle
    )
    assert not res.feasible
    assert res.value == math.inf


def test_infconv_dvg_flags_target_off_the_simplex(symmetric_two, occ_oracle):
    res = br.infconv_dvg(np.array([0.71, 0.3]), occ_oracle)
    assert not res.feasible
    assert res.value == math.inf


@pytest.mark.parametrize("rho, j, error", [
    ([np.nan, 0.5], None, ValueError),
    ([np.inf, 0.0], None, ValueError),
    ([0.5, 0.5], [[0.0, np.inf], [1.0, 0.0]], ValueError),
    ([0.5, np.nan], [[0.0, 1.0], [1.0, 0.0]], ValueError),
    ([0.5, 0.5], [[0.0, -0.1], [-0.1, 0.0]], br.NegativeInput),
], ids=["nan-rho", "inf-rho", "inf-flux", "nan-flux-rho", "negative-flux"])
def test_infconv_rejects_bad_targets_before_solving(symmetric_two, monkeypatch, rho, j, error):
    # typed errors as bfg_rate raises them, not an infeasible verdict or a
    # NonConvergence from a solve on a meaningless target
    mode = "occupation" if j is None else "flux"
    oracle = br.build_oracle(symmetric_two, 0.5, mode, 200, seed=1)

    def no_solve(*args, **kwargs):
        raise AssertionError("conjugate solve on a bad target")

    monkeypatch.setattr(estimate, "conjugate_at", no_solve)
    with pytest.raises(error) as info:
        if j is None:
            br.infconv_dvg(np.array(rho), oracle)
        else:
            br.infconv_bfg(np.array(rho), np.array(j), oracle)
    assert type(info.value) is error


@pytest.mark.parametrize("t0, n_samples", [(0.5, 5000), (1.0, 5000), (0.5, 20_000)])
@pytest.mark.parametrize("seed", [3, 7])
def test_infconv_bfg_zero_flux_fails_typed_or_converges(symmetric_two, t0, n_samples, seed):
    # zero flux is a valid target (the joint rate is the total exit rate,
    # 1.0) whose optimal decomposition puts no weight on the jumping pairs;
    # the Newton method must not crash untyped or call it unreachable
    oracle = br.build_oracle(symmetric_two, t0, "flux", n_samples, seed)
    rho, j = br.ProbVector([0.5, 0.5]), np.zeros((2, 2))
    assert br.bfg_rate(rho, j, symmetric_two) == pytest.approx(1.0)
    try:
        res = br.infconv_bfg(rho, j, oracle)
    except br.NonConvergence as exc:
        assert "decomposition Newton step" in str(exc)
        return
    assert res.feasible
    assert res.converged
    assert res.value / t0 == pytest.approx(1.0, abs=0.02)


def test_infconv_dvg_solves_short_window(ring_three):
    # a window of t0 = 0.02 puts nearly all block mass on the diagonal pairs;
    # the decomposition must still reach the occupation rate
    t0 = 0.02
    rho = br.ProbVector([0.5, 0.3, 0.2])
    oracle = br.build_oracle(ring_three, t0, "occupation", 20_000, seed=7)
    res = br.infconv_dvg(rho, oracle)
    assert res.converged
    assert res.feasible
    assert abs(res.value / t0 - br.dvg_rate(rho, ring_three).value) <= 1e-3


def test_infconv_dvg_boundary_rates_config():
    # the shipped boundary target has a zero occupation entry
    cfg = json.loads((REPO / "scripts" / "configs" / "boundary_rates.json").read_text())
    Q = br.validate_generator(cfg["generator"])
    rho = br.ProbVector(cfg["rho"])
    t0 = 0.5
    oracle = br.build_oracle(Q, t0, "occupation", 20_000, seed=7)
    res = br.infconv_dvg(rho, oracle)
    assert res.converged
    assert res.feasible
    assert res.value / t0 == pytest.approx(br.dvg_rate(rho, Q).value, abs=0.01)


@pytest.mark.parametrize("chain, mode, t0", [
    ("ring", "occupation", 1.0),
    ("ring", "flux", 0.5),
    ("random4", "flux", 0.5),
], ids=["occupation-1.0", "flux-0.5", "random4-flux-0.5"])
def test_pair_chain_derivatives_match_finite_differences(ring_three, chain, mode, t0):
    Q = ring_three if chain == "ring" else random_generator(np.random.default_rng(11), 4)
    oracle = br.build_oracle(Q, t0, mode, 3000, seed=5)
    assert oracle.d == (Q.n_states if mode == "occupation" else Q.n_states * (Q.n_states + 1))
    lam = np.random.default_rng(9).normal(size=oracle.d)
    _, grad, hess = oracle._moments(lam)
    # theta = pi_x K_xy has equal marginals only if pi = 1^T Z / n is stationary for K
    theta = oracle.tilt(lam)[3]
    assert np.abs(theta.sum(axis=1) - theta.sum(axis=0)).max() <= 1e-12
    h = 1e-5
    fd_grad = np.empty(oracle.d)
    fd_hess = np.empty((oracle.d, oracle.d))
    for i, step in enumerate(h * np.eye(oracle.d)):
        up, grad_up, _ = oracle._moments(lam + step)
        down, grad_down, _ = oracle._moments(lam - step)
        fd_grad[i] = (up - down) / (2 * h)
        fd_hess[i] = (grad_up - grad_down) / (2 * h)
    assert np.abs(fd_grad - grad).max() <= 1e-8
    assert np.abs(fd_hess - hess).max() <= 1e-7 * max(1.0, np.abs(hess).max())


def test_each_tilted_chain_evaluation_makes_one_eigensolve(ring_three, monkeypatch):
    oracle = br.build_oracle(ring_three, 0.5, "occupation", 500, seed=5)
    calls = []
    eig = np.linalg.eig

    def spy(matrix):
        calls.append(matrix.shape)
        return eig(matrix)

    monkeypatch.setattr(np.linalg, "eig", spy)
    res = br.infconv_dvg(np.array([0.5, 0.3, 0.2]), oracle)
    assert res.iterations == oracle.evaluations >= 2
    assert calls == [(3, 3)] * res.iterations


def _gap_case(name, symmetric_two, ring_three):
    sym_flux = np.array([[0.0, 1.0], [1.0, 0.0]])
    # a divergence-free cycle flux, 0.4 forward and 0.2 back on every edge
    ring_flux = np.zeros((3, 3))
    ring_flux[[0, 1, 2], [1, 2, 0]] = 0.4
    ring_flux[[1, 2, 0], [0, 1, 2]] = 0.2
    ring_rho = np.array([0.5, 0.3, 0.2])
    return {
        "sym2-occupation": (symmetric_two, np.array([0.7, 0.3]), None),
        "sym2-flux": (symmetric_two, np.array([0.5, 0.5]), sym_flux),
        "ring-occupation": (ring_three, ring_rho, None),
        "ring-flux": (ring_three, ring_rho, ring_flux),
        "random4-occupation": (random_generator(np.random.default_rng(11), 4),
                               np.array([0.1, 0.2, 0.3, 0.4]), None),
    }[name]


@pytest.mark.parametrize("case", ["sym2-occupation", "sym2-flux", "ring-occupation",
                                  "ring-flux", "random4-occupation"])
def test_infconv_primal_dual_gap(symmetric_two, ring_three, case):
    # the tilted chain's (k, theta) is a primal point whose composite rate
    # equals the dual value
    Q, rho, j = _gap_case(case, symmetric_two, ring_three)
    t0 = 0.5
    if j is None:
        oracle = br.build_oracle(Q, t0, "occupation", 3000, seed=3)
        res = br.infconv_dvg(rho, oracle)
        target = rho
    else:
        oracle = br.build_oracle(Q, t0, "flux", 3000, seed=3)
        res = br.infconv_bfg(rho, j, oracle)
        target = np.concatenate([rho, j.ravel()])
    assert res.feasible
    assert np.allclose(res.k.total(), target, rtol=0.0, atol=1e-9)
    primal = br.theorem_rate(res.k, res.theta, oracle)
    assert primal == pytest.approx(res.value, rel=0.0, abs=1e-9 * max(1.0, abs(res.value)))


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


@pytest.mark.parametrize("scale", [1e3, 1e4, 1e5, 1e6])
def test_contract_certified_at_large_rates(scale):
    # the contraction's flux is divergence free to rounding of each state's
    # flows; an absolute divergence test rejected it on 4 / 56 / 93 of these
    # 100 chains at rates 1e3 / 1e4 / 1e5
    for Q, rho in scaled_sweep_chains(100):
        out = br.contract_dvg_from_bfg(rho, br.validate_generator(scale * Q.rates))
        assert math.isfinite(out.value)
        assert abs(out.gap) <= 1e-12 * max(1.0, out.value)


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
    ball = br.ball_rate(symmetric_two, np.array([0.5, 0.5]), 0.05)
    assert ball.value == pytest.approx(0.0, abs=1e-10)


def test_ball_rate_frozen_reference(symmetric_two):
    ball = br.ball_rate(symmetric_two, np.array([0.7, 0.3]), 0.03)
    rho = ball.minimizer
    assert ball.value == pytest.approx(BALL_73_003, abs=1e-6)
    # minimizer sits inside the ball, on the invariant-measure side
    assert np.abs(rho - np.array([0.7, 0.3])).sum() <= 0.03 + 1e-8
    assert rho.sum() == pytest.approx(1.0, abs=1e-10)
    assert rho[0] < 0.7


def _lattice_min(Q, center, epsilon, k):
    """Least rate over the 3-state simplex lattice of spacing 1 / k inside the ball."""
    points = (np.array([i, j, k - i - j]) / k for i in range(k + 1) for j in range(k + 1 - i))
    return min(br.dvg_rate(rho, Q).value for rho in points if np.abs(rho - center).sum() <= epsilon)


@pytest.mark.parametrize("center, epsilon, k, certified", [
    ((0.6, 0.4, 0.0), 0.5, 40, 0.0077244),
    ((1.0, 0.0, 0.0), 0.1, 200, 0.825688),
])
def test_ball_rate_boundary_center_on_ring(center, epsilon, k, certified):
    # centers with zero entries, where SLSQP returned 0.70334 (the rate at
    # the center itself) and 1.01235
    Q = br.validate_generator(RING3)
    center = np.array(center)
    ball = br.ball_rate(Q, center, epsilon)
    assert ball.gap <= 1e-10
    assert ball.value <= _lattice_min(Q, center, epsilon, k)
    assert ball.value == pytest.approx(certified, abs=1e-6)


@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 6), zeros=st.booleans(),
       epsilon=st.floats(0.0, 0.3, exclude_min=True))
def test_ball_rate_certified_properties(seed, n, zeros, epsilon):
    rng = np.random.default_rng(seed)
    Q = random_generator(rng, n)
    center = rng.dirichlet(np.ones(n))
    if zeros:
        center[rng.choice(n, int(rng.integers(1, n)), replace=False)] = 0.0
        center /= center.sum()
    if epsilon < BALL_MIN_EPSILON:
        with pytest.raises(ValueError):
            br.ball_rate(Q, center, epsilon)
        return
    ball = br.ball_rate(Q, center, epsilon)
    rho = ball.minimizer
    assert abs(rho.sum() - 1.0) <= 1e-12
    assert rho.min() >= 0.0
    # 2 EPS: the rounding of center + d, which no radius can go below
    assert np.abs(rho - center).sum() <= epsilon * (1.0 + 1e-12) + 2 * EPS
    assert ball.gap <= 1e-10 * max(1.0, ball.value)
    assert ball.value <= br.dvg_rate(center, Q).value + 4 * EPS * max(1.0, ball.value)
    if n == 2:
        # closed form at the center moved epsilon / 2 towards pi, or at pi
        a, b = Q.rates[0, 1], Q.rates[1, 0]
        shift = np.clip(b / (a + b) - center[0], -epsilon / 2, epsilon / 2)
        rho0, rho1 = center[0] + shift, center[1] - shift
        want = (a * rho0 - b * rho1) ** 2 / (math.sqrt(a * rho0) + math.sqrt(b * rho1)) ** 2
        # abs: a * rho0 - b * rho1 carries a rounding error near 1e-16, so
        # below a value of 1e-8 the closed form itself is off by more than
        # 1e-12 relative (by far less than 1e-18 absolute); and pi is known
        # to rounding, so on the ball's edge the value may read 0
        assert ball.value == pytest.approx(want, rel=1e-12, abs=1e-18)


def test_ball_rate_certifies_random_chains():
    rng = np.random.default_rng(2026)
    evaluations = []
    for case in range(200):
        n = 2 + case % 7
        Q = random_generator(rng, n)
        center = rng.dirichlet(np.ones(n))
        if case % 2 and n > 2:
            center[rng.integers(n)] = 0.0
            center /= center.sum()
        epsilon = float(rng.uniform(0.01, 0.3))
        ball = br.ball_rate(Q, center, epsilon)
        assert ball.gap <= 1e-12 * max(1.0, ball.value), (case, ball)
        assert np.abs(ball.minimizer - center).sum() <= epsilon * (1.0 + 1e-12) + 2 * EPS
        assert ball.value <= br.dvg_rate(center, Q).value
        evaluations.append(ball.iterations)
    # a few Newton steps each: 10 rate evaluations at most on this set
    assert max(evaluations) <= 20, evaluations


# Sparse chains with rates over four decades (off-diagonal rates; center
# e_vertex), whose minimizers put masses from 1e-19 to 1e-12 on some
# states. The gradient there is right only if dvg_rate converges each
# state's potential relative to that state's own flows (an absolute
# gradient tolerance left them off by orders of magnitude); the second
# chain also needs the Laplacian's gauge fixed at a heavy state.
STIFF_SPARSE = [
    ([[0.0, 0.0831, 1.0, 71.1, 90.5, 0.0],
      [0.0, 0.0, 21.8, 0.0, 0.0, 0.254],
      [0.0, 0.308, 0.0, 0.0, 0.0, 0.0],
      [35.3, 0.0631, 0.0, 0.0, 0.285, 0.0],
      [46.3, 0.0, 0.47, 0.0, 0.0, 0.0],
      [0.111, 29.6, 39.5, 0.0219, 0.119, 0.0]], 3, 0.0159),
    ([[0.0, 0.287, 0.0, 0.0, 0.0, 0.0],
      [0.0499, 0.0, 0.525, 5.67, 0.0126, 1.58],
      [0.0, 0.0, 0.0, 0.0, 67.7, 0.0],
      [0.0453, 0.0, 0.0129, 0.0, 3.08, 84.6],
      [0.0, 0.0, 9.55, 0.0175, 0.0, 0.0],
      [0.0, 0.0378, 0.0, 0.259, 0.0, 0.0]], 2, 3.63e-4),
    ([[0.0, 6.24, 0.0, 0.0, 21.7, 0.0],
      [8.93, 0.0, 0.0, 0.0103, 0.0, 0.0],
      [0.214, 0.0, 0.0, 0.0, 0.0, 0.0],
      [0.0776, 0.0897, 0.0, 0.0, 3.06, 0.0],
      [5.88, 0.0663, 0.0, 0.092, 0.0, 0.607],
      [0.0, 0.0, 0.0589, 12.7, 0.0, 0.0]], 1, 1.08e-3),
    ([[0.0, 0.0, 0.0, 89.1, 0.0, 0.0],
      [0.0, 0.0, 0.0, 0.0, 0.0131, 0.0],
      [2.39, 0.0115, 0.0, 0.284, 0.262, 5.73],
      [0.0, 7.47, 0.0, 0.0, 0.0, 8.89],
      [0.0, 1.19, 0.04, 0.0, 0.0, 0.0],
      [0.0742, 0.1, 95.1, 28.6, 0.0152, 0.0]], 2, 2.57e-3),
]


@pytest.mark.parametrize("rates, vertex, epsilon", STIFF_SPARSE)
def test_ball_rate_certifies_stiff_sparse_chains(rates, vertex, epsilon):
    rates = np.array(rates)
    np.fill_diagonal(rates, -rates.sum(axis=1))
    center = np.eye(rates.shape[0])[vertex]
    ball = br.ball_rate(br.validate_generator(rates), center, epsilon)
    assert ball.gap <= 1e-12 * max(1.0, ball.value)
    assert np.abs(ball.minimizer - center).sum() <= epsilon * (1.0 + 1e-12) + 2 * EPS
    assert ball.minimizer.min() < 1e-11


def test_ball_rate_at_the_smallest_radius():
    # epsilon at the floor with two empty states: their masses of order
    # 1e-12 have curvature 1e9 times the others', and a face basis pivoted
    # on one of them leaves the Newton system singular to working precision
    rates = np.array([[0.0, 0.318, 0.376, 1.88, 1.5],
                      [0.737, 0.0, 1.78, 1.56, 1.65],
                      [1.54, 1.6, 0.0, 1.1, 1.45],
                      [0.239, 0.84, 0.86, 0.0, 0.6],
                      [1.61, 1.7, 1.13, 0.97, 0.0]])
    np.fill_diagonal(rates, -rates.sum(axis=1))
    Q = br.validate_generator(rates)
    center = np.array([0.776, 0.0, 0.0, 0.136, 0.088])
    for epsilon in (BALL_MIN_EPSILON, 2e-12, 5e-12):
        ball = br.ball_rate(Q, center, epsilon)
        assert ball.gap <= 1e-12 * max(1.0, ball.value)
        assert ball.value < br.dvg_rate(center, Q).value


def test_ball_rate_validates_inputs(symmetric_two):
    for center in ([0.5, 0.3, 0.2], [1.2, -0.2], [0.5, 0.4], [math.nan, 1.0]):
        with pytest.raises(ValueError):
            br.ball_rate(symmetric_two, np.array(center), 0.1)
    for epsilon in (0.0, -0.1, math.inf, math.nan, 1e-13):
        with pytest.raises(ValueError):
            br.ball_rate(symmetric_two, np.array([0.7, 0.3]), epsilon)


def test_mc_decay_validations(symmetric_two):
    target = np.array([0.7, 0.3])
    with pytest.raises(ValueError):
        br.mc_decay_rate(symmetric_two, target, 0.1, (10,), 1000, 0)
    with pytest.raises(ValueError):
        br.mc_decay_rate(symmetric_two, target, -0.1, (10, 20), 1000, 0)
    with pytest.raises(ValueError):
        br.mc_decay_rate(symmetric_two, target, 0.1, (20, 10), 1000, 0)


@pytest.mark.parametrize("kwargs, message", [
    ({"n_grid": (-5, 10)}, "positive"),
    ({"n_grid": (0, 10)}, "positive"),
    ({"target": [[0.4, 0.1], [0.1, 0.4]]}, "shape"),
    ({"n_paths": 0}, "n_paths"),
    ({"n_paths": 1000.0}, "n_paths"),
    ({"epsilon": math.nan}, "epsilon"),
    ({"epsilon": math.inf}, "epsilon"),
    ({"n_paths": True}, "n_paths"),
    ({"epsilon": True}, "epsilon"),
    ({"n_grid": (4, math.inf)}, "finite"),
], ids=["negative-T", "zero-T", "occupation-target-2d", "zero-paths", "float-paths",
        "nan-epsilon", "inf-epsilon", "bool-paths", "bool-epsilon", "inf-T"])
def test_mc_decay_rejects_bad_input_before_simulating(symmetric_two, monkeypatch, kwargs, message):
    def no_simulation(*args, **kw):
        raise AssertionError("simulated before validating")

    monkeypatch.setattr(br.simulate, "_batch_step", no_simulation)
    monkeypatch.setattr(br.estimate, "batch_occupations", no_simulation)
    call = {"target": [0.7, 0.3], "n_grid": (4, 6), **kwargs}
    with pytest.raises(ValueError, match=message):
        br.mc_decay_rate(symmetric_two, call["target"], call.get("epsilon", 0.1),
                         call["n_grid"], call.get("n_paths", 1000), 0)


@pytest.mark.parametrize("target", [np.array([0.6, 0.4])], ids=["occupation"])
def test_mc_hits_on_a_grid_prefix_do_not_see_later_points(symmetric_two, monkeypatch, target):
    # each path is simulated once across the grid, so shortening the grid
    # leaves the hits at the points it keeps unchanged; a small batch size
    # runs several batch streams
    monkeypatch.setattr(br.estimate, "MC_BATCH", 1500)
    epsilon = 0.1
    init = br.invariant_measure(symmetric_two)
    full = _count_hits(symmetric_two, np.array([40.0, 60.0, 80.0, 100.0]), target, epsilon,
                       4000, 5, init)
    prefix = _count_hits(symmetric_two, np.array([40.0, 60.0]), target, epsilon, 4000, 5, init)
    assert np.array_equal(full[:2], prefix)
    assert np.all(full > 0)


def test_mc_hits_on_the_bench_shape_are_pinned(symmetric_two):
    # the mc-verify shape of the rates-mc benchmark: two batches of 50 000
    # paths from the streams keyed (7, 0) and (7, 1) (numpy 2.4's generator)
    hits = _count_hits(symmetric_two, np.array([40.0, 60.0, 80.0, 100.0]), np.array([0.7, 0.3]),
                       0.03, 100_000, 7, br.invariant_measure(symmetric_two))
    assert hits.tolist() == [614, 161, 44, 11]


def test_mc_batch_step_keeps_a_small_working_set(symmetric_two):
    # the bench-shaped fit: two batches of 50 000 paths over four horizons;
    # the (paths, G, n) occupations of one batch take 3.2 MB, and the
    # lockstep walk adds byte-sized counters and chunk-sized scratch; a
    # small fit first warms the lazy imports and caches of a first call
    br.mc_decay_rate(symmetric_two, [0.7, 0.3], 0.1, [4, 6], 2000, 7)
    tracemalloc.start()
    try:
        fit = br.mc_decay_rate(symmetric_two, [0.7, 0.3], 0.03, [40, 60, 80, 100], 100_000, 7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert fit.hits.tolist() == [614, 161, 44, 11]
    assert peak <= 5.5e6


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
    ref = br.ball_rate(symmetric_two, np.array([0.7, 0.3]), 0.05).value
    assert fit.slope > 0
    assert 0.5 * ref < fit.slope < 2.0 * ref
    probs = fit.probabilities()
    assert probs.shape == (3,)
    assert np.all(np.diff(fit.neg_log_prob) > 0)
