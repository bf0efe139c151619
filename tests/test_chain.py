import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import bridgerates as br
from conftest import random_generator

P11_HALF = 0.6839397205857212
P12_HALF = 0.31606027941427883


def test_validate_generator_accepts_well_formed(symmetric_two):
    assert symmetric_two.n_states == 2
    assert np.allclose(symmetric_two.rates.sum(axis=1), 0.0)


def test_validate_generator_rejects_nonzero_row_sum():
    with pytest.raises(br.NonZeroRowSum):
        br.validate_generator([[-1.0, 0.5], [1.0, -1.0]])


def test_validate_generator_rejects_negative_off_diagonal():
    with pytest.raises(br.NegativeOffDiagonal):
        br.validate_generator([[1.0, -1.0], [1.0, -1.0]])


def test_reducible_chain_has_no_invariant():
    # two disconnected blocks pass structural validation but have no
    # unique invariant measure
    Q = br.validate_generator(
        [
            [-1.0, 1.0, 0.0, 0.0],
            [1.0, -1.0, 0.0, 0.0],
            [0.0, 0.0, -1.0, 1.0],
            [0.0, 0.0, 1.0, -1.0],
        ]
    )
    assert not br.is_irreducible(Q)
    with pytest.raises(br.Reducible):
        br.invariant_measure(Q)


def test_validate_generator_rejects_non_square():
    with pytest.raises(br.ChainError):
        br.validate_generator([[-1.0, 1.0, 0.0], [1.0, -1.0, 0.0]])


def test_prob_vector_rejects_non_simplex():
    with pytest.raises(br.ChainError):
        br.ProbVector([0.5, 0.6])
    with pytest.raises(br.ChainError):
        br.ProbVector([1.2, -0.2])


def test_transition_at_symmetric_half(symmetric_two):
    P = br.transition_at(symmetric_two, 0.5)
    assert P.probs[0, 0] == pytest.approx(P11_HALF, abs=1e-12)
    assert P.probs[0, 1] == pytest.approx(P12_HALF, abs=1e-12)
    # symmetric chain: the kernel is symmetric too
    assert np.allclose(P.probs, P.probs.T)


@pytest.mark.parametrize("t", [math.inf, math.nan])
def test_transition_at_rejects_nonfinite_horizon(symmetric_two, t):
    with pytest.raises(br.ChainError):
        br.transition_at(symmetric_two, t)
    with pytest.raises(br.ChainError):
        br.BridgeSpec(symmetric_two, 0, 1, t)


def test_transition_rows_are_distributions(ring_three):
    for t in (0.1, 0.5, 1.0, 3.0):
        P = br.transition_at(ring_three, t)
        assert np.all(P.probs >= 0)
        assert np.allclose(P.probs.sum(axis=1), 1.0, atol=1e-12)


def test_transition_semigroup(ring_three):
    Ps = br.transition_at(ring_three, 0.4).probs
    Pt = br.transition_at(ring_three, 0.9).probs
    Pst = br.transition_at(ring_three, 1.3).probs
    assert np.allclose(Ps @ Pt, Pst, atol=1e-10)


def test_transition_at_long_horizon_stays_stochastic():
    # stiff 5-state chain (exit rates 0.7 to 1067): lam t = 3.2e6, so the
    # kernel comes from 14 squarings, each of which doubles the row-sum error
    Q = br.validate_generator([
        [-0.7185251108372157, 0.0, 0.31394547417447305, 0.13326735207687695, 0.27131228458586565],
        [4.359100360165022, -1066.8687766005987, 1057.5122300061523, 0.0, 4.997446234281306],
        [0.0, 0.0, -17.22922507825118, 1.10161209686821, 16.12761298138297],
        [0.022231475848172318, 1.291616930789757, 0.0, -8.978989542125905, 7.665141135487976],
        [4.435280070998697, 0.3433538230918629, 0.0, 0.22959266808975362, -5.0082265621803135],
    ])
    P = br.transition_at(Q, 3000.0).probs
    assert np.abs(P.sum(axis=1) - 1.0).max() <= 1e-14
    assert np.abs(P - br.invariant_measure(Q).weights).max() <= 1e-12


def test_invariant_measure_known_two_state():
    Q = br.validate_generator([[-2.0, 2.0], [1.0, -1.0]])
    pi = br.invariant_measure(Q)
    assert np.allclose(pi.weights, [1.0 / 3.0, 2.0 / 3.0], atol=1e-12)


def test_invariant_measure_is_stationary(ring_three):
    pi = br.invariant_measure(ring_three).weights
    assert np.allclose(pi @ ring_three.rates, 0.0, atol=1e-10)
    P = br.transition_at(ring_three, 0.7)
    assert np.allclose(pi @ P.probs, pi, atol=1e-10)


def test_stiff_chain_invariant_measure_scales_with_its_rates():
    # scripts/configs/stiff_rates.json's generator times 100: at rates near
    # 1e6 rounding alone leaves |pi Q| near 1e-10, which an absolute residual
    # bound refused; scaling the rates leaves pi unchanged and scales the ball rate
    stiff = np.array([[-31752.0, 15887.7, 15864.3], [3410.7, -21527.6, 18116.9],
                      [17829.8, 5700.3, -23530.1]])
    rho = [0.4835, 0.0031, 0.5134]
    Q, Q100 = br.validate_generator(stiff), br.validate_generator(100.0 * stiff)
    assert np.array_equal(br.invariant_measure(Q100).weights, br.invariant_measure(Q).weights)
    ball, ball100 = br.ball_rate(Q, rho, 0.05), br.ball_rate(Q100, rho, 0.05)
    assert abs(ball100.value - 100.0 * ball.value) <= 1e-12 * ball100.value
    assert abs(ball100.gap) <= 1e-12 * ball100.value


def test_dtmc_invariant_fixed_point(ring_three):
    P = br.transition_at(ring_three, 1.0)
    r = br.dtmc_invariant(P).weights
    assert np.allclose(r @ P.probs, r, atol=1e-10)
    assert r.sum() == pytest.approx(1.0)


def test_is_irreducible(symmetric_two):
    assert br.is_irreducible(symmetric_two)
    assert br.is_irreducible(br.transition_at(symmetric_two, 1.0))


def test_exit_rates(lopsided_two):
    assert np.allclose(lopsided_two.exit_rates, [2.0, 1.0])


@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 5))
def test_random_generator_invariant_properties(seed, n):
    rng = np.random.default_rng(seed)
    Q = random_generator(rng, n)
    pi = br.invariant_measure(Q).weights
    assert np.all(pi > 0)
    assert pi.sum() == pytest.approx(1.0)
    assert np.allclose(pi @ Q.rates, 0.0, atol=1e-9)


@given(seed=st.integers(0, 2**32 - 1), t=st.floats(0.05, 5.0))
def test_random_transition_stochastic(seed, t):
    rng = np.random.default_rng(seed)
    Q = random_generator(rng, 3)
    P = br.transition_at(Q, t)
    assert np.all(P.probs >= -1e-14)
    assert np.allclose(P.probs.sum(axis=1), 1.0, atol=1e-10)


# Runs in a fresh interpreter: the support splits (strongly connected
# components) behind these calls must not load numpy.ma, which numpy imports
# lazily on the first np.unique call.
NO_MASKED_CHILD = r"""
import json, sys
import bridgerates as br
Q = br.validate_generator([[-2.0, 1.0, 1.0], [0.5, -1.0, 0.5], [1.0, 1.0, -2.0]])
loaded = ["numpy.ma" in sys.modules]
br.dvg_rate([0.5, 0.5, 0.0], Q)
br.invariant_measure(Q)
br.contract_dvg_from_bfg([0.2, 0.3, 0.5], Q)
loaded.append("numpy.ma" in sys.modules)
print(json.dumps(loaded))
"""


def test_support_splits_do_not_import_numpy_ma():
    src = str(Path(br.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", NO_MASKED_CHILD], capture_output=True, text=True,
                          env=env, timeout=120, check=True)
    assert json.loads(done.stdout.strip().splitlines()[-1]) == [False, False]


SYM = br.validate_generator([[-1.0, 1.0], [1.0, -1.0]])


@pytest.mark.parametrize("call, word, is_time", [
    (lambda: br.flux_mgf_bound(SYM, 1.0, 0.5, 1.0), "end state y", False),
    (lambda: br.flux_mgf_bound(SYM, True, 0.5, 1.0), "end state y", False),
    (lambda: br.flux_mgf_bound(SYM, 1, math.nan, 1.0), "t0", True),
    (lambda: br.batch_occupations(SYM, 1.0, 0, np.random.default_rng(0), 0), "n_paths", False),
    (lambda: br.batch_occupations(SYM, 1.0, 2.5, np.random.default_rng(0), 0), "n_paths",
     False),
    (lambda: br.conditional_samples(br.BridgeSpec(SYM, 0, 1, 0.5), "flux", 10, True), "seed",
     False),
    (lambda: br.conditional_samples(br.BridgeSpec(SYM, 0, 1, 0.5), "flux", 10, 1.5), "seed",
     False),
    (lambda: br.conditional_samples(br.BridgeSpec(SYM, 0, 1, 0.5), "flux", 10, -1), "seed",
     False),
    (lambda: br.mc_decay_rate(SYM, [0.7, 0.3], 0.1, (4, 6), 1000, True), "seed", False),
    (lambda: br.BridgeSpec(SYM, 0, 1, -1.0), "t0", True),
    (lambda: br.BridgeSpec(SYM, 0, 1, math.nan), "t0", True),
    (lambda: br.ball_rate(SYM, [0.7, 0.3], True), "epsilon", False),
    (lambda: br.bfg_rate([0.5, 0.3, 0.2], np.zeros((2, 2)), SYM), "rho", False),
], ids=["mgf-float-y", "mgf-bool-y", "mgf-nan-t0", "occupations-zero-paths",
        "occupations-float-paths", "bridge-bool-seed", "bridge-float-seed",
        "bridge-negative-seed", "mc-bool-seed", "spec-negative-t0",
        "spec-nan-t0", "ball-bool-epsilon", "bfg-rho-size"])
def test_every_bad_input_is_a_value_error_that_names_it(call, word, is_time):
    # a bad time is a ChainError, and ChainError is a ValueError like every
    # other refusal, so one except clause catches every bad input
    with pytest.raises(ValueError, match=word) as refused:
        call()
    assert isinstance(refused.value, br.ChainError) == is_time


SPEC = br.BridgeSpec(SYM, 0, 1, 1.0)


@pytest.mark.parametrize("call, word", [
    (lambda: br.bridge_transition_row(SPEC, 0, False, True), "s"),
    (lambda: br.bridge_generator(SPEC, 0, 1, False), "t"),
    (lambda: br.flux_mgf_bound(SYM, 1, 0.5, True), "s"),
    (lambda: br.batch_occupations(SYM, True, 10, np.random.default_rng(0), 0), "horizon"),
    (lambda: br.mc_decay_rate(SYM, [0.7, 0.3], 0.1, (True, 6), 2000, 0), "n_grid"),
], ids=["bridge-row-times", "bridge-generator-time", "mgf-s", "occupations-horizon",
        "mc-grid-point"])
def test_time_arguments_refuse_bools(call, word):
    # True and False used to pass as the times 1 and 0
    with pytest.raises(ValueError, match=word):
        call()
