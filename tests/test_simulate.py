import hashlib
import math

import numpy as np
import pytest

import bridgerates as br
from bridgerates.estimate import _ball_distances
from bridgerates.simulate import _batch_step, _blocks, _start_states
from conftest import random_generator


def test_batch_occupations_rows_are_distributions(symmetric_two):
    # horizon long enough that the fixed-start bias (~1/(2 t)) is small
    occ = br.batch_occupations(symmetric_two, 30.0, 500, np.random.default_rng(8), 0)
    assert occ.shape == (500, 2)
    assert np.allclose(occ.sum(axis=1), 1.0, atol=1e-10)
    pi = br.invariant_measure(symmetric_two).weights
    assert np.abs(occ.mean(axis=0) - pi).max() < 0.05


def test_batch_occupations_init_distribution(ring_three):
    init = br.invariant_measure(ring_three)
    occ = br.batch_occupations(ring_three, 2.0, 400, np.random.default_rng(4), init)
    assert occ.shape == (400, 3)
    assert np.all(occ >= 0)


@pytest.mark.parametrize("init, digest", [
    (0, "bf0aa707bf775f4ddbfb26e10be35e5cc68a7d4a650e02e75420c826773652e9"),
    ("pi", "011f10205b6c2082aa9d3134a1f29d06a2ec424b1696a171fef910671ab6562f"),
], ids=["state", "pi"])
def test_batch_occupations_scalar_horizon_is_pinned(ring_three, init, digest):
    # a single horizon is the grid of one and draws exactly the stream it
    # drew before grids were accepted (digest of numpy 2.4's generator output)
    start = br.invariant_measure(ring_three) if init == "pi" else init
    occ = br.batch_occupations(ring_three, 2.5, 1000, np.random.default_rng(11), start)
    assert occ.shape == (1000, 3)
    assert hashlib.sha256(occ.tobytes()).hexdigest() == digest
    grid = br.batch_occupations(ring_three, [2.5], 1000, np.random.default_rng(11), start)
    assert grid.shape == (1000, 1, 3) and np.array_equal(grid[:, 0], occ)


def test_batch_occupations_grid_matches_independent_horizons(ring_three):
    # one path across the grid has, at each T, the law of a fresh path run
    # to T: means within 5 standard errors of independent scalar calls
    grid, count = (0.5, 2.0, 5.0), 20_000
    occ = br.batch_occupations(ring_three, grid, count, np.random.default_rng(21), 0)
    assert occ.shape == (count, 3, 3)
    assert np.allclose(occ.sum(axis=2), 1.0, atol=1e-12)
    assert occ.min() >= 0.0
    for col, horizon in enumerate(grid):
        ref = br.batch_occupations(ring_three, horizon, count, np.random.default_rng(22 + col), 0)
        se = np.sqrt((occ[:, col].var(axis=0) + ref.var(axis=0)) / count)
        assert np.all(np.abs(occ[:, col].mean(axis=0) - ref.mean(axis=0)) <= 5.0 * se)


def test_batch_occupations_grid_prefix_is_stable(ring_three):
    # the draws up to T_i do not depend on the grid points after it
    full = br.batch_occupations(ring_three, (1.0, 3.0, 4.0), 300, np.random.default_rng(2), 1)
    prefix = br.batch_occupations(ring_three, (1.0, 3.0), 300, np.random.default_rng(2), 1)
    assert np.array_equal(full[:, :2], prefix)


@pytest.mark.parametrize(
    "horizon", [0.0, -1.0, (1.0, 1.0), (2.0, 1.0), (0.0, 1.0), [], [[1.0]], math.inf,
                (1.0, math.inf), math.nan],
    ids=["zero", "negative", "repeated", "decreasing", "zero-first", "empty", "2d", "inf",
         "inf-last", "nan"])
def test_batch_occupations_rejects_bad_horizons(symmetric_two, horizon):
    with pytest.raises(ValueError, match="horizon"):
        br.batch_occupations(symmetric_two, horizon, 10, np.random.default_rng(0), 0)


@pytest.mark.parametrize("init", [-1, 2, True, 0.5])
def test_batch_samplers_reject_start_states_outside_the_chain(symmetric_two, init):
    with pytest.raises(ValueError, match="start state"):
        br.batch_occupations(symmetric_two, 1.0, 10, np.random.default_rng(0), init)


def _windows(Q, t0, states, n_windows, rng, want_flux):
    """End states and blocks of n_windows consecutive ``_batch_step`` windows."""
    ends, blocks = [], []
    for _ in range(n_windows):
        states, visits, jumps = _batch_step(Q, t0, states, rng, want_flux)
        ends.append(states.astype(np.int64))
        blocks.append(_blocks(visits, jumps, rng, t0))
    return np.stack(ends), np.stack(blocks)


@pytest.mark.parametrize("init", [0, "pi"])
def test_batch_pair_statistics_block_layout_agrees_across_modes(ring_three, init):
    # both modes of _batch_step take the same draws: the flux blocks extend
    # the occupation blocks by the jump counts, whose self-loop columns
    # stay zero
    n = 3
    start = br.invariant_measure(ring_three) if init == "pi" else init

    def run(want_flux):
        rng = np.random.default_rng(9)
        return _windows(ring_three, 0.25, _start_states(n, 300, rng, start), 5, rng, want_flux)

    ends_occ, occ = run(False)
    ends_flux, flux = run(True)
    assert flux.shape == (5, 300, n + n * n)
    assert np.array_equal(ends_occ, ends_flux)
    assert np.array_equal(occ, flux[..., :n])
    jumps = flux[..., n:].reshape(5, 300, n, n)
    assert np.all(jumps[..., np.arange(n), np.arange(n)] == 0.0)


class _TopUniform:
    """A generator whose uniforms are all the largest double below 1."""

    def __init__(self, seed):
        self._rng = np.random.default_rng(seed)

    def random(self, size=None):
        top = np.nextafter(1.0, 0.0)
        return top if size is None else np.full(size, top)

    def __getattr__(self, name):
        return getattr(self._rng, name)


def test_largest_uniform_picks_a_valid_next_state(ring_three):
    # the largest double below 1 must pick neither a state past the last
    # nor one of probability 0: in both chains the skeleton's row of state 2
    # reaches its total before its last entry, so such a draw moves to state 1
    rng = _TopUniform(1)
    ends, visits, jumps = _batch_step(ring_three, 5.0, np.full(200, 1), rng, want_flux=True)
    assert ends.min() >= 0 and ends.max() < 3
    assert np.allclose(_blocks(visits, jumps, rng, 5.0)[:, :3].sum(axis=1), 1.0)
    Q = br.validate_generator([[-0.2, 0.1, 0.1], [0.1, -0.2, 0.1], [0.1, 0.3, -0.4]])
    occ = br.batch_occupations(Q, 20.0, 200, _TopUniform(3), 2)
    assert occ[:, 1].max() > 0.0


def _exact_window_means(Q, x, horizon, nodes=96):
    """(1/T) int_0^T P_x.(s) ds and int_0^T P_xa(s) Q_ab ds by Gauss-Legendre."""
    z, w = np.polynomial.legendre.leggauss(nodes)
    s = 0.5 * horizon * (z + 1.0)
    w = 0.5 * horizon * w
    rows = np.array([br.transition_at(Q, si).probs[x] for si in s])
    occ = w @ rows / horizon
    jumps = (w @ rows)[:, None] * Q.rates * (1.0 - np.eye(Q.n_states))
    return occ, jumps


@pytest.mark.parametrize("chain, horizon", [
    ("ring_three", 0.25), ("ring_three", 40.0), ("spread_three", 2.0),
])
def test_batch_window_is_exact(request, chain, horizon):
    # end states, mean occupations and mean jump counts of the uniformized
    # sampler against the kernel, each within 5 standard errors
    Q = request.getfixturevalue(chain)
    n, count, x = Q.n_states, 20_000, 0
    rng = np.random.default_rng(17)
    states, visits, jumps = _batch_step(Q, horizon, np.full(count, x), rng, want_flux=True)
    ends = np.eye(n)[states]
    block = _blocks(visits, jumps, rng, horizon)
    occ, jumps = block[:, :n], block[:, n:].reshape(count, n, n) * horizon
    want_end = br.transition_at(Q, horizon).probs[x]
    se_end = np.sqrt(want_end * (1.0 - want_end) / count)
    assert np.all(np.abs(ends.mean(axis=0) - want_end) <= 5.0 * se_end + 1e-12)
    want_occ, want_jumps = _exact_window_means(Q, x, horizon)
    se_occ = occ.std(axis=0, ddof=1) / np.sqrt(count)
    assert np.all(np.abs(occ.mean(axis=0) - want_occ) <= 5.0 * se_occ + 1e-12)
    se_jumps = np.maximum(jumps.std(axis=0, ddof=1), np.sqrt(want_jumps)) / np.sqrt(count)
    assert np.all(np.abs(jumps.mean(axis=0) - want_jumps) <= 5.0 * se_jumps + 1e-12)
    # the skeleton's self-loops (every state but the fastest) are not jumps
    assert np.all(jumps[:, np.arange(n), np.arange(n)] == 0.0)


def test_batch_absorbing_state_samples_exactly():
    # state 1 cannot leave: occupation of state 0 is min(tau, T)/T with tau
    # a unit exponential, whose mean is (1 - e^-T)/T
    Q = br.GeneratorMatrix(np.array([[-1.0, 1.0], [0.0, 0.0]]))
    horizon, count = 2.0, 20_000
    occ = br.batch_occupations(Q, horizon, count, np.random.default_rng(6), 0)
    want = (1.0 - np.exp(-horizon)) / horizon
    se = occ[:, 0].std(ddof=1) / np.sqrt(count)
    assert abs(occ[:, 0].mean() - want) <= 5.0 * se
    assert np.array_equal(br.batch_occupations(Q, horizon, 10, np.random.default_rng(6), 1),
                          np.tile([0.0, 1.0], (10, 1)))
    frozen = br.GeneratorMatrix(np.zeros((2, 2)))
    assert np.array_equal(br.batch_occupations(frozen, horizon, 10, np.random.default_rng(6), 0),
                          np.tile([1.0, 0.0], (10, 1)))


def test_thirteen_state_batches_are_pinned():
    # states are kept in int8, where a * 13 + b wraps: the jump cells and
    # the bridge tables must still be read at the right index (digests of
    # numpy 2.4's generator output, as drawn with int64 states)
    Q = random_generator(np.random.default_rng(13), 13)

    def digest(array):
        return hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest()

    ends, blocks = _windows(Q, 0.4, np.full(500, 12), 3, np.random.default_rng(5), True)
    assert digest(ends) == "4567f1e6017aa7f244da45ac094a369de00c974dedb064e58d3bb34e3c0b0d11"
    assert digest(blocks) == "b1831eb16d2e8f9d5002aa8929d5db6c1dbaa680fd8e896816ea3b56f0d48ed0"
    law = br.conditional_samples(br.BridgeSpec(Q, 12, 11, 0.4), "flux", 500, seed=3)
    assert digest(law.atoms.T) == "9db4297f360b6ee0f7d1d559e08d388be01d6d1dbb5e4616a31ba6f2599f6185"


def test_chunk_size_leaves_every_draw_unchanged(ring_three, monkeypatch):
    # the lockstep walk and the gamma draws go CHUNK rows at a time; a
    # chunk of 7 rows splits every step and must draw the same numbers
    init = br.invariant_measure(ring_three)
    target = np.array([0.3, 0.3, 0.4])

    def draws():
        return [
            br.batch_occupations(ring_three, (1.0, 3.0), 400, np.random.default_rng(2), init),
            *_windows(ring_three, 0.7, np.full(400, 1), 3, np.random.default_rng(3), True),
            br.conditional_samples(br.BridgeSpec(ring_three, 0, 2, 2.0), "flux", 400, 4).samples,
            _ball_distances(ring_three, np.array([1.0, 2.0]), 400, np.random.default_rng(5), init,
                            target),
        ]

    default = draws()
    monkeypatch.setattr(br.simulate, "CHUNK", 7)
    monkeypatch.setattr(br.estimate, "CHUNK", 7)
    for got, want in zip(draws(), default, strict=True):
        assert np.array_equal(got, want)
