import hashlib
import math

import numpy as np
import pytest

import bridgerates as br
from bridgerates.simulate import _batch_step, _blocks
from conftest import time_reversed

P11_HALF = 0.6839397205857212
P12_HALF = 0.31606027941427883
GEN_RATIO_T0 = 2.163953413738653  # P11(0.5) / P12(0.5)


@pytest.fixture(scope="module")
def spec_half(symmetric_two):
    return br.BridgeSpec(symmetric_two, 0, 1, 0.5)


@pytest.fixture(scope="module")
def spec_one(symmetric_two):
    return br.BridgeSpec(symmetric_two, 0, 1, 1.0)


def test_bridge_rows_are_distributions(spec_one):
    for (s, t) in ((0.0, 0.3), (0.2, 0.8), (0.5, 0.999)):
        for a in range(2):
            row = br.bridge_transition_row(spec_one, a, s, t)
            assert np.all(row >= -1e-14)
            assert row.sum() == pytest.approx(1.0, abs=1e-12)


def test_bridge_hits_terminal_state(spec_one):
    # as t -> t0 the law collapses onto the conditioned endpoint
    for a in range(2):
        row = br.bridge_transition_row(spec_one, a, 0.1, 1.0 - 1e-9)
        assert row[1] == pytest.approx(1.0, abs=1e-6)


def test_bridge_chapman_kolmogorov(ring_three):
    spec = br.BridgeSpec(ring_three, 0, 2, 1.4)
    s, t, u = 0.2, 0.7, 1.1
    for a in range(3):
        direct = br.bridge_transition_row(spec, a, s, u)
        stepped = np.zeros(3)
        step = br.bridge_transition_row(spec, a, s, t)
        for c in range(3):
            stepped += step[c] * br.bridge_transition_row(spec, c, t, u)
        assert np.allclose(direct, stepped, atol=1e-10)


def test_bridge_generator_frozen_ratio(spec_half):
    # at time zero the conditioned 0 -> 1 rate is Q_01 P_11(t0)/P_01(t0)
    got = br.bridge_generator(spec_half, 0, 1, 0.0)
    assert got == pytest.approx(GEN_RATIO_T0, abs=1e-10)
    assert got == pytest.approx(P11_HALF / P12_HALF, abs=1e-12)


def test_bridge_generator_finite_difference(spec_one):
    # rows of the kernel differentiate to the inhomogeneous generator
    t, h = 0.35, 1e-6
    for a in range(2):
        row = br.bridge_transition_row(spec_one, a, t, t + h)
        for b in range(2):
            if a == b:
                continue
            fd = row[b] / h
            gen = br.bridge_generator(spec_one, a, b, t)
            assert fd == pytest.approx(gen, rel=1e-3)


def test_bridge_degenerate_at_terminal_time(spec_one):
    # at s = t0 a state other than the endpoint has no time left to reach it
    with pytest.raises(br.DegenerateDenominator):
        br.bridge_transition_row(spec_one, 0, spec_one.t0, spec_one.t0)


@pytest.mark.parametrize("name, state", [("x", True), ("x", 0.5), ("y", 3), ("a", -1), ("a", 3),
                                         ("a", True)],
                         ids=["bool-x", "float-x", "past-end-y", "negative-a", "past-end-a", "bool-a"])
def test_bridge_states_must_be_states_of_the_chain(ring_three, name, state):
    # unchecked, a negative a would index from the end and return another state's row
    states = {"x": 0, "y": 2, "a": 0, name: state}
    for call in (lambda spec, a: br.bridge_transition_row(spec, a, 0.2, 0.5),
                 lambda spec, a: br.bridge_generator(spec, a, 1, 0.2)):
        with pytest.raises(ValueError, match=f"bridge .*{name}"):
            call(br.BridgeSpec(ring_three, states["x"], states["y"], 1.0), states["a"])


def test_conditional_samples_deterministic(spec_one):
    a = br.conditional_samples(spec_one, "occupation", 64, seed=5)
    b = br.conditional_samples(spec_one, "occupation", 64, seed=5)
    assert np.array_equal(a.samples, b.samples)
    c = br.conditional_samples(spec_one, "occupation", 64, seed=6)
    assert not np.array_equal(a.samples, c.samples)


def test_conditional_samples_prefix_stable(spec_one):
    # the first k rows do not depend on how many samples were asked for
    for mode in ("occupation", "flux"):
        a = br.conditional_samples(spec_one, mode, 64, seed=5)
        b = br.conditional_samples(spec_one, mode, 96, seed=5)
        assert np.array_equal(a.samples, b.samples[:64])


@pytest.mark.parametrize("chain, t0, mode, n_samples, digest", [
    ("ring_three", 0.25, "occupation", 4000,
     "046502303d5b0a5a1556dd4f18823d8806a092e823ec1df37fcfe31590c9c022"),
    ("ring_three", 0.25, "flux", 4000,
     "73cddb7af4de04c2b8fba0a0268e4095fbf8aa8ae4346e7489c3c99800add759"),
    ("symmetric_two", 2.0, "occupation", 8000,
     "30dcf06e35676851b6a43ef4c5081a035d28273ab3d9edd78dbeee3848e09481"),
], ids=["ring-occupation", "ring-flux", "sym2-occupation"])
def test_conditional_samples_are_pinned(request, chain, t0, mode, n_samples, digest):
    # the (d, N) blocks of every pair, in pair order, hashed: the draws of
    # the skeleton and the spacings (digest of numpy 2.4's generator output)
    Q = request.getfixturevalue(chain)
    h = hashlib.sha256()
    for x in range(Q.n_states):
        for y in range(Q.n_states):
            law = br.conditional_samples(br.BridgeSpec(Q, x, y, t0), mode, n_samples, seed=5)
            h.update(np.ascontiguousarray(law.atoms.T).tobytes())
    assert h.hexdigest() == digest


@pytest.mark.parametrize("count", [64.0, True, "64"])
def test_conditional_samples_rejects_non_integer_count(spec_one, symmetric_two, count):
    with pytest.raises(ValueError, match="integer"):
        br.conditional_samples(spec_one, "occupation", count, seed=5)
    with pytest.raises(ValueError, match="integer"):
        br.build_oracle(symmetric_two, 1.0, "occupation", count, seed=5)


def test_flux_samples_round_trip_through_a_dump(ring_three, tmp_path):
    # the law's samples are an (N, d) view of its (d, N) blocks; the dump
    # is the row-major layout, and a law built from the loaded rows moves
    # them into the (d, N) layout again
    law = br.conditional_samples(br.BridgeSpec(ring_three, 0, 2, 0.5), "flux", 300, seed=4)
    path = tmp_path / "flux.f64"
    br.save_samples(path, law.samples)
    n, d = law.samples.shape
    header_then_rows = np.concatenate(([d, n], law.samples.ravel()))
    assert path.read_bytes() == header_then_rows.astype("<f8").tobytes()
    back = br.load_samples(path)
    assert np.array_equal(back, law.samples)
    again = br.EmpiricalLaw(back)
    assert again.atoms.T.flags.c_contiguous and not np.shares_memory(again.atoms, back)
    lam = np.linspace(-1.0, 1.0, d)
    for got, want in zip(again._moments(lam), law._moments(lam)):
        assert np.array_equal(got, want)


def test_conditional_samples_rare_pair(symmetric_two):
    # P_01(1e-9) is about 1e-9: each bridge makes exactly one jump, at a
    # uniform time, so the occupation of state 0 is uniform on (0, 1)
    t0, count = 1e-9, 4000
    law = br.conditional_samples(br.BridgeSpec(symmetric_two, 0, 1, t0), "flux", count, seed=0)
    counts = law.samples[:, 2:] * t0
    assert np.array_equal(np.rint(counts), np.tile([0.0, 1.0, 0.0, 0.0], (count, 1)))
    assert np.allclose(counts, np.rint(counts), rtol=0.0, atol=1e-12)
    se = law.samples[:, 0].std(ddof=1) / np.sqrt(count)
    assert abs(law.samples[:, 0].mean() - 0.5) < 5.0 * se


def test_conditional_samples_beside_absorbing_state():
    # state 2 cannot leave, but paths from 0 never reach it: the batch step
    # and the bridges between 0 and 1 must not refuse the chain
    Q = br.GeneratorMatrix(np.array([[-1.0, 1.0, 0.0], [1.0, -1.0, 0.0], [0.0, 0.0, 0.0]]))
    occ = br.batch_occupations(Q, 2.0, 200, np.random.default_rng(3), 0)
    assert np.allclose(occ.sum(axis=1), 1.0, atol=1e-12)
    assert np.all(occ[:, 2] == 0.0)
    law = br.conditional_samples(br.BridgeSpec(Q, 0, 1, 0.5), "flux", 200, seed=4)
    assert law.samples.shape == (200, 3 + 9)
    assert np.all(law.samples[:, 2] == 0.0)


def test_conditional_block_layout_agrees_across_modes(ring_three):
    # a flux block is the occupation block of the same draws followed by
    # the n^2 jump counts per unit time, with zero self-loop columns
    n, t0 = 3, 0.25
    for x in range(n):
        for y in range(n):
            spec = br.BridgeSpec(ring_three, x, y, t0)
            occ = br.conditional_samples(spec, "occupation", 500, seed=9).samples
            flux = br.conditional_samples(spec, "flux", 500, seed=9).samples
            assert flux.shape == (500, n + n * n)
            assert np.array_equal(flux[:, :n], occ)
            jumps = flux[:, n:].reshape(-1, n, n)
            assert np.all(jumps[:, np.arange(n), np.arange(n)] == 0.0)
            counts = jumps * t0
            assert np.array_equal(counts, np.rint(counts))


@pytest.mark.parametrize("mode", ["occupation", "flux"])
def test_block_log_mgf_along_ones_is_the_l1_log_mgf(ring_three, mode):
    # claim 07 reads the |.|_1 log-MGF of a block law as its log-MGF along
    # the ones vector, which holds because bridge blocks are nonnegative
    law = br.conditional_samples(br.BridgeSpec(ring_three, 0, 2, 0.5), mode, 2000, seed=4)
    assert law.samples.min() >= 0.0
    for s in (0.5, 1.0):
        by_hand = math.log(np.exp(s * np.abs(law.samples).sum(axis=1)).mean())
        assert law.log_mgf(np.full(law.d, s)) == pytest.approx(by_hand, rel=1e-12)


def test_conditional_occupation_rows_sum_to_one(spec_one):
    law = br.conditional_samples(spec_one, "occupation", 256, seed=2)
    assert law.samples.shape == (256, 2)
    assert np.allclose(law.samples.sum(axis=1), 1.0, atol=1e-10)


def test_conditional_flux_divergence_identity(spec_one):
    # every flux block of an x -> y bridge has divergence (e_x - e_y)/t0
    law = br.conditional_samples(spec_one, "flux", 128, seed=11)
    n = 2
    assert law.samples.shape == (128, n + n * n)
    expect = np.array([1.0, -1.0]) / spec_one.t0
    for row in law.samples:
        flux = row[n:].reshape(n, n)
        assert np.allclose(br.divergence(flux), expect, atol=1e-10)


def test_conditional_mean_matches_kernel_quadrature(spec_one):
    # E[occupation of state a] = (1/t0) int_0^t0 p_bridge(x -> a at u) du
    law = br.conditional_samples(spec_one, "occupation", 40_000, seed=23)
    grid = np.linspace(1e-9, spec_one.t0 - 1e-9, 801)
    rows = np.array([br.bridge_transition_row(spec_one, 0, 0.0, u) for u in grid])
    want = np.trapezoid(rows, grid, axis=0) / spec_one.t0
    got = law.samples.mean(axis=0)
    assert np.abs(got - want).max() < 0.01


@pytest.mark.parametrize("chain, t0", [("ring_three", 0.25), ("spread_three", 2.0)])
def test_conditional_flux_means_match_quadrature(request, chain, t0):
    # occupation of z: (1/t0) int P_xz(s) P_zy(t0-s) ds / P_xy(t0); jumps
    # a -> b per unit time: (1/t0) int P_xa(s) Q_ab P_by(t0-s) ds / P_xy(t0)
    Q = request.getfixturevalue(chain)
    n, count = 3, 20_000
    nodes, weights = np.polynomial.legendre.leggauss(40)
    s = 0.5 * t0 * (nodes + 1.0)
    w = 0.5 * t0 * weights
    head = np.array([br.transition_at(Q, si).probs for si in s])
    tail = np.array([br.transition_at(Q, t0 - si).probs for si in s])
    p_xy = br.transition_at(Q, t0).probs
    off = Q.rates * (1.0 - np.eye(n))
    for x in range(n):
        for y in range(n):
            occ = np.einsum("k,kz,kz->z", w, head[:, x, :], tail[:, :, y])
            jumps = np.einsum("k,ka,ab,kb->ab", w, head[:, x, :], off, tail[:, :, y])
            want = np.concatenate([occ, jumps.ravel()]) / (t0 * p_xy[x, y])
            law = br.conditional_samples(br.BridgeSpec(Q, x, y, t0), "flux", count, seed=29)
            got = law.samples.mean(axis=0)
            se = law.samples.std(axis=0, ddof=1) / np.sqrt(count)
            # rare jumps are Poisson-like: floor their standard error at the
            # one the exact mean count implies
            se[n:] = np.maximum(se[n:], np.sqrt(want[n:] / (t0 * count)))
            assert np.allclose(got[n:].reshape(n, n).diagonal(), 0.0)
            live = se > 0
            assert np.all(np.abs(got - want)[live] < 5.0 * se[live])


def test_conditional_samples_stiff_window(ring_three):
    # rates x 1000 over t0 = 1: lam t0 is about 1400, so exp(-lam t0)
    # underflows and the skeleton takes about 1400 steps
    Q = br.GeneratorMatrix(ring_three.rates * 1000.0)
    for x, y in ((0, 0), (0, 2)):
        law = br.conditional_samples(br.BridgeSpec(Q, x, y, 1.0), "flux", 200, seed=3)
        occ, flux = law.samples[:, :3], law.samples[:, 3:].reshape(-1, 3, 3)
        assert np.all(np.isfinite(law.samples))
        assert np.allclose(occ.sum(axis=1), 1.0, atol=1e-10)
        expect = (np.eye(3)[x] - np.eye(3)[y]) / 1.0
        assert np.allclose(flux.sum(axis=2) - flux.sum(axis=1), expect, atol=1e-9)
        # a window this long forgets its endpoints: occupation near invariant
        assert np.abs(occ.mean(axis=0) - br.invariant_measure(Q).weights).max() < 0.01


def test_conditional_means_match_forward_rejection(ring_three):
    # the uniformized sampler against forward paths of the lockstep walk
    # from x that happen to end at y, occupation and jump counts, within 5
    # combined standard errors; the reference never reads the conditioning
    # under test (_event_count_law, _bridge_tables)
    t0, count, batch = 0.5, 3000, 8192
    rng = np.random.default_rng(41)
    for x, y in ((0, 2), (2, 2)):
        spec = br.BridgeSpec(ring_three, x, y, t0)
        kept = []
        while sum(len(rows) for rows in kept) < count:
            ends, visits, jumps = _batch_step(ring_three, t0, np.full(batch, x), rng,
                                              want_flux=True)
            hit = ends == y
            kept.append(_blocks(visits[hit], jumps[hit], rng, t0))
        ref = np.concatenate(kept)[:count]
        law = br.conditional_samples(spec, "flux", count, seed=43)
        se = np.sqrt((ref.var(axis=0, ddof=1) + law.samples.var(axis=0, ddof=1)) / count)
        gap = np.abs(law.samples.mean(axis=0) - ref.mean(axis=0))
        live = se > 0
        assert np.all(gap[~live] == 0.0)
        assert np.all(gap[live] < 5.0 * se[live])


def test_time_reversed_bridge_is_the_reversed_chains_bridge(ring_three):
    # the bridge x -> y of Q, run backwards in time, is the bridge y -> x of
    # Q^_ab = pi_b Q_ba / pi_a: the same occupation law with the flux
    # transposed; ring_three is not reversible, so Q^ differs from Q
    n, t0, count = 3, 0.5, 20_000
    reversed_chain = time_reversed(ring_three)
    for x, y in ((0, 2), (1, 1), (2, 0)):
        forward = br.conditional_samples(br.BridgeSpec(ring_three, x, y, t0), "flux", count, 1)
        back = br.conditional_samples(br.BridgeSpec(reversed_chain, y, x, t0), "flux", count, 2)
        back = back.samples.copy()
        back[:, n:] = back[:, n:].reshape(count, n, n).transpose(0, 2, 1).reshape(count, n * n)
        se = np.sqrt((forward.samples.var(axis=0, ddof=1) + back.var(axis=0, ddof=1)) / count)
        gap = np.abs(forward.samples.mean(axis=0) - back.mean(axis=0))
        live = se > 0
        assert np.all(gap[~live] == 0.0)
        assert np.all(gap[live] < 5.0 * se[live])


def test_event_count_law_refuses_an_unreachable_endpoint():
    # BridgeSpec solves no kernel, so this is where conditional_samples
    # refuses such a pair; the law's truncation loop must end on one
    with pytest.raises(br.DegenerateDenominator):
        br.bridge._event_count_law(np.eye(2), 0, 1, 3.0)
    with pytest.raises(br.DegenerateDenominator):
        br.bridge._event_count_law(np.eye(2), 0, 1, 0.0)


def test_bridge_sampling_solves_no_kernel(symmetric_two, monkeypatch):
    # the pinned sym2-occupation digest of test_conditional_samples_are_pinned:
    # the laws are the same without a single exp(t0 Q) solve in the bridge
    # layer; build_oracle solves its one kernel outside it
    def no_solve(*args):
        raise AssertionError("bridge layer solved a kernel")

    monkeypatch.setattr(br.bridge, "transition_at", no_solve)
    oracle = br.build_oracle(symmetric_two, 2.0, "occupation", 8000, seed=5)
    direct, built = hashlib.sha256(), hashlib.sha256()
    for x in range(2):
        for y in range(2):
            law = br.conditional_samples(br.BridgeSpec(symmetric_two, x, y, 2.0), "occupation",
                                         8000, seed=5)
            direct.update(np.ascontiguousarray(law.atoms.T).tobytes())
            built.update(np.ascontiguousarray(oracle.law(x, y).atoms.T).tobytes())
    digest = "30dcf06e35676851b6a43ef4c5081a035d28273ab3d9edd78dbeee3848e09481"
    assert direct.hexdigest() == built.hexdigest() == digest


def test_unreachable_endpoint_is_refused_before_its_draws(monkeypatch):
    # state 1 absorbs, so no bridge runs from 1 to 0; BridgeSpec accepts the
    # pair, and the event-count law refuses it before its streams are opened
    Q = br.validate_generator([[-1.0, 1.0], [0.0, 0.0]])
    opened = []
    stream = br.bridge._stream
    monkeypatch.setattr(br.bridge, "_stream",
                        lambda seed, pair, key: opened.append(pair) or stream(seed, pair, key))
    spec = br.BridgeSpec(Q, 1, 0, 0.5)
    with pytest.raises(br.DegenerateDenominator):
        br.conditional_samples(spec, "flux", 100, seed=3)
    assert opened == []
    with pytest.raises(br.DegenerateDenominator):
        br.build_oracle(Q, 0.5, "occupation", 100, seed=3)
    # pairs (0, 0) and (0, 1) come first and are drawn; pair (1, 0) is index 2
    assert set(opened) == {0, 1}
