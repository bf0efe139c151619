import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import bridgerates as br
from conftest import random_generator, scaled_sweep_chains
from test_estimate import STIFF_SPARSE

S_3_1 = 1.2958368660043291
TWO_S_1_HALF = 0.3862943611198906
PAIR_UNIFORM = 0.07270672893442953
DVG_73 = 0.08348486100883201
EPS = float(np.finfo(float).eps)


def two_state_closed_form(q12: float, q21: float, rho1: float, rho2: float) -> float:
    return (math.sqrt(q12 * rho1) - math.sqrt(q21 * rho2)) ** 2


# --- relative-entropy kernel ------------------------------------------------


def test_rel_entropy_values():
    assert br.rel_entropy(3.0, 1.0) == pytest.approx(S_3_1, abs=1e-14)
    assert br.rel_entropy(0.0, 0.7) == pytest.approx(0.7)
    assert br.rel_entropy(1.0, 1.0) == 0.0
    assert br.rel_entropy(2.0, 0.0) == math.inf


def test_rel_entropy_rejects_negative():
    with pytest.raises(br.NegativeInput):
        br.rel_entropy(-0.1, 1.0)
    with pytest.raises(br.NegativeInput):
        br.rel_entropy(1.0, -0.1)


@given(a=st.floats(0.0, 50.0), b=st.floats(1e-9, 50.0))
def test_rel_entropy_nonnegative(a, b):
    assert br.rel_entropy(a, b) >= 0.0


def test_rel_entr_kernel_matches_scipy_within_4_ulp():
    special = pytest.importorskip("scipy.special")
    from bridgerates.ratefun import _rel_entr

    # a mantissa-exponent grid over the positive doubles (down to subnormal),
    # plus ratios 1 + 2^-k approaching a = b from both sides
    grid = np.array([m * 10.0**e for e in range(-320, 302, 7) for m in (1.0, 1.7, 3.1)])
    a, b = (g.ravel() for g in np.meshgrid(grid, grid))
    steps = 2.0 ** -np.arange(1, 53)
    near = np.concatenate([1.0 + steps, 1.0 - steps])
    a = np.concatenate([a, 0.37 * near, 4.1e-200 * near])
    b = np.concatenate([b, np.full(near.size, 0.37), np.full(near.size, 4.1e-200)])
    with np.errstate(over="ignore", under="ignore"):
        ratio = a / b
    log1p_branch = (ratio > 0.5) & (ratio < 2.0)
    log_branch = ~log1p_branch & (ratio > np.finfo(float).tiny) & (ratio < math.inf)
    assert log1p_branch.sum() > 500 and log_branch.sum() > 500
    assert (~log1p_branch & ~log_branch).sum() > 500  # subnormal, zero or infinite ratio
    want = special.rel_entr(a, b)
    got = _rel_entr(a, b)
    assert np.all(np.isfinite(want))
    assert np.all(np.abs(got - want) <= 4 * np.spacing(np.abs(want)))
    # conventions at zero: (0, b) -> 0, (a, 0) -> inf, (0, 0) -> 0
    a0 = np.array([0.0, 0.0, 2.5, 1e-320, 0.0])
    b0 = np.array([0.7, 1e-320, 0.0, 0.0, 0.0])
    assert np.array_equal(_rel_entr(a0, b0), [0.0, 0.0, math.inf, math.inf, 0.0])
    assert np.array_equal(_rel_entr(a0, b0), special.rel_entr(a0, b0))


# --- occupation rate ----------------------------------------------------------


def test_dvg_rate_two_state_closed_form(symmetric_two):
    for rho1 in (0.1, 0.3, 0.5, 0.7, 0.9):
        got = br.dvg_rate(br.ProbVector([rho1, 1.0 - rho1]), symmetric_two).value
        want = two_state_closed_form(1.0, 1.0, rho1, 1.0 - rho1)
        assert got == pytest.approx(want, abs=1e-8)


def test_dvg_rate_frozen_values(symmetric_two):
    assert br.dvg_rate(br.ProbVector([0.7, 0.3]), symmetric_two).value == pytest.approx(
        DVG_73, abs=1e-10
    )
    assert br.dvg_rate(br.ProbVector([0.9, 0.1]), symmetric_two).value == pytest.approx(
        0.4, abs=1e-10
    )


def test_dvg_rate_zero_at_invariant(ring_three):
    pi = br.invariant_measure(ring_three)
    assert br.dvg_rate(pi, ring_three).value == pytest.approx(0.0, abs=1e-10)


def test_dvg_objective_gauge_invariance(ring_three):
    rho = br.ProbVector([0.5, 0.3, 0.2])
    v = np.array([0.4, -0.2, 0.9])
    a = br.dvg_objective(rho, ring_three, v)
    b = br.dvg_objective(rho, ring_three, v + 3.7)
    assert a == pytest.approx(b, abs=1e-12)


def test_dvg_rate_boundary_occupation(symmetric_two, ring_three):
    # all mass on one state: rate equals the exit rate out of it, with no
    # Newton step
    assert br.dvg_rate(br.ProbVector([1.0, 0.0]), symmetric_two).value == pytest.approx(
        1.0, abs=1e-8
    )
    for x in range(3):
        res = br.dvg_rate(br.ProbVector(np.eye(3)[x]), ring_three)
        assert res.value == pytest.approx(ring_three.exit_rates[x], abs=1e-15)
        assert res.iterations == 0


@given(seed=st.integers(0, 2**32 - 1))
# an interior rho on which the five-start BFGS solver raised NonConvergence
@example(seed=350791571)
def test_dvg_rate_nonnegative_random(seed):
    rng = np.random.default_rng(seed)
    Q = random_generator(rng, 3)
    w = rng.dirichlet(np.ones(3))
    res = br.dvg_rate(br.ProbVector(w), Q)
    assert res.value >= -1e-12


def test_dvg_rate_nonconvergence_carries_best(ring_three, monkeypatch):
    # one Newton step cannot reach the gradient tolerance; the error still
    # hands back the unconverged iterate
    rho = br.ProbVector([0.5, 0.3, 0.2])
    converged = br.dvg_rate(rho, ring_three).value
    monkeypatch.setattr(br.ratefun, "MAX_ASCENT_STEPS", 1)
    with pytest.raises(br.NonConvergence) as info:
        br.dvg_rate(rho, ring_three)
    best = info.value.best
    assert isinstance(best, br.VariationalResult)
    assert best.gradient_norm >= 1e-10
    assert best.iterations <= 1
    assert best.value <= converged + 1e-12
    assert best.flux.shape == (3, 3) and np.all(best.flux >= 0.0)


def test_dvg_rate_converges_at_a_mass_of_1e_30():
    # the 6.9e-30 mass sits on state 0: a Laplacian gauge fixed there pins
    # the other states only through its tiny flows, and the line search gave
    # up at gradient 2.26e-10; the gauge belongs at the state of largest degree
    rates = np.array([[0.0, 1.4067655498981702, 0.8852810944195624],
                      [0.8896054203766071, 0.0, 0.6051269267264902],
                      [1.5195288459955711, 0.8151961729438992, 0.0]])
    np.fill_diagonal(rates, -rates.sum(axis=1))
    rho = [6.913849467834228e-30, 0.1630127491265517, 0.8369872508734483]
    res = br.dvg_rate(rho, br.validate_generator(rates))
    assert res.value == pytest.approx(1.6789303467962085, rel=1e-14)
    assert res.gradient_norm < 1e-15


@pytest.mark.parametrize("scale", [1e3, 1e6])
def test_dvg_rate_scales_with_the_rates(scale):
    # the rate is linear in Q; at rates near 1e6 rounding alone leaves net
    # flows near 1e-10, so an absolute gradient tolerance raised on 194 of
    # these 300 chains
    for Q, rho in scaled_sweep_chains(300):
        want = scale * br.dvg_rate(rho, Q).value
        got = br.dvg_rate(rho, br.validate_generator(scale * Q.rates)).value
        assert got == pytest.approx(want, rel=1e-10)


def _attained(rho: np.ndarray, Q, v: np.ndarray) -> tuple[float, float]:
    """Objective value and gradient max-norm at v, summed over edges with rho_x Q_xy > 0."""
    base = np.where(np.eye(Q.n_states, dtype=bool), 0.0, rho[:, None] * Q.rates)
    flow = np.where(base > 0, base * np.exp(v[None, :] - v[:, None]), 0.0)
    return -float(np.sum(flow - base)), float(np.abs(flow.sum(axis=1) - flow.sum(axis=0)).max())


@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 5), zeros=st.integers(1, 2))
def test_dvg_rate_boundary_occupation_random(symmetric_two, seed, n, zeros):
    # rho with one or two zero entries: the support split never raises, the
    # value is attained at the returned maximizer, and the contraction built
    # on it certifies the same value
    rng = np.random.default_rng(seed)
    Q = random_generator(rng, n)
    w = rng.dirichlet(np.ones(n))
    w[rng.choice(n, size=min(zeros, n - 1), replace=False)] = 0.0
    rho = br.ProbVector(w / w.sum())
    res = br.dvg_rate(rho, Q)
    assert np.all(np.isfinite(res.maximizer))
    value, grad = _attained(rho.weights, Q, res.maximizer)
    assert res.value == pytest.approx(value, rel=1e-12, abs=1e-12)
    assert grad <= 1e-6
    # the contraction's flux is the one dvg_rate returns, zero off the support
    outside = rho.weights == 0
    assert np.all(res.flux[outside] == 0.0) and np.all(res.flux[:, outside] == 0.0)
    out = br.contract_dvg_from_bfg(rho, Q)
    assert np.array_equal(out.flux, res.flux)
    assert out.value == pytest.approx(res.value, abs=1e-6)
    assert abs(out.gap) <= 1e-6
    if n == 2:
        r0, r1 = rho.weights
        q01, q10 = Q.rates[0, 1], Q.rates[1, 0]
        assert res.value == pytest.approx(two_state_closed_form(q01, q10, r0, r1), abs=1e-12)
        unit = br.dvg_rate(rho, symmetric_two).value
        assert unit == pytest.approx((math.sqrt(r0) - math.sqrt(r1)) ** 2, abs=1e-12)


# supp(rho) = {0, 1} with the single edge 0 -> 1: the edge between the two
# components (0.5) and the exit 1 -> 2 (1.0) count in full
ONE_WAY = ([[-1.0, 1.0, 0.0], [0.0, -2.0, 2.0], [1.0, 1.0, -2.0]], [0.5, 0.5, 0.0], 1.5, 0.0)
# 2-cycles {0, 4} and {1, 3} joined by 0 -> 3 and 4 -> 1 (weights 0.125 and
# 0.5625), exit 4 -> 2 (0.1875):
# (sqrt(.125) - sqrt(.375))^2 + (sqrt(.0625) - sqrt(.1875))^2 + 0.875
TWO_CYCLES = (
    [[-2.0, 0.0, 0.0, 1.0, 1.0],
     [0.0, -0.5, 0.0, 0.5, 0.0],
     [1.0, 0.0, -1.5, 0.5, 0.0],
     [0.0, 0.5, 0.0, -0.5, 0.0],
     [1.0, 1.5, 0.5, 0.0, -3.0]],
    [0.125, 0.125, 0.0, 0.375, 0.375],
    1.625 - 3.0 * math.sqrt(3.0) / 8.0,
    1e-15,
)


@pytest.mark.parametrize(
    "rates, weights, want, tol", [ONE_WAY, TWO_CYCLES], ids=["one-way", "two-cycles"]
)
def test_dvg_rate_support_not_strongly_connected(rates, weights, want, tol):
    Q = br.validate_generator(rates)
    rho = br.ProbVector(weights)
    res = br.dvg_rate(rho, Q)
    assert res.value == pytest.approx(want, rel=0.0, abs=tol)
    assert br.dvg_objective(rho, Q, res.maximizer) == pytest.approx(want, abs=1e-15)
    out = br.contract_dvg_from_bfg(rho, Q)
    assert out.value == pytest.approx(want, abs=1e-12)
    assert abs(out.gap) <= 1e-9
    assert np.all(np.isfinite(out.potential))


# Two chains of the seeded stress set in tests/test_estimate.py (draws 54
# and 1355 of default_rng(5)). On the first, rho_0 = 2.3e-37 makes the flow
# underflow and the unscaled Laplacian singular to working precision, which
# np.linalg.solve rejected; on the second, a divergence repair by unweighted
# least squares, since removed, pushed a flux below zero.
UNDERFLOW_54 = (
    [[-12.592729719003849, 0.0, 0.0, 0.0, 1.4509846686547312, 0.0, 1.4306415314582408, 9.711103518890877],
     [0.0, -144.23826208997008, 2.59166104842848, 25.62332987333185, 3.3143679918392137, 0.0,
      0.33048639421450837, 112.37841678215604],
     [0.0, 4.245867692361573, -5.4966985656814105, 0.0, 0.19815443775889127, 0.32209014275318765, 0.0,
      0.7305862928077583],
     [0.0, 0.0014367695079779315, 0.07469076662728144, -0.11633115899216337, 0.0, 0.040203622856903994,
      0.0, 0.0],
     [0.0, 0.0, 0.16421164379079506, 2.8345973943841, -21.559815284040592, 0.3240328816014735,
      17.209212736455484, 1.0277606278087417],
     [0.1983754024570672, 0.0, 2.14651761481102, 0.0, 0.0, -6.288249651028962, 1.353867557375033,
      2.5894890763858416],
     [101.49348634382837, 1.7173982065865803, 15.287689214041, 0.4275216667173097, 0.0, 0.1458066260433235,
      -119.49961587648086, 0.42771381926429125],
     [5.607509736709216, 4.263944935107899, 0.0, 0.6508717037500044, 0.09551663859899609, 0.9839176494092956,
      2.7815096821653467, -14.383270345740758]],
    [2.279503906836734e-37, 0.003332853899703314, 6.728251068679284e-07, 1.468465334442061e-14,
     9.56377064199344e-13, 0.0, 9.529364298739172e-10, 0.9966664723212824],
    12.2923015226680,
)
SMALL_RHO_1355 = (
    [[-1424.3892515832674, 0.0, 2.9311293421352707, 5.920049168731233, 0.0, 1415.2892046333382,
      0.24886843906279343, 0.0],
     [1.6958242883231598, -50.74001835046983, 13.017709789648956, 16.28210872927726, 0.0,
      0.04276861330115961, 8.28005334339859, 11.421553586520707],
     [0.0, 0.0064395679476788896, -3.310086931617255, 0.0, 0.0, 0.0, 0.0, 3.303647363669576],
     [0.0, 6.952046291688073, 0.5783870671664907, -7.6845813018778015, 0.0, 0.023725413712452032,
      0.07065524677507641, 0.05976728253570969],
     [9.937795364942604, 0.0, 0.23739664796158588, 0.0, -24.049398785619076, 13.48988004494032,
      0.22023112822988528, 0.16409559954468483],
     [0.9903507928150801, 12.400075651553806, 32.47292049504193, 0.0, 0.0, -46.019309790422014,
      0.039986273492394815, 0.11597657751880344],
     [0.05749939762724002, 1.2348614933225863, 0.0, 0.5250862574958652, 0.08250935289835741,
      15.803800950910832, -17.858680422183387, 0.15492296992850693],
     [3.519384234915722, 0.6431014767421402, 0.2956836914645757, 0.0, 5.1918189923243805,
      0.08876025248160882, 0.1975757673960688, -9.936324415324496]],
    [1.3775169169840442e-06, 3.556591446284353e-08, 2.3367486293635344e-06, 6.652372526568588e-07,
     1.5449735763620163e-05, 0.9999800190841813, 1.1611134156598563e-07, 0.0],
    45.93168598444082,
)


@pytest.mark.parametrize("rates, weights, want", [UNDERFLOW_54, SMALL_RHO_1355],
                         ids=["underflow-54", "small-rho-1355"])
def test_contract_on_tiny_rho_entries(rates, weights, want):
    Q = br.validate_generator(rates)
    res = br.dvg_rate(weights, Q)
    assert res.value == pytest.approx(want, rel=1e-12)
    out = br.contract_dvg_from_bfg(weights, Q)
    assert out.value == pytest.approx(res.value, rel=1e-12)
    assert abs(out.gap) <= 1e-12
    assert out.flux.min() >= 0.0


@pytest.mark.parametrize(
    "rates, point",
    [*((rates, (vertex, epsilon)) for rates, vertex, epsilon in STIFF_SPARSE),
     UNDERFLOW_54[:2], SMALL_RHO_1355[:2]],
    ids=[*(f"stiff-sparse-{i}" for i in range(len(STIFF_SPARSE))), "underflow-54", "small-rho-1355"],
)
def test_dvg_rate_maximizer_is_stationary_state_by_state(rates, point):
    # every state of the support balances its flows to rounding, relative
    # to its own flows, however small its mass (down to 1e-19 at the stiff
    # ball minimizers and 2.3e-37 in UNDERFLOW_54)
    rates = np.array(rates)
    if isinstance(point, tuple):  # a STIFF_SPARSE ball (vertex, epsilon): its minimizer
        np.fill_diagonal(rates, -rates.sum(axis=1))
        Q = br.validate_generator(rates)
        vertex, epsilon = point
        rho = br.ball_rate(Q, np.eye(Q.n_states)[vertex], epsilon).minimizer
    else:
        Q, rho = br.validate_generator(rates), np.array(point)
    v = br.dvg_rate(rho, Q).maximizer
    base = np.where(np.eye(Q.n_states, dtype=bool), 0.0, rho[:, None] * Q.rates)
    flow = np.where(base > 0, base * np.exp(v[None, :] - v[:, None]), 0.0)
    outflow, inflow = flow.sum(axis=1), flow.sum(axis=0)
    support = rho > 0
    net = np.abs(outflow - inflow)[support] / (outflow + inflow)[support]
    assert net.max() <= 64 * EPS


# --- flux rate ----------------------------------------------------------------


def test_bfg_rate_frozen_value(symmetric_two):
    j = np.array([[0.0, 1.0], [1.0, 0.0]])
    got = br.bfg_rate(br.ProbVector([0.5, 0.5]), j, symmetric_two)
    assert got == pytest.approx(TWO_S_1_HALF, abs=1e-12)
    assert got == pytest.approx(2 * br.rel_entropy(1.0, 0.5), abs=1e-14)


def test_bfg_rate_zero_at_stationary_flux(ring_three):
    pi = br.invariant_measure(ring_three)
    j = pi.weights[:, None] * ring_three.rates
    np.fill_diagonal(j, 0.0)
    assert br.bfg_rate(pi, j, ring_three) == pytest.approx(0.0, abs=1e-12)


def test_bfg_rate_infinite_off_divergence(symmetric_two):
    j = np.array([[0.0, 1.0], [0.2, 0.0]])
    assert br.bfg_rate(br.ProbVector([0.5, 0.5]), j, symmetric_two) == math.inf


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_bfg_rate_rejects_nonfinite_flux(symmetric_two, bad):
    with pytest.raises(ValueError, match="finite"):
        br.bfg_rate([0.5, 0.5], np.array([[0.0, bad], [1.0, 0.0]]), symmetric_two)


def test_bfg_rate_divergence_tolerance_scales_with_flows(ring_three):
    # at rates 1e6 the stationary flux is divergence free only to rounding
    # of its flows (net flows near 6e-11); a relative defect of 1e-9 on one
    # edge is still caught
    Q = br.validate_generator(1e6 * ring_three.rates)
    pi = br.invariant_measure(Q)
    j = pi.weights[:, None] * Q.rates
    np.fill_diagonal(j, 0.0)
    assert br.bfg_rate(pi, j, Q) == pytest.approx(0.0, abs=1e-6)
    j[0, 1] *= 1.0 + 1e-9
    assert br.bfg_rate(pi, j, Q) == math.inf


def test_bfg_rate_infinite_off_support(symmetric_two):
    # rho puts no mass on state 1, so any flow out of it is not
    # absolutely continuous
    j = np.array([[0.0, 0.5], [0.5, 0.0]])
    assert br.bfg_rate(br.ProbVector([1.0, 0.0]), j, symmetric_two) == math.inf


def test_divergence_identities():
    j = np.array([[0.0, 2.0, 0.0], [0.5, 0.0, 1.0], [0.5, 0.5, 0.0]])
    div = br.divergence(j)
    assert np.allclose(div, j.sum(axis=1) - j.sum(axis=0))
    assert div.sum() == pytest.approx(0.0)


# --- pair-empirical rate --------------------------------------------------------


def test_pair_rate_zero_at_product(ring_three):
    P = br.transition_at(ring_three, 1.0)
    mu = br.dtmc_invariant(P).weights
    theta = br.PairMeasure(mu[:, None] * P.probs)
    assert br.pair_empirical_rate(theta, P) == pytest.approx(0.0, abs=1e-12)


def test_pair_rate_frozen_uniform(symmetric_two):
    P = br.transition_at(symmetric_two, 0.5)
    theta = br.PairMeasure(np.full((2, 2), 0.25))
    assert br.pair_empirical_rate(theta, P) == pytest.approx(PAIR_UNIFORM, abs=1e-12)


def test_pair_rate_nonnegative_random(symmetric_two):
    P = br.transition_at(symmetric_two, 0.5)
    rng = np.random.default_rng(4)
    for _ in range(20):
        theta = br.PairMeasure(rng.dirichlet(np.ones(4)).reshape(2, 2))
        assert br.pair_empirical_rate(theta, P) >= -1e-12


# --- plain-array inputs ---------------------------------------------------------


def test_rates_take_plain_arrays_like_wrapped_inputs(ring_three):
    Q = ring_three
    P = br.transition_at(Q, 0.5)
    rho = np.array([0.5, 0.3, 0.2])
    j = np.zeros((3, 3))
    j[0, 1] = j[1, 2] = j[2, 0] = 0.4
    a = np.random.default_rng(4).uniform(0.1, 1.0, (3, 3))
    theta = (a + a.T) / (a + a.T).sum()  # symmetric, so both marginals agree
    plain = br.dvg_rate(rho, Q)
    wrapped = br.dvg_rate(br.ProbVector(rho), Q)
    assert plain.value == wrapped.value and plain.iterations == wrapped.iterations
    assert np.array_equal(plain.maximizer, wrapped.maximizer)
    assert br.bfg_rate(rho, j, Q) == br.bfg_rate(br.ProbVector(rho), j, Q)
    assert math.isfinite(br.bfg_rate(rho, j, Q))
    assert br.pair_empirical_rate(theta, P) == br.pair_empirical_rate(br.PairMeasure(theta), P)
    assert math.isfinite(br.pair_empirical_rate(theta, P))
    # malformed arrays raise the wrappers' typed errors
    with pytest.raises(br.ChainError):
        br.dvg_rate(np.array([0.5, 0.3, 0.3]), Q)
    with pytest.raises(br.ChainError):
        br.bfg_rate(np.array([0.6, 0.6, -0.2]), j, Q)
    with pytest.raises(br.NegativeInput):
        br.pair_empirical_rate(theta - 2 * np.eye(3) * theta, P)
    with pytest.raises(ValueError):
        br.pair_empirical_rate(2 * theta, P)


# --- composite block rate -------------------------------------------------------


@pytest.fixture(scope="module")
def small_oracle(symmetric_two):
    return br.build_oracle(symmetric_two, 0.5, "occupation", 3000, seed=21)


def test_theorem_rate_small_at_simulated_mean(symmetric_two, small_oracle):
    # decomposition built from the oracle's own block means should sit
    # near the bottom of the rate landscape
    P = br.transition_at(symmetric_two, 0.5)
    mu = br.dtmc_invariant(P).weights
    theta = mu[:, None] * P.probs
    k = np.zeros((2, 2, 2))
    for (x, y), law in small_oracle.laws.items():
        k[x, y] = theta[x, y] * law.mean()
    got = br.theorem_rate(br.FluxField(k), br.PairMeasure(theta), small_oracle)
    assert 0.0 <= got < 0.01


def test_theorem_rate_joint_convexity_spot(symmetric_two, small_oracle):
    rng = np.random.default_rng(9)
    for _ in range(5):
        t1 = rng.dirichlet(np.ones(4)).reshape(2, 2)
        t2 = rng.dirichlet(np.ones(4)).reshape(2, 2)
        u1 = rng.dirichlet(np.ones(2), size=(2, 2))
        u2 = rng.dirichlet(np.ones(2), size=(2, 2))
        k1, k2 = t1[:, :, None] * u1, t2[:, :, None] * u2
        lam = rng.uniform(0.2, 0.8)
        mid = br.theorem_rate(
            br.FluxField(lam * k1 + (1 - lam) * k2),
            br.PairMeasure(lam * t1 + (1 - lam) * t2),
            small_oracle,
        )
        ends = lam * br.theorem_rate(
            br.FluxField(k1), br.PairMeasure(t1), small_oracle
        ) + (1 - lam) * br.theorem_rate(br.FluxField(k2), br.PairMeasure(t2), small_oracle)
        assert mid <= ends + 1e-9


def test_cond_rate_matches_theorem_decomposition(symmetric_two, small_oracle):
    # theorem_rate = conditional part + pair-empirical part
    P = br.transition_at(symmetric_two, 0.5)
    rng = np.random.default_rng(3)
    theta = rng.dirichlet(np.ones(4)).reshape(2, 2)
    u = rng.dirichlet(np.ones(2), size=(2, 2))
    k = theta[:, :, None] * u
    kf, tm = br.FluxField(k), br.PairMeasure(theta)
    total = br.theorem_rate(kf, tm, small_oracle)
    split = br.cond_rate(kf, tm, small_oracle) + br.pair_empirical_rate(tm, P)
    assert total == pytest.approx(split, rel=1e-12)
