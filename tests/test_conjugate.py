import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import bridgerates as br
from bridgerates import conjugate
from bridgerates.conjugate import DEFAULT_LAM_BOX

BERN_CONJ_09 = 0.3680642071684971
BERN_LOGMGF_1 = 0.6201145069582775


class PoissonLaw:
    """Closed-form fixture: the Poisson law with the given rate, log-MGF rate * (e^lam - 1).

    It holds only what ``conjugate_at`` reads, ``d`` and ``_moments``.
    """

    d = 1

    def __init__(self, rate: float):
        self.rate = rate

    def _moments(self, lam: np.ndarray):
        tilted = self.rate * math.exp(lam[0])
        return self.rate * math.expm1(lam[0]), np.array([tilted]), np.array([[tilted]])


@pytest.fixture(scope="module")
def bernoulli():
    return br.DiscreteLaw(atoms=np.array([0.0, 1.0]), weights=np.array([0.5, 0.5]))


def test_log_mgf_frozen(bernoulli):
    assert bernoulli.log_mgf(np.array([1.0])) == pytest.approx(BERN_LOGMGF_1, abs=1e-13)
    assert bernoulli.log_mgf(np.array([0.0])) == pytest.approx(0.0, abs=1e-14)


def test_conjugate_frozen(bernoulli):
    est = br.conjugate_at(bernoulli, np.array([0.9]))
    assert est.converged
    assert est.value == pytest.approx(BERN_CONJ_09, abs=1e-10)


def test_conjugate_vanishes_at_mean(bernoulli):
    est = br.conjugate_at(bernoulli, bernoulli.mean())
    assert est.value == pytest.approx(0.0, abs=1e-10)


def test_conjugate_poisson_matches_entropy_kernel():
    # Legendre transform of rate*(e^lam - 1) is exactly s(a | rate)
    law = PoissonLaw(rate=0.8)
    for a in (0.1, 0.5, 0.8, 1.3, 2.5):
        est = br.conjugate_at(law, np.array([a]))
        assert est.value == pytest.approx(br.rel_entropy(a, 0.8), abs=1e-8)


def _boxed(law, a, lam0=None):
    """The fixed-box solve on the base box, from the origin or from lam0."""
    a = np.asarray(a, dtype=float)
    lam = np.zeros(a.size) if lam0 is None else np.asarray(lam0, dtype=float)
    return conjugate._boxed_conjugate(law._moments, a, DEFAULT_LAM_BOX, lam)


def test_conjugate_warm_start_independent(bernoulli):
    # the boxed value must be a function of the query point alone,
    # whatever start the solver is seeded with
    rng = np.random.default_rng(8)
    atoms = rng.normal(size=(6, 3))
    law = br.DiscreteLaw(atoms=atoms, weights=rng.dirichlet(np.ones(6)))
    targets = [law.mean(), law.mean() + 0.2, atoms[0], atoms[0] + 0.5]
    for a in targets:
        base = _boxed(law, a).value
        for lam0 in (np.zeros(3), rng.normal(size=3), np.full(3, 39.0), -np.full(3, 39.0)):
            again = _boxed(law, a, lam0).value
            assert again == pytest.approx(base, abs=1e-6)


def test_conjugate_boundary_flag(bernoulli):
    # points outside the support hull push the maximizer onto the box
    est = br.conjugate_at(bernoulli, np.array([1.5]))
    assert est.boundary
    inside = br.conjugate_at(bernoulli, np.array([0.5]))
    assert not inside.boundary


def test_conjugate_infinite_outside_hull(bernoulli):
    est = br.conjugate_at(bernoulli, np.array([1.5]))
    assert est.value == math.inf
    # a law on the line x0 + x1 = 1: off that line the log-MGF is flat
    # along (1, 1) and the target is unreachable, on it the value is finite
    flat = br.DiscreteLaw(atoms=np.array([[0.0, 1.0], [0.4, 0.6], [1.0, 0.0]]),
                          weights=np.array([0.2, 0.5, 0.3]))
    assert br.conjugate_at(flat, np.array([0.5, 0.6])).value == math.inf
    inside = br.conjugate_at(flat, np.array([0.3, 0.7]))
    assert inside.converged and not inside.boundary and math.isfinite(inside.value)


def test_conjugate_vertex_atom(bernoulli):
    # a support vertex carrying mass w has conjugate -log w, not infinity
    est = br.conjugate_at(bernoulli, np.array([1.0]))
    assert est.value == pytest.approx(math.log(2.0), abs=1e-6)


def test_conjugate_doubles_the_box_only_on_contact(monkeypatch):
    # a log-weight of -50.66 on the atom 1 puts the maximizer at a = 0.5 at
    # lam = log(1e22) = 50.657, past the box of 40 but inside the doubled
    # one: the doubled solve ends interior with the exact value, and the
    # growth records what the base box had cut off
    law = br.DiscreteLaw(atoms=np.array([0.0, 1.0]), weights=np.array([1 - 1e-22, 1e-22]))
    est = br.conjugate_at(law, [0.5])
    assert est.value == pytest.approx(24.635288842374557, abs=1e-9)
    assert est.value == pytest.approx(0.5 * math.log(1e22) - math.log(2.0), abs=1e-9)
    assert est.converged and not est.boundary
    assert est.growth == pytest.approx(0.2318, abs=1e-4)
    # an interior maximizer never touches the box: one solve, no growth
    boxes = []
    boxed = conjugate._boxed_conjugate

    def spy(moments, a, lam_box, lam):
        boxes.append(lam_box)
        return boxed(moments, a, lam_box, lam)

    monkeypatch.setattr(conjugate, "_boxed_conjugate", spy)
    inside = br.conjugate_at(law, law.mean())
    assert boxes == [DEFAULT_LAM_BOX]
    assert inside.growth == 0.0 and not inside.boundary
    boxes.clear()
    assert br.conjugate_at(law, [1.5]).value == math.inf
    assert boxes == [DEFAULT_LAM_BOX, 2 * DEFAULT_LAM_BOX]


@pytest.mark.parametrize("a", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
def test_conjugate_rejects_nonfinite_target(bernoulli, a):
    with pytest.raises(ValueError, match="finite"):
        br.conjugate_at(bernoulli, [a])


def test_empirical_law_mean_and_mgf():
    rng = np.random.default_rng(3)
    samples = rng.normal(size=(400, 2))
    law = br.EmpiricalLaw(samples)
    assert np.allclose(law.mean(), samples.mean(axis=0))
    lam = np.array([0.3, -0.7])
    manual = math.log(np.exp(samples @ lam).mean())
    assert law.log_mgf(lam) == pytest.approx(manual, abs=1e-12)


def test_empirical_law_is_the_uniform_discrete_law():
    rng = np.random.default_rng(8)
    samples = rng.normal(size=(300, 3))
    law = br.EmpiricalLaw(samples)
    assert isinstance(law, br.DiscreteLaw) and law.weights is None
    assert law.samples is law.atoms and law.n_samples == 300 and law.d == 3
    # log-weights of exactly -log N, held as one scalar rather than N copies
    assert law._log_weights == -math.log(300)
    weighted = br.DiscreteLaw(samples, np.full(300, 1.0 / 300))
    for lam in (np.zeros(3), np.array([0.4, -1.2, 2.0])):
        moments = law._moments(lam)
        assert moments[0] == br.DiscreteLaw(samples)._moments(lam)[0]
        for got, want in zip(moments, weighted._moments(lam)):
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-15)


@pytest.mark.parametrize("atoms, weights", [
    (np.zeros((0, 2)), None),
    (np.array([[0.0, np.nan]]), None),
    (np.array([0.0, 1.0]), np.array([0.5, 0.6])),
    (np.array([0.0, 1.0]), np.array([1.0, 0.0])),
    (np.array([0.0, 1.0]), np.array([1.0])),
], ids=["empty", "nan-atom", "weights-sum", "zero-weight", "weights-shape"])
def test_discrete_law_validates_atoms_and_weights(atoms, weights):
    with pytest.raises(ValueError):
        br.DiscreteLaw(atoms, weights)


def test_conjugate_at_holds_one_work_set_per_solve(monkeypatch):
    # the law keeps no scratch, so the solve passes one set to all its
    # passes, on the doubled box as on the base box
    law = br.EmpiricalLaw(np.random.default_rng(2).normal(size=(500, 3)))
    works = []
    moments = conjugate._tilted_moments

    def spy(columns, logw, lam, work=None):
        works.append(work)
        return moments(columns, logw, lam, work)

    monkeypatch.setattr(conjugate, "_tilted_moments", spy)
    for a, doubled in ((law.mean() + 0.1, False), (law.samples.max(axis=0) + 1.0, True)):
        works.clear()
        est = br.conjugate_at(law, a)
        assert est.converged and len(works) > 1
        assert (est.growth > 0) == doubled
        assert works[0] is not None and all(work is works[0] for work in works)


def test_save_load_roundtrip(tmp_path):
    rng = np.random.default_rng(5)
    samples = rng.exponential(size=(100, 4))
    path = tmp_path / "block.f64"
    br.save_samples(path, samples)
    back = br.load_samples(path)
    assert back.shape == samples.shape
    assert np.array_equal(back, samples)


def test_flux_mgf_bound_monotone_in_s(symmetric_two):
    b1 = br.flux_mgf_bound(symmetric_two, 1, 1.0, 0.5)
    b2 = br.flux_mgf_bound(symmetric_two, 1, 1.0, 1.0)
    assert 0.0 < b1 < b2


def test_flux_bound_needs_positive_rates():
    # one-directional ring: irreducible, but some rates vanish, so no
    # uniform Poisson domination of the conditioned jump rate exists
    ring = br.validate_generator(
        [[-1.0, 1.0, 0.0], [0.0, -1.0, 1.0], [1.0, 0.0, -1.0]]
    )
    with pytest.raises(br.ZeroRate):
        br.flux_mgf_bound(ring, 1, 1.0, 0.5)


@pytest.mark.parametrize("s", [math.nan, math.inf, -math.inf, -0.5],
                         ids=["nan", "inf", "-inf", "negative"])
def test_flux_mgf_bound_rejects_bad_s(symmetric_two, s):
    # a nan bound compares false against every log-MGF, so claim 07 would
    # count it as no violation; below s = 0 the formula is no bound
    with pytest.raises(ValueError, match="finite and nonnegative"):
        br.flux_mgf_bound(symmetric_two, 1, 1.0, s)


@given(seed=st.integers(0, 2**32 - 1), t=st.floats(0.0, 1.0))
def test_log_mgf_convex_along_segments(seed, t):
    rng = np.random.default_rng(seed)
    law = br.EmpiricalLaw(rng.normal(size=(50, 2)))
    a = rng.normal(size=2)
    b = rng.normal(size=2)
    mid = law.log_mgf(t * a + (1 - t) * b)
    assert mid <= t * law.log_mgf(a) + (1 - t) * law.log_mgf(b) + 1e-10


@given(seed=st.integers(0, 2**32 - 1))
def test_fenchel_young_sandwich(seed):
    rng = np.random.default_rng(seed)
    law = br.EmpiricalLaw(rng.normal(size=(40, 2)))
    lam = rng.normal(size=2)
    a = rng.normal(size=2)
    conj = br.conjugate_at(law, a).value
    # phi(lam) + phi*(a) >= lam . a for every pairing
    assert law.log_mgf(lam) + conj >= float(lam @ a) - 1e-8


@given(seed=st.integers(0, 2**32 - 1))
def test_conjugate_nonnegative(seed):
    # phi(0) = 0 forces phi* >= 0 everywhere
    rng = np.random.default_rng(seed)
    law = br.EmpiricalLaw(rng.normal(size=(30, 2)))
    a = rng.normal(size=2)
    assert br.conjugate_at(law, a).value >= -1e-10


def _tilted_mean(law, lam):
    z = law.samples @ lam
    w = np.exp(z - z.max())
    return (w / w.sum()) @ law.samples


@pytest.mark.parametrize("chain, mode", [("symmetric_two", "flux"), ("ring_three", "occupation")])
def test_conjugate_flat_directions(request, chain, mode):
    # bridge laws are flat along known directions (occupations sum to one,
    # flux diagonals vanish, divergence is fixed by the endpoints); at a
    # tilted mean a = grad phi(lam*) the conjugate is lam* . a - phi(lam*),
    # and cold and warm starts must both reach it
    oracle = br.build_oracle(request.getfixturevalue(chain), 0.5, mode, 2000, seed=5)
    rng = np.random.default_rng(11)
    for pair in oracle.laws:
        law = oracle.law(*pair)
        for _ in range(5):
            lam_star = 2.0 * rng.normal(size=law.d)
            a = _tilted_mean(law, lam_star)
            near = _tilted_mean(law, lam_star + 0.1 * rng.normal(size=law.d))
            cold = br.conjugate_at(law, a)
            warm = _boxed(law, a, br.conjugate_at(law, near).maximizer)
            assert cold.converged and warm.converged
            assert warm.value == pytest.approx(cold.value, abs=1e-9)
            assert cold.value == pytest.approx(lam_star @ a - law.log_mgf(lam_star), abs=1e-9)


def test_conjugate_near_point_mass_vertex(symmetric_two):
    # staying in state 1 over the window puts most of the law on the vertex
    # (0, 1); targets next to it have a large, sharply curved maximizer
    law = br.build_oracle(symmetric_two, 0.5, "occupation", 8000, seed=1).law(1, 1)
    assert np.mean(law.samples[:, 0] == 0.0) > 0.8
    for a0 in (0.045, 0.01, 0.002):
        a = np.array([a0, 1.0 - a0])
        cold = br.conjugate_at(law, a)
        warm = _boxed(law, a, br.conjugate_at(law, [1.1 * a0, 1.0 - 1.1 * a0]).maximizer)
        assert cold.converged and warm.converged
        assert not cold.boundary
        assert warm.value == pytest.approx(cold.value, abs=1e-9)


def test_conjugate_rejects_non_law():
    with pytest.raises(TypeError):
        br.conjugate_at(lambda lam: float(lam @ lam), np.array([0.5]))


# --- Newton decrement of the boxed conjugate -------------------------------------


def test_decrement_vanishes_at_converged_interior_solve(bernoulli, ring_three):
    # at an interior maximizer the gradient is below tolerance, so the
    # value left to gain is at roundoff level
    law = br.build_oracle(ring_three, 0.5, "occupation", 2000, seed=5).law(0, 1)
    cases = [(PoissonLaw(rate=0.8), [a]) for a in (0.1, 0.8, 2.5)]
    cases += [(bernoulli, [0.9]), (law, _tilted_mean(law, np.array([0.8, -0.5, 0.3])))]
    for phi, a in cases:
        est = br.conjugate_at(phi, np.array(a))
        assert est.converged and not est.boundary
        assert 0.0 <= est.decrement <= 1e-12


def test_decrement_zero_on_pinned_coordinate(bernoulli):
    # off the hull the maximizer sits on the box, where the boxed conjugate
    # is linear: the gradient left there is not value to gain
    est = br.conjugate_at(bernoulli, np.array([1.5]))
    assert est.boundary
    assert est.decrement == 0.0
    # two independent fair coins: the first coordinate is pinned with
    # gradient 0.5, the second is a free Bernoulli tilted to mean 0.3
    atoms = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
    law = br.DiscreteLaw(atoms=atoms, weights=np.full(4, 0.25))
    est = _boxed(law, [1.5, 0.3])
    assert est.converged and est.boundary
    assert est.maximizer[0] == DEFAULT_LAM_BOX
    assert 0.0 <= est.decrement <= 1e-12


def test_decrement_flat_along_occupation_sum(ring_three):
    # occupation fractions sum to one, so the log-MGF is linear along the
    # ones vector; a target 2e-10 off the hull along it leaves a gradient
    # there that no step can reduce, and the decrement must give it nothing
    # (its curvature is at roundoff level, so counting it would blow up)
    law = br.build_oracle(ring_three, 0.5, "occupation", 2000, seed=5).law(0, 1)
    a = _tilted_mean(law, np.array([0.8, -0.5, 0.3])) + 2e-10
    est = br.conjugate_at(law, a)
    assert est.converged and not est.boundary
    assert abs(float((a - law._moments(est.maximizer)[1]).sum())) > 5e-10
    assert 0.0 <= est.decrement <= 1e-12

