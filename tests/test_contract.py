"""The entry-point contract on fuzzed chains: a certified value or a typed refusal.

Every call below must either return a finite value that meets its own
certificate, or raise ``Reducible``, and that only on a chain that is not
irreducible. Any other exception, or a value that misses its certificate,
fails the test.
"""

import numpy as np

import bridgerates as br
from bridgerates.chain import RESIDUAL_TOL
from bridgerates.ratefun import GRAD_TOL

SCALES = (1e-3, 1.0, 1e3, 1e6)
TARGETS = ("interior", "face", "near-face")


def _fuzzed_cases(count, seed=2027):
    """``count`` seeded (Q, rho) pairs: n = 2..6 states with 30% of the rates
    zero, scaled by 1e-3 to 1e6, each with an interior target, one with a
    zero entry (a face) or one with an entry of 1e-30 (near a face)."""
    rng = np.random.default_rng(seed)
    for i in range(count):
        n = 2 + i % 5
        rates = rng.uniform(0.2, 2.0, (n, n)) * (rng.uniform(size=(n, n)) >= 0.3)
        rates *= SCALES[(i // 5) % 4]
        np.fill_diagonal(rates, 0.0)
        np.fill_diagonal(rates, -rates.sum(axis=1))
        rho = rng.dirichlet(np.ones(n))
        kind = TARGETS[(i // 20) % 3]
        if kind != "interior":
            rho[rng.integers(n)] = 0.0 if kind == "face" else 1e-30
            rho /= rho.sum()
        yield br.validate_generator(rates), rho


def _gap_certified(res):
    return np.isfinite(res.value) and abs(res.gap) <= 1e-12 * max(1.0, res.value)


def _dvg_certified(Q, rho):
    res = br.dvg_rate(rho, Q)
    flows = (res.flux.sum(axis=0) + res.flux.sum(axis=1)).max()
    return np.isfinite(res.value) and res.gradient_norm < GRAD_TOL * max(1.0, flows)


def _invariant_certified(Q, rho):
    pi = br.invariant_measure(Q).weights
    residual = np.abs(pi @ Q.rates).max()
    return np.all(np.isfinite(pi)) and residual <= RESIDUAL_TOL * max(1.0, np.abs(Q.rates).max())


# each entry point with the certificate its result must meet
CERTIFIED = {
    "dvg_rate": _dvg_certified,
    "contract_dvg_from_bfg": lambda Q, rho: _gap_certified(br.contract_dvg_from_bfg(rho, Q)),
    "ball_rate": lambda Q, rho: _gap_certified(br.ball_rate(Q, rho, 0.05)),
    "invariant_measure": _invariant_certified,
}


def test_every_entry_point_certifies_or_refuses_typed():
    certified = refused = 0
    failures = []
    for case, (Q, rho) in enumerate(_fuzzed_cases(216)):
        irreducible = br.is_irreducible(Q)
        for name, check in CERTIFIED.items():
            try:
                ok, why = bool(check(Q, rho)), "missed its certificate"
                certified += ok
            except br.Reducible:
                ok, why = not irreducible, "refused an irreducible chain"
                refused += 1
            except Exception as exc:  # the contract allows no other exception
                ok, why = False, repr(exc)
            if not ok:
                failures.append((case, name, why))
    assert not failures, failures
    # both outcomes occur, so the fuzz reaches both sides of the contract
    assert certified > 0 and refused > 0, (certified, refused)
