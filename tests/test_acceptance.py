"""Acceptance gate: one test per shipped claim, one pass/fail line each.

Each test prints ``[PASS]``/``[FAIL]`` with the measured error and wall
time, then asserts the stated tolerance and budget. ``pytest -v`` gives
one row per claim; add ``-s`` to see the detail lines as they happen.
"""

import math
import time

import numpy as np
import pytest

import bridgerates as br
from bridgerates.simulate import _batch_step
from conftest import random_generator, time_reversed

SYM = [[-1.0, 1.0], [1.0, -1.0]]
BALL_73_003 = 0.07096824596787867  # inf of the occupation rate over the eps=0.03 ball


def _report(label, ok, detail):
    print(f"\n[{'PASS' if ok else 'FAIL'}] {label}: {detail}", flush=True)
    assert ok, f"{label}: {detail}"


def test_01_two_state_closed_form_grid():
    start = time.perf_counter()
    Q = br.validate_generator(SYM)
    worst = 0.0
    for r in np.linspace(0.0, 1.0, 21):
        rho = br.ProbVector(np.array([r, 1.0 - r]))
        got = br.dvg_rate(rho, Q).value
        ref = (math.sqrt(r) - math.sqrt(1.0 - r)) ** 2
        worst = max(worst, abs(got - ref))
    elapsed = time.perf_counter() - start
    _report(
        "occupation rate vs closed form, 21-point grid",
        worst < 1e-6 and elapsed < 1.0,
        f"max err {worst:.2e} (tol 1e-06), {elapsed:.2f}s (budget 1s)",
    )


def test_02_contraction_matches_occupation_rate():
    start = time.perf_counter()
    rng = np.random.default_rng(42)
    worst = 0.0
    for i in range(20):
        n = 2 + i % 3
        Q = random_generator(rng, n)
        w = rng.uniform(0.1, 1.0, n)
        rho = br.ProbVector(w / w.sum())
        ref = br.dvg_rate(rho, Q).value
        got = br.contract_dvg_from_bfg(rho, Q).value
        worst = max(worst, abs(got - ref))
    elapsed = time.perf_counter() - start
    _report(
        "flux-to-occupation contraction, 20 random chains",
        worst < 1e-4 and elapsed < 10.0,
        f"max err {worst:.2e} (tol 1e-04), {elapsed:.2f}s (budget 10s)",
    )


def test_03_invariant_points_have_zero_rate():
    Q = br.validate_generator([[-2.0, 2.0], [1.0, -1.0]])
    pi = br.invariant_measure(Q)
    v_occ = abs(br.dvg_rate(pi, Q).value)

    j = pi.weights[:, None] * Q.rates
    np.fill_diagonal(j, 0.0)
    v_flux = abs(br.bfg_rate(pi, j, Q))

    P = br.transition_at(Q, 0.7)
    mu = br.dtmc_invariant(P).weights
    theta = br.PairMeasure(mu[:, None] * P.probs)
    v_pair = abs(br.pair_empirical_rate(theta, P))

    worst = max(v_occ, v_flux, v_pair)
    _report(
        "zero rate at the ergodic limits",
        worst < 1e-8,
        f"occ {v_occ:.1e}, flux {v_flux:.1e}, pair {v_pair:.1e} (tol 1e-08)",
    )


def test_04_bridge_kernel_against_sampler():
    start = time.perf_counter()

    # composition of the conditioned kernel across an intermediate time
    ring = br.validate_generator(
        [[-1.2, 1.0, 0.2], [0.3, -1.3, 1.0], [1.0, 0.4, -1.4]]
    )
    spec3 = br.BridgeSpec(ring, 0, 2, 1.4)
    s, t, u = 0.2, 0.7, 1.1
    worst_ck = 0.0
    for a in range(3):
        direct = br.bridge_transition_row(spec3, a, s, u)
        step = br.bridge_transition_row(spec3, a, s, t)
        composed = sum(
            step[b] * br.bridge_transition_row(spec3, b, t, u) for b in range(3)
        )
        worst_ck = max(worst_ck, float(np.abs(direct - composed).max()))

    # finite differences of the kernel recover the conditioned generator
    Q = br.validate_generator(SYM)
    spec2 = br.BridgeSpec(Q, 0, 1, 1.0)
    h = 1e-6
    t_fd = 0.35
    worst_fd = 0.0
    for a in range(2):
        row = br.bridge_transition_row(spec2, a, t_fd, t_fd + h)
        for b in range(2):
            if a == b:
                continue
            fd = row[b] / h
            gen = br.bridge_generator(spec2, a, b, t_fd)
            worst_fd = max(worst_fd, abs(fd - gen) / max(1.0, abs(gen)))

    # forward rejection reproduces the kernel marginals: paths of the chain
    # from x, stepped by the lockstep walk window by window to each probe
    # time and on to t0, kept when they end at y; the walk never reads P(t)
    rng = np.random.default_rng(99)
    n_accepted, batch = 100_000, 250_000
    probes = (0.37, 0.71)
    counts = {tp: np.zeros(2) for tp in probes}
    kept = 0
    while kept < n_accepted:
        states, seen, before = np.full(batch, spec2.x), [], 0.0
        for tp in probes + (spec2.t0,):
            states, _, _ = _batch_step(Q, tp - before, states, rng, want_flux=False)
            seen.append(states)
            before = tp
        hit = np.flatnonzero(states == spec2.y)[: n_accepted - kept]
        for tp, at in zip(probes, seen):
            counts[tp] += np.bincount(at[hit], minlength=2)
        kept += hit.size
    worst_tv = 0.0
    for tp in probes:
        kernel = br.bridge_transition_row(spec2, 0, 0.0, tp)
        emp = counts[tp] / n_accepted
        worst_tv = max(worst_tv, 0.5 * float(np.abs(emp - kernel).sum()))

    elapsed = time.perf_counter() - start
    _report(
        "bridge kernel: composition, generator, sampler",
        worst_ck < 1e-8 and worst_fd < 1e-3 and worst_tv < 0.01 and elapsed < 120.0,
        f"compose {worst_ck:.1e} (tol 1e-08), fd {worst_fd:.1e} (tol 1e-03), "
        f"tv {worst_tv:.4f} (tol 0.01), {elapsed:.0f}s (budget 120s)",
    )


def test_05_occupation_infconv_identity():
    start = time.perf_counter()
    Q = br.validate_generator(SYM)
    rho = br.ProbVector(np.array([0.7, 0.3]))
    per_time = []
    for t0 in (0.5, 1.0, 2.0):
        oracle = br.build_oracle(Q, t0, "occupation", 100_000, seed=7)
        res = br.infconv_dvg(rho, oracle)
        assert res.feasible and res.converged and math.isfinite(res.value)
        per_time.append(res.value / t0)
    worst = max(abs(v - 0.083485) for v in per_time)
    spread = max(per_time) - min(per_time)
    elapsed = time.perf_counter() - start
    _report(
        "occupation rate via block decompositions, three window lengths",
        worst <= 0.01 and spread <= 0.015 and elapsed < 600.0,
        f"max err {worst:.2e} (tol 0.01), spread {spread:.2e} (tol 0.015), "
        f"{elapsed:.0f}s (budget 600s)",
    )


def test_06_flux_infconv_identity():
    start = time.perf_counter()
    Q = br.validate_generator(SYM)
    t0 = 0.5
    oracle = br.build_oracle(Q, t0, "flux", 20_000, seed=7)

    j = np.array([[0.0, 1.0], [1.0, 0.0]])
    res = br.infconv_bfg(np.array([0.5, 0.5]), j, oracle)
    assert res.feasible and res.converged and math.isfinite(res.value)
    ref = 2.0 * br.rel_entropy(1.0, 0.5)
    err = abs(res.value / t0 - ref)

    pi = br.invariant_measure(Q).weights
    j_pi = pi[:, None] * Q.rates
    np.fill_diagonal(j_pi, 0.0)
    res_min = br.infconv_bfg(pi, j_pi, oracle)
    assert res_min.converged
    v_min = res_min.value / t0

    elapsed = time.perf_counter() - start
    _report(
        "flux rate via block decompositions",
        err <= 0.02 and v_min < 0.01 and elapsed < 900.0,
        f"err {err:.2e} (tol 0.02), at minimizer {v_min:.2e} (tol 0.01), "
        f"{elapsed:.0f}s (budget 900s)",
    )


def test_07_flux_mgf_bound_dominates():
    start = time.perf_counter()
    Q = br.validate_generator(SYM)
    t0 = 0.5
    violations = []
    for x in range(2):
        for y in range(2):
            spec = br.BridgeSpec(Q, x, y, t0)
            law = br.conditional_samples(spec, "flux", 100_000, 13)
            for s in (0.5, 1.0):
                # blocks are nonnegative, so this is the log-MGF of |A|_1
                emp = law.log_mgf(np.full(law.d, s))
                bound = br.flux_mgf_bound(Q, y, t0, s)
                if emp > bound:
                    violations.append((x, y, s, emp, bound))
    elapsed = time.perf_counter() - start
    _report(
        "uniform bound dominates empirical block log-MGF",
        not violations and elapsed < 600.0,
        f"{len(violations)} violations over 4 pairs x 2 points, "
        f"{elapsed:.0f}s (budget 600s)",
    )


def test_08_monte_carlo_decay_slope():
    start = time.perf_counter()
    Q = br.validate_generator(SYM)
    target = np.array([0.7, 0.3])
    eps = 0.03
    ref = br.ball_rate(Q, target, eps).value
    assert ref == pytest.approx(BALL_73_003, abs=1e-6)
    fit = br.mc_decay_rate(Q, target, eps, (40, 60, 80, 100), 1_000_000, 3)
    rel = abs(fit.slope - ref) / ref
    elapsed = time.perf_counter() - start
    _report(
        "ball-probability decay slope vs variational reference",
        rel <= 0.25 and elapsed < 1200.0,
        f"slope {fit.slope:.4f} vs ref {ref:.4f}, rel err {rel:.1%} (tol 25%), "
        f"hits {list(fit.hits)}, {elapsed:.0f}s (budget 1200s)",
    )


def test_09_property_sweeps():
    rng = np.random.default_rng(2024)
    violations = 0
    checks = 0

    # convexity of the log-MGF and the Fenchel-Young inequality
    for trial in range(60):
        d = 1 + trial % 3
        m = 3 + trial % 4
        atoms = rng.normal(size=(m, d))
        w = rng.uniform(0.2, 1.0, m)
        law = br.DiscreteLaw(atoms=atoms, weights=w / w.sum())
        lam1 = rng.normal(size=d)
        lam2 = rng.normal(size=d)
        alpha = float(rng.uniform())
        mid = law.log_mgf(alpha * lam1 + (1 - alpha) * lam2)
        ends = alpha * law.log_mgf(lam1) + (1 - alpha) * law.log_mgf(lam2)
        checks += 1
        if mid > ends + 1e-9:
            violations += 1
        a = rng.dirichlet(np.ones(m)) @ atoms
        fstar = br.conjugate_at(law, a).value
        checks += 1
        if fstar < -1e-10:
            violations += 1
        for _ in range(3):
            lam = rng.normal(size=d)
            checks += 1
            if float(lam @ a) - law.log_mgf(lam) > fstar + 1e-7:
                violations += 1

    # joint convexity of the block rate in (k, theta)
    Q = br.validate_generator(SYM)
    oracle = br.build_oracle(Q, 0.5, "occupation", 3_000, seed=21)
    for _ in range(8):
        t1 = rng.dirichlet(np.ones(4)).reshape(2, 2)
        t2 = rng.dirichlet(np.ones(4)).reshape(2, 2)
        u1 = rng.dirichlet(np.ones(2), size=(2, 2))
        u2 = rng.dirichlet(np.ones(2), size=(2, 2))
        k1, k2 = t1[:, :, None] * u1, t2[:, :, None] * u2
        lam = float(rng.uniform(0.2, 0.8))
        mid = br.theorem_rate(
            br.FluxField(lam * k1 + (1 - lam) * k2),
            br.PairMeasure(lam * t1 + (1 - lam) * t2),
            oracle,
        )
        ends = lam * br.theorem_rate(br.FluxField(k1), br.PairMeasure(t1), oracle) \
            + (1 - lam) * br.theorem_rate(br.FluxField(k2), br.PairMeasure(t2), oracle)
        checks += 1
        if math.isfinite(ends) and mid > ends + 1e-9:
            violations += 1

    # exact invariances of the live routes, each within 1e-12 max(1, |v|):
    # the rates under relabeling of the states (new state k is old state
    # inv[k]), time reversal (flux transposed) and scaling of Q, and a
    # sampled decomposition under relabeling: its laws move with their pairs
    # and coordinates, so no sampler is involved
    def same(got, want):
        return math.isfinite(want) and abs(got - want) <= 1e-12 * max(1.0, abs(want))

    def relabeled(law, inv, n):
        occ = law.atoms[:, :n][:, inv]
        if law.d == n:
            return br.EmpiricalLaw(occ)
        jumps = law.atoms[:, n:].reshape(-1, n, n)[:, inv][:, :, inv]
        return br.EmpiricalLaw(np.concatenate([occ, jumps.reshape(-1, n * n)], axis=1))

    for trial in range(6):
        n = 3 + trial % 3
        Q = random_generator(rng, n)
        rho = rng.dirichlet(np.ones(n))
        perm = rng.permutation(n)
        inv = np.argsort(perm)
        dvg = br.dvg_rate(rho, Q)
        j = dvg.flux
        joint = br.bfg_rate(rho, j, Q)

        Q_perm = br.GeneratorMatrix(Q.rates[np.ix_(inv, inv)])
        Q_rev = time_reversed(Q)
        c = 10.0 ** rng.uniform(-3.0, 3.0)
        pairs = [
            (br.dvg_rate(rho[inv], Q_perm).value, dvg.value),
            (br.bfg_rate(rho[inv], j[np.ix_(inv, inv)], Q_perm), joint),
            (br.contract_dvg_from_bfg(rho[inv], Q_perm).value,
             br.contract_dvg_from_bfg(rho, Q).value),
            (br.dvg_rate(rho, Q_rev).value, dvg.value),
            (br.bfg_rate(rho, j.T, Q_rev), joint),
            (br.dvg_rate(rho, br.GeneratorMatrix(c * Q.rates)).value, c * dvg.value),
        ]

        mode = ("occupation", "flux")[trial % 2]
        oracle = br.build_oracle(Q, 0.5, mode, 2_000, seed=trial)
        moved = br.ConjugateOracle(
            {(int(perm[x]), int(perm[y])): relabeled(law, inv, n)
             for (x, y), law in oracle.laws.items()},
            kernel=br.TransitionKernel(oracle.kernel.probs[np.ix_(inv, inv)]),
            mode=mode, t0=0.5,
        )
        if mode == "occupation":
            a, b = br.infconv_dvg(rho, oracle), br.infconv_dvg(rho[inv], moved)
        else:
            a = br.infconv_bfg(rho, j, oracle)
            b = br.infconv_bfg(rho[inv], j[np.ix_(inv, inv)], moved)
        pairs.append((b.value, a.value))
        checks += len(pairs) + 1
        violations += sum(not same(got, want) for got, want in pairs)
        if not np.abs(b.theta.weights[np.ix_(perm, perm)] - a.theta.weights).max() <= 1e-12:
            violations += 1

    _report(
        "property sweeps: convexity, duality, relabeling, reversal",
        violations == 0,
        f"{violations} violations across {checks} seeded checks",
    )
