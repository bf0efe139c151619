"""Fit the decay slope of an occupation-ball probability and compare it
with the variational reference from the rate functional.
"""

import argparse

import numpy as np

import bridgerates as br


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--rho", type=float, default=0.7, help="mass on state 0")
    ap.add_argument("--epsilon", type=float, default=0.03)
    ap.add_argument("--grid", type=int, nargs="+", default=[40, 60, 80, 100])
    ap.add_argument("--n-paths", type=int, default=200_000, help="paths shared by every grid point")
    ap.add_argument("--seed", type=int, default=3)
    args = ap.parse_args()

    Q = br.validate_generator([[-1.0, 1.0], [1.0, -1.0]])
    target = np.array([args.rho, 1.0 - args.rho])
    ball = br.ball_rate(Q, target, args.epsilon)
    ref = ball.value
    print(f"ball center ({args.rho:g}, {1.0 - args.rho:g}), eps {args.epsilon}")
    print(f"variational reference {ref:.6f} at {np.round(ball.minimizer, 4)}")

    try:
        fit = br.mc_decay_rate(
            Q, target, args.epsilon, args.grid, args.n_paths, args.seed
        )
    except br.InsufficientHits as exc:
        print(f"too few hits past n = {exc.largest_usable_n}; raise --n-paths")
        raise SystemExit(1)

    print(f"{'n':>5} {'hits':>8} {'-log p_n':>9}")
    for n, hits, nl in zip(fit.n_grid, fit.hits, fit.neg_log_prob):
        print(f"{int(n):5d} {int(hits):8d} {nl:9.4f}")
    rel = abs(fit.slope - ref) / ref
    print(f"slope {fit.slope:.6f} +- {fit.slope_se:.6f}  rel err vs reference {rel:.1%}")


if __name__ == "__main__":
    main()
