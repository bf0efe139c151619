"""Window-length invariance of the block-decomposition occupation rate.

Builds a bridge-sample oracle per window length, solves the decomposition
problem at a fixed occupation target, and prints the per-time value next
to the closed form. The column should be flat in t0.
"""

import argparse
import math
import time

import numpy as np

import bridgerates as br


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--rho", type=float, default=0.7, help="mass on state 0")
    ap.add_argument("--n-samples", type=int, default=20_000)
    ap.add_argument("--t0", type=float, nargs="+", default=[0.5, 1.0, 2.0])
    ap.add_argument("--seed", type=int, default=7)
    args = ap.parse_args()

    Q = br.validate_generator([[-1.0, 1.0], [1.0, -1.0]])
    rho = br.ProbVector(np.array([args.rho, 1.0 - args.rho]))
    ref = br.dvg_rate(rho, Q).value
    print(f"target rho = ({args.rho:g}, {1.0 - args.rho:g}), closed form {ref:.6f}")
    print(f"{'t0':>5} {'value/t0':>10} {'abs err':>9} {'cert':>9} {'secs':>6}")
    for t0 in args.t0:
        tic = time.perf_counter()
        oracle = br.build_oracle(Q, t0, "occupation", args.n_samples, args.seed)
        res = br.infconv_dvg(rho, oracle)
        per_time = res.value / t0 if math.isfinite(res.value) else math.inf
        print(
            f"{t0:5.2f} {per_time:10.6f} {abs(per_time - ref):9.2e} "
            f"{res.certificate:9.2e} {time.perf_counter() - tic:6.1f}"
        )


if __name__ == "__main__":
    main()
