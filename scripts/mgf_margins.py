"""Margins of the uniform block log-MGF bound over the empirical one.

For every endpoint pair of a two-state chain, samples conditional flux
blocks and prints bound(s) - empirical(s); every margin should be
positive at every s. Exits with status 1 when the worst margin is not.
The blocks are nonnegative, so their |.|_1 log-MGF at s is the log-MGF
along the ones vector.
"""

import argparse
import sys

import numpy as np

import bridgerates as br


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--t0", type=float, default=0.5)
    ap.add_argument("--n-samples", type=int, default=20_000)
    ap.add_argument("--s", type=float, nargs="+", default=[0.5, 1.0])
    ap.add_argument("--seed", type=int, default=13)
    args = ap.parse_args()

    Q = br.validate_generator([[-1.0, 1.0], [1.0, -1.0]])
    header = "  ".join(f"margin(s={s:g})" for s in args.s)
    print(f"pair  {header}")
    worst = float("inf")
    for x in range(2):
        for y in range(2):
            spec = br.BridgeSpec(Q, x, y, args.t0)
            law = br.conditional_samples(spec, "flux", args.n_samples, args.seed)
            margins = []
            for s in args.s:
                gap = br.flux_mgf_bound(Q, y, args.t0, s) - law.log_mgf(np.full(law.d, s))
                margins.append(gap)
                worst = min(worst, gap)
            cells = "  ".join(f"{m:12.4f}" for m in margins)
            print(f"({x},{y})  {cells}")
    print(f"worst margin {worst:.4f} ({'ok' if worst > 0 else 'VIOLATION'})")
    return 0 if worst > 0 else 1


if __name__ == "__main__":
    sys.exit(main())
