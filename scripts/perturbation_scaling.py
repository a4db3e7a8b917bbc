"""How fast the small-time transition law converges to the exact answer.

For a seeded random real-symmetric generator, compares the exact jump
probability |<k| exp(-i H' t) |j>|^2 against its small-time law
t^2 |<k|H'|j>|^2 across decades of t and fits the log-log slope of the
relative gap (2 for real generators, because the error expansion is even
in t).

Usage:
    python scripts/perturbation_scaling.py --dim 6 --seed 20260808
"""

import argparse
import sys

import numpy as np

from entrodyn import (
    frobenius,
    hermitian_eig,
    transition_probability_exact,
    transition_probability_first_order,
)
from entrodyn.sampling import random_real_symmetric, rng_for


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--dim", type=int, default=6)
    parser.add_argument("--seed", type=int, default=20260808)
    parser.add_argument(
        "--decades", type=int, default=5, help="number of t decades below 1/||H'||"
    )
    args = parser.parse_args(argv)

    hp = random_real_symmetric(rng_for(args.seed), args.dim)
    basis = np.eye(args.dim, dtype=complex)
    off = np.abs(hp - np.diag(np.diagonal(hp)))
    k, j = np.unravel_index(int(np.argmax(off)), off.shape)
    norm = frobenius(hp)
    spectrum = hermitian_eig(hp)  # diagonalised once for every t
    print(f"dim={args.dim} seed={args.seed} pair=({j}->{k}) |element|={abs(hp[k, j]):.4f}")
    print("t*||H'||  exact           first-order     |ratio-1|")

    scaled_times = [10.0 ** (-d) for d in range(args.decades, 0, -1)]
    gaps = []
    for t_norm in scaled_times:
        t = t_norm / norm
        exact = transition_probability_exact(basis, j, k, spectrum, t)
        first = transition_probability_first_order(basis, j, k, hp, t)
        gap = abs(exact / first - 1.0)
        gaps.append(gap)
        print(f"{t_norm:8.0e}  {exact:.8e}  {first:.8e}  {gap:.3e}")

    slope = float(np.polyfit(np.log(scaled_times), np.log(gaps), 1)[0])
    print(f"fitted log-log slope of the gap: {slope:.4f} (expected 2)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
