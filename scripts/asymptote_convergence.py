#!/usr/bin/env python3
"""How fast the finite-support bound approaches its infinite-precision limit.

For a fixed concentration parameter the discrete kernel at
``dalpha = 2*pi*xi/(dk+1)`` approaches the sinc operator of the limit, whose
top eigenvalue comes from its Legendre-basis blocks; the table shows their
difference shrinking as the support grows.  The last column, ``(dk+1)^2 * difference``, settles to
the constant ``C(xi)`` of the ``1/(dk+1)^2`` approach.
"""

import argparse
import math

from phasebound import asymptotic_least_upper_bound, least_upper_bound


def run(xi: float, dks: list[int]) -> None:
    asymptote, _ = asymptotic_least_upper_bound(xi)
    print(f"xi = {xi}")
    print(
        f"{'dk':>6}  {'dalpha':>12}  {'lambda0':>20}  {'asymptote':>20}  "
        f"{'difference':>12}  {'(dk+1)^2*diff':>13}"
    )
    for dk in dks:
        dalpha = 2.0 * math.pi * xi / (dk + 1)
        lam, _ = least_upper_bound(dalpha, dk)
        diff = lam - asymptote
        print(
            f"{dk:>6}  {dalpha:>12.6f}  {lam:>20.15f}  "
            f"{asymptote:>20.15f}  {diff:>12.3e}  {(dk + 1) ** 2 * diff:>13.4f}"
        )


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--xi", type=float, default=1.0)
    parser.add_argument(
        "--dk", type=int, nargs="+", default=[5, 10, 20, 50, 100, 200, 400]
    )
    args = parser.parse_args()
    run(args.xi, args.dk)
