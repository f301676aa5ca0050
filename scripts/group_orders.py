#!/usr/bin/env python3
"""Tabulate small orthogonal groups three ways.

For each dimension and Arf class: the closed-form order, the transvection
closure, and (in dimensions <= 4) the brute-force filter of the full
linear group, plus the rank-parity split of the elements.
"""

import argparse
import time

from quadpoint.oracle import filter_full_linear_group, orthogonal_group_order
from quadpoint.orthogroup import ENUMERATION_MAX_DIM, enumerate_group, rank_parity
from quadpoint.quadform import standard_form


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-dim", type=int, default=ENUMERATION_MAX_DIM,
                        help="largest dimension to enumerate (default and cap: "
                             f"{ENUMERATION_MAX_DIM})")
    args = parser.parse_args()
    if args.max_dim > ENUMERATION_MAX_DIM:
        parser.error(f"--max-dim {args.max_dim} is above the enumeration cap "
                     f"{ENUMERATION_MAX_DIM}")

    print(f"{'dim':>4} {'arf':>4} {'formula':>9} {'closure':>9} "
          f"{'filter':>7} {'psi=0':>7} {'psi=1':>7} {'secs':>6}")
    for dim in range(2, args.max_dim + 1, 2):
        for arf_value in (0, 1):
            f = standard_form(dim // 2, arf_value)
            t0 = time.monotonic()
            group = enumerate_group(f)
            elapsed = time.monotonic() - t0
            even = sum(1 for m in group if rank_parity(m) == 0)
            filtered = "-"
            if dim <= 4:
                filtered = len(filter_full_linear_group(f).elements)
            print(f"{dim:>4} {arf_value:>4} "
                  f"{orthogonal_group_order(dim, arf_value):>9} "
                  f"{len(group):>9} {filtered:>7} "
                  f"{even:>7} {len(group) - even:>7} {elapsed:>6.1f}")


if __name__ == "__main__":
    main()
