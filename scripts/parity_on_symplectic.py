#!/usr/bin/env python3
"""Where does rank parity stop being a homomorphism?

On an orthogonal group, rank(T - Id) mod 2 is additive.  On the larger
symplectic group (maps preserving only the bilinear form) it is not; this
script searches random products of symplectic transvections for a
violating pair and prints the first witness found.
"""

import argparse
import random

from quadpoint.gf2 import BitMatrix, BitVector, multiply
from quadpoint.orthogroup import rank_parity, transvection_matrix
from quadpoint.quadform import standard_form


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--genus", type=int, default=3, metavar="N")
    parser.add_argument("--seed", type=int, default=0, metavar="N")
    parser.add_argument("--tries", type=int, default=10_000, metavar="N")
    args = parser.parse_args()
    if args.genus < 1:
        parser.error(f"--genus {args.genus} is below 1, the least genus with a nonzero vector")

    f = standard_form(args.genus, 0)
    dim = f.dim
    rng = random.Random(args.seed)

    def random_vector() -> BitVector:
        """Uniform over the nonzero vectors: a uniform draw, redrawn on 0."""
        bits = 0
        while not bits:
            bits = rng.getrandbits(dim)
        return BitVector(dim, bits)

    def random_symplectic() -> BitMatrix:
        m = BitMatrix.identity(dim)
        for _ in range(rng.randint(1, dim + 2)):
            m = multiply(transvection_matrix(f, random_vector()), m)
        return m

    for attempt in range(args.tries):
        s, t = random_symplectic(), random_symplectic()
        lhs = rank_parity(multiply(s, t))
        rhs = rank_parity(s) ^ rank_parity(t)
        if lhs != rhs:
            print(f"witness found after {attempt + 1} attempts (dim {dim}):")
            print("S =")
            print(s)
            print(f"psi(S) = {rank_parity(s)}")
            print("T =")
            print(t)
            print(f"psi(T) = {rank_parity(t)}")
            print(f"psi(S T) = {lhs} != {rhs}")
            return
    print(f"no witness in {args.tries} tries; "
          "the sampled maps may all have preserved a common form")


if __name__ == "__main__":
    main()
