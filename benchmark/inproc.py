"""The in-process workload: library calls into quadpoint from one caller.

The workload builds its inputs from the seed with the reference module,
hands quadpoint only the finished objects, and calls quadpoint through
module attributes (``orthogroup.decompose``), so a tracer that replaces
those attributes sees every call.  ``run(i)`` is the timed operation;
``check(i, out)`` compares its output with the reference and returns a
reason when it is wrong; ``finish()`` checks what spans the whole run.
"""

from __future__ import annotations

import random
import resource

import reference as ref
from quadpoint import gf2, orthogroup, quadform


def op_rng(seed: int, i: int) -> random.Random:
    """The generator of operation i's inputs: any share of a run's
    operations can be built without building the others."""
    return random.Random(f"{seed}:{i}")


class DecomposeLarge:
    """Certify, decompose and recompose a long random word on a fresh form
    of dimension 52 to 76."""

    name = "decompose_large"
    # Operation i works in genus GENERA[i % len(GENERA)], so every round, and
    # so every run, has the same mix of sizes.  The spread of sizes spreads
    # the latencies: with operations of one cost, a run's latencies sit on
    # the machine's fast and slow speed levels and op_p50_ms jumps between
    # them from run to run.
    GENERA = tuple(range(26, 39))
    WORD = 128
    # With ops_per_second, sets the operation count: see worker.share.  Seven
    # a second, in whole rounds, fills about --seconds at about 110 ms per
    # operation and check.
    round_size = len(GENERA)
    ops_per_second = 7

    def __init__(self, seed: int, indices: range) -> None:
        self.word_lengths: list[int] = []
        self.excess: list[int] = []
        self.items = []
        for i in indices:
            rng = op_rng(seed, i)
            genus = self.GENERA[i % self.round_size]
            dim = 2 * genus
            gram, gbits = ref.random_form(rng, genus, rng.getrandbits(1))
            word = [ref.random_vector(rng, gram, gbits, 1) for _ in range(self.WORD)]
            rows = ref.product(gram, ref.identity(dim), word)
            f = quadform.QuadraticForm(dim, gf2.BitMatrix(dim, dim, tuple(gram)),
                                       gf2.BitVector(dim, gbits))
            self.items.append((gram, gbits, f, gf2.BitMatrix(dim, dim, tuple(rows))))

    def run(self, i):
        _, _, f, m = self.items[i]
        t = orthogroup.OrthogonalMap(f, m)
        u_flag, word = orthogroup.decompose(t)
        return u_flag, word, orthogroup.recompose(f, u_flag, word)

    def check(self, i, out) -> str | None:
        gram, gbits, _, m = self.items[i]
        u_flag, word, recomposed = out
        if recomposed != m:
            return "recompose does not return the input"
        if any(c.length != len(gram) for c in word):
            return "word vector of the wrong length"
        problem, r = ref.check_decomposition(gram, gbits, m.data, u_flag,
                                             [c.bits for c in word])
        if problem is None:
            self.word_lengths.append(len(word))
            self.excess.append(len(word) - r)
        return problem

    def finish(self) -> str | None:
        return None

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    def close(self) -> None:
        pass


WORKLOADS = {DecomposeLarge.name: DecomposeLarge}
