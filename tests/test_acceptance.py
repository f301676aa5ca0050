"""Acceptance suite: one test per criterion, printing a PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import random
import time
from pathlib import Path

from quadpoint.gf2 import BitMatrix, BitVector, multiply, rank, rank_rows
from quadpoint.mcg import (
    MappingClass,
    SurfacePinkallForm,
    connected_sum,
    evaluate_word,
    genus1_generators,
    mapping_class_parity,
    quadruple_point_invariant,
)
from quadpoint.oracle import (
    democratic_arf,
    filter_full_linear_group,
    orthogonal_group_order,
    random_orthogonal,
)
from quadpoint.orthogroup import (
    OrthogonalMap,
    canonical_umap,
    decompose,
    enumerate_group,
    fixed_space,
    is_orthogonal,
    rank_parity,
    recompose,
    transvection_matrix,
)
from quadpoint.quadform import (
    QuadraticForm,
    arf,
    bilinear,
    direct_sum,
    evaluate,
    find_connector,
    pullback,
    standard_form,
    standard_gram,
)

from conftest import all_vectors
from test_mcg import compose, random_word

HERE = Path(__file__).parent


def report(num, name, elapsed, failures, cap=None):
    ok = not failures and (cap is None or elapsed < cap)
    print(f"\nACCEPTANCE {num} {name}: {'PASS' if ok else 'FAIL'} ({elapsed:.1f}s)")
    assert ok, (f"criterion {num}", failures[:5], f"elapsed {elapsed:.1f}s cap {cap}")


def g_ones(f):
    return [v for v in all_vectors(f.dim) if evaluate(f, v) == 1]


def test_c1_reference_value_regression():
    t0 = time.monotonic()
    failures = []
    s10 = SurfacePinkallForm.standard(1, 0)
    got = [mapping_class_parity(s10, h) for h in genus1_generators(0)]
    if got != [0, 0, 0, 1]:
        failures.append(("genus1 arf0 generators", got))
    s11 = SurfacePinkallForm.standard(1, 1)
    got = [mapping_class_parity(s11, h) for h in genus1_generators(1)]
    if got != [0, 1]:
        failures.append(("genus1 arf1 generators", got))
    s0 = SurfacePinkallForm.standard(0, 0)
    if quadruple_point_invariant(s0, MappingClass(BitMatrix.identity(0), 1)) != 1:
        failures.append("genus0 reflection")
    s20 = SurfacePinkallForm.standard(2, 0)
    u_class = MappingClass(canonical_umap(s20.form).matrix, 0)
    if quadruple_point_invariant(s20, u_class) != 0:
        failures.append("genus2 u-map")
    report(1, "reference-value regression", time.monotonic() - t0, failures, cap=1.0)


def test_c2_rank_parity_homomorphism(small_groups):
    t0 = time.monotonic()
    failures = []
    # exhaustive over every ordered pair in dimensions 2 and 4
    for (genus, arf_value), group in small_groups.items():
        parities = {m.data: rank_parity(m) for m in group}
        datas = list(parities)
        for m1 in datas:
            p1 = parities[m1]
            a = BitMatrix(2 * genus, 2 * genus, m1)
            for m2 in datas:
                prod = multiply(a, BitMatrix(2 * genus, 2 * genus, m2))
                if parities[prod.data] != p1 ^ parities[m2]:
                    failures.append((genus, arf_value, m1, m2))
    # randomized pairs in dimensions 6 through 16
    pairs_per_dim = 1667
    for genus in (3, 4, 5, 6, 7, 8):
        f = standard_form(genus, genus % 2)
        rng = random.Random(100 + genus)
        pool = [random_orthogonal(f, seed=1000 * genus + i, length=rng.randint(0, 2 * genus + 3)).matrix
                for i in range(120)]
        for _ in range(pairs_per_dim):
            m1, m2 = rng.choice(pool), rng.choice(pool)
            if rank_parity(multiply(m1, m2)) != rank_parity(m1) ^ rank_parity(m2):
                failures.append(("random", 2 * genus))
    report(2, "rank-parity homomorphism", time.monotonic() - t0, failures, cap=30.0)


def test_c3_transvection_generation(small_groups, dim6_groups):
    dim6_groups, closure_elapsed = dim6_groups
    t0 = time.monotonic() - closure_elapsed  # charge the closure to this criterion
    failures = []
    # dimensions 2 and 4: closure must equal the brute-force filter exactly
    for (genus, arf_value), group in small_groups.items():
        table = filter_full_linear_group(standard_form(genus, arf_value))
        if group != set(table.elements):
            failures.append(("closure != filter", genus, arf_value))
        if len(table.elements) != orthogonal_group_order(2 * genus, arf_value):
            failures.append(("formula mismatch", genus, arf_value))
    # the exceptional case: transvections alone give an index-2 subgroup
    f20 = standard_form(2, 0)
    without_u = enumerate_group(f20, include_umap=False)
    full = small_groups[(2, 0)]
    if not (len(without_u) * 2 == len(full) and without_u < full):
        failures.append("dim4 arf0 index-2 structure")
    # dimension 6 by closure, order checked against the same formula that the
    # dimension-2/4 filters validated above
    for arf_value, group in dim6_groups.items():
        if len(group) != orthogonal_group_order(6, arf_value):
            failures.append(("dim6 order", arf_value, len(group)))
        sample = random.Random(5).sample(sorted(group, key=lambda m: m.data), 50)
        f6 = standard_form(3, arf_value)
        if not all(is_orthogonal(f6, m) for m in sample):
            failures.append(("dim6 member not orthogonal", arf_value))
    report(3, "transvection generation", time.monotonic() - t0, failures, cap=60.0)


def test_c4_decomposition_round_trip(small_groups, dim6_groups, decompositions):
    dim6_groups = dim6_groups[0]
    tables, tables_elapsed = decompositions
    t0 = time.monotonic() - tables_elapsed  # charge the shared decompositions to this criterion
    failures = []
    groups = list(small_groups.items())
    groups += [((3, a), grp) for a, grp in dim6_groups.items()]
    for (genus, arf_value), group in groups:
        table = tables[genus, arf_value]
        for m in group:
            t, u_flag, word, recomposed = table[m]  # a missing element fails here
            if recomposed != m:
                failures.append(("recompose", 2 * genus, m.data))
            elif len(word) % 2 != rank_parity(t):
                failures.append(("parity", 2 * genus, m.data))
    for genus in (4, 5, 6, 7, 8):
        f = standard_form(genus, genus % 2)
        rng = random.Random(genus)
        for i in range(200):
            t = random_orthogonal(f, seed=77 * genus + i,
                                  length=rng.randint(0, 2 * genus + 4))
            u_flag, word = decompose(t)
            if recompose(f, u_flag, word) != t.matrix:
                failures.append(("recompose random", 2 * genus, i))
            elif len(word) % 2 != rank_parity(t):
                failures.append(("parity random", 2 * genus, i))
    report(4, "decomposition round-trip", time.monotonic() - t0, failures)


def test_c5_image_duality_and_fixed_step(small_groups):
    t0 = time.monotonic()
    failures = []
    for (genus, arf_value), group in small_groups.items():
        f = standard_form(genus, arf_value)
        ones = g_ones(f)
        for m in group:
            t = OrthogonalMap(f, m)
            diff = m ^ BitMatrix.identity(f.dim)
            fixed = fixed_space(t)
            # image of (T - Id) spans exactly the B-complement of the fixed space
            if rank(diff) != f.dim - len(fixed):
                failures.append(("duality rank", genus, arf_value, m.data))
            for j in range(f.dim):
                col = diff.column(j)
                if any(bilinear(f, col, v) for v in fixed):
                    failures.append(("duality orthogonality", genus, arf_value))
            # composing with any transvection steps the fixed dimension by one
            for a in ones:
                contained = all(bilinear(f, v, a) == 0 for v in fixed)
                composed = multiply(m, transvection_matrix(f, a))
                d2 = f.dim - rank(composed ^ BitMatrix.identity(f.dim))
                expected = len(fixed) + (1 if contained else -1)
                if d2 != expected:
                    failures.append(("fixed step", genus, arf_value, a.bits))
    report(5, "image duality and fixed-space step", time.monotonic() - t0, failures)


def test_c6_arf_oracle_agreement():
    t0 = time.monotonic()
    failures = []
    for genus in (1, 2, 3):
        gram = standard_gram(genus)
        for gbits in range(1 << (2 * genus)):
            f = QuadraticForm(2 * genus, gram, BitVector(2 * genus, gbits))
            if arf(f) != democratic_arf(f):
                failures.append(("exhaustive", genus, gbits))
    rng = random.Random(23)

    def random_invertible(n):
        rows = []
        while len(rows) < n:
            cand = rng.randrange(1, 1 << n)
            if rank_rows(rows + [cand]) == len(rows) + 1:
                rows.append(cand)
        return BitMatrix(n, n, tuple(rows))

    twisted = []
    for _ in range(1000):
        genus = rng.randint(1, 3)
        base = standard_form(genus, rng.randint(0, 1))
        g = pullback(base, random_invertible(2 * genus))
        twisted.append(g)
        if arf(g) != democratic_arf(g):
            failures.append(("basis change", g))
    for _ in range(1000):
        f1, f2 = rng.choice(twisted), rng.choice(twisted)
        if arf(direct_sum(f1, f2)) != arf(f1) ^ arf(f2):
            failures.append(("additivity", f1, f2))
    report(6, "arf oracle agreement", time.monotonic() - t0, failures)


def _isotropic_tuples(f, ones, max_k):
    """All ordered independent tuples of pairwise-orthogonal g=1 vectors."""
    tuples = [[]]
    for _ in range(max_k):
        extended = []
        for tup in tuples:
            for v in ones:
                if any(bilinear(f, v, w) for w in tup):
                    continue
                if rank_rows([w.bits for w in tup] + [v.bits]) != len(tup) + 1:
                    continue
                extended.append(tup + [v])
        if not extended:
            break
        yield from extended
        tuples = extended


def _span(vectors, dim):
    bits = {0}
    for v in vectors:
        bits |= {b ^ v.bits for b in bits}
    return {BitVector(dim, b) for b in bits}


def test_c7_connector_exhaustive():
    t0 = time.monotonic()
    failures = []
    checked = 0
    for genus, arf_value in [(1, 1), (2, 0), (2, 1), (3, 0), (3, 1)]:
        f = standard_form(genus, arf_value)
        dim = f.dim
        ones = g_ones(f)
        excluded_40 = (dim, arf_value) == (4, 0)
        for ws in [[]] + list(_isotropic_tuples(f, ones, dim // 2)):
            perp = [
                v for v in all_vectors(dim)
                if all(bilinear(f, v, w) == 0 for w in ws)
            ]
            w_span = _span(ws, dim)
            candidates = [
                v for v in perp
                if v not in w_span and evaluate(f, v) == 1
            ]
            for a1 in candidates:
                for a2 in candidates:
                    if bilinear(f, a1, a2):
                        continue
                    if excluded_40 and not ws and a1 != a2:
                        try:
                            find_connector(f, ws, a1, a2)
                            failures.append(("should be excluded", a1, a2))
                        except ValueError:
                            pass
                        continue
                    c = find_connector(f, ws, a1, a2)
                    checked += 1
                    if evaluate(f, c) != 1 or bilinear(f, a1, c) != 1 \
                            or bilinear(f, a2, c) != 1 \
                            or any(bilinear(f, w, c) for w in ws):
                        failures.append(("postcondition", genus, arf_value, a1, a2))
    # the dimension-2 Arf-0 configuration is rejected outright
    f10 = standard_form(1, 0)
    merge = BitVector.from_string("11")
    try:
        find_connector(f10, [], merge, merge)
        failures.append("dim2 arf0 not excluded")
    except ValueError:
        pass
    if not checked:
        failures.append("no configurations checked")
    report(7, f"connector search ({checked} configurations)",
           time.monotonic() - t0, failures, cap=60.0)


def test_c8_surface_parity_homomorphism():
    t0 = time.monotonic()
    failures = []
    rng = random.Random(31)
    surfaces = [SurfacePinkallForm.standard(g, a)
                for g in (1, 2, 3) for a in (0, 1)]
    for _ in range(10_000):
        s = rng.choice(surfaces)
        h1 = evaluate_word(s, random_word(s, rng, rng.randint(0, 5)))
        h2 = evaluate_word(s, random_word(s, rng, rng.randint(0, 5)))
        lhs = mapping_class_parity(s, compose(h1, h2))
        if lhs != mapping_class_parity(s, h1) ^ mapping_class_parity(s, h2):
            failures.append(("word pair", s.genus, arf(s.form)))
    for _ in range(1000):
        s1, s2 = rng.choice(surfaces), rng.choice(surfaces)
        eps = rng.randint(0, 1)
        h1 = MappingClass(
            evaluate_word(s1, random_word(s1, rng, rng.randint(0, 5))).action, eps)
        h2 = MappingClass(
            evaluate_word(s2, random_word(s2, rng, rng.randint(0, 5))).action, eps)
        joined = SurfacePinkallForm(s1.genus + s2.genus,
                                    direct_sum(s1.form, s2.form))
        lhs = mapping_class_parity(joined, connected_sum(h1, h2))
        rhs = mapping_class_parity(s1, h1) ^ mapping_class_parity(s2, h2) ^ eps
        if lhs != rhs:
            failures.append(("block sum", s1.genus, s2.genus))
    report(8, "surface parity homomorphism", time.monotonic() - t0, failures)


def test_c9_cli_determinism():
    from test_cli import GOLDEN_COMMANDS, run_cli

    t0 = time.monotonic()
    failures = []
    for name, argv in sorted(GOLDEN_COMMANDS.items()):
        runs = [run_cli(argv) for _ in range(2)]
        golden = (HERE / "golden" / f"{name}.txt").read_text()
        if runs[0].returncode != 0 or runs[1].returncode != 0:
            failures.append(("exit", name))
        elif runs[0].stdout != runs[1].stdout:
            failures.append(("nondeterministic", name))
        elif runs[0].stdout != golden:
            failures.append(("golden mismatch", name))
    report(9, "cli determinism", time.monotonic() - t0, failures)
