"""The integer Hom and Ext tables of knitted records against the module
computations of ``replab``."""

import random
from fractions import Fraction

from arglue import arquiver, linalg, replab
from arglue.core import KupischSeries, nakayama, starlike
from arglue.verifier import generate_sinks_sources
from conftest import glued_nakayama, random_acyclic_series


def _knitted_algebras():
    rng = random.Random(20261021)
    algebras = [starlike(rays) for rays in (
        [(5, "out"), (5, "out"), (4, "in")], [(4, "in"), (3, "in"),
                                              (3, "out")], [(6, "out")])]
    algebras += [nakayama(KupischSeries([2, 2, 3, 3, 3, 3, 2, 1]))]
    algebras += [nakayama(random_acyclic_series(rng, lmax=9, dmax=4))
                 for _ in range(3)]
    algebras += [glued_nakayama(rng, lmax=8) for _ in range(3)]
    algebras += [generate_sinks_sources(s, t, n)[0]
                 for s, t, n in ((2, 2, 3), (3, 1, 2), (1, 3, 4))]
    return algebras


def test_hom_and_ext_tables_match_module_computations():
    rng = random.Random(7)
    pairs = 0
    for A in _knitted_algebras():
        record = arquiver._complete_enumeration(A)
        assert record.knitted
        reps = record.modules()
        for _ in range(30):
            x, y = rng.randrange(len(reps)), rng.randrange(len(reps))
            assert record.hom(x).get(y, 0) == replab.hom_dim(reps[x], reps[y])
            for i in (1, 2, 3):
                assert record.ext(x, y, i) == replab.ext_dim(
                    reps[x], reps[y], i), (x, y, i)
            pairs += 1
    assert pairs == 390


def _inverse_cartan_form(A, x, y):
    """x^T C^-1 y for C[v][w] the number of relation-free paths v -> w."""
    q = A.quiver
    pos = q.vertex_pos
    C = [[Fraction(0)] * len(q.vertices) for _ in q.vertices]
    for v, w, _ in A.all_paths():
        C[pos[v]][pos[w]] += 1
    z = linalg.solve(C, [[Fraction(d)] for d in y])
    return sum(a * row[0] for a, row in zip(x, z))


def test_euler_form_is_the_alternating_sum_of_ext():
    # <x, y> = x^T C^-1 y = sum_i (-1)^i dim Ext^i(X, Y) (Ringel, LNM
    # 1099, 2.4); the global dimension is below the vertex count
    rng = random.Random(11)
    for A in _knitted_algebras():
        record = arquiver._complete_enumeration(A)
        width = len(A.quiver.vertices)
        for _ in range(12):
            x, y = (rng.randrange(len(record.dims)) for _ in range(2))
            alternating = record.hom(x).get(y, 0) + sum(
                (-1) ** i * record.ext(x, y, i) for i in range(1, width))
            assert alternating == _inverse_cartan_form(
                A, record.dims[x], record.dims[y])


def test_square_zero_omega_matches_the_syzygy_table():
    for s, t, n in ((2, 2, 2), (3, 2, 3)):
        L = generate_sinks_sources(s, t, n)[0]
        record = arquiver._complete_enumeration(L)
        assert record._square_zero()
        closed = [record.omega(x) for x in range(len(record.dims))]
        # read without writing the syzygy table, whose order is decompose's
        assert record._syzygies["+"] == {}
        for x, counts in enumerate(closed):
            table = {}
            for j in record.syzygy(x, "+"):
                table[j] = table.get(j, 0) + 1
            assert counts == table, x
