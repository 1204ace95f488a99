"""Shared fixture algebras for the test suite."""

import random
from fractions import Fraction

import pytest
from hypothesis import settings

from arglue import fracture as fx
from arglue import linalg, replab
from arglue.core import (BoundQuiverPresentation, KupischSeries, Quiver,
                         linear_a, nakayama, starlike)
from arglue.gluing import GluingSpec, glue

# the same examples on every run: a failure found once is found again;
# each test keeps its own max_examples
settings.register_profile("arglue", derandomize=True)
settings.load_profile("arglue")


def rad2_chain(m):
    """Linear chain on m vertices with all length-2 paths killed."""
    verts = [str(i) for i in range(1, m + 1)]
    arrows = [(f"a{i}", str(i), str(i + 1)) for i in range(1, m)]
    rels = [(f"a{i}", f"a{i + 1}") for i in range(1, m - 1)]
    return BoundQuiverPresentation(Quiver(verts, arrows), rels)


def chain_four():
    """Four-vertex chain with one length-3 relation (9 indecomposables)."""
    return BoundQuiverPresentation(
        Quiver(["0", "1", "2", "3"],
               [("d0", "0", "1"), ("d1", "1", "2"), ("d2", "2", "3")]),
        [("d0", "d1", "d2")])


def branched_ten():
    """Ten-vertex algebra: a 7-chain with a 3-chain branch into vertex 5."""
    return BoundQuiverPresentation(
        Quiver(["1", "2", "3", "4", "5", "6", "7", "1p", "2p", "3p"],
               [("b1", "1", "2"), ("b2", "2", "3"), ("b3", "3", "4"),
                ("b4", "4", "5"), ("b5", "5", "6"), ("b6", "6", "7"),
                ("c1", "1p", "2p"), ("c2", "2p", "3p"), ("c3", "3p", "5")]),
        [("b2", "b3"), ("b3", "b4"), ("c2", "c3"),
         ("b4", "b5", "b6"), ("c3", "b5")])


def fold_fixture():
    """Ten-vertex algebra whose ends fold onto each other: an 8-chain plus
    a 2-chain branch into vertex 6, bound so that the last three and first
    three chain vertices carry matching projective/injective tails."""
    return BoundQuiverPresentation(
        Quiver(["1", "2", "3", "4", "5", "6", "7", "8", "1p", "2p"],
               [("c1", "1", "2"), ("c2", "2", "3"), ("c3", "3", "4"),
                ("c4", "4", "5"), ("c5", "5", "6"), ("c6", "6", "7"),
                ("c7", "7", "8"), ("b1", "1p", "2p"), ("b2", "2p", "6")]),
        [("c1", "c2", "c3"), ("c2", "c3", "c4"), ("c4", "c5"),
         ("b1", "b2"), ("c5", "c6"), ("b2", "c6")])


def orbit_four_fixture():
    """Two 4-cycles sharing one vertex, radical square zero."""
    verts = [str(i) for i in range(1, 8)]
    arrows = [("a1", "1", "2"), ("a2", "2", "3"), ("a3", "3", "4"),
              ("a4", "4", "1"), ("b1", "1", "5"), ("b2", "5", "6"),
              ("b3", "6", "7"), ("b4", "7", "1")]
    seqs = (["a1", "a2", "a3", "a4"], ["b1", "b2", "b3", "b4"])
    rels = [(s[i], s[i + 1]) for s in seqs for i in range(3)]
    rels += [("a4", "a1"), ("a4", "b1"), ("b4", "b1"), ("b4", "a1")]
    return BoundQuiverPresentation(Quiver(verts, arrows), rels)


def not_directed():
    """Enumeration reports 31 nodes as complete, though the algebra is not
    representation-directed: rad P(3) = S(4) lies outside the
    preprojective component."""
    arrows = [("b", "0", "1"), ("c", "1", "3"), ("d", "3", "4"),
              ("e", "4", "5"), ("f", "0", "5"), ("g", "2", "5")]
    return BoundQuiverPresentation(
        Quiver([str(i) for i in range(6)], arrows), [("c", "d"), ("d", "e")])


def knit_corpus():
    """Acyclic and glued algebras, linear A_h, random acyclic Nakayama
    algebras and two cyclic ones, whose AR quivers are checked against
    oracles."""
    A4, B = chain_four(), branched_ten()
    glued = glue(GluingSpec(A4, left_ab(A4, "1"), B, right_ab(B, "3")))
    rng = random.Random(20260823)
    return ([rad2_chain(m) for m in (3, 4, 5)]
            + [A4, B, fold_fixture(), orbit_four_fixture(),
               glued.presentation]
            + [linear_a(h) for h in range(1, 11)]
            + [nakayama(random_acyclic_series(rng)) for _ in range(12)]
            + [nakayama(KupischSeries(s, cyclic=True))
               for s in ([2, 2, 3, 3, 3, 3, 2], [3, 2, 3, 2, 2, 2, 3, 4])])


def criterion_04_corpus():
    """Random acyclic Nakayama algebras, starlike algebras and Nakayama
    algebras glued to a linear chain, before criterion 04 keeps the
    directed ones with at most 12 vertices."""
    rng = random.Random(99)
    corpus = [nakayama(random_acyclic_series(rng, lmax=10, dmax=4))
              for _ in range(25)]
    shapes = [[(3, "out")], [(4, "out")], [(5, "in")], [(6, "out")],
              [(7, "in")],
              [(4, "out"), (4, "out"), (3, "in")],
              [(4, "in"), (4, "in"), (3, "out")],
              [(3, "out"), (3, "out"), (3, "in")],
              [(3, "in"), (3, "in"), (3, "out")],
              [(2, "out"), (2, "out"), (2, "in"), (2, "in")],
              [(3, "out"), (3, "out"), (3, "in"), (3, "in")],
              [(4, "out"), (3, "in"), (2, "in")],
              [(2, "in"), (2, "in"), (2, "out")],
              [(3, "out"), (3, "out"), (2, "in")],
              [(2, "out"), (2, "out"), (2, "in")],
              [(5, "out"), (5, "out"), (4, "in")]]
    corpus += [starlike(sh) for sh in shapes]
    corpus += [glued_nakayama(rng) for _ in range(14)]
    return corpus


def glued_nakayama(rng, lmax=5, dmax=4):
    """A random acyclic Nakayama algebra with a linear chain glued into a
    randomly chosen maximal left abutment."""
    A = nakayama(random_acyclic_series(rng, lmax=lmax, dmax=dmax))
    P = rng.choice([ab for ab in fx.abutments(A, "left") if ab.maximal])
    H = linear_a(P.height)
    I = next(ab for ab in fx.abutments(H, "right") if ab.height == P.height)
    return glue(GluingSpec(A, P, H, I)).presentation


def kronecker():
    """Two arrows 0 -> 1: representation-infinite."""
    return BoundQuiverPresentation(
        Quiver(["0", "1"], [("x", "0", "1"), ("y", "0", "1")]), [])


def two_presentations_of_a_sum():
    """(M, N): two presentations of [1,3] + [2,3] over 1 -> 3 <- 2 with
    no relations.  No element of the 2-element basis of Hom(M, N) is an
    isomorphism, and both elements of the basis of End(M), and their sum,
    are automorphisms."""
    A = BoundQuiverPresentation(
        Quiver(["1", "2", "3"], [("a", "1", "3"), ("b", "2", "3")]), [])
    one, two, zero = Fraction(1), Fraction(2), Fraction(0)
    dims = {"1": 1, "2": 1, "3": 2}
    M = replab.Representation(A, dims, {"a": [[one], [one]],
                                        "b": [[one], [two]]})
    N = replab.Representation(A, dims, {"a": [[one], [zero]],
                                        "b": [[zero], [one]]})
    return M, N


def rebased(M, rng):
    """M under a random invertible change of basis g at one vertex v of
    its support: g M_a on the arrows into v, M_a g^-1 on those out of v.
    Isomorphic to M, mostly with other matrices."""
    q = M.algebra.quiver
    v = rng.choice(list(M.dim))
    d = M.dim[v]
    g = None
    while g is None or linalg.rank(g) < d:
        g = [[Fraction(rng.randint(-3, 3)) for _ in range(d)]
             for _ in range(d)]
    inverse = linalg.invert(g)
    mats = {}
    for a, m in M.mats.items():
        if q.tgt[a] == v:
            m = linalg.matmul(g, m)
        if q.src[a] == v:
            m = linalg.matmul(m, inverse)
        mats[a] = m
    return replab.Representation(M.algebra, dict(M.dim), mats)


def left_ab(A, anchor, height=None):
    return next(ab for ab in fx.abutments(A, "left") if ab.anchor == anchor
                and (height is None or ab.height == height))


def right_ab(A, anchor, height=None):
    return next(ab for ab in fx.abutments(A, "right") if ab.anchor == anchor
                and (height is None or ab.height == height))


def random_acyclic_series(rng, lmax=10, dmax=5):
    """Random valid non-cyclic Kupisch series of length <= lmax."""
    length = rng.randint(1, lmax)
    if length == 1:
        return KupischSeries([1])
    d = [rng.randint(2, dmax) for _ in range(length - 1)] + [1]
    for i in range(length - 2, -1, -1):
        if d[i] - 1 > d[i + 1]:
            d[i] = d[i + 1] + 1
    return KupischSeries(d, cyclic=False)


def random_cyclic_series(rng, lmax=10, dmax=5, brick=True):
    """Random valid cyclic Kupisch series; with ``brick`` the entries are
    capped at the cycle length so every uniserial module is a brick."""
    length = rng.randint(2, lmax)
    cap = min(dmax, length) if brick else dmax
    d = [rng.randint(2, cap) for _ in range(length)]
    for _ in range(2 * length):
        for i in range(length):
            if d[i - 1] - 1 > d[i]:
                d[i] = d[i - 1] - 1
    return KupischSeries(d, cyclic=True)


@pytest.fixture
def rng():
    return random.Random(20260823)
