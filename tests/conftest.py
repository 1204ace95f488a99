"""Shared fixture algebras for the test suite."""

import random

import pytest
from hypothesis import settings

from arglue import fracture as fx
from arglue.core import BoundQuiverPresentation, KupischSeries, Quiver

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
