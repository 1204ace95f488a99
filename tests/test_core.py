import json
import random

import pytest

from arglue.core import (AlgebraError, BoundQuiverPresentation, KupischSeries,
                         NonAdmissibleError, Quiver, kupisch_of, linear_a,
                         nakayama, opposite, parse_algebra,
                         rename_presentation, starlike)
from conftest import branched_ten, chain_four, rad2_chain


def test_quiver_structure():
    q = Quiver(["1", "2", "3"], [("a", "1", "2"), ("b", "2", "3")])
    assert q.sources() == ["1"]
    assert q.sinks() == ["3"]
    assert q.out["2"] == ["b"]
    assert q.inc["2"] == ["a"]
    assert q.src["b"] == "2" and q.tgt["b"] == "3"


def test_duplicate_names_rejected():
    with pytest.raises(AlgebraError):
        Quiver(["1", "1"], [])
    with pytest.raises(AlgebraError):
        Quiver(["1", "2"], [("a", "1", "2"), ("a", "2", "1")])


def test_relation_free_paths_and_dimension():
    A = rad2_chain(3)
    # trivial path at each vertex plus one arrow path from 1 and from 2
    assert len(A.paths_from("1")) == 2
    assert len(A.paths_from("2")) == 2
    assert len(A.paths_from("3")) == 1
    assert A.dimension() == 5
    assert not A.is_relation_free(("a1", "a2"))


def test_presentation_equality_and_renaming():
    A = rad2_chain(3)
    B = rename_presentation(A, {"1": "x", "2": "y", "3": "z"},
                            {"a1": "f", "a2": "g"})
    assert sorted(B.quiver.vertices) == ["x", "y", "z"]
    back = rename_presentation(B, {"x": "1", "y": "2", "z": "3"},
                               {"f": "a1", "g": "a2"})
    assert back == A
    assert A != B


def test_relation_reduction():
    # a relation containing another is dropped in the reduced presentation
    A = BoundQuiverPresentation(
        Quiver(["1", "2", "3", "4"],
               [("a", "1", "2"), ("b", "2", "3"), ("c", "3", "4")]),
        [("a", "b"), ("a", "b", "c")])
    assert A.relations == frozenset({("a", "b")})


def test_kupisch_series_validation():
    with pytest.raises(AlgebraError):
        KupischSeries([2, 3])          # must end in 1
    with pytest.raises(AlgebraError):
        KupischSeries([4, 2, 1])       # drop by more than one
    with pytest.raises(AlgebraError):
        KupischSeries([2, 1, 2], cyclic=True)  # cyclic entries >= 2
    assert KupischSeries([3, 2, 2], cyclic=True).normalized().entries \
        == [2, 2, 3]
    assert KupischSeries([3, 2, 2], cyclic=True) \
        == KupischSeries([2, 3, 2], cyclic=True)


def test_nakayama_round_trip_acyclic():
    s = KupischSeries([2, 2, 3, 3, 3, 3, 2, 1])
    A = nakayama(s)
    assert kupisch_of(A) == s
    assert len(A.quiver.vertices) == 8


def test_nakayama_round_trip_cyclic():
    s = KupischSeries([2, 2, 3, 3, 3, 3, 2], cyclic=True)
    A = nakayama(s)
    assert kupisch_of(A) == s.normalized()
    assert len(A.quiver.arrows) == 7


def test_kupisch_of_rejects_branched():
    with pytest.raises(AlgebraError):
        kupisch_of(branched_ten())


def test_linear_a():
    H = linear_a(4)
    assert kupisch_of(H) == KupischSeries([4, 3, 2, 1])
    assert H.dimension() == 10


def test_starlike_shapes():
    S = starlike([(5, "out"), (5, "out"), (4, "in")])
    assert len(S.quiver.vertices) == 12
    assert all(len(r) == 2 for r in S.relations)
    with pytest.raises(AlgebraError):
        starlike([(3, "out"), (3, "in")])  # a line, not a star
    with pytest.raises(AlgebraError):
        starlike([])


def test_starlike_path_basis_size():
    S = starlike([(5, "out"), (5, "out"), (4, "in")])
    total = sum(1 for _ in S.all_paths())
    # 12 trivial paths + one per arrow with the square of the radical zero
    assert total == 12 + len(S.quiver.arrows) == 23


def test_opposite_involution():
    A = branched_ten()
    assert opposite(opposite(A)) == A
    assert len(opposite(A).quiver.sources()) == len(A.quiver.sinks())


def test_parse_algebra_kupisch_and_starlike():
    A = parse_algebra({"kupisch": [2, 2, 1]})
    assert kupisch_of(A) == KupischSeries([2, 2, 1])
    C = parse_algebra({"kupisch": [2, 2], "cyclic": True})
    assert kupisch_of(C) == KupischSeries([2, 2], cyclic=True)
    S = parse_algebra({"starlike": [{"m": 4, "dir": "out"},
                                    {"m": 4, "dir": "out"},
                                    {"m": 3, "dir": "in"}]})
    assert len(S.quiver.vertices) == 9


def test_parse_algebra_json_round_trip():
    A = chain_four()
    doc = json.loads(json.dumps(A.to_json()))
    assert parse_algebra(doc) == A


def _old_reduction(relations):
    """The relation reduction as a pairwise scan: drop each relation that
    contains a shorter kept one as a contiguous sub-path."""
    def contains(path, sub):
        return any(path[i:i + len(sub)] == sub
                   for i in range(len(path) - len(sub) + 1))

    kept = []
    for r in sorted(set(relations), key=lambda r: (len(r), r)):
        if not any(contains(r, s) for s in kept):
            kept.append(r)
    return frozenset(kept)


def test_relation_lookups_match_the_scans():
    rng = random.Random(7)
    # a 2-cycle with a tail: every relation is a path around it
    q = Quiver(["1", "2", "3"],
               [("a", "1", "2"), ("b", "2", "1"), ("c", "2", "3")])
    walks = []
    for start in ("a", "b"):
        walk = [start]
        for _ in range(5):
            walk.append("b" if walk[-1] == "a" else "a")
        walks += [tuple(walk[i:j]) for i in range(6) for j in range(i + 2, 7)]
        walks += [tuple(walk[i:j]) + ("c",) for i in range(6)
                  for j in range(i + 1, 7) if walk[j - 1] == "a"]
    for _ in range(40):
        rels = rng.sample(walks, rng.randint(1, 6)) + [("a", "b", "a")]
        A = BoundQuiverPresentation(q, rels)
        assert A.relations == _old_reduction(rels)
        for _s, t, p in A.all_paths():
            for a in q.out[t]:
                assert A._extension_survives(p, a) == A.is_relation_free(
                    p + (a,))


def _two_loops(relations):
    q = Quiver(["0"], [("x", "0", "0"), ("y", "0", "0")])
    return BoundQuiverPresentation(q, relations)


def test_long_relation_free_paths_are_admissible():
    # finite algebras whose relation-free paths run past 64 arrows
    assert linear_a(65).dimension() == 65 * 66 // 2
    assert linear_a(120).dimension() == 120 * 121 // 2
    assert nakayama(KupischSeries(list(range(90, 0, -1)))).dimension() \
        == 90 * 91 // 2
    assert nakayama(KupischSeries([70, 70], cyclic=True)).dimension() == 140


@pytest.mark.parametrize("relations", [
    [], [("x", "x"), ("y", "y")], [("x", "y")]])
def test_cycles_that_survive_the_relations_are_rejected(relations):
    with pytest.raises(NonAdmissibleError, match="cycle survives"):
        _two_loops(relations)


def test_finite_two_loop_algebra_is_admissible():
    A = _two_loops([("x", "x"), ("y", "y"), ("x", "y", "x")])
    # e, x, y, xy, yx, yxy
    assert A.dimension() == 6
