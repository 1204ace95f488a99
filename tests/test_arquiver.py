import random

import pytest

from arglue import arquiver, replab, verifier
from arglue.core import (BoundQuiverPresentation, KupischSeries, Quiver,
                         linear_a, nakayama, starlike)
from arglue.gluing import GluingSpec, glue
from conftest import (branched_ten, chain_four, fold_fixture, left_ab,
                      orbit_four_fixture, rad2_chain, random_acyclic_series,
                      random_cyclic_series, right_ab)
from oracles import eager_levels, radical_arrows, translate_each


def test_indecomposable_counts():
    assert len(arquiver.indecomposables(rad2_chain(3))) == 5
    assert len(arquiver.indecomposables(linear_a(3))) == 6
    assert len(arquiver.indecomposables(chain_four())) == 9
    assert len(arquiver.indecomposables(branched_ten())) == 24


def test_indecomposables_cyclic_nakayama_uses_uniserials():
    s = KupischSeries([3, 2, 3, 2, 2, 2, 3, 4], cyclic=True)
    A = nakayama(s)
    # knitting from the projectives would miss the periodic orbits here
    assert len(arquiver.indecomposables(A)) == sum(s.entries) == 21


def test_indecomposables_cycle_with_shared_vertex():
    # not a Nakayama quiver, but finite type: knitting must close up
    O4 = orbit_four_fixture()
    ind = arquiver.indecomposables(O4)
    assert len(ind) == 17


def test_enumeration_cap_raises():
    S = starlike([(9, "out"), (9, "out"), (9, "in"), (9, "in")])
    # representation-finite would be fine; this one is, so use a tiny cap
    with pytest.raises(arquiver.EnumerationError):
        arquiver.indecomposables(S, cap=4)


def test_ar_quiver_mesh_identity_on_chain():
    A = chain_four()
    ar = arquiver.ar_quiver(A)
    assert ar.node_count() == 9
    assert arquiver.verify_mesh_identity(ar) == []


def test_ar_quiver_mesh_identity_on_branched():
    ar = arquiver.ar_quiver(branched_ten())
    assert ar.node_count() == 24
    assert arquiver.verify_mesh_identity(ar) == []


def test_ar_quiver_mesh_identity_cyclic():
    A = nakayama(KupischSeries([2, 2, 3, 3, 3, 3, 2], cyclic=True))
    ar = arquiver.ar_quiver(A)
    assert ar.node_count() == 18
    assert arquiver.verify_mesh_identity(ar) == []


def _oracle_parts(A, reps):
    """Node ids, markers, arrows and tau of the AR quiver on ``reps`` the
    way they were found before knitting: markers by looking up every P(v)
    and I(v), tau by translating each non-projective node, and arrows as
    dim rad - dim rad^2."""
    ids, seen = [], {}
    for rep in arquiver.indecomposables(A):
        dv = rep.dim_vector()
        k = seen[dv] = seen.get(dv, -1) + 1
        ids.append("(" + ",".join(map(str, dv)) + f")@{k}")
    index = arquiver._IsoIndex(reps, dedupe=False)
    proj = {index.find(replab.projective(A, v)) for v in A.quiver.vertices}
    inj = {index.find(replab.injective(A, v)) for v in A.quiver.vertices}
    markers = [(i in proj, i in inj) for i in range(len(reps))]
    tau = [(ids[i], ids[index.find(replab.ar_translate(rep, "+"))])
           for i, rep in enumerate(reps) if i not in proj]
    arrows = [((ids[i], ids[j]), mult)
              for (i, j), mult in radical_arrows(reps).items()]
    return ids, markers, arrows, tau


def test_iso_index_keeps_first_of_each_class_in_order():
    A = chain_four()
    ind = arquiver.indecomposables(A)
    rebuilt = [replab.Representation(
        A, dict(M.dim), {a: [list(row) for row in m]
                         for a, m in M.mats.items()}) for M in ind]
    zero = replab.zero_rep(A)
    index = arquiver._IsoIndex([zero] + ind + rebuilt[::-1] + [zero] + ind)
    assert [id(M) for M in index.reps] == [id(M) for M in ind]
    for i, M in enumerate(ind):
        assert index.find(M) == i and index.find(rebuilt[i]) == i
    assert index.find(zero) is None
    assert index.find(replab.simple(linear_a(2), "1")) is None
    # without dedupe the list is kept as given, repeats and zeros too
    given = [zero] + ind + rebuilt
    kept = arquiver._IsoIndex(given, dedupe=False)
    assert [id(M) for M in kept.reps] == [id(M) for M in given]
    assert kept.find(zero) == 0 and kept.find(ind[3]) == 4
    assert kept.add(ind[0]) == len(given)


def test_subcategory_adds_each_kept_module_once(monkeypatch):
    A = chain_four()
    ind = arquiver.indecomposables(A)
    added = []
    add = arquiver._IsoIndex.add

    def counted(self, rep):
        added.append(rep)
        return add(self, rep)

    monkeypatch.setattr(arquiver._IsoIndex, "add", counted)
    sub = verifier.Subcategory(A, ind + [replab.zero_rep(A)] + ind)
    assert len(sub) == len(ind)
    assert [id(M) for M in added] == [id(M) for M in ind]
    assert all(sub.locate(M) == i for i, M in enumerate(ind))


def _knit_corpus():
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


def test_knitted_ar_quiver_matches_radical_oracle():
    for A in _knit_corpus():
        ar = arquiver.ar_quiver(A)
        got = ([n.id for n in ar.nodes],
               [(n.is_projective, n.is_injective) for n in ar.nodes],
               list(ar.arrows.items()), list(ar.tau.items()))
        assert got == _oracle_parts(A, [n.rep for n in ar.nodes]), \
            A.to_json()


def test_cycle_record_matches_translating_each_uniserial():
    # tau^- and the P(v) of the closed form against translating every
    # uniserial and looking it up; the arrows against rad/rad^2 where
    # every uniserial is a brick
    rng = random.Random(20260823)
    for k in range(16):
        brick = k % 2 == 0
        A = nakayama(random_cyclic_series(rng, lmax=5, dmax=8, brick=brick))
        record = arquiver._cycle_record(A)
        reps = record.index.reps
        assert [replab.rep_to_json(X) for X in reps] == [
            replab.rep_to_json(X) for X in replab.uniserial_modules(A)]
        assert translate_each(A, reps) == (record.tau_minus,
                                           record.projective)
        if brick:
            assert list(record.arrows.items()) == list(
                radical_arrows(reps).items())


def test_lazy_resolution_levels_match_eager_build():
    # kernels are taken only when the next level is built; the levels
    # must be those of taking every kernel with its cover, whether the
    # resolution grows at once or a level at a time
    for A in _knit_corpus():
        for X in arquiver.indecomposables(A):
            for M in (X, replab.dual(X)):
                want = eager_levels(M, 4)
                at_once = replab.Resolution(M)
                at_once.extend_to(4)
                stepwise = replab.Resolution(M)
                for depth in range(5):
                    stepwise.extend_to(depth)
                assert at_once.levels == want
                assert stepwise.levels == want


def test_linear_a_has_triangle_of_simple_arrows():
    for h in range(1, 11):
        ar = arquiver.ar_quiver(linear_a(h))
        assert len(ar.arrows) == h * (h - 1)
        assert set(ar.arrows.values()) <= {1}


def test_cyclic_ar_quiver_pinned():
    # values of the rad/rad^2 construction
    A = nakayama(KupischSeries([2, 2, 3, 3, 3, 3, 2], cyclic=True))
    ar = arquiver.ar_quiver(A)
    assert ar.node_count() == 18
    assert len(ar.arrows) == 22 and set(ar.arrows.values()) == {1}
    assert len(ar.tau) == 11
    assert sum(n.is_projective for n in ar.nodes) == 7
    assert sum(n.is_injective for n in ar.nodes) == 7


def test_is_representation_directed():
    assert arquiver.is_representation_directed(chain_four())[0]
    assert arquiver.is_representation_directed(branched_ten())[0]
    A = nakayama(KupischSeries([2, 2], cyclic=True))
    ok, detail = arquiver.is_representation_directed(A)
    assert not ok and "cycle" in detail["reason"]


def _all_pairs_directed(A):
    """The certificate from the full Hom table, one hom_dim per pair."""
    reps, complete, capped, _ = arquiver._enumerate(A)
    assert complete and not capped
    n = len(reps)
    adj = {i: [] for i in range(n)}
    indeg = {i: 0 for i in range(n)}
    for i in range(n):
        for j in range(n):
            if i != j and replab.hom_dim(reps[i], reps[j]):
                adj[i].append(j)
                indeg[j] += 1
    queue = [i for i in range(n) if indeg[i] == 0]
    topo = []
    while queue:
        i = queue.pop()
        topo.append(i)
        for j in adj[i]:
            indeg[j] -= 1
            if indeg[j] == 0:
                queue.append(j)
    if len(topo) == n:
        return True, {"order": topo, "count": n}
    return False, {"reason": "Hom digraph has a cycle",
                   "cycle_members": [i for i in range(n) if indeg[i] > 0]}


def test_directedness_matches_all_pairs_hom_table():
    corpus = _knit_corpus()
    got = [arquiver.is_representation_directed(A) for A in corpus]
    assert got == [_all_pairs_directed(A) for A in corpus]
    assert sum(not ok for ok, _ in got) == 3  # the three cyclic quivers


def test_to_dot_output():
    ar = arquiver.ar_quiver(rad2_chain(3))
    dot = arquiver.to_dot(ar)
    assert dot.startswith("digraph")
    assert "->" in dot


def test_linear_a_ar_quiver_triangle():
    # kA_h has h(h+1)/2 indecomposables
    for h in range(1, 6):
        assert len(arquiver.indecomposables(linear_a(h))) == h * (h + 1) // 2


def test_non_brick_inputs_fail_during_enumeration():
    # off a cycle quiver the brick check trusts enumeration: a non-brick
    # indecomposable resists decompose's Fitting splits
    loop = BoundQuiverPresentation(
        Quiver(["1", "2"], [("l", "1", "1"), ("a", "1", "2")]), [("l", "l")])
    two_cycle = BoundQuiverPresentation(
        Quiver(["1", "2", "3"],
               [("a", "1", "2"), ("b", "2", "1"), ("c", "1", "3")]),
        [("b", "a"), ("a", "b", "a"), ("b", "c")])
    for A in (loop, two_cycle):
        with pytest.raises(replab.DecompositionError,
                           match="Fitting decomposition failed"):
            arquiver.ar_quiver(A)
