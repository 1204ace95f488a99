import random
import re

import pytest

from arglue import arquiver, replab, verifier
from arglue.core import (BoundQuiverPresentation, KupischSeries, Quiver,
                         linear_a, nakayama, starlike)
from conftest import (branched_ten, chain_four, criterion_04_corpus,
                      knit_corpus, kronecker, not_directed, orbit_four_fixture,
                      rad2_chain, random_cyclic_series, rebased)
from oracles import (eager_levels, module_directedness, radical_arrows,
                     randomized_is_isomorphic, translate_each)


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


def test_knitted_ar_quiver_matches_radical_oracle():
    for A in knit_corpus():
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
        reps = record.modules()
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
    for A in knit_corpus():
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
    reps = arquiver._complete_enumeration(A).modules()
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
    corpus = knit_corpus()
    got = [arquiver.is_representation_directed(A) for A in corpus]
    assert got == [_all_pairs_directed(A) for A in corpus]
    assert sum(not ok for ok, _ in got) == 3  # the three cyclic quivers


def test_directedness_from_hom_table_matches_module_loop(monkeypatch):
    # three algebras that are not directed, on an enumerated record, an
    # enumerated one with a cycle in its quiver and a cycle record
    corpus = [not_directed(), orbit_four_fixture(),
              nakayama(KupischSeries([2, 2, 3, 3, 3, 3, 2], cyclic=True))]
    corpus += criterion_04_corpus() + [
        verifier.generate_sinks_sources(s, t, n)[0]
        for s, t, n in ((1, 1, 2), (2, 2, 2), (2, 3, 3), (3, 3, 3))]
    want = [module_directedness(A) for A in corpus]
    # a fresh copy of each algebra, so that no node module is at hand
    fresh = [BoundQuiverPresentation(A.quiver, A.relations) for A in corpus]
    calls = []
    hom_dim = replab.hom_dim

    def counted(M, N):
        calls.append(M.algebra)
        return hom_dim(M, N)

    monkeypatch.setattr(replab, "hom_dim", counted)
    assert [arquiver.is_representation_directed(A) for A in fresh] == want
    knitted = [A for A in fresh
               if arquiver._complete_enumeration(A).knitted]
    assert [ok for ok, _ in want] == [False] * 3 + [True] * (len(corpus) - 3)
    assert knitted == fresh[3:]
    assert not any(A in calls for A in knitted)
    assert all(set(arquiver._complete_enumeration(A).reps) == {None}
               for A in knitted)


def test_directedness_reuses_the_enumeration(monkeypatch):
    calls = []
    new_record = arquiver._new_record

    def counted(A, cap=4096):
        calls.append(A)
        return new_record(A, cap)

    monkeypatch.setattr(arquiver, "_new_record", counted)
    A = branched_ten()
    ind = arquiver.indecomposables(A)
    ok, detail = arquiver.is_representation_directed(A)
    assert ok and detail["count"] == len(ind) == 24
    assert calls == [A]
    # a cycle quiver is judged on its closed-form record
    C = nakayama(KupischSeries([2, 2], cyclic=True))
    ok, detail = arquiver.is_representation_directed(C)
    assert not ok and detail["reason"] == "Hom digraph has a cycle"
    assert calls == [A]


def test_kronecker_enumeration_stops_at_the_dimension_bound():
    # the preprojective component is infinite: its modules grow past any
    # dimension a representation-directed algebra allows
    A = kronecker()
    with pytest.raises(arquiver.EnumerationError, match=re.escape(
            "node 6 [7, 8] has dimension 7 at vertex 0, above the bound 6")):
        arquiver.indecomposables(A)
    assert replab._memo_get(A, "enumeration") is None
    ok, detail = arquiver.is_representation_directed(A)
    assert not ok and "above the bound 6" in detail["reason"]


def test_oversize_translate_is_refused_before_decompose(monkeypatch):
    # four arrows 1 -> 2 and one 2 -> 0: the sixth translate is 32 at
    # vertex 0, refused from its dimension vector alone
    A = BoundQuiverPresentation(Quiver([str(i) for i in range(5)], [
        ("a0", "1", "2"), ("a1", "1", "2"), ("a2", "2", "0"),
        ("a3", "1", "2"), ("a4", "1", "2")]), [("a0", "a2")])
    seen = []
    decompose = replab.decompose

    def recorded(M):
        seen.append(max(M.dim.values(), default=0))
        return decompose(M)

    monkeypatch.setattr(replab, "decompose", recorded)
    with pytest.raises(arquiver.EnumerationError, match=re.escape(
            "node 6 [32, 12, 47, 0, 0] has dimension 32 at vertex 0, above "
            "the bound 6 for representation-directed algebras")):
        arquiver._enumerate(A)
    assert seen and max(seen) <= 6


def test_basis_isomorphism_test_matches_the_randomized_oracle():
    # each node against every node of its dimension vector, and against
    # a copy of one of them in another basis; and the lookups of the
    # P(v) and I(v), each of which finds exactly one node
    rng = random.Random(20261020)
    for A in knit_corpus():
        ind = arquiver.indecomposables(A)
        standard = ([replab.projective(A, v) for v in A.quiver.vertices]
                    + [replab.injective(A, v) for v in A.quiver.vertices])
        for X in ind + [rebased(X, rng) for X in ind] + standard:
            same = [Y for Y in ind if Y.dim_vector() == X.dim_vector()]
            got = [replab.is_isomorphic(X, Y) for Y in same]
            assert got == [randomized_is_isomorphic(X, Y) for Y in same]
            assert sum(got) == 1


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
