import itertools
from fractions import Fraction

import pytest

from arglue import arquiver, linalg, replab
from arglue.core import KupischSeries, linear_a, nakayama, starlike
from conftest import (branched_ten, chain_four, rad2_chain,
                      two_presentations_of_a_sum)
from oracles import randomized_is_isomorphic


@pytest.fixture
def A():
    return rad2_chain(3)


def test_standard_modules_dimensions(A):
    assert replab.projective(A, "1").dim_vector() == (1, 1, 0)
    assert replab.projective(A, "3").dim_vector() == (0, 0, 1)
    assert replab.injective(A, "3").dim_vector() == (0, 1, 1)
    assert replab.simple(A, "2").dim_vector() == (0, 1, 0)


def test_projective_tops_and_injective_socles():
    B = branched_ten()
    P5 = replab.projective(B, "5")
    assert P5.total_dim() == 3  # 5 -> 6 -> 7 survives the binding
    I5 = replab.injective(B, "5")
    # paths into 5: from 4 and from 3p (length 1 each survive)
    assert I5.total_dim() == 3


def test_dual_swaps_projectives_and_injectives(A):
    P = replab.projective(A, "1")
    D = replab.dual(P)
    # the dual lives over the opposite algebra and is injective there
    I = replab.injective(D.algebra, "1")
    assert replab.is_isomorphic(D, I)


def test_hom_and_ext(A):
    P1 = replab.projective(A, "1")
    P2 = replab.projective(A, "2")
    S1 = replab.simple(A, "1")
    S2 = replab.simple(A, "2")
    assert replab.hom_dim(P1, S1) == 1
    assert replab.hom_dim(P2, P1) == 1  # radical inclusion
    assert replab.ext_dim(S1, S2, 1) == 1
    assert replab.ext_dim(S1, S1, 1) == 0
    assert replab.ext_dim(P1, S2, 1) == 0


def test_syzygies(A):
    S1 = replab.simple(A, "1")
    om = replab.syzygy(S1, "+", 1)
    assert replab.is_isomorphic(om, replab.simple(A, "2"))
    om2 = replab.syzygy(S1, "+", 2)
    assert replab.is_isomorphic(om2, replab.simple(A, "3"))
    co = replab.syzygy(replab.simple(A, "3"), "-", 1)
    assert replab.is_isomorphic(co, replab.simple(A, "2"))


def test_ar_translate_on_chain(A):
    S3 = replab.simple(A, "3")  # projective
    S2 = replab.simple(A, "2")
    t = replab.ar_translate(S2, "+")
    assert replab.is_isomorphic(t, S3)
    back = replab.ar_translate(S3, "-")
    assert replab.is_isomorphic(back, S2)
    # tau of a projective is zero
    assert replab.ar_translate(replab.projective(A, "3"), "+").is_zero()


def test_tau_n_matches_composition(A):
    S1 = replab.simple(A, "1")
    direct = replab.tau_n(S1, 2, "+")
    step = replab.ar_translate(replab.syzygy(S1, "+", 1), "+")
    assert (direct.is_zero() and step.is_zero()) \
        or replab.is_isomorphic(direct, step)


def test_decompose_direct_sum(A):
    P1 = replab.projective(A, "1")
    S3 = replab.simple(A, "3")
    M = replab.direct_sum(A, [P1, S3, S3])
    parts = replab.decompose(M)
    assert len(parts) == 3
    assert sorted(p.total_dim() for p in parts) == [1, 1, 2]


def test_basis_alone_can_miss_an_isomorphism_of_decomposables():
    # the reason a module list read on the command line is matched to
    # the nodes first: is_isomorphic needs one side indecomposable
    M, N = two_presentations_of_a_sum()
    assert len(replab.hom_basis(M, N)) == 2
    assert not replab.is_isomorphic(M, N)
    assert randomized_is_isomorphic(M, N)


def test_decompose_splits_only_at_a_random_combination():
    M, _ = two_presentations_of_a_sum()
    endos = replab.hom_basis(M, M)
    assert len(endos) == 2
    # the basis and its one pairwise sum are automorphisms: no split
    tried = list(itertools.islice(replab._split_candidates(M, endos), 3))
    assert all(f.is_invertible() for f in tried)
    assert [replab._try_split(M, f) for f in tried] == [None] * 3
    parts = replab.decompose(M)
    assert sorted(p.dim_vector() for p in parts) == [(0, 1, 1), (1, 0, 1)]


def test_is_isomorphic_accepts_equal_presentations():
    A1, A2 = rad2_chain(3), rad2_chain(3)
    assert A1 is not A2 and A1 == A2
    assert replab.is_isomorphic(replab.projective(A1, "1"),
                                replab.projective(A2, "1"))


def test_rep_json_round_trip(A):
    P = replab.projective(A, "1")
    doc = replab.rep_to_json(P)
    Q = replab.rep_from_json(A, doc)
    assert replab.is_isomorphic(P, Q)
    assert all(isinstance(x, str) for row in doc["mats"]["a1"] for x in row)
    assert Fraction(doc["mats"]["a1"][0][0]) == 1


def test_uniserial_modules_count(monkeypatch):
    s = KupischSeries([2, 2, 3, 3, 3, 3, 2], cyclic=True)
    A = nakayama(s)
    uni = replab.uniserial_modules(A)
    assert len(uni) == sum(s.entries)
    # all distinct as isomorphism classes
    for i, M in enumerate(uni):
        for N in uni[i + 1:]:
            assert not replab.is_isomorphic(M, N)
    # the same dimensions with other matrices still go through Hom solving
    solved = []
    hom_basis = replab.hom_basis
    monkeypatch.setattr(replab, "hom_basis",
                        lambda M, N: solved.append(1) or hom_basis(M, N))
    for M in uni:
        for a in M.mats:
            scaled = dict(M.mats, **{a: linalg.scale(M.mats[a], 2)})
            assert replab.is_isomorphic(
                M, replab.Representation(A, M.dim, scaled))
    arrows = sum(len(M.mats) for M in uni)
    assert arrows and len(solved) == arrows
    L = linear_a(2)
    line = [replab.Representation(L, {"1": 1, "2": 1}, {"a1": [[c]]})
            for c in (replab.ZERO, replab.ONE, Fraction(2))]
    assert not replab.is_isomorphic(line[0], line[1])
    assert replab.is_isomorphic(line[1], line[2])
    assert len(solved) == arrows + 2


def test_is_isomorphic_answers_equal_matrices_without_hom_solving(
        monkeypatch):
    A, twin = chain_four(), chain_four()
    ind = arquiver.indecomposables(A)

    def no_solving(M, N):
        raise AssertionError("hom_basis reached")

    monkeypatch.setattr(replab, "hom_basis", no_solving)
    for M in ind:
        rebuilt = {a: [list(row) for row in m] for a, m in M.mats.items()}
        assert replab.is_isomorphic(M, M)
        assert replab.is_isomorphic(
            M, replab.Representation(A, dict(M.dim), rebuilt))
        assert replab.is_isomorphic(
            M, replab.Representation(twin, dict(M.dim), rebuilt))
    assert replab.is_isomorphic(replab.zero_rep(A), replab.zero_rep(twin))


def test_resolution_finds_each_syzygy_top_once(monkeypatch):
    A = nakayama(KupischSeries([2, 2, 3, 3, 3, 3, 2], cyclic=True))
    calls = {"top_generators": 0, "cover_data": 0}
    for name in calls:
        def counted(M, _fn=getattr(replab, name), _name=name):
            calls[_name] += 1
            return _fn(M)
        monkeypatch.setattr(replab, name, counted)
    for M in replab.uniserial_modules(A):
        replab.resolution_of(M).extend_to(4)
    assert calls["cover_data"] > 0
    assert calls["top_generators"] == calls["cover_data"]


def test_chain_four_has_nine_indecomposables_worth_of_homs():
    A = chain_four()
    P0 = replab.projective(A, "0")
    assert P0.total_dim() == 3  # the length-3 relation truncates it
    I3 = replab.injective(A, "3")
    assert I3.total_dim() == 3


def test_rep_from_json_rejects_unknown_names_and_negative_dims():
    A = linear_a(3)
    doc = {"dims": {"zz": 2, "1": 1}, "mats": {"nope": [["1"]]}}
    with pytest.raises(ValueError, match=r"unknown vertices \['zz'\]; "
                       r"unknown arrows \['nope'\]"):
        replab.rep_from_json(A, doc)
    with pytest.raises(ValueError, match=r"negative dimensions at \['2'\]"):
        replab.rep_from_json(A, {"dims": {"1": 1, "2": -1}})


def test_check_rejects_bad_shapes_off_the_support_and_relations():
    A = rad2_chain(3)  # 1 -a1-> 2 -a2-> 3, a1 a2 = 0
    one = replab.ONE
    # a1 starts outside the support {2}: its matrix must be 1 x 0
    replab.Representation(A, {"2": 1}, {"a1": [[]]})
    with pytest.raises(ValueError, match="shape for arrow a1"):
        replab.Representation(A, {"2": 1}, {"a1": [[one]]})
    with pytest.raises(ValueError, match="does not annihilate"):
        replab.Representation(A, {"1": 1, "2": 1, "3": 1},
                              {"a1": [[one]], "a2": [[one]]})


def _sparse_store_modules():
    """Indecomposables of three algebras with their covers, syzygies,
    cosyzygies, translates, duals and a few direct sums."""
    cyclic = nakayama(KupischSeries([2, 2, 3, 3, 3, 3, 2], cyclic=True))
    star = starlike([(3, "out"), (2, "in"), (2, "out")])
    for A, ind in ((chain_four(), arquiver.indecomposables(chain_four())),
                   (cyclic, replab.uniserial_modules(cyclic)),
                   (star, arquiver.indecomposables(star))):
        for X in ind:
            P, gens = replab.cover_data(X)
            K, _ = replab._cover_kernel(X, P, gens)
            yield from (X, P.rep, K, replab.dual(X))
            for d in "+-":
                yield replab.syzygy(X, d, 1)
                yield replab.ar_translate(X, d)
        for X, Y in zip(ind, ind[1:] + ind[:1]):
            yield replab.direct_sum(X.algebra, [X, Y, X])


def test_sparse_store_agrees_with_dense_reading():
    for M in _sparse_store_modules():
        A = M.algebra
        q = A.quiver
        sup = M.support()
        assert all(M.dim.values())
        assert list(M.dim) == [v for v in q.vertices if v in sup]
        assert list(M.mats) == [a for a, s, t in q.arrows
                                if s in sup and t in sup]
        assert M.dim_vector() == tuple(M.dim[v] for v in q.vertices)
        assert M.total_dim() == sum(M.dim[v] for v in q.vertices)
        for s, t, p in A.all_paths():
            m = M.act(p, s)
            assert len(m) == M.dim[t]
            assert all(len(row) == M.dim[s] for row in m)
        doc = replab.rep_to_json(M)
        back = replab.rep_from_json(A, doc)
        assert back.dim == M.dim and replab.rep_to_json(back) == doc
