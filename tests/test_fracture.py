import pytest

from arglue import arquiver
from arglue import fracture as fx
from arglue.core import (AlgebraError, KupischSeries, linear_a, nakayama,
                         parse_algebra, starlike)
from arglue.gluing import GluingSpec, glue
from arglue.selfglue import self_glue_witness
from conftest import (branched_ten, chain_four, fold_fixture, knit_corpus,
                      left_ab, orbit_four_fixture, rad2_chain,
                      random_acyclic_series, right_ab)

CATALAN = {1: 1, 2: 2, 3: 5, 4: 14, 5: 42, 6: 132, 7: 429}


@pytest.fixture
def A():
    return nakayama(KupischSeries([2, 2, 1]))


@pytest.fixture
def B():
    return branched_ten()


def test_left_abutments_of_small_chain(A):
    d = {ab.anchor: ab for ab in fx.abutments(A, "left")}
    assert set(d) == {"2", "3"}
    assert d["2"].height == 2 and d["2"].maximal
    assert d["3"].height == 1 and not d["3"].maximal
    assert d["2"].tail == ["2", "3"]


def test_right_abutments_of_small_chain(A):
    d = {ab.anchor: ab for ab in fx.abutments(A, "right")}
    assert set(d) == {"1", "2"}
    assert d["2"].tail == ["1", "2"] and d["2"].maximal


def test_abutments_of_branched(B):
    LB = {ab.anchor: ab for ab in fx.abutments(B, "left")}
    assert set(LB) == {"5", "6", "7"}
    assert LB["5"].maximal and LB["5"].height == 3
    RB = {ab.anchor: ab for ab in fx.abutments(B, "right")}
    assert set(RB) == {"1", "2", "3", "1p", "2p", "3p"}
    assert RB["3"].maximal and RB["3p"].maximal
    assert RB["3"].height == 3 and not RB["2"].maximal


def test_independence(B):
    RB = {ab.anchor: ab for ab in fx.abutments(B, "right")}
    assert fx.independent([RB["3"], RB["3p"]])
    assert not fx.independent([RB["3"], RB["2"]])
    assert fx.independent([RB["1"], RB["2p"]])
    assert fx.independent([RB["3"]])


def test_abutment_leq(A):
    W = left_ab(A, "2")
    P = left_ab(A, "3")
    assert fx.abutment_leq(P, W)
    assert fx.abutment_leq(W, W)
    assert not fx.abutment_leq(W, P)


def test_foundation(A, B):
    ar = arquiver.ar_quiver(A)
    assert len(fx.foundation(A, left_ab(A, "2"), ar)) == 3
    assert len(fx.foundation(B, left_ab(B, "5"), arquiver.ar_quiver(B))) == 6


def test_tilting_enumeration_catalan():
    for h in (1, 2, 3, 5):
        ts = fx.tilting_modules(h)
        assert len(ts) == CATALAN[h]
        assert all(fx.is_tilting(t) for t in ts)


def test_tilting_ext_verification():
    assert all(fx.verify_tilting_by_ext(t) for t in fx.tilting_modules(3))


def test_mirrored_examples():
    T1 = fx.IntervalSet(5, [(5, 5), (4, 5), (1, 5), (1, 2), (1, 1)])
    T2 = fx.IntervalSet(5, [(3, 3), (3, 4), (2, 4), (1, 4), (1, 5)])
    assert fx.is_tilting(T1) and fx.is_tilting(T2)
    assert fx.is_mirrored(T1) and not fx.is_mirrored(T2)


def test_mirrored_exists_iff_odd_height():
    for h in range(1, 9):
        found = any(fx.is_mirrored(t) for t in fx.tilting_modules(h))
        assert found == (h % 2 == 1)


def test_restrict_fracture(A):
    W = left_ab(A, "2")
    P = left_ab(A, "3")
    T = fx.IntervalSet(2, [(1, 2), (2, 2)])
    assert fx.restrict_fracture(T, P, W) == fx.IntervalSet(1, [(1, 1)])


def test_interval_module_dims(A):
    W = left_ab(A, "2")
    M = fx.interval_module(A, W.tail, 1, 2)
    assert M.dim_vector() == (0, 1, 1)
    S = fx.interval_module(A, W.tail, 2, 2)
    assert S.total_dim() == 1


def test_fracturing_requires_maximal_coverage(B):
    with pytest.raises(AlgebraError):
        fx.Fracturing(B, {}, {})  # misses every maximal abutment
    tf = fx.trivial_fracturing(B)
    assert set(tf.left) == {"5"}
    assert set(tf.right) == {"3", "3p"}


def test_trivial_fracturing_uses_projective_and_injective_intervals(A):
    tf = fx.trivial_fracturing(A)
    assert tf.left["2"] == fx.projective_intervals(2)
    assert tf.right["2"] == fx.injective_intervals(2)


def test_compatible_pair(A):
    fr = fx.trivial_fracturing(A)
    P = left_ab(A, "3")   # height 1, simple projective at the sink
    I = right_ab(A, "1")  # height 1, simple injective at the source
    W = left_ab(A, "2")
    J = right_ab(A, "2")
    ok, reason = fx.compatible_pair(fr, W, J, P, I)
    assert ok, reason


def _whole_chain_walk(A, v):
    """The walk that re-tests the whole chain against every relation at
    each step and once more at the end."""
    q = A.quiver
    tail = [v]
    arrows = []
    cur = v
    while q.out[cur]:
        if len(q.out[cur]) > 1:
            return None
        a = q.out[cur][0]
        nxt = q.tgt[a]
        if nxt in tail:
            return None
        if len(q.inc[nxt]) != 1:
            return None
        if not A.is_relation_free(tuple(arrows) + (a,)):
            return None
        arrows.append(a)
        tail.append(nxt)
        cur = nxt
    full = tuple(arrows)
    for r in A.relations:
        for i in range(len(full) - len(r) + 1):
            if full[i:i + len(r)] == r:
                return None
    return tail


def _chain_walk_algebras(rng):
    algebras = [nakayama(KupischSeries([2, 2, 1])), chain_four(),
                branched_ten(), fold_fixture(), orbit_four_fixture()]
    algebras += [rad2_chain(m) for m in (3, 4, 5)]
    algebras += [nakayama(random_acyclic_series(rng)) for _ in range(20)]
    algebras += [nakayama(KupischSeries([2, 2, 3, 3, 3, 3, 2], cyclic=True))]
    algebras += [starlike(rays) for rays in (
        [(4, "out"), (4, "out"), (3, "in")], [(5, "in")],
        [(4, "out"), (3, "in"), (2, "in")],
        [(3, "out"), (3, "out"), (3, "in"), (3, "in")])]
    for A in algebras[5:8]:
        P = next(ab for ab in fx.abutments(A, "left") if ab.maximal)
        H = linear_a(P.height)
        I = next(ab for ab in fx.abutments(H, "right")
                 if ab.height == P.height)
        algebras.append(glue(GluingSpec(A, P, H, I)).presentation)
    return algebras


def test_abutments_match_whole_chain_walk(rng, monkeypatch):
    algebras = _chain_walk_algebras(rng)

    def view(A, side):
        return [(ab.side, ab.anchor, ab.tail, ab.maximal)
                for ab in fx.abutments(A, side)]

    got = [view(A, side) for A in algebras for side in ("left", "right")]
    # the tables are kept on their algebras: the oracle reads copies
    fresh = [parse_algebra(A.to_json()) for A in algebras]
    monkeypatch.setattr(fx, "_left_tail_from", _whole_chain_walk)
    want = [view(A, side) for A in fresh for side in ("left", "right")]
    assert got == want


def test_sub_abutments_are_table_entries(rng):
    # the suffixes of a left tail and the prefixes of a right one, tallest
    # first, are the abutments anchored along it
    for A in knit_corpus() + _chain_walk_algebras(rng):
        for W in fx.abutments(A, "left"):
            subs = [fx.abutment_at(A, "left", v) for v in W.tail]
            assert [(P.anchor, P.tail) for P in subs] == [
                (W.tail[k], W.tail[k:]) for k in range(W.height)]
        for J in fx.abutments(A, "right"):
            subs = [fx.abutment_at(A, "right", v) for v in reversed(J.tail)]
            assert [(I.anchor, I.tail) for I in subs] == [
                (J.tail[m - 1], J.tail[:m]) for m in range(J.height, 0, -1)]


def test_abutment_table_is_walked_once_per_vertex(monkeypatch):
    walks = []
    walk = fx._left_tail_from

    def counted(A, v):
        walks.append((A, v))
        return walk(A, v)

    monkeypatch.setattr(fx, "_left_tail_from", counted)
    for A in (nakayama(KupischSeries([2, 2, 3, 3, 3, 3, 2, 1])),
              fold_fixture(), branched_ten()):
        fr = fx.trivial_fracturing(A)
        fx.Fracturing(A, fr.left, fr.right)
        self_glue_witness(A, fr)
        P = next(iter(fx.maximal_abutments(A, "left").values()))
        H = linear_a(P.height)
        GluingSpec(A, P, H, fx.abutment_at(H, "right", str(P.height)))
        for side in ("left", "right"):
            assert fx.abutments(A, side) is fx.abutments(A, side)
            assert fx.maximal_abutments(A, side) == {
                ab.anchor: ab for ab in fx.abutments(A, side) if ab.maximal}
    # the walks of a right side run on the opposite algebra
    keys = [(id(A), v) for A, v in walks]
    assert walks and len(keys) == len(set(keys))


def test_abutment_at_reads_the_table(B):
    assert fx.abutment_at(B, "left", "5").tail == ["5", "6", "7"]
    assert fx.abutment_at(B, "left", "1") is None
    assert fx.abutment_at(B, "right", "3p").maximal
    assert set(fx.maximal_abutments(B, "right")) == {"3", "3p"}
    with pytest.raises(ValueError, match="side must be"):
        fx.abutment_at(B, "up", "5")
