import random

import pytest

from arglue import arquiver, selfglue
from arglue import fracture as fx
from arglue import replab
from arglue.core import (AlgebraError, KupischSeries, kupisch_of, linear_a,
                         nakayama, rename_presentation, starlike)
from arglue.gluing import GluingSpec, glue
from arglue.replab import uniserial_modules
from arglue.selfglue import (SelfGlueWitness, cover_window,
                             orbit_indecomposables, self_glue_witness,
                             simultaneous_glue, tilde, tilde_nct)
from arglue.verifier import Subcategory, check_fractured, tau_orbit_candidate
from conftest import (branched_ten, chain_four, double_gluing, fold_fixture,
                      glued_star, left_ab, right_ab)
from oracles import module_orbit_indecomposables

FOLD_SUPPORTS = [{"6", "7", "8"}, {"7"}, {"6", "7"}, {"2p", "6"}, {"5", "6"},
                 {"2p", "5", "6"}, {"4", "5"}, {"1p", "2p"}, {"3", "4", "5"},
                 {"4"}, {"1p"}, {"2", "3", "4"}, {"1", "2", "3"}, {"2"},
                 {"1", "2"}]


@pytest.fixture(scope="module")
def fold():
    A = fold_fixture()
    ind = arquiver.indecomposables(A)
    return A, ind


def fold_fracturing(A):
    T = fx.IntervalSet(3, [(1, 3), (1, 2), (2, 2)])
    return fx.Fracturing(A, {"6": T},
                         {"3": T, "2p": fx.injective_intervals(2)})


def fold_modules(A, ind):
    mods = []
    for sup in FOLD_SUPPORTS:
        hits = [M for M in ind if M.support() == frozenset(sup)]
        assert len(hits) == 1, sup
        mods.append(hits[0])
    return Subcategory(A, mods)


def test_fold_fixture_abutments(fold):
    A, ind = fold
    assert len(ind) == 24
    maxl = [ab for ab in fx.abutments(A, "left") if ab.maximal]
    assert [ab.tail for ab in maxl] == [["6", "7", "8"]]
    maxr = sorted(tuple(ab.tail)
                  for ab in fx.abutments(A, "right") if ab.maximal)
    assert maxr == [("1", "2", "3"), ("1p", "2p")]


def test_fold_fixture_fractured_subcategory(fold):
    A, ind = fold
    M15 = fold_modules(A, ind)
    assert len(M15) == 15
    rep = check_fractured(A, fold_fracturing(A), M15, 2)
    assert rep.verdict, rep.to_json()


def test_fold_fixture_double_cosyzygy(fold):
    A, _ = fold
    om = replab.syzygy(replab.simple(A, "7"), "-", 2)
    parts = replab.decompose(om)
    got = sorted(sorted(p.support()) for p in parts)
    assert got == [["2p"], ["5"]]


def test_fold_witness_and_tilde_presentation(fold):
    A, _ = fold
    wit, reasons = self_glue_witness(A, fold_fracturing(A))
    assert wit is not None, reasons
    assert wit.P.tail == ["6", "7", "8"] and wit.I.tail == ["1", "2", "3"]
    assert wit.height == 3
    sg = tilde(A, wit)
    TL = sg.presentation
    assert sorted(TL.quiver.vertices) == ["1", "1p", "2", "2p", "3", "4", "5"]
    assert sorted(TL.quiver.arrows) == sorted([
        ("c1", "1", "2"), ("c2", "2", "3"), ("c3", "3", "4"),
        ("c4", "4", "5"), ("c5", "5", "1"), ("b1", "1p", "2p"),
        ("b2", "2p", "1")])
    assert sorted(TL.relations) == sorted([
        ("c1", "c2", "c3"), ("c2", "c3", "c4"), ("c4", "c5"),
        ("b1", "b2"), ("c5", "c1"), ("b2", "c1")])


def test_fold_cover_window_and_orbit(fold):
    A, _ = fold
    wit, _ = self_glue_witness(A, fold_fracturing(A))
    win = cover_window(A, wit, 1)
    # three copies overlapping in two seams of three vertices
    assert len(win.presentation.quiver.vertices) == 3 * 10 - 2 * 3
    orb = orbit_indecomposables(A, wit)
    assert len(orb) == 18


def _non_nakayama_folds():
    """(algebra, witness, fold): the fold fixture with its fracturing,
    which is also criterion 07's figure fold, criterion 11's double
    gluing, and the glued stars of seeds 0-11, each with the trivial
    fracturing; every witness has disjoint seam tails and a fold that is
    not Nakayama."""
    A = fold_fixture()
    cases = [(A, self_glue_witness(A, fold_fracturing(A))[0])]
    algebras = [double_gluing()]
    algebras += [glued_star(random.Random(seed)) for seed in range(12)]
    for B in algebras:
        cases.append((B, self_glue_witness(B, fx.trivial_fracturing(B))[0]))
    for B, wit in cases:
        assert wit is not None and not set(wit.P.tail) & set(wit.I.tail)
        sg = tilde(B, wit)
        with pytest.raises(AlgebraError):
            kupisch_of(sg.presentation)
        yield B, wit, sg


def test_orbit_indecomposables_match_the_module_window_loop(monkeypatch):
    windows = []
    original = selfglue.cover_window

    def recorded(A, witness, k):
        windows.append(k)
        return original(A, witness, k)

    monkeypatch.setattr(selfglue, "cover_window", recorded)
    sizes = []
    for A, wit, sg in _non_nakayama_folds():
        windows.clear()
        got = orbit_indecomposables(A, wit, sg=sg)
        want, k = module_orbit_indecomposables(A, wit, sg)
        assert windows[-1] == k
        assert len(got) == len(want)
        for X, Y in zip(got, want):
            assert X.dim == Y.dim and X.mats == Y.mats
        sizes.append(len(got))
    assert len(sizes) == 14
    assert sizes[:2] == [18, 33]


def test_orbit_indecomposables_build_only_the_certifying_window(
        monkeypatch):
    """On the double gluing no module is tested for isomorphism, and only
    the certifying window's record builds node modules."""
    D = double_gluing()
    wit, _ = self_glue_witness(D, fx.trivial_fracturing(D))
    sg = tilde(D, wit)
    windows, built, iso = [], [], []
    cover_window_, module_ = selfglue.cover_window, arquiver._Record.module
    is_isomorphic_ = replab.is_isomorphic

    def recorded_window(A, witness, k):
        windows.append(cover_window_(A, witness, k))
        return windows[-1]

    def counted_module(record, i):
        if record.reps[i] is None:
            built.append(record)
        return module_(record, i)

    def counted_iso(M, N):
        iso.append((M, N))
        return is_isomorphic_(M, N)

    monkeypatch.setattr(selfglue, "cover_window", recorded_window)
    monkeypatch.setattr(arquiver._Record, "module", counted_module)
    monkeypatch.setattr(replab, "is_isomorphic", counted_iso)
    assert len(orbit_indecomposables(D, wit, sg=sg)) == 33
    assert iso == []
    records = [replab._memo_get(win.presentation, "enumeration")
               for win in windows]
    assert len(records) >= 2 and all(r.knitted for r in records)
    assert built and {id(r) for r in built} == {id(records[-1])}


def test_fold_tilde_subcategory(fold):
    A, ind = fold
    wit, _ = self_glue_witness(A, fold_fracturing(A))
    M15 = fold_modules(A, ind)
    rep, sg, pushed = tilde_nct(A, wit, M15.modules, 2)
    assert len(pushed) == 12
    assert rep.verdict, rep.to_json()


def test_kupisch_pipeline_self_glue():
    A = nakayama(KupischSeries([2, 2, 3, 3, 3, 3, 2, 1]))
    wit, reasons = self_glue_witness(A, fx.trivial_fracturing(A))
    assert wit is not None, reasons
    assert wit.height == 1
    sg = tilde(A, wit)
    assert kupisch_of(sg.presentation) == KupischSeries(
        [2, 2, 3, 3, 3, 3, 2], cyclic=True).normalized()
    orb = orbit_indecomposables(A, wit)
    assert len(orb) == sum([2, 2, 3, 3, 3, 3, 2])
    MK = tau_orbit_candidate(A, 3)
    assert len(MK) == 11
    rep, _, pushed = tilde_nct(A, wit, MK.modules, 3)
    assert len(pushed) == 10
    assert rep.verdict, rep.to_json()


def test_overlapping_seams_fold_modularly():
    C = nakayama(KupischSeries([3, 3, 3, 2, 1]))
    W = next(ab for ab in fx.abutments(C, "left") if ab.maximal)
    J = next(ab for ab in fx.abutments(C, "right") if ab.maximal)
    assert W.tail == ["3", "4", "5"] and J.tail == ["1", "2", "3"]
    wit = SelfGlueWitness(W, J, W, J)
    sg = tilde(C, wit)
    assert kupisch_of(sg.presentation) == KupischSeries(
        [3, 3], cyclic=True).normalized()
    assert len(uniserial_modules(sg.presentation)) == 6
    assert len(orbit_indecomposables(C, wit)) == 6


def test_simultaneous_single_pair_equals_plain_glue():
    A4, B = chain_four(), branched_ten()
    P1 = left_ab(A4, "1")
    I3 = right_ab(B, "3")
    gx = glue(GluingSpec(A4, P1, B, I3))
    sx = simultaneous_glue(A4, B, [(P1, I3)], mode="parallel")
    assert sx.presentation == gx.presentation


def test_simultaneous_double_gluing_of_stars():
    D = double_gluing()
    assert len(D.quiver.vertices) == 16
    assert all(len(r) == 2 for r in D.relations)
    assert len(arquiver.indecomposables(D)) == 34


def test_simultaneous_mode_validation():
    SA = starlike([(4, "out"), (4, "out"), (3, "in")])
    SB = starlike([(4, "in"), (4, "in"), (3, "out")])
    pairs = [(left_ab(SA, a, height=1), right_ab(SB, a, height=1))
             for a in ("4_1", "4_2")]
    with pytest.raises(AlgebraError, match="both directions"):
        simultaneous_glue(SA, SB, pairs, mode="antiparallel")


def test_simultaneous_rejects_pair_matching_both_orientations():
    A, B = linear_a(4), linear_a(4)
    pairs = [(left_ab(A, "4"), right_ab(B, "1")),
             (left_ab(B, "4"), right_ab(A, "1"))]
    with pytest.raises(AlgebraError, match="rename the vertices"):
        simultaneous_glue(A, B, pairs, mode="antiparallel")


def test_simultaneous_antiparallel_closes_a_cycle():
    A = linear_a(4)
    B = rename_presentation(
        linear_a(4), {str(i): f"y{i}" for i in range(1, 5)},
        {f"a{i}": f"ba{i}" for i in range(1, 4)})
    pairs = [(left_ab(A, "4"), right_ab(B, "y1")),
             (left_ab(B, "y4"), right_ab(A, "1"))]
    D = simultaneous_glue(A, B, pairs, mode="antiparallel").presentation
    assert D.quiver.vertices == ["y1", "y2", "y3", "y4", "2", "3"]
    assert D.relations == {("ba3", "a1"), ("a3", "ba1")}
    assert len(uniserial_modules(D)) == 18
