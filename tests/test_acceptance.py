"""Acceptance suite: one test per headline guarantee.

Run with ``pytest -v tests/test_acceptance.py`` to get one pass/fail line
per criterion; each test additionally prints
``[criterion NN] <name>: PASS (<elapsed>)`` on success (visible with -s or
in captured output).
"""

import itertools
import random
import time

from arglue import arquiver
from arglue import fracture as fx
from arglue import replab
from arglue.core import (BoundQuiverPresentation, KupischSeries, Quiver,
                         kupisch_of, linear_a, nakayama, rename_presentation,
                         starlike)
from arglue.gluing import (GluingSpec, GluingSystemSpec, ar_isomorphic, glue,
                           glue_ar, glue_system)
from arglue.selfglue import (orbit_indecomposables, self_glue_witness,
                             simultaneous_glue, tilde, tilde_nct)
from arglue.verifier import (Subcategory, check_fractured, check_nct,
                             generate_sinks_sources, starlike_classify,
                             starlike_rep_finite, tau_orbit_candidate)
from conftest import (branched_ten, chain_four, criterion_04_corpus,
                      fold_fixture, left_ab, orbit_four_fixture, rad2_chain,
                      random_acyclic_series, random_cyclic_series, right_ab)


def _stamp(number, name, t0):
    print(f"[criterion {number:02d}] {name}: PASS ({time.time() - t0:.1f}s)")


def test_criterion_01_gluing_amalgamation_identity():
    t0 = time.time()
    A4, B = chain_four(), branched_ten()
    assert len(arquiver.indecomposables(A4)) == 9
    assert len(arquiver.indecomposables(B)) == 24
    g = glue(GluingSpec(A4, left_ab(A4, "1"), B, right_ab(B, "3")))
    ind = arquiver.indecomposables(g.presentation)
    assert len(ind) == 24 + 9 - 6 == 27
    amalg = glue_ar(arquiver.ar_quiver(A4), arquiver.ar_quiver(B), g)
    assert amalg.node_count() == 27
    assert ar_isomorphic(amalg, arquiver.ar_quiver(g.presentation))
    _stamp(1, "gluing amalgamation identity", t0)


def test_criterion_02_starlike_classifier_exhaustive_agreement():
    t0 = time.time()
    opts = [(m, d) for m in range(2, 10) for d in ("out", "in")]
    shapes = [list(c) for k in (1, 3, 4)
              for c in itertools.combinations_with_replacement(opts, k)]
    assert len(shapes) == 4708
    runs = 0
    for rays in shapes:
        A = None
        ind = None
        finite = starlike_rep_finite(rays)
        for n in range(2, 6):
            want = starlike_classify(rays, n)[0]
            if not finite:
                got = False
            else:
                if A is None:
                    A = starlike(rays)
                    ind = arquiver.indecomposables(A, cap=1024)
                M = tau_orbit_candidate(A, n, cap=1024)
                got = check_nct(A, M, n, indecs=ind).verdict
            assert want == got, (rays, n, want, got)
            runs += 1
    assert runs == 4 * 4708
    # the worked three-ray example passes at both stated levels with
    # global dimension 7
    figure = [(5, "out"), (5, "out"), (4, "in")]
    for n in (2, 4):
        passes, gldim, _case = starlike_classify(figure, n)
        assert passes and gldim == 7
    _stamp(2, "starlike classifier exhaustive agreement", t0)


def test_criterion_03_kupisch_pipeline():
    t0 = time.time()
    A = nakayama(KupischSeries([2, 2, 3, 3, 3, 3, 2, 1]))
    MK = tau_orbit_candidate(A, 3)
    assert check_nct(A, MK, 3).verdict
    wit, reasons = self_glue_witness(A, fx.trivial_fracturing(A))
    assert wit is not None, reasons
    sg = tilde(A, wit)
    assert kupisch_of(sg.presentation) == KupischSeries(
        [2, 2, 3, 3, 3, 3, 2], cyclic=True)
    rep, _sg, pushed = tilde_nct(A, wit, MK.modules, 3)
    assert rep.verdict, rep.to_json()
    # the folded module set: ten classes (the two seam projectives fold
    # together), matching the transcribed membership list up to a global
    # rotation of the cyclic vertex naming
    assert len(pushed) == 10
    marked = {frozenset(s) for s in
              [{1}, {0, 1}, {3, 4}, {2, 3}, {1, 2}, {6, 0, 1}, {5, 6, 0},
               {4, 5, 6}, {3, 4, 5}, {4}]}
    mine = [{int(v) - 1 for v in M.support()} for M in pushed]
    matched = any({frozenset((v + r) % 7 for v in s) for s in mine} == marked
                  for r in range(7))
    assert matched
    _stamp(3, "Kupisch pipeline to a cyclic quotient", t0)


def test_criterion_04_oracle_equivalence_on_directed_corpus():
    t0 = time.time()
    corpus = [A for A in criterion_04_corpus()
              if len(A.quiver.vertices) <= 12
              and arquiver.is_representation_directed(A)[0]]
    assert len(corpus) >= 50
    for A in corpus:
        ind = arquiver.indecomposables(A)
        fr = fx.trivial_fracturing(A)
        for n in range(2, 5):
            M = tau_orbit_candidate(A, n)
            assert check_nct(A, M, n, indecs=ind).verdict \
                == check_fractured(A, fr, M, n).verdict, (n, A.to_json())
    _stamp(4, f"oracle equivalence on {len(corpus)} directed algebras", t0)


def _orders_agree(spec):
    L1, v1, a1 = glue_system(spec, check_orders=False)
    rev = GluingSystemSpec(spec.tree_vertices,
                           list(reversed(spec.tree_arrows)), spec.algebras)
    L2, v2, a2 = glue_system(rev, check_orders=False)
    rename = {cur: v1[tv][orig] for tv in spec.tree_vertices
              for orig, cur in v2[tv].items()}
    arename = {cur: a1[tv][orig] for tv in spec.tree_vertices
               for orig, cur in a2[tv].items()}
    return rename_presentation(L2, rename, arename) == L1


def test_criterion_05_gluing_order_independence():
    t0 = time.time()
    rng = random.Random(7)
    for _ in range(20):
        mu, mv, mw = (rng.randint(3, 6) for _ in range(3))
        Au, Av, Aw = rad2_chain(mu), rad2_chain(mv), rad2_chain(mw)
        # shape 1: a chain of three components
        assert _orders_agree(GluingSystemSpec(
            ["u", "v", "w"],
            [("u", "v", "1", str(mv)), ("v", "w", "1", str(mw))],
            {"u": Au, "v": Av, "w": Aw}))
        # shape 2: one component feeds two others (two source seams)
        Su = starlike([(rng.randint(2, 4), "in") for _ in range(3)])
        srcs = sorted(Su.quiver.sources())[:2]
        assert _orders_agree(GluingSystemSpec(
            ["u", "v", "w"],
            [("u", "v", srcs[0], str(mv)), ("u", "w", srcs[1], str(mw))],
            {"u": Su, "v": Av, "w": Aw}))
        # shape 3: two components feed one (two sink seams)
        Sw = starlike([(rng.randint(2, 4), "out") for _ in range(3)])
        snks = sorted(Sw.quiver.sinks())[:2]
        assert _orders_agree(GluingSystemSpec(
            ["u", "w", "v"],
            [("u", "w", "1", snks[0]), ("v", "w", "1", snks[1])],
            {"u": Au, "v": Av, "w": Sw}))
    _stamp(5, "gluing order independence on 3-component trees", t0)


def test_criterion_06_trivial_gluing_is_identity():
    t0 = time.time()
    rng = random.Random(11)
    for _ in range(10):
        B = nakayama(random_acyclic_series(rng, lmax=8, dmax=4))
        if sum(kupisch_of(B).entries) <= 1:
            continue
        # absorb a full linear chain into a maximal right abutment of B
        I = rng.choice([ab for ab in fx.abutments(B, "right")
                        if ab.maximal])
        H = linear_a(I.height)
        P = next(ab for ab in fx.abutments(H, "left")
                 if ab.height == I.height)
        g = glue(GluingSpec(H, P, B, I))
        vmap = {g.vertex_map_B[v]: v for v in B.quiver.vertices}
        amap = {g.arrow_map_B[a]: a for a, _, _ in B.quiver.arrows}
        assert rename_presentation(g.presentation, vmap, amap) == B
        # and symmetrically for a maximal left abutment
        Pb = rng.choice([ab for ab in fx.abutments(B, "left")
                         if ab.maximal])
        H2 = linear_a(Pb.height)
        I2 = next(ab for ab in fx.abutments(H2, "right")
                  if ab.height == Pb.height)
        g2 = glue(GluingSpec(B, Pb, H2, I2))
        vmap = {g2.vertex_map_A[v]: v for v in B.quiver.vertices}
        amap = {g2.arrow_map_A[a]: a for a, _, _ in B.quiver.arrows}
        assert rename_presentation(g2.presentation, vmap, amap) == B
    _stamp(6, "gluing with a linear chain is the identity", t0)


def test_criterion_07_folding_example():
    t0 = time.time()
    A = fold_fixture()
    ind = arquiver.indecomposables(A)
    T = fx.IntervalSet(3, [(1, 3), (1, 2), (2, 2)])
    fr = fx.Fracturing(A, {"6": T},
                       {"3": T, "2p": fx.injective_intervals(2)})
    supports = [{"6", "7", "8"}, {"7"}, {"6", "7"}, {"2p", "6"}, {"5", "6"},
                {"2p", "5", "6"}, {"4", "5"}, {"1p", "2p"}, {"3", "4", "5"},
                {"4"}, {"1p"}, {"2", "3", "4"}, {"1", "2", "3"}, {"2"},
                {"1", "2"}]
    mods = [next(M for M in ind if M.support() == frozenset(s))
            for s in supports]
    M15 = Subcategory(A, mods)
    assert check_fractured(A, fr, M15, 2).verdict
    # the double cosyzygy of the simple at 7 splits into two simples
    om = replab.decompose(replab.syzygy(replab.simple(A, "7"), "-", 2))
    assert sorted(sorted(p.support()) for p in om) == [["2p"], ["5"]]
    # fold and re-verify
    wit, reasons = self_glue_witness(A, fr)
    assert wit is not None, reasons
    sg = tilde(A, wit)
    assert sorted(sg.presentation.relations) == sorted([
        ("c1", "c2", "c3"), ("c2", "c3", "c4"), ("c4", "c5"),
        ("b1", "b2"), ("c5", "c1"), ("b2", "c1")])
    rep, _sg, pushed = tilde_nct(A, wit, M15.modules, 2)
    assert len(pushed) == 12
    assert rep.verdict, rep.to_json()
    _stamp(7, "folding example end to end", t0)


def test_criterion_08_tilting_enumeration():
    t0 = time.time()
    catalan = [1, 1, 2, 5, 14, 42, 132, 429]
    for h in range(1, 8):
        ts = fx.tilting_modules(h)
        assert len(ts) == catalan[h]
        for T in ts:
            assert fx.is_tilting(T)
            assert fx.verify_tilting_by_ext(T)
        assert any(fx.is_mirrored(T) for T in ts) == (h % 2 == 1)
    T1 = fx.IntervalSet(5, [(5, 5), (4, 5), (1, 5), (1, 2), (1, 1)])
    T2 = fx.IntervalSet(5, [(3, 3), (3, 4), (2, 4), (1, 4), (1, 5)])
    assert fx.is_mirrored(T1) and not fx.is_mirrored(T2)
    _stamp(8, "tilting enumeration against Catalan numbers", t0)


def test_criterion_09_nakayama_counting():
    t0 = time.time()
    rng = random.Random(20260823)
    for trial in range(100):
        if rng.random() < 0.5:
            s = random_cyclic_series(rng, lmax=10)
        else:
            s = random_acyclic_series(rng, lmax=10)
        A = nakayama(s)
        total = sum(s.entries)
        assert len(arquiver.indecomposables(A)) == total
        assert len(replab.uniserial_modules(A)) == total
        if s.cyclic:
            # independent count by knitting on a three-period unrolling
            e = s.entries
            ln = len(e)
            K = 3 * ln
            verts = [str(i) for i in range(K)]
            arrows = [(f"a{i}", str(i), str(i + 1)) for i in range(K - 1)]
            rels = []
            for i in range(K):
                d = e[i % ln]
                if i + d <= K - 1:
                    rels.append(tuple(f"a{i + k}" for k in range(d)))
            W = BoundQuiverPresentation(Quiver(verts, arrows), rels)
            middle = set()
            for M in arquiver.indecomposables(W):
                sup = sorted(int(v) for v in M.support())
                if ln <= sup[0] < 2 * ln:
                    middle.add((sup[0] % ln, len(sup)))
            assert len(middle) == total, (s, len(middle))
        ar = arquiver.ar_quiver(A)
        assert arquiver.verify_mesh_identity(ar) == []
    _stamp(9, "Nakayama counting over 100 random series", t0)


def test_criterion_10_sinks_sources_generator():
    t0 = time.time()
    for s in range(1, 5):
        for t in range(1, 5):
            for n in range(2, 5):
                L, M = generate_sinks_sources(s, t, n)
                assert len(L.quiver.sources()) == s
                assert len(L.quiver.sinks()) == t
                assert check_nct(L, M, n).verdict, (s, t, n)
    _stamp(10, "sinks/sources generator grid", t0)


def test_criterion_11_double_triple_and_orbit_figures():
    t0 = time.time()
    # the 16-vertex double gluing of two opposite three-ray stars
    SA = starlike([(4, "out"), (4, "out"), (3, "in")])
    SB = starlike([(4, "in"), (4, "in"), (3, "out")])
    pairs = [(left_ab(SA, a, height=1), right_ab(SB, a, height=1))
             for a in ("4_1", "4_2")]
    D = simultaneous_glue(SA, SB, pairs, mode="parallel").presentation
    assert len(D.quiver.vertices) == 16
    M3 = tau_orbit_candidate(D, 3)
    assert check_nct(D, M3, 3).verdict
    # its self-glued successor on 15 vertices
    wit, reasons = self_glue_witness(D, fx.trivial_fracturing(D))
    assert wit is not None, reasons
    sg = tilde(D, wit)
    assert len(sg.presentation.quiver.vertices) == 15
    rep, _sg, _pushed = tilde_nct(D, wit, M3.modules, 3)
    assert rep.verdict, rep.to_json()
    # two 4-cycles through a shared vertex, radical square zero
    O4 = orbit_four_fixture()
    ind = arquiver.indecomposables(O4)
    assert len(ind) == 17
    M2 = tau_orbit_candidate(O4, 2)
    assert check_nct(O4, M2, 2, indecs=ind).verdict
    _stamp(11, "double/triple/orbit gluing figures", t0)
