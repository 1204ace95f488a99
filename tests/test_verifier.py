import json
import random

import pytest

from arglue import arquiver
from arglue import fracture as fx
from arglue import replab, verifier
from arglue.core import KupischSeries, kupisch_of, nakayama, starlike
from arglue.verifier import (Subcategory, VerificationReport,
                             check_fractured, check_nct,
                             generate_sinks_sources, starlike_classify,
                             starlike_rep_finite, tau_orbit_candidate)
from conftest import criterion_04_corpus, glued_nakayama


@pytest.fixture
def A():
    return nakayama(KupischSeries([2, 2, 1]))


def test_candidate_and_verdict_small_chain(A):
    cand = tau_orbit_candidate(A, 2)
    assert len(cand) == 4
    rep = check_nct(A, cand, 2)
    assert rep.verdict
    names = [name for name, ok, _ in rep.conditions]
    assert "rigidity" in names and "maximality" in names


def test_whole_category_at_level_one(A):
    c1 = tau_orbit_candidate(A, 1)
    assert len(c1) == 5
    assert check_nct(A, c1, 1).verdict


def test_missing_projective_fails_membership(A):
    cand = tau_orbit_candidate(A, 2)
    P1 = replab.projective(A, "1")
    bad = Subcategory(A, [M for M in cand.modules
                          if not replab.is_isomorphic(M, P1)])
    rep = check_nct(A, bad, 2)
    assert not rep.verdict
    assert rep.counterexamples
    assert rep.counterexamples[0][0] == "proj-inj-membership"


def test_report_json(A):
    rep = check_nct(A, tau_orbit_candidate(A, 2), 2)
    doc = json.loads(rep.to_json())
    assert doc["verdict"] == "pass"
    assert doc["kind"] == "n-cluster-tilting"


def test_trivial_fracturing_agrees(A):
    cand = tau_orbit_candidate(A, 2)
    fr = fx.trivial_fracturing(A)
    assert check_fractured(A, fr, cand, 2).verdict
    P1 = replab.projective(A, "1")
    bad = Subcategory(A, [M for M in cand.modules
                          if not replab.is_isomorphic(M, P1)])
    assert not check_fractured(A, fr, bad, 2).verdict


def test_kupisch_pipeline_start():
    K = nakayama(KupischSeries([2, 2, 3, 3, 3, 3, 2, 1]))
    ck = tau_orbit_candidate(K, 3)
    assert len(ck) == 11
    assert check_nct(K, ck, 3).verdict


def test_starlike_classifier_three_rays():
    rays = [(5, "out"), (5, "out"), (4, "in")]
    assert starlike_classify(rays, 4) == (True, 7, "two-sinks")
    assert starlike_classify(rays, 2) == (True, 7, "two-sinks")
    assert starlike_classify([(3, "out"), (3, "out"), (3, "in"),
                              (3, "in")], 3)[0] is False
    assert starlike_classify([(3, "out"), (3, "out"), (3, "in"),
                              (3, "in")], 2)[0] is True


def test_starlike_figure_algebra_passes():
    S = starlike([(5, "out"), (5, "out"), (4, "in")])
    assert len(S.quiver.vertices) == 12
    for n in (2, 4):
        cand = tau_orbit_candidate(S, n)
        assert check_nct(S, cand, n).verdict
    assert len(tau_orbit_candidate(S, 4)) == 15


def test_classifier_agreement_spot_checks():
    cases = [([(4, "out")], 3), ([(5, "out")], 2), ([(3, "in")], 2),
             ([(4, "out"), (4, "out"), (3, "in")], 3),
             ([(4, "in"), (4, "in"), (3, "out")], 3),
             ([(4, "out"), (4, "out"), (4, "in")], 3),
             ([(3, "out"), (5, "out"), (2, "in")], 2)]
    for rays, n in cases:
        want = starlike_classify(rays, n)[0]
        alg = starlike(rays)
        got = check_nct(alg, tau_orbit_candidate(alg, n), n).verdict
        assert want == got, (rays, n)


def test_starlike_rep_finite_rule():
    assert starlike_rep_finite([(9, "out"), (9, "out"), (9, "in")])
    assert starlike_rep_finite([(3, "out"), (3, "out"), (3, "in"), (3, "in")])
    assert not starlike_rep_finite([(3, "out")] * 4)
    assert not starlike_rep_finite([(3, "in")] * 4)


def test_generate_sinks_sources_basic():
    L, M = generate_sinks_sources(1, 1, 3)
    assert kupisch_of(L) == KupischSeries([2, 2, 2, 1])
    assert check_nct(L, M, 3).verdict
    L2, M2 = generate_sinks_sources(2, 2, 2)
    assert len(L2.quiver.sources()) == 2 and len(L2.quiver.sinks()) == 2
    assert check_nct(L2, M2, 2).verdict


def test_subcategory_dedupe_and_contains(A):
    P1 = replab.projective(A, "1")
    sub = Subcategory(A, [P1, replab.projective(A, "1")])
    assert len(sub) == 1
    assert sub.contains(P1)
    assert not sub.contains(replab.simple(A, "2"))


def test_check_nct_with_precomputed_indecs(A):
    ind = arquiver.indecomposables(A)
    cand = tau_orbit_candidate(A, 2)
    assert check_nct(A, cand, 2, indecs=ind).verdict


def _pairwise_check_nct(A, M, n, indecs):
    """The Ext sweep over every (member, member, degree) and (excluded,
    member, degree) triple, as check_nct ran it before it skipped the
    pairs whose Ext vanishes by the resolution tops."""
    report = VerificationReport("n-cluster-tilting", n)
    missing = []
    for v in sorted(A.quiver.vertices):
        for kind, mod in (("projective", replab.projective(A, v)),
                          ("injective", replab.injective(A, v))):
            if not M.contains(mod):
                missing.append((kind, v))
                report.witness("proj-inj-membership",
                               f"{kind} at vertex {v} not in M", mod)
    report.record("proj-inj-membership", not missing,
                  f"{len(missing)} missing" if missing else "all present")
    if missing:
        return report
    rigid = True
    for X in M.modules:
        for Y in M.modules:
            for i in range(1, n):
                if replab.ext_dim(X, Y, i):
                    rigid = False
                    report.witness(
                        "rigidity",
                        f"Ext^{i} nonzero between members "
                        f"{X.dim_vector()} -> {Y.dim_vector()}", X)
                    break
            if not rigid:
                break
        if not rigid:
            break
    report.record("rigidity", rigid)
    if not rigid:
        return report
    maximal = True
    for X in indecs:
        if M.contains(X):
            continue
        into = any(replab.ext_dim(X, Y, i)
                   for Y in M.modules for i in range(1, n))
        outof = any(replab.ext_dim(Y, X, i)
                    for Y in M.modules for i in range(1, n))
        if not (into and outof):
            maximal = False
            side = [] if into else ["Ext(X, M) = 0"]
            if not outof:
                side.append("Ext(M, X) = 0")
            report.witness("maximality",
                           f"excluded module violates {' and '.join(side)}",
                           X)
            break
    report.record("maximality", maximal)
    report.record("functorial-finiteness", True,
                  "automatic for representation-finite algebras")
    return report


def _ext_sweep_cases():
    """(algebra, candidate, n): passing candidates, then failing ones."""
    for s in (1, 2):
        for t in (1, 2):
            for n in (2, 3):
                yield generate_sinks_sources(s, t, n) + (n,)
    K = nakayama(KupischSeries([2, 2, 3, 3, 3, 3, 2, 1]))
    yield K, tau_orbit_candidate(K, 3), 3
    S = starlike([(5, "out"), (5, "out"), (4, "in")])
    yield S, tau_orbit_candidate(S, 4), 4
    # failing: checked at the wrong n, not rigid, not maximal
    yield K, tau_orbit_candidate(K, 3), 2
    yield S, tau_orbit_candidate(S, 4), 3
    for B in (K, S):
        yield B, Subcategory(B, arquiver.indecomposables(B)), 2
    L, M = generate_sinks_sources(2, 2, 2)
    for B, cand, n in ((K, tau_orbit_candidate(K, 3), 3), (L, M, 2)):
        ends = Subcategory(B, [end(B, v) for v in B.quiver.vertices
                               for end in (replab.projective,
                                           replab.injective)])
        drop = next(X for X in cand.modules if not ends.contains(X))
        yield B, Subcategory(B, [X for X in cand.modules
                                 if X is not drop]), n


def test_check_nct_matches_pairwise_ext_sweep():
    verdicts = []
    for A, M, n in _ext_sweep_cases():
        ind = arquiver.indecomposables(A)
        got = check_nct(A, M, n, indecs=ind)
        want = _pairwise_check_nct(A, M, n, ind)
        assert got.to_json() == want.to_json(), n
        verdicts.append(got.verdict)
    assert verdicts == [True] * 10 + [False] * 6


def _table_sweep_cases():
    """(algebra, subcategory, n): at each generator point with s, t <= 3
    and at a Kupisch algebra and two glued Nakayama algebras, the
    candidate, the candidate less its last and less its first
    non-projective member, and the candidate plus the first node outside
    it."""
    points = [generate_sinks_sources(s, t, n) + (n,) for s in (1, 2, 3)
              for t in (1, 2, 3) for n in (2, 3, 4)]
    K = nakayama(KupischSeries([2, 2, 3, 3, 3, 3, 2, 1]))
    G7, G8 = (glued_nakayama(random.Random(seed), lmax=9, dmax=4)
              for seed in (7, 8))
    points += [(B, tau_orbit_candidate(B, n), n)
               for B, n in ((K, 3), (G7, 3), (G8, 2))]
    for B, cand, n in points:
        projective = {replab.projective(B, v).dim_vector()
                      for v in B.quiver.vertices}
        inner = [X for X in cand.modules
                 if X.dim_vector() not in projective]
        outside = next(X for X in arquiver.indecomposables(B)
                       if not cand.contains(X))
        yield B, cand, n
        for drop in (inner[-1], inner[0]):
            yield B, Subcategory(B, [X for X in cand.modules
                                     if X is not drop], dedupe=False), n
        yield B, Subcategory(B, cand.modules + [outside], dedupe=False), n


def test_check_nct_on_knitted_tables_matches_pairwise_ext_sweep():
    verdicts, square_zero = [], []
    for A, M, n in _table_sweep_cases():
        assert verifier._NodeExt.of(A, M, n, None) is not None
        got = check_nct(A, M, n)
        want = _pairwise_check_nct(A, M, n, arquiver.indecomposables(A))
        assert got.to_json() == want.to_json(), n
        verdicts.append(got.verdict)
        square_zero.append(arquiver._complete_enumeration(A)._square_zero())
    assert verdicts == [True, False, False, False] * 30
    # the Kupisch and glued algebras read Omega from the record's syzygy
    # table, the generator's from the radical-square-zero closed form
    assert square_zero == [True] * 108 + [False] * 12


def test_hom_into_members_column_matches_the_hom_rows():
    # the column filled in reverse knit order, against the sum of each
    # node's Hom row over the members: the orbit candidate, and every
    # third node, on the knitted records of criterion 04's directed
    # corpus at n = 2 and of the generator at s, t <= 3 and n = 2..4
    cases = [(A, tau_orbit_candidate(A, 2)) for A in criterion_04_corpus()
             if len(A.quiver.vertices) <= 12
             and arquiver.is_representation_directed(A)[0]
             and arquiver._complete_enumeration(A).knitted]
    cases += [generate_sinks_sources(s, t, n) for s in (1, 2, 3)
              for t in (1, 2, 3) for n in (2, 3, 4)]
    values = 0
    for A, M in cases:
        record = arquiver._complete_enumeration(A)
        assert record.knitted
        nodes = range(len(record.dims))
        candidate = verifier._nodes_of(record, A, M.modules)
        for members in (candidate, list(nodes[::3])):
            reads = verifier._NodeExt(record, members, nodes, 2)
            column = reads._hom_into_m()
            assert column == [sum(record.hom(w).get(y, 0) for y in members)
                              for w in nodes]
            values += len(column)
    assert len(cases) == 55 + 27 and values == 3474


def test_check_nct_on_knitted_record_builds_no_module(monkeypatch):
    L, M = generate_sinks_sources(3, 3, 3)
    calls = []

    def counted(module, name):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)
        monkeypatch.setattr(module, name, wrapper)

    for name in ("ext_dim", "resolution_tops", "projective", "injective",
                 "is_isomorphic"):
        counted(replab, name)
    counted(arquiver, "indecomposables")
    assert check_nct(L, M, 3).verdict
    assert calls == []
    record = replab._memo_get(L, "enumeration")
    assert record.knitted and set(record.reps) == {None}
