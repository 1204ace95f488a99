"""The per-node AR tables of an algebra's record against the loops they
replace, and the memo that keeps one record per algebra.

The oracle computes and decomposes every translate and (co)syzygy
itself: ``oracles.loop_candidate`` builds the orbit candidate member by
member, and ``oracles.module_check_fractured`` runs the fractured check
on modules.
"""

import itertools
import random
import re

import pytest

from arglue import arquiver, replab
from arglue import fracture as fx
from arglue.core import (AlgebraError, KupischSeries, linear_a, nakayama,
                         starlike)
from arglue.gluing import GluingSpec, glue
from arglue.verifier import (Subcategory, check_fractured, check_nct,
                             starlike_rep_finite, tau_orbit_candidate)
from conftest import not_directed, random_cyclic_series
from oracles import loop_candidate, module_check_fractured


def _starlike_shapes():
    """Every 16th representation-finite shape of criterion 02."""
    opts = [(m, d) for m in range(2, 10) for d in ("out", "in")]
    shapes = [list(c) for k in (1, 3, 4)
              for c in itertools.combinations_with_replacement(opts, k)]
    return [s for s in shapes if starlike_rep_finite(s)][::16]


def _glued_nakayama(series, pick):
    """A Nakayama algebra glued with a linear chain along one of its
    maximal left abutments, as the benchmark's fractured items build it."""
    A = nakayama(KupischSeries(series))
    maximal = [ab for ab in fx.abutments(A, "left") if ab.maximal]
    P = maximal[pick % len(maximal)]
    H = linear_a(P.height)
    I = next(ab for ab in fx.abutments(H, "right") if ab.height == P.height)
    return glue(GluingSpec(A, P, H, I)).presentation


def _random_series(rng, length, dmax=4):
    d = [rng.randint(2, dmax) for _ in range(length - 1)] + [1]
    for i in range(length - 2, -1, -1):
        if d[i] - 1 > d[i + 1]:
            d[i] = d[i + 1] + 1
    return d


def _assert_same_candidates(loop, table):
    assert len(loop) == len(table)
    for X, Y in zip(loop.modules, table.modules):
        assert replab.is_isomorphic(X, Y)


def _outcome(fn):
    """fn(), or the type and message of the error it raises."""
    try:
        return fn()
    except (replab.DecompositionError, arquiver.EnumerationError) as e:
        return type(e).__name__, str(e)


def _compare(A, levels, fractured=False, cap=4096):
    """Candidates and reports by the loop, then from the tables; both must
    agree, and from the tables every member is a node of the record.
    With ``fractured`` the fractured criterion is checked too, for the
    trivial fracturing.  Where the loop raises, the tables must raise the
    same."""
    ind = arquiver.indecomposables(A, cap=cap)
    fr = fx.trivial_fracturing(A) if fractured else None
    nodes = {id(X) for X in ind}
    for n in levels:
        got = {}
        for tables in (False, True):
            candidate = tau_orbit_candidate if tables else loop_candidate
            fractured_check = (check_fractured if tables
                               else module_check_fractured)

            def run():
                M = candidate(A, n, cap=cap)
                reports = [check_nct(A, M, n, indecs=ind).to_json()]
                if fractured:
                    reports.append(fractured_check(A, fr, M, n).to_json())
                return M, reports

            got[tables] = _outcome(run)
        if isinstance(got[False][0], str):
            assert got[True] == got[False], n
            continue
        (loop, want), (table, have) = got[False], got[True]
        _assert_same_candidates(loop, table)
        assert have == want, n
        assert all(id(X) in nodes for X in table.modules)


def test_starlike_candidates_and_reports_match_the_loop():
    shapes = _starlike_shapes()
    assert len(shapes) == 253
    for rays in shapes:
        _compare(starlike(rays), range(2, 6), fractured=True,
                 cap=1024)


def test_glued_nakayama_candidates_and_fractured_reports_match():
    rng = random.Random(20260823)
    verdicts = set()
    for length in range(4, 13):
        for _ in range(2):
            G = _glued_nakayama(_random_series(rng, length),
                                rng.randrange(1 << 16))
            _compare(G, range(2, 5), fractured=True)
            verdicts.add(check_fractured(
                G, fx.trivial_fracturing(G), tau_orbit_candidate(G, 2),
                2).verdict)
    assert verdicts == {True, False}


def test_translate_with_several_new_summands_keeps_decompose_order():
    # tau_2^- of one member has two summands that are not yet members:
    # the table path orders them as decompose orders the translate
    rays = [(2, "in"), (3, "in"), (7, "in")]
    A = starlike(rays)
    record = arquiver._complete_enumeration(A)
    members = set(record.projective.values())
    several = False
    for X in tau_orbit_candidate(A, 2).modules:
        new = set(record.tau_n([record.position(X)], 2, "-")) - members
        several = several or len(new) > 1
        members |= new
    assert several
    _compare(starlike(rays), [2])


def test_candidate_reads_only_the_record(monkeypatch):
    # the new classes of a translate with several are ordered by the
    # record's tables, with no translate of a module
    def no_translate(*args):
        raise AssertionError("the candidate translated a module")

    monkeypatch.setattr(replab, "tau_n", no_translate)
    A = starlike([(2, "in"), (3, "in"), (7, "in")])
    M = tau_orbit_candidate(A, 2)
    record = arquiver._complete_enumeration(A)
    assert all(record.position(X) is not None for X in M.modules)


def test_cyclic_nakayama_candidates_and_reports_match_the_loop():
    # the closed-form tables never decompose, so where the loop meets a
    # translate that is not a brick it fails and the tables still answer;
    # the fractured oracle decomposes every step, so it runs on bricks
    rng = random.Random(20260823)
    outcomes = set()
    for k in range(24):
        brick = k % 2 == 0
        A = nakayama(random_cyclic_series(rng, 5, 8, brick))
        for n in range(2, 5):
            loop = _outcome(lambda: loop_candidate(A, n))
            outcomes.add((brick, isinstance(loop, tuple)))
            if isinstance(loop, tuple):
                assert not brick
                assert loop[0] == "DecompositionError"
                tau_orbit_candidate(A, n)
            else:
                _compare(A, [n], fractured=brick)
    assert outcomes == {(True, False), (False, False), (False, True)}


def test_cyclic_tables_match_the_modules():
    rng = random.Random(20260823)
    for k in range(24):
        A = nakayama(random_cyclic_series(rng, 5, 8, k % 2 == 0))
        record = arquiver._complete_enumeration(A)
        reps = record.modules()
        for i, rep in enumerate(reps):
            for direction in "+-":
                S = replab.syzygy(rep, direction, 1)
                got = [reps[j] for j in record.syzygy(i, direction)]
                assert len(got) == (0 if S.is_zero() else 1)
                assert all(replab.is_isomorphic(S, X) for X in got)


def test_complete_but_not_directed_algebra_matches_the_loop():
    A = not_directed()
    assert len(arquiver.indecomposables(A)) == 31
    assert not arquiver.is_representation_directed(A)[0]
    _compare(A, range(2, 5), fractured=True)


def test_fractured_members_that_are_not_nodes_give_the_same_report():
    G = _glued_nakayama([3, 3, 3, 2, 1], 0)
    fr = fx.trivial_fracturing(G)
    M = tau_orbit_candidate(G, 2)
    # the members as a module dump reads them back, in the loop's bases
    copies = Subcategory(G, [replab.rep_from_json(G, replab.rep_to_json(X))
                             for X in loop_candidate(G, 2).modules])
    record = arquiver._complete_enumeration(G)
    assert all(record.position(X) is None for X in copies.modules)
    assert (check_fractured(G, fr, copies, 2).to_json()
            == check_fractured(G, fr, M, 2).to_json())


def test_decomposable_fractured_member_is_an_input_error():
    G = _glued_nakayama([3, 3, 3, 2, 1], 0)
    M = tau_orbit_candidate(G, 2)
    X, Y = M.modules[-2:]
    total = replab.direct_sum(G, [X, Y])
    with pytest.raises(AlgebraError,
                       match=re.escape(str(list(total.dim_vector())))):
        check_fractured(G, fx.trivial_fracturing(G),
                        Subcategory(G, M.modules + [total]), 2)


def test_tables_answer_known_translates():
    A = linear_a(4)
    record = arquiver._complete_enumeration(A)
    reps = record.modules()
    for i, rep in enumerate(reps):
        for direction in "+-":
            want = replab.decompose(replab.syzygy(rep, direction, 1))
            got = [reps[j] for j in record.syzygy(i, direction)]
            assert len(got) == len(want)
            assert all(map(replab.is_isomorphic, got, want))
        assert [reps[j] for j in record.tau_n([i], 1, "+")] == [
            reps[j] for j, t in enumerate(record.tau_minus) if t == i]


# -- the enumeration memo ---------------------------------------------------

def test_indecomposables_returns_a_fresh_list():
    A = linear_a(4)
    first = arquiver.indecomposables(A)
    first.clear()
    again = arquiver.indecomposables(A)
    assert len(again) == 10
    again.pop()
    assert len(arquiver.indecomposables(A)) == 10


def test_capped_enumeration_raises_every_time_and_is_not_kept(monkeypatch):
    calls = []
    new_record = arquiver._new_record

    def counted(A, cap=4096):
        calls.append(cap)
        return new_record(A, cap)

    monkeypatch.setattr(arquiver, "_new_record", counted)
    A = starlike([(9, "out"), (9, "out"), (9, "in"), (9, "in")])
    for _ in range(2):
        with pytest.raises(arquiver.EnumerationError):
            arquiver.indecomposables(A, cap=4)
    assert calls == [4, 4]
    assert replab._memo_get(A, "enumeration") is None
    full = arquiver.indecomposables(A)
    assert replab._memo_get(A, "enumeration") is not None
    # a smaller cap than the known list still raises, from a new run
    with pytest.raises(arquiver.EnumerationError):
        arquiver.indecomposables(A, cap=len(full) - 1)
    assert len(arquiver.indecomposables(A, cap=len(full))) == len(full)
    assert calls == [4, 4, 4096, len(full) - 1]


def test_ar_quiver_and_indecomposables_share_one_enumeration(monkeypatch):
    calls = []
    new_record = arquiver._new_record

    def counted(A, cap=4096):
        calls.append(A)
        return new_record(A, cap)

    monkeypatch.setattr(arquiver, "_new_record", counted)
    A, B = linear_a(5), linear_a(5)
    ind = arquiver.indecomposables(A)
    ar = arquiver.ar_quiver(A)
    assert [node.rep for node in ar.nodes] == ind
    tau_orbit_candidate(A, 2)
    arquiver.indecomposables(B)
    assert len(calls) == 2 and calls[0] is A and calls[1] is B


# -- Nakayama records: closed-form tables and no module on the check path --

def test_nakayama_syzygy_tables_match_the_modules():
    # a knitted Nakayama record writes its (co)syzygy tables in closed
    # form; the module-built tables name the same nodes in the same order
    rng = random.Random(20260823)
    algebras = [nakayama(KupischSeries(
        _random_series(rng, rng.randint(2, 16)))) for _ in range(150)]
    algebras += [_glued_nakayama(_random_series(rng, length),
                                 rng.randrange(1 << 16))
                 for length in range(4, 13) for _ in range(2)]
    tables = 0
    for A in algebras:
        record = arquiver._complete_enumeration(A)
        assert record._uniserial()
        for i, rep in enumerate(record.modules()):
            for direction in "+-":
                want = [record.locate(part) for part in replab.decompose(
                    replab.syzygy(rep, direction, 1))]
                assert record.syzygy(i, direction) == want, (A, i)
                tables += 1
    assert tables > 5000


def test_glued_nakayama_check_path_builds_no_module(monkeypatch):
    G = _glued_nakayama([2, 2, 2, 2, 1], 0)
    fr = fx.trivial_fracturing(G)
    calls = []
    for name in ("cosyzygy_and_translate", "is_isomorphic"):
        def counted(*args, _name=name, _fn=getattr(replab, name)):
            calls.append(_name)
            return _fn(*args)
        monkeypatch.setattr(replab, name, counted)
    ind = arquiver.indecomposables(G)
    verdicts = []
    for n in range(2, 5):
        M = tau_orbit_candidate(G, n)
        verdicts.append((check_nct(G, M, n, indecs=ind).verdict,
                         check_fractured(G, fr, M, n).verdict))
    assert verdicts == [(True, True), (False, False), (True, True)]
    assert arquiver._complete_enumeration(G).reps == [None] * len(ind)
    assert calls == []


def test_node_lists_act_as_lists_of_the_node_modules():
    A = linear_a(4)
    reps = [node.rep for node in arquiver.ar_quiver(A).nodes]
    ind = arquiver.indecomposables(A)
    assert isinstance(ind, arquiver.NodeList) and len(ind) == 10
    assert all(X is Y for X, Y in zip(ind, reps))
    assert ind[0] is reps[0] and ind[-1] is reps[-1] and ind[-4] is reps[-4]
    assert ind[2:5] == reps[2:5] and ind[::-2] == reps[::-2]
    assert type(ind[1:3]) is list
    assert ind == reps and reps == ind and ind != reps[:-1]
    assert ind + reps[:1] == reps + reps[:1]
    assert reps[:1] + ind == reps[:1] + reps
    assert ind + ind == reps + reps
    assert reps[3] in ind and ind.index(reps[3]) == 3
    # every call gives a fresh list, which clear and pop change alone
    other = arquiver.indecomposables(A)
    assert other is not ind and other == ind
    assert ind.pop() is reps[-1] and ind.pop(0) is reps[0]
    assert ind == reps[1:-1] and len(other) == 10
    ind.clear()
    assert ind == [] and len(other) == 10


def test_subcategories_of_nodes_locate_by_node():
    A = linear_a(4)
    record = arquiver._complete_enumeration(A)
    for n in (1, 2):
        M = tau_orbit_candidate(A, n)
        assert isinstance(M.modules, arquiver.NodeList)
        assert M.modules.record is record
        for k, X in enumerate(M.modules):
            copy = replab.rep_from_json(A, replab.rep_to_json(X))
            assert M.locate(X) == k and M.locate(copy) == k
    M = tau_orbit_candidate(A, 2)
    outside = next(X for X in arquiver.indecomposables(A)
                   if X not in M.modules)
    assert not M.contains(outside)
    # a repeated node is dropped by dedupe, else found at its first place
    twice = arquiver.NodeList(record, [3, 1, 3])
    assert Subcategory(A, twice).modules.nodes == [3, 1]
    kept = Subcategory(A, twice, dedupe=False)
    assert len(kept) == 3 and kept.locate(record.module(3)) == 0
    # the subcategory holds its own copy of the node list
    twice.clear()
    assert len(kept) == 3
