"""The per-node AR tables of an algebra's record against the loops they
replace, and the memo that keeps one record per algebra.

The oracle computes and decomposes every translate and (co)syzygy
itself: ``oracles.loop_candidate`` builds the orbit candidate member by
member, and ``oracles.ModuleSteps``, patched in for
``verifier._NodeSteps``, runs the fractured check on modules.
"""

import itertools
import random
import re

import pytest

from arglue import arquiver, replab, verifier
from arglue import fracture as fx
from arglue.core import (AlgebraError, BoundQuiverPresentation, KupischSeries,
                         Quiver, linear_a, nakayama, starlike)
from arglue.gluing import GluingSpec, glue
from arglue.verifier import (Subcategory, check_fractured, check_nct,
                             starlike_rep_finite, tau_orbit_candidate)
from conftest import random_cyclic_series
from oracles import ModuleSteps, loop_candidate


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


def _compare(monkeypatch, A, levels, fractured=(), cap=4096):
    """Candidates and reports by the loop, then from the tables; both must
    agree, and from the tables every member is a node of the record.
    ``fractured`` lists the ``report_all`` values to check the fractured
    criterion with, for the trivial fracturing.  Where the loop raises,
    the tables must raise the same."""
    ind = arquiver.indecomposables(A, cap=cap)
    fr = fx.trivial_fracturing(A) if fractured else None
    nodes = {id(X) for X in ind}
    for n in levels:
        got = {}
        for tables in (False, True):
            with monkeypatch.context() as mp:
                if not tables:
                    mp.setattr(verifier, "_NodeSteps", ModuleSteps)
                candidate = tau_orbit_candidate if tables else loop_candidate

                def run():
                    M = candidate(A, n, cap=cap)
                    reports = [check_nct(A, M, n, indecs=ind).to_json()]
                    reports += [check_fractured(A, fr, M, n, report_all=r)
                                .to_json() for r in fractured]
                    return M, reports

                got[tables] = _outcome(run)
        if isinstance(got[False][0], str):
            assert got[True] == got[False], n
            continue
        (loop, want), (table, have) = got[False], got[True]
        _assert_same_candidates(loop, table)
        assert have == want, n
        assert all(id(X) in nodes for X in table.modules)


def test_starlike_candidates_and_reports_match_the_loop(monkeypatch):
    shapes = _starlike_shapes()
    assert len(shapes) == 253
    for rays in shapes:
        _compare(monkeypatch, starlike(rays), range(2, 6), fractured=[True],
                 cap=1024)


def test_glued_nakayama_candidates_and_fractured_reports_match(monkeypatch):
    rng = random.Random(20260823)
    verdicts = set()
    for length in range(4, 13):
        for _ in range(2):
            G = _glued_nakayama(_random_series(rng, length),
                                rng.randrange(1 << 16))
            _compare(monkeypatch, G, range(2, 5), fractured=[False, True])
            verdicts.add(check_fractured(
                G, fx.trivial_fracturing(G), tau_orbit_candidate(G, 2),
                2).verdict)
    assert verdicts == {True, False}


def test_translate_with_several_new_summands_keeps_decompose_order(
        monkeypatch):
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
    _compare(monkeypatch, starlike(rays), [2])


def test_cyclic_nakayama_candidates_and_reports_match_the_loop(monkeypatch):
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
                _compare(monkeypatch, A, [n],
                         fractured=[False, True] if brick else ())
    assert outcomes == {(True, False), (False, False), (False, True)}


def test_cyclic_tables_match_the_modules():
    rng = random.Random(20260823)
    for k in range(24):
        A = nakayama(random_cyclic_series(rng, 5, 8, k % 2 == 0))
        record = arquiver._complete_enumeration(A)
        reps = record.index.reps
        for i, rep in enumerate(reps):
            for direction in "+-":
                S = replab.syzygy(rep, direction, 1)
                got = [reps[j] for j in record.syzygy(i, direction)]
                assert len(got) == (0 if S.is_zero() else 1)
                assert all(replab.is_isomorphic(S, X) for X in got)


def _not_directed():
    """Enumeration reports 31 nodes as complete, though the algebra is not
    representation-directed: rad P(3) = S(4) lies outside the
    preprojective component."""
    arrows = [("b", "0", "1"), ("c", "1", "3"), ("d", "3", "4"),
              ("e", "4", "5"), ("f", "0", "5"), ("g", "2", "5")]
    return BoundQuiverPresentation(
        Quiver([str(i) for i in range(6)], arrows), [("c", "d"), ("d", "e")])


def test_complete_but_not_directed_algebra_matches_the_loop(monkeypatch):
    A = _not_directed()
    assert len(arquiver.indecomposables(A)) == 31
    assert not arquiver.is_representation_directed(A)[0]
    _compare(monkeypatch, A, range(2, 5), fractured=[False, True])


def test_fractured_members_that_are_not_nodes_give_the_same_report():
    G = _glued_nakayama([3, 3, 3, 2, 1], 0)
    fr = fx.trivial_fracturing(G)
    M = tau_orbit_candidate(G, 2)
    # the members as a module dump reads them back, in the loop's bases
    copies = Subcategory(G, [replab.rep_from_json(G, replab.rep_to_json(X))
                             for X in loop_candidate(G, 2).modules])
    record = arquiver._complete_enumeration(G)
    assert all(record.position(X) is None for X in copies.modules)
    for report_all in (False, True):
        assert (check_fractured(G, fr, copies, 2, report_all).to_json()
                == check_fractured(G, fr, M, 2, report_all).to_json())


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
    reps = record.index.reps
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
    enumerate_ = arquiver._enumerate

    def counted(A, cap=4096):
        calls.append(cap)
        return enumerate_(A, cap=cap)

    monkeypatch.setattr(arquiver, "_enumerate", counted)
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
    enumerate_ = arquiver._enumerate

    def counted(A, cap=4096):
        calls.append(A)
        return enumerate_(A, cap=cap)

    monkeypatch.setattr(arquiver, "_enumerate", counted)
    A, B = linear_a(5), linear_a(5)
    ind = arquiver.indecomposables(A)
    ar = arquiver.ar_quiver(A)
    assert [node.rep for node in ar.nodes] == ind
    tau_orbit_candidate(A, 2)
    arquiver.indecomposables(B)
    assert len(calls) == 2 and calls[0] is A and calls[1] is B
