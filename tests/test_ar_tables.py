"""The per-node AR tables of a complete enumeration against the loops
they replace, and the memo that keeps one enumeration per algebra.

With tables off (``arquiver._known_enumeration`` answering None), the
orbit candidate and the fractured check compute and decompose every
translate and (co)syzygy themselves; that path is the oracle here.
"""

import itertools
import random

import pytest

from arglue import arquiver, replab
from arglue import fracture as fx
from arglue.core import KupischSeries, linear_a, nakayama, starlike
from arglue.gluing import GluingSpec, glue
from arglue.verifier import (check_fractured, check_nct, starlike_rep_finite,
                             tau_orbit_candidate)


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


def _compare(monkeypatch, A, levels, fractured=(), cap=4096):
    """Candidates and reports with tables off, then on; both must agree,
    and with tables on every member is a node of the enumeration.
    ``fractured`` lists the ``report_all`` values to check the fractured
    criterion with, for the trivial fracturing."""
    ind = arquiver.indecomposables(A, cap=cap)
    fr = fx.trivial_fracturing(A) if fractured else None
    nodes = {id(X) for X in ind}
    for n in levels:
        got = {}
        for tables in (False, True):
            with monkeypatch.context() as mp:
                if not tables:
                    mp.setattr(arquiver, "_known_enumeration", lambda A: None)
                M = tau_orbit_candidate(A, n, cap=cap)
                reports = [check_nct(A, M, n, indecs=ind).to_json()]
                if fractured:
                    reports += [check_fractured(A, fr, M, n, report_all=r)
                                .to_json() for r in fractured]
                got[tables] = M, reports
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
    arquiver.indecomposables(A)
    record = arquiver._known_enumeration(A)
    members = set(record.projective.values())
    several = False
    for X in tau_orbit_candidate(A, 2).modules:
        new = set(record.tau_n([record.position(X)], 2, "-")) - members
        several = several or len(new) > 1
        members |= new
    assert several
    _compare(monkeypatch, starlike(rays), [2])


def test_fractured_members_that_are_not_nodes_use_the_loop(monkeypatch):
    G = _glued_nakayama([3, 3, 3, 2, 1], 0)
    fr = fx.trivial_fracturing(G)
    M = tau_orbit_candidate(G, 2)       # before enumeration: not nodes
    want = check_fractured(G, fr, M, 2).to_json()
    arquiver.indecomposables(G)
    calls = []
    tau_n = replab.tau_n

    def counted(*args):
        calls.append(args)
        return tau_n(*args)

    monkeypatch.setattr(replab, "tau_n", counted)
    assert check_fractured(G, fr, M, 2).to_json() == want
    assert calls


def test_tables_answer_known_translates():
    A = linear_a(4)
    arquiver.indecomposables(A)
    record = arquiver._known_enumeration(A)
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
    assert arquiver._known_enumeration(A) is None
    full = arquiver.indecomposables(A)
    assert arquiver._known_enumeration(A) is not None
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
