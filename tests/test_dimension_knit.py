"""The record knitted from dimension vectors against ``_enumerate`` and
``_knit``: node ids and order, tau-minus, the P(v), the arrows, and every
module it builds when read, byte for byte.  Also the algebras that must
take the fallback, the module work a knitted AR quiver avoids, and the
lookups of modules that come from outside the record."""

import itertools
import json
import random
import re

import pytest

from arglue import arquiver, fracture as fx, replab, verifier
from arglue.cli import run
from arglue.core import (AlgebraError, BoundQuiverPresentation, KupischSeries,
                         Quiver, linear_a, nakayama, starlike)
from conftest import (knit_corpus, kronecker, not_directed,
                      orbit_four_fixture, random_acyclic_series,
                      two_presentations_of_a_sum)


def _ids(record):
    return [node.id for node in arquiver._nodes(record.dims, record.module)]


def _assert_knit_matches_enumeration(A):
    knitted = arquiver._knit_record(A)
    assert knitted is not None, A.to_json()
    walked = arquiver._enumerate(A)
    assert _ids(knitted) == _ids(walked)
    assert knitted.tau_minus == walked.tau_minus
    assert (list(knitted.projective.items())
            == list(walked.projective.items()))
    assert (list(knitted.arrows.items())
            == list(arquiver._knit(A, walked).items()))
    # from the last node back, so that most modules are built as the
    # translate of a tau that is not yet built either
    n = len(knitted.dims)
    built = {i: replab.rep_to_json(knitted.module(i))
             for i in reversed(range(n))}
    assert [built[i] for i in range(n)] == [
        replab.rep_to_json(X) for X in walked.reps]


def test_starlike_shapes_knit_as_they_enumerate():
    opts = [(m, d) for m in range(2, 10) for d in ("out", "in")]
    shapes = [list(c) for k in (1, 3, 4)
              for c in itertools.combinations_with_replacement(opts, k)]
    shapes = [s for s in shapes if verifier.starlike_rep_finite(s)][::16]
    assert len(shapes) == 253
    for rays in shapes:
        _assert_knit_matches_enumeration(starlike(rays))


def test_nakayama_and_linear_algebras_knit_as_they_enumerate():
    rng = random.Random(20261020)
    for _ in range(40):
        _assert_knit_matches_enumeration(nakayama(random_acyclic_series(rng)))
    for h in range(5, 16):
        _assert_knit_matches_enumeration(linear_a(h))


def test_knit_corpus_knits_as_it_enumerates():
    # the two 4-cycles of the orbit fixture keep the knit waiting on
    # each other, so that algebra takes the fallback; the cycle quivers
    # have their closed form
    for A in knit_corpus():
        if arquiver._is_cycle(A.quiver):
            continue
        if A == orbit_four_fixture():
            assert arquiver._knit_record(A) is None
            assert arquiver._complete_enumeration(A).arrows is None
        else:
            _assert_knit_matches_enumeration(A)


def test_sinks_sources_algebras_knit_as_they_enumerate():
    for s, t in itertools.product(range(1, 4), repeat=2):
        L, _ = verifier.generate_sinks_sources(s, t, 2)
        _assert_knit_matches_enumeration(L)


def _random_monomial_algebra(rng):
    """2-6 vertices, a tree of arrows plus up to two more, some against
    the vertex order (so oriented cycles occur), and up to four monomial
    relations of length 2-3."""
    n = rng.randint(2, 6)
    arrows = []
    for k in range(n - 1 + rng.choice([0, 0, 1, 1, 2])):
        s, t = rng.sample(range(n), 2)
        if rng.random() < 0.7 and s > t:
            s, t = t, s
        arrows.append((f"a{k}", str(s), str(t)))
    relations = []
    for _ in range(rng.randint(0, 4)):
        path = [rng.choice(arrows)]
        for _ in range(rng.randint(1, 2)):
            out = [a for a in arrows if a[1] == path[-1][2]]
            if out:
                path.append(rng.choice(out))
        if len(path) >= 2:
            relations.append([a for a, _, _ in path])
    return BoundQuiverPresentation(
        Quiver([str(i) for i in range(n)], arrows), relations)


def test_random_monomial_algebras_knit_only_as_they_enumerate():
    # a knit that completes must match the walk; the walk over the
    # fallback algebras, mostly representation-infinite, is left out as
    # it takes seconds each and the fallback is the walk itself
    rng = random.Random(20261020)
    knitted = tried = 0
    while tried < 600:
        try:
            A = _random_monomial_algebra(rng)
        except AlgebraError:
            continue
        if A.dimension() > 40 or arquiver._is_cycle(A.quiver):
            continue
        tried += 1
        if arquiver._knit_record(A) is not None:
            knitted += 1
            _assert_knit_matches_enumeration(A)
    assert knitted > 150


def test_stuck_knit_falls_back_to_the_same_31_nodes():
    A = not_directed()
    assert arquiver._knit_record(A) is None
    record = arquiver._complete_enumeration(A)
    assert arquiver._knit_record(A) is None and record.arrows is None
    assert [replab.rep_to_json(X) for X in record.modules()] == [
        replab.rep_to_json(X) for X in arquiver._enumerate(A).reps]
    assert len(record.reps) == 31


def test_kronecker_knit_falls_back_to_the_same_message():
    A = kronecker()
    assert arquiver._knit_record(A) is None
    with pytest.raises(arquiver.EnumerationError) as walked:
        arquiver._enumerate(A)
    with pytest.raises(arquiver.EnumerationError,
                       match=re.escape(str(walked.value))):
        arquiver.ar_quiver(A)


def test_directed_ar_quiver_builds_no_module(monkeypatch):
    def no_module_work(*args):
        raise AssertionError("the AR quiver built a module")

    algebras = [linear_a(12), nakayama(KupischSeries([3, 3, 3, 2, 1])),
                starlike([(4, "out"), (4, "out"), (3, "in")])]
    with monkeypatch.context() as mp:
        mp.setattr(replab, "decompose", no_module_work)
        mp.setattr(replab, "cosyzygy_and_translate", no_module_work)
        quivers = [arquiver.ar_quiver(A) for A in algebras]
    # read afterwards, the modules are built by translates and agree with
    # the integer arrows
    for ar in quivers:
        assert arquiver.verify_mesh_identity(ar) == []


def test_decomposable_module_with_a_node_dimension_vector_is_found_by_none():
    M, _ = two_presentations_of_a_sum()
    A = M.algebra
    record = arquiver._complete_enumeration(A)
    total = replab.direct_sum(A, [replab.simple(A, "1"),
                                  replab.simple(A, "3")])
    assert total.dim_vector() == replab.projective(A, "1").dim_vector()
    assert record.match(total) is None
    assert record.match(replab.rep_from_json(
        A, replab.rep_to_json(replab.projective(A, "1")))) is not None


def test_check_nct_rejects_a_sum_with_a_node_dimension_vector(tmp_path,
                                                              capsys):
    M, _ = two_presentations_of_a_sum()
    A = M.algebra
    alg = tmp_path / "alg.json"
    alg.write_text(json.dumps(A.to_json()))
    total = replab.direct_sum(A, [replab.simple(A, "1"),
                                  replab.simple(A, "3")])
    for module in (M, total):
        mods = tmp_path / "modules.json"
        mods.write_text(json.dumps([replab.rep_to_json(module)]))
        code, _ = run(["check", "nct", str(alg), "--modules", str(mods),
                       "-n", "2"])
        err = capsys.readouterr().err
        assert code == 3
        assert (f"module 0 with dimension vector "
                f"{list(module.dim_vector())}") in err
        assert "not indecomposable" in err and "Traceback" not in err


def test_check_fractured_matches_each_read_member_once(tmp_path,
                                                       monkeypatch):
    A = nakayama(KupischSeries([3, 3, 3, 2, 1]))
    fr = fx.trivial_fracturing(A)
    members = verifier.tau_orbit_candidate(A, 2).modules
    assert len(members) == 7
    alg = tmp_path / "alg.json"
    alg.write_text(json.dumps(A.to_json()))
    mods = tmp_path / "modules.json"
    mods.write_text(json.dumps([replab.rep_to_json(M) for M in members]))
    frac = tmp_path / "fracturing.json"
    frac.write_text(json.dumps(
        {side: {anchor: T.intervals for anchor, T in fractures.items()}
         for side, fractures in (("left", fr.left), ("right", fr.right))}))
    looked_up = []
    find = arquiver._IsoIndex.find

    def counted(self, rep):
        if isinstance(self, arquiver._Record):
            looked_up.append(rep)
        return find(self, rep)

    monkeypatch.setattr(arquiver._IsoIndex, "find", counted)
    code, report = run(["check", "fractured", str(alg), "--fracturing",
                        str(frac), "-n", "2", "--modules", str(mods)])
    assert code in (0, 2) and report.data["verdicts"]["candidate-size"] == 7
    assert len(looked_up) == 7
    assert len({id(M) for M in looked_up}) == 7
