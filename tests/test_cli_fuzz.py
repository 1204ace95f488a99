"""Randomized command-line inputs: a document with one part replaced by
arbitrary JSON is either still well formed, and gets a verdict, or is an
input error (exit 3) with a message and no traceback; an algebra whose
arrows close a cycle is valid or non-admissible (exit 3); a module list
of nodes gets a verdict, and one holding a direct sum is an input error;
valid Nakayama and starlike ``check-nct`` runs always end in a verdict."""

import contextlib
import io
import json
import random
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from arglue import arquiver, cli, replab
from arglue import fracture as fx
from arglue.core import AlgebraError, KupischSeries, nakayama
from conftest import (chain_four, random_acyclic_series, random_cyclic_series,
                      rebased)

FUZZ = settings(max_examples=60, deadline=None)

# small values only: a well-formed document must stay cheap to check
_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(-2, 5), st.floats(),
    st.sampled_from(["", "1", "2", "x", "a0", "d1", "-1", "1/0", "out"]))
_KEYS = st.sampled_from(["dims", "mats", "id", "from", "to", "m", "dir",
                         "0", "1", "d0", "left", "right", "kupisch"])
_VALUES = st.recursive(
    _SCALARS, lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(_KEYS, inner, max_size=3), max_leaves=6)


def _slots(doc):
    """(container, key) of every part of doc, the root as (None, None)."""
    yield None, None
    stack = [doc]
    while stack:
        node = stack.pop()
        keys = (range(len(node)) if isinstance(node, list)
                else node if isinstance(node, dict) else ())
        for key in keys:
            yield node, key
            stack.append(node[key])


@st.composite
def _corrupted(draw, doc):
    """doc with one part replaced by an arbitrary value, or dropped."""
    doc = json.loads(json.dumps(doc))
    container, key = draw(st.sampled_from(list(_slots(doc))))
    value = draw(_VALUES)
    if container is None:
        return value
    if isinstance(container, dict) and draw(st.booleans()):
        del container[key]
    else:
        container[key] = value
    return doc


def _run(argv, documents):
    """cli.run on the documents written to files, whose paths replace
    their names in argv; (exit code, stderr)."""
    with tempfile.TemporaryDirectory() as tmp:
        for name, doc in documents.items():
            path = Path(tmp) / f"{name}.json"
            path.write_text(json.dumps(doc))
            argv = [str(path) if a == name else a for a in argv]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err):
            code, _ = cli.run(argv)
    return code, err.getvalue()


def _well_formed(read, *args):
    try:
        read(*args)
    except (cli.CliError, AlgebraError):
        return False
    return True


def _assert_outcome(code, err, well_formed):
    assert "Traceback" not in err
    if well_formed:
        assert code in (cli.PASS, cli.FAIL), err
    else:
        assert code == cli.INPUT_ERROR and "input error" in err


_ALGEBRAS = [chain_four().to_json(), {"kupisch": [3, 3, 2, 1]},
             {"kupisch": [2, 2], "cyclic": True},
             {"starlike": [{"m": 3, "dir": "out"}, {"m": 2, "dir": "in"},
                           {"m": 2, "dir": "out"}]}]


@FUZZ
@given(st.sampled_from(_ALGEBRAS).flatmap(_corrupted))
def test_malformed_algebra_documents_are_input_errors(doc):
    code, err = _run(["algebra", "validate", "alg"], {"alg": doc})
    _assert_outcome(code, err, _well_formed(cli._parse_algebra, doc))


@st.composite
def _cyclic_algebras(draw):
    """1-3 vertices closed into a cycle (a loop on one vertex), up to three
    more arrows, and up to four random monomial relations of length 2 or
    3."""
    k = draw(st.integers(1, 3))
    vertices = [str(v) for v in range(k)]
    arrows = [(f"c{v}", vertices[v], vertices[(v + 1) % k])
              for v in range(k)]
    ends = st.tuples(st.sampled_from(vertices), st.sampled_from(vertices))
    arrows += [(f"e{j}", s, t) for j, (s, t)
               in enumerate(draw(st.lists(ends, max_size=3)))]
    relations = []
    for _ in range(draw(st.integers(0, 4))):
        path = [draw(st.sampled_from(arrows))]
        for _ in range(draw(st.integers(1, 2))):
            path.append(draw(st.sampled_from(
                [a for a in arrows if a[1] == path[-1][2]])))
        relations.append([a for a, _, _ in path])
    return {"vertices": vertices,
            "arrows": [{"id": a, "from": s, "to": t} for a, s, t in arrows],
            "relations": relations}


@FUZZ
@given(_cyclic_algebras())
def test_cyclic_algebras_are_valid_or_non_admissible(doc):
    code, err = _run(["algebra", "validate", "alg"], {"alg": doc})
    assert "Traceback" not in err
    assert code == cli.PASS or (code == cli.INPUT_ERROR
                                and "non-admissible" in err), err


_CHAIN = chain_four()
_MODULES = [{"dims": {"0": 1, "1": 1}, "mats": {"d0": [["1"]]}},
            {"dims": {"2": 1}, "mats": {}}]


@FUZZ
@given(_corrupted(_MODULES))
def test_malformed_module_documents_are_input_errors(doc):
    code, err = _run(["check", "nct", "alg", "--modules", "mods", "-n", "2"],
                     {"alg": _CHAIN.to_json(), "mods": doc})
    _assert_outcome(code, err, _well_formed(cli._load_modules, _CHAIN, doc))


_NODES = arquiver.indecomposables(_CHAIN)


@st.composite
def _module_lists(draw):
    """(dumps, has_sum): 1-5 nodes of chain_four, each possibly in another
    basis, and sometimes the direct sum of two nodes in another basis."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    node = st.sampled_from(_NODES)
    mods = [rebased(X, rng) if draw(st.booleans()) else X
            for X in draw(st.lists(node, min_size=1, max_size=5))]
    has_sum = draw(st.booleans())
    if has_sum:
        total = replab.direct_sum(_CHAIN, [draw(node), draw(node)])
        mods.insert(draw(st.integers(0, len(mods))), rebased(total, rng))
    return [replab.rep_to_json(X) for X in mods], has_sum


@FUZZ
@given(_module_lists(), st.integers(1, 3))
def test_module_lists_of_nodes_get_a_verdict_and_sums_are_rejected(drawn, n):
    doc, has_sum = drawn
    code, err = _run(["check", "nct", "alg", "--modules", "mods",
                      "-n", str(n)], {"alg": _CHAIN.to_json(), "mods": doc})
    assert "Traceback" not in err
    if has_sum:
        assert code == cli.INPUT_ERROR and "not indecomposable" in err, err
    else:
        assert code in (cli.PASS, cli.FAIL), err


_KUPISCH = nakayama(KupischSeries([3, 3, 3, 2, 1]))
_FRACTURING = {
    side: {anchor: [list(iv) for iv in T.intervals]
           for anchor, T in fractures.items()}
    for side, fractures in (("left", fx.trivial_fracturing(_KUPISCH).left),
                            ("right", fx.trivial_fracturing(_KUPISCH).right))}


@FUZZ
@given(_corrupted(_FRACTURING))
def test_malformed_fracturing_documents_are_input_errors(doc):
    code, err = _run(["check", "fractured", "alg", "--fracturing", "frac",
                      "-n", "2"],
                     {"alg": {"kupisch": [3, 3, 3, 2, 1]}, "frac": doc})
    _assert_outcome(code, err,
                    _well_formed(cli._load_fracturing, _KUPISCH, doc))


@st.composite
def _nakayama_argv(draw):
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        series, flags = random_cyclic_series(rng, lmax=4, dmax=4), ["--cyclic"]
    else:
        series, flags = random_acyclic_series(rng, lmax=7, dmax=4), []
    kupisch = ",".join(map(str, series.entries))
    return ["nakayama", "--kupisch", kupisch, *flags, "check-nct"]


@st.composite
def _starlike_argv(draw):
    arms = draw(st.lists(st.tuples(st.integers(2, 5),
                                   st.sampled_from(["out", "in"])),
                         min_size=1, max_size=4)
                .filter(lambda arms: len(arms) != 2))
    text = ",".join(f"{m}:{d}" for m, d in arms)
    return ["starlike", "--arms", text, "check-nct"]


@FUZZ
@given(st.one_of(_nakayama_argv(), _starlike_argv()), st.integers(1, 4))
def test_valid_check_nct_inputs_get_a_verdict(argv, n):
    code, err = _run(argv + ["-n", str(n)], {})
    _assert_outcome(code, err, True)
