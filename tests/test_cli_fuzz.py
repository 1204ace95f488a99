"""Randomized command-line inputs: a document with one part replaced by
arbitrary JSON is either still well formed, and gets a verdict, or is an
input error (exit 3) with a message and no traceback; valid Nakayama and
starlike ``check-nct`` runs always end in a verdict."""

import contextlib
import io
import json
import random
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from arglue import cli
from arglue import fracture as fx
from arglue.core import AlgebraError, KupischSeries, nakayama
from conftest import chain_four, random_acyclic_series, random_cyclic_series

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


_CHAIN = chain_four()
_MODULES = [{"dims": {"0": 1, "1": 1}, "mats": {"d0": [["1"]]}},
            {"dims": {"2": 1}, "mats": {}}]


@FUZZ
@given(_corrupted(_MODULES))
def test_malformed_module_documents_are_input_errors(doc):
    code, err = _run(["check", "nct", "alg", "--modules", "mods", "-n", "2"],
                     {"alg": _CHAIN.to_json(), "mods": doc})
    _assert_outcome(code, err, _well_formed(cli._load_modules, _CHAIN, doc))


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
