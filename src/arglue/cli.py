"""Command-line front door.

One pipeline per invocation; compose runs through files.  Exit codes:
0 = pass, 2 = verification failure, 3 = input error.
"""

import argparse
import contextlib
import hashlib
import json
import sys

from . import arquiver, gluing, replab, selfglue, verifier
from . import fracture as fx
from .core import (AlgebraError, KupischSeries, kupisch_of, nakayama,
                   parse_algebra, starlike)

PASS, FAIL, INPUT_ERROR = 0, 2, 3


class CliError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise CliError(message)


@contextlib.contextmanager
def _malformed(what):
    """Reports the errors that reading a malformed document raises as
    CliError; AlgebraError already names the input fault."""
    try:
        yield
    except AlgebraError:
        raise
    except (ArithmeticError, AttributeError, KeyError, TypeError,
            ValueError) as e:
        raise CliError(f"malformed {what}: {e}")


def _read_json(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as e:
        raise CliError(f"cannot read {path}: {e}")


def _parse_algebra(doc):
    """The algebra of a document, or of its "algebra" entry."""
    with _malformed("algebra document"):
        if isinstance(doc, dict) and "algebra" in doc:
            doc = doc["algebra"]
        return parse_algebra(doc)


def _load_algebra(path):
    return _parse_algebra(_read_json(path))


def _load_modules(A, doc):
    with _malformed("module list"):
        return [replab.rep_from_json(A, d) for d in doc]


def _load_fracturing(A, doc):
    maxima = {"left": {ab.anchor: ab for ab in fx.abutments(A, "left")
                       if ab.maximal},
              "right": {ab.anchor: ab for ab in fx.abutments(A, "right")
                        if ab.maximal}}
    sides = {}
    with _malformed("fracturing"):
        for side in ("left", "right"):
            sides[side] = {}
            for anchor, ivs in doc.get(side, {}).items():
                ab = maxima[side].get(str(anchor))
                if ab is None:
                    raise CliError(f"no maximal {side} abutment at {anchor}")
                sides[side][str(anchor)] = fx.IntervalSet(ab.height, ivs)
    return fx.Fracturing(A, sides["left"], sides["right"])


def _level(args, least, what):
    """args.n, or CliError when it is below ``least``."""
    if args.n < least:
        raise CliError(f"{what} needs -n >= {least}")
    return args.n


def _digest(paths):
    out = {}
    for p in paths:
        try:
            with open(p, "rb") as fh:
                out[p] = hashlib.sha256(fh.read()).hexdigest()[:16]
        except OSError:
            out[p] = "unreadable"
    return out


class CommandReport:
    def __init__(self, argv, inputs):
        self.data = {"command": list(argv), "inputs": _digest(inputs),
                     "verdicts": {}, "artifacts": []}

    def verdict(self, name, value, detail=None):
        self.data["verdicts"][name] = value
        line = f"{name}: {value}"
        if detail:
            line += f"  ({detail})"
        print(line)

    def attach(self, key, value):
        self.data[key] = value

    def write(self, args):
        if getattr(args, "json", None):
            with open(args.json, "w") as fh:
                json.dump(self.data, fh, indent=2, sort_keys=True)
            self.data["artifacts"].append(args.json)
            print(f"report written to {args.json}")


def _write_dot(args, ar, report):
    if getattr(args, "dot", None):
        with open(args.dot, "w") as fh:
            fh.write(arquiver.to_dot(ar))
        report.data["artifacts"].append(args.dot)
        print(f"DOT written to {args.dot}")


def _write_dump(args, modules, report):
    if getattr(args, "dump", None):
        with open(args.dump, "w") as fh:
            json.dump([replab.rep_to_json(M) for M in modules], fh, indent=2)
        report.data["artifacts"].append(args.dump)
        print(f"module dump written to {args.dump}")


def _summaries(modules):
    return [{"dims": dict(M.dim)} for M in modules]


# -- subcommand pipelines -------------------------------------------------

def _cmd_algebra(args, report):
    A = _load_algebra(args.file)
    if args.action == "validate":
        report.attach("algebra", A.to_json())
        report.verdict("valid", True,
                       f"{len(A.quiver.vertices)} vertices, "
                       f"{len(A.quiver.arrows)} arrows, "
                       f"{len(A.relations)} relations")
        return PASS
    if args.action == "indec":
        reps = arquiver.indecomposables(A, cap=args.cap)
        report.attach("indecomposables", _summaries(reps))
        report.verdict("count", len(reps))
        _write_dump(args, reps, report)
        return PASS
    ar = arquiver.ar_quiver(A, cap=args.cap)
    report.attach("nodes", [n.id for n in ar.nodes])
    report.verdict("nodes", ar.node_count())
    report.verdict("mesh-identity", arquiver.verify_mesh_identity(ar) == [])
    _write_dot(args, ar, report)
    return PASS


def _candidate(A, args, n, doc=None):
    if getattr(args, "modules", None):
        mdoc = _read_json(args.modules)
        return verifier.Subcategory(A, _load_modules(A, mdoc))
    if doc and isinstance(doc, dict) and "modules" in doc:
        return verifier.Subcategory(A, _load_modules(A, doc["modules"]))
    return verifier.tau_orbit_candidate(A, n, cap=args.cap)


def _finish_check(rep, report, args, name="verdict"):
    report.attach("report", json.loads(rep.to_json()))
    report.verdict(name, rep.verdict)
    return PASS if rep.verdict else FAIL


def _cmd_check(args, report):
    doc = _read_json(args.file)
    A = _parse_algebra(doc)
    n = _level(args, 1 if args.action == "nct" else 2, f"check {args.action}")
    M = _candidate(A, args, n, doc)
    report.verdict("candidate-size", len(M))
    if args.action == "nct":
        rep = verifier.check_nct(A, M, n)
    else:
        fdoc = (_read_json(args.fracturing) if args.fracturing
                else doc.get("fracturing"))
        if fdoc is None:
            raise CliError("check fractured needs --fracturing")
        fr = _load_fracturing(A, fdoc)
        rep = verifier.check_fractured(A, fr, M, n)
    return _finish_check(rep, report, args)


def _pick_abutment(A, side, anchor, height=None):
    for ab in fx.abutments(A, side):
        if ab.anchor == anchor and (height is None or ab.height == height):
            return ab
    raise CliError(f"no {side} abutment anchored at {anchor}"
                   + (f" of height {height}" if height else ""))


def _cmd_glue(args, report):
    if args.action == "pair":
        A = _load_algebra(args.files[0])
        B = _load_algebra(args.files[1])
        P = _pick_abutment(A, "left", args.p, args.height)
        I = _pick_abutment(B, "right", args.i, args.height)
        glued = gluing.glue(gluing.GluingSpec(A, P, B, I))
        report.attach("algebra", glued.presentation.to_json())
        report.verdict("vertices", len(glued.presentation.quiver.vertices))
        return PASS
    if args.action == "simultaneous":
        A = _load_algebra(args.files[0])
        B = _load_algebra(args.files[1])
        pairs = []
        for token in args.pairs.split(","):
            try:
                p_anchor, i_anchor = token.split(":")
            except ValueError:
                raise CliError(f"bad pair token {token!r}; use P:I")
            side_a = [ab for ab in fx.abutments(A, "left")
                      if ab.anchor == p_anchor]
            side_b = [ab for ab in fx.abutments(B, "left")
                      if ab.anchor == p_anchor]
            P = min(side_a or side_b, key=lambda ab: ab.height, default=None)
            if P is None:
                raise CliError(f"no left abutment anchored at {p_anchor}")
            alg_i = B if side_a else A
            I = _pick_abutment(alg_i, "right", i_anchor, P.height)
            pairs.append((P, I))
        glued = selfglue.simultaneous_glue(A, B, pairs, mode=args.mode)
        report.attach("algebra", glued.presentation.to_json())
        report.verdict("vertices", len(glued.presentation.quiver.vertices))
        return PASS
    # gluing system from a file
    doc = _read_json(args.files[0])
    with _malformed("gluing system"):
        tree = doc["tree"]
        algebras = {tv: (_parse_algebra(spec) if isinstance(spec, dict)
                         else _load_algebra(spec))
                    for tv, spec in doc["algebras"].items()}
        arrows = [(a["from"], a["to"], a["I"], a["P"])
                  for a in tree["arrows"]]
        vertices = tree["vertices"]
        fracturings = ([(tv, algebras[tv], fdoc)
                        for tv, fdoc in doc["fracturings"].items()]
                       if "fracturings" in doc and args.n else None)
    sysspec = gluing.GluingSystemSpec(vertices, arrows, algebras)
    if fracturings is not None:
        sysspec.fracturings = {tv: _load_fracturing(B, fdoc)
                               for tv, B, fdoc in fracturings}
        L, _maps, mods, complete = gluing.glue_fractured_system(
            sysspec, _level(args, 1, "glue system"))
        report.attach("algebra", L.to_json())
        report.attach("modules", _summaries(mods))
        report.verdict("complete", complete)
        report.verdict("vertices", len(L.quiver.vertices))
        _write_dump(args, mods, report)
        rep = verifier.check_nct(
            A=L, M=verifier.Subcategory(L, mods, dedupe=False),
            n=args.n) if complete else None
        if rep is not None:
            return _finish_check(rep, report, args)
        return PASS
    L, _vmaps, _amaps = gluing.glue_system(sysspec)
    report.attach("algebra", L.to_json())
    report.verdict("vertices", len(L.quiver.vertices))
    return PASS


def _cmd_selfglue(args, report):
    doc = _read_json(args.file)
    A = _parse_algebra(doc)
    fdoc = (_read_json(args.fracturing) if args.fracturing
            else doc.get("fracturing"))
    if fdoc is not None:
        fr = _load_fracturing(A, fdoc)
    else:
        fr = fx.trivial_fracturing(A)
    wit, reasons = selfglue.self_glue_witness(A, fr)
    if wit is None:
        report.attach("reasons", reasons)
        report.verdict("self-gluable", False)
        return FAIL
    report.verdict("self-gluable", True,
                   f"P tail {wit.P.tail}, I tail {wit.I.tail}")
    sg = selfglue.tilde(A, wit)
    report.attach("algebra_tilde", sg.presentation.to_json())
    report.verdict("tilde-vertices", len(sg.presentation.quiver.vertices))
    if args.n:
        n = _level(args, 1, "selfglue")
        M = _candidate(A, args, n, doc)
        rep, _sg, pushed = selfglue.tilde_nct(A, wit, M.modules, n)
        report.attach("modules_tilde", _summaries(pushed))
        _write_dump(args, pushed, report)
        return _finish_check(rep, report, args)
    return PASS


def _cmd_nakayama(args, report):
    try:
        entries = [int(x) for x in args.kupisch.split(",")]
    except ValueError:
        raise CliError("--kupisch wants a comma-separated integer list")
    A = nakayama(KupischSeries(entries, cyclic=args.cyclic))
    report.attach("algebra", A.to_json())
    if args.action == "emit":
        report.verdict("vertices", len(A.quiver.vertices))
        return PASS
    if args.action == "indec":
        reps = replab.uniserial_modules(A)
        report.attach("indecomposables", _summaries(reps))
        report.verdict("count", len(reps),
                       f"sum of Kupisch entries = {sum(entries)}")
        _write_dump(args, reps, report)
        return PASS
    if args.action == "selfglue":
        fr = fx.trivial_fracturing(A)
        wit, reasons = selfglue.self_glue_witness(A, fr)
        if wit is None:
            report.attach("reasons", reasons)
            report.verdict("self-gluable", False)
            return FAIL
        sg = selfglue.tilde(A, wit)
        report.attach("algebra_tilde", sg.presentation.to_json())
        report.verdict("kupisch-tilde",
                       list(kupisch_of(sg.presentation).entries))
        return PASS
    n = _level(args, 1, "check-nct")
    M = verifier.tau_orbit_candidate(A, n, cap=args.cap)
    report.verdict("candidate-size", len(M))
    rep = verifier.check_nct(A, M, n)
    return _finish_check(rep, report, args)


def _parse_arms(text):
    arms = []
    for token in text.split(","):
        try:
            m, direction = token.split(":")
            arms.append((int(m), direction))
        except ValueError:
            raise CliError(f"bad arm token {token!r}; use LENGTH:out|in")
    return arms


def _cmd_starlike(args, report):
    arms = _parse_arms(args.arms)
    if args.action == "classify":
        passes, gldim, case = verifier.starlike_classify(
            arms, _level(args, 2, "classify"))
        report.attach("classification",
                      {"passes": passes, "gldim": gldim, "case": case})
        report.verdict("passes", passes,
                       f"case {case}" + (f", gldim {gldim}" if passes else ""))
        return PASS if passes else FAIL
    A = starlike(arms)
    report.attach("algebra", A.to_json())
    if args.action == "emit":
        report.verdict("vertices", len(A.quiver.vertices))
        return PASS
    n = _level(args, 1, "check-nct")
    if not verifier.starlike_rep_finite(arms):
        report.verdict("verdict", False, "not representation-finite")
        return FAIL
    M = verifier.tau_orbit_candidate(A, n, cap=args.cap)
    report.verdict("candidate-size", len(M))
    rep = verifier.check_nct(A, M, n)
    return _finish_check(rep, report, args)


def _cmd_generate(args, report):
    if args.sources < 1 or args.sinks < 1:
        raise CliError("generate needs -s >= 1 and -t >= 1")
    L, M = verifier.generate_sinks_sources(
        args.sources, args.sinks, _level(args, 2, "generate"))
    report.attach("algebra", L.to_json())
    report.verdict("sources", len(L.quiver.sources()))
    report.verdict("sinks", len(L.quiver.sinks()))
    _write_dump(args, M.modules, report)
    rep = verifier.check_nct(L, M, args.n)
    return _finish_check(rep, report, args)


# -- golden suite ----------------------------------------------------------

def _suite_fixtures():
    from .core import BoundQuiverPresentation, Quiver

    def amalgamation():
        A = BoundQuiverPresentation(
            Quiver(["0", "1", "2", "3"],
                   [("d0", "0", "1"), ("d1", "1", "2"), ("d2", "2", "3")]),
            [("d0", "d1", "d2")])
        B = BoundQuiverPresentation(
            Quiver(["1", "2", "3", "4", "5", "6", "7", "1p", "2p", "3p"],
                   [("b1", "1", "2"), ("b2", "2", "3"), ("b3", "3", "4"),
                    ("b4", "4", "5"), ("b5", "5", "6"), ("b6", "6", "7"),
                    ("c1", "1p", "2p"), ("c2", "2p", "3p"),
                    ("c3", "3p", "5")]),
            [("b2", "b3"), ("b3", "b4"), ("c2", "c3"),
             ("b4", "b5", "b6"), ("c3", "b5")])
        P = _pick_abutment(A, "left", "1")
        I = _pick_abutment(B, "right", "3")
        glued = gluing.glue(gluing.GluingSpec(A, P, B, I))
        ind = arquiver.indecomposables(glued.presentation)
        if len(ind) != 27:
            return False
        amalg = gluing.glue_ar(arquiver.ar_quiver(A), arquiver.ar_quiver(B),
                               glued)
        return gluing.ar_isomorphic(
            amalg, arquiver.ar_quiver(glued.presentation))

    def starlike_figure():
        arms = [(5, "out"), (5, "out"), (4, "in")]
        for n in (2, 4):
            passes, gldim, _case = verifier.starlike_classify(arms, n)
            if not passes or gldim != 7:
                return False
            A = starlike(arms)
            M = verifier.tau_orbit_candidate(A, n)
            if not verifier.check_nct(A, M, n).verdict:
                return False
        return True

    def kupisch_pipeline():
        A = nakayama(KupischSeries([2, 2, 3, 3, 3, 3, 2, 1]))
        M = verifier.tau_orbit_candidate(A, 3)
        if not verifier.check_nct(A, M, 3).verdict:
            return False
        wit, _ = selfglue.self_glue_witness(A, fx.trivial_fracturing(A))
        if wit is None:
            return False
        sg = selfglue.tilde(A, wit)
        if kupisch_of(sg.presentation) != KupischSeries(
                [2, 2, 3, 3, 3, 3, 2], cyclic=True).normalized():
            return False
        rep, _sg, pushed = selfglue.tilde_nct(A, wit, M.modules, 3)
        return rep.verdict and len(pushed) == 10

    def folding_example():
        A = BoundQuiverPresentation(
            Quiver(["1", "2", "3", "4", "5", "6", "7", "8", "1p", "2p"],
                   [("c1", "1", "2"), ("c2", "2", "3"), ("c3", "3", "4"),
                    ("c4", "4", "5"), ("c5", "5", "6"), ("c6", "6", "7"),
                    ("c7", "7", "8"), ("b1", "1p", "2p"), ("b2", "2p", "6")]),
            [("c1", "c2", "c3"), ("c2", "c3", "c4"), ("c4", "c5"),
             ("b1", "b2"), ("c5", "c6"), ("b2", "c6")])
        T = fx.IntervalSet(3, [(1, 3), (1, 2), (2, 2)])
        fr = fx.Fracturing(A, {"6": T},
                           {"3": T, "2p": fx.injective_intervals(2)})
        ind = arquiver.indecomposables(A)
        wanted = [{"6", "7", "8"}, {"7"}, {"6", "7"}, {"2p", "6"},
                  {"5", "6"}, {"2p", "5", "6"}, {"4", "5"}, {"1p", "2p"},
                  {"3", "4", "5"}, {"4"}, {"1p"}, {"2", "3", "4"},
                  {"1", "2", "3"}, {"2"}, {"1", "2"}]
        mods = [next(M for M in ind if M.support() == frozenset(s))
                for s in wanted]
        M = verifier.Subcategory(A, mods)
        if not verifier.check_fractured(A, fr, M, 2).verdict:
            return False
        wit, _ = selfglue.self_glue_witness(A, fr)
        if wit is None:
            return False
        rep, _sg, pushed = selfglue.tilde_nct(A, wit, M.modules, 2)
        return rep.verdict and len(pushed) == 12

    def tilting_catalan():
        catalan = [1, 1, 2, 5, 14, 42]
        for h in range(1, 6):
            ts = fx.tilting_modules(h)
            if len(ts) != catalan[h]:
                return False
            if any(fx.is_mirrored(T) for T in ts) != (h % 2 == 1):
                return False
        T1 = fx.IntervalSet(5, [(5, 5), (4, 5), (1, 5), (1, 2), (1, 1)])
        T2 = fx.IntervalSet(5, [(3, 3), (3, 4), (2, 4), (1, 4), (1, 5)])
        return (fx.is_tilting(T1) and fx.is_mirrored(T1)
                and fx.is_tilting(T2) and not fx.is_mirrored(T2))

    return [("amalgamated-ar-quiver", amalgamation),
            ("starlike-figure", starlike_figure),
            ("kupisch-pipeline", kupisch_pipeline),
            ("folding-example", folding_example),
            ("tilting-enumeration", tilting_catalan)]


def _cmd_paper_suite(args, report):
    ok = True
    for name, fixture in _suite_fixtures():
        good = bool(fixture())
        report.verdict(name, good)
        ok = ok and good
    return PASS if ok else FAIL


# -- argument plumbing -----------------------------------------------------

def _common(p, n=False):
    p.add_argument("--json", help="write the command report here")
    p.add_argument("--dump", help="write module dumps here")
    p.add_argument("--cap", type=int, default=4096)
    if n:
        p.add_argument("-n", type=int, default=0)


def build_parser():
    parser = _Parser(prog="arglue")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("algebra")
    p.add_argument("action", choices=["validate", "indec", "ar"])
    p.add_argument("file")
    p.add_argument("--dot")
    _common(p)
    p.set_defaults(fn=_cmd_algebra)

    p = sub.add_parser("check")
    p.add_argument("action", choices=["nct", "fractured"])
    p.add_argument("file")
    p.add_argument("--modules")
    p.add_argument("--fracturing")
    _common(p, n=True)
    p.set_defaults(fn=_cmd_check)

    p = sub.add_parser("glue")
    p.add_argument("action", choices=["pair", "system", "simultaneous"])
    p.add_argument("files", nargs="+")
    p.add_argument("--p", help="anchor of the left abutment (pair)")
    p.add_argument("--i", help="anchor of the right abutment (pair)")
    p.add_argument("--height", type=int)
    p.add_argument("--pairs", help="P:I,P:I,... (simultaneous)")
    p.add_argument("--mode", default="parallel",
                   choices=["parallel", "antiparallel"])
    _common(p, n=True)
    p.set_defaults(fn=_cmd_glue)

    p = sub.add_parser("selfglue")
    p.add_argument("file")
    p.add_argument("--modules")
    p.add_argument("--fracturing")
    _common(p, n=True)
    p.set_defaults(fn=_cmd_selfglue)

    p = sub.add_parser("nakayama")
    p.add_argument("--kupisch", required=True)
    p.add_argument("--cyclic", action="store_true")
    p.add_argument("action", nargs="?", default="emit",
                   choices=["emit", "indec", "check-nct", "selfglue"])
    _common(p, n=True)
    p.set_defaults(fn=_cmd_nakayama)

    p = sub.add_parser("starlike")
    p.add_argument("--arms", required=True)
    p.add_argument("action", nargs="?", default="emit",
                   choices=["emit", "classify", "check-nct"])
    _common(p, n=True)
    p.set_defaults(fn=_cmd_starlike)

    p = sub.add_parser("generate")
    p.add_argument("-s", "--sources", type=int, required=True)
    p.add_argument("-t", "--sinks", type=int, required=True)
    _common(p, n=True)
    p.set_defaults(fn=_cmd_generate)

    p = sub.add_parser("paper-suite")
    _common(p)
    p.set_defaults(fn=_cmd_paper_suite)

    return parser


_ALIASES = {"check-nct": ["check", "nct"],
            "check-fractured": ["check", "fractured"]}


def run(argv):
    """Returns (exit code, CommandReport or None)."""
    argv = list(argv)
    if argv and argv[0] in _ALIASES:
        argv = _ALIASES[argv[0]] + argv[1:]
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except CliError as e:
        print(f"input error: {e}", file=sys.stderr)
        return INPUT_ERROR, None
    inputs = [getattr(args, name) for name in ("file", "modules",
                                               "fracturing")
              if getattr(args, name, None)]
    inputs += list(getattr(args, "files", []) or [])
    report = CommandReport(argv, inputs)
    try:
        code = args.fn(args, report)
        report.write(args)
    except (CliError, AlgebraError, OSError) as e:
        print(f"input error: {e}", file=sys.stderr)
        return INPUT_ERROR, report
    except (arquiver.EnumerationError, replab.DecompositionError) as e:
        print(f"verification error: {e}", file=sys.stderr)
        return FAIL, report
    return code, report


def main():
    code, _report = run(sys.argv[1:])
    return code


if __name__ == "__main__":
    sys.exit(main())
