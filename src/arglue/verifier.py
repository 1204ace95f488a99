"""Verification of n-cluster tilting and fractured subcategories, the
canonical translate-orbit candidate, the radical-square-zero starlike
classification, and the sinks-and-sources generator."""

import json

from . import arquiver, fracture as fx, gluing, replab
from .core import AlgebraError, starlike


class Subcategory:
    """Additive closure of a finite list of pairwise non-isomorphic
    indecomposables, stored by chosen representatives."""

    def __init__(self, algebra, modules, dedupe=True):
        self.algebra = algebra
        self._index = arquiver._IsoIndex(modules, dedupe=dedupe)
        self.modules = self._index.reps

    def __len__(self):
        return len(self.modules)

    def locate(self, rep):
        """Index of the member isomorphic to rep, or None."""
        return self._index.find(rep)

    def contains(self, rep):
        return self.locate(rep) is not None


class VerificationReport:
    def __init__(self, kind, n):
        self.kind = kind
        self.n = n
        self.conditions = []       # (name, ok, detail)
        self.counterexamples = []  # (condition, description, dim vector)

    @property
    def verdict(self):
        return all(ok for _, ok, _ in self.conditions)

    def record(self, name, ok, detail=""):
        self.conditions.append((name, bool(ok), detail))

    def witness(self, condition, description, rep=None):
        dv = list(rep.dim_vector()) if rep is not None else None
        self.counterexamples.append((condition, description, dv))

    def to_json(self):
        return json.dumps({
            "kind": self.kind,
            "n": self.n,
            "verdict": "pass" if self.verdict else "fail",
            "conditions": [
                {"name": name, "ok": ok, "detail": detail}
                for name, ok, detail in self.conditions],
            "counterexamples": [
                {"condition": c, "description": d, "dim_vector": dv}
                for c, d, dv in self.counterexamples],
        }, indent=2)

    def __repr__(self):
        state = "pass" if self.verdict else "fail"
        return f"VerificationReport({self.kind}, n={self.n}, {state})"


def tau_orbit_candidate(A, n, cap=4096):
    """Closure of the projectives under the inverse n-fold translate, the
    canonical candidate subcategory.

    The members are nodes of A's complete enumeration (EnumerationError
    when there is none within cap), found by walking the record's tables
    breadth-first from the sorted P(v).  When one member's translate holds
    two or more new classes, they are taken in the order in which
    ``decompose`` returns that translate's summands."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if n == 1:
        return Subcategory(A, arquiver.indecomposables(A, cap=cap),
                           dedupe=False)
    record = arquiver._complete_enumeration(A, cap)
    nodes = record.index.reps
    out = [record.projective[v] for v in sorted(A.quiver.vertices)]
    members = set(out)
    # the queue is the member list itself, each member translated once
    for i in out:
        new = [j for j in dict.fromkeys(record.tau_n([i], n, "-"))
               if j not in members]
        if len(new) > 1:
            parts = replab.decompose(replab.tau_n(nodes[i], n, "-"))
            new = [j for j in dict.fromkeys(map(record.locate, parts))
                   if j in new]
        out.extend(new)
        members.update(new)
    return Subcategory(A, [nodes[i] for i in out], dedupe=False)


def _pairs_into(X, n, members_at, first):
    """The (k, i), 0 < i < n, with Ext^i(X, members[k]) possibly non-zero,
    in (k, i) order.  X's resolution is extended degree by degree while
    the pairs of the first non-zero member are visited, as a sweep over
    every pair does; where it exceeds its cap, that pair is still given,
    so that ``ext_dim`` raises there."""
    if first is None:
        return
    later = set()
    for i in range(1, n):
        try:
            tops = replab.resolution_tops(X, i)
        except replab.ResolutionCapError:
            yield first, i
            return
        ks = {k for v in tops for k in members_at.get(v, ())}
        if first in ks:
            yield first, i
        later.update((k, i) for k in ks if k != first)
    yield from sorted(later)


def check_nct(A, M, n, indecs=None, report_all=False):
    """Direct Ext-orthogonality check that add(M) is n-cluster tilting.

    Ext^i(X, Y) is a subquotient of Hom(P_i, Y), where P_i is the i-th
    term of the minimal projective resolution of X, so it vanishes unless
    Y is non-zero at a top vertex of P_i (``replab.resolution_tops``).
    Only the (member, degree) pairs that pass this test are computed, in
    member-then-degree order, so the first witness is the one a sweep over
    every pair finds.  A resolution that exceeds its cap is visited where
    that sweep would first reach it, so ``ResolutionCapError`` surfaces
    as it would there.
    """
    report = VerificationReport("n-cluster-tilting", n)
    if n < 1:
        raise ValueError("n must be >= 1")
    if indecs is None:
        indecs = arquiver.indecomposables(A)
    if n == 1:
        ok = len(indecs) == len(M) and all(M.contains(X) for X in indecs)
        report.record("whole-category", ok,
                      f"|M| = {len(M)}, |ind| = {len(indecs)}")
        if not ok:
            report.witness("whole-category",
                           "M differs from the full indecomposable list")
        return report
    # cheap pre-checks: projectives and injectives always belong
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
    if missing and not report_all:
        return report
    members = M.modules
    members_at = {}  # vertex -> indices of the members non-zero there
    for k, Y in enumerate(members):
        for v in Y.support():
            members_at.setdefault(v, []).append(k)
    first = next((k for k, Y in enumerate(members) if not Y.is_zero()), None)
    # rigidity: Ext^{1..n-1}(M, M) = 0
    rigid = True
    for X in members:
        hit = next(((k, i) for k, i in _pairs_into(X, n, members_at, first)
                    if replab.ext_dim(X, members[k], i)), None)
        if hit is not None:
            rigid = False
            k, i = hit
            report.witness(
                "rigidity",
                f"Ext^{i} nonzero between members "
                f"{X.dim_vector()} -> {members[k].dim_vector()}", X)
            break
    report.record("rigidity", rigid)
    if not rigid and not report_all:
        return report
    # maximality: every excluded indecomposable has nonzero Ext into M
    # and nonzero Ext from M, in some degree 0 < i < n
    tops_at = {}  # vertex -> (k, i) with the vertex a top of P_i(members[k])
    capped = []   # (k, i) where members[k]'s resolution exceeds its cap
    for k, Y in enumerate(members):
        for i in range(1, n):
            try:
                tops = replab.resolution_tops(Y, i)
            except replab.ResolutionCapError:
                capped.append((k, i))
                break
            for v in tops:
                tops_at.setdefault(v, []).append((k, i))
    maximal = True
    for X in indecs:
        if M.contains(X):
            continue
        into = any(replab.ext_dim(X, members[k], i)
                   for k, i in _pairs_into(X, n, members_at, first))
        pairs = set(capped)
        for v in X.support():
            pairs.update(tops_at.get(v, ()))
        outof = any(replab.ext_dim(members[k], X, i)
                    for k, i in sorted(pairs))
        if not (into and outof):
            maximal = False
            side = [] if into else ["Ext(X, M) = 0"]
            if not outof:
                side.append("Ext(M, X) = 0")
            report.witness("maximality",
                           f"excluded module violates {' and '.join(side)}",
                           X)
            if not report_all:
                break
    report.record("maximality", maximal)
    report.record("functorial-finiteness", True,
                  "automatic for representation-finite algebras")
    return report


def _left_class(A, fr):
    """Representatives of the projective-side comparison class: all
    non-abutment projectives plus the left fracture interval modules."""
    anchors = {ab.anchor for ab in fx.abutments(A, "left")}
    mods = [replab.projective(A, v)
            for v in sorted(A.quiver.vertices) if v not in anchors]
    for anchor, T in sorted(fr.left.items()):
        W = fr.max_left[anchor]
        for a, b in T.intervals:
            mods.append(fx.interval_module(A, W.tail, a, b))
    return Subcategory(A, mods)


def _right_class(A, fr):
    anchors = {ab.anchor for ab in fx.abutments(A, "right")}
    mods = [replab.injective(A, v)
            for v in sorted(A.quiver.vertices) if v not in anchors]
    for anchor, T in sorted(fr.right.items()):
        J = fr.max_right[anchor]
        for a, b in T.intervals:
            mods.append(fx.interval_module(A, J.tail, a, b))
    return Subcategory(A, mods)


def check_fractured(A, fr, M, n, report_all=False):
    """Translate/syzygy criterion for a fractured subcategory.

    The translates and (co)syzygies of the members are read from the
    tables of A's complete enumeration (EnumerationError when there is
    none); a member that is no node is matched to its node up to
    isomorphism, and AlgebraError names a member that matches none, i.e.
    one that is not indecomposable."""
    if n < 2:
        raise ValueError("the fractured criterion needs n >= 2")
    steps = _NodeSteps(arquiver._complete_enumeration(A), n)
    handles = steps.handles(M.modules)
    report = VerificationReport("fractured", n)
    PL = _left_class(A, fr)
    IR = _right_class(A, fr)
    # (a1) the projective-side class is contained in M
    missing = [X for X in PL.modules if not M.contains(X)]
    for X in missing:
        report.witness("a1", "projective-side class member not in M", X)
    report.record("a1", not missing,
                  f"{len(missing)} missing" if missing else "")
    if missing and not report_all:
        return report
    SP = [(X, x) for X, x in zip(M.modules, handles) if not PL.contains(X)]
    SI = [(X, x) for X, x in zip(M.modules, handles) if not IR.contains(X)]
    # (a2) the translates give mutually inverse bijections SP <-> SI
    in_si = steps.finder([y for _, y in SI])
    in_sp = steps.finder([x for _, x in SP])
    a2 = True
    hit = set()
    for X, x in SP:
        t = steps.translate(x, "+")
        if t is None:
            a2 = False
            report.witness("a2", "forward translate zero or decomposable", X)
            if not report_all:
                break
            continue
        j = in_si(t)
        if j is None or not steps.inverts(t, x, "-"):
            a2 = False
            report.witness("a2", "forward translate leaves the target class "
                           "or is not inverted", X)
            if not report_all:
                break
            continue
        hit.add(j)
    if a2:
        for j, (Y, y) in enumerate(SI):
            if j in hit:
                continue
            t = steps.translate(y, "-")
            if t is None or in_sp(t) is None or not steps.inverts(t, y, "+"):
                a2 = False
                report.witness("a2", "backward translate fails", Y)
                if not report_all:
                    break
    report.record("a2", a2)
    if not a2 and not report_all:
        return report
    # (a3)/(a4) intermediate (co)syzygies stay indecomposable
    for name, direction, word, members in (
            ("a3", "+", "syzygy", SP), ("a4", "-", "cosyzygy", SI)):
        ok = True
        for X, x in members:
            for i in range(1, n):
                x = steps.syzygy(x, direction)
                if x is None:
                    ok = False
                    report.witness(name, f"{word} {i} zero or decomposable",
                                   X)
                    break
            if not ok and not report_all:
                break
        report.record(name, ok)
        if name == "a3" and not ok and not report_all:
            return report
    return report


class _NodeSteps:
    """The steps of ``check_fractured`` on the nodes of a complete
    enumeration, read from its record's tables: a translate or a
    (co)syzygy gives the one node it yields, or None."""

    def __init__(self, record, n):
        self.record = record
        self.n = n

    def handles(self, modules):
        """The node of each module: the module itself when it is a node,
        else the node isomorphic to it; AlgebraError when there is none,
        as the record holds every indecomposable."""
        out = []
        for X in modules:
            i = self.record.position(X)
            if i is None:
                i = self.record.index.find(X)
                if i is None:
                    raise AlgebraError(
                        f"member with dimension vector {list(X.dim_vector())}"
                        " is not indecomposable")
            out.append(i)
        return out

    def finder(self, nodes):
        return {x: j for j, x in enumerate(nodes)}.get

    def translate(self, x, direction):
        return _single(self.record.tau_n([x], self.n, direction))

    def inverts(self, t, x, direction):
        return self.record.tau_n([t], self.n, direction) == [x]

    def syzygy(self, x, direction):
        return _single(self.record.syzygy(x, direction))


def _single(nodes):
    return nodes[0] if len(nodes) == 1 else None


# -- starlike classification ---------------------------------------------

def starlike_classify(rays, n):
    """Closed-form verdict for radical-square-zero starlike algebras.

    ``rays`` as in :func:`arglue.core.starlike`: (length incl. center,
    'out' = arm ends in a sink / 'in' = arm ends in a source).
    Returns (passes, gldim or None, case label).
    """
    if n < 2:
        raise ValueError("classification applies for n >= 2")
    k = len(rays)
    rays = [(int(m), d) for m, d in rays]
    for m, d in rays:
        if m < 2 or d not in ("in", "out"):
            raise AlgebraError("invalid ray specification")
    if k == 2:
        raise AlgebraError("two rays form a line, not a starlike tree")
    if k == 1:
        m = rays[0][0]
        if m >= n + 1 and (m - 1) % n == 0:
            return True, m - 1, "single-line"
        return False, None, "single-line"
    if k == 3:
        sink_arms = sorted(m for m, d in rays if d == "out")
        source_arms = sorted(m for m, d in rays if d == "in")
        for doubled, single, label in (
                (sink_arms, source_arms, "two-sinks"),
                (source_arms, sink_arms, "two-sources")):
            if len(doubled) != 2:
                continue
            m1, m2 = doubled
            m3 = single[0]
            if (m1 >= n + 1 and (m1 - 1) % n == 0
                    and m2 >= n + 1 and (m2 - 1) % n == 0
                    and m3 >= n and m3 % n == 0):
                return True, m3 + max(m1, m2) - 2, label
            return False, None, label
        return False, None, "three-rays-one-sided"
    if k == 4:
        sink_arms = [m for m, d in rays if d == "out"]
        source_arms = [m for m, d in rays if d == "in"]
        if (n == 2 and len(sink_arms) == 2 and len(source_arms) == 2
                and all(m >= 3 and m % 2 == 1 for m, _ in rays)):
            return True, max(sink_arms) + max(source_arms) - 2, "four-rays"
        return False, None, "four-rays"
    return False, None, "center-degree-exceeded"


def starlike_rep_finite(rays):
    """Gabriel's criterion via the separated quiver: a radical-square-zero
    starlike algebra is representation-finite iff the center star stays
    Dynkin on both sides, i.e. at most 3 arms point each way."""
    out = sum(1 for _, d in rays if d == "out")
    into = len(rays) - out
    return out <= 3 and into <= 3


# -- sinks-and-sources generator ------------------------------------------

def generate_sinks_sources(s, t, n):
    """An algebra with exactly s sources and t sinks whose canonical
    candidate is n-cluster tilting: a chain of starlike blocks glued
    along simple seams."""
    if s < 1 or t < 1:
        raise ValueError("need s >= 1 and t >= 1")
    if n < 2:
        raise ValueError("need n >= 2")
    # blocks of one shape share one algebra, so each shape is enumerated
    # once
    sink = starlike([(n + 1, "out"), (n + 1, "out"), (n, "in")])
    source = starlike([(n + 1, "in"), (n + 1, "in"), (n, "out")])
    blocks = {0: starlike([(n + 1, "out")])}
    blocks.update((j, sink) for j in range(1, t))
    blocks.update((-j, source) for j in range(1, s))
    edges = []
    for j in range(1, t):
        u, v = j, j - 1
        i_anchor = sorted(blocks[u].quiver.sources())[0]
        p_anchor = sorted(blocks[v].quiver.sinks())[0]
        edges.append((u, v, i_anchor, p_anchor))
    for j in range(1, s):
        u, v = -(j - 1), -j
        i_anchor = sorted(blocks[u].quiver.sources())[0]
        p_anchor = sorted(blocks[v].quiver.sinks())[0]
        edges.append((u, v, i_anchor, p_anchor))
    if not edges:
        L = blocks[0]
        return L, tau_orbit_candidate(L, n)
    sysspec = gluing.GluingSystemSpec(sorted(blocks), edges, blocks)
    L, vmaps, amaps = gluing.glue_system(sysspec, check_orders=False)
    # candidate: push the per-block candidates forward and dedupe
    mods = []
    for tv in sorted(blocks):
        for M in tau_orbit_candidate(blocks[tv], n).modules:
            mods.append(gluing.push_forward_system(M, tv, L, vmaps, amaps))
    return L, Subcategory(L, mods)
