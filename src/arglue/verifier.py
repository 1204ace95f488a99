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
        """Name a counterexample by its dimension vector: rep is the
        module, or its dimension vector as a tuple."""
        if rep is not None and not isinstance(rep, tuple):
            rep = rep.dim_vector()
        dv = list(rep) if rep is not None else None
        self.counterexamples.append((condition, description, dv))

    def fail(self, condition, description, rep):
        """Record the condition as failing at its witness rep; the report."""
        self.witness(condition, description, rep)
        self.record(condition, False)
        return self

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


def tau_orbit_candidate(A, n, cap=arquiver.ENUMERATION_CAP):
    """Closure of the projectives under the inverse n-fold translate, the
    canonical candidate subcategory.

    The members are nodes of A's complete enumeration (EnumerationError
    when there is none within cap), found by walking the record's tables
    breadth-first from the sorted P(v); the new classes of one member's
    translate are taken in the order the tables give them."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if n == 1:
        return Subcategory(A, arquiver.indecomposables(A, cap=cap),
                           dedupe=False)
    record = arquiver._complete_enumeration(A, cap)
    out = [record.projective[v] for v in sorted(A.quiver.vertices)]
    members = set(out)
    # the queue is the member list itself, each member translated once
    for i in out:
        new = [j for j in dict.fromkeys(record.tau_n([i], n, "-"))
               if j not in members]
        out.extend(new)
        members.update(new)
    return Subcategory(A, [record.module(i) for i in out], dedupe=False)


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


def check_nct(A, M, n, indecs=None):
    """Direct Ext-orthogonality check that add(M) is n-cluster tilting.
    The conditions after a failing one are not checked, and rigidity and
    maximality name only their first witness, the first (member, degree)
    pair in order with non-zero Ext.

    On A's knitted record the check reads integer Hom and Ext tables
    (``_NodeExt``); elsewhere it computes Ext from the modules'
    resolutions (``_ModuleExt``).  Both give the same report.
    """
    report = VerificationReport("n-cluster-tilting", n)
    if n < 1:
        raise ValueError("n must be >= 1")
    on = _NodeExt.of(A, M, n, indecs) or _ModuleExt(A, M, n, indecs)
    members, indecs = on.members, on.indecs
    if n == 1:
        ok = len(indecs) == len(members) and all(map(on.contains, indecs))
        report.record("whole-category", ok,
                      f"|M| = {len(members)}, |ind| = {len(indecs)}")
        if not ok:
            report.witness("whole-category",
                           "M differs from the full indecomposable list")
        return report
    # cheap pre-checks: projectives and injectives always belong
    missing = []
    for v in sorted(A.quiver.vertices):
        for kind, X in (("projective", on.projective(v)),
                        ("injective", on.injective(v))):
            if not on.contains(X):
                missing.append((kind, v))
                report.witness("proj-inj-membership",
                               f"{kind} at vertex {v} not in M", on.dims(X))
    report.record("proj-inj-membership", not missing,
                  f"{len(missing)} missing" if missing else "all present")
    if missing:
        return report
    # rigidity: Ext^{1..n-1}(M, M) = 0
    for X in members:
        hit = on.rigidity_witness(X)
        if hit is not None:
            k, i = hit
            return report.fail(
                "rigidity",
                f"Ext^{i} nonzero between members "
                f"{on.dims(X)} -> {on.dims(members[k])}", on.dims(X))
    report.record("rigidity", True)
    # maximality: every excluded indecomposable has nonzero Ext into M
    # and nonzero Ext from M, in some degree 0 < i < n
    maximal = True
    for X in indecs:
        if on.contains(X):
            continue
        into, outof = on.ext_into(X), on.ext_from(X)
        if not (into and outof):
            maximal = False
            side = [] if into else ["Ext(X, M) = 0"]
            if not outof:
                side.append("Ext(M, X) = 0")
            report.witness("maximality",
                           f"excluded module violates {' and '.join(side)}",
                           on.dims(X))
            break
    report.record("maximality", maximal)
    report.record("functorial-finiteness", True,
                  "automatic for representation-finite algebras")
    return report


class _ModuleExt:
    """The reads of ``check_nct`` on modules: membership up to isomorphism,
    and Ext from the minimal projective resolutions.

    Ext^i(X, Y) is a subquotient of Hom(P_i, Y), where P_i is the i-th
    term of the minimal projective resolution of X, so it vanishes unless
    Y is non-zero at a top vertex of P_i (``replab.resolution_tops``).
    Only the (member, degree) pairs that pass this test are computed, in
    member-then-degree order, so the first witness is the one a sweep over
    every pair finds.  A resolution that exceeds its cap is visited where
    that sweep would first reach it, so ``ResolutionCapError`` surfaces
    as it would there.
    """

    def __init__(self, A, M, n, indecs):
        self.A, self.n = A, n
        self.members = M.modules
        self.indecs = (arquiver.indecomposables(A) if indecs is None
                       else indecs)
        self.contains = M.contains
        self.members_at = {}   # vertex -> indices of the members there
        for k, Y in enumerate(self.members):
            for v in Y.support():
                self.members_at.setdefault(v, []).append(k)
        self.first = next((k for k, Y in enumerate(self.members)
                           if not Y.is_zero()), None)
        self.tops_at = None

    @staticmethod
    def dims(X):
        return X.dim_vector()

    def projective(self, v):
        return replab.projective(self.A, v)

    def injective(self, v):
        return replab.injective(self.A, v)

    def _into(self, X):
        return ((k, i) for k, i in _pairs_into(X, self.n, self.members_at,
                                               self.first)
                if replab.ext_dim(X, self.members[k], i))

    def rigidity_witness(self, X):
        return next(self._into(X), None)

    def ext_into(self, X):
        return next(self._into(X), None) is not None

    def ext_from(self, X):
        if self.tops_at is None:
            # vertex -> (k, i) with the vertex a top of P_i(members[k]);
            # rigidity read each member's resolution through degree
            # n - 1, or raised ResolutionCapError, so none of these
            # exceeds its cap
            self.tops_at = {}
            for k, Y in enumerate(self.members):
                for i in range(1, self.n):
                    for v in replab.resolution_tops(Y, i):
                        self.tops_at.setdefault(v, []).append((k, i))
        pairs = {kv for v in X.support() for kv in self.tops_at.get(v, ())}
        return any(replab.ext_dim(self.members[k], X, i)
                   for k, i in sorted(pairs))


class _NodeExt:
    """The reads of ``check_nct`` on the nodes of a knitted record:
    membership by node, and Ext from the record's integer Hom table
    (``_Record.ext1_form``), with no module built.

    Ext is additive, so maximality needs only sum_i Ext^i(X, M) and sum_i
    Ext^i(M, X) over 0 < i < n, and rigidity searches the (member,
    degree) pairs in order only for a member X whose sum is non-zero:
    every term is >= 0, and the first non-zero pair is the first witness
    of the module check.
    """

    def __init__(self, record, members, indecs, n):
        self.record, self.members, self.indecs, self.n = (
            record, members, indecs, n)
        self.contains = set(members).__contains__
        self.dims = record.dims.__getitem__
        self.projective = record.projective.__getitem__
        self.injective = record.injective_node
        self._hom_m = {}   # node W -> dim Hom(W, M)
        self._dim_m = [sum(d) for d in zip(*map(self.dims, members))]
        self._from = None

    @classmethod
    def of(cls, A, M, n, indecs):
        """The reads on A's knitted record, or None where ``check_nct``
        computes on modules: when no knitted record is at hand (given
        ``indecs``, only one already kept on A is read, so folds are never
        enumerated), when a member or an entry of ``indecs`` is no node of
        it, matched by dimension vector as a knitted record has one node
        per vector, when two members are one node, and when the modules'
        resolutions would be read past ``RESOLUTION_CAP`` (degree n - 1
        needs level n), where that path raises ``ResolutionCapError``."""
        if n > replab.RESOLUTION_CAP:
            return None
        record = (arquiver._complete_enumeration(A) if indecs is None
                  else replab._memo_get(A, "enumeration"))
        if record is None or not record.knitted:
            return None
        members = _nodes_of(record, A, M.modules)
        if members is None or len(set(members)) != len(members):
            return None
        nodes = (range(len(record.dims)) if indecs is None
                 else _nodes_of(record, A, indecs))
        return None if nodes is None else cls(record, members, nodes, n)

    def _degrees(self, counts):
        """The sum of Omega^(i-1) of ``counts`` over 0 < i < n."""
        total = dict(counts)
        for _ in range(self.n - 2):
            counts = self.record.shift(counts)
            for z, c in counts.items():
                total[z] = total.get(z, 0) + c
        return total

    def _hom_into_m(self, w):
        h = self._hom_m.get(w)
        if h is None:
            row = self.record.hom(w)
            h = self._hom_m[w] = sum(row.get(y, 0) for y in self.members)
        return h

    def ext_into(self, x):
        a, t = self.record.ext1_form(self._degrees({x: 1}))
        return (sum(m * self._hom_into_m(w) for w, m in a.items())
                - sum(s * self._dim_m[v] for v, s in t.items())) > 0

    def rigidity_witness(self, x):
        if not self.ext_into(x):
            return None
        return next((k, i) for k, y in enumerate(self.members)
                    for i in range(1, self.n) if self.record.ext(x, y, i))

    def ext_from(self, x):
        if self._from is None:
            # sum_i Ext^i(M, -) as one form; its Hom part read off the
            # rows as one column per node
            a, t = self.record.ext1_form(
                self._degrees({y: 1 for y in self.members}))
            column = {}
            for w, m in a.items():
                for z, h in self.record.hom(w).items():
                    column[z] = column.get(z, 0) + m * h
            self._from = column, t
        column, t = self._from
        dx = self.dims(x)
        return column.get(x, 0) - sum(s * dx[v] for v, s in t.items()) > 0


def _nodes_of(record, A, modules):
    """The node of each module of A on a knitted record, by dimension
    vector; None if one is no node or belongs to another algebra object,
    whose vertices may come in another order."""
    out = []
    for X in modules:
        bucket = record.buckets.get(X.dim_vector())
        if bucket is None or X.algebra is not A:
            return None
        out.append(bucket[0])
    return out


def _side_class(A, fr, side):
    """Representatives of one side's comparison class: the projectives
    (left side) or injectives (right side) at the vertices that anchor no
    abutment of that side, plus the interval modules of its fractures."""
    end = replab.projective if side == "left" else replab.injective
    mods = [end(A, v) for v in sorted(A.quiver.vertices)
            if fx.abutment_at(A, side, v) is None]
    fractures, maxima = ((fr.left, fr.max_left) if side == "left"
                         else (fr.right, fr.max_right))
    for anchor, T in sorted(fractures.items()):
        tail = maxima[anchor].tail
        mods += [fx.interval_module(A, tail, a, b) for a, b in T.intervals]
    return Subcategory(A, mods)


def check_fractured(A, fr, M, n):
    """Translate/syzygy criterion for a fractured subcategory.  The
    conditions after a failing one are not checked, and only (a1) names
    more than its first witness.

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
    PL = _side_class(A, fr, "left")
    IR = _side_class(A, fr, "right")
    # (a1) the projective-side class is contained in M
    missing = [X for X in PL.modules if not M.contains(X)]
    for X in missing:
        report.witness("a1", "projective-side class member not in M", X)
    report.record("a1", not missing,
                  f"{len(missing)} missing" if missing else "")
    if missing:
        return report
    SP = [(X, x) for X, x in zip(M.modules, handles) if not PL.contains(X)]
    SI = [(X, x) for X, x in zip(M.modules, handles) if not IR.contains(X)]
    # (a2) the translates give mutually inverse bijections SP <-> SI
    in_si = steps.finder([y for _, y in SI])
    in_sp = steps.finder([x for _, x in SP])
    hit = set()
    for X, x in SP:
        t = steps.translate(x, "+")
        if t is None:
            return report.fail("a2", "forward translate zero or "
                               "decomposable", X)
        j = in_si(t)
        if j is None or not steps.inverts(t, x, "-"):
            return report.fail("a2", "forward translate leaves the target "
                               "class or is not inverted", X)
        hit.add(j)
    for j, (Y, y) in enumerate(SI):
        if j in hit:
            continue
        t = steps.translate(y, "-")
        if t is None or in_sp(t) is None or not steps.inverts(t, y, "+"):
            return report.fail("a2", "backward translate fails", Y)
    report.record("a2", True)
    # (a3)/(a4) intermediate (co)syzygies stay indecomposable
    for name, direction, word, members in (
            ("a3", "+", "syzygy", SP), ("a4", "-", "cosyzygy", SI)):
        for X, x in members:
            for i in range(1, n):
                x = steps.syzygy(x, direction)
                if x is None:
                    return report.fail(
                        name, f"{word} {i} zero or decomposable", X)
        report.record(name, True)
    return report


class _NodeSteps:
    """The steps of ``check_fractured`` on the nodes of a complete
    enumeration, read from its record's tables: a translate or a
    (co)syzygy gives the one node it yields, or None."""

    def __init__(self, record, n):
        self.record = record
        self.n = n

    def handles(self, modules):
        """The node of each module (``_Record.match``); AlgebraError when
        there is none, as the record holds every indecomposable."""
        out = []
        for X in modules:
            i = self.record.match(X)
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
