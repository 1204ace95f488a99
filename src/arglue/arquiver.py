"""Indecomposable enumeration and Auslander-Reiten quivers.

Every enumerable algebra has one record of its indecomposables, kept on
the algebra the first time any caller asks for it: per node its
dimension vector and tau-minus image, the node of each P(v), and the
node's module.  Every ``indecomposables``, ``ar_quiver``, orbit
candidate and fractured check reads that record.

Off a cycle quiver the record is first knitted in integers
(``_knit_record``).  P(v) is placed once every summand of rad P(v) is a
node; for a monomial algebra these are the a Lambda for the arrows a out
of v.  The arrows into tau^- X are the arrows out of X, and dim tau^- X =
sum over X -> Y of m dim Y - dim X, the mesh ending at tau^- X
(Assem-Simson-Skowronski, Elements Vol. 1, IV.4).  This is exact for a
representation-directed algebra: a directing indecomposable is determined
by its dimension vector (Happel-Ringel; Elements Vol. 1, IX.3), and a
finite component that holds every projective is the whole AR quiver
(Auslander).  A knitted node's module is built the first time it is read,
by ``replab.projective`` for a P(v) and else by translating its tau.
Where the knit gets stuck or breaks one of its certificates (a negative,
repeated or zero vector, a vertex dimension above 6, more than ``cap``
nodes, an injective missing), ``_enumerate`` walks the tau-minus orbits
of the projectives with ``decompose`` and isomorphism tests instead, and
the AR quiver is knitted from its record (``_knit``).

On a cycle quiver the indecomposables are the uniserials M(v, l) (top
S(v), length l), some of whose tau-orbits are periodic and hold no
projective, so there the record is written down from the (top, length)
keys (``_cycle_record``): tau M(v, l) = M(v+, l) for v+ the target of
v's arrow, and the irreducible maps are M(v, l + 1) -> M(v, l) and
M(v+, l - 1) -> M(v, l) (Elements Vol. 1, V.4).

The record also serves per-node tables, each entry a list of node
indices: the summands of Omega and of Omega^-, and tau, the inverse of
the tau-minus record.  On a cycle the (co)syzygy tables are written down
with the record.  On a knitted record of a Nakayama quiver (at most one
arrow into and one out of each vertex) every indecomposable X is
uniserial, so Omega X = ker(P(top X) -> X) and Omega^- X = I(soc X) / X
are uniserial or zero (Elements Vol. 1, V.3-V.4): each entry is the one
node of dim P(top X) - dim X or dim I(soc X) - dim X, read from the
integer tables below with no module built.  Every other record fills an
entry the first time it is read, from the module (Omega^- from the cover
that translating the node already built) through ``decompose``.  As
Omega^-, Omega, tau^- and tau are additive, tau_n^- of a node is tau^-
summand by summand after n - 1 steps of Omega^-, and tau_n likewise from
Omega and tau.

``indecomposables`` returns a ``NodeList``, a list of node modules held
as node indices, whose modules are built only when an element is read;
the orbit candidate's members are one too, so the checks read node
indices where they are handed such a list.

A knitted record also answers dim Hom and dim Ext between nodes in
integers, with no module built.  Each AR sequence tau Z -> E -> Z gives
an exact sequence of functors, so along the knit order h(X, Z) = dim
Hom(X, Z) = sum over Y -> Z of m h(X, Y) - h(X, tau Z) + [Z = X], with
no tau term at a P(v) (Ringel-Vossieck, Hammocks, Proc. LMS 54, 1987;
Elements Vol. 1, IV.4).  From 0 -> Omega Z -> P(top Z) -> Z -> 0,
Ext^1(Z, Y) = h(Omega Z, Y) - sum over v of h(Z, S(v)) dim Y_v + h(Z, Y),
and Ext^i(X, Y) is Ext^1 of Omega^(i-1) X.  At radical square zero Omega
has a closed form in simples; elsewhere it is the Omega table.  Cycle and
``_enumerate`` records have no Hom table, and their callers compute from
the modules.
"""

import heapq
from collections.abc import Sequence

from . import replab

# the most indecomposables an enumeration reaches before it gives up
ENUMERATION_CAP = 4096


class EnumerationError(RuntimeError):
    pass


class ARNode:
    """A node of an AR quiver; its module is ``module(i)``, read when
    first asked for."""

    def __init__(self, node_id, module, i):
        self.id = node_id
        self._module, self._i = module, i
        self.is_projective = False
        self.is_injective = False

    @property
    def rep(self):
        return self._module(self._i)

    def __repr__(self):
        return f"ARNode({self.id})"


def _nodes(dims, module):
    """One ARNode per dimension vector, node i holding ``module(i)``, with
    the stable id "(dims)@k", k counting the earlier nodes of the same
    dimension vector."""
    seen = {}
    nodes = []
    for i, dv in enumerate(dims):
        k = seen.get(dv, 0)
        seen[dv] = k + 1
        nodes.append(ARNode(f"({','.join(map(str, dv))})@{k}", module, i))
    return nodes


class ARData:
    def __init__(self, algebra, nodes, arrows, tau):
        self.algebra = algebra
        self.nodes = nodes            # list of ARNode
        self.arrows = arrows          # (id, id) -> multiplicity
        self.tau = tau                # id -> id (non-projective nodes)
        self.by_id = {n.id: n for n in nodes}

    def node_count(self):
        return len(self.nodes)


class NodeList(Sequence):
    """Some of a record's nodes (``nodes``, node indices), read as the list
    of their modules: an element's module is built (``record.module``)
    only when it is read.  It acts as a list for reading (``len``,
    indexing and slicing, iteration, ``+`` with a list on either side,
    ``==`` against a list) and holds its own copy of the indices, so
    ``clear`` and ``pop`` change no other list."""

    def __init__(self, record, nodes):
        self.record = record
        self.nodes = list(nodes)

    def __len__(self):
        return len(self.nodes)

    def __getitem__(self, k):
        if isinstance(k, slice):
            return [self.record.module(i) for i in self.nodes[k]]
        return self.record.module(self.nodes[k])

    def __iter__(self):
        return map(self.record.module, self.nodes)

    def __add__(self, other):
        if not isinstance(other, (list, NodeList)):
            return NotImplemented
        return list(self) + list(other)

    def __radd__(self, other):
        if not isinstance(other, list):
            return NotImplemented
        return other + list(self)

    def __eq__(self, other):
        if not isinstance(other, (list, NodeList)):
            return NotImplemented
        return list(self) == list(other)

    def clear(self):
        self.nodes.clear()

    def pop(self, k=-1):
        return self.record.module(self.nodes.pop(k))


class _IsoIndex:
    """Isomorphism-class store: modules in insertion order (``reps``),
    bucketed by dimension vector, each bucket searched with
    ``replab.is_isomorphic`` in insertion order.

    Every stored module, or else every module looked up, must be
    indecomposable, as ``is_isomorphic`` requires.  ``dedupe`` keeps the
    first module of each isomorphism class of ``reps`` and skips zero
    modules; without it ``reps`` is taken as already pairwise
    non-isomorphic and stored as given.
    """

    def __init__(self, reps=(), dedupe=True):
        self.reps = []
        self.buckets = {}   # dimension vector -> positions in reps
        for rep in reps:
            if not dedupe or (not rep.is_zero() and self.find(rep) is None):
                self.add(rep)

    def module(self, i):
        return self.reps[i]

    def find(self, rep):
        """Position of the stored module isomorphic to rep, or None."""
        for i in self.buckets.get(rep.dim_vector(), ()):
            if replab.is_isomorphic(rep, self.module(i)):
                return i
        return None

    def add(self, rep):
        """Append rep, which the caller knows to be new; its position."""
        self.buckets.setdefault(rep.dim_vector(), []).append(len(self.reps))
        self.reps.append(rep)
        return len(self.reps) - 1


class _Record(_IsoIndex):
    """A's indecomposables as an isomorphism-class store of nodes, with
    per node its dimension vector (``dims``) and the index of its
    tau-minus image, None when the node is injective, and per vertex v the
    index of P(v).  A knitted record starts with every module unbuilt
    (None in ``reps``) and builds each when first read (``module``).

    It also answers, per node, the node indices of the summands of its
    syzygy, cosyzygy and translates, each table filled the first time it
    is read.
    """

    def __init__(self, A):
        super().__init__()
        self.algebra = A
        self.dims = []
        self.tau_minus = []
        self.projective = {}
        self.cosyzygy = {}   # node -> Omega^- module, until decomposed
        self._syzygies = {"+": {}, "-": {}}   # direction -> node -> nodes
        self.arrows = None   # knitted and cycle records: {(i, j): mult}
        self.rank = None     # knitted: node -> position in knit order
        self._tau = None
        self._matched = {}   # id(module) -> (module, node) for ``match``
        self._hom = {}       # knitted: node -> Hom table row
        self._omega = {}     # node -> {node: multiplicity} of Omega
        self._quiver = None  # knitted: (arrows into, arrows out of) a node
        self._tops = {}      # knitted: node -> its top
        self._simples = None
        self._injectives = {}   # vertex -> node of I(v)
        self._rad_square_zero = None
        self._nakayama = None

    def add(self, rep):
        self.dims.append(rep.dim_vector())
        self.tau_minus.append(None)
        return super().add(rep)

    def module(self, i):
        """Node i's module.  An unbuilt one is built now: P(v) by
        ``replab.projective``, any other node by translating its tau,
        built first, which leaves that node's Omega^- for the tables."""
        chain = []
        j = i
        while j is not None and self.reps[j] is None:
            chain.append(j)
            j = self.tau()[j]
        for j in reversed(chain):
            t = self.tau()[j]
            if t is None:
                vertex = next(v for v, k in self.projective.items() if k == j)
                self.reps[j] = replab.projective(self.algebra, vertex)
                continue
            omega, self.reps[j] = replab.cosyzygy_and_translate(self.reps[t])
            if t not in self._syzygies["-"] and not self._uniserial():
                self.cosyzygy[t] = omega
        return self.reps[i]

    def modules(self):
        """Every node's module, in node order."""
        return [self.module(i) for i in range(len(self.reps))]

    def position(self, rep):
        """Index of the node whose built module is the object rep, or
        None."""
        for i in self.buckets.get(rep.dim_vector(), ()):
            if self.reps[i] is rep:
                return i
        return None

    def match(self, rep):
        """Index of the node isomorphic to the module rep, or None; a rep
        that is not a node's module is looked up once, and its node kept
        for later calls with the same object."""
        i = self.position(rep)
        if i is None:
            kept = self._matched.get(id(rep))
            if kept is None or kept[0] is not rep:
                kept = self._matched[id(rep)] = (rep, self.find(rep))
            i = kept[1]
        return i

    def locate(self, rep):
        """Index of the node isomorphic to the indecomposable rep: the only
        node of its dimension vector, or else the one found up to
        isomorphism.  A complete record holds rep's class, so a bucket of
        one node needs no test."""
        return self.node_of(rep.dim_vector(), lambda: rep)

    def node_of(self, dv, build):
        """``locate`` for the indecomposable ``build()`` of dimension
        vector dv, which is built only when dv has several nodes."""
        bucket = self.buckets.get(dv, ())
        if len(bucket) == 1:
            return bucket[0]
        i = self.find(build()) if bucket else None
        if i is None:
            raise EnumerationError("indecomposable left the enumerated set "
                                   "(bug)")
        return i

    def syzygy(self, i, direction):
        """Nodes of the summands of Omega (direction "+") or Omega^-
        ("-") of node i, in ``decompose`` order: in closed form on a
        knitted Nakayama record (``_uniserial_syzygy``), else read off the
        module."""
        table = self._syzygies[direction]
        if i not in table:
            if self._uniserial():
                table[i] = self._uniserial_syzygy(i, direction)
                return table[i]
            rep = self.cosyzygy.pop(i, None) if direction == "-" else None
            if rep is None:
                rep = replab.syzygy(self.module(i), direction, 1)
            table[i] = [self.locate(part) for part in replab.decompose(rep)]
        return table[i]

    def _uniserial(self):
        """Knitted, on a quiver with at most one arrow into and one arrow
        out of each vertex, so every indecomposable is uniserial."""
        if self._nakayama is None:
            q = self.algebra.quiver
            self._nakayama = self.knitted and all(
                len(q.inc[v]) <= 1 and len(q.out[v]) <= 1 for v in q.vertices)
        return self._nakayama

    def _uniserial_syzygy(self, x, direction):
        """The (co)syzygy table entry of the uniserial node x.

        Omega X = ker(P(top X) -> X) = rad^l P(top X) for l the length of
        X, and Omega^- X = I(soc X) / X; both are uniserial or zero
        (Elements Vol. 1, V.3-V.4), so the entry is the one node of dim
        P(top X) - dim X, or of dim I(soc X) - dim X, and empty where that
        vector is zero, as it is at a P(v) and at an I(v).  top X is read
        from ``top``, soc X as the S(w) with Hom(S(w), X) != 0."""
        vertices = self.algebra.quiver.vertices
        if direction == "+":
            (v,) = self.top(x)
            end = self.projective[vertices[v]]
        else:
            v = next(v for v, s in enumerate(self._simple_nodes())
                     if x in self.hom(s))
            end = self.injective_node(vertices[v])
        dv = tuple(e - d for e, d in zip(self.dims[end], self.dims[x]))
        return [self.buckets[dv][0]] if any(dv) else []

    def tau_n(self, nodes, n, direction):
        """Nodes of the summands of tau_n^- (direction "-") or tau_n
        ("+") of the sum of ``nodes``: the (co)syzygy n - 1 times, then
        the translate, summand by summand, as both are additive."""
        for _ in range(n - 1):
            nodes = [j for i in nodes for j in self.syzygy(i, direction)]
        step = self.tau_minus if direction == "-" else self.tau()
        return [step[i] for i in nodes if step[i] is not None]

    def tau(self):
        """Per node, the index of its tau image, None for the P(v): the
        inverse of ``tau_minus``."""
        if self._tau is None:
            tau = [None] * len(self.tau_minus)
            for i, t in enumerate(self.tau_minus):
                if t is not None:
                    tau[t] = i
            projective = set(self.projective.values())
            if any(t is None and i not in projective
                   for i, t in enumerate(tau)):
                raise EnumerationError(
                    "tau image left the enumerated set (bug)")
            self._tau = tau
        return self._tau

    @property
    def knitted(self):
        """Made by ``_knit_record``."""
        return self.rank is not None

    # -- integer Hom and Ext on a knitted record -------------------------

    def _arrow_lists(self):
        """Per node, the (source, multiplicity) of each arrow into it and
        the target of each arrow out of it."""
        if self._quiver is None:
            n = len(self.dims)
            into, out = [[] for _ in range(n)], [[] for _ in range(n)]
            for (i, j), m in self.arrows.items():
                into[j].append((i, m))
                out[i].append(j)
            self._quiver = into, out
        return self._quiver

    def hom(self, x):
        """{z: dim Hom(node x, node z)} over the z where it is non-zero,
        on a knitted record; kept once read.

        An AR sequence 0 -> tau Z -> E -> Z -> 0 gives the exact sequence
        of functors 0 -> Hom(-, tau Z) -> Hom(-, E) -> Hom(-, Z) whose
        cokernel is the simple functor at Z, and rad P(v) -> P(v) does the
        same without the tau term; so along the knit order, which is
        topological, h(X, Z) = sum over Y -> Z of m h(X, Y) - h(X, tau Z)
        + [Z = X] (Ringel-Vossieck, Hammocks; Elements Vol. 1, IV.4).  In
        a directed algebra Hom(X, Z) = 0 unless Z comes after X, and a node
        with no non-zero predecessor has h = 0, so only the successors of
        non-zero entries are visited, in knit order."""
        row = self._hom.get(x)
        if row is None:
            into, out = self._arrow_lists()
            tau, rank = self.tau(), self.rank
            row = {x: 1}
            queued = set(out[x])
            heap = [(rank[z], z) for z in queued]
            heapq.heapify(heap)
            while heap:
                z = heapq.heappop(heap)[1]
                # tau[z] is None for a P(v), and reads 0
                h = sum(m * row.get(y, 0) for y, m in into[z]) \
                    - row.get(tau[z], 0)
                if h:
                    row[z] = h
                    for w in out[z]:
                        if w not in queued:
                            queued.add(w)
                            heapq.heappush(heap, (rank[w], w))
            self._hom[x] = row
        return row

    def _simple_nodes(self):
        """The node of each simple S(v), in quiver vertex order."""
        if self._simples is None:
            width = len(self.algebra.quiver.vertices)
            self._simples = [
                self.buckets[tuple(int(k == v) for k in range(width))][0]
                for v in range(width)]
        return self._simples

    def top(self, x):
        """{vertex position: dim Hom(node x, S(v))}, the top of node x,
        over its non-zero entries; kept once read."""
        top = self._tops.get(x)
        if top is None:
            row = self.hom(x)
            top = self._tops[x] = {v: row[s] for v, s in
                                   enumerate(self._simple_nodes()) if s in row}
        return top

    def injective_node(self, v):
        """The node of I(v): dim I(v) at w counts the paths w -> v, as dim
        P(w) at v does, so on a knitted record it is the node of that
        vector; kept once read."""
        i = self._injectives.get(v)
        if i is None:
            at = self.algebra.quiver.vertex_pos[v]
            column = tuple(self.dims[self.projective[w]][at]
                           for w in self.algebra.quiver.vertices)
            i = self._injectives[v] = self.node_of(
                column, lambda: replab.injective(self.algebra, v))
        return i

    def omega(self, x):
        """{node: multiplicity} of the summands of Omega of node x.

        At radical square zero (no relation-free path of length 2) Omega X
        lies in rad P(top X), which is semisimple, so Omega X is the sum of
        S(w)^d_w with d = sum over v of h(X, S(v)) dim P(v) - dim X; else
        the ``syzygy`` table, whose summand order the orbit candidate reads
        and which is therefore not written here."""
        counts = self._omega.get(x)
        if counts is None:
            counts = {}
            if self.tau()[x] is None:
                pass   # Omega P(v) = 0
            elif self._square_zero():
                d = [-k for k in self.dims[x]]
                vertices = self.algebra.quiver.vertices
                for v, t in self.top(x).items():
                    for k, p in enumerate(self.dims[
                            self.projective[vertices[v]]]):
                        d[k] += t * p
                counts = {s: c for s, c in zip(self._simple_nodes(), d) if c}
            else:
                for j in self.syzygy(x, "+"):
                    counts[j] = counts.get(j, 0) + 1
            self._omega[x] = counts
        return counts

    def _square_zero(self):
        if self._rad_square_zero is None:
            self._rad_square_zero = all(
                len(p) < 2 for _, _, p in self.algebra.all_paths())
        return self._rad_square_zero

    def shift(self, counts):
        """Omega of the sum of ``counts`` ({node: multiplicity}), as
        counts."""
        out = {}
        for z, c in counts.items():
            for w, m in self.omega(z).items():
                out[w] = out.get(w, 0) + c * m
        return out

    def ext1_form(self, counts):
        """(a, t) with dim Ext^1(Z, Y) = sum over nodes W of a[W] h(W, Y)
        - sum over vertex positions v of t[v] dim Y_v, for Z the sum of
        ``counts``.

        Hom(-, Y) on 0 -> Omega Z -> P(top Z) -> Z -> 0 leaves
        Ext^1(Z, Y) = h(Omega Z, Y) - dim Hom(P(top Z), Y) + h(Z, Y), and
        dim Hom(P(v), Y) = dim Y_v."""
        a = dict(counts)
        for w, m in self.shift(counts).items():
            a[w] = a.get(w, 0) + m
        t = {}
        for z, c in counts.items():
            for v, s in self.top(z).items():
                t[v] = t.get(v, 0) + c * s
        return a, t

    def ext(self, x, y, i):
        """dim Ext^i(node x, node y), i >= 1, on a knitted record: Ext^1 of
        Omega^(i-1) X, as the terms of a projective resolution have no
        Ext."""
        counts = {x: 1}
        for _ in range(i - 1):
            counts = self.shift(counts)
        a, t = self.ext1_form(counts)
        dy = self.dims[y]
        return (sum(m * self.hom(w).get(y, 0) for w, m in a.items())
                - sum(s * dy[v] for v, s in t.items()))


def _knit_record(A, cap=ENUMERATION_CAP):
    """A's record knitted from dimension vectors, with its arrows, in
    ``_enumerate``'s node order; None where ``_enumerate`` must decide.

    Nodes are made from a ready queue: P(v) once a node has the
    dimension vector of each summand of rad P(v), and tau^- X once every
    arrow out of X is known, i.e. once each P with X | rad P is placed and
    each non-injective predecessor of X is translated.  A node with the
    dimension vector of some I(v) is injective.  None when a vector is
    negative, zero, repeated or above 6 at a vertex, when there would be
    more than cap nodes (as ``_enumerate`` counts them), when the queue
    runs dry with a P(v) or a non-injective node left, and when an I(v)
    is missing.
    """
    q = A.quiver
    pos = q.vertex_pos
    width = len(q.vertices)
    # dim P(v), and dim a Lambda from the relation-free paths starting
    # with a, for each arrow a
    proj = {v: [0] * width for v in q.vertices}
    part = {a: [0] * width for a, _, _ in q.arrows}
    for v, t, p in A.all_paths():
        proj[v][pos[t]] += 1
        if p:
            part[p[0]][pos[t]] += 1
    radical = {v: {} for v in q.vertices}   # v -> {dim vector: mult}
    for a, v, _ in q.arrows:
        dv = tuple(part[a])
        radical[v][dv] = radical[v].get(dv, 0) + 1
    proj = {v: tuple(d) for v, d in proj.items()}
    # dim I(v) at w counts the paths from w to v, as dim P(w) at v does
    injective = {tuple(proj[w][pos[v]] for w in q.vertices)
                 for v in q.vertices}
    wanted = {}   # dim vector -> vertices with a summand of it in rad P(v)
    for v, parts in radical.items():
        for dv in parts:
            wanted.setdefault(dv, []).append(v)
    missing = {v: len(parts) for v, parts in radical.items()}
    placeable = [v for v in sorted(q.vertices) if not missing[v]]
    ready = []
    dims, at, into, out, tau_minus, placed = [], {}, [], [], [], {}
    final = []     # per node: injective, so never translated
    pending = []   # per node: arrows out of it not yet known

    def add(dv, arrows_in):
        i = len(dims)
        dims.append(dv)
        at[dv] = i
        into.append(arrows_in)
        out.append({})
        tau_minus.append(None)
        final.append(dv in injective)
        pending.append(len(wanted.get(dv, ()))
                       + sum(not final[u] for u in arrows_in))
        for u, m in arrows_in.items():
            out[u][i] = m
            pending[u] -= 1
            if not pending[u] and not final[u]:
                ready.append(u)
        for v in wanted.get(dv, ()):
            missing[v] -= 1
            if not missing[v]:
                placeable.append(v)
        if not pending[i] and not final[i]:
            ready.append(i)
        return i

    while placeable or ready:
        v = placeable.pop() if placeable else None
        if v is not None:
            dv = proj[v]
            arrows_in = {at[d]: m for d, m in radical[v].items()}
        else:
            x = ready.pop()
            dv = [-d for d in dims[x]]
            for y, m in out[x].items():
                for k, d in enumerate(dims[y]):
                    dv[k] += m * d
            dv, arrows_in = tuple(dv), out[x]
        if (dv in at or min(dv) < 0 or max(dv) > 6 or not any(dv)
                or len(dims) >= max(cap, width)):
            return None
        if v is not None:
            placed[v] = add(dv, arrows_in)
        else:
            tau_minus[x] = add(dv, arrows_in)
    if (len(placed) < width or not all(dv in at for dv in injective)
            or any(t is None and not f for f, t in zip(final, tau_minus))):
        return None
    # _enumerate's order: the P(v) by vertex, then each node's translate
    # in the order the nodes come
    order = [placed[v] for v in sorted(q.vertices)]
    for i in order:
        if tau_minus[i] is not None:
            order.append(tau_minus[i])
    new = [0] * len(order)
    for k, i in enumerate(order):
        new[i] = k
    record = _Record(A)
    record.rank = order
    record.dims = [dims[i] for i in order]
    record.reps = [None] * len(order)
    record.buckets = {dv: [k] for k, dv in enumerate(record.dims)}
    record.tau_minus = [None if tau_minus[i] is None else new[tau_minus[i]]
                        for i in order]
    record.projective = {v: k for k, v in enumerate(sorted(q.vertices))}
    record.arrows = dict(sorted(((new[u], new[j]), m)
                                for j, arrows in enumerate(into)
                                for u, m in arrows.items()))
    return record


def _enumerate(A, cap=ENUMERATION_CAP):
    """The record of A's indecomposables from the tau-minus orbits of the
    projectives; EnumerationError when the walk passes cap nodes, finds a
    node of dimension above 6 at a vertex, or misses an injective.

    Every node but the P(v) is a tau-minus image that ``decompose``
    returned unsplit, so its endomorphism ring is 1-dimensional.  Over a
    representation-directed algebra each indecomposable is a sincere
    directing module of its support algebra, so its dimension vector is
    a positive root of a weakly positive unit form, whose coordinates
    are at most 6 by Ovsienko's theorem (Ringel, LNM 1099, 2.4): a
    larger node ends walks into infinite components, e.g. the Kronecker
    algebra's, long before cap.
    """
    record = _Record(A)
    order = record.reps

    def add(rep):
        for v, d in rep.dim.items():
            if d > 6:
                raise EnumerationError(
                    f"node {len(order)} {list(rep.dim_vector())} has "
                    f"dimension {d} at vertex {v}, above the bound 6 for "
                    "representation-directed algebras")
        return record.add(rep)

    for v in sorted(A.quiver.vertices):
        P = replab.projective(A, v)
        i = record.find(P)
        record.projective[v] = add(P) if i is None else i
    # the queue is the node list itself: every node is translated once,
    # in the order it was found
    i = 0
    while i < len(order):
        record.cosyzygy[i], T = replab.cosyzygy_and_translate(order[i])
        if not T.is_zero():
            # no node passes 6 at a vertex, so an oversize T is a new node
            # that ``add`` refuses, and is not decomposed
            parts = [T] if max(T.dim.values()) > 6 else replab.decompose(T)
            if len(parts) != 1:
                raise EnumerationError(
                    "tau-minus image of an indecomposable split into "
                    f"{len(parts)} summands")
            j = record.find(parts[0])
            if j is None:
                if len(order) >= cap:
                    raise EnumerationError(
                        f"more than {cap} indecomposables reached; algebra "
                        "is not representation-finite or not directed")
                j = add(parts[0])
            record.tau_minus[i] = j
        i += 1
    if any(record.find(replab.injective(A, v)) is None
           for v in A.quiver.vertices):
        raise EnumerationError(
            "tau-minus orbits of projectives missed an injective; "
            "enumeration is not complete for this algebra")
    return record


def _is_cycle(q):
    return (len(q.arrows) == len(q.vertices)
            and all(len(q.out[v]) == 1 and len(q.inc[v]) == 1
                    for v in q.vertices))


def _cycle_record(A):
    """The record of a cycle quiver's uniserials, with its Omega and
    Omega^- tables and the irreducible-map multiplicities as ``arrows``,
    all in closed form.

    M(v, l) is the uniserial with top S(v) and length l, 1 <= l <= c_v =
    dim P(v), so M(v, c_v) = P(v); the nodes are in ``uniserial_modules``
    order.  With v+ the target of v's arrow and t the socle vertex of
    M(v, l) (Assem-Simson-Skowronski, Elements Vol. 1, V.4):
    tau M(v, l) = M(v+, l) for l < c_v; Omega M(v, l) = rad^l P(v) =
    M(t+, c_v - l); Omega^- M(v, l) = I(t) / M(v, l) = M(u, m - l) for
    I(t) = M(u, m); and the arrows into M(v, l) come from M(v, l + 1)
    when l < c_v and from its radical M(v+, l - 1) when l >= 2, each with
    multiplicity 1.
    """
    q = A.quiver
    length = {v: len(A.paths_from(v)) for v in q.vertices}
    succ = {v: q.tgt[q.out[v][0]] for v in q.vertices}
    keys, socle = [], []
    for v in sorted(q.vertices):
        t = v
        for l in range(1, length[v] + 1):
            keys.append((v, l))
            socle.append(t)
            t = succ[t]
    at = {key: i for i, key in enumerate(keys)}
    injective = {}   # vertex t -> node of I(t), the longest with socle t
    for i, t in enumerate(socle):
        if t not in injective or keys[i][1] > keys[injective[t]][1]:
            injective[t] = i
    record = _Record(A)
    for rep in replab.uniserial_modules(A):
        record.add(rep)
    omega, coomega = record._syzygies["+"], record._syzygies["-"]
    arrows = {}
    for j, (v, l) in enumerate(keys):
        u, m = keys[injective[socle[j]]]
        omega[j] = ([at[(succ[socle[j]], length[v] - l)]]
                    if l < length[v] else [])
        coomega[j] = [at[(u, m - l)]] if l < m else []
        if l < length[v]:
            record.tau_minus[at[(succ[v], l)]] = j
            arrows[(at[(v, l + 1)], j)] = 1
        if l >= 2:
            arrows[(at[(succ[v], l - 1)], j)] = 1
    record.projective = {v: at[(v, length[v])] for v in q.vertices}
    record.arrows = dict(sorted(arrows.items()))
    return record


def _new_record(A, cap=ENUMERATION_CAP):
    """A's record off a cycle quiver: knitted, or else from
    ``_enumerate``, which raises its EnumerationError."""
    record = _knit_record(A, cap)
    return _enumerate(A, cap=cap) if record is None else record


def _complete_enumeration(A, cap=ENUMERATION_CAP):
    """The record of A's indecomposables, or ``_enumerate``'s
    EnumerationError.

    On a cycle quiver the orbits of the projectives miss the periodic
    ones, so the record is built in closed form there (``cap`` does not
    apply).  A complete record is kept on A and answers every later call
    whose cap it fits; a failed enumeration is not kept."""
    if _is_cycle(A.quiver):
        return replab._memo(A, "enumeration", lambda: _cycle_record(A))
    record = replab._memo_get(A, "enumeration")
    if record is None or len(record.tau_minus) > cap:
        record = _new_record(A, cap)
    return replab._memo(A, "enumeration", lambda: record)


def indecomposables(A, cap=ENUMERATION_CAP):
    """A's indecomposables in node order, as a fresh ``NodeList`` of its
    record: a module is built only when its element is read."""
    record = _complete_enumeration(A, cap)
    return NodeList(record, range(len(record.dims)))


def _knit(A, record):
    """Irreducible-map multiplicities {(i, j): m} in sorted (i, j) order,
    from the tau-minus record of ``_enumerate`` and its inverse.

    The arrows into P(v) come from the summands of rad P(v) = Omega S(v).
    The arrows into tau^- W are the arrows out of W (the mesh ending at
    tau^- W): into each P with W | rad P, and into tau^- U for each arrow
    U -> W with U not injective, with the same multiplicities.
    """
    n = len(record.tau_minus)
    into = [{} for _ in range(n)]        # j -> {i: multiplicity of i -> j}
    into_projective = [{} for _ in range(n)]   # i -> {P: mult}
    for v, j in record.projective.items():
        rad = replab.syzygy(replab.simple(A, v), "+", 1)
        for part in replab.decompose(rad):
            i = record.find(part)
            if i is None:
                raise EnumerationError(
                    "radical summand of a projective left the enumerated "
                    "set (bug)")
            into[j][i] = into[j].get(i, 0) + 1
            into_projective[i][j] = into[j][i]
    # a non-projective node is found while translating its tau, so its
    # tau comes earlier in node order: the arrows into tau x are complete
    # by the time x is filled
    for x, w in enumerate(record.tau()):
        if w is None:
            continue
        into[x].update(into_projective[w])
        for u, mult in into[w].items():
            t = record.tau_minus[u]
            if t is not None:
                into[x][t] = mult
    return dict(sorted(((i, j), mult) for j in range(n)
                       for i, mult in into[j].items()))


def ar_quiver(A, cap=ENUMERATION_CAP):
    """AR quiver of a representation-directed algebra, or of a Nakayama
    algebra on a cycle quiver.  The arrows come with a knitted or a cycle
    record, and are knitted from ``_enumerate``'s tau-minus orbits of the
    projectives otherwise; node modules are built when first read."""
    record = _complete_enumeration(A, cap)
    nodes = _nodes(record.dims, record.module)
    # brick sanity (knitting and the cycle formulas rely on it).  Off a
    # cycle, enumeration certifies every node but the P(v), and
    # dim End P(v) = dim P(v)_v
    if _is_cycle(A.quiver):
        bricks = all(replab.hom_dim(rep, rep) == 1 for rep in record.reps)
    else:
        pos = A.quiver.vertex_pos
        bricks = all(record.dims[i][pos[v]] == 1
                     for v, i in record.projective.items())
    if not bricks:
        raise EnumerationError(
            "non-brick indecomposable found; AR quiver assembly "
            "supports representation-directed algebras only")
    for i in record.projective.values():
        nodes[i].is_projective = True
    for i, t in enumerate(record.tau_minus):
        if t is None:
            nodes[i].is_injective = True
    tau = {nodes[j].id: nodes[i].id for j, i in enumerate(record.tau())
           if i is not None}
    by_index = _knit(A, record) if record.arrows is None else record.arrows
    arrows = {(nodes[i].id, nodes[j].id): mult
              for (i, j), mult in by_index.items()}
    return ARData(A, nodes, arrows, tau)


def verify_mesh_identity(ar):
    """dim tau^- M = sum over arrows M -> E of mult * dim E - dim M."""
    inv_tau = {v: k for k, v in ar.tau.items()}
    middle = {}   # node id -> sum over arrows out of it of mult * dim E
    for (x, y), mult in ar.arrows.items():
        middle[x] = middle.get(x, 0) + mult * ar.by_id[y].rep.total_dim()
    failures = []
    for node in ar.nodes:
        if node.is_injective:
            continue
        succ = inv_tau.get(node.id)
        if succ is None:
            failures.append((node.id, "no tau-inverse"))
            continue
        expected = middle.get(node.id, 0) - node.rep.total_dim()
        if ar.by_id[succ].rep.total_dim() != expected:
            failures.append((node.id, "mesh identity fails"))
    return failures


def is_representation_directed(A):
    """(verdict, certificate) from A's record: a topological order of the
    Hom digraph when True, else the reason, an EnumerationError or
    DecompositionError message or a Hom cycle with its members.

    On a knitted record the digraph is read off the Hom table; on a cycle
    or ``_enumerate`` record, whose AR quiver need not be acyclic, it is
    computed by ``hom_dim`` between node modules."""
    try:
        record = _complete_enumeration(A)
        adj = _hom_successors(record)
    except (EnumerationError, replab.DecompositionError) as e:
        return False, {"reason": str(e)}
    n = len(adj)
    indeg = [0] * n
    for succ in adj:
        for j in succ:
            indeg[j] += 1
    queue = [i for i in range(n) if indeg[i] == 0]
    topo = []
    while queue:
        i = queue.pop()
        topo.append(i)
        for j in adj[i]:
            indeg[j] -= 1
            if indeg[j] == 0:
                queue.append(j)
    if len(topo) == n:
        return True, {"order": topo, "count": n}
    return False, {"reason": "Hom digraph has a cycle",
                   "cycle_members": [i for i in range(n) if indeg[i] > 0]}


def _hom_successors(record):
    """Per node i, the nodes j != i with Hom(i, j) != 0, ascending."""
    if record.knitted:
        return [sorted(j for j in record.hom(i) if j != i)
                for i in range(len(record.dims))]
    reps = record.modules()
    at = {}  # vertex -> indices of the modules non-zero there
    for j, rep in enumerate(reps):
        for v in rep.support():
            at.setdefault(v, []).append(j)
    adj = []
    for i, rep in enumerate(reps):
        # Hom(rep, N) = 0 unless N is non-zero at a top of rep
        tops = replab.resolution_tops(rep, 0)
        adj.append([j for j in sorted({j for v in tops for j in at.get(v, ())})
                    if i != j and replab.hom_dim(rep, reps[j])])
    return adj


def to_dot(ar):
    lines = ["digraph AR {", "  rankdir=LR;"]
    for node in ar.nodes:
        shape = "box" if node.is_projective or node.is_injective else "ellipse"
        lines.append(f'  "{node.id}" [label="{node.id}", shape={shape}];')
    for (x, y), mult in sorted(ar.arrows.items()):
        lab = f' [label="{mult}"]' if mult > 1 else ""
        lines.append(f'  "{x}" -> "{y}"{lab};')
    for x, y in sorted(ar.tau.items()):
        lines.append(f'  "{x}" -> "{y}" [style=dashed, constraint=false];')
    lines.append("}")
    return "\n".join(lines) + "\n"
