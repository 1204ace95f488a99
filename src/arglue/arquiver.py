"""Indecomposable enumeration and Auslander-Reiten quivers.

Enumeration walks the tau-minus orbits of the indecomposable
projectives; for representation-directed algebras this reaches every
indecomposable, certified by all injectives showing up.  It records the
tau-minus image of every node, and the AR quiver is knitted from that
record: the arrows into P(v) are the summands of rad P(v), and the arrows
into tau^- W are the arrows out of W (Assem-Simson-Skowronski, Elements
Vol. 1, IV.4), with no Hom space between two different nodes.

On a cycle quiver the indecomposables are the uniserials, some of whose
tau-orbits are periodic and hold no projective, so there the arrows come
from dim rad - dim rad^2, composing Hom bases through every third node.
That construction is also the tests' reference for the knitted quivers.

A complete enumeration is kept on its algebra, and every later
``indecomposables`` or ``ar_quiver`` call reads it.  Its record then
serves per-node tables, each entry a list of node indices filled the
first time it is read: the summands of Omega and of Omega^- (the latter
from the cover that translating the node already built), and tau, the
inverse of the tau-minus record.  As Omega^-, Omega, tau^- and tau are
additive, tau_n^- of a node is tau^- summand by summand after n - 1
steps of Omega^-, and tau_n likewise from Omega and tau.  The orbit
candidate and the fractured check read these tables only when that
algebra's complete enumeration is already computed; they never
enumerate to get them.
"""

from . import linalg, replab


class EnumerationError(RuntimeError):
    pass


class ARNode:
    def __init__(self, node_id, rep, is_projective=False, is_injective=False):
        self.id = node_id
        self.rep = rep
        self.is_projective = is_projective
        self.is_injective = is_injective

    def __repr__(self):
        return f"ARNode({self.id})"


class ARData:
    def __init__(self, algebra, nodes, arrows, tau):
        self.algebra = algebra
        self.nodes = nodes            # list of ARNode
        self.arrows = arrows          # (id, id) -> multiplicity
        self.tau = tau                # id -> id (non-projective nodes)
        self.by_id = {n.id: n for n in nodes}

    def node_count(self):
        return len(self.nodes)


class _IsoIndex:
    """Isomorphism-class store: modules in insertion order (``reps``),
    bucketed by dimension vector, each bucket searched with
    ``replab.is_isomorphic`` in insertion order.

    ``dedupe`` keeps the first module of each isomorphism class of
    ``reps`` and skips zero modules; without it ``reps`` is taken as
    already pairwise non-isomorphic and stored as given.  ``find`` is
    certain when rep or the stored module is indecomposable: only when
    neither is can ``is_isomorphic``'s random fallback decide the answer.
    """

    def __init__(self, reps=(), dedupe=True):
        self.reps = []
        self.buckets = {}   # dimension vector -> positions in reps
        for rep in reps:
            if not dedupe or (not rep.is_zero() and self.find(rep) is None):
                self.add(rep)

    def find(self, rep):
        """Position of the stored module isomorphic to rep, or None."""
        for i in self.buckets.get(rep.dim_vector(), ()):
            if replab.is_isomorphic(rep, self.reps[i]):
                return i
        return None

    def add(self, rep):
        """Append rep, which the caller knows to be new; its position."""
        self.buckets.setdefault(rep.dim_vector(), []).append(len(self.reps))
        self.reps.append(rep)
        return len(self.reps) - 1


class _Record:
    """What translating each node once leaves behind: per node, the index
    of its tau-minus image, None when the node is injective; per vertex v,
    the index of P(v); and the isomorphism index over all nodes.

    On a complete enumeration it also answers, per node, the node indices
    of the summands of its syzygy, cosyzygy and translates, each table
    filled the first time it is read.
    """

    def __init__(self, index):
        self.index = index
        self.tau_minus = []
        self.projective = {}
        self.cosyzygy = {}   # node -> Omega^- module, until decomposed
        self._syzygies = {"+": {}, "-": {}}   # direction -> node -> nodes
        self._tau = None
        self._positions = None

    def position(self, rep):
        """Index of the node that is the object rep, or None."""
        if self._positions is None:
            self._positions = {id(r): i for i, r in enumerate(self.index.reps)}
        return self._positions.get(id(rep))

    def locate(self, rep):
        """Index of the node isomorphic to the indecomposable rep."""
        i = self.index.find(rep)
        if i is None:
            raise EnumerationError("indecomposable left the enumerated set "
                                   "(bug)")
        return i

    def syzygy(self, i, direction):
        """Nodes of the summands of Omega (direction "+") or Omega^-
        ("-") of node i, in ``decompose`` order."""
        table = self._syzygies[direction]
        if i not in table:
            rep = self.cosyzygy.pop(i, None) if direction == "-" else None
            if rep is None:
                rep = replab.syzygy(self.index.reps[i], direction, 1)
            table[i] = [self.locate(part) for part in replab.decompose(rep)]
        return table[i]

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


def _enumerate(A, cap=4096):
    """Returns (reps, complete, capped, record).

    Every node but the P(v) is a tau-minus image that ``decompose``
    returned unsplit, so its endomorphism ring is 1-dimensional.
    """
    index = _IsoIndex()
    record = _Record(index)
    order = index.reps

    def add(rep):
        record.tau_minus.append(None)
        return index.add(rep)

    for v in sorted(A.quiver.vertices):
        P = replab.projective(A, v)
        i = index.find(P)
        record.projective[v] = add(P) if i is None else i
    capped = False
    # the queue is the node list itself: every node is translated once,
    # in the order it was found
    i = 0
    while i < len(order):
        record.cosyzygy[i], T = replab.cosyzygy_and_translate(order[i])
        if not T.is_zero():
            parts = replab.decompose(T)
            if len(parts) != 1:
                raise EnumerationError(
                    "tau-minus image of an indecomposable split into "
                    f"{len(parts)} summands")
            j = index.find(parts[0])
            if j is None:
                if len(order) >= cap:
                    capped = True
                    break
                j = add(parts[0])
            record.tau_minus[i] = j
        i += 1
    complete = not capped and all(
        index.find(replab.injective(A, v)) is not None
        for v in A.quiver.vertices)
    return order, complete, capped, record


def _is_cycle(q):
    return (len(q.arrows) == len(q.vertices)
            and all(len(q.out[v]) == 1 and len(q.inc[v]) == 1
                    for v in q.vertices))


def _complete_enumeration(A, cap):
    """The record of ``_enumerate``, or EnumerationError when the orbits
    of the projectives do not certify a complete list.  A complete record
    is kept on A and answers every later call whose cap it fits; a failed
    enumeration is not kept."""
    record = _known_enumeration(A)
    if record is not None and len(record.tau_minus) <= cap:
        return record
    _reps, complete, capped, record = _enumerate(A, cap=cap)
    if capped:
        raise EnumerationError(
            f"more than {cap} indecomposables reached; "
            "algebra is not representation-finite or not directed")
    if not complete:
        raise EnumerationError(
            "tau-minus orbits of projectives missed an injective; "
            "enumeration is not complete for this algebra")
    return replab._memo(A, "enumeration", lambda: record)


def _known_enumeration(A):
    """The record of A's complete enumeration if one was already made,
    else None; never enumerates."""
    return replab._memo_get(A, "enumeration")


def indecomposables(A, cap=4096):
    if _is_cycle(A.quiver):
        # On a cycle quiver every indecomposable is uniserial, and some
        # tau-orbits are periodic without ever meeting a projective, so
        # knitting from the projectives would silently under-enumerate.
        return replab.uniserial_modules(A)
    return list(_complete_enumeration(A, cap).index.reps)


def _translate_each(A, reps):
    """The record that ``_enumerate`` keeps, for an already complete list
    (the uniserials of a cycle quiver)."""
    record = _Record(_IsoIndex(reps, dedupe=False))
    for rep in reps:
        T = replab.ar_translate(rep, "-")
        j = None
        if not T.is_zero():
            j = record.index.find(T)
            if j is None:
                raise EnumerationError(
                    "tau image left the enumerated set (bug)")
        record.tau_minus.append(j)
    for v in A.quiver.vertices:
        i = record.index.find(replab.projective(A, v))
        if i is not None:
            record.projective[v] = i
    return record


def _radical_arrows(reps):
    """Irreducible-map multiplicities {(i, j): dim rad - dim rad^2} between
    pairwise non-isomorphic bricks, in sorted (i, j) order.

    rad(X, Y) = Hom(X, Y) here, and rad^2(X, Y) is spanned by the
    composites of Hom bases through every third node.
    """
    n = len(reps)
    homdims = {}
    for i in range(n):
        for j in range(n):
            if i != j:
                d = replab.hom_dim(reps[i], reps[j])
                if d:
                    homdims[(i, j)] = d
    hom_bases = {}
    arrows = {}
    for (i, j), d in sorted(homdims.items()):
        vecs = []
        for k in range(n):
            if k == i or k == j:
                continue
            if (i, k) in homdims and (k, j) in homdims:
                if (i, k) not in hom_bases:
                    hom_bases[(i, k)] = replab.hom_basis(reps[i], reps[k])
                if (k, j) not in hom_bases:
                    hom_bases[(k, j)] = replab.hom_basis(reps[k], reps[j])
                for f in hom_bases[(i, k)]:
                    for g in hom_bases[(k, j)]:
                        comp = g.compose(f)
                        vec = []
                        # a vertex off either support adds no entries
                        for v in reps[i].algebra.quiver.vertices:
                            for row in comp.mats.get(v, ()):
                                vec.extend(row)
                        vecs.append(vec)
        rad2 = linalg.rank(vecs) if vecs else 0
        mult = d - rad2
        if mult:
            arrows[(i, j)] = mult
    return arrows


def _knit(A, record):
    """Irreducible-map multiplicities {(i, j): m} in sorted (i, j) order,
    from the tau-minus record and its inverse.

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
            i = record.index.find(part)
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


def ar_quiver(A, cap=4096):
    """AR quiver of a representation-directed algebra, or of a Nakayama
    algebra on a cycle quiver.  Arrows are knitted from the tau-minus
    orbits of the projectives; on a cycle quiver, whose periodic orbits
    hold no projective to start from, they are dim rad - dim rad^2."""
    cycle = _is_cycle(A.quiver)
    if cycle:
        reps = replab.uniserial_modules(A)
    else:
        record = _complete_enumeration(A, cap)
        reps = record.index.reps
    # stable ids
    seen = {}
    nodes = []
    for rep in reps:
        dv = rep.dim_vector()
        k = seen.get(dv, 0)
        seen[dv] = k + 1
        dvs = ",".join(str(d) for d in dv)
        nodes.append(ARNode(f"({dvs})@{k}", rep))
    # brick sanity (knitting and the radical formulas rely on it).  Off a
    # cycle, enumeration certifies every node but the P(v), and
    # dim End P(v) = dim P(v)_v
    if cycle:
        bricks = all(replab.hom_dim(rep, rep) == 1 for rep in reps)
    else:
        bricks = all(reps[i].dim[v] == 1 for v, i in record.projective.items())
    if not bricks:
        raise EnumerationError(
            "non-brick indecomposable found; AR quiver assembly "
            "supports representation-directed algebras only")
    if cycle:
        record = _translate_each(A, reps)
    for i in record.projective.values():
        nodes[i].is_projective = True
    for i, t in enumerate(record.tau_minus):
        if t is None:
            nodes[i].is_injective = True
    tau = {nodes[j].id: nodes[i].id for j, i in enumerate(record.tau())
           if i is not None}
    by_index = _radical_arrows(reps) if cycle else _knit(A, record)
    arrows = {(nodes[i].id, nodes[j].id): mult
              for (i, j), mult in by_index.items()}
    return ARData(A, nodes, arrows, tau)


def verify_mesh_identity(ar):
    """dim tau^- M = sum over arrows M -> E of mult * dim E - dim M."""
    inv_tau = {v: k for k, v in ar.tau.items()}
    failures = []
    for node in ar.nodes:
        if node.is_injective:
            continue
        succ = inv_tau.get(node.id)
        if succ is None:
            failures.append((node.id, "no tau-inverse"))
            continue
        total = 0
        for (x, y), mult in ar.arrows.items():
            if x == node.id:
                total += mult * ar.by_id[y].rep.total_dim()
        expected = total - node.rep.total_dim()
        if ar.by_id[succ].rep.total_dim() != expected:
            failures.append((node.id, "mesh identity fails"))
    return failures


def is_representation_directed(A, cap=4096):
    """(verdict, certificate). Certificate is a topological order of the
    Hom digraph when True, else a reason/cycle."""
    try:
        reps, complete, capped, _ = _enumerate(A, cap=cap)
    except replab.DecompositionError:
        return False, {"reason": "decomposition failure during enumeration"}
    if capped:
        return False, {"reason": f"cap {cap} exceeded (unknown)"}
    if not complete:
        return False, {"reason": "some injective unreachable from projectives"}
    n = len(reps)
    at = {}  # vertex -> indices of the modules non-zero there
    for j, rep in enumerate(reps):
        for v in rep.support():
            at.setdefault(v, []).append(j)
    adj = {i: [] for i in range(n)}
    indeg = {i: 0 for i in range(n)}
    for i in range(n):
        # Hom(reps[i], N) = 0 unless N is non-zero at a top of reps[i]
        tops = replab.resolution_tops(reps[i], 0)
        for j in sorted({j for v in tops for j in at.get(v, ())}):
            if i != j and replab.hom_dim(reps[i], reps[j]):
                adj[i].append(j)
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
