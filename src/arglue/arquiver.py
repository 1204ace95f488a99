"""Indecomposable enumeration and Auslander-Reiten quivers.

Every enumerable algebra has one record of its indecomposables, kept on
the algebra the first time any caller asks for it: the node list, the
tau-minus image of every node, the node of each P(v) and an isomorphism
index over the nodes.  Every ``indecomposables``, ``ar_quiver``, orbit
candidate and fractured check reads that record.

Off a cycle quiver, enumeration walks the tau-minus orbits of the
indecomposable projectives; for representation-directed algebras this
reaches every indecomposable, certified by all injectives showing up.
The AR quiver is knitted from the record: the arrows into P(v) are the
summands of rad P(v), and the arrows into tau^- W are the arrows out of
W (Assem-Simson-Skowronski, Elements Vol. 1, IV.4), with no Hom space
between two different nodes.

On a cycle quiver the indecomposables are the uniserials M(v, l) (top
S(v), length l), some of whose tau-orbits are periodic and hold no
projective, so there the record is written down from the (top, length)
keys (``_cycle_record``): tau M(v, l) = M(v+, l) for v+ the target of
v's arrow, and the irreducible maps are M(v, l + 1) -> M(v, l) and
M(v+, l - 1) -> M(v, l) (Elements Vol. 1, V.4).

The record also serves per-node tables, each entry a list of node
indices: the summands of Omega and of Omega^- (off a cycle filled the
first time they are read, Omega^- from the cover that translating the
node already built; on a cycle written down with the record), and tau,
the inverse of the tau-minus record.  As Omega^-, Omega, tau^- and tau
are additive, tau_n^- of a node is tau^- summand by summand after n - 1
steps of Omega^-, and tau_n likewise from Omega and tau.
"""

from . import replab


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
    """What translating each node once leaves behind (or, on a cycle
    quiver, the closed form gives): per node, the index of its tau-minus
    image, None when the node is injective; per vertex v, the index of
    P(v); and the isomorphism index over all nodes.

    On a complete list it also answers, per node, the node indices
    of the summands of its syzygy, cosyzygy and translates, each table
    filled the first time it is read.
    """

    def __init__(self, index):
        self.index = index
        self.tau_minus = []
        self.projective = {}
        self.cosyzygy = {}   # node -> Omega^- module, until decomposed
        self._syzygies = {"+": {}, "-": {}}   # direction -> node -> nodes
        self.arrows = None   # cycle quivers: {(i, j): multiplicity}
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
    record = _Record(_IsoIndex(replab.uniserial_modules(A), dedupe=False))
    record.tau_minus = [None] * len(keys)
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


def _complete_enumeration(A, cap=4096):
    """The record of A's indecomposables, or EnumerationError when the
    orbits of the projectives do not certify a complete list within cap.

    On a cycle quiver the orbits of the projectives miss the periodic
    ones, so the record is built in closed form there (``cap`` does not
    apply).  A complete record is kept on A and answers every later call
    whose cap it fits; a failed enumeration is not kept."""
    if _is_cycle(A.quiver):
        return replab._memo(A, "enumeration", lambda: _cycle_record(A))
    record = replab._memo_get(A, "enumeration")
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


def indecomposables(A, cap=4096):
    return list(_complete_enumeration(A, cap).index.reps)


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
    hold no projective to start from, they come with its record."""
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
    # brick sanity (knitting and the cycle formulas rely on it).  Off a
    # cycle, enumeration certifies every node but the P(v), and
    # dim End P(v) = dim P(v)_v
    if _is_cycle(A.quiver):
        bricks = all(replab.hom_dim(rep, rep) == 1 for rep in reps)
    else:
        bricks = all(reps[i].dim[v] == 1 for v, i in record.projective.items())
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
