"""Indecomposable enumeration and Auslander-Reiten quivers.

Enumeration walks the tau-minus orbits of the indecomposable
projectives; for representation-directed algebras this reaches every
indecomposable, certified by all injectives showing up.
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
    """Bucketed isomorphism-class store for representations."""

    def __init__(self, seed=1729):
        self.buckets = {}
        self.seed = seed

    def find(self, rep):
        for other, payload in self.buckets.get(rep.dim_vector(), []):
            if replab.is_isomorphic(rep, other, seed=self.seed):
                return payload
        return None

    def add(self, rep, payload):
        self.buckets.setdefault(rep.dim_vector(), []).append((rep, payload))


def _enumerate(A, cap=4096, dim_cap=None):
    """Returns (reps, complete, capped).

    ``dim_cap`` aborts once a produced indecomposable exceeds the given
    total dimension, a cheap certificate of unbounded translate orbits.
    """
    index = _IsoIndex()
    order = []
    queue = []
    for v in sorted(A.quiver.vertices):
        P = replab.projective(A, v)
        if index.find(P) is None:
            index.add(P, len(order))
            order.append(P)
            queue.append(P)
    capped = False
    while queue:
        M = queue.pop(0)
        T = replab.ar_translate(M, "-")
        if T.is_zero():
            continue
        parts = replab.decompose(T)
        for part in parts:
            if index.find(part) is None:
                if len(order) >= cap or (
                        dim_cap is not None
                        and part.total_dim() > dim_cap):
                    capped = True
                    queue = []
                    break
                index.add(part, len(order))
                order.append(part)
                queue.append(part)
    complete = True
    if not capped:
        for v in A.quiver.vertices:
            I = replab.injective(A, v)
            if index.find(I) is None:
                complete = False
                break
    else:
        complete = False
    return order, complete, capped


def indecomposables(A, cap=4096, dim_cap=None):
    q = A.quiver
    if (len(q.arrows) == len(q.vertices)
            and all(len(q.out[v]) == 1 and len(q.inc[v]) == 1
                    for v in q.vertices)):
        # On a cycle quiver every indecomposable is uniserial, and some
        # tau-orbits are periodic without ever meeting a projective, so
        # knitting from the projectives would silently under-enumerate.
        return replab.uniserial_modules(A)
    reps, complete, capped = _enumerate(A, cap=cap, dim_cap=dim_cap)
    if capped:
        raise EnumerationError(
            f"more than {cap} indecomposables reached; "
            "algebra is not representation-finite or not directed")
    if not complete:
        raise EnumerationError(
            "tau-minus orbits of projectives missed an injective; "
            "enumeration is not complete for this algebra")
    return reps


def _radical_hom_dims(reps, seed=1729):
    """dim Hom(X, Y) table; assumes all endomorphism rings are trivial."""
    n = len(reps)
    table = {}
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            d = replab.hom_dim(reps[i], reps[j])
            if d:
                table[(i, j)] = d
    return table


def ar_quiver(A, cap=4096):
    reps = indecomposables(A, cap=cap)
    n = len(reps)
    # stable ids
    seen = {}
    nodes = []
    for rep in reps:
        dv = rep.dim_vector()
        k = seen.get(dv, 0)
        seen[dv] = k + 1
        dvs = ",".join(str(d) for d in dv)
        nodes.append(ARNode(f"({dvs})@{k}", rep))
    index = _IsoIndex()
    for i, rep in enumerate(reps):
        index.add(rep, i)
    # markers
    for v in A.quiver.vertices:
        i = index.find(replab.projective(A, v))
        if i is not None:
            nodes[i].is_projective = True
        i = index.find(replab.injective(A, v))
        if i is not None:
            nodes[i].is_injective = True
    # brick sanity (the radical formulas below rely on it)
    for rep in reps:
        if replab.hom_dim(rep, rep) != 1:
            raise EnumerationError(
                "non-brick indecomposable found; AR quiver assembly "
                "supports representation-directed algebras only")
    # tau
    tau = {}
    for i, node in enumerate(nodes):
        if node.is_projective:
            continue
        t = replab.ar_translate(node.rep, "+")
        j = index.find(t)
        if j is None:
            raise EnumerationError("tau image left the enumerated set (bug)")
        tau[node.id] = nodes[j].id
    # irreducible-map multiplicities: dim rad - dim rad^2
    hom_bases = {}
    arrows = {}
    # rad(X,Y) = Hom(X,Y) for nonisomorphic bricks
    homdims = _radical_hom_dims(reps)
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
                        for v in A.quiver.vertices:
                            for row in comp.mats[v]:
                                vec.extend(row)
                        vecs.append(vec)
        rad2 = linalg.rank(vecs) if vecs else 0
        mult = d - rad2
        if mult:
            arrows[(nodes[i].id, nodes[j].id)] = mult
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
        reps, complete, capped = _enumerate(A, cap=cap)
    except replab.DecompositionError:
        return False, {"reason": "decomposition failure during enumeration"}
    if capped:
        return False, {"reason": f"cap {cap} exceeded (unknown)"}
    if not complete:
        return False, {"reason": "some injective unreachable from projectives"}
    n = len(reps)
    adj = {i: [] for i in range(n)}
    indeg = {i: 0 for i in range(n)}
    for i in range(n):
        for j in range(n):
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
