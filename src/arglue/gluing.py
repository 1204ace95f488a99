"""Gluing two algebras along matched abutments, amalgamated AR quivers,
glued fracturings, and gluing systems over finite directed trees."""

from . import fracture as fx
from . import replab, arquiver
from .core import AlgebraError, BoundQuiverPresentation, Quiver


class GluingSpec:
    """Glue a left abutment P of A onto a right abutment I of B."""

    def __init__(self, A, P, B, I):
        if P.side != "left" or I.side != "right":
            raise AlgebraError("need a left abutment of A and a right one of B")
        if P.height != I.height:
            raise AlgebraError(
                f"height mismatch: {P.height} vs {I.height}")
        if fx.abutment_at(A, "left", P.anchor) != P:
            raise AlgebraError(f"{P} is not an abutment of the first algebra")
        if fx.abutment_at(B, "right", I.anchor) != I:
            raise AlgebraError(f"{I} is not an abutment of the second algebra")
        self.A, self.P, self.B, self.I = A, P, B, I


class GluedAlgebra:
    def __init__(self, presentation, vertex_map_A, vertex_map_B,
                 arrow_map_A, arrow_map_B, spec=None):
        self.presentation = presentation
        self.vertex_map_A = vertex_map_A
        self.vertex_map_B = vertex_map_B
        self.arrow_map_A = arrow_map_A
        self.arrow_map_B = arrow_map_B
        self.spec = spec


def _tail_arrows(A, tail):
    out = []
    for s, t in zip(tail, tail[1:]):
        found = [a for a in A.quiver.out[s] if A.quiver.tgt[a] == t]
        if len(found) != 1:
            raise AlgebraError("abutment tail is not a simple chain")
        out.append(found[0])
    return out


def identify_seams(A, B, seams):
    """Identify abutment tails of A with tails of B and kill the paths
    that cross each seam; ``B=None`` glues A to itself.

    ``seams`` lists (dropped, kept) pairs of opposite sides: the tail of
    ``dropped``, an abutment of A, and its arrow chain are mapped onto the
    tail of ``kept``, an abutment of B (of A when B is None).  Tails within
    one algebra must be disjoint.  B-side names win; A's other vertices
    and arrows get an ``@A`` suffix where B already uses the name.
    """
    K = A if B is None else B   # the algebra whose tails are kept
    vertices = [] if B is None else list(B.quiver.vertices)
    arrows = [] if B is None else list(B.quiver.arrows)
    relations = [] if B is None else [tuple(r) for r in B.relations]
    vmapA, amapA, chains = {}, {}, []
    for dropped, kept in seams:
        chain = _tail_arrows(K, kept.tail)
        chains.append(chain)
        vmapA.update(zip(dropped.tail, kept.tail))
        amapA.update(zip(_tail_arrows(A, dropped.tail), chain))
    dropped_v, dropped_a = set(vmapA), set(amapA)

    def fresh(name, taken):
        while name in taken:
            name += "@A"
        taken.add(name)
        return name

    taken_v, taken_a = set(vertices), {a for a, _, _ in arrows}
    for v in A.quiver.vertices:
        if v not in dropped_v:
            vmapA[v] = fresh(v, taken_v)
    for a, _, _ in A.quiver.arrows:
        if a not in dropped_a:
            amapA[a] = fresh(a, taken_a)
    vertices += [vmapA[v] for v in A.quiver.vertices if v not in dropped_v]
    arrows += [(amapA[a], vmapA[s], vmapA[t])
               for a, s, t in A.quiver.arrows if a not in dropped_a]
    relations += [tuple(amapA[a] for a in r) for r in A.relations]
    # kill every path that enters P's first vertex from P's side, runs
    # along the kept chain and leaves I's last vertex on I's side (with
    # disjoint tails, no chain arrow enters a first or leaves a last one)
    for (dropped, kept), chain in zip(seams, chains):
        if dropped.side == "left":
            (P, on_P), (I, on_I) = (dropped, A), (kept, K)
        else:
            (P, on_P), (I, on_I) = (kept, K), (dropped, A)
        entries = [amapA[a] if on_P is A else a
                   for a in on_P.quiver.inc[P.tail[0]]]
        exits = [amapA[a] if on_I is A else a
                 for a in on_I.quiver.out[I.tail[-1]]]
        relations += [(g_in,) + tuple(chain) + (g_out,)
                      for g_in in entries for g_out in exits]
    vmapB = {} if B is None else {v: v for v in B.quiver.vertices}
    amapB = {} if B is None else {a: a for a, _, _ in B.quiver.arrows}
    pres = BoundQuiverPresentation(Quiver(vertices, arrows), relations)
    return GluedAlgebra(pres, vmapA, vmapB, amapA, amapB)


def glue(spec):
    """The glued presentation; B-side names win on the identified tail."""
    glued = identify_seams(spec.A, spec.B, [(spec.P, spec.I)])
    glued.spec = spec
    return glued


def _zero_extension(M, L, vmap, amap):
    """M as a module of L, through the vertex and arrow renamings."""
    dims = {vmap[v]: d for v, d in M.dim.items()}
    mats = {amap[a]: m for a, m in M.mats.items()}
    return replab.Representation(L, dims, mats, check=False)


def push_forward(M, glued, side):
    """Zero-extension of a module along the gluing (side 'A' or 'B')."""
    vmap = glued.vertex_map_A if side == "A" else glued.vertex_map_B
    amap = glued.arrow_map_A if side == "A" else glued.arrow_map_B
    return _zero_extension(M, glued.presentation, vmap, amap)


# -- AR amalgamation ----------------------------------------------------

def glue_ar(arA, arB, glued):
    """Amalgamated sum of the two AR quivers over the foundation triangle."""
    spec = glued.spec
    L = glued.presentation
    fA = fx.foundation(spec.A, spec.P, arA)   # (a,b) -> node id in arA
    fB = fx.foundation(spec.B, spec.I, arB)
    ident = {fA[k]: fB[k] for k in fA}        # arA id -> arB id
    # new node list: all of B, then A nodes not identified
    reps = []
    origin = {}
    for node in arB.nodes:
        origin[("B", node.id)] = len(reps)
        reps.append(push_forward(node.rep, glued, "B"))
    for node in arA.nodes:
        if node.id in ident:
            origin[("A", node.id)] = origin[("B", ident[node.id])]
        else:
            origin[("A", node.id)] = len(reps)
            reps.append(push_forward(node.rep, glued, "A"))
    expected = arA.node_count() + arB.node_count() - len(fA)
    if len(reps) != expected:
        raise AlgebraError("foundation identification lost nodes")
    nodes = arquiver._nodes([rep.dim_vector() for rep in reps],
                            reps.__getitem__)
    arrows = {}
    for src_ar, tag in ((arB, "B"), (arA, "A")):
        for (x, y), mult in src_ar.arrows.items():
            key = (nodes[origin[(tag, x)]].id, nodes[origin[(tag, y)]].id)
            if key in arrows and arrows[key] != mult:
                raise AlgebraError("amalgamated arrow multiplicities clash")
            arrows[key] = mult
    tau = {}
    for src_ar, tag in ((arB, "B"), (arA, "A")):
        for x, y in src_ar.tau.items():
            key = nodes[origin[(tag, x)]].id
            val = nodes[origin[(tag, y)]].id
            if key in tau and tau[key] != val:
                raise AlgebraError("amalgamated tau maps clash")
            tau[key] = val
    # recompute projectivity/injectivity over the glued algebra
    index = arquiver._IsoIndex(reps, dedupe=False)
    for v in L.quiver.vertices:
        i = index.find(replab.projective(L, v))
        if i is not None:
            nodes[i].is_projective = True
        i = index.find(replab.injective(L, v))
        if i is not None:
            nodes[i].is_injective = True
    return arquiver.ARData(L, nodes, arrows, tau)


def ar_isomorphic(ar1, ar2):
    """Decorated-quiver isomorphism via representation matching."""
    if ar1.node_count() != ar2.node_count():
        return False
    index = arquiver._IsoIndex([node.rep for node in ar2.nodes],
                               dedupe=False)
    match = {}
    for node in ar1.nodes:
        i = index.find(node.rep)
        if i is None or ar2.nodes[i].id in match.values():
            return False
        match[node.id] = ar2.nodes[i].id
    a1 = {(match[x], match[y]): m for (x, y), m in ar1.arrows.items()}
    a2 = dict(ar2.arrows)
    if a1 != a2:
        return False
    t1 = {match[x]: match[y] for x, y in ar1.tau.items()}
    return t1 == ar2.tau


# -- glued fracturings ---------------------------------------------------

def _transport_fracture(ab, glued, frA, frB):
    """Fracture for an abutment of the glued algebra, pulled back."""
    for vmap, fr in ((glued.vertex_map_B, frB), (glued.vertex_map_A, frA)):
        inv = {w: v for v, w in vmap.items()}
        if not all(w in inv for w in ab.tail):
            continue
        tail = [inv[w] for w in ab.tail]
        candidate = fx.Abutment(ab.side, tail[0] if ab.side == "left"
                                else tail[-1], tail)
        W = fx.maximal_above(fr, candidate)
        if W is None:
            continue
        source = fr.left if ab.side == "left" else fr.right
        try:
            return fx.restrict_fracture(source[W.anchor], candidate, W)
        except AlgebraError:  # candidate is not a sub-tail of W
            continue
    raise AlgebraError(
        f"cannot transport a fracture onto glued abutment {ab}")


def glue_fracturings(frA, frB, glued):
    """Fracturing of the glued algebra (B-side data wins on the seam)."""
    why = fx.compatibility(frA, frB, glued.spec.P, glued.spec.I)
    if why is not None:
        raise AlgebraError(f"compatibility fails: {why}")
    L = glued.presentation
    left = {anchor: _transport_fracture(ab, glued, frA, frB)
            for anchor, ab in fx.maximal_abutments(L, "left").items()}
    right = {anchor: _transport_fracture(ab, glued, frA, frB)
             for anchor, ab in fx.maximal_abutments(L, "right").items()}
    return fx.Fracturing(L, left, right)


# -- gluing systems over finite directed trees ---------------------------

class GluingSystemSpec:
    """Finite directed tree with algebras on vertices and abutment pairs
    (I_e in the source algebra, P_e in the target algebra) on arrows."""

    def __init__(self, tree_vertices, tree_arrows, algebras,
                 fracturings=None):
        self.tree_vertices = list(tree_vertices)
        self.tree_arrows = list(tree_arrows)  # (u, v, I_anchor, P_anchor)
        self.algebras = dict(algebras)
        self.fracturings = dict(fracturings or {})
        self._validate()

    def _validate(self):
        tv = set(self.tree_vertices)
        if set(self.algebras) != tv:
            raise AlgebraError("algebras must decorate every tree vertex")
        seen_pairs = set()
        adj = {v: set() for v in tv}
        for u, v, _, _ in self.tree_arrows:
            if u not in tv or v not in tv:
                raise AlgebraError("tree arrow with unknown endpoint")
            key = frozenset((u, v))
            if u == v or key in seen_pairs:
                raise AlgebraError("tree has a loop or multi-arrow")
            seen_pairs.add(key)
            adj[u].add(v)
            adj[v].add(u)
        if len(self.tree_arrows) != len(tv) - 1:
            raise AlgebraError("edge count wrong for a tree")
        if tv:
            stack = [self.tree_vertices[0]]
            reached = set()
            while stack:
                x = stack.pop()
                if x in reached:
                    continue
                reached.add(x)
                stack.extend(adj[x])
            if reached != tv:
                raise AlgebraError("tree is not connected")
        self.edge_data = {}
        for u, v, i_anchor, p_anchor in self.tree_arrows:
            I = self._abutment(u, i_anchor, "right")
            P = self._abutment(v, p_anchor, "left")
            if I.height != P.height:
                raise AlgebraError(
                    f"edge {u}->{v} pairs abutments of different heights")
            self.edge_data[(u, v)] = (I, P)
        for w in tv:
            incoming = [self.edge_data[(u, v)][1]
                        for u, v, _, _ in self.tree_arrows if v == w]
            outgoing = [self.edge_data[(u, v)][0]
                        for u, v, _, _ in self.tree_arrows if u == w]
            if incoming and not fx.independent(incoming):
                raise AlgebraError(
                    f"incoming abutments at {w} are not independent")
            if outgoing and not fx.independent(outgoing):
                raise AlgebraError(
                    f"outgoing abutments at {w} are not independent")

    def _abutment(self, tv, anchor, side):
        ab = fx.abutment_at(self.algebras[tv], side, anchor)
        if ab is None:
            raise AlgebraError(f"no {side} abutment anchored at {anchor} "
                               f"in the algebra at tree vertex {tv}")
        return ab


class _Component:
    def __init__(self, tv, algebra, prefix):
        vmap = {v: f"{prefix}{v}" for v in algebra.quiver.vertices}
        amap = {a: f"{prefix}{a}" for a, _, _ in algebra.quiver.arrows}
        if prefix:
            from .core import rename_presentation
            algebra = rename_presentation(algebra, vmap, amap)
        self.members = {tv}
        self.algebra = algebra
        self.vmaps = {tv: vmap}
        self.amaps = {tv: amap}


def _fold(sys, edges, prefix_fn):
    comps = {tv: _Component(tv, sys.algebras[tv], prefix_fn(tv))
             for tv in sys.tree_vertices}
    for u, v, i_anchor, p_anchor in edges:
        cu, cv = comps[u], comps[v]
        I = fx.abutment_at(cu.algebra, "right", cu.vmaps[u][i_anchor])
        P = fx.abutment_at(cv.algebra, "left", cv.vmaps[v][p_anchor])
        glued = glue(GluingSpec(cv.algebra, P, cu.algebra, I))
        merged = _Component.__new__(_Component)
        merged.members = cu.members | cv.members
        merged.algebra = glued.presentation
        merged.vmaps = {}
        merged.amaps = {}
        # tree-vertex order, not set order, so that the maps' key order
        # does not follow string hashing
        for tv in sys.tree_vertices:
            if tv in cu.members:
                c, vmap, amap = cu, glued.vertex_map_B, glued.arrow_map_B
            elif tv in cv.members:
                c, vmap, amap = cv, glued.vertex_map_A, glued.arrow_map_A
            else:
                continue
            merged.vmaps[tv] = {orig: vmap[cur]
                                for orig, cur in c.vmaps[tv].items()}
            merged.amaps[tv] = {orig: amap[cur]
                                for orig, cur in c.amaps[tv].items()}
        for tv in merged.members:
            comps[tv] = merged
    final = comps[sys.tree_vertices[0]]
    if final.members != set(sys.tree_vertices):
        raise AlgebraError("fold did not connect the whole tree (bug)")
    return final


def glue_system(sys, check_orders=True):
    """Fold the gluings of the tree; asserts order-independence on small trees.

    Returns (presentation, vmaps, amaps) where the maps take (tree vertex,
    original name) to the final name.
    """
    multi = len(sys.tree_vertices) > 1

    def prefix(tv):
        return f"{tv}:" if multi else ""

    edges = sorted(sys.tree_arrows)
    result = _fold(sys, edges, prefix)
    if check_orders and 1 < len(edges) <= 8:
        other = _fold(sys, list(reversed(edges)), prefix)
        rename = {}
        for tv in sys.tree_vertices:
            for orig, cur in other.vmaps[tv].items():
                rename[cur] = result.vmaps[tv][orig]
        arename = {}
        for tv in sys.tree_vertices:
            for orig, cur in other.amaps[tv].items():
                arename[cur] = result.amaps[tv][orig]
        from .core import rename_presentation
        relabeled = rename_presentation(other.algebra, rename, arename)
        if relabeled != result.algebra:
            raise AlgebraError(
                "gluing fold is order-dependent (violates the tree identity)")
    return result.algebra, result.vmaps, result.amaps


def push_forward_system(M, tv, L, vmaps, amaps):
    """Zero-extension of a module at tree vertex tv into the glued algebra."""
    return _zero_extension(M, L, vmaps[tv], amaps[tv])


def glue_fractured_system(sys, n):
    """Glue a fully fracturing-decorated system; returns
    (presentation, maps, candidate module list, complete flag)."""
    from . import verifier
    for tv in sys.tree_vertices:
        if tv not in sys.fracturings:
            raise AlgebraError(f"tree vertex {tv} lacks a fracturing")
    for u, v, _, _ in sys.tree_arrows:
        I, P = sys.edge_data[(u, v)]
        why = fx.compatibility(sys.fracturings[v], sys.fracturings[u], P, I)
        if why is not None:
            raise AlgebraError(f"edge {u}->{v}: {why}")
    # completeness: non-injective right fractures must feed an outgoing edge,
    # non-projective left fractures an incoming one
    complete = True
    for tv in sys.tree_vertices:
        fr = sys.fracturings[tv]
        used_I = {sys.edge_data[(u, v)][0].anchor
                  for u, v, _, _ in sys.tree_arrows if u == tv}
        used_P = {sys.edge_data[(u, v)][1].anchor
                  for u, v, _, _ in sys.tree_arrows if v == tv}
        for anchor, T in fr.right.items():
            if T != fx.injective_intervals(T.h) and anchor not in used_I:
                complete = False
        for anchor, T in fr.left.items():
            if T != fx.projective_intervals(T.h) and anchor not in used_P:
                complete = False
    L, vmaps, amaps = glue_system(sys)
    mods = []
    for tv in sys.tree_vertices:
        for M in verifier.tau_orbit_candidate(sys.algebras[tv], n).modules:
            mods.append(push_forward_system(M, tv, L, vmaps, amaps))
    return L, (vmaps, amaps), verifier.Subcategory(L, mods).modules, complete
