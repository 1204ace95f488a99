"""Self-gluing an algebra along a matched pair of its own abutments.

Identifying a left-abutment tail of an algebra with one of its right-
abutment tails folds the quiver into a (usually cyclic) quotient.  The
finite "windows" of the associated infinite unfolding let us enumerate
the indecomposables of the quotient: one window node per shift orbit,
found from the window's dimension vectors, is pushed down.
"""

from . import arquiver, linalg, replab, verifier
from . import fracture as fx
from .core import AlgebraError, BoundQuiverPresentation, Quiver, kupisch_of
from .gluing import GluingSystemSpec, glue_system, identify_seams

# the cover windows tried, 2k+1 copies for k = FIRST_WINDOW..LAST_WINDOW,
# and the enumeration cap of each
FIRST_WINDOW, LAST_WINDOW, WINDOW_CAP = 2, 6, 8192


class SelfGlueWitness:
    """A fractured pair (W, J) with a compatible sub-pair (P, I)."""

    def __init__(self, W, J, P, I):
        if P.height != I.height:
            raise AlgebraError("witness seam heights differ")
        self.W, self.J, self.P, self.I = W, J, P, I
        self.height = P.height

    def __repr__(self):
        return (f"SelfGlueWitness(P={self.P.tail}, I={self.I.tail}, "
                f"W={self.W.tail}, J={self.J.tail})")


def self_glue_witness(A, fr):
    """First witness making (A, fr) self-gluable, or (None, reasons).

    A witness needs a maximal left abutment W such that every other
    maximal left abutment carries the projective fracture, a maximal
    right abutment J such that every other maximal right one carries the
    injective fracture, and a compatible sub-pair (P <= W, I <= J).
    """
    reasons = []
    lefts = [fr.max_left[a] for a in sorted(fr.max_left)]
    rights = [fr.max_right[a] for a in sorted(fr.max_right)]
    cand_W = [W for W in lefts
              if all(fr.left[V.anchor] == fx.projective_intervals(V.height)
                     for V in lefts if V is not W)]
    cand_J = [J for J in rights
              if all(fr.right[K.anchor] == fx.injective_intervals(K.height)
                     for K in rights if K is not J)]
    if not cand_W:
        reasons.append("more than one maximal left abutment carries a "
                       "non-projective fracture")
    if not cand_J:
        reasons.append("more than one maximal right abutment carries a "
                       "non-injective fracture")
    for W in cand_W:
        for J in cand_J:
            # the sub-abutments, tallest first: a left tail runs to a
            # sink, so the one anchored at a vertex of W.tail is its suffix
            for P in (fx.abutment_at(A, "left", v) for v in W.tail):
                for I in (fx.abutment_at(A, "right", v)
                          for v in reversed(J.tail)):
                    if P.height != I.height:
                        continue
                    ok, why = fx.compatible_pair(fr, W, J, P, I)
                    if ok:
                        return SelfGlueWitness(W, J, P, I), []
                    reasons.append(
                        f"P={P.tail}, I={I.tail}: {why}")
    if not reasons:
        reasons.append("no sub-pair of matching height exists")
    return None, reasons


class SelfGlued:
    """The folded presentation with the covering maps onto it.

    ``vertex_map``/``arrow_map`` send the original names to the folded
    ones (many-to-one on the identified tails); ``rank`` orders the
    preimages of a folded vertex so module push-downs assemble block
    matrices consistently.
    """

    def __init__(self, base, witness, presentation,
                 vertex_map, arrow_map, rank):
        self.base = base
        self.witness = witness
        self.presentation = presentation
        self.vertex_map = vertex_map
        self.arrow_map = arrow_map
        self.rank = rank


def _chain_order(A):
    """Vertex order of a linearly oriented chain quiver; None otherwise."""
    q = A.quiver
    if any(len(q.out[v]) > 1 or len(q.inc[v]) > 1 for v in q.vertices):
        return None
    starts = [v for v in q.vertices if not q.inc[v]]
    if len(starts) != 1:
        return None
    order = [starts[0]]
    while q.out[order[-1]]:
        order.append(q.tgt[q.out[order[-1]][0]])
    if len(order) != len(q.vertices):
        return None
    return order


def _tilde_chain(A, witness):
    """Fold a linear chain whose two seam tails may overlap.

    Every vertex at chain position j lands on position j mod m where m
    counts the surviving vertices; relations and the seam-crossing path
    project the same way.
    """
    order = _chain_order(A)
    if order is None:
        raise AlgebraError(
            "seam supports overlap; folding is only supported for "
            "linearly oriented chain quivers in that case")
    h = witness.height
    m = len(order) - h
    if m < 1:
        raise AlgebraError("seam height leaves no vertex to fold onto")
    pos = {v: j for j, v in enumerate(order)}
    chain = [A.quiver.out[v][0] for v in order[:-1]]  # a_0 .. a_{k-2}
    vmap = {v: order[pos[v] % m] for v in order}
    amap = {a: chain[j % m] for j, a in enumerate(chain)}
    rank = {v: pos[v] // m for v in order}
    vertices = order[:m]
    arrows = [(chain[j], order[j], order[(j + 1) % m]) for j in range(m)]
    relations = [tuple(amap[a] for a in r) for r in A.relations]
    # the path that crosses the seam: last arrow before the identified
    # tail, the tail chain itself, and the first arrow after it
    cross = tuple(chain[j % m] for j in range(m - 1, m + h))
    relations.append(cross)
    pres = BoundQuiverPresentation(Quiver(vertices, arrows), relations)
    return SelfGlued(A, witness, pres, vmap, amap, rank)


def tilde(A, witness):
    """Fold A by identifying the P-tail with the I-tail of the witness."""
    if set(witness.P.tail) & set(witness.I.tail):
        return _tilde_chain(A, witness)
    glued = identify_seams(A, None, [(witness.P, witness.I)])
    rank = {v: int(v in witness.P.tail) for v in A.quiver.vertices}
    return SelfGlued(A, witness, glued.presentation, glued.vertex_map_A,
                     glued.arrow_map_A, rank)


# -- module push-downs ---------------------------------------------------

def _assemble(L, pieces_v, pieces_a):
    """Block-assemble a representation of L from keyed pieces.

    ``pieces_v``: folded vertex -> ordered [(key, dim)]; ``pieces_a``:
    folded arrow -> [(tgt_key, src_key, matrix)].
    """
    offs, dims = {}, {}
    for w, parts in pieces_v.items():
        off = 0
        offs[w] = {}
        for key, d in parts:
            offs[w][key] = off
            off += d
        dims[w] = off
    q = L.quiver
    mats = {}
    for a, s, t in q.arrows:
        if not (dims.get(s) and dims.get(t)):
            continue
        m = [[0 * linalg.ONE] * dims[s] for _ in range(dims[t])]
        for tk, sk, block in pieces_a.get(a, []):
            r0, c0 = offs[t][tk], offs[s][sk]
            for i, row in enumerate(block):
                for j, x in enumerate(row):
                    m[r0 + i][c0 + j] = x
        mats[a] = m
    return replab.Representation(
        L, {w: d for w, d in dims.items() if d}, mats, check=True)


def push_down(M, sg):
    """Image of a module of the base algebra under the fold."""
    A, L = sg.base, sg.presentation
    pieces_v = {}
    for v in sorted(M.dim, key=lambda v: (sg.rank[v], v)):
        pieces_v.setdefault(sg.vertex_map[v], []).append((v, M.dim[v]))
    pieces_a = {}
    q = A.quiver
    for a, block in M.mats.items():
        pieces_a.setdefault(sg.arrow_map[a], []).append(
            (q.tgt[a], q.src[a], block))
    return _assemble(L, pieces_v, pieces_a)


# -- cover windows -------------------------------------------------------

class CoverWindow:
    """2k+1 copies of the base algebra glued in a chain along the seam."""

    def __init__(self, base, witness, k, presentation,
                 period_vertices, period_arrows):
        self.base = base
        self.witness = witness
        self.k = k
        self.presentation = presentation
        self.period_vertices = period_vertices  # name -> (copy, original)
        self.period_arrows = period_arrows


def cover_window(A, witness, k):
    if set(witness.P.tail) & set(witness.I.tail):
        raise AlgebraError("cover windows need disjoint seam supports")
    zs = list(range(-k, k + 1))
    edges = [(z, z + 1, witness.I.anchor, witness.P.anchor) for z in zs[:-1]]
    sysspec = GluingSystemSpec(zs, edges, {z: A for z in zs})
    L, vmaps, amaps = glue_system(sysspec, check_orders=False)
    period_v, period_a = {}, {}
    for z in zs:  # ascending: a seam vertex keeps its lower-copy name
        for orig, cur in vmaps[z].items():
            period_v.setdefault(cur, (z, orig))
        for orig, cur in amaps[z].items():
            period_a.setdefault(cur, (z, orig))
    return CoverWindow(A, witness, k, L, period_v, period_a)


def _push_down_window(M, win, sg):
    """Push a window module down to the folded algebra."""
    L = sg.presentation
    pieces_v = {}
    for cv in sorted(M.dim, key=lambda cv: win.period_vertices[cv]):
        _, orig = win.period_vertices[cv]
        pieces_v.setdefault(sg.vertex_map[orig], []).append((cv, M.dim[cv]))
    pieces_a = {}
    q = win.presentation.quiver
    for ca, block in M.mats.items():
        _, orig = win.period_arrows[ca]
        pieces_a.setdefault(sg.arrow_map[orig], []).append(
            (q.tgt[ca], q.src[ca], block))
    return _assemble(L, pieces_v, pieces_a)


def _orbit_keys(record, win):
    """{key: first node of that key} over the nodes of a window's record
    whose support lies in copies strictly between -k and k, in node
    order; the key is the dimension vector over (copy - lowest copy,
    original vertex)."""
    k = win.k
    places = [win.period_vertices[v]
              for v in win.presentation.quiver.vertices]
    kept = {}
    for i, dv in enumerate(record.dims):
        support = [(places[p], d) for p, d in enumerate(dv) if d]
        copies = [c for (c, _), _ in support]
        low = min(copies)
        if -k < low and max(copies) < k:
            key = frozenset(((c - low, v), d) for (c, v), d in support)
            kept.setdefault(key, i)
    return kept


def orbit_indecomposables(A, witness, sg=None):
    """Indecomposables of the fold, enumerated through cover windows.

    Window k glues 2k+1 copies of A into a piece of the fold's Z-cover.
    Its record is read in integers: each node clear of the boundary
    copies is keyed by its dimension vector over (copy - lowest copy,
    original vertex), and the first node of each key is kept.  The window
    is representation-directed, so a node is fixed by its dimension
    vector (Happel-Ringel), and two nodes share a key exactly when one is
    a shift of the other.  Push-down along the Galois covering sends the
    shift orbits of the cover's indecomposables one-to-one onto the
    fold's indecomposables (Gabriel, The universal cover of a
    representation-finite algebra, LNM 903, 1981; Bongartz-Gabriel,
    Covering spaces in representation theory, Invent. Math. 65, 1982).
    So every orbit has been seen once window k has the key set of window
    k - 1, and only then are the kept nodes of window k built and pushed
    down, in node order.  Nakayama folds are served by the uniserial
    enumeration directly.
    """
    if sg is None:
        sg = tilde(A, witness)
    try:
        kupisch_of(sg.presentation)
        return replab.uniserial_modules(sg.presentation)
    except AlgebraError:
        pass
    previous = None
    for k in range(FIRST_WINDOW, LAST_WINDOW + 1):
        win = cover_window(A, witness, k)
        record = arquiver._complete_enumeration(win.presentation,
                                                cap=WINDOW_CAP)
        kept = _orbit_keys(record, win)
        if previous is not None and kept.keys() == previous:
            return [_push_down_window(record.module(i), win, sg)
                    for i in kept.values()]
        previous = kept.keys()
    raise arquiver.EnumerationError(
        f"window growth did not stabilize by k={LAST_WINDOW}")


def tilde_nct(A, witness, modules, n):
    """Push a candidate subcategory down the fold and test it there.

    Returns (report, folded algebra data, pushed module list).
    """
    sg = tilde(A, witness)
    sub = verifier.Subcategory(sg.presentation,
                               (push_down(M, sg) for M in modules))
    indecs = orbit_indecomposables(A, witness, sg=sg)
    report = verifier.check_nct(sg.presentation, sub, n, indecs=indecs)
    return report, sg, sub.modules


# -- simultaneous gluing -------------------------------------------------

def simultaneous_glue(A, B, pairs, mode="parallel"):
    """Glue A and B along several abutment pairs at once.

    Each pair (P, I) matches a left-abutment tail with a right-abutment
    tail; in ``parallel`` mode every P lives in A and every I in B, in
    ``antiparallel`` mode seams of both orientations must occur (P in B
    paired with I in A runs the other way).  B-side names win.  Returns
    the same journal structure as :func:`arglue.gluing.glue`.
    """
    if mode not in ("parallel", "antiparallel"):
        raise AlgebraError("mode must be 'parallel' or 'antiparallel'")
    la, ra = fx.abutments(A, "left"), fx.abutments(A, "right")
    lb, rb = fx.abutments(B, "left"), fx.abutments(B, "right")
    seams = []   # (abutment of A dropped, abutment of B kept)
    for P, I in pairs:
        if P.side != "left" or I.side != "right":
            raise AlgebraError("each pair needs a left and a right abutment")
        if P.height != I.height:
            raise AlgebraError("paired abutments have different heights")
        # abutments compare by side and tail, so shared vertex names can
        # make one pair read both ways
        ab, ba = P in la and I in rb, P in lb and I in ra
        if ab and ba:
            raise AlgebraError(
                f"pair (P={P.tail}, I={I.tail}) fits both (left of A, right "
                "of B) and (left of B, right of A); rename the vertices of "
                "one algebra")
        if ab:
            seams.append((P, I))
        elif ba:
            seams.append((I, P))
        else:
            raise AlgebraError(
                "pair is neither (left of A, right of B) nor "
                "(left of B, right of A)")
    dirs = {dropped.side for dropped, _ in seams}
    if mode == "parallel" and dirs != {"left"}:
        raise AlgebraError("parallel mode needs every seam to run A -> B")
    if mode == "antiparallel" and dirs != {"left", "right"}:
        raise AlgebraError("antiparallel mode needs seams in both directions")

    def overlap(tails):
        return not fx.independent([fx.Abutment("left", t[0], t)
                                   for t in tails])

    if overlap([dropped.tail for dropped, _ in seams]):
        raise AlgebraError("seam tails in the first algebra overlap")
    if overlap([kept.tail for _, kept in seams]):
        raise AlgebraError("seam tails in the second algebra overlap")
    return identify_seams(A, B, seams)
