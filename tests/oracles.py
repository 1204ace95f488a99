"""Module-by-module computations that the enumeration record replaced,
kept as the tests' references: each recomputes from the modules what
``arquiver``'s record, its integer Hom table and ``verifier``'s table
walks read off.  The randomized isomorphism test that
``replab.is_isomorphic`` replaced is kept the same way, and so is the
per-edge fold of a gluing system that ``gluing.glue_system`` replaced.
"""

import random
from fractions import Fraction

from arglue import arquiver, linalg, replab, selfglue
from arglue import fracture as fx
from arglue.core import AlgebraError, rename_presentation
from arglue.gluing import GluingSpec, glue
from arglue.verifier import Subcategory, VerificationReport


def randomized_is_isomorphic(M, N):
    """Whether M and N are isomorphic: equal matrices, then each element
    of a basis of Hom(M, N), then 30 seeded random combinations of it.

    ``replab.is_isomorphic`` as it was before it decided from the basis
    alone; the combinations can only add a "yes", and only when neither
    module is indecomposable.
    """
    if M.algebra is not N.algebra and M.algebra != N.algebra:
        return False
    if M.dim != N.dim:
        return False
    if M is N or M.mats == N.mats:
        return True
    basis = replab.hom_basis(M, N)
    if not basis:
        return False
    for f in basis:
        if f.is_invertible():
            return True
    if len(basis) == 1:
        return False
    rng = random.Random(1729)
    for _ in range(30):
        coeffs = [Fraction(rng.randint(-5, 5)) for _ in basis]
        if replab._combination(M, N, coeffs, basis).is_invertible():
            return True
    return False


def radical_arrows(reps):
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


def translate_each(A, reps):
    """(tau_minus, projective) of a complete list of indecomposables,
    found by translating each module once and looking every image and
    every P(v) up in the list."""
    index = arquiver._IsoIndex(reps, dedupe=False)
    tau_minus = []
    for rep in reps:
        T = replab.ar_translate(rep, "-")
        j = None
        if not T.is_zero():
            j = index.find(T)
            assert j is not None, "tau image left the list"
        tau_minus.append(j)
    projective = {}
    for v in A.quiver.vertices:
        i = index.find(replab.projective(A, v))
        if i is not None:
            projective[v] = i
    return tau_minus, projective


def loop_candidate(A, n, cap=4096):
    """The orbit candidate for n >= 2 by translating and decomposing each
    member: the closure of the sorted P(v) under tau_n^-."""
    index = arquiver._IsoIndex(
        replab.projective(A, v) for v in sorted(A.quiver.vertices))
    out = index.reps
    # the queue is the member list itself, each member translated once
    for M in out:
        T = replab.tau_n(M, n, "-")
        if T.is_zero():
            continue
        for part in replab.decompose(T):
            if index.find(part) is None:
                if len(out) >= cap:
                    raise arquiver.EnumerationError(
                        f"orbit candidate exceeded cap {cap}")
                index.add(part)
    return Subcategory(A, out, dedupe=False)


def _is_indecomposable(M):
    if M.is_zero():
        return False
    return len(replab.decompose(M)) == 1


class ModuleSteps:
    """The steps of ``module_check_fractured``: a translate or a
    (co)syzygy of a module gives the one indecomposable it yields, or
    None, each computed and decomposed from the module."""

    def __init__(self, n):
        self.n = n

    def translate(self, X, direction):
        T = replab.tau_n(X, self.n, direction)
        return T if _is_indecomposable(T) else None

    def inverts(self, T, X, direction):
        """Whether the translate of T in ``direction`` is X."""
        back = replab.tau_n(T, self.n, direction)
        return not back.is_zero() and replab.is_isomorphic(back, X)

    def syzygy(self, X, direction):
        S = replab.syzygy(X, direction, 1)
        return S if _is_indecomposable(S) else None


def module_side_class(A, fr, side):
    """Representatives of one side's comparison class, deduplicated up to
    isomorphism: the projectives (left side) or injectives (right side) at
    the vertices that anchor no abutment of that side, plus the interval
    modules of its fractures."""
    end = replab.projective if side == "left" else replab.injective
    mods = [end(A, v) for v in sorted(A.quiver.vertices)
            if fx.abutment_at(A, side, v) is None]
    fractures, maxima = ((fr.left, fr.max_left) if side == "left"
                         else (fr.right, fr.max_right))
    for anchor, T in sorted(fractures.items()):
        tail = maxima[anchor].tail
        mods += [fx.interval_module(A, tail, a, b) for a, b in T.intervals]
    return Subcategory(A, mods)


def module_check_fractured(A, fr, M, n):
    """``verifier.check_fractured`` on modules, as it was before the check
    ran on record nodes: the side classes and membership up to
    isomorphism, and every translate and (co)syzygy computed and
    decomposed (``ModuleSteps``).  Members are taken as given, so a
    decomposable one raises no error here."""
    if n < 2:
        raise ValueError("the fractured criterion needs n >= 2")
    steps = ModuleSteps(n)
    report = VerificationReport("fractured", n)
    PL = module_side_class(A, fr, "left")
    IR = module_side_class(A, fr, "right")
    # (a1) the projective-side class is contained in M
    missing = [X for X in PL.modules if not M.contains(X)]
    for X in missing:
        report.witness("a1", "projective-side class member not in M", X)
    report.record("a1", not missing,
                  f"{len(missing)} missing" if missing else "")
    if missing:
        return report
    SP = [X for X in M.modules if not PL.contains(X)]
    SI = [X for X in M.modules if not IR.contains(X)]
    # (a2) the translates give mutually inverse bijections SP <-> SI
    in_si = arquiver._IsoIndex(SI, dedupe=False).find
    in_sp = arquiver._IsoIndex(SP, dedupe=False).find
    hit = set()
    for X in SP:
        t = steps.translate(X, "+")
        if t is None:
            return report.fail("a2", "forward translate zero or "
                               "decomposable", X)
        j = in_si(t)
        if j is None or not steps.inverts(t, X, "-"):
            return report.fail("a2", "forward translate leaves the target "
                               "class or is not inverted", X)
        hit.add(j)
    for j, Y in enumerate(SI):
        if j in hit:
            continue
        t = steps.translate(Y, "-")
        if t is None or in_sp(t) is None or not steps.inverts(t, Y, "+"):
            return report.fail("a2", "backward translate fails", Y)
    report.record("a2", True)
    # (a3)/(a4) intermediate (co)syzygies stay indecomposable
    for name, direction, word, side in (
            ("a3", "+", "syzygy", SP), ("a4", "-", "cosyzygy", SI)):
        for X in side:
            Y = X
            for i in range(1, n):
                Y = steps.syzygy(Y, direction)
                if Y is None:
                    return report.fail(
                        name, f"{word} {i} zero or decomposable", X)
        report.record(name, True)
    return report


def eager_levels(M, depth):
    """``Resolution.levels`` of M up to ``depth``, built with the kernel of
    every cover taken together with the cover."""
    levels = []
    if M.is_zero():
        return levels
    P, gens = replab.cover_data(M)
    K, E = replab._cover_kernel(M, P, gens)
    levels.append(([v for v, _ in gens], None))
    while len(levels) <= depth:
        if len(levels) > replab.RESOLUTION_CAP:
            raise replab.ResolutionCapError(
                "projective resolution exceeds cap "
                f"{replab.RESOLUTION_CAP}")
        if K.is_zero():
            break
        Pprev = P
        P, gens = replab.cover_data(K)
        K2, E2 = replab._cover_kernel(K, P, gens)
        pathmat = []
        for w, idx in gens:
            col = [E[w][r][idx] for r in range(len(E[w]))]
            entry = {}
            for r, c in enumerate(col):
                if c:
                    entry[Pprev.basis[w][r]] = c
            pathmat.append(entry)
        levels.append(([v for v, _ in gens], pathmat))
        K, E = K2, E2
    return levels


def module_directedness(A):
    """``arquiver.is_representation_directed`` with the Hom digraph taken
    from ``hom_dim`` between the node modules on every record, as it was
    before knitted records read their Hom table: only the pairs where the
    second module is non-zero at a top of the first are computed."""
    try:
        reps = arquiver._complete_enumeration(A).modules()
    except (arquiver.EnumerationError, replab.DecompositionError) as e:
        return False, {"reason": str(e)}
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


def module_orbit_indecomposables(A, witness, sg):
    """``selfglue.orbit_indecomposables`` off a Nakayama fold as it was
    before the windows were read from their records: every module of
    cover windows k = 2, 3, ... is built, those clear of the boundary
    copies are pushed down and deduplicated up to isomorphism, and the
    loop stops when two consecutive windows agree up to isomorphism.
    Returns (the push-downs of the last window, its k)."""
    previous = None
    for k in range(selfglue.FIRST_WINDOW, selfglue.LAST_WINDOW + 1):
        win = selfglue.cover_window(A, witness, k)
        reps = arquiver.indecomposables(win.presentation,
                                        cap=selfglue.WINDOW_CAP)
        index = arquiver._IsoIndex(
            selfglue._push_down_window(M, win, sg) for M in reps
            if all(-k < win.period_vertices[v][0] < k for v in M.dim))
        found = index.reps
        if (previous is not None and len(found) == len(previous.reps)
                and all(previous.find(M) is not None for M in found)):
            return found, k
        previous = index
    raise arquiver.EnumerationError(
        f"window growth did not stabilize by k={selfglue.LAST_WINDOW}")


class _EdgeComponent:
    def __init__(self, tv, algebra, prefix):
        vmap = {v: f"{prefix}{v}" for v in algebra.quiver.vertices}
        amap = {a: f"{prefix}{a}" for a, _, _ in algebra.quiver.arrows}
        if prefix:
            algebra = rename_presentation(algebra, vmap, amap)
        self.members = {tv}
        self.algebra = algebra
        self.vmaps = {tv: vmap}
        self.amaps = {tv: amap}


def _per_edge_fold(sys, edges, prefix_fn):
    comps = {tv: _EdgeComponent(tv, sys.algebras[tv], prefix_fn(tv))
             for tv in sys.tree_vertices}
    for u, v, i_anchor, p_anchor in edges:
        cu, cv = comps[u], comps[v]
        I = fx.abutment_at(cu.algebra, "right", cu.vmaps[u][i_anchor])
        P = fx.abutment_at(cv.algebra, "left", cv.vmaps[v][p_anchor])
        glued = glue(GluingSpec(cv.algebra, P, cu.algebra, I))
        merged = _EdgeComponent.__new__(_EdgeComponent)
        merged.members = cu.members | cv.members
        merged.algebra = glued.presentation
        merged.vmaps = {}
        merged.amaps = {}
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


def per_edge_glue_system(sys, check_orders=True):
    """``gluing.glue_system`` as it was before the one-pass fold: each
    tree vertex's block is renamed into its own presentation, and each
    edge glues two presentations into a new one, looking its abutments
    up on the merged algebras (``fx.abutment_at``) and checking them
    through ``GluingSpec``."""
    multi = len(sys.tree_vertices) > 1

    def prefix(tv):
        return f"{tv}:" if multi else ""

    edges = sorted(sys.tree_arrows)
    result = _per_edge_fold(sys, edges, prefix)
    if check_orders and 1 < len(edges) <= 8:
        other = _per_edge_fold(sys, list(reversed(edges)), prefix)
        rename = {}
        for tv in sys.tree_vertices:
            for orig, cur in other.vmaps[tv].items():
                rename[cur] = result.vmaps[tv][orig]
        arename = {}
        for tv in sys.tree_vertices:
            for orig, cur in other.amaps[tv].items():
                arename[cur] = result.amaps[tv][orig]
        relabeled = rename_presentation(other.algebra, rename, arename)
        if relabeled != result.algebra:
            raise AlgebraError(
                "gluing fold is order-dependent (violates the tree identity)")
    return result.algebra, result.vmaps, result.amaps
