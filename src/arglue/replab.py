"""Exact quiver representations and the homological toolkit.

Modules over a bound quiver presentation are stored on their support: a
dimension for each vertex where the module is non-zero, and one rational
matrix for each arrow with both ends among those vertices; everything
else is zero and costs nothing.  Projective resolutions are kept in "path
coordinates": the differential out of each cover is recorded as, per
generator, a linear combination of (block, path) basis labels of the
previous cover.  Hom complexes against any module then come straight
from evaluating that module along paths, with no equation solving.
"""

import random
from fractions import Fraction

from . import linalg
from .core import opposite as _opposite_presentation

ZERO = linalg.ZERO
ONE = linalg.ONE


class DecompositionError(RuntimeError):
    pass


class ResolutionCapError(RuntimeError):
    pass


# the deepest projective resolution built, in levels past the cover
RESOLUTION_CAP = 32


def op_algebra(A):
    """Opposite presentation, cached and involutive on instances."""
    cached = getattr(A, "_op_cache", None)
    if cached is None:
        cached = _opposite_presentation(A)
        A._op_cache = cached
        cached._op_cache = A
    return cached


class _Dims(dict):
    """Dimensions on the support; a vertex outside it reads 0."""

    __slots__ = ()

    def __missing__(self, v):
        return 0


class Representation:
    """A module stored on its support.

    ``dim`` holds the non-zero vertices and ``mats`` the arrows with both
    ends among them, each in quiver order; ``dim[v]`` reads 0 off the
    support, and an arrow missing from ``mats`` acts as the zero map.
    Modules are never changed after construction.
    """

    def __init__(self, algebra, dim, mats, check=True):
        self.algebra = algebra
        q = algebra.quiver
        if check:
            _check_names(q, dim, mats)
        items = [(v, int(d)) for v, d in dim.items() if d]
        if len(items) > 1:
            items.sort(key=lambda vd: q.vertex_pos[vd[0]])
        sup = self.dim = _Dims(items)
        src, tgt = q.src, q.tgt
        arrows = [a for v in sup for a in q.out[v] if tgt[a] in sup]
        if len(arrows) > 1:
            arrows.sort(key=q.arrow_pos.__getitem__)
        self.mats = {}
        for a in arrows:
            m = mats.get(a)
            self.mats[a] = (m if m is not None
                            else linalg.zeros(sup[tgt[a]], sup[src[a]]))
        self._total = sum(sup.values())
        self._support = frozenset(sup)
        self._dim_vector = None
        self._path_cache = {}
        self._resolution = None
        if check:
            self._validate(mats)

    def _validate(self, given):
        """Every given matrix has the shape of its arrow, also off the
        support, and every relation starting on the support acts as 0."""
        q = self.algebra.quiver
        for a in sorted(given, key=q.arrow_pos.__getitem__):
            r, c = linalg.shape(given[a])
            if r != self.dim[q.tgt[a]] or (r > 0 and c != self.dim[q.src[a]]):
                raise ValueError(f"matrix shape for arrow {a} does not match dims")
        for rel in self.algebra.relations:
            base = q.src[rel[0]]
            if base in self.dim and not linalg.is_zero_matrix(
                    self.act(rel, base)):
                raise ValueError(f"relation {rel} does not annihilate module")

    # -- basics ----------------------------------------------------------
    def total_dim(self):
        return self._total

    def dim_vector(self):
        if self._dim_vector is None:
            self._dim_vector = tuple(
                self.dim[v] for v in self.algebra.quiver.vertices)
        return self._dim_vector

    def support(self):
        return self._support

    def is_zero(self):
        return self._total == 0

    def act(self, path, base):
        """Matrix of the action along ``path`` starting at vertex ``base``."""
        if not path:
            return linalg.identity(self.dim[base])
        key = path
        m = self._path_cache.get(key)
        if m is None:
            q = self.algebra.quiver
            src = q.src[path[0]]
            tgt = q.tgt[path[-1]]
            # zero anywhere along the way forces the zero map (and keeps
            # matrix shapes honest: a 0-row matrix cannot carry its width)
            if src not in self.dim or any(
                    q.tgt[a] not in self.dim for a in path):
                m = linalg.zeros(self.dim[tgt], self.dim[src])
            else:
                m = self.mats[path[0]]
                for a in path[1:]:
                    m = linalg.matmul(self.mats[a], m)
            self._path_cache[key] = m
        return m

    def __repr__(self):
        return f"Rep({dict(self.dim)})"


def _check_names(q, dim, mats):
    """ValueError for vertices or arrows that ``q`` does not have, and for
    negative dimensions."""
    problems = []
    bad = [str(v) for v in dim if v not in q.vertex_pos]
    if bad:
        problems.append(f"unknown vertices {bad}")
    bad = [str(a) for a in mats if a not in q.src]
    if bad:
        problems.append(f"unknown arrows {bad}")
    bad = [str(v) for v, d in dim.items() if int(d) < 0]
    if bad:
        problems.append(f"negative dimensions at {bad}")
    if problems:
        raise ValueError("; ".join(problems))


def zero_rep(A):
    return Representation(A, {}, {}, check=False)


def simple(A, v):
    if v not in A.quiver.vertex_pos:
        raise ValueError(f"unknown vertex {v}")
    return Representation(A, {v: 1}, {}, check=False)


def _paths_rep(A, basis_by_vertex, step):
    """Common builder for projectives and injectives from labeled path
    bases: returns the module and, per vertex of its support,
    {label: coordinate}.

    ``step(label, arrow)`` returns the label of the image basis path or
    None when the arrow action kills it.
    """
    index = {v: {p: i for i, p in enumerate(b)}
             for v, b in basis_by_vertex.items() if b}
    q = A.quiver
    mats = {}
    for s, cols in index.items():
        for a in q.out[s]:
            rows = index.get(q.tgt[a])
            if rows is None:
                continue
            m = linalg.zeros(len(rows), len(cols))
            for p, col in cols.items():
                img = step(p, a)
                if img is not None and img in rows:
                    m[rows[img]][col] = ONE
            mats[a] = m
    dim = {v: len(cols) for v, cols in index.items()}
    return Representation(A, dim, mats, check=False), index


def _memo(A, key, build):
    """build(), computed once per algebra A and key: for pieces that depend
    on A alone and that no caller mutates (modules are never changed after
    construction; their caches only fill)."""
    memo = getattr(A, "_memo", None)
    if memo is None:
        memo = A._memo = {}
    if key not in memo:
        memo[key] = build()
    return memo[key]


def _memo_get(A, key):
    """What ``_memo`` holds for A and key, or None."""
    return getattr(A, "_memo", {}).get(key)


def projective(A, v):
    """P(v): basis = relation-free paths starting at v; arrows append."""
    return _memo(A, ("P", v), lambda: _projective(A, v))


def injective(A, v):
    """I(v): basis = relation-free paths ending at v; arrows strip in front."""
    return _memo(A, ("I", v), lambda: _injective(A, v))


def _projective(A, v):
    basis = {}
    for p in A.paths_from(v):
        basis.setdefault(A.path_target(p, v), []).append(p)
    for b in basis.values():
        b.sort(key=lambda p: (len(p), p))

    def step(p, a):
        return p + (a,) if A._extension_survives(p, a) else None

    return _paths_rep(A, basis, step)[0]


def _injective(A, v):
    basis = {}
    for s, t, p in A.all_paths():
        if t == v:
            basis.setdefault(s, []).append(p)
    for b in basis.values():
        b.sort(key=lambda p: (len(p), p))

    def step(p, a):
        return p[1:] if p and p[0] == a else None

    return _paths_rep(A, basis, step)[0]


def dual(M):
    """Standard duality: a module over the opposite presentation."""
    B = op_algebra(M.algebra)
    mats = {a: linalg.transpose(m) for a, m in M.mats.items()}
    return Representation(B, M.dim, mats, check=False)


def direct_sum(A, reps):
    reps = [r for r in reps if not r.is_zero()]
    dim = {}
    for r in reps:
        for v, d in r.dim.items():
            dim[v] = dim.get(v, 0) + d
    q = A.quiver
    mats = {}
    for s in dim:
        for a in q.out[s]:
            t = q.tgt[a]
            if t not in dim:
                continue
            m = linalg.zeros(dim[t], dim[s])
            ro = co = 0
            for r in reps:
                blk = r.mats.get(a)
                if blk is not None:
                    for i, row in enumerate(blk):
                        for j, x in enumerate(row):
                            if x:
                                m[ro + i][co + j] = x
                ro += r.dim[t]
                co += r.dim[s]
            mats[a] = m
    return Representation(A, dim, mats, check=False)


# -- morphisms ---------------------------------------------------------

class Morphism:
    def __init__(self, source, target, mats):
        self.source = source
        self.target = target
        # vertex -> matrix dim(target_v) x dim(source_v), on the vertices
        # where both are non-zero
        self.mats = mats

    def compose(self, other):
        """self after other (other: X->Y, self: Y->Z)."""
        X, Z = other.source, self.target
        mats = {}
        for v, cols in X.dim.items():
            rows = Z.dim.get(v, 0)
            if rows:
                mats[v] = (linalg.matmul(self.mats[v], other.mats[v])
                           if v in self.source.dim
                           else linalg.zeros(rows, cols))
        return Morphism(X, Z, mats)

    def is_invertible(self):
        return (self.source.dim == self.target.dim
                and all(linalg.rank(m) == len(m) for m in self.mats.values()))


def hom_basis(M, N):
    """Basis of Hom(M, N) by solving all naturality squares."""
    if M.algebra is not N.algebra and M.algebra != N.algebra:
        raise ValueError("modules over different algebras")
    q = M.algebra.quiver
    mdim, ndim = M.dim, N.dim
    offs = {}
    total = 0
    for v, c in mdim.items():
        r = ndim.get(v, 0)
        if r:
            offs[v] = total
            total += r * c
    if total == 0:
        return []
    # only an arrow from M's support into N's support gives equations
    arrows = [a for s in mdim for a in q.out[s] if q.tgt[a] in ndim]
    arrows.sort(key=q.arrow_pos.__getitem__)
    rows = []
    for a in arrows:
        s, t = q.src[a], q.tgt[a]
        ms, mt = mdim[s], mdim.get(t, 0)
        ns, nt = ndim.get(s, 0), ndim[t]
        Ma, Na = M.mats.get(a), N.mats.get(a)
        # equation: f_t * Ma - Na * f_s = 0  (dim N_t x dim M_s entries)
        for i in range(nt):
            for j in range(ms):
                row = [ZERO] * total
                # (f_t * Ma)[i][j] = sum_k f_t[i][k] Ma[k][j]
                if Ma is not None:
                    for k in range(mt):
                        if Ma[k][j]:
                            row[offs[t] + i * mt + k] += Ma[k][j]
                # (Na * f_s)[i][j] = sum_k Na[i][k] f_s[k][j]
                if Na is not None:
                    for k in range(ns):
                        if Na[i][k]:
                            row[offs[s] + k * ms + j] -= Na[i][k]
                if any(row):
                    rows.append(row)
    if rows:
        sols = linalg.nullspace(rows)
    else:
        sols = linalg.nullspace([[ZERO] * total])
    out = []
    for sol in sols:
        mats = {}
        for v, o in offs.items():
            c = mdim[v]
            mats[v] = [sol[o + i * c:o + (i + 1) * c] for i in range(ndim[v])]
        out.append(Morphism(M, N, mats))
    return out


def _combination(M, N, coeffs, basis):
    """sum c * f over the coefficients and basis morphisms M -> N."""
    mats = {}
    for v in basis[0].mats:
        m = linalg.zeros(N.dim[v], M.dim[v])
        for c, f in zip(coeffs, basis):
            if c:
                m = linalg.matadd(m, linalg.scale(f.mats[v], c))
        mats[v] = m
    return Morphism(M, N, mats)


def is_isomorphic(M, N):
    """Whether M and N are isomorphic, for M or N indecomposable: equal
    matrices, then each element of a basis of Hom(M, N).

    If M is indecomposable and f: M -> N an isomorphism, Hom(M, N) =
    f End(M), and a basis of End(M) cannot lie in the radical of that
    local ring, so some basis element is an isomorphism; likewise for N.
    When both are decomposable the answer can be a wrong "no".
    """
    if (M.algebra is not N.algebra and M.algebra != N.algebra
            or M.dim != N.dim):
        return False
    # equal dimensions give equal arrow keys, so equal matrices mean the
    # identity is an isomorphism
    if M is N or M.mats == N.mats:
        return True
    return any(f.is_invertible() for f in hom_basis(M, N))


# -- radical / top / covers --------------------------------------------

def radical_columns(M):
    """Per vertex of the support: an independent set of columns spanning
    rad(M)_v."""
    q = M.algebra.quiver
    out = {}
    for v, d in M.dim.items():
        cols = []
        for a in q.inc[v]:
            m = M.mats.get(a)
            if m is not None:
                cols.extend(linalg.transpose(m))
        out[v] = (linalg.column_space_basis(
            linalg.columns_to_matrix(cols, d))[1] if cols else [])
    return out


def top_generators(M):
    """Generators of M as (vertex, coordinate-index) with standard vectors
    completing rad(M)_v to M_v."""
    gens = []
    rad = radical_columns(M)
    for v, d in M.dim.items():
        chosen, _ = linalg.complement_basis(rad[v], d)
        for i in chosen:
            gens.append((v, i))
    return gens


class LabeledProjective:
    """Direct sum of projectives P(w_j) with (block, path) labeled basis,
    kept per vertex of its support."""

    def __init__(self, A, blocks):
        self.algebra = A
        self.blocks = list(blocks)
        self.basis = {}
        for j, w in enumerate(self.blocks):
            for p in sorted(A.paths_from(w), key=lambda p: (len(p), p)):
                self.basis.setdefault(A.path_target(p, w), []).append((j, p))

        def step(label, a):
            j, p = label
            return (j, p + (a,)) if A._extension_survives(p, a) else None

        self.rep, self.index = _paths_rep(A, self.basis, step)


# labeled projectives kept per algebra before the store starts afresh
_LP_MEMO_SIZE = 64


def _labeled_projective(A, blocks):
    """LabeledProjective(A, blocks), shared between covers of different
    modules with the same block list.  The store is emptied when full:
    deep resolutions over cyclic algebras meet ever new block lists, and
    their labeled projectives are large."""
    blocks = tuple(blocks)
    store = getattr(A, "_lp_memo", None)
    if store is None or len(store) >= _LP_MEMO_SIZE:
        store = A._lp_memo = {}
    P = store.get(blocks)
    if P is None:
        P = store[blocks] = LabeledProjective(A, blocks)
    return P


def cover_data(M):
    """Minimal projective cover of M with labels: (P: LabeledProjective,
    gens), where gens lists the top generators of M as (vertex,
    coordinate) and P has one block per generator.  ``_cover_kernel``
    takes the kernel."""
    gens = top_generators(M)
    return _labeled_projective(M.algebra, [v for v, _ in gens]), gens


def _cover_kernel(M, P, gens):
    """(K, E) for the cover (P, gens) of M: the kernel K of the cover map,
    and per vertex of P's support the embedding matrix E of K_v into P_v
    (columns in P's labeled coordinates)."""
    q = M.algebra.quiver
    E = {}
    kdim = {}
    for x, n in P.rep.dim.items():
        mx = M.dim.get(x, 0)
        if mx == 0:
            E[x] = linalg.identity(n)
            kdim[x] = n
            continue
        # cover map at x: labeled path (j, p) goes to p times generator j
        pi = linalg.zeros(mx, n)
        for col, (j, p) in enumerate(P.basis[x]):
            w, idx = gens[j]
            vec_matrix = M.act(p, w)  # M_w -> M_x
            for i in range(mx):
                if vec_matrix[i][idx]:
                    pi[i][col] = vec_matrix[i][idx]
        cols = linalg.nullspace(pi)
        E[x] = linalg.columns_to_matrix(cols, n)
        kdim[x] = len(cols)
    kmats = {}
    for s, ks in kdim.items():
        if not ks:
            continue
        for a in q.out[s]:
            t = q.tgt[a]
            if kdim.get(t):
                rhs = linalg.matmul(P.rep.mats[a], E[s])
                sol = linalg.solve(E[t], rhs)
                if sol is None:
                    raise RuntimeError(
                        "kernel is not a subrepresentation (bug)")
                kmats[a] = sol
    return Representation(M.algebra, kdim, kmats, check=False), E


# -- minimal projective resolutions in path coordinates -----------------

class Resolution:
    """Lazy minimal projective resolution of a module.

    ``levels[i]`` is (blocks, pathmat): blocks are the cover vertices of
    the i-th syzygy, and for i >= 1 pathmat[j] expresses the image of
    generator j as {(block_of_level_{i-1}, path): coefficient}.  The
    kernel of level i's cover is taken when level i + 1 is first built,
    or when ``kernel(i)`` reads it.
    """

    def __init__(self, M):
        self.module = M
        self.levels = []
        self.finished = M.is_zero()
        self._deepest = None  # (syzygy, P, gens) of the deepest level
        self._kernel = None   # (K, E) of that level's cover, once taken
        if not self.finished:
            P, gens = cover_data(M)
            self.levels.append(([v for v, _ in gens], None))
            self._deepest = (M, P, gens)

    def kernel(self, i):
        """(K, E) of level i's cover (see ``_cover_kernel``): K is
        Omega^(i+1) of the module.  Only the deepest level's is at hand."""
        if i != len(self.levels) - 1:
            raise RuntimeError(f"level {i} is not the deepest level")
        if self._kernel is None:
            self._kernel = _cover_kernel(*self._deepest)
        return self._kernel

    def extend_to(self, depth):
        while len(self.levels) <= depth and not self.finished:
            if len(self.levels) > RESOLUTION_CAP:
                raise ResolutionCapError(
                    f"projective resolution exceeds cap {RESOLUTION_CAP}")
            K, E = self.kernel(len(self.levels) - 1)
            if K.is_zero():
                self.finished = True
                return
            Pprev = self._deepest[1]
            P, gens = cover_data(K)
            pathmat = []
            for w, idx in gens:
                col = [E[w][r][idx] for r in range(len(E[w]))]
                entry = {}
                for r, c in enumerate(col):
                    if c:
                        entry[Pprev.basis[w][r]] = c
                pathmat.append(entry)
            self.levels.append(([v for v, _ in gens], pathmat))
            self._deepest, self._kernel = (K, P, gens), None

    def blocks(self, i):
        return self.levels[i][0] if i < len(self.levels) else []


def resolution_of(M):
    if M._resolution is None:
        M._resolution = Resolution(M)
    return M._resolution


def resolution_tops(M, i):
    """Top vertices of P_i, the i-th term of the minimal projective
    resolution of M ([] past its end and for M = 0).  Hom(P_i, N), and
    so Ext^i(M, N), vanishes unless N is non-zero at one of them."""
    res = resolution_of(M)
    res.extend_to(i + 1)
    return res.blocks(i)


def _hom_space_dim(blocks, N):
    get = N.dim.get
    return sum(get(v, 0) for v in blocks)


def _offsets(blocks, N):
    """Start of each block's coordinates in Hom((+)P(blocks), N), and the
    dimension of that space."""
    get = N.dim.get
    offs = []
    o = 0
    for v in blocks:
        offs.append(o)
        o += get(v, 0)
    return offs, o


def _differential(res, i, N):
    """Matrix of Hom(P_{i-1}, N) -> Hom(P_i, N), i >= 1."""
    blocks_prev = res.blocks(i - 1)
    coffs, cols = _offsets(blocks_prev, N)
    if i >= len(res.levels):
        return linalg.zeros(0, cols)
    blocks, pathmat = res.levels[i]
    roffs, rows = _offsets(blocks, N)
    out = linalg.zeros(rows, cols)
    get = N.dim.get
    for j, entry in enumerate(pathmat):
        nr = get(blocks[j], 0)
        if not nr:
            continue
        for (jprev, p), c in entry.items():
            w = blocks_prev[jprev]
            nc = get(w, 0)
            if not nc:
                continue
            act = N.act(p, w)  # N_w -> N at block j
            for r in range(nr):
                orow = out[roffs[j] + r]
                arow = act[r]
                for s in range(nc):
                    if arow[s]:
                        orow[coffs[jprev] + s] += c * arow[s]
    return out


def hom_dim(M, N):
    """dim Hom(M, N) via the start of the Hom complex (no solving)."""
    if M.is_zero() or N.is_zero():
        return 0
    cols = _hom_space_dim(resolution_tops(M, 0), N)
    if cols == 0:
        return 0
    return cols - linalg.rank(_differential(resolution_of(M), 1, N))


def ext_dim(M, N, i):
    """dim Ext^i(M, N) from the minimal projective resolution of M."""
    if i < 0:
        raise ValueError("i must be >= 0")
    if i == 0:
        return hom_dim(M, N)
    if M.is_zero() or N.is_zero():
        return 0
    dim_i = _hom_space_dim(resolution_tops(M, i), N)
    if dim_i == 0:  # Ext^i is a subquotient of Hom(P_i, N)
        return 0
    res = resolution_of(M)
    d_i = _differential(res, i + 1, N)
    d_prev = _differential(res, i, N)
    return (dim_i - linalg.rank(d_i)) - linalg.rank(d_prev)


# -- syzygies -----------------------------------------------------------

def _syzygy_once(M):
    if M.is_zero():
        return M
    return _cover_kernel(M, *cover_data(M))[0]


def syzygy(M, direction, steps):
    if steps < 0:
        raise ValueError("steps must be >= 0")
    if steps == 0:
        return M
    if direction == "+":
        cur = M
    elif direction == "-":
        cur = dual(M)  # the cosyzygy is D Omega D; the inner D D cancel
    else:
        raise ValueError("direction must be '+' or '-'")
    for _ in range(steps):
        cur = _syzygy_once(cur)
    return cur if direction == "+" else dual(cur)


# -- transpose and AR translation ---------------------------------------

def transpose_module(M):
    """Tr(M) over the opposite algebra, from the minimal presentation."""
    A = M.algebra
    B = op_algebra(A)
    if M.is_zero():
        return zero_rep(B)
    res = resolution_of(M)
    res.extend_to(1)
    blocks0 = res.blocks(0)
    if len(res.levels) < 2:
        return zero_rep(B)  # projective module
    blocks1, pathmat = res.levels[1]
    Q = _labeled_projective(B, blocks1)
    # generator images of g: (+)P^op(w_i) -> Q, e_{w_i} -> sum c * (j, rev p)
    gen_vecs = []
    for i, w in enumerate(blocks0):
        vec = [ZERO] * Q.rep.dim[w]
        for j, entry in enumerate(pathmat):
            for (iprev, p), c in entry.items():
                if iprev == i:
                    vec[Q.index[w][(j, tuple(reversed(p)))]] += c
        gen_vecs.append((w, vec))
    # cokernel of g: (+)P^op(w_i) -> Q as a quotient representation of
    # Q, vertex by vertex; the domain basis at x is the (i, q) op-paths
    # from w_i to x
    D = _labeled_projective(B, blocks0)
    sel = {}
    proj = {}
    for x, n in Q.rep.dim.items():
        im_cols = []
        if x in D.basis:
            g = linalg.zeros(n, len(D.basis[x]))
            for col, (i, q) in enumerate(D.basis[x]):
                w, vec = gen_vecs[i]
                act = Q.rep.act(q, w)  # Q_w -> Q_x over B
                for r in range(n):
                    s = ZERO
                    for kk in range(Q.rep.dim[w]):
                        if act[r][kk] and vec[kk]:
                            s += act[r][kk] * vec[kk]
                    g[r][col] = s
            _, im_cols = linalg.column_space_basis(g)
        if im_cols:
            sel[x], T = linalg.complement_basis(im_cols, n)
            proj[x] = linalg.invert(T)[len(im_cols):]
        else:
            sel[x], proj[x] = list(range(n)), linalg.identity(n)
    qdim = {x: len(c) for x, c in sel.items()}
    mats = {}
    for s, chosen in sel.items():
        if not chosen:
            continue
        for a in B.quiver.out[s]:
            t = B.quiver.tgt[a]
            if qdim.get(t):
                mid = [[row[i] for i in chosen] for row in Q.rep.mats[a]]
                mats[a] = linalg.matmul(proj[t], mid)
    return Representation(B, qdim, mats, check=False)


def ar_translate(M, direction):
    if direction == "+":
        return dual(transpose_module(M))
    if direction == "-":
        return transpose_module(dual(M))
    raise ValueError("direction must be '+' or '-'")


def cosyzygy_and_translate(M):
    """(Omega^- M, tau^- M) from one minimal projective presentation of
    DM: the kernel of its cover is D Omega^- M, and its transpose is
    tau^- M."""
    D = dual(M)
    res = resolution_of(D)
    K = res.kernel(0)[0] if res.levels else D
    return dual(K), transpose_module(D)


def tau_n(M, n, direction):
    if n < 1:
        raise ValueError("n must be >= 1")
    if direction == "-":
        # Tr D (D Omega^(n-1) D M), with the middle D D cancelled
        return transpose_module(syzygy(dual(M), "+", n - 1))
    return ar_translate(syzygy(M, direction, n - 1), direction)


# -- decomposition ------------------------------------------------------

def subrepresentation(M, cols_by_vertex):
    """Abstract representation on a subspace given by embedding columns."""
    q = M.algebra.quiver
    dim = {v: len(cols) for v, cols in cols_by_vertex.items() if cols}
    E = {v: linalg.columns_to_matrix(cols_by_vertex[v], M.dim[v])
         for v in dim}
    mats = {}
    for s in dim:
        for a in q.out[s]:
            t = q.tgt[a]
            if not M.dim[t]:
                continue
            rhs = linalg.matmul(M.mats[a], E[s])
            if t in dim:
                sol = linalg.solve(E[t], rhs)
                if sol is not None:
                    mats[a] = sol
                    continue
            elif linalg.is_zero_matrix(rhs):
                continue
            raise ValueError("columns do not span a subrepresentation")
    return Representation(M.algebra, dim, mats, check=False)


def _endo_power(f, n):
    """The n-th power of an endomorphism, per vertex, by binary powering."""
    out = {}
    for v, m in f.mats.items():
        acc = linalg.identity(len(m))
        base = m
        e = n
        while e:
            if e & 1:
                acc = linalg.matmul(acc, base)
            base = linalg.matmul(base, base)
            e >>= 1
        out[v] = acc
    return out


def _try_split(M, endo):
    n = M.total_dim()
    pw = _endo_power(endo, n)
    kcols = {}
    icols = {}
    kdim = 0
    for v in M.dim:
        kcols[v] = linalg.nullspace(pw[v])
        _, icols[v] = linalg.column_space_basis(pw[v])
        kdim += len(kcols[v])
    if kdim == 0 or kdim == n:
        return None
    return subrepresentation(M, kcols), subrepresentation(M, icols)


def _split_candidates(M, endos):
    """Endomorphisms to try in turn: the basis, its pairwise sums, then 60
    seeded random combinations, each built only when reached."""
    yield from endos
    for i in range(len(endos)):
        for j in range(i + 1, len(endos)):
            yield Morphism(M, M, {
                v: linalg.matadd(endos[i].mats[v], endos[j].mats[v])
                for v in endos[i].mats})
    rng = random.Random(1729)
    for _ in range(60):
        coeffs = [Fraction(rng.randint(-4, 4)) for _ in endos]
        yield _combination(M, M, coeffs, endos)


def decompose(M):
    """List of indecomposable summands (with repetition) by Fitting splits.

    M comes back unsplit, as [M], only when hom_basis(M, M) has one
    element, i.e. when M is a brick; an indecomposable that is not a brick
    raises DecompositionError.
    """
    if M.is_zero():
        return []
    endos = hom_basis(M, M)
    if len(endos) == 1:
        return [M]
    for endo in _split_candidates(M, endos):
        split = _try_split(M, endo)
        if split is not None:
            k, im = split
            return decompose(k) + decompose(im)
    raise DecompositionError(
        "Fitting decomposition failed: endomorphism ring resists splitting")


def rep_to_json(M):
    """Dump format: dimension vector plus matrices of rational strings."""
    dims = dict(M.dim)
    mats = {}
    for a, m in M.mats.items():
        if any(x for row in m for x in row):
            mats[a] = [[str(x) for x in row] for row in m]
    return {"dims": dims, "mats": mats}


def rep_from_json(A, doc):
    """Inverse of ``rep_to_json``; ValueError for vertex or arrow names
    that A does not have and for negative dimensions."""
    dims = {str(v): int(d) for v, d in doc.get("dims", {}).items()}
    mats = {}
    for a, m in doc.get("mats", {}).items():
        mats[str(a)] = [[Fraction(x) for x in row] for row in m]
    return Representation(A, dims, mats, check=True)


def uniserial_modules(A):
    """All indecomposables of a Nakayama algebra (chain or cycle)."""
    q = A.quiver
    if any(len(q.out[v]) > 1 or len(q.inc[v]) > 1 for v in q.vertices):
        raise ValueError("not a Nakayama quiver")
    mods = []
    for v in sorted(q.vertices):
        for path in sorted(A.paths_from(v), key=len):
            mods.append(_uniserial(A, v, path))
    return mods


def _uniserial(A, v, path):
    """Uniserial module with top S(v) and radical layers along ``path``."""
    q = A.quiver
    verts = [v]
    for a in path:
        verts.append(q.tgt[a])
    pos_at = {}
    for j, w in enumerate(verts):
        pos_at.setdefault(w, []).append(j)
    dims = {w: len(ps) for w, ps in pos_at.items()}
    mats = {}
    for j, a in enumerate(path):
        s, t = q.src[a], q.tgt[a]
        m = mats.get(a)
        if m is None:
            m = mats[a] = linalg.zeros(dims[t], dims[s])
        m[pos_at[t].index(j + 1)][pos_at[s].index(j)] = ONE
    return Representation(A, dims, mats, check=True)
