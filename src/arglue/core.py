"""Quivers, monomial relations, path bases and standard constructors.

A path is a tuple of arrow ids (left-to-right composition along the
arrows); the empty tuple stands for a trivial path and always travels
with an explicit base vertex where needed.
"""

import json


class AlgebraError(ValueError):
    pass


class NonAdmissibleError(AlgebraError):
    pass


class Quiver:
    def __init__(self, vertices, arrows):
        self.vertices = list(vertices)
        self.arrows = [(str(a), str(s), str(t)) for a, s, t in arrows]
        if len(set(self.vertices)) != len(self.vertices):
            raise AlgebraError("duplicate vertex ids")
        ids = [a for a, _, _ in self.arrows]
        if len(set(ids)) != len(ids):
            raise AlgebraError("duplicate arrow ids")
        # positions in vertex and arrow order
        self.vertex_pos = {v: i for i, v in enumerate(self.vertices)}
        self.arrow_pos = {a: i for i, a in enumerate(ids)}
        for a, s, t in self.arrows:
            if s not in self.vertex_pos or t not in self.vertex_pos:
                raise AlgebraError(f"arrow {a} has dangling endpoint")
        self.src = {a: s for a, s, t in self.arrows}
        self.tgt = {a: t for a, s, t in self.arrows}
        self.out = {v: [] for v in self.vertices}
        self.inc = {v: [] for v in self.vertices}
        for a, s, t in self.arrows:
            self.out[s].append(a)
            self.inc[t].append(a)

    def sources(self):
        return [v for v in self.vertices if not self.inc[v]]

    def sinks(self):
        return [v for v in self.vertices if not self.out[v]]


def _contains_contiguous(path, sub):
    n, m = len(path), len(sub)
    if m > n:
        return False
    for i in range(n - m + 1):
        if path[i:i + m] == sub:
            return True
    return False


class BoundQuiverPresentation:
    """A finite quiver together with a reduced monomial relation set.

    Admissibility (finite dimensionality) is verified on construction:
    NonAdmissibleError exactly when the relation-free paths never run out
    (see ``_grow_basis``).
    """

    def __init__(self, quiver, relations):
        self.quiver = quiver
        rels = []
        for r in relations:
            r = tuple(str(x) for x in r)
            if len(r) < 2:
                raise AlgebraError(f"relation {r} shorter than 2 arrows")
            for a in r:
                if a not in quiver.src:
                    raise AlgebraError(f"relation uses unknown arrow {a}")
            for a, b in zip(r, r[1:]):
                if quiver.tgt[a] != quiver.src[b]:
                    raise AlgebraError(f"relation {r} is not a composable path")
            rels.append(r)
        # reduce: drop relations containing a shorter relation inside
        reduced = set()
        for r in sorted(set(rels), key=lambda r: (len(r), r)):
            if not any(r[i:j] in reduced for i in range(len(r) - 1)
                       for j in range(i + 2, len(r) + 1)):
                reduced.add(r)
        self.relations = frozenset(reduced)
        # per last arrow, the rest of each relation ending in it
        self._heads_by_last = {}
        for r in sorted(reduced):
            self._heads_by_last.setdefault(r[-1], []).append(r[:-1])
        self._grow_basis()

    # -- path helpers ---------------------------------------------------
    def path_target(self, path, base=None):
        return self.quiver.tgt[path[-1]] if path else base

    def is_relation_free(self, path):
        return not any(_contains_contiguous(path, r) for r in self.relations)

    def _extension_survives(self, path, arrow):
        """Path is relation-free; does path+arrow stay relation-free?"""
        for head in self._heads_by_last.get(arrow, ()):
            if len(head) <= len(path) and path[len(path) - len(head):] == head:
                return False
        return True

    def _grow_basis(self):
        """All relation-free paths, breadth-first by length.

        With k one less than the longest relation (0 without relations),
        whether a relation-free path extends by an arrow depends only on
        its last k arrows.  So there are finitely many relation-free paths
        exactly when stepping each one of length k to the last k arrows of
        its one-arrow extensions never closes a cycle (``_check_windows``,
        run when the search reaches length k)."""
        k = max(map(len, self.relations), default=1) - 1
        paths = {v: [()] for v in self.quiver.vertices}  # by source vertex
        frontier = [(v, ()) for v in self.quiver.vertices]
        length = 0
        while frontier:
            if length == k:
                self._check_windows(frontier)
            length += 1
            nxt = []
            for v, p in frontier:
                end = self.path_target(p, v)
                for a in self.quiver.out[end]:
                    if self._extension_survives(p, a):
                        q = p + (a,)
                        paths[v].append(q)
                        nxt.append((v, q))
            frontier = nxt
        self._paths_by_source = paths

    def _check_windows(self, frontier):
        """NonAdmissibleError when the relation-free paths of length k,
        given as (source, path), step into a cycle."""
        step, indegree = {}, {}   # (end vertex, path) -> windows
        for v, p in frontier:
            end = self.path_target(p, v)
            step[(end, p)] = [(self.quiver.tgt[a], (p + (a,))[1:])
                              for a in self.quiver.out[end]
                              if self._extension_survives(p, a)]
            for w in step[(end, p)]:
                indegree[w] = indegree.get(w, 0) + 1
        ready = [w for w in step if w not in indegree]
        while ready:
            for w in step.pop(ready.pop()):
                indegree[w] -= 1
                if indegree[w] == 0:
                    ready.append(w)
        if step:
            raise NonAdmissibleError(
                "non-admissible ideal: relation-free paths of every length "
                "exist (a cycle survives all relations)")

    # -- data access ----------------------------------------------------
    def all_paths(self):
        """All relation-free paths as (source, target, path)."""
        for v, ps in self._paths_by_source.items():
            for p in ps:
                yield (v, self.path_target(p, v), p)

    def dimension(self):
        return sum(len(ps) for ps in self._paths_by_source.values())

    def paths_from(self, v):
        return list(self._paths_by_source[v])

    # -- structural equality --------------------------------------------
    def structure_key(self):
        return (tuple(sorted(self.quiver.vertices)),
                tuple(sorted(self.quiver.arrows)),
                tuple(sorted(self.relations)))

    def __eq__(self, other):
        return (isinstance(other, BoundQuiverPresentation)
                and self.structure_key() == other.structure_key())

    def __hash__(self):
        return hash(self.structure_key())

    def to_json(self):
        return {
            "vertices": list(self.quiver.vertices),
            "arrows": [{"id": a, "from": s, "to": t}
                       for a, s, t in self.quiver.arrows],
            "relations": [list(r) for r in sorted(self.relations)],
        }


def rename_presentation(presentation, vertex_map, arrow_map=None):
    """Relabel vertices (and optionally arrows); structure is unchanged."""
    q = presentation.quiver
    amap = arrow_map or {}
    arrows = [(amap.get(a, a), vertex_map.get(s, s), vertex_map.get(t, t))
              for a, s, t in q.arrows]
    rels = [tuple(amap.get(a, a) for a in r) for r in presentation.relations]
    return BoundQuiverPresentation(
        Quiver([vertex_map.get(v, v) for v in q.vertices], arrows), rels)


# -- parsing ------------------------------------------------------------

def parse_algebra(document):
    """Parse the JSON algebra format (text, dict, or shortcut forms)."""
    if isinstance(document, str):
        data = json.loads(document)
    else:
        data = document
    if "kupisch" in data:
        return nakayama(KupischSeries(data["kupisch"],
                                      cyclic=bool(data.get("cyclic", False))))
    if "starlike" in data:
        return starlike([(int(r["m"]), str(r["dir"])) for r in data["starlike"]])
    try:
        vertices = [str(v) for v in data["vertices"]]
        arrows = [(a["id"], a["from"], a["to"]) for a in data["arrows"]]
    except (KeyError, TypeError) as e:
        raise AlgebraError(f"malformed algebra document: {e}")
    relations = [tuple(r) for r in data.get("relations", [])]
    return BoundQuiverPresentation(Quiver(vertices, arrows), relations)


# -- Nakayama -----------------------------------------------------------

class KupischSeries:
    def __init__(self, entries, cyclic=False):
        self.entries = [int(d) for d in entries]
        self.cyclic = bool(cyclic)
        d = self.entries
        if not d:
            raise AlgebraError("empty series")
        if self.cyclic:
            if any(x < 2 for x in d):
                raise AlgebraError("cyclic series entries must be >= 2")
            n = len(d)
            for i in range(n):
                if d[i - 1] - 1 > d[i]:
                    raise AlgebraError(
                        f"series violates d[i-1]-1 <= d[i] at position {i}")
        else:
            if d[-1] != 1:
                raise AlgebraError("acyclic series must end in 1")
            if any(x < 2 for x in d[:-1]):
                raise AlgebraError("acyclic series entries before last must be >= 2")
            for i in range(1, len(d)):
                if d[i - 1] - 1 > d[i]:
                    raise AlgebraError(
                        f"series violates d[i-1]-1 <= d[i] at position {i}")

    def normalized(self):
        """Lexicographically minimal rotation for cyclic series."""
        if not self.cyclic:
            return self
        d = self.entries
        best = min(tuple(d[i:] + d[:i]) for i in range(len(d)))
        return KupischSeries(list(best), cyclic=True)

    def __eq__(self, other):
        return (isinstance(other, KupischSeries)
                and self.cyclic == other.cyclic
                and self.normalized().entries
                == other.normalized().entries)

    def __repr__(self):
        kind = "cyclic" if self.cyclic else "acyclic"
        return f"KupischSeries({self.entries}, {kind})"


def nakayama(series):
    """Connected Nakayama algebra with dim P(i) = d_i."""
    d = series.entries
    n = len(d)
    if series.cyclic:
        vertices = [str(i) for i in range(n)]
        arrows = [(f"a{i}", str(i), str((i + 1) % n)) for i in range(n)]
        rels = []
        for i in range(n):
            rels.append(tuple(f"a{(i + k) % n}" for k in range(d[i])))
        return BoundQuiverPresentation(Quiver(vertices, arrows), rels)
    vertices = [str(i + 1) for i in range(n)]
    arrows = [(f"a{i + 1}", str(i + 1), str(i + 2)) for i in range(n - 1)]
    rels = []
    for i in range(n):
        if i + d[i] < n:  # the path of length d[i] from vertex i+1 exists
            rels.append(tuple(f"a{i + 1 + k}" for k in range(d[i])))
    return BoundQuiverPresentation(Quiver(vertices, arrows), rels)


def kupisch_of(presentation):
    """Inverse of :func:`nakayama` (cyclic result in rotation normal form)."""
    q = presentation.quiver
    n = len(q.vertices)
    outdeg = {v: len(q.out[v]) for v in q.vertices}
    indeg = {v: len(q.inc[v]) for v in q.vertices}
    if len(q.arrows) == n and all(outdeg[v] == 1 and indeg[v] == 1
                                  for v in q.vertices):
        # single cycle
        order = [q.vertices[0]]
        while len(order) < n:
            nxt = q.tgt[q.out[order[-1]][0]]
            if nxt == order[0]:
                raise AlgebraError("quiver is not a single connected cycle")
            order.append(nxt)
        if q.tgt[q.out[order[-1]][0]] != order[0]:
            raise AlgebraError("quiver is not a single connected cycle")
        d = [len(presentation.paths_from(v)) for v in order]
        rots = [tuple(d[i:] + d[:i]) for i in range(n)]
        return KupischSeries(list(min(rots)), cyclic=True)
    if len(q.arrows) == n - 1 and all(outdeg[v] <= 1 and indeg[v] <= 1
                                      for v in q.vertices):
        starts = [v for v in q.vertices if indeg[v] == 0]
        if len(starts) != 1:
            raise AlgebraError("quiver is not a connected linear chain")
        order = [starts[0]]
        while outdeg[order[-1]]:
            order.append(q.tgt[q.out[order[-1]][0]])
        if len(order) != n:
            raise AlgebraError("quiver is not a connected linear chain")
        return KupischSeries([len(presentation.paths_from(v)) for v in order],
                             cyclic=False)
    raise AlgebraError("not a Nakayama quiver (neither a chain nor a cycle)")


# -- starlike trees -----------------------------------------------------

def starlike(rays):
    """Radical-square-zero algebra on a starlike tree.

    ``rays`` is a list of (m_i, direction) with m_i >= 2 counting the
    center; direction 'out' points away from the center, 'in' toward it.
    """
    k = len(rays)
    if k == 2:
        raise AlgebraError("two rays form a line, not a starlike tree; "
                           "use a single ray of the combined length")
    if k < 1:
        raise AlgebraError("at least one ray required")
    center = "1"
    vertices = [center]
    arrows = []
    for idx, (m, direction) in enumerate(rays, start=1):
        m = int(m)
        if m < 2:
            raise AlgebraError(f"ray {idx} shorter than 2 vertices")
        if direction not in ("in", "out"):
            raise AlgebraError(f"ray {idx} direction must be 'in' or 'out'")
        if k == 1:
            names = [str(j) for j in range(2, m + 1)]
        else:
            names = [f"{j}_{idx}" for j in range(2, m + 1)]
        vertices.extend(names)
        chain = [center] + names
        for j in range(m - 1):
            s, t = chain[j], chain[j + 1]
            if direction == "in":
                s, t = t, s
            arrows.append((f"r{idx}x{j + 1}", s, t))
    q = Quiver(vertices, arrows)
    rels = []
    for a in q.src:
        for b in q.out[q.tgt[a]]:
            rels.append((a, b))
    return BoundQuiverPresentation(q, rels)


def opposite(presentation):
    """Reverse all arrows and relation paths."""
    q = presentation.quiver
    arrows = [(a, t, s) for a, s, t in q.arrows]
    rels = [tuple(reversed(r)) for r in presentation.relations]
    return BoundQuiverPresentation(Quiver(list(q.vertices), arrows), rels)


def linear_a(h):
    """Hereditary linearly oriented A_h: 1 -> 2 -> ... -> h."""
    vertices = [str(i + 1) for i in range(h)]
    arrows = [(f"a{i + 1}", str(i + 1), str(i + 2)) for i in range(h - 1)]
    return BoundQuiverPresentation(Quiver(vertices, arrows), [])
