"""Finite quivers and paths: path enumeration, acyclicity, reachability,
weak components and the left-closed vertex subsets."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .rings import _json_object


class QuiverError(ValueError):
    """Malformed quiver, path, or vertex-set input."""


# the most edge ids `Quiver.paths_up_to` holds over all its paths (about 80 MB
# of references)
_MAX_EDGE_IDS = 10**7
# the most vertices `Quiver.enumerate_left_closed` runs its 2^n subsets over
_MAX_SUBSET_VERTICES = 16


@dataclass(frozen=True)
class Path:
    """A path: either trivial at a vertex, or a nonempty edge sequence in
    traversal order (target of each edge equals source of the next)."""

    vertex: str | None = None
    edges: tuple[str, ...] = ()

    def __post_init__(self):
        # a tuple, as in Quiver, so a path given a list equals and hashes like
        # one given a tuple; concat passes tuples and skips the copy
        if type(self.edges) is not tuple:
            if isinstance(self.edges, str):
                raise QuiverError(f"path edges must be a sequence, not {self.edges!r}")
            object.__setattr__(self, "edges", tuple(self.edges))
        if (self.vertex is None) == (len(self.edges) == 0):
            raise QuiverError("path is either trivial(vertex) or a nonempty edge list")

    @property
    def is_trivial(self) -> bool:
        return self.vertex is not None

    def __len__(self) -> int:
        return len(self.edges)

    def sort_key(self):
        # length first, then identifiers, so serialized elements are bit-stable
        if self.is_trivial:
            return (0, (self.vertex,))
        return (len(self.edges), self.edges)

    def to_json(self):
        if self.is_trivial:
            return {"trivial": self.vertex}
        return {"edges": list(self.edges)}

    @staticmethod
    def from_json(obj) -> "Path":
        # exactly one of "trivial" and "edges": a path with both is ambiguous
        key = "trivial" if isinstance(obj, dict) and "trivial" in obj else "edges"
        _json_object(obj, (key,), (), QuiverError, "path")
        if key == "trivial" and isinstance(obj[key], str):
            return Path(vertex=obj[key])
        if key == "edges" and _is_str_list(obj[key]):
            return Path(edges=tuple(obj[key]))
        raise QuiverError(f"bad path: {obj!r}")


@dataclass(frozen=True)
class Quiver:
    """A finite quiver: ordered vertices and a list of (id, source, target) edges."""

    vertices: tuple[str, ...]
    edges: tuple[tuple[str, str, str], ...] = ()

    def __post_init__(self):
        # tuples, so a quiver given lists equals and hashes like one given
        # tuples; a string would pass as a sequence of one-letter ids
        if isinstance(self.vertices, str) or isinstance(self.edges, str):
            raise QuiverError("vertices and edges must be sequences, not strings")
        edges = tuple(self.edges)
        if any(isinstance(edge, str) for edge in edges):
            raise QuiverError("an edge must be a sequence, not a string")
        object.__setattr__(self, "vertices", tuple(self.vertices))
        object.__setattr__(self, "edges", tuple(map(tuple, edges)))
        if len(set(self.vertices)) != len(self.vertices):
            raise QuiverError("duplicate vertex identifiers")
        seen = set()
        for edge in self.edges:
            if len(edge) != 3:
                raise QuiverError(f"edge {edge!r} is not (id, source, target)")
            eid, src, dst = edge
            if eid in seen:
                raise QuiverError(f"duplicate edge identifier {eid!r}")
            seen.add(eid)
            if src not in self.vertex_set or dst not in self.vertex_set:
                raise QuiverError(f"edge {eid!r} touches undeclared vertex")

    @cached_property
    def vertex_set(self) -> frozenset[str]:
        return frozenset(self.vertices)

    @cached_property
    def edge_by_id(self) -> dict[str, tuple[str, str]]:
        return {eid: (src, dst) for eid, src, dst in self.edges}

    @cached_property
    def out_edges(self) -> dict[str, tuple[str, ...]]:
        out = {v: [] for v in self.vertices}
        for eid, src, _ in self.edges:
            out[src].append(eid)
        return {v: tuple(es) for v, es in out.items()}

    @cached_property
    def in_edges(self) -> dict[str, tuple[str, ...]]:
        inc = {v: [] for v in self.vertices}
        for eid, _, dst in self.edges:
            inc[dst].append(eid)
        return {v: tuple(es) for v, es in inc.items()}

    def edge_source(self, eid: str) -> str:
        return self.edge_by_id[eid][0]

    def edge_target(self, eid: str) -> str:
        return self.edge_by_id[eid][1]

    # ---- paths ----

    @cached_property
    def _trivial_paths(self) -> dict[str, Path]:
        return {v: Path(vertex=v) for v in self.vertices}

    @cached_property
    def _trivial_terms(self) -> dict[tuple[str, object], tuple[Path, object]]:
        """(trivial path, coefficient) term pairs, keyed by (vertex,
        coefficient), that `algebra.AlgElem.make` shares between elements."""
        return {}

    def check_path(self, p: Path) -> Path:
        """p, validated; a trivial path is returned as the quiver's own copy,
        so elements built from fresh trivial paths share one object each."""
        if p.is_trivial:
            own = self._trivial_paths.get(p.vertex)
            if own is None:
                raise QuiverError(f"unknown vertex {p.vertex!r}")
            return own
        for eid in p.edges:
            if eid not in self.edge_by_id:
                raise QuiverError(f"unknown edge {eid!r}")
        for a, b in zip(p.edges, p.edges[1:]):
            if self.edge_target(a) != self.edge_source(b):
                raise QuiverError(f"edges {a!r},{b!r} do not compose")
        return p

    def path_source(self, p: Path) -> str:
        return p.vertex if p.is_trivial else self.edge_source(p.edges[0])

    def path_target(self, p: Path) -> str:
        return p.vertex if p.is_trivial else self.edge_target(p.edges[-1])

    def paths_up_to(self, max_len: int, limit: int | None = None) -> list[Path]:
        """All paths of length <= max_len in canonical order.

        The enumeration stops at the first length with no path. A limit
        guards against blowup on cyclic quivers: QuiverError is raised as
        soon as more than `limit` paths would be held. Independently of it,
        QuiverError is raised once the paths would hold more than
        `_MAX_EDGE_IDS` edge ids in all, which bounds memory where paths get
        long but stay few (a loop).
        """
        out: list[Path] = [Path(vertex=v) for v in sorted(self.vertices)]
        held = 0  # edge ids over all paths kept so far
        frontier: list[tuple[str, ...]] = [()]
        for length in range(1, max_len + 1):
            nxt: list[tuple[str, ...]] = []
            for pref in frontier:
                if pref == ():
                    candidates = [eid for eid, _, _ in self.edges]
                else:
                    candidates = self.out_edges[self.edge_target(pref[-1])]
                for eid in candidates:
                    nxt.append(pref + (eid,))
                    held += length
                    if limit is not None and len(out) + len(nxt) > limit:
                        raise QuiverError(
                            f"path enumeration exceeded limit {limit} at length {length}"
                        )
                    if held > _MAX_EDGE_IDS:
                        raise QuiverError(
                            f"paths hold more than {_MAX_EDGE_IDS} edge ids"
                            f" at length {length}"
                        )
            if not nxt:
                break
            nxt.sort()
            out.extend(Path(edges=seq) for seq in nxt)
            frontier = nxt
        return out

    @cached_property
    def is_acyclic(self) -> bool:
        """Kahn's algorithm: remove vertices with no incoming edge left until
        none remains; the quiver is acyclic exactly when all are removed."""
        indegree = {v: len(es) for v, es in self.in_edges.items()}
        free = [v for v, d in indegree.items() if not d]
        removed = 0
        while free:
            v = free.pop()
            removed += 1
            for eid in self.out_edges[v]:
                w = self.edge_target(eid)
                indegree[w] -= 1
                if not indegree[w]:
                    free.append(w)
        return removed == len(self.vertices)

    def reachable(self, start: str) -> frozenset[str]:
        """Vertices reachable from `start` by a directed path of length >= 0."""
        if start not in self.vertex_set:
            raise QuiverError(f"unknown vertex {start!r}")
        seen = {start}
        stack = [start]
        while stack:
            v = stack.pop()
            for eid in self.out_edges[v]:
                w = self.edge_target(eid)
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return frozenset(seen)

    def weak_components(self) -> list[frozenset[str]]:
        """Partition of the vertices under the symmetric closure of the edge
        relation, in the order of their first vertex."""
        nbrs = {v: set() for v in self.vertices}
        for _, src, dst in self.edges:
            nbrs[src].add(dst)
            nbrs[dst].add(src)
        seen: set[str] = set()
        comps = []
        for v in self.vertices:
            if v in seen:
                continue
            comp, stack = {v}, [v]
            while stack:
                for w in nbrs[stack.pop()] - comp:
                    comp.add(w)
                    stack.append(w)
            seen |= comp
            comps.append(frozenset(comp))
        return comps

    def enumerate_left_closed(self) -> list[frozenset[str]]:
        """All left-closed vertex subsets, those no edge leaves, by exhaustive
        subset enumeration."""
        n = len(self.vertices)
        if n > _MAX_SUBSET_VERTICES:
            raise QuiverError(
                f"quiver has {n} vertices, above the enumeration bound"
                f" {_MAX_SUBSET_VERTICES}"
            )
        out = []
        for mask in range(1 << n):
            s = frozenset(v for i, v in enumerate(self.vertices) if mask >> i & 1)
            if all(dst in s for _, src, dst in self.edges if src in s):
                out.append(s)
        out.sort(key=lambda s: (len(s), sorted(s)))
        return out

    # ---- serialization ----

    def to_json(self) -> dict:
        return {
            "vertices": list(self.vertices),
            "edges": [{"id": eid, "src": src, "dst": dst} for eid, src, dst in self.edges],
        }

    @staticmethod
    def from_json(obj: dict) -> "Quiver":
        _json_object(obj, ("vertices",), ("edges",), QuiverError, "quiver")
        if not _is_str_list(obj["vertices"]):
            raise QuiverError(f"bad quiver: {obj!r}")
        edges = obj.get("edges", [])
        if not isinstance(edges, list):
            raise QuiverError(f"quiver edges must be a list, got {edges!r}")
        for e in edges:
            e = _json_object(e, ("id", "src", "dst"), (), QuiverError, "edge")
            if not _is_str_list(list(e.values())):
                raise QuiverError(f"bad edge {e!r}: needs string id, src and dst")
        return Quiver(
            tuple(obj["vertices"]),
            tuple((e["id"], e["src"], e["dst"]) for e in edges),
        )


def _is_str_list(x) -> bool:
    return isinstance(x, list) and all(isinstance(s, str) for s in x)


def concat(q: Quiver, p: Path, r: Path) -> Path | None:
    """The product path p*r (traverse r, then p); None when the junction mismatches."""
    if r.is_trivial:
        return p if q.path_source(p) == r.vertex else None
    if p.is_trivial:
        return r if q.path_target(r) == p.vertex else None
    if q.path_target(r) != q.path_source(p):
        return None
    return Path(edges=r.edges + p.edges)
