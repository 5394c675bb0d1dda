"""Skeleton topologies, staged partition schemes, and adjacency construction.

Joint ids are 1-based in documents and partition tables, 0-based in arrays.
Built-ins cover the 25-joint and 15-joint skeletons together with their
three-stage region partitions (25 -> 10 -> 5 -> 2 and 15 -> 10 -> 5 -> 2).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

import numpy as np

StageRows = list[tuple[tuple[int, ...], int]]  # [(member ids, new id), ...]


@dataclass(frozen=True)
class SkeletonTopology:
    """Joints and bones of one skeleton graph; `parents` enables bone vectors."""

    name: str
    node_count: int
    edges: tuple[tuple[int, int], ...]
    parents: dict[int, int] | None = None

    def __post_init__(self):
        n = self.node_count
        if n < 1:
            raise ValueError("node_count must be positive")
        seen = set()
        for a, b in self.edges:
            if not (1 <= a <= n and 1 <= b <= n):
                raise ValueError(f"edge ({a},{b}) references a joint outside 1..{n}")
            if a == b:
                raise ValueError(f"self-edge on joint {a}")
            key = (min(a, b), max(a, b))
            if key in seen:
                raise ValueError(f"duplicate edge ({a},{b})")
            seen.add(key)
        if self.parents is not None:
            roots = [j for j in range(1, n + 1) if j not in self.parents]
            if len(roots) != 1:
                raise ValueError(f"parent map must leave exactly one root, found {roots}")
            for j, p in self.parents.items():
                if not (1 <= j <= n and 1 <= p <= n):
                    raise ValueError(f"parent entry {j}->{p} out of range")
            for j in self.parents:
                hops, cur = 0, j
                while cur in self.parents:
                    cur = self.parents[cur]
                    hops += 1
                    if hops > n:
                        raise ValueError("cyclic parent map")

    @property
    def root(self) -> int | None:
        if self.parents is None:
            return None
        return next(j for j in range(1, self.node_count + 1) if j not in self.parents)


@dataclass(frozen=True)
class PartitionScheme:
    """Ordered pooling stages; each stage maps previous-graph joints to regions."""

    name: str
    node_count: int  # joints of the un-pooled graph
    stages: tuple[tuple[tuple[tuple[int, ...], int], ...], ...] = field(default_factory=tuple)

    def __post_init__(self):
        prev = self.node_count
        for si, stage in enumerate(self.stages):
            _validate_stage(prev, list(stage), where=f"stage {si + 1}")
            prev = max(new_id for _, new_id in stage)

    @property
    def node_counts(self) -> list[int]:
        """Node count trajectory, starting at the un-pooled graph."""
        counts = [self.node_count]
        for stage in self.stages:
            counts.append(max(new_id for _, new_id in stage))
        return counts


def _validate_stage(prev_count: int, rows: StageRows, where: str = "stage"):
    if not rows:
        raise ValueError(f"{where}: no regions")
    new_ids = sorted(new_id for _, new_id in rows)
    if new_ids != list(range(1, len(rows) + 1)):
        raise ValueError(f"{where}: region ids must be contiguous from 1, got {new_ids}")
    covered = set()
    for members, new_id in rows:
        if not members:
            raise ValueError(f"{where}: region {new_id} is empty")
        for m in members:
            if not (1 <= m <= prev_count):
                raise ValueError(f"{where}: region {new_id} references joint {m} "
                                 f"outside 1..{prev_count}")
            covered.add(m)
    missing = set(range(1, prev_count + 1)) - covered
    if missing:
        raise ValueError(f"{where}: joints {sorted(missing)} assigned to no region")


def build_assignment(prev_count: int, rows: StageRows) -> np.ndarray:
    """Binary joints-by-regions matrix for one stage; overlapping rows allowed."""
    _validate_stage(prev_count, rows)
    m = len(rows)
    p = np.zeros((prev_count, m), dtype=np.float64)
    for members, new_id in rows:
        for j in members:
            p[j - 1, new_id - 1] = 1.0
    return p


def raw_adjacency(topology: SkeletonTopology) -> np.ndarray:
    """Binary symmetric adjacency with zero diagonal."""
    a = np.zeros((topology.node_count, topology.node_count), dtype=np.float64)
    for i, j in topology.edges:
        a[i - 1, j - 1] = a[j - 1, i - 1] = 1.0
    return a


def normalize_pattern(pattern: np.ndarray) -> np.ndarray:
    """Symmetric degree normalization of a connectivity pattern with self-loops.

    Only the nonzero pattern of the input matters; the diagonal is replaced by
    self-loops before normalizing, so raw and already-normalized inputs agree.
    """
    n = pattern.shape[0]
    a = (np.asarray(pattern) != 0).astype(np.float64)
    np.fill_diagonal(a, 0.0)
    a = np.maximum(a, a.T)
    a_hat = a + np.eye(n)
    d = a_hat.sum(axis=1)
    inv_sqrt = 1.0 / np.sqrt(d)
    return a_hat * inv_sqrt[:, None] * inv_sqrt[None, :]


def normalized_adjacency(topology: SkeletonTopology) -> np.ndarray:
    return normalize_pattern(raw_adjacency(topology))


def coarsen_pattern(pattern: np.ndarray, assignment: np.ndarray) -> np.ndarray:
    """Connectivity of the pooled graph: regions touch when they share a joint
    or contain joints adjacent in the previous graph. Zero diagonal."""
    n, m = assignment.shape
    if pattern.shape != (n, n):
        raise ValueError(f"pattern {pattern.shape} does not match assignment rows {n}")
    linked = (np.asarray(pattern) != 0).astype(np.float64) + np.eye(n)
    coarse = assignment.T @ linked @ assignment
    out = (coarse > 0).astype(np.float64)
    np.fill_diagonal(out, 0.0)
    return out


def coarsen_adjacency(adjacency: np.ndarray, assignment: np.ndarray) -> np.ndarray:
    """Pooled-graph normalized adjacency from any pre-pooling connectivity."""
    return normalize_pattern(coarsen_pattern(adjacency, assignment))


def stage_matrices(topology: SkeletonTopology, scheme: PartitionScheme):
    """Per-stage (assignment, normalized coarse adjacency, raw coarse pattern)."""
    if scheme.node_count != topology.node_count:
        raise ValueError("partition scheme does not match topology size")
    out = []
    pattern = raw_adjacency(topology)
    prev = topology.node_count
    for stage in scheme.stages:
        p = build_assignment(prev, list(stage))
        pattern = coarsen_pattern(pattern, p)
        out.append((p, normalize_pattern(pattern), pattern))
        prev = p.shape[1]
    return out


# ---------------------------------------------------------------------------
# built-in skeletons and their staged pooling rules

_NTU25_PARENTS = {
    1: 2, 2: 21, 3: 21, 4: 3, 5: 21, 6: 5, 7: 6, 8: 7, 9: 21, 10: 9,
    11: 10, 12: 11, 13: 1, 14: 13, 15: 14, 16: 15, 17: 1, 18: 17, 19: 18,
    20: 19, 22: 23, 23: 8, 24: 25, 25: 12,
}

_UWA15_PARENTS = {
    1: 2, 2: 3, 4: 2, 5: 4, 6: 5, 7: 2, 8: 7, 9: 8,
    10: 3, 11: 10, 12: 11, 13: 3, 14: 13, 15: 14,
}

_BUILTIN_TOPOLOGIES = {
    "ntu25": SkeletonTopology(
        name="ntu25", node_count=25,
        edges=tuple(sorted((min(c, p), max(c, p)) for c, p in _NTU25_PARENTS.items())),
        parents=_NTU25_PARENTS),
    "uwa15": SkeletonTopology(
        name="uwa15", node_count=15,
        edges=tuple(sorted((min(c, p), max(c, p)) for c, p in _UWA15_PARENTS.items())),
        parents=_UWA15_PARENTS),
}

_BUILTIN_PARTITIONS = {
    "ntu25": PartitionScheme(
        name="ntu25", node_count=25,
        stages=(
            (((1, 2, 21), 1), ((3, 4, 21), 2), ((5, 6, 7), 3), ((8, 22, 23), 4),
             ((9, 10, 11), 5), ((12, 24, 25), 6), ((13, 14), 7), ((15, 16), 8),
             ((17, 18), 9), ((19, 20), 10)),
            (((1, 2), 1), ((3, 4), 2), ((5, 6), 3), ((7, 8), 4), ((9, 10), 5)),
            (((1, 2, 3), 1), ((4, 5), 2)),
        )),
    "uwa15": PartitionScheme(
        name="uwa15", node_count=15,
        stages=(
            (((1, 2), 1), ((2, 3), 2), ((4, 5), 3), ((5, 6), 4), ((7, 8), 5),
             ((8, 9), 6), ((10, 11), 7), ((11, 12), 8), ((13, 14), 9), ((14, 15), 10)),
            (((1, 2), 1), ((3, 4), 2), ((5, 6), 3), ((7, 8), 4), ((9, 10), 5)),
            (((1, 2, 3), 1), ((4, 5), 2)),
        )),
}


def builtin_names() -> list[str]:
    return sorted(_BUILTIN_TOPOLOGIES)


def builtin_topology(name: str) -> SkeletonTopology:
    try:
        return _BUILTIN_TOPOLOGIES[name]
    except KeyError:
        raise ValueError(f"unknown topology '{name}' (built-ins: {builtin_names()})") from None


def builtin_partition(name: str) -> PartitionScheme:
    try:
        return _BUILTIN_PARTITIONS[name]
    except KeyError:
        raise ValueError(f"no built-in partition scheme for '{name}'") from None


# ---------------------------------------------------------------------------
# document (de)serialization

def topology_doc(topology: SkeletonTopology, scheme: PartitionScheme | None = None) -> dict:
    doc = {
        "name": topology.name,
        "node_count": topology.node_count,
        "edges": [list(e) for e in topology.edges],
    }
    if topology.parents is not None:
        doc["parents"] = {str(j): p for j, p in sorted(topology.parents.items())}
    if scheme is not None:
        doc["stages"] = [
            [{"members": list(members), "new_id": new_id} for members, new_id in stage]
            for stage in scheme.stages
        ]
    return doc


def unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """`object_pairs_hook` for `json.load`: the object as a dict; a key that
    occurs twice in one object raises ValueError naming it (`json` alone keeps
    the last value without a word)."""
    out = {}
    for key, value in pairs:
        if key in out:
            raise ValueError(f"repeated JSON key {key!r}")
        out[key] = value
    return out


def _exact(kind: type):
    """A reader that returns a value of JSON type `kind` unchanged and raises
    TypeError for any other (a bool is not an integer, 2.0 is not one either)."""
    def read(value):
        if type(value) is not kind:
            raise TypeError(f"{value!r} is not of type {kind.__name__}")
        return value
    return read


def _joint_key(key) -> int:
    """A joint id written as a JSON object key (keys are always strings): plain
    decimal digits without a leading zero, so no two spellings name one joint."""
    if not isinstance(key, str) or not re.fullmatch(r"0|[1-9][0-9]*", key):
        raise ValueError(f"key {key!r} is not a joint id in plain decimal digits")
    return int(key)


def parse_topology(doc: dict) -> tuple[SkeletonTopology, PartitionScheme | None]:
    """The topology of a document and, when it lists `stages`, its partition
    scheme. A missing or malformed field raises ValueError naming the field;
    no value is converted to another type."""
    integer = _exact(int)

    def field(key, read):
        if key in ("parents", "stages") and key not in doc:  # the optional fields
            return None
        try:
            return read(doc[key])
        except (KeyError, TypeError, ValueError, AttributeError) as exc:
            raise ValueError(f"topology field '{key}' is missing or malformed "
                             f"({exc!r})") from None

    if not isinstance(doc, dict):
        raise ValueError(f"topology document must be a JSON object, not {doc!r}")
    topo = SkeletonTopology(
        name=field("name", _exact(str)),
        node_count=field("node_count", integer),
        edges=field("edges", lambda v: tuple((integer(a), integer(b)) for a, b in v)),
        parents=field("parents", lambda v: {_joint_key(j): integer(p) for j, p in v.items()}),
    )
    stages = field("stages", lambda v: tuple(
        tuple((tuple(integer(m) for m in row["members"]), integer(row["new_id"]))
              for row in stage)
        for stage in v))
    scheme = None if stages is None else PartitionScheme(topo.name, topo.node_count, stages)
    return topo, scheme


def load_topology(name_or_doc) -> tuple[SkeletonTopology, PartitionScheme | None]:
    """Resolve a built-in name or parse a topology document."""
    if isinstance(name_or_doc, str):
        topo = builtin_topology(name_or_doc)
        return topo, _BUILTIN_PARTITIONS.get(name_or_doc)
    return parse_topology(name_or_doc)
