"""Skeleton topologies, staged partition schemes, and adjacency construction.

Joint ids are 1-based in documents and partition tables, 0-based in arrays.
Built-ins cover the 25-joint and 15-joint skeletons together with their
three-stage region partitions (25 -> 10 -> 5 -> 2 and 15 -> 10 -> 5 -> 2).
"""

from __future__ import annotations

import json
import re
import reprlib
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


def bone_matrix(topology: SkeletonTopology) -> np.ndarray:
    """Linear map taking joint positions to bone vectors (joint minus parent;
    the root maps to zero): positions (..., joints) @ bone_matrix."""
    if topology.parents is None:
        raise ValueError(f"topology '{topology.name}' has no parent map")
    n = topology.node_count
    mat = np.zeros((n, n), dtype=np.float64)
    for child, parent in topology.parents.items():
        mat[child - 1, child - 1] = 1.0
        mat[parent - 1, child - 1] = -1.0
    return mat


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


def parse_json(text: str):
    """The JSON document `text`, read with `unique_keys`. Invalid JSON, a repeated
    key or nesting too deep for the parser raises ValueError `invalid JSON (...)`."""
    try:
        return json.loads(text, object_pairs_hook=unique_keys)
    except (ValueError, RecursionError) as exc:
        raise ValueError(f"invalid JSON ({exc})") from None


_WANT = {str: "a string", int: "an integer", float: "a number", bool: "true or false",
         list: "an array", dict: "an object", type(None): "null", tuple: "an array of integers"}
_REQUIRED = object()


def _integers(value) -> bool:
    return type(value) is list and all(type(v) is int for v in value)


def _mistyped(where: str, key, want: str, value) -> ValueError:
    return ValueError(f"{where} field '{key}' must be {want}, not {reprlib.repr(value)}")


def json_field(doc, key: str, kinds: tuple, where: str, default=_REQUIRED):
    """`doc[key]` if its JSON type is one of `kinds`, compared with `type`: a bool
    is not an integer, nor is 2.0; `float` takes any number, and `(tuple,)` an
    array of integers, returned as a tuple. `default` if the key is absent and a
    default is given. Otherwise ValueError: `<where> field '<key>' is missing` or
    `<where> field '<key>' must be <want>, not <value>`."""
    if type(doc) is not dict:
        raise ValueError(f"{where} field '{key}' is missing ({where} is not a JSON object)")
    if key not in doc:
        if default is _REQUIRED:
            raise ValueError(f"{where} field '{key}' is missing")
        return default
    value = doc[key]
    if kinds == (tuple,):
        if _integers(value):
            return tuple(value)
    elif type(value) in kinds or (type(value) is int and float in kinds):
        return value
    raise _mistyped(where, key, " or ".join(_WANT[k] for k in kinds), value)


def _joint_key(key) -> int:
    """A joint id written as a JSON object key (keys are always strings): plain
    decimal digits without a leading zero, so no two spellings name one joint."""
    if not isinstance(key, str) or not re.fullmatch(r"0|[1-9][0-9]*", key):
        raise ValueError(f"topology 'parents' key {key!r} is not a joint id in plain digits")
    return int(key)


def parse_topology(doc: dict) -> tuple[SkeletonTopology, PartitionScheme | None]:
    """The topology of a document and, when it lists `stages`, its partition
    scheme. A missing or wrongly typed field raises ValueError naming the field;
    no value is converted to another type."""
    name = json_field(doc, "name", (str,), "topology")
    node_count = json_field(doc, "node_count", (int,), "topology")
    edges = json_field(doc, "edges", (list,), "topology")
    if not all(_integers(e) and len(e) == 2 for e in edges):
        raise _mistyped("topology", "edges", "an array of joint pairs", edges)
    parents = json_field(doc, "parents", (dict,), "topology", None)
    if parents is not None:
        parents = {_joint_key(j): json_field(parents, j, (int,), "topology 'parents'")
                   for j in parents}
    topo = SkeletonTopology(name, node_count, tuple(tuple(e) for e in edges), parents)
    stages = json_field(doc, "stages", (list,), "topology", None)
    if stages is None:
        return topo, None
    if not all(type(stage) is list for stage in stages):
        raise _mistyped("topology", "stages", "an array of arrays of rows", stages)
    where = "topology 'stages' row"
    stages = tuple(
        tuple((json_field(row, "members", (tuple,), where),
               json_field(row, "new_id", (int,), where)) for row in stage)
        for stage in stages)
    return topo, PartitionScheme(topo.name, topo.node_count, stages)


def load_topology(name_or_doc) -> tuple[SkeletonTopology, PartitionScheme | None]:
    """Resolve a built-in name or parse a topology document."""
    if isinstance(name_or_doc, str):
        topo = builtin_topology(name_or_doc)
        return topo, _BUILTIN_PARTITIONS.get(name_or_doc)
    return parse_topology(name_or_doc)
