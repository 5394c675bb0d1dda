"""Dataset files, synthetic skeleton-motion generation, frame resampling, and
multi-stream score fusion.

Datasets are single JSON documents (64-bit coordinates, inspectable and
diffable); score files are plain comma-separated rows closed by an end-marker
line with the row count. The synthetic generator assigns each class a
parametric motion on the kinematic tree: localized limb oscillations for most
classes, whole-body bounce for every fourth, so classes differ by active
region, frequency, axis, and phase.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .skeleton import SkeletonTopology, load_topology, unique_keys
from .tensor import Tensor


@dataclass
class LabeledSequence:
    frames: np.ndarray  # (T, N, 3) float64, meters
    label: int
    id: str


@dataclass
class Dataset:
    topology: str
    classes: list[str]
    split: str
    sequences: list[LabeledSequence] = field(default_factory=list)

    @property
    def class_count(self) -> int:
        return len(self.classes)

    def histogram(self) -> list[int]:
        counts = [0] * self.class_count
        for seq in self.sequences:
            counts[seq.label] += 1
        return counts


def _validate(ds: Dataset, topology: SkeletonTopology) -> None:
    if not ds.sequences:
        raise ValueError("empty dataset")
    n = topology.node_count
    for seq in ds.sequences:
        if seq.frames.ndim != 3 or seq.frames.shape[1:] != (n, 3):
            raise ValueError(f"sample '{seq.id}': frames {seq.frames.shape} do not "
                             f"match ({n} joints, 3 coords)")
        if seq.frames.shape[0] < 1:
            raise ValueError(f"sample '{seq.id}': no frames")
        if not np.isfinite(seq.frames).all():
            raise ValueError(f"sample '{seq.id}': non-finite coordinates")
        if not 0 <= seq.label < ds.class_count:
            raise ValueError(f"sample '{seq.id}': label {seq.label} outside "
                             f"0..{ds.class_count - 1}")


def save_dataset(ds: Dataset, path: str) -> None:
    doc = {
        "topology": ds.topology,
        "classes": ds.classes,
        "split": ds.split,
        "samples": [{"id": s.id, "label": s.label, "frames": s.frames.tolist()}
                    for s in ds.sequences],
    }
    with open(path, "w") as fh:  # one C-encoded string: `json.dump` encodes in Python
        fh.write(json.dumps(doc))


_JSON_TYPES = {str: "string", int: "integer", list: "array", dict: "object"}


def _field(doc, key: str, types: tuple, where: str):
    """`doc[key]`, whose JSON type must be one of `types` (a bool is not an int);
    a missing or wrongly typed field raises ValueError naming it."""
    value = doc.get(key) if type(doc) is dict else None
    if type(value) not in types:
        want = " or ".join(_JSON_TYPES[t] for t in types)
        raise ValueError(f"{where} field '{key}' is missing or not a JSON {want}")
    return value


def _sequence(doc, i: int) -> LabeledSequence:
    where = f"sample {i}"
    frames = _field(doc, "frames", (list,), where)
    try:
        frames = np.asarray(frames, dtype=np.float64)
    except (TypeError, ValueError):
        raise ValueError(f"{where} field 'frames' is not a numeric array") from None
    return LabeledSequence(frames=frames, label=_field(doc, "label", (int,), where),
                           id=str(_field(doc, "id", (str, int), where)))


def load_dataset(path: str) -> Dataset:
    """Read a dataset file; a missing or wrongly typed field, or a key repeated
    in one JSON object, raises ValueError."""
    with open(path) as fh:
        doc = json.load(fh, object_pairs_hook=unique_keys)
    topology = _field(doc, "topology", (str, dict), "dataset")
    topo, _ = load_topology(topology)
    ds = Dataset(
        topology=topology, classes=_field(doc, "classes", (list,), "dataset"),
        split=_field(doc, "split", (str,), "dataset") if "split" in doc else "train",
        sequences=[_sequence(s, i)
                   for i, s in enumerate(_field(doc, "samples", (list,), "dataset"))])
    _validate(ds, topo)
    return ds


def to_arrays(ds: Dataset, dtype=np.float32):
    """Stack into (samples, 3, frames, nodes) plus labels and ids."""
    frames = {seq.frames.shape[0] for seq in ds.sequences}
    if len(frames) != 1:
        raise ValueError(f"mixed frame counts {sorted(frames)}; resample first")
    x = np.stack([seq.frames.transpose(2, 0, 1) for seq in ds.sequences]).astype(dtype)
    y = np.array([seq.label for seq in ds.sequences], dtype=np.int64)
    ids = [seq.id for seq in ds.sequences]
    return x, y, ids


# ---------------------------------------------------------------------------
# synthetic motions


def _direction(joint_id: int) -> np.ndarray:
    theta = joint_id * 2.399963  # golden-angle spread around the tree
    z = (joint_id * 0.618034) % 1.0 * 1.2 - 0.6
    r = np.sqrt(max(1.0 - z * z, 1e-9))
    return np.array([r * np.cos(theta), r * np.sin(theta), z])


def rest_pose(topology: SkeletonTopology, bone_length: float = 0.35) -> np.ndarray:
    """Deterministic rest coordinates grown along the parent tree."""
    if topology.parents is None:
        raise ValueError(f"topology '{topology.name}' has no parent map")
    n = topology.node_count
    pos = np.zeros((n, 3))
    placed = {topology.root}
    pending = dict(topology.parents)
    while pending:
        progressed = False
        for child in sorted(pending):
            parent = pending[child]
            if parent in placed:
                pos[child - 1] = pos[parent - 1] + bone_length * _direction(child)
                placed.add(child)
                del pending[child]
                progressed = True
        if not progressed:
            raise ValueError("disconnected parent map")
    return pos


def _depths(topology: SkeletonTopology) -> dict[int, int]:
    out = {}
    for j in range(1, topology.node_count + 1):
        d, cur = 0, j
        while topology.parents is not None and cur in topology.parents:
            cur = topology.parents[cur]
            d += 1
        out[j] = d
    return out


def _class_motion(c: int, topology: SkeletonTopology):
    """Deterministic per-class motion recipe: active joints, axis, freq, phase."""
    depths = _depths(topology)
    deepest = sorted(depths, key=lambda j: (-depths[j], j))
    whole_body = c % 4 == 3
    if whole_body:
        active = list(range(1, topology.node_count + 1))
        axis = np.array([0.25, 0.1, 1.0])
    else:
        anchor = deepest[c % len(deepest)]
        active = [anchor]
        cur = anchor
        for _ in range(2):  # anchor plus two joints toward the root
            if cur in topology.parents:
                cur = topology.parents[cur]
                active.append(cur)
        axis = np.array([np.sin(1.0 + 0.9 * c), np.cos(0.4 + 0.5 * c),
                         0.4 + 0.2 * np.sin(0.3 * c)])
    axis = axis / np.linalg.norm(axis)
    freq = 1.0 + 0.5 * c
    phase = 0.9 * c
    amp = 0.15 if whole_body else 0.25
    return active, axis, freq, phase, amp


def synth_generate(classes: int, per_class: int, frames: int,
                   topology: str = "ntu25", noise: float = 0.01, seed: int = 0,
                   split: str = "train") -> Dataset:
    """Seeded synthetic dataset with `per_class` sequences per class."""
    if classes < 2:
        raise ValueError("need at least two classes")
    topo, _ = load_topology(topology)
    rest = rest_pose(topo)
    rng = np.random.default_rng(seed)
    tau = np.arange(frames) / frames
    sequences = []
    for c in range(classes):
        active, axis, freq, phase, amp = _class_motion(c, topo)
        mask = np.zeros(topo.node_count)
        mask[[j - 1 for j in active]] = 1.0
        for k in range(per_class):
            amp_jit = rng.uniform(0.9, 1.1)
            freq_jit = rng.uniform(0.98, 1.02)
            wave = amp * amp_jit * np.sin(2 * np.pi * freq * freq_jit * tau + phase)
            coords = rest[None, :, :] + wave[:, None, None] * mask[None, :, None] * axis
            if noise > 0:
                coords = coords + rng.normal(0.0, noise, size=coords.shape)
            sequences.append(LabeledSequence(frames=coords, label=c,
                                             id=f"{split}-{c:02d}-{k:03d}"))
    ds = Dataset(topology=topology, classes=[f"motion_{c}" for c in range(classes)],
                 split=split, sequences=sequences)
    _validate(ds, topo)
    return ds


def nearest_centroid_accuracy(train: Dataset, test: Dataset) -> float:
    """Baseline separability oracle on flattened coordinates."""
    xtr, ytr, _ = to_arrays(train, dtype=np.float64)
    xte, yte, _ = to_arrays(test, dtype=np.float64)
    k = train.class_count
    centroids = np.stack([xtr[ytr == c].mean(axis=0).ravel() for c in range(k)])
    flat = xte.reshape(len(yte), -1)
    dists = ((flat[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
    return float((np.argmin(dists, axis=1) == yte).mean())


# ---------------------------------------------------------------------------
# frame resampling and input streams


def resample_frames(seq: LabeledSequence, t_target: int) -> LabeledSequence:
    """Linear interpolation onto `t_target` uniformly spaced frames."""
    if t_target < 1:
        raise ValueError("t_target must be >= 1")
    t = seq.frames.shape[0]
    if t == t_target:
        return LabeledSequence(seq.frames.copy(), seq.label, seq.id)
    src = np.linspace(0.0, 1.0, t) if t > 1 else np.zeros(1)
    dst = np.linspace(0.0, 1.0, t_target) if t_target > 1 else np.zeros(1)
    flat = seq.frames.reshape(t, -1)
    out = np.empty((t_target, flat.shape[1]))
    for col in range(flat.shape[1]):
        out[:, col] = np.interp(dst, src, flat[:, col])
    return LabeledSequence(out.reshape(t_target, *seq.frames.shape[1:]),
                           seq.label, seq.id)


def resample_dataset(ds: Dataset, t_target: int) -> Dataset:
    return Dataset(ds.topology, list(ds.classes), ds.split,
                   [resample_frames(s, t_target) for s in ds.sequences])


STREAMS = ("joint", "bone", "motion")


def apply_stream(ds: Dataset, stream: str) -> Dataset:
    """Ingestion-side input transform for multi-stream training."""
    from .blocks import bone_features, motion_features
    if stream not in STREAMS:
        raise ValueError(f"stream must be one of {STREAMS}")
    if stream == "joint":
        return ds
    topo, _ = load_topology(ds.topology)
    out = []
    for seq in ds.sequences:
        x = Tensor(seq.frames.transpose(2, 0, 1)[None], dtype=np.float64)
        y = bone_features(x, topo) if stream == "bone" else motion_features(x)
        out.append(LabeledSequence(y.data[0].transpose(1, 2, 0), seq.label, seq.id))
    return Dataset(ds.topology, list(ds.classes), ds.split, out)


# ---------------------------------------------------------------------------
# score files and fusion


@dataclass
class ScoreFile:
    ids: list[str]
    labels: np.ndarray   # (samples,)
    scores: np.ndarray   # (samples, classes)

    def accuracy(self) -> float:
        # np.argmax breaks ties toward the lower class index
        return float((np.argmax(self.scores, axis=1) == self.labels).mean())


END_MARKER = "#end"  # last line of a score file: "#end,<rows>"


def save_scores(sf: ScoreFile, path: str) -> None:
    """One line per sample, `id,label,score_1,...,score_K`, then the end marker
    with the row count, so a file cut short anywhere does not load."""
    with open(path, "w") as fh:
        for i, sample_id in enumerate(sf.ids):
            row = ",".join(repr(float(v)) for v in sf.scores[i])
            fh.write(f"{sample_id},{int(sf.labels[i])},{row}\n")
        fh.write(f"{END_MARKER},{len(sf.ids)}\n")


def load_scores(path: str) -> ScoreFile:
    """A score file; a line that is not UTF-8 text, or whose label is not an
    integer in 0..K-1 for its K scores, or whose scores are not finite numbers,
    raises ValueError naming the file and the line. After the line checks, the
    file must end in a complete end-marker line whose count is its row count:
    a file cut at a line break or inside a number raises ValueError."""
    ids, labels, rows = [], [], []
    end = None  # (line number, counted rows, complete line) of the end marker
    with open(path, "rb") as fh:
        for number, raw in enumerate(fh, 1):
            try:  # UnicodeDecodeError is a ValueError
                line = raw.decode("utf-8").strip()
                if not line:
                    continue
                if end is not None:
                    raise ValueError(f"text after the end marker on line {end[0]}")
                fields = line.split(",")
                if fields[0] == END_MARKER and len(fields) == 2:
                    if not fields[1].isdigit():
                        raise ValueError(f"end marker {line!r} holds no row count")
                    end = (number, int(fields[1]), raw.endswith(b"\n"))
                    continue
                sample_id, label, *row = fields
                label, row = int(label), [float(v) for v in row]
                if not (row and 0 <= label < len(row) and np.isfinite(row).all()):
                    raise ValueError(f"need an integer label in 0..K-1 and K finite "
                                     f"scores, not {line!r}")
            except ValueError as exc:
                raise ValueError(f"{path}: line {number}: {exc}") from None
            ids.append(sample_id)
            labels.append(label)
            rows.append(row)
    if not ids:
        raise ValueError(f"{path}: empty score file")
    if end is None or not end[2]:
        raise ValueError(f"{path}: no complete '{END_MARKER},<rows>' line at the end; "
                         "the file is cut short")
    if end[1] != len(ids):
        raise ValueError(f"{path}: the end marker counts {end[1]} rows, the file holds "
                         f"{len(ids)}; the file is cut short")
    widths = {len(r) for r in rows}
    if len(widths) != 1:
        raise ValueError(f"{path}: inconsistent score vector lengths {sorted(widths)}")
    if len(set(ids)) != len(ids):
        raise ValueError(f"{path}: duplicate sample ids")
    return ScoreFile(ids, np.array(labels, dtype=np.int64), np.array(rows))


def fuse_scores(files: list[ScoreFile], weights=None) -> tuple[float, ScoreFile]:
    """Weighted per-sample sum of score vectors; returns (accuracy, fused file)."""
    if not files:
        raise ValueError("no score files to fuse")
    if weights is None:
        weights = [1.0] * len(files)
    weights = [float(w) for w in weights]
    if len(weights) != len(files):
        raise ValueError(f"{len(weights)} weights for {len(files)} score files")
    if any(w < 0 for w in weights) or sum(weights) <= 0:
        raise ValueError("weights must be nonnegative with a positive sum")
    base = files[0]
    k = base.scores.shape[1]
    id_set = set(base.ids)
    fused = np.zeros_like(base.scores, dtype=np.float64)
    for sf, w in zip(files, weights):
        if sf.scores.shape[1] != k:
            raise ValueError(f"class count mismatch: {sf.scores.shape[1]} vs {k}")
        if set(sf.ids) != id_set:
            raise ValueError("score files cover different sample ids")
        index = {sid: i for i, sid in enumerate(sf.ids)}
        perm = [index[sid] for sid in base.ids]
        if not np.array_equal(sf.labels[perm], base.labels):
            raise ValueError("score files disagree on sample labels")
        fused += w * sf.scores[perm]
    out = ScoreFile(list(base.ids), base.labels.copy(), fused)
    return out.accuracy(), out
