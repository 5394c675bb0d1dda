"""Dataset files, synthetic generation, resampling, streams, score fusion."""

import json
import re
import struct

import numpy as np
import pytest

from skelpool.data import (Dataset, LabeledSequence, ScoreFile, apply_stream,
                           fuse_scores, load_dataset, load_scores,
                           nearest_centroid_accuracy, resample_dataset,
                           resample_frames, rest_pose, save_dataset, save_scores,
                           synth_generate, to_arrays)
from skelpool.skeleton import builtin_topology, topology_doc


def _saved(tmp_path, ids=("s",)):
    """A saved uwa15 dataset of 2-frame zero-coordinate samples with these ids."""
    path = tmp_path / "data.skds"
    save_dataset(Dataset("uwa15", ["a", "b"], "train", [
        LabeledSequence(np.zeros((2, 15, 3)), 0, i) for i in ids]), str(path))
    return path


class TestDatasetIO:
    def test_round_trip_is_bitwise_on_coordinates(self, tmp_path):
        ds = synth_generate(3, 2, 10, "uwa15", noise=0.02, seed=1)
        path = tmp_path / "data.json"  # the benchmark's name: the format ignores it
        save_dataset(ds, str(path))
        back = load_dataset(str(path))
        assert back.classes == ds.classes and back.topology == ds.topology
        for a, b in zip(ds.sequences, back.sequences):
            assert a.id == b.id and a.label == b.label
            assert a.frames.tobytes() == b.frames.tobytes()
            assert b.frames.dtype == np.float64 and b.frames.flags.writeable

    def test_file_bytes_are_the_container_layout(self, tmp_path):
        ds = synth_generate(3, 1, 6, "uwa15", noise=0.02, seed=2)
        short = LabeledSequence(resample_frames(ds.sequences[0], 4).frames, 1, "short")
        ds = Dataset(topology_doc(builtin_topology("uwa15")), ds.classes, "test",
                     ds.sequences + [short])
        path = tmp_path / "d.skds"
        save_dataset(ds, str(path))
        header = json.dumps({"classes": ds.classes, "samples": [
            {"frames": len(s.frames), "id": s.id, "label": s.label} for s in ds.sequences],
            "split": "test", "topology": ds.topology}, sort_keys=True).encode()
        coords = b"".join(s.frames.astype("<f8").tobytes() for s in ds.sequences)
        assert path.read_bytes() == (b"SKDS" + struct.pack("<IQ", 1, len(header)) + header
                                     + coords)

    def test_empty_dataset_rejected(self, tmp_path, change_header):
        with pytest.raises(ValueError, match="empty dataset"):
            save_dataset(Dataset("uwa15", ["a", "b"], "train", []),
                         str(tmp_path / "empty.skds"))
        path = _saved(tmp_path)
        change_header(path, path, lambda doc: doc.update(samples=[]))
        with pytest.raises(ValueError, match="empty dataset"):
            load_dataset(str(path))

    def test_unknown_topology_rejected(self, tmp_path, change_header):
        path = _saved(tmp_path)
        change_header(path, path, lambda doc: doc.update(topology="mars9"))
        with pytest.raises(ValueError, match="unknown topology"):
            load_dataset(str(path))

    def test_ragged_node_count_rejected(self, tmp_path, change_header):
        ragged = LabeledSequence(np.zeros((2, 3, 3)), 0, "s")  # uwa15 needs 15 joints
        with pytest.raises(ValueError, match="joints"):
            save_dataset(Dataset("uwa15", ["a", "b"], "train", [ragged]),
                         str(tmp_path / "ragged.skds"))
        path = _saved(tmp_path)  # 15 joints, read as ntu25's 25
        change_header(path, path, lambda doc: doc.update(topology="ntu25"))
        with pytest.raises(ValueError, match=re.escape(f"{path}: truncated dataset")):
            load_dataset(str(path))

    def test_bad_label_rejected(self, tmp_path, change_header):
        path = _saved(tmp_path)
        change_header(path, path, lambda doc: doc["samples"][0].update(label=5))
        with pytest.raises(ValueError, match="label"):
            load_dataset(str(path))

    @pytest.mark.parametrize("label", [True, 1.0], ids=["bool", "float"])
    def test_a_label_that_is_not_an_integer_is_rejected_before_writing(self, tmp_path,
                                                                       label):
        path = tmp_path / "data.skds"
        with pytest.raises(ValueError, match=re.escape(
                f"sample 's': label {label!r} is not an integer in 0..1")):
            save_dataset(Dataset("uwa15", ["a", "b"], "train", [
                LabeledSequence(np.zeros((2, 15, 3)), label, "s")]), str(path))
        assert not path.exists()

    def test_a_numpy_integer_label_reads_back_as_an_int(self, tmp_path):
        path = tmp_path / "data.skds"
        save_dataset(Dataset("uwa15", ["a", "b"], "train", [
            LabeledSequence(np.zeros((2, 15, 3)), np.int64(1), "s")]), str(path))
        label = load_dataset(str(path)).sequences[0].label
        assert type(label) is int and label == 1

    @pytest.mark.parametrize("count", [0, -2])
    def test_a_frame_count_below_one_is_rejected(self, tmp_path, change_header, count):
        path = _saved(tmp_path)
        change_header(path, path, lambda doc: doc["samples"][0].update(frames=count))
        with pytest.raises(ValueError, match=re.escape(
                f"{path}: sample 0 field 'frames' must be a positive integer, not {count}")):
            load_dataset(str(path))

    @pytest.mark.parametrize("ids, bad", [
        (["s", "s"], "s"), (["s", "a,b"], "a,b"), (["s", "a\nb"], "a\nb"),
        (["s", "a\rb"], "a\rb"), (["s", " a"], " a"), (["s", "a\t"], "a\t")],
        ids=["repeated", "comma", "newline", "return", "leading-space", "trailing-tab"])
    def test_an_id_that_a_score_line_cannot_hold_is_rejected(self, tmp_path, change_header,
                                                             ids, bad):
        with pytest.raises(ValueError, match=re.escape(f"sample {bad!r}: ")):
            save_dataset(Dataset("uwa15", ["a", "b"], "train", [
                LabeledSequence(np.zeros((2, 15, 3)), 0, i) for i in ids]), str(tmp_path / "x"))
        path = _saved(tmp_path, ids=[f"id{i}" for i in range(len(ids))])
        change_header(path, path, lambda doc: [
            sample.update(id=i) for sample, i in zip(doc["samples"], ids)])
        with pytest.raises(ValueError, match=re.escape(f"{path}: sample {bad!r}: ")):
            load_dataset(str(path))

    def test_an_integer_id_is_rejected(self, tmp_path, change_header):
        path = _saved(tmp_path, ids=["s", "t"])
        change_header(path, path, lambda doc: doc["samples"][0].update(id=1))
        with pytest.raises(ValueError, match=re.escape(
                f"{path}: sample 0 field 'id' must be a string, not 1")):
            load_dataset(str(path))


class TestSynthGenerate:
    def test_same_seed_reproduces_exactly(self):
        a = synth_generate(4, 3, 12, "ntu25", noise=0.05, seed=9)
        b = synth_generate(4, 3, 12, "ntu25", noise=0.05, seed=9)
        for sa, sb in zip(a.sequences, b.sequences):
            assert np.array_equal(sa.frames, sb.frames)

    def test_per_class_counts_exact(self):
        ds = synth_generate(5, 7, 8, "uwa15", seed=0)
        assert ds.histogram() == [7] * 5
        assert len(ds.sequences) == 35

    def test_noise_free_classes_separate_under_nearest_centroid(self):
        train = synth_generate(2, 10, 16, "ntu25", noise=0.0, seed=3)
        test = synth_generate(2, 10, 16, "ntu25", noise=0.0, seed=4, split="test")
        assert nearest_centroid_accuracy(train, test) >= 0.95

    def test_default_specs_stay_separable(self):
        for topology in ("ntu25", "uwa15"):
            train = synth_generate(8, 6, 16, topology, noise=0.0, seed=5)
            test = synth_generate(8, 4, 16, topology, noise=0.0, seed=6, split="test")
            assert nearest_centroid_accuracy(train, test) >= 0.95, topology

    def test_rest_pose_places_every_joint(self):
        pose = rest_pose(builtin_topology("ntu25"))
        assert pose.shape == (25, 3)
        diffs = pose[:, None, :] - pose[None, :, :]
        dist = np.linalg.norm(diffs, axis=2) + np.eye(25)
        assert dist.min() > 1e-3  # no two joints collapse


class TestResample:
    def test_matching_length_is_identity(self):
        seq = LabeledSequence(np.random.default_rng(0).standard_normal((10, 4, 3)),
                              0, "s")
        out = resample_frames(seq, 10)
        assert np.array_equal(out.frames, seq.frames)

    def test_constant_sequence_stays_constant(self):
        seq = LabeledSequence(np.ones((5, 3, 3)) * 2.5, 0, "s")
        assert np.allclose(resample_frames(seq, 13).frames, 2.5)

    def test_linear_trajectory_resamples_exactly(self):
        t = np.linspace(0.0, 1.0, 30)
        frames = np.zeros((30, 2, 3))
        frames[:, 0, 0] = 3.0 * t - 1.0
        frames[:, 1, 2] = -0.5 * t
        out = resample_frames(LabeledSequence(frames, 0, "s"), 64).frames
        t64 = np.linspace(0.0, 1.0, 64)
        assert np.abs(out[:, 0, 0] - (3.0 * t64 - 1.0)).max() <= 1e-9
        assert np.abs(out[:, 1, 2] - (-0.5 * t64)).max() <= 1e-9

    def test_endpoints_preserved(self):
        frames = np.random.default_rng(1).standard_normal((9, 2, 3))
        out = resample_frames(LabeledSequence(frames, 0, "s"), 17).frames
        assert np.allclose(out[0], frames[0]) and np.allclose(out[-1], frames[-1])


class TestStreams:
    def test_bone_stream_matches_parent_differences(self):
        ds = synth_generate(2, 2, 6, "uwa15", noise=0.0, seed=7)
        bones = apply_stream(ds, "bone")
        topo = builtin_topology("uwa15")
        seq, out = ds.sequences[0], bones.sequences[0]
        for j in range(1, 16):
            parent = topo.parents.get(j)
            want = np.zeros((6, 3)) if parent is None \
                else seq.frames[:, j - 1] - seq.frames[:, parent - 1]
            assert np.array_equal(out.frames[:, j - 1], want)

    def test_motion_stream_matches_frame_differences(self):
        ds = synth_generate(2, 1, 5, "uwa15", noise=0.0, seed=8)
        motion = apply_stream(ds, "motion")
        seq, out = ds.sequences[0], motion.sequences[0]
        assert np.array_equal(out.frames[:-1], np.diff(seq.frames, axis=0))
        assert np.array_equal(out.frames[-1], np.zeros((15, 3)))

    def test_joint_stream_is_passthrough(self):
        ds = synth_generate(2, 1, 5, "uwa15", seed=9)
        assert apply_stream(ds, "joint") is ds

    def test_unknown_stream_rejected(self):
        ds = synth_generate(2, 1, 5, "uwa15", seed=10)
        with pytest.raises(ValueError, match="stream"):
            apply_stream(ds, "flow")


def make_scores(ids, labels, scores):
    return ScoreFile(list(ids), np.asarray(labels), np.asarray(scores, dtype=float))


class TestFuseScores:
    def test_single_file_weight_one_keeps_accuracy(self):
        sf = make_scores(["a", "b", "c"], [0, 1, 0],
                         [[0.9, 0.1], [0.2, 0.8], [0.4, 0.6]])
        acc, fused = fuse_scores([sf], [1.0])
        assert acc == sf.accuracy() == pytest.approx(2 / 3)
        assert np.array_equal(fused.scores, sf.scores)

    def test_two_identical_files_keep_accuracy(self):
        sf = make_scores(["a", "b"], [0, 1], [[0.6, 0.4], [0.7, 0.3]])
        acc, _ = fuse_scores([sf, sf])
        assert acc == sf.accuracy()

    def test_positive_rescaling_invariance(self):
        rng = np.random.default_rng(11)
        labels = rng.integers(0, 4, 20)
        files = [make_scores([f"s{i}" for i in range(20)], labels,
                             rng.random((20, 4))) for _ in range(3)]
        acc1, fused1 = fuse_scores(files, [1.0, 2.0, 0.5])
        acc2, fused2 = fuse_scores(files, [3.0, 6.0, 1.5])
        assert acc1 == acc2
        assert np.array_equal(np.argmax(fused1.scores, 1), np.argmax(fused2.scores, 1))

    def test_alignment_by_id_across_orderings(self):
        a = make_scores(["x", "y"], [0, 1], [[1.0, 0.0], [0.0, 1.0]])
        b = make_scores(["y", "x"], [1, 0], [[0.0, 1.0], [1.0, 0.0]])
        acc, fused = fuse_scores([a, b])
        assert acc == 1.0
        assert np.array_equal(fused.scores, 2 * a.scores)

    def test_id_mismatch_rejected(self):
        a = make_scores(["x"], [0], [[1.0, 0.0]])
        b = make_scores(["z"], [0], [[1.0, 0.0]])
        with pytest.raises(ValueError, match="ids"):
            fuse_scores([a, b])

    def test_class_count_mismatch_rejected(self):
        a = make_scores(["x"], [0], [[1.0, 0.0]])
        b = make_scores(["x"], [0], [[1.0, 0.0, 0.0]])
        with pytest.raises(ValueError, match="class count"):
            fuse_scores([a, b])

    def test_label_disagreement_rejected(self):
        a = make_scores(["x"], [0], [[1.0, 0.0]])
        b = make_scores(["x"], [1], [[1.0, 0.0]])
        with pytest.raises(ValueError, match="labels"):
            fuse_scores([a, b])

    def test_bad_weights_rejected(self):
        a = make_scores(["x"], [0], [[1.0, 0.0]])
        with pytest.raises(ValueError, match="weights"):
            fuse_scores([a], [-1.0])
        with pytest.raises(ValueError, match="weights"):
            fuse_scores([a], [0.0])
        for weight in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="weights must be finite"):
                fuse_scores([a], [weight])

    def test_argmax_ties_break_toward_lower_index(self):
        sf = make_scores(["a"], [0], [[0.5, 0.5]])
        assert sf.accuracy() == 1.0


def test_score_file_round_trip(tmp_path):
    sf = make_scores(["a", "b"], [0, 1], [[0.25, 0.75], [0.5, 0.5]])
    path = tmp_path / "scores.csv"
    save_scores(sf, str(path))
    back = load_scores(str(path))
    assert back.ids == sf.ids
    assert np.array_equal(back.labels, sf.labels)
    assert np.array_equal(back.scores, sf.scores)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_score_rows_are_the_repr_of_each_value(tmp_path, dtype):
    f32 = np.finfo(np.float32)
    row = np.array([-0.0, f32.smallest_subnormal, f32.max, 0.1], dtype=dtype)
    sf = ScoreFile(["a"], np.array([0]), row[None])
    path = tmp_path / "scores.csv"
    save_scores(sf, str(path))
    want = ",".join(repr(float(v)) for v in row)  # each numpy scalar as a Python float
    assert path.read_text() == f"a,0,{want}\n#end,1\n"
    back = load_scores(str(path)).scores[0]
    assert back.tobytes() == row.astype(np.float64).tobytes()  # -0.0 keeps its sign


class TestScoreFileEndMarker:
    def _saved(self, tmp_path):
        path = tmp_path / "scores.csv"
        save_scores(make_scores(["a", "b"], [0, 1], [[0.25, 0.75], [0.5, 0.5]]), str(path))
        return path, path.read_bytes()

    def test_last_line_counts_the_rows(self, tmp_path):
        _, raw = self._saved(tmp_path)
        assert raw.endswith(b"b,1,0.5,0.5\n#end,2\n")

    @pytest.mark.parametrize("cut, message", [
        pytest.param(lambda raw: raw[:-1], "no complete", id="marker-line-break"),
        pytest.param(lambda raw: raw[:-2], "line 3: end marker '#end,' holds no row count",
                     id="marker-count"),
        pytest.param(lambda raw: raw[: raw.index(b"#end")], "no complete",
                     id="line-break-before-marker"),
        pytest.param(lambda raw: raw[: raw.index(b"#end") - 3], "no complete",
                     id="last-number"),  # the last score 0.5 becomes 0
        pytest.param(lambda raw: raw.replace(b"#end,2", b"#end,3"),
                     "counts 3 rows, the file holds 2", id="wrong-count"),
    ])
    def test_file_cut_short_is_rejected(self, tmp_path, cut, message):
        path, raw = self._saved(tmp_path)
        path.write_bytes(cut(raw))
        with pytest.raises(ValueError, match=message):
            load_scores(str(path))

    def test_text_after_the_marker_is_rejected_naming_its_line(self, tmp_path):
        path, raw = self._saved(tmp_path)
        path.write_bytes(raw + b"c,0,0.5,0.5\n")
        with pytest.raises(ValueError, match="line 4: text after the end marker on line 3"):
            load_scores(str(path))


def test_to_arrays_stacks_and_validates():
    ds = synth_generate(2, 2, 6, "uwa15", seed=12)
    x, y, ids = to_arrays(ds, dtype=np.float32)
    assert x.shape == (4, 3, 6, 15) and x.dtype == np.float32
    assert y.tolist() == [0, 0, 1, 1] and len(ids) == 4

    mixed = Dataset(ds.topology, list(ds.classes), ds.split,
                    [ds.sequences[0], resample_frames(ds.sequences[1], 9)])
    with pytest.raises(ValueError, match="frame counts"):
        to_arrays(mixed)
