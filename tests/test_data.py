"""Dataset files, synthetic generation, resampling, streams, score fusion."""

import io
import json

import numpy as np
import pytest

from skelpool.data import (Dataset, LabeledSequence, ScoreFile, apply_stream,
                           fuse_scores, load_dataset, load_scores,
                           nearest_centroid_accuracy, resample_dataset,
                           resample_frames, rest_pose, save_dataset, save_scores,
                           synth_generate, to_arrays)
from skelpool.skeleton import builtin_topology


class TestDatasetIO:
    def test_round_trip_is_bitwise_on_coordinates(self, tmp_path):
        ds = synth_generate(3, 2, 10, "uwa15", noise=0.02, seed=1)
        path = tmp_path / "d.json"
        save_dataset(ds, str(path))
        back = load_dataset(str(path))
        assert back.classes == ds.classes and back.topology == ds.topology
        for a, b in zip(ds.sequences, back.sequences):
            assert a.id == b.id and a.label == b.label
            assert np.array_equal(a.frames, b.frames)

    def test_file_bytes_equal_streamed_json_dump(self, tmp_path):
        ds = synth_generate(3, 2, 10, "uwa15", noise=0.02, seed=1)
        path = tmp_path / "d.json"
        save_dataset(ds, str(path))
        streamed = io.StringIO()
        json.dump({"topology": ds.topology, "classes": ds.classes, "split": ds.split,
                   "samples": [{"id": s.id, "label": s.label, "frames": s.frames.tolist()}
                               for s in ds.sequences]}, streamed)
        assert path.read_bytes() == streamed.getvalue().encode()

    def test_empty_dataset_rejected(self, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text(json.dumps({"topology": "uwa15", "classes": ["a", "b"],
                                    "split": "train", "samples": []}))
        with pytest.raises(ValueError, match="empty dataset"):
            load_dataset(str(path))

    def test_unknown_topology_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"topology": "mars9", "classes": ["a", "b"],
                                    "samples": [{"id": "s", "label": 0,
                                                 "frames": [[[0, 0, 0]]]}]}))
        with pytest.raises(ValueError, match="unknown topology"):
            load_dataset(str(path))

    def test_ragged_node_count_rejected(self, tmp_path):
        frames = np.zeros((2, 3, 3)).tolist()  # uwa15 needs 15 joints
        path = tmp_path / "ragged.json"
        path.write_text(json.dumps({"topology": "uwa15", "classes": ["a", "b"],
                                    "samples": [{"id": "s", "label": 0,
                                                 "frames": frames}]}))
        with pytest.raises(ValueError, match="joints"):
            load_dataset(str(path))

    def test_bad_label_rejected(self, tmp_path):
        frames = np.zeros((2, 15, 3)).tolist()
        path = tmp_path / "lbl.json"
        path.write_text(json.dumps({"topology": "uwa15", "classes": ["a", "b"],
                                    "samples": [{"id": "s", "label": 5,
                                                 "frames": frames}]}))
        with pytest.raises(ValueError, match="label"):
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
            assert np.allclose(out.frames[:, j - 1], want, atol=1e-12)

    def test_motion_stream_matches_frame_differences(self):
        ds = synth_generate(2, 1, 5, "uwa15", noise=0.0, seed=8)
        motion = apply_stream(ds, "motion")
        seq, out = ds.sequences[0], motion.sequences[0]
        assert np.allclose(out.frames[:-1], np.diff(seq.frames, axis=0), atol=1e-12)
        assert np.allclose(out.frames[-1], 0.0)

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
