"""Cross fusion, bone and motion streams, input supplement, classifier head."""

import numpy as np
import pytest

from skelpool.blocks import (ClassifierHead, CrossFusionParams, IsmParams,
                             classifier_head, cross_fusion_block, cross_fusion_split,
                             fuse_branches, information_supplement)
from skelpool.data import Dataset, LabeledSequence, apply_stream
from skelpool.skeleton import (SkeletonTopology, bone_matrix, build_assignment,
                               builtin_partition, builtin_topology, coarsen_pattern,
                               normalize_pattern, normalized_adjacency, raw_adjacency,
                               topology_doc)
from skelpool.tensor import Tensor, shape_record


def chain(n=4):
    edges = tuple((i, i + 1) for i in range(1, n))
    parents = {i + 1: i for i in range(1, n)}
    return SkeletonTopology(f"chain{n}", n, edges, parents)


def cfb_setup(c_in=4, c_out=4, seed=0, fuse="sum", weight=0.5, dtype=np.float64):
    topo = chain(4)
    fine = Tensor(normalized_adjacency(topo).astype(dtype))
    assign_arr = build_assignment(4, [((1, 2), 1), ((3, 4), 2)])
    coarse = Tensor(normalize_pattern(
        coarsen_pattern(raw_adjacency(topo), assign_arr)).astype(dtype))
    params = CrossFusionParams.init(c_in, c_out, ratio=2, kernel=3, fuse=fuse,
                                    weight=weight, rng=np.random.default_rng(seed),
                                    dtype=dtype)
    return params, Tensor(assign_arr.astype(dtype)), coarse, fine


class TestCrossFusion:
    def test_weight_one_returns_coarse_branch(self):
        params, assign, coarse, fine = cfb_setup(weight=1.0)
        x = Tensor(np.random.default_rng(1).standard_normal((1, 4, 4, 4)))
        h, _ = cross_fusion_split(x, params, assign, coarse, fine, train=True)
        y = cross_fusion_block(x, params, assign, coarse, fine, train=True)
        assert np.allclose(y.data, h.data)

    def test_equal_branches_make_weight_irrelevant(self):
        params, assign, coarse, fine = cfb_setup()
        h = Tensor(np.random.default_rng(2).standard_normal((1, 4, 2, 2)))
        for weight in (0.0, 0.3, 1.0):
            params.weight = weight
            assert np.allclose(fuse_branches(h, h, params).data, h.data)

    def test_first_stage_shape_contract(self):
        topo = builtin_topology("ntu25")
        stage = list(builtin_partition("ntu25").stages[0])
        assign_arr = build_assignment(25, stage)
        coarse = Tensor(normalize_pattern(
            coarsen_pattern(raw_adjacency(topo), assign_arr)))
        params = CrossFusionParams.init(64, 32, ratio=4, kernel=5,
                                        rng=np.random.default_rng(3), dtype=np.float64)
        x = Tensor(np.random.default_rng(4).standard_normal((1, 64, 16, 25)))
        y = cross_fusion_block(x, params, Tensor(assign_arr),
                               coarse, Tensor(normalized_adjacency(topo)), train=True)
        assert y.shape == (1, 32, 8, 10)

    def test_sum_fusion_is_elementwise_convex(self):
        params, assign, coarse, fine = cfb_setup(weight=0.3)
        x = Tensor(np.random.default_rng(5).standard_normal((1, 4, 4, 4)))
        h, e = cross_fusion_split(x, params, assign, coarse, fine, train=True)
        y = fuse_branches(h, e, params).data
        low = np.minimum(h.data, e.data) - 1e-12
        high = np.maximum(h.data, e.data) + 1e-12
        assert (y >= low).all() and (y <= high).all()

    def test_concat_fusion_reprojects_channels(self):
        params, assign, coarse, fine = cfb_setup(fuse="concat")
        x = Tensor(np.random.default_rng(6).standard_normal((1, 4, 4, 4)))
        y = cross_fusion_block(x, params, assign, coarse, fine, train=True)
        assert y.shape == (1, 4, 2, 2)
        assert params.w_merge is not None

    def test_no_pooling_mode_keeps_resolution(self):
        params, _, _, fine = cfb_setup()
        x = Tensor(np.random.default_rng(7).standard_normal((1, 4, 4, 4)))
        y = cross_fusion_block(x, params, None, fine, fine, train=True)
        assert y.shape == (1, 4, 4, 4)

    def test_invalid_weight_rejected(self):
        with pytest.raises(ValueError, match="weight"):
            CrossFusionParams.init(4, 4, weight=1.5)


def derive(frames, stream, topology=None):
    """`apply_stream` on one (frames, joints, 3) sequence; the topology (a
    built-in name or a `SkeletonTopology`) defaults to a chain of the joints."""
    topo = topology or chain(frames.shape[1])
    doc = topo if isinstance(topo, str) else topology_doc(topo)
    ds = Dataset(doc, ["a"], "train", [LabeledSequence(frames, 0, "s")])
    return apply_stream(ds, stream).sequences[0].frames


class TestBoneFeatures:
    def test_root_joint_maps_to_zero(self):
        topo = chain(3)
        x = np.random.default_rng(8).standard_normal((2, 3, 4, 3))
        assert np.array_equal((x @ bone_matrix(topo))[:, :, :, 0], np.zeros((2, 3, 4)))
        bones = derive(x[0].transpose(1, 2, 0), "bone", topo)
        assert np.array_equal(bones[:, 0], np.zeros((4, 3)))

    def test_two_joint_chain_vector(self):
        frames = np.zeros((1, 2, 3))
        frames[0, 1] = [1.0, 1.0, 1.0]  # child at (1,1,1), root at origin
        bones = derive(frames, "bone")
        assert np.array_equal(bones[0, 1], [1.0, 1.0, 1.0])
        assert np.array_equal(bones[0, 0], [0.0, 0.0, 0.0])

    def test_translation_invariance_exact(self):
        rng = np.random.default_rng(9)
        x = rng.integers(-4, 5, size=(5, 25, 3)).astype(np.float64)
        shifted = x + 2.0  # integer-valued data keeps the difference exact
        assert np.array_equal(derive(x, "bone", "ntu25"), derive(shifted, "bone", "ntu25"))

    def test_missing_parent_map_rejected(self):
        topo = SkeletonTopology("bare", 2, ((1, 2),))
        with pytest.raises(ValueError, match="parent"):
            bone_matrix(topo)
        with pytest.raises(ValueError, match="parent"):
            derive(np.zeros((2, 2, 3)), "bone", topo)


class TestMotionFeatures:
    def test_static_sequence_is_all_zero(self):
        x = np.tile(np.random.default_rng(10).standard_normal((1, 4, 3)), (6, 1, 1))
        assert np.array_equal(derive(x, "motion"), np.zeros((6, 4, 3)))

    def test_linear_motion_gives_constant_step(self):
        t = np.arange(5.0)
        x = np.zeros((5, 2, 3))
        x[:, :, 0] = (0.5 * t)[:, None]
        out = derive(x, "motion")
        assert np.array_equal(out[:4, :, 0], np.full((4, 2), 0.5))
        assert np.array_equal(out[4], np.zeros((2, 3)))

    def test_double_application_matches_numpy_second_difference(self):
        t = np.arange(6.0)
        x = np.zeros((6, 1, 3))
        x[:, 0, 1] = t * t
        got = derive(derive(x, "motion"), "motion")[:, 0, 1]
        first = np.zeros(6)
        first[:-1] = np.diff(t * t)
        want = np.zeros(6)
        want[:-1] = np.diff(first)
        assert np.array_equal(got, want)


def supplement_setup(topo, channels, seed=0):
    """(params, bone matrix, adjacency) of an f64 input supplement on `topo`."""
    params = IsmParams.init(channels=channels, rng=np.random.default_rng(seed),
                            dtype=np.float64)
    return params, Tensor(bone_matrix(topo)), Tensor(normalized_adjacency(topo))


class TestInformationSupplement:
    def test_output_doubles_embed_channels(self):
        params, bones, adj = supplement_setup(builtin_topology("ntu25"), 32, seed=11)
        x = Tensor(np.random.default_rng(12).standard_normal((2, 3, 4, 25)))
        out = information_supplement(x, params, bones, adj, train=True)
        assert out.shape == (2, 64, 4, 25)
        assert params.out_channels == 64

    def test_zero_input_is_finite_and_deterministic(self):
        params, bones, adj = supplement_setup(chain(4), 8, seed=13)
        x = Tensor(np.zeros((1, 3, 4, 4)))
        a = information_supplement(x, params, bones, adj, train=True).data
        b = information_supplement(x, params, bones, adj, train=True).data
        assert np.isfinite(a).all() and np.array_equal(a, b)

    def test_requires_raw_coordinates(self):
        params, bones, adj = supplement_setup(chain(4), 4)
        with pytest.raises(ValueError, match="raw"):
            information_supplement(Tensor(np.zeros((1, 5, 4, 4))), params, bones, adj,
                                   train=True)

    def test_bone_stream_is_one_matmul_on_the_bone_matrix(self):
        params, bones, adj = supplement_setup(chain(4), 4, seed=14)
        x = Tensor(np.random.default_rng(15).standard_normal((1, 3, 2, 4)))
        with shape_record() as record:
            information_supplement(x, params, bones, adj, train=True)
        assert record[0][1:] == ("matmul", ((1, 3, 2, 4), (4, 4)), (1, 3, 2, 4))


class TestClassifierHead:
    def test_constant_features_flow_through_identity_weights(self):
        head = ClassifierHead.init(channels=3, classes=3, dtype=np.float64)
        head.w.assign(np.eye(3))
        x = Tensor(np.ones((2, 3, 4, 5)) * np.array([1.0, 2.0, 3.0])[None, :, None, None])
        logits = classifier_head(x, head)
        assert np.allclose(logits.data, [[1.0, 2.0, 3.0], [1.0, 2.0, 3.0]])

    def test_permutation_invariance_of_mean_pooling(self):
        rng = np.random.default_rng(16)
        head = ClassifierHead.init(channels=4, classes=5, dtype=np.float64)
        head.w.assign(rng.standard_normal((4, 5)))
        head.b.assign(rng.standard_normal(5))
        # eighths are exact in binary floating point: permutation-exact sums
        x = rng.integers(-8, 9, size=(2, 4, 3, 6)).astype(np.float64) / 8.0
        base = classifier_head(Tensor(x), head).data
        shuffled = x[:, :, rng.permutation(3), :][:, :, :, rng.permutation(6)]
        assert np.array_equal(base, classifier_head(Tensor(shuffled), head).data)

    def test_zero_initialization_gives_uniform_logits(self):
        head = ClassifierHead.init(channels=3, classes=4, dtype=np.float64)
        x = Tensor(np.random.default_rng(17).standard_normal((2, 3, 4, 5)))
        assert np.array_equal(classifier_head(x, head).data, np.zeros((2, 4)))
