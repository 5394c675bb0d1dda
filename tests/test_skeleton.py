"""Topologies, partition stages, assignment matrices, adjacency coarsening."""

import numpy as np
import pytest

from skelpool.skeleton import (PartitionScheme, SkeletonTopology, build_assignment,
                               builtin_partition, builtin_topology, coarsen_adjacency,
                               coarsen_pattern, json_field, normalize_pattern,
                               normalized_adjacency, parse_topology, raw_adjacency,
                               stage_matrices, topology_doc)


class TestBuiltins:
    def test_ntu25_is_a_25_joint_tree(self):
        topo = builtin_topology("ntu25")
        assert topo.node_count == 25
        assert len(topo.edges) == 24
        assert topo.root == 21

    def test_uwa15_is_a_15_joint_tree(self):
        topo = builtin_topology("uwa15")
        assert topo.node_count == 15
        assert len(topo.edges) == 14

    @pytest.mark.parametrize("name,counts", [
        ("ntu25", [25, 10, 5, 2]),
        ("uwa15", [15, 10, 5, 2]),
    ])
    def test_stage_node_trajectories(self, name, counts):
        assert builtin_partition(name).node_counts == counts

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown topology"):
            builtin_topology("nope")


def test_toy_topology_round_trips_through_document():
    topo = SkeletonTopology(name="pair", node_count=2, edges=((1, 2),), parents={2: 1})
    back, scheme = parse_topology(topology_doc(topo))
    assert back == topo and scheme is None

    part = PartitionScheme(name="pair", node_count=2, stages=((((1, 2), 1),),))
    back2, scheme2 = parse_topology(topology_doc(topo, part))
    assert back2 == topo and scheme2.stages == part.stages


class TestTopologyValidation:
    def test_duplicate_edge(self):
        with pytest.raises(ValueError, match="duplicate"):
            SkeletonTopology("t", 3, ((1, 2), (2, 1)))

    def test_self_edge(self):
        with pytest.raises(ValueError, match="self-edge"):
            SkeletonTopology("t", 3, ((2, 2),))

    def test_dangling_id(self):
        with pytest.raises(ValueError, match="outside"):
            SkeletonTopology("t", 3, ((1, 4),))

    def test_cyclic_parent_map(self):
        with pytest.raises(ValueError, match="cyclic"):
            SkeletonTopology("t", 3, ((1, 2), (2, 3)), parents={2: 3, 3: 2})

    def test_parent_map_needs_single_root(self):
        with pytest.raises(ValueError, match="root"):
            SkeletonTopology("t", 3, ((1, 2), (2, 3)), parents={1: 2, 2: 1, 3: 2})


class TestNormalizedAdjacency:
    def test_single_node_is_identity(self):
        topo = SkeletonTopology("one", 1, ())
        assert np.array_equal(normalized_adjacency(topo), [[1.0]])

    def test_two_node_path_is_all_half(self):
        topo = SkeletonTopology("pair", 2, ((1, 2),))
        assert np.allclose(normalized_adjacency(topo), 0.5)

    def test_three_node_path_matches_hand_computation(self):
        topo = SkeletonTopology("path3", 3, ((1, 2), (2, 3)))
        s6 = 1.0 / np.sqrt(6.0)
        expected = np.array([[0.5, s6, 0.0],
                             [s6, 1.0 / 3.0, s6],
                             [0.0, s6, 0.5]])
        assert np.allclose(normalized_adjacency(topo), expected, atol=1e-12)


class TestAssignment:
    def test_ntu25_first_stage_shape_and_overlap(self):
        stage = list(builtin_partition("ntu25").stages[0])
        p = build_assignment(25, stage)
        assert p.shape == (25, 10)
        # joint 21 belongs to both region 1 and region 2
        assert np.array_equal(np.nonzero(p[20])[0], [0, 1])
        assert (p.sum(axis=1) >= 1).all() and (p.sum(axis=0) >= 1).all()

    def test_ntu25_third_stage_rows(self):
        p = build_assignment(5, list(builtin_partition("ntu25").stages[2]))
        expected = np.zeros((5, 2))
        expected[[0, 1, 2], 0] = 1
        expected[[3, 4], 1] = 1
        assert np.array_equal(p, expected)

    def test_identity_scheme_yields_identity(self):
        rows = [((j,), j) for j in range(1, 5)]
        assert np.array_equal(build_assignment(4, rows), np.eye(4))

    def test_empty_region_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            build_assignment(2, [((), 1), ((1, 2), 2)])

    def test_uncovered_joint_rejected(self):
        with pytest.raises(ValueError, match="no region"):
            build_assignment(3, [((1, 2), 1)])

    def test_non_contiguous_region_ids_rejected(self):
        with pytest.raises(ValueError, match="contiguous"):
            build_assignment(2, [((1,), 1), ((2,), 3)])


class TestCoarsening:
    def test_identity_assignment_keeps_adjacency(self):
        topo = SkeletonTopology("path3", 3, ((1, 2), (2, 3)))
        adj = normalized_adjacency(topo)
        assert np.allclose(coarsen_adjacency(adj, np.eye(3)), adj)

    def test_single_region_collapses_to_identity(self):
        topo = SkeletonTopology("path3", 3, ((1, 2), (2, 3)))
        p = np.ones((3, 1))
        assert np.array_equal(coarsen_adjacency(raw_adjacency(topo), p), [[1.0]])

    def test_ntu25_stage1_region_adjacency_matches_brute_force(self):
        topo = builtin_topology("ntu25")
        stage = list(builtin_partition("ntu25").stages[0])
        p = build_assignment(25, stage)
        raw = raw_adjacency(topo)
        pattern = coarsen_pattern(raw, p)
        members = {new_id - 1: set(m) for m, new_id in stage}
        for j in range(10):
            for k in range(10):
                if j == k:
                    continue
                shares = bool(members[j] & members[k])
                linked = any(raw[a - 1, b - 1] for a in members[j] for b in members[k])
                assert bool(pattern[j, k]) == (shares or linked), (j, k)
        # regions 1 and 2 share joint 21
        assert pattern[0, 1] == 1.0

    @pytest.mark.parametrize("name", ["ntu25", "uwa15"])
    def test_coarse_chain_symmetric_with_positive_diagonal(self, name):
        mats = stage_matrices(builtin_topology(name), builtin_partition(name))
        assert [p.shape for p, _, _ in mats] == [(mats[0][0].shape[0], 10), (10, 5), (5, 2)]
        for _, norm, _ in mats:
            assert np.allclose(norm, norm.T)
            assert (np.diag(norm) > 0).all()

    def test_permutation_consistency(self):
        rng = np.random.default_rng(0)
        n = 6
        edges = ((1, 2), (2, 3), (3, 4), (2, 5), (5, 6))
        topo = SkeletonTopology("toy", n, edges)
        rows = [((1, 2), 1), ((3, 4), 2), ((5, 6), 3)]
        base = coarsen_adjacency(raw_adjacency(topo), build_assignment(n, rows))

        perm = rng.permutation(n) + 1  # old id -> new id
        mapped_edges = tuple(sorted((min(perm[a - 1], perm[b - 1]),
                                     max(perm[a - 1], perm[b - 1])) for a, b in edges))
        mapped_rows = [(tuple(sorted(perm[m - 1] for m in members)), new_id)
                       for members, new_id in rows]
        topo2 = SkeletonTopology("toy2", n, mapped_edges)
        other = coarsen_adjacency(raw_adjacency(topo2), build_assignment(n, mapped_rows))
        assert np.allclose(base, other)


def test_normalize_pattern_ignores_existing_diagonal():
    pattern = np.array([[5.0, 1.0], [1.0, 0.0]])
    clean = np.array([[0.0, 1.0], [1.0, 0.0]])
    assert np.array_equal(normalize_pattern(pattern), normalize_pattern(clean))


def test_partition_validation_references_previous_stage():
    with pytest.raises(ValueError, match="outside"):
        PartitionScheme(name="bad", node_count=3,
                        stages=((((1, 2, 3), 1),), (((2,), 1),)))


# (document, kinds, keyword arguments, the value read or the error it raises) for
# `json_field(document, "k", kinds, "where", **keywords)`
READER_CASES = [
    ({"k": True}, (int,), {}, ValueError("where field 'k' must be an integer, not True")),
    ({"k": 2.0}, (int,), {}, ValueError("where field 'k' must be an integer, not 2.0")),
    ({"k": "3"}, (int,), {}, ValueError("where field 'k' must be an integer, not '3'")),
    ({"k": 1}, (list,), {}, ValueError("where field 'k' must be an array, not 1")),
    ({"k": [1, 2.5]}, (tuple,), {},
     ValueError("where field 'k' must be an array of integers, not [1, 2.5]")),
    ({"k": [1, True]}, (tuple,), {},
     ValueError("where field 'k' must be an array of integers, not [1, True]")),
    ({"k": True}, (float,), {}, ValueError("where field 'k' must be a number, not True")),
    ({"k": 1}, (str, dict), {}, ValueError("where field 'k' must be a string or an object, "
                                           "not 1")),
    ({"k": None}, (str,), {"default": "x"},
     ValueError("where field 'k' must be a string, not None")),
    ({"j": 1}, (int,), {}, ValueError("where field 'k' is missing")),
    ([1, 2], (int,), {}, ValueError("where field 'k' is missing (where is not a JSON object)")),
    ({}, (int,), {"default": 7}, 7),
    ({"k": None}, (float, type(None)), {"default": 0.5}, None),
    ({"k": 3}, (float,), {}, 3),
    ({"k": False}, (bool,), {}, False),
    ({"k": [1, 2]}, (tuple,), {}, (1, 2)),
    ({"k": []}, (tuple,), {}, ()),
    ({"k": {"a": 1}}, (str, dict), {}, {"a": 1}),
]


@pytest.mark.parametrize("doc, kinds, keywords, want", READER_CASES)
def test_json_field(doc, kinds, keywords, want):
    if isinstance(want, ValueError):
        with pytest.raises(ValueError) as got:
            json_field(doc, "k", kinds, "where", **keywords)
        assert str(got.value) == str(want)
    else:
        got = json_field(doc, "k", kinds, "where", **keywords)
        assert got == want and type(got) is type(want)


def test_json_field_shortens_a_long_value():
    with pytest.raises(ValueError) as got:
        json_field({"k": list(range(10_000))}, "k", (dict,), "where")
    assert len(str(got.value)) < 100
