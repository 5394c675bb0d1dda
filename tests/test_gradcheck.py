"""Every registered operator and composite agrees with finite differences.

Module-level runs use three seeds for speed; the acceptance suite repeats the
whole registry at ten seeds.
"""

import numpy as np
import pytest

from skelpool import tensor as T
from skelpool.blocks import IsmParams, information_supplement
from skelpool.gcn import GraphConvParams, gcn_block
from skelpool.gradcheck import (CheckCase, _chain4, check_gradients, composite_cases,
                                operator_cases)
from skelpool.skeleton import normalized_adjacency
from skelpool.tensor import Parameter, Tensor, named_leaves

CASES = {c.name: c for c in operator_cases() + composite_cases()}


@pytest.mark.parametrize("name", sorted(CASES))
def test_gradients_match_finite_differences(name):
    err = check_gradients(CASES[name], seeds=range(3), dtype=np.float64, eps=1e-5)
    assert err <= 1e-4, f"{name}: max relative error {err:.3e}"


def test_registry_covers_required_composites():
    required = {"correlation", "spatial_pool", "cross_fusion_block",
                "information_supplement", "classifier_head", "cross_entropy"}
    assert required <= set(CASES)


def _chain4_adjacency(dtype):
    return _chain4(), Tensor(normalized_adjacency(_chain4()).astype(dtype))


def _widening_gcn_block(rng, dtype):
    # c_in < c_out: the adjacency runs before the channel map
    _, adj = _chain4_adjacency(dtype)
    params = GraphConvParams.init(c_in=2, c_out=5, kernel=3, rng=rng, dtype=dtype)
    x = Tensor(rng.standard_normal((1, 2, 4, 4)).astype(dtype))
    w = Tensor(rng.standard_normal((1, 5, 4, 4)).astype(dtype))
    return (lambda: T.tsum(T.mul(gcn_block(x, params, adj, train=True), w))), \
        [x] + [t for _, t in named_leaves(params, "gcn", Parameter)]


def _wide_information_supplement(rng, dtype):
    # embedding width 5 > 3 input coordinates: both first layers widen
    topo, adj = _chain4_adjacency(dtype)
    params = IsmParams.init(channels=5, rng=rng, dtype=dtype)
    x = Tensor(rng.standard_normal((1, 3, 3, 4)).astype(dtype))
    w = Tensor(rng.standard_normal((1, 10, 3, 4)).astype(dtype))
    return (lambda: T.tsum(T.mul(information_supplement(x, params, topo, adj, train=True),
                                 w))), \
        [x] + [t for _, t in named_leaves(params, "ism", Parameter)]


@pytest.mark.parametrize("build", [_widening_gcn_block, _wide_information_supplement])
def test_widening_graph_convs_match_finite_differences(build):
    # not in the registry: `run_all` (and what it costs) keeps its cases
    err = check_gradients(CheckCase(build.__name__, build), seeds=range(10),
                          dtype=np.float64, eps=1e-5)
    assert err <= 1e-4, f"{build.__name__}: max relative error {err:.3e}"
