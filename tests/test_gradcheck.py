"""Every registered operator and composite agrees with finite differences.

Module-level runs use three seeds for speed; the acceptance suite repeats the
whole registry at ten seeds.
"""

import inspect
import re
from functools import partial

import numpy as np
import pytest

from skelpool import tensor as T
from skelpool.blocks import IsmParams, information_supplement
from skelpool.gcn import GraphConvParams, gcn_block
from skelpool.gradcheck import (_chain4, block_case, check_gradients, composite_cases,
                                operator_cases)
from skelpool.skeleton import bone_matrix, normalized_adjacency

CASES = {c.name: c for c in operator_cases() + composite_cases()}


@pytest.mark.parametrize("name", sorted(CASES))
def test_gradients_match_finite_differences(name):
    err = check_gradients(CASES[name], seeds=range(3), dtype=np.float64, eps=1e-5)
    assert err <= 1e-4, f"{name}: max relative error {err:.3e}"


@pytest.mark.parametrize("seeds", [range(0), range(-3), []])
def test_empty_seed_range_is_refused(seeds):
    # a check that ran nothing must not report error 0 as a pass
    with pytest.raises(ValueError, match="at least one seed"):
        check_gradients(CASES["tanh"], seeds=seeds)


def test_registry_covers_required_composites():
    required = {"correlation", "spatial_pool", "cross_fusion_block",
                "information_supplement", "classifier_head", "cross_entropy"}
    assert required <= set(CASES)


def test_operator_cases_run_every_public_recording_operator():
    # the ids each public function of `tensor` records, read from its `_apply` calls
    public = {name: set(re.findall(r'\b_apply\(\s*"(\w+)"', inspect.getsource(fn)))
              for name, fn in vars(T).items()
              if inspect.isfunction(fn) and fn.__module__ == T.__name__
              and not name.startswith("_")}
    operators = {name: ops for name, ops in public.items() if ops}
    assert len(operators) >= 20  # the source scan found the operator set
    run = set()
    for case in operator_cases():
        forward, _ = case.build.forward(np.random.default_rng(0), np.float64)
        with T.shape_record() as record:
            forward()
        run |= {op for _, op, _, _ in record}
    missed = sorted(name for name, ops in operators.items() if not ops <= run)
    assert not missed, f"no operator case runs {missed}"


_CHAIN4_ADJ = normalized_adjacency(_chain4())

WIDENING = {
    # c_in < c_out: the adjacency runs before the channel map
    "_widening_gcn_block": block_case(
        "widening_gcn_block", partial(GraphConvParams.init, c_in=2, c_out=5, kernel=3),
        (1, 2, 4, 4), partial(gcn_block, train=True), _CHAIN4_ADJ),
    # embedding width 5 > 3 input coordinates: both first layers widen
    "_wide_information_supplement": block_case(
        "wide_information_supplement", partial(IsmParams.init, channels=5), (1, 3, 3, 4),
        partial(information_supplement, train=True), bone_matrix(_chain4()), _CHAIN4_ADJ),
}


@pytest.mark.parametrize("name", WIDENING)
def test_widening_graph_convs_match_finite_differences(name):
    # not in the registry: `run_all` (and what it costs) keeps its cases
    err = check_gradients(WIDENING[name], seeds=range(10), dtype=np.float64, eps=1e-5)
    assert err <= 1e-4, f"{name}: max relative error {err:.3e}"
