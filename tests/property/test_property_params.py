"""Hypothesis property tests for the state-dict oracle's utilities."""

import os
import sys

import numpy as np
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

# The state-dict aggregation paths, the oracle the row engine is held to.
sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "core"))
from _dict_oracle import (  # noqa: E402
    flatten_state_dict,
    tree_map,
    unflatten_state_dict,
    weighted_average,
    zeros_like_state,
)

finite = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False, width=64
)


def state_dicts(min_keys=1, max_keys=4, max_side=4):
    """Strategy producing a state dict of float64 arrays."""

    @st.composite
    def build(draw):
        n_keys = draw(st.integers(min_keys, max_keys))
        state = {}
        for i in range(n_keys):
            shape = tuple(
                draw(st.lists(st.integers(1, max_side), min_size=1, max_size=3))
            )
            state[f"k{i}"] = draw(
                hnp.arrays(np.float64, shape, elements=finite)
            )
        return state

    return build()


class TestFlattenRoundtrip:
    @given(state=state_dicts())
    @settings(max_examples=40, deadline=None)
    def test_roundtrip_identity(self, state):
        flat = flatten_state_dict(state)
        back = unflatten_state_dict(flat, state)
        for k in state:
            np.testing.assert_array_equal(back[k], state[k])

    @given(state=state_dicts())
    @settings(max_examples=40, deadline=None)
    def test_flat_length_is_total_size(self, state):
        flat = flatten_state_dict(state)
        assert flat.size == sum(v.size for v in state.values())

    @given(state=state_dicts())
    @settings(max_examples=20, deadline=None)
    def test_key_order_independent(self, state):
        reversed_state = dict(reversed(list(state.items())))
        np.testing.assert_array_equal(
            flatten_state_dict(state), flatten_state_dict(reversed_state)
        )


class TestWeightedAverage:
    @given(state=state_dicts(), n=st.integers(2, 5))
    @settings(max_examples=30, deadline=None)
    def test_average_of_identical_is_identity(self, state, n):
        out = weighted_average([state] * n)
        for k in state:
            np.testing.assert_allclose(out[k], state[k], rtol=1e-9, atol=1e-9)

    @given(
        state=state_dicts(max_keys=2, max_side=3),
        weights=st.lists(st.floats(0.1, 10.0), min_size=2, max_size=2),
    )
    @settings(max_examples=30, deadline=None)
    def test_bounded_by_extremes(self, state, weights):
        other = {k: v + 1.0 for k, v in state.items()}
        out = weighted_average([state, other], weights)
        for k in state:
            lo = np.minimum(state[k], other[k]) - 1e-9
            hi = np.maximum(state[k], other[k]) + 1e-9
            assert (out[k] >= lo).all() and (out[k] <= hi).all()

    @given(state=state_dicts(max_keys=2, max_side=3))
    @settings(max_examples=20, deadline=None)
    def test_weight_normalisation(self, state):
        a = weighted_average([state, state], [1.0, 1.0])
        b = weighted_average([state, state], [10.0, 10.0])
        for k in state:
            np.testing.assert_allclose(a[k], b[k], rtol=1e-9)


class TestTreeMap:
    @given(state=state_dicts(max_keys=3, max_side=3))
    @settings(max_examples=30, deadline=None)
    def test_subtraction_of_self_is_zero(self, state):
        out = tree_map(lambda a, b: a - b, state, state)
        for k in state:
            np.testing.assert_array_equal(out[k], np.zeros_like(state[k]))

    @given(state=state_dicts(max_keys=2, max_side=3))
    @settings(max_examples=20, deadline=None)
    def test_zeros_like(self, state):
        zeros = zeros_like_state(state)
        for k in state:
            assert zeros[k].shape == state[k].shape
            assert (zeros[k] == 0).all()
