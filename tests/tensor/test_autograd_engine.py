"""Autograd graph mechanics: accumulation, reuse, modes, errors."""

import threading

import numpy as np
import pytest

from repro.tensor import Tensor, no_grad
from repro.tensor.autograd import is_grad_enabled, set_grad_enabled


class TestGraphMechanics:
    def test_diamond_graph_accumulates_once(self):
        # x feeds two branches that re-join; each backward must run once.
        x = Tensor([2.0], requires_grad=True)
        a = x * 3.0
        b = x * 4.0
        out = a + b
        out.backward()
        np.testing.assert_allclose(x.grad, [7.0])

    def test_tensor_reused_in_same_op(self):
        x = Tensor([3.0], requires_grad=True)
        (x * x).backward()
        np.testing.assert_allclose(x.grad, [6.0])

    def test_deep_chain(self):
        x = Tensor([1.0], requires_grad=True)
        y = x
        for _ in range(50):
            y = y * 1.1
        y.backward()
        np.testing.assert_allclose(x.grad, [1.1**50], rtol=1e-5)

    def test_grad_accumulates_across_backwards(self):
        x = Tensor([1.0], requires_grad=True)
        (x * 2.0).backward()
        (x * 3.0).backward()
        np.testing.assert_allclose(x.grad, [5.0])

    def test_zero_grad_clears(self):
        x = Tensor([1.0], requires_grad=True)
        (x * 2.0).backward()
        x.zero_grad()
        assert x.grad is None

    def test_non_scalar_backward_requires_gradient(self):
        x = Tensor([[1.0, 2.0]], requires_grad=True)
        with pytest.raises(RuntimeError, match="scalar"):
            (x * 2.0).backward()

    def test_non_scalar_backward_with_explicit_grad(self):
        x = Tensor([[1.0, 2.0]], requires_grad=True)
        (x * 2.0).backward(np.array([[1.0, 10.0]]))
        np.testing.assert_allclose(x.grad, [[2.0, 20.0]])

    def test_backward_on_no_grad_tensor_raises(self):
        x = Tensor([1.0])
        with pytest.raises(RuntimeError):
            x.backward()

    def test_graph_only_tracks_required(self):
        a = Tensor([1.0], requires_grad=True)
        b = Tensor([2.0])  # constant
        out = a * b
        out.backward()
        np.testing.assert_allclose(a.grad, [2.0])
        assert b.grad is None


class TestGradientAdoption:
    """A fresh gradient handed over is adopted, never aliased across tensors."""

    def test_shared_upstream_is_copied_per_parent(self):
        w1 = Tensor(np.arange(3.0), requires_grad=True)
        w2 = Tensor(np.arange(3.0) + 1, requires_grad=True)
        (w1 + w2).sum().backward()
        np.testing.assert_array_equal(w1.grad, np.ones(3))
        np.testing.assert_array_equal(w2.grad, np.ones(3))
        assert not np.shares_memory(w1.grad, w2.grad)

    def test_same_tensor_twice_sums(self):
        w = Tensor(np.array([1.0, -2.0, 3.0]), requires_grad=True)
        (w * w).sum().backward()
        np.testing.assert_array_equal(w.grad, 2 * w.data)

    def test_adopted_then_accumulated(self):
        x = Tensor(np.array([-1.0, 0.5, 2.0]), requires_grad=True)
        (x.relu() + x).sum().backward()
        np.testing.assert_array_equal(x.grad, [1.0, 2.0, 2.0])

    def test_fresh_compact_gradient_is_adopted(self):
        x = Tensor(np.zeros((4, 6)), requires_grad=True)
        grad = np.ones((6, 4)).T  # F-ordered, compact
        x._accumulate(grad, fresh=True)
        assert x.grad is grad

    @pytest.mark.parametrize(
        "make",
        [
            lambda: np.ones((4, 12))[:, ::2],  # strided view of a larger buffer
            lambda: np.broadcast_to(np.ones(6), (4, 6)),  # read-only, stride 0
            lambda: np.ones((4, 6), dtype=np.float32),  # another dtype
        ],
        ids=["strided", "broadcast", "dtype"],
    )
    def test_other_gradients_are_copied(self, make):
        x = Tensor(np.zeros((4, 6)), requires_grad=True)
        grad = make()
        x._accumulate(grad, fresh=True)
        assert not np.shares_memory(x.grad, grad)
        assert x.grad.dtype == x.data.dtype and x.grad.flags.writeable

    def test_callers_gradient_is_never_adopted(self):
        x = Tensor(np.zeros((2, 3)), requires_grad=True)
        g = np.ones((3, 2))
        x.reshape(3, 2).backward(g)
        np.testing.assert_array_equal(x.grad, np.ones((2, 3)))
        assert not np.shares_memory(x.grad, g)

    @pytest.fixture(scope="class")
    def cnn_step_grads(self):
        from repro.models.registry import build_model
        from repro.tensor.functional import cross_entropy

        model = build_model("cnn_s", seed=0)
        rng = np.random.default_rng(0)
        x = Tensor(rng.standard_normal((6, 3, 8, 8)).astype(np.float32))
        cross_entropy(model(x), rng.integers(0, 10, size=6)).backward()
        return dict(model.named_parameters())

    def test_no_two_parameters_share_gradient_memory(self, cnn_step_grads):
        grads = [(name, p.grad) for name, p in cnn_step_grads.items()]
        for i, (a, ga) in enumerate(grads):
            for b, gb in grads[i + 1 :]:
                assert not np.shares_memory(ga, gb), (a, b)

    def test_in_place_gradient_edit_stays_local(self, cnn_step_grads):
        """SCAFFOLD's ``grad_hook`` edits ``.grad`` in place."""
        for edited, param in cnn_step_grads.items():
            before = {name: p.grad.copy() for name, p in cnn_step_grads.items()}
            param.grad += 1.0
            for name, p in cnn_step_grads.items():
                if name != edited:
                    np.testing.assert_array_equal(p.grad, before[name], err_msg=(edited, name))


class TestGradMode:
    def test_no_grad_blocks_graph(self):
        x = Tensor([1.0], requires_grad=True)
        with no_grad():
            y = x * 2.0
        assert not y.requires_grad
        assert y._backward is None

    def test_no_grad_restores_on_exception(self):
        assert is_grad_enabled()
        with pytest.raises(ValueError):
            with no_grad():
                raise ValueError("boom")
        assert is_grad_enabled()

    def test_nested_no_grad(self):
        with no_grad():
            with no_grad():
                assert not is_grad_enabled()
            assert not is_grad_enabled()
        assert is_grad_enabled()

    def test_set_grad_enabled_global(self):
        set_grad_enabled(False)
        try:
            x = Tensor([1.0], requires_grad=True)
            assert not (x * 2.0).requires_grad
        finally:
            set_grad_enabled(True)

    def test_no_grad_in_one_thread_leaves_another_recording(self):
        """The mode is per thread: an evaluation under ``no_grad`` must not
        switch off the graphs of legs training on other threads."""
        entered, checked = threading.Event(), threading.Event()
        seen = {}

        def evaluate():
            with no_grad():
                entered.set()
                seen["evaluator"] = is_grad_enabled()
                checked.wait(timeout=10)

        evaluator = threading.Thread(target=evaluate)
        evaluator.start()
        try:
            assert entered.wait(timeout=10)
            x = Tensor([1.0], requires_grad=True)
            assert is_grad_enabled()
            assert (x * 2.0).requires_grad
        finally:
            checked.set()
            evaluator.join(timeout=10)
        assert not evaluator.is_alive()
        assert seen == {"evaluator": False}


class TestTensorBasics:
    def test_detach_shares_data(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        d = x.detach()
        assert not d.requires_grad
        assert d.data is x.data

    def test_copy_is_independent(self):
        x = Tensor([1.0])
        c = x.copy()
        c.data[0] = 99.0
        assert x.data[0] == 1.0

    def test_item_rejects_multi_element(self):
        with pytest.raises(ValueError):
            Tensor([1.0, 2.0]).item()

    def test_int_input_coerced_to_float(self):
        x = Tensor([1, 2, 3])
        assert x.dtype.kind == "f"

    def test_len_and_repr(self):
        x = Tensor(np.zeros((4, 2)), requires_grad=True)
        assert len(x) == 4
        assert "requires_grad=True" in repr(x)

    def test_properties(self):
        x = Tensor(np.zeros((2, 3)))
        assert x.shape == (2, 3)
        assert x.ndim == 2
        assert x.size == 6
        assert x.T.shape == (3, 2)


class TestGradcheckMeta:
    def test_gradcheck_catches_wrong_gradient(self):
        """gradcheck itself must fail when an op's backward is wrong."""
        from repro.tensor.tensor import Tensor as T

        def buggy(x):
            out_data = x.data * 2.0

            def backward(g):
                x._accumulate(g * 3.0)  # wrong: should be 2.0

            return T._make(out_data, (x,), backward, "buggy")

        from repro.tensor import gradcheck

        with pytest.raises(AssertionError, match="gradcheck failed"):
            gradcheck(buggy, [T(np.ones((2, 2)))])

    def test_gradcheck_requires_tensor_inputs(self):
        from repro.tensor import gradcheck

        with pytest.raises(TypeError):
            gradcheck(lambda x: x, [np.ones(3)])
