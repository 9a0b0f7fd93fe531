"""The fused ``linear`` and ``cross_entropy`` nodes against the unfused graphs.

``_seed_kernels.py`` keeps the graphs these nodes replace: ``matmul`` →
``transpose`` → ``add`` for ``linear``, ``log_softmax`` → ``nll_loss``
for ``cross_entropy``.  The fused nodes issue the same NumPy calls in
the same order, and ``linear`` hands its weight gradient over where the
transpose node did, so they must agree with ``np.array_equal`` — not
``allclose`` — on the value and on every gradient, in every gradient's
dtype and memory layout.  A gradient landing in a bound ``_grad_sink``
holds the same values.  CI runs this file at the default BLAS thread
count and at ``OPENBLAS_NUM_THREADS=1``.
"""

import itertools

import numpy as np
import pytest
from _seed_kernels import (
    seed_cross_entropy,
    seed_linear,
    seed_log_softmax,
)

from repro.nn.module import Parameter
from repro.tensor import Tensor, functional as F, no_grad


def _layout(a):
    """Memory layout up to axes of length one (their strides are arbitrary)."""
    return tuple(s for s, d in zip(a.strides, a.shape) if d != 1)


def _assert_bitwise(got, want, label=""):
    assert got.keys() == want.keys()
    for name, ref in want.items():
        have = got[name]
        if ref is None:
            assert have is None, f"{label} {name}"
            continue
        assert have.dtype == ref.dtype, f"{label} {name} dtype"
        assert np.array_equal(have, ref), f"{label} {name} differs from the unfused graph"
        assert _layout(have) == _layout(ref), f"{label} {name} layout"


def _linear_case(linear, x, w, b, x_grad, g):
    xt = Tensor(x, requires_grad=x_grad)
    wt = Tensor(w, requires_grad=True)
    bt = None if b is None else Tensor(b, requires_grad=True)
    out = linear(xt, wt, bt)
    out.backward(g)
    return {
        "out": out.data,
        "grad_x": xt.grad,
        "grad_w": wt.grad,
        "grad_b": None if bt is None else bt.grad,
    }


LEAD = [(1,), (50,), (4, 6), (2, 3, 5)]  # 2-D and batched inputs
SIZES = [(768, 64), (64, 32), (32, 10), (5, 1)]


class TestLinearMatchesUnfusedGraph:
    @pytest.mark.parametrize(
        "lead,size,bias,x_grad,dtype",
        list(
            itertools.product(LEAD, SIZES, (True, False), (True, False), (np.float32, np.float64))
        ),
    )
    def test_value_and_every_gradient(self, lead, size, bias, x_grad, dtype):
        rng = np.random.default_rng(hash((lead, size)) % 2**32)
        d_in, d_out = size
        x = rng.standard_normal((*lead, d_in)).astype(dtype)
        w = (rng.standard_normal((d_out, d_in)) * 0.1).astype(dtype)
        b = rng.standard_normal(d_out).astype(dtype) if bias else None
        g = rng.standard_normal((*lead, d_out)).astype(dtype)
        _assert_bitwise(
            _linear_case(F.linear, x, w, b, x_grad, g),
            _linear_case(seed_linear, x, w, b, x_grad, g),
            f"{lead} {size} bias={bias} x_grad={x_grad} {dtype.__name__}",
        )

    @pytest.mark.parametrize("wide", ["input", "bias"])
    def test_mixed_dtypes(self, wide):
        """A float64 input or bias widens the product or the output; the
        gradients come back in each operand's own dtype, as before."""
        rng = np.random.default_rng(5)
        x = rng.standard_normal((7, 12)).astype(np.float64 if wide == "input" else np.float32)
        w = rng.standard_normal((9, 12)).astype(np.float32)
        b = rng.standard_normal(9).astype(np.float64 if wide == "bias" else np.float32)
        g = rng.standard_normal((7, 9))
        _assert_bitwise(
            _linear_case(F.linear, x, w, b, True, g),
            _linear_case(seed_linear, x, w, b, True, g),
        )

    def test_one_dimensional_input_takes_the_unfused_graph(self):
        rng = np.random.default_rng(6)
        x, w, b = rng.standard_normal(8), rng.standard_normal((3, 8)), rng.standard_normal(3)
        g = rng.standard_normal(3)
        _assert_bitwise(
            _linear_case(F.linear, x, w, b, True, g),
            _linear_case(seed_linear, x, w, b, True, g),
        )

    @pytest.mark.parametrize("steps", [2, 5])
    def test_weights_shared_across_nested_steps_sum_in_the_unfused_order(self, steps):
        """An LSTM-style recurrence: each step's hidden-state linear takes
        the previous step's output, so one weight's uses nest.  The
        unfused graph summed their gradients in its transpose nodes'
        order (first step first); the fused node's late closure keeps
        that order, where delivering at the node itself would reverse it."""

        def run(linear):
            rng = np.random.default_rng(11)
            w_ih = Tensor(rng.standard_normal((16, 6)).astype(np.float32), requires_grad=True)
            w_hh = Tensor(rng.standard_normal((16, 16)).astype(np.float32), requires_grad=True)
            b = Tensor(rng.standard_normal(16).astype(np.float32), requires_grad=True)
            inputs = [Tensor(rng.standard_normal((4, 6)).astype(np.float32)) for _ in range(steps)]
            h = Tensor(np.zeros((4, 16), dtype=np.float32))
            outs = []
            for x in inputs:
                h = (linear(x, w_ih, b) + linear(h, w_hh, b)).tanh()
                outs.append(h)
            total = outs[0].sum()
            for o in outs[1:]:
                total = total + (o * o).sum()
            total.backward()
            return {"w_ih": w_ih.grad, "w_hh": w_hh.grad, "b": b.grad, "loss": total.data}

        _assert_bitwise(run(F.linear), run(seed_linear))

    def test_a_weight_rebound_before_backward(self):
        """FedGen's teacher pass runs one model on every client's state,
        loading each into the same parameters between forwards, then
        backpropagates through all of them: each node must use the
        weight it was built with, as the unfused graph's transpose node
        did."""

        def run(linear):
            rng = np.random.default_rng(9)
            x = Tensor(rng.standard_normal((6, 5)).astype(np.float32), requires_grad=True)
            w = Parameter(np.zeros((3, 5), dtype=np.float32))
            b = Parameter(np.zeros(3, dtype=np.float32))
            total = None
            for scale in (1.0, -2.0, 0.5):
                w.data = (rng.standard_normal((3, 5)) * scale).astype(np.float32)
                b.data = rng.standard_normal(3).astype(np.float32)
                term = (linear(x, w, b) * scale).tanh().sum()
                total = term if total is None else total + term
            total.backward()
            return {"x": x.grad, "w": w.grad, "b": b.grad, "loss": total.data}

        _assert_bitwise(run(F.linear), run(seed_linear))

    def test_under_no_grad_the_value_is_the_same_and_no_node_is_built(self):
        rng = np.random.default_rng(8)
        x = Tensor(rng.standard_normal((5, 4)).astype(np.float32))
        w = Tensor(rng.standard_normal((3, 4)).astype(np.float32), requires_grad=True)
        b = Tensor(rng.standard_normal(3).astype(np.float32), requires_grad=True)
        with no_grad():
            out = F.linear(x, w, b)
        assert not out.requires_grad and out._backward is None and out._late is None
        assert np.array_equal(out.data, seed_linear(x, w, b).data)

    def test_one_node(self):
        x = Tensor(np.ones((2, 3), dtype=np.float32))
        w = Tensor(np.ones((4, 3), dtype=np.float32), requires_grad=True)
        b = Tensor(np.ones(4, dtype=np.float32), requires_grad=True)
        out = F.linear(x, w, b)
        assert out._op == "linear" and out._parents == (x, w, b)


def _ce_case(loss_fn, logits, targets, reduction, upstream):
    lt = Tensor(logits, requires_grad=True)
    loss = loss_fn(lt, targets, reduction=reduction)
    if upstream == "scaled":
        (loss * 0.37).backward()
    elif upstream == "shared":
        # The logits reach the loss twice: the two gradients are summed.
        (loss + (lt * lt).sum() * 0.01).backward()
    else:
        loss.backward()
    return {"loss": loss.data, "grad": lt.grad}


class TestCrossEntropyMatchesUnfusedGraph:
    @pytest.mark.parametrize(
        "n,c,reduction,upstream,dtype",
        list(
            itertools.product(
                (1, 50),
                (2, 10),
                ("mean", "sum"),
                ("root", "scaled", "shared"),
                (np.float32, np.float64),
            )
        ),
    )
    def test_value_and_gradient(self, n, c, reduction, upstream, dtype):
        rng = np.random.default_rng(n * 100 + c)
        logits = (rng.standard_normal((n, c)) * 3).astype(dtype)
        targets = rng.integers(0, c, n)
        _assert_bitwise(
            _ce_case(F.cross_entropy, logits, targets, reduction, upstream),
            _ce_case(seed_cross_entropy, logits, targets, reduction, upstream),
            f"{n}x{c} {reduction} {upstream} {dtype.__name__}",
        )

    def test_one_node(self):
        logits = Tensor(np.zeros((3, 4), dtype=np.float32), requires_grad=True)
        loss = F.cross_entropy(logits, [0, 1, 2])
        assert loss._op == "cross_entropy" and loss._parents == (logits,)

    def test_unknown_reduction(self):
        with pytest.raises(ValueError, match="unknown reduction"):
            F.cross_entropy(Tensor(np.zeros((2, 3))), [0, 1], reduction="max")

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("reduction", ["mean", "sum"])
    def test_grad_off(self, dtype, reduction):
        """Under ``no_grad`` (and for logits that need no gradient) the
        loss is the same value and no node is built."""
        rng = np.random.default_rng(3)
        logits = (rng.standard_normal((6, 5)) * 2).astype(dtype)
        targets = rng.integers(0, 5, 6)
        want = seed_cross_entropy(Tensor(logits), targets, reduction=reduction).data
        with no_grad():
            loss = F.cross_entropy(Tensor(logits, requires_grad=True), targets, reduction=reduction)
        plain = F.cross_entropy(Tensor(logits), targets, reduction=reduction)
        for got in (loss, plain):
            assert not got.requires_grad and got._backward is None
            assert got.data.dtype == want.dtype and np.array_equal(got.data, want)


class TestSoftmaxFamilyGradOff:
    """Backward-only work is skipped when no backward can run."""

    @pytest.fixture
    def exp_calls(self, monkeypatch):
        calls = []
        real = np.exp

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(np, "exp", counting)
        return calls

    @pytest.mark.parametrize(
        "op,with_grad,without",
        [
            (lambda t: F.log_softmax(t), 2, 1),
            (lambda t: F.softmax(t), 1, 1),
            (lambda t: F.cross_entropy(t, [0, 2, 1]), 2, 1),
        ],
        ids=["log_softmax", "softmax", "cross_entropy"],
    )
    def test_exp_calls(self, exp_calls, op, with_grad, without):
        x = np.random.default_rng(0).standard_normal((3, 4)).astype(np.float32)
        tracked = op(Tensor(x, requires_grad=True))
        assert (len(exp_calls), tracked.requires_grad) == (with_grad, True)
        exp_calls.clear()
        with no_grad():
            untracked = op(Tensor(x, requires_grad=True))
        assert (len(exp_calls), untracked.requires_grad) == (without, False)
        assert np.array_equal(tracked.data, untracked.data)

    def test_log_softmax_matches_the_seed_node(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((4, 7)).astype(np.float32)
        g = rng.standard_normal((4, 7)).astype(np.float32)
        got, want = Tensor(x, requires_grad=True), Tensor(x, requires_grad=True)
        out, ref = F.log_softmax(got), seed_log_softmax(want)
        out.backward(g)
        ref.backward(g)
        assert np.array_equal(out.data, ref.data) and np.array_equal(got.grad, want.grad)


class TestGradSink:
    """A gradient landing in a bound sink: the first write copies, later
    writes add in place — the values of the unbound ``.grad``, in the
    sink's own array and layout."""

    @staticmethod
    def _backward(shape, uses, sink_dtype_grad, bind):
        rng = np.random.default_rng(sum(shape) + uses)
        w = Parameter(rng.standard_normal(shape).astype(np.float32))
        xs = [
            Tensor(rng.standard_normal((20, shape[1])).astype(sink_dtype_grad))
            for _ in range(uses)
        ]
        sink = np.full(shape, np.nan, dtype=np.float32)
        if bind:
            w._grad_sink = sink
        total = None
        for x in xs:
            term = (F.linear(x, w) * 0.5).sum()
            total = term if total is None else total + term
        total.backward()
        if bind:
            assert w.grad is sink
        return w.grad.copy()

    @pytest.mark.parametrize("shape", [(10, 32), (64, 768), (512, 130)])
    @pytest.mark.parametrize("uses", [1, 3])
    @pytest.mark.parametrize("grad_dtype", [np.float32, np.float64])
    def test_landed_gradient_equals_the_unbound_one(self, shape, uses, grad_dtype):
        """(64, 768) and (512, 130) arrive transposed and past the block
        threshold: they land in column blocks."""
        got = self._backward(shape, uses, grad_dtype, bind=True)
        want = self._backward(shape, uses, grad_dtype, bind=False)
        assert got.dtype == want.dtype == np.float32
        assert np.array_equal(got, want)

    def test_a_rebound_gradient_is_left_alone(self):
        """A ``.grad`` some code rebound mid-leg is accumulated as before,
        not written into the sink."""
        w = Parameter(np.ones((2, 3), dtype=np.float32))
        sink = np.zeros((2, 3), dtype=np.float32)
        w._grad_sink = sink
        own = np.full((2, 3), 5.0, dtype=np.float32)
        w.grad = own
        w._accumulate(np.ones((2, 3), dtype=np.float32))
        assert w.grad is not sink and np.array_equal(w.grad, own + 1)
        assert not sink.any()
