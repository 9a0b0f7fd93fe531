"""Optimisers and LR schedules."""

import numpy as np
import pytest

from repro.nn.module import Parameter
from repro.optim import SGD, Adam, ConstantLR, CosineLR, InverseTimeLR, StepLR
from repro.optim.sgd import ParamRows


def make_param(value=1.0):
    p = Parameter(np.array([value], dtype=np.float32))
    return p


class TestSGD:
    def test_vanilla_step(self):
        p = make_param(1.0)
        p.grad = np.array([0.5], dtype=np.float32)
        SGD([p], lr=0.1).step()
        np.testing.assert_allclose(p.data, [0.95])

    def test_momentum_accumulates(self):
        p = make_param(0.0)
        opt = SGD([p], lr=1.0, momentum=0.5)
        p.grad = np.array([1.0], dtype=np.float32)
        opt.step()  # buf = 1, p = -1
        p.grad = np.array([1.0], dtype=np.float32)
        opt.step()  # buf = 1.5, p = -2.5
        np.testing.assert_allclose(p.data, [-2.5])

    def test_nesterov_differs_from_plain_momentum(self):
        p1, p2 = make_param(0.0), make_param(0.0)
        o1 = SGD([p1], lr=1.0, momentum=0.5)
        o2 = SGD([p2], lr=1.0, momentum=0.5, nesterov=True)
        for opt, p in ((o1, p1), (o2, p2)):
            p.grad = np.array([1.0], dtype=np.float32)
            opt.step()
        assert p1.data[0] != p2.data[0]

    def test_weight_decay_shrinks_param(self):
        p = make_param(10.0)
        p.grad = np.zeros(1, dtype=np.float32)
        SGD([p], lr=0.1, weight_decay=0.5).step()
        np.testing.assert_allclose(p.data, [10.0 - 0.1 * 0.5 * 10.0])

    def test_none_grad_skipped(self):
        p = make_param(3.0)
        SGD([p], lr=0.1).step()
        np.testing.assert_allclose(p.data, [3.0])

    def test_reset_state_clears_momentum(self):
        p = make_param(0.0)
        opt = SGD([p], lr=1.0, momentum=0.9)
        p.grad = np.array([1.0], dtype=np.float32)
        opt.step()
        opt.reset_state()
        p.grad = np.array([1.0], dtype=np.float32)
        opt.step()
        # second step behaves like a fresh first step from -1
        np.testing.assert_allclose(p.data, [-2.0])

    def test_validation(self):
        with pytest.raises(ValueError):
            SGD([make_param()], lr=0.0)
        with pytest.raises(ValueError):
            SGD([make_param()], lr=0.1, nesterov=True)
        with pytest.raises(ValueError):
            SGD([], lr=0.1)

    def test_zero_grad(self):
        p = make_param()
        p.grad = np.ones(1, dtype=np.float32)
        opt = SGD([p], lr=0.1)
        opt.zero_grad()
        assert p.grad is None

    def test_converges_on_quadratic(self):
        # minimise (x - 3)^2 by hand-computed gradients
        p = make_param(0.0)
        opt = SGD([p], lr=0.1, momentum=0.5)
        for _ in range(100):
            p.grad = 2 * (p.data - 3.0)
            opt.step()
        np.testing.assert_allclose(p.data, [3.0], atol=1e-3)


def _allocating_sgd_step(params, buffers, lr, momentum, weight_decay, nesterov):
    """The pre-in-place ``SGD.step`` formula: the bitwise reference."""
    for i, p in enumerate(params):
        if p.grad is None:
            continue
        grad = p.grad
        if weight_decay:
            grad = grad + weight_decay * p.data
        if momentum:
            buf = buffers[i]
            buf = grad.copy() if buf is None else momentum * buf + grad
            buffers[i] = buf
            grad = grad + momentum * buf if nesterov else buf
        p.data = np.asarray(p.data - lr * grad, dtype=p.data.dtype)


class TestSGDInPlace:
    """``step`` updates parameters in their own arrays; the arithmetic —
    and so every bit — is the allocating formula's."""

    SHAPES = ((7, 5), (5,), (3, 2, 3, 3))

    def _params(self, rng):
        return [Parameter(rng.standard_normal(s).astype(np.float32)) for s in self.SHAPES]

    def _grads(self, rng, dtype, transposed):
        grads = [rng.standard_normal(s).astype(dtype) for s in self.SHAPES]
        if transposed:  # a linear layer's weight gradient arrives F-ordered
            grads[0] = np.asfortranarray(grads[0])
        return grads

    @pytest.mark.parametrize("grad_dtype", [np.float32, np.float64], ids=["f32", "f64-grad"])
    @pytest.mark.parametrize(
        "momentum,nesterov", [(0.0, False), (0.5, False), (0.5, True)],
        ids=["plain", "momentum", "nesterov"],
    )
    @pytest.mark.parametrize("weight_decay", [0.0, 1e-4])
    def test_three_steps_bit_equal_allocating_formula(
        self, rng, momentum, nesterov, weight_decay, grad_dtype
    ):
        """float64 gradients on float32 parameters are SCAFFOLD's case:
        computed in float64, rounded once, parameter dtype unchanged."""
        params = self._params(rng)
        ref = [Parameter(p.data.copy()) for p in params]
        ref_buffers = [None] * len(ref)
        opt = SGD(params, lr=0.05, momentum=momentum, weight_decay=weight_decay,
                  nesterov=nesterov)
        for step in range(3):
            grads = self._grads(rng, grad_dtype, transposed=step != 1)
            for p, r, g in zip(params, ref, grads):
                p.grad, r.grad = g, g.copy(order="K")
            opt.step()
            _allocating_sgd_step(ref, ref_buffers, 0.05, momentum, weight_decay, nesterov)
            for p, r, g in zip(params, ref, grads):
                assert p.data.dtype == np.float32
                assert np.array_equal(p.data, r.data), f"step {step}"
                assert np.array_equal(p.grad, g)  # the gradient is only read

    @pytest.mark.parametrize("grad_dtype", [np.float32, np.float64], ids=["f32", "f64-grad"])
    def test_blocked_cross_layout_update_bit_equal(self, rng, grad_dtype):
        """A weight gradient past 2 MiB arriving F-ordered onto a C-ordered
        parameter (1030 columns)."""
        (p,) = params = [Parameter(rng.standard_normal((512, 1030)).astype(np.float32))]
        ref = [Parameter(p.data.copy())]
        ref_buffers = [None]
        opt = SGD(params, lr=0.05, momentum=0.5)
        for _ in range(3):
            g = np.asfortranarray(rng.standard_normal((512, 1030)).astype(grad_dtype))
            p.grad, ref[0].grad = g, g.copy(order="K")
            opt.step()
            _allocating_sgd_step(ref, ref_buffers, 0.05, 0.5, 0.0, False)
            assert np.array_equal(p.data, ref[0].data)

    def test_gradient_widening_mid_run_follows_the_formula(self, rng):
        """A hook that starts handing float64 gradients on step two must
        not be rounded into the float32 momentum buffer."""
        params = self._params(rng)
        ref = [Parameter(p.data.copy()) for p in params]
        ref_buffers = [None] * len(ref)
        opt = SGD(params, lr=0.05, momentum=0.5)
        for dtype in (np.float32, np.float64, np.float64):
            for p, r, g in zip(params, ref, self._grads(rng, dtype, transposed=False)):
                p.grad, r.grad = g, g.copy()
            opt.step()
            _allocating_sgd_step(ref, ref_buffers, 0.05, 0.5, 0.0, False)
            for p, r in zip(params, ref):
                assert np.array_equal(p.data, r.data)

    def test_step_updates_the_parameter_array_itself(self, rng):
        (p,) = params = [Parameter(rng.standard_normal((4, 3)).astype(np.float32))]
        array = p.data
        p.grad = np.ones((4, 3), dtype=np.float32)
        SGD(params, lr=0.1, momentum=0.5).step()
        assert p.data is array

    def test_state_dict_taken_before_step_is_not_mutated(self, rng):
        from repro import nn
        from repro.tensor import Tensor

        model = nn.Linear(4, 3, rng=rng)
        opt = SGD(model.parameters(), lr=0.1, momentum=0.5)
        before = model.state_dict()
        snapshot = {k: v.copy() for k, v in before.items()}
        model(Tensor(rng.standard_normal((5, 4)).astype(np.float32))).sum().backward()
        opt.step()
        after = model.state_dict()
        assert all(not np.array_equal(after[k], snapshot[k]) for k in snapshot)  # it trained
        for k in snapshot:
            assert np.array_equal(before[k], snapshot[k]), k

    def test_reset_state_drops_scratch_with_buffers(self, rng):
        params = self._params(rng)
        opt = SGD(params, lr=0.05, momentum=0.5)
        for p, g in zip(params, self._grads(rng, np.float32, transposed=True)):
            p.grad = g
        opt.step()
        assert all(b is not None for b in opt._buffers)
        assert all(s is not None for s in opt._scratch)
        opt.reset_state()
        assert opt._buffers == [None] * len(params)
        assert opt._scratch == [None] * len(params)


class TestSGDRows:
    """The update over rows (``ParamRows``) against the per-parameter one.

    The parameters are views of one data row and their gradients land in
    views of a grad row beside it, with a buffer slot between two of
    them that no update may touch; the optimiser lists them in another
    order than the row does.  Elementwise arithmetic, so the bits must
    be the per-parameter update's.
    """

    SHAPES = ((7, 5), (5,), (3, 2, 3, 3))
    GAP = 4

    def _bound(self, rng):
        sizes = [int(np.prod(s)) for s in self.SHAPES]
        starts = [0, sizes[0], sizes[0] + sizes[1] + self.GAP]
        total = starts[-1] + sizes[-1]
        data = rng.standard_normal(total).astype(np.float32)
        grad_row = np.zeros(total, dtype=np.float32)
        fields = [slice(a, a + n) for a, n in zip(starts, sizes)]
        params = []
        for field, shape in zip(fields, self.SHAPES):
            p = Parameter(np.zeros(shape, dtype=np.float32))
            p.data = data[field].reshape(shape)
            params.append(p)
        order = [2, 0, 1]
        sinks = [grad_row[fields[i]].reshape(self.SHAPES[i]) for i in order]
        rows = ParamRows(data, grad_row, tuple(fields[i] for i in order), tuple(sinks))
        self.gap = slice(fields[1].stop, fields[2].start)
        return [params[i] for i in order], sinks, rows

    @staticmethod
    def _land(params, sinks, grads):
        for p, sink, g in zip(params, sinks, grads):
            if g is None:
                p.grad = None
            else:
                np.copyto(sink, g)
                p.grad = sink

    def _leg(self, rng, steps, *, momentum=0.5, weight_decay=0.0, nesterov=False,
             missing=None, hook=None, signed_zeros=False):
        """Run ``steps`` on a row-bound optimiser and on a per-parameter
        one from the same values; return both parameter lists and the
        row-bound optimiser.  ``missing[step]`` is a parameter index
        without a gradient that step; ``hook`` rebinds ``.grad`` on both."""
        params, sinks, rows = self._bound(rng)
        if signed_zeros:  # where -0.0 and +0.0 part ways
            rows.data[::3] = -0.0
        gap = rows.data[self.gap].copy()
        ref = [Parameter(p.data.copy()) for p in params]
        kwargs = dict(lr=0.05, momentum=momentum, weight_decay=weight_decay, nesterov=nesterov)
        opt, ref_opt = SGD(params, rows=rows, **kwargs), SGD(ref, **kwargs)
        for step in range(steps):
            grads = [rng.standard_normal(p.data.shape).astype(np.float32) for p in params]
            if signed_zeros:
                for g in grads:
                    g.reshape(-1)[::2] = -0.0
            if missing and step in missing:
                grads[missing[step]] = None
            self._land(params, sinks, grads)
            for r, g in zip(ref, grads):
                r.grad = None if g is None else g.copy()
            if hook is not None:
                hook(params)
                hook(ref)
            opt.step()
            ref_opt.step()
        assert np.array_equal(rows.data[self.gap], gap), "a buffer slot moved"
        return params, ref, opt

    @pytest.mark.parametrize(
        "momentum,nesterov", [(0.0, False), (0.5, False), (0.5, True)],
        ids=["plain", "momentum", "nesterov"],
    )
    @pytest.mark.parametrize("weight_decay", [0.0, 1e-2])
    def test_row_steps_bit_equal_per_parameter_steps(self, rng, momentum, nesterov, weight_decay):
        params, ref, opt = self._leg(
            rng, 3, momentum=momentum, weight_decay=weight_decay, nesterov=nesterov
        )
        assert not opt._per_param and opt._buffers == [None] * len(params)  # rows only
        for p, r in zip(params, ref):
            assert p.data.tobytes() == r.data.tobytes()

    def test_signed_zero_gradients_start_the_momentum_as_a_copy(self, rng):
        """The first row step copies the gradient into the momentum row, as
        the per-parameter step does: ``0 * m + g`` would turn a -0.0
        gradient into +0.0 and move a -0.0 parameter's sign."""
        params, ref, opt = self._leg(rng, 2, signed_zeros=True)
        assert not opt._per_param
        for p, r in zip(params, ref):
            assert p.data.tobytes() == r.data.tobytes()

    def test_a_missing_gradient_sends_the_rest_of_the_leg_per_parameter(self, rng):
        """A parameter the loss did not reach is skipped, as per parameter;
        the momentum the row steps built carries over."""
        params, ref, opt = self._leg(rng, 4, missing={1: 0, 3: 2})
        assert opt._per_param
        for p, r in zip(params, ref):
            assert p.data.tobytes() == r.data.tobytes()

    def test_scaffold_float64_correction_steps_per_parameter(self, rng):
        corrections = [rng.standard_normal(s) for s in (self.SHAPES[i] for i in (2, 0, 1))]

        def scaffold(params):
            for p, c in zip(params, corrections):
                p.grad = p.grad + c

        params, ref, opt = self._leg(rng, 3, hook=scaffold)
        assert opt._per_param and all(b.dtype == np.float64 for b in opt._buffers)
        for p, r in zip(params, ref):
            assert p.data.dtype == np.float32 and p.data.tobytes() == r.data.tobytes()

    def test_dp_rebinding_steps_per_parameter(self, rng):
        from repro.fl.privacy import DPConfig, make_dp_grad_hook

        hooks = [
            make_dp_grad_hook(DPConfig(clip_norm=0.5, noise_multiplier=0.3, seed=4))
            for _ in range(2)
        ]
        calls = iter(range(10**6))

        def dp(params):
            hooks[next(calls) % 2]({str(i): p for i, p in enumerate(params)})

        params, ref, opt = self._leg(rng, 3, hook=dp)
        assert opt._per_param
        for p, r in zip(params, ref):
            assert p.data.tobytes() == r.data.tobytes()

    def test_reset_state_starts_the_next_leg_afresh(self, rng):
        params, sinks, rows = self._bound(rng)
        opt = SGD(params, lr=0.1, momentum=0.9, rows=rows)
        self._land(params, sinks, [np.ones(p.data.shape, np.float32) for p in params])
        opt.step()
        opt.reset_state()
        start = rows.data.copy()
        self._land(params, sinks, [np.ones(p.data.shape, np.float32) for p in params])
        opt.step()  # a first step again: p -= lr * g, no carried momentum
        for field in rows.fields:
            assert np.array_equal(rows.data[field], start[field] - np.float32(0.1))

    def test_configure_checks_as_the_constructor_does(self):
        opt = SGD([make_param()], lr=0.1, momentum=0.5, nesterov=True)
        opt.configure(lr=0.2, momentum=0.9, weight_decay=1e-3)
        assert (opt.lr, opt.momentum, opt.weight_decay) == (0.2, 0.9, 1e-3)
        with pytest.raises(ValueError, match="learning rate"):
            opt.configure(lr=0.0, momentum=0.5, weight_decay=0.0)
        with pytest.raises(ValueError, match="nesterov"):
            opt.configure(lr=0.1, momentum=0.0, weight_decay=0.0)

    def test_rows_must_describe_every_parameter(self, rng):
        params, sinks, rows = self._bound(rng)
        with pytest.raises(ValueError, match="rows describe 3 parameters"):
            SGD(params[:2], lr=0.1, rows=rows)


class TestAdam:
    def test_first_step_size_is_lr(self):
        p = make_param(0.0)
        opt = Adam([p], lr=0.1)
        p.grad = np.array([7.0], dtype=np.float32)
        opt.step()
        # bias-corrected first step is ~ -lr * sign(grad)
        np.testing.assert_allclose(p.data, [-0.1], rtol=1e-4)

    def test_converges_on_quadratic(self):
        p = make_param(0.0)
        opt = Adam([p], lr=0.2)
        for _ in range(200):
            p.grad = 2 * (p.data - 3.0)
            opt.step()
        np.testing.assert_allclose(p.data, [3.0], atol=1e-2)

    def test_weight_decay(self):
        p = make_param(1.0)
        opt = Adam([p], lr=0.1, weight_decay=1.0)
        p.grad = np.zeros(1, dtype=np.float32)
        opt.step()
        assert p.data[0] < 1.0

    def test_reset_state(self):
        p = make_param(0.0)
        opt = Adam([p], lr=0.1)
        p.grad = np.ones(1, dtype=np.float32)
        opt.step()
        opt.reset_state()
        assert opt._t == 0
        assert opt._m[0] is None


class TestSchedulers:
    def test_constant(self):
        p = make_param()
        opt = SGD([p], lr=0.5)
        sched = ConstantLR(opt)
        for _ in range(3):
            assert sched.step() == 0.5

    def test_step_lr_decays(self):
        opt = SGD([make_param()], lr=1.0)
        sched = StepLR(opt, step_size=2, gamma=0.1)
        lrs = [sched.step() for _ in range(4)]
        np.testing.assert_allclose(lrs, [1.0, 0.1, 0.1, 0.01])

    def test_cosine_endpoints(self):
        opt = SGD([make_param()], lr=1.0)
        sched = CosineLR(opt, t_max=10, min_lr=0.0)
        lrs = [sched.step() for _ in range(10)]
        assert lrs[-1] == pytest.approx(0.0, abs=1e-9)
        assert lrs[0] < 1.0
        assert all(a >= b for a, b in zip(lrs, lrs[1:]))

    def test_inverse_time_matches_formula(self):
        opt = SGD([make_param()], lr=1.0)
        sched = InverseTimeLR(opt, beta=2.0, lam=3.0)
        # installed at construction for t=0
        assert opt.lr == pytest.approx(2.0 / 4.0)
        sched.step()
        assert opt.lr == pytest.approx(2.0 / 5.0)

    def test_scheduler_updates_optimizer(self):
        opt = SGD([make_param()], lr=1.0)
        StepLR(opt, step_size=1, gamma=0.5).step()
        assert opt.lr == 0.5

    def test_validation(self):
        opt = SGD([make_param()], lr=1.0)
        with pytest.raises(ValueError):
            StepLR(opt, step_size=0)
        with pytest.raises(ValueError):
            CosineLR(opt, t_max=0)
        with pytest.raises(ValueError):
            InverseTimeLR(opt, beta=0.0, lam=1.0)
