"""FedGen (Zhu et al. 2021) — data-free knowledge distillation.

The server trains a conditional generator ``G(z, y)`` so that the
*ensemble of uploaded client models* — with per-label weights given by
the clients' label counts — classifies generated samples as their
conditioning label. Each round the (frozen) generator is dispatched
alongside the global model, and clients add a distillation term
``lambda * CE(model(G(z, y)), y)`` to their local loss, injecting
global knowledge about labels the client lacks.

Substitution note (see DESIGN.md): the original FedGen generates
*latent-layer* features; here the generator emits input-space images
for vision models and embedding-space sequences for the LSTM models
(via ``forward_embedded``), which exercises the identical mechanism —
server-learned proxy data + client-side distillation + generator
communication overhead (Table I: Medium).

The distillation term ships as a picklable
:class:`~repro.fl.hooks.DistillationSpec` carrying the frozen
generator and a per-client RNG stream spawned at dispatch time — the
draws no longer come from one shared server stream consumed in client
order, which is what makes FedGen safe on parallel execution backends
(and reproducible across all of them).
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

import numpy as np

from repro import nn
from repro.fl.client import Client
from repro.fl.config import NON_NEGATIVE, POSITIVE, knob
from repro.fl.hooks import DistillationSpec
from repro.fl.registry import register_method
from repro.fl.server import DispatchPlan, FederatedServer
from repro.fl.trainer import LocalResult
from repro.optim.adam import Adam
from repro.tensor import functional as F
from repro.tensor.autograd import no_grad
from repro.tensor.tensor import Tensor, concatenate
from repro.utils.rng import default_rng

__all__ = ["Generator", "FedGenServer"]


class Generator(nn.Module):
    """Conditional MLP generator: ``(z, one-hot y) -> flat sample``."""

    def __init__(
        self,
        num_classes: int,
        output_dim: int,
        z_dim: int = 16,
        hidden: int = 64,
        rng: np.random.Generator | None = None,
    ) -> None:
        super().__init__()
        rng = rng if rng is not None else default_rng()
        self.num_classes = num_classes
        self.output_dim = output_dim
        self.z_dim = z_dim
        self.fc1 = nn.Linear(z_dim + num_classes, hidden, rng=rng)
        self.fc2 = nn.Linear(hidden, output_dim, rng=rng)

    def forward(self, z: Tensor, labels: np.ndarray) -> Tensor:
        onehot = Tensor(F.one_hot(labels, self.num_classes))
        h = self.fc1(concatenate([z, onehot], axis=1)).relu()
        return self.fc2(h)


@register_method("fedgen")
class FedGenServer(FederatedServer):
    """FedAvg + server-side generator + client-side distillation."""

    @dataclass(frozen=True)
    class Options:
        gen_weight: float = knob(None, 0.2, "fedgen", "Distill-loss weight.", check=NON_NEGATIVE)
        gen_steps: int = knob(None, 10, "fedgen", "Generator steps a round.", check=NON_NEGATIVE)
        gen_batch: int = knob(None, 32, "fedgen", "Samples per generator update.", check=POSITIVE)
        distill_batch: int = knob(None, 16, "fedgen", "Samples per distill step.", check=POSITIVE)
        gen_hidden: int = knob(None, 64, "fedgen", "Generator hidden width.", check=POSITIVE)
        z_dim: int = knob(None, 16, "fedgen", "Generator noise width.", check=POSITIVE)
        gen_lr: float = knob(None, 5e-3, "fedgen", "Generator Adam step size.", check=POSITIVE)

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        options = self.options
        self.gen_weight = float(options.gen_weight)
        self.gen_steps = int(options.gen_steps)
        self.gen_batch = int(options.gen_batch)
        self.distill_batch = int(options.distill_batch)
        self._gen_rng = default_rng(self.config.seed + 7919)
        # Root of the per-(round, client) distillation RNG streams;
        # spawned in dispatch order, so stream assignment is
        # deterministic regardless of execution backend.
        self._hook_seq = np.random.SeedSequence(self.config.seed + 60013)
        self.gen_hidden = int(options.gen_hidden)

        num_classes = self.fed_dataset.num_classes
        self._embedded_mode = hasattr(self.model, "forward_embedded")
        if self._embedded_mode:
            seq_len = int(self.fed_dataset.meta.get("seq_len", 8))
            embed_dim = int(self.model.embedding.embedding_dim)
            self._sample_shape: tuple[int, ...] = (seq_len, embed_dim)
        else:
            self._sample_shape = tuple(
                int(s) for s in self.fed_dataset.clients[0].features.shape[1:]
            )
        output_dim = int(np.prod(self._sample_shape))
        self.generator = Generator(
            num_classes,
            output_dim,
            z_dim=int(options.z_dim),
            hidden=self.gen_hidden,
            rng=default_rng(self.config.seed + 104729),
        )
        self._gen_opt = Adam(self.generator.parameters(), lr=float(options.gen_lr))
        self.generator_size = self.generator.num_parameters()
        # Aggregate label distribution for conditioning (uniform prior).
        self._label_counts = np.ones(num_classes, dtype=np.float64)

    # -- generation helpers ------------------------------------------------
    def _sample_labels(self, n: int) -> np.ndarray:
        p = self._label_counts / self._label_counts.sum()
        return self._gen_rng.choice(len(p), size=n, p=p)

    def _generate(self, labels: np.ndarray, with_grad: bool) -> Tensor:
        z = Tensor(
            self._gen_rng.standard_normal((len(labels), self.generator.z_dim)).astype(np.float32)
        )
        if with_grad:
            flat = self.generator(z, labels)
        else:
            with no_grad():
                flat = self.generator(z, labels)
        return flat.reshape(len(labels), *self._sample_shape)

    def _teacher_logits(self, samples: Tensor, states: list[dict], weights: np.ndarray) -> Tensor:
        """Label-count-weighted ensemble logits of the uploaded models."""
        total = None
        for state, weight in zip(states, weights):
            self.model.load_state_dict(state)
            self.model.eval()
            logits = (
                self.model.forward_embedded(samples)
                if self._embedded_mode
                else self.model(samples)
            )
            term = logits * float(weight)
            total = term if total is None else total + term
        self.model.train()
        return total

    def _train_generator(self, states: list[dict], sizes: np.ndarray) -> float:
        """Fit G so the client ensemble classifies G(z, y) as y."""
        weights = sizes / sizes.sum()
        last = 0.0
        for _ in range(self.gen_steps):
            labels = self._sample_labels(self.gen_batch)
            self._gen_opt.zero_grad()
            samples = self._generate(labels, with_grad=True)
            logits = self._teacher_logits(samples, states, weights)
            loss = F.cross_entropy(logits, labels)
            loss.backward()
            self._gen_opt.step()
            last = float(loss.item())
        return last

    # -- FL round ------------------------------------------------------------
    def _draws(self):
        return super()._draws(), copy.deepcopy(self._hook_seq)

    def _rewind_draws(self, draws) -> None:
        base, self._hook_seq = draws
        super()._rewind_draws(base)

    def dispatch(self, active: list[Client]) -> list[DispatchPlan]:
        """Global model plus per-client distillation specs (after warm-up).

        Each spec snapshots the frozen generator and label distribution
        and owns an independent RNG stream, so the distillation draws
        are identical whether clients train in sequence or in parallel.
        """
        if self.round_idx == 0 or self.gen_weight <= 0:
            return super().dispatch(active)
        generator_state = self.generator.state_dict()
        label_probs = self._label_counts / self._label_counts.sum()
        seeds = self._hook_seq.spawn(len(active))
        specs = [
            DistillationSpec(
                num_classes=self.generator.num_classes,
                sample_shape=self._sample_shape,
                z_dim=self.generator.z_dim,
                hidden=self.gen_hidden,
                generator_state=generator_state,
                label_probs=label_probs,
                batch=self.distill_batch,
                weight=self.gen_weight,
                seed=seed,
                embedded=self._embedded_mode,
            )
            for seed in seeds
        ]
        # In-process backends resolve specs here, where one frozen
        # generator serves the whole round (forward-only, so sharing is
        # safe even across threads); the shared instance is dropped at
        # pickle time, so process workers still rebuild their own.
        shared_generator = specs[0]._build_generator()
        for spec in specs[1:]:
            spec._generator = shared_generator
        flat = self.global_row()
        return [DispatchPlan(flat, loss_hook=spec) for spec in specs]

    def aggregate(
        self,
        active: list[Client],
        results: list[LocalResult],
        plans: list[DispatchPlan],
    ) -> dict:
        counts = np.zeros_like(self._label_counts)
        for client in active:
            counts += client.class_counts(self.fed_dataset.num_classes)
        if counts.sum() > 0:
            self._label_counts = counts + 1.0

        states = [r.state for r in results]
        sizes = np.array([r.num_samples for r in results], dtype=np.float64)
        gen_loss = self._train_generator(states, sizes)
        self._global = self.aggregate_uploads(results)

        # Table I: model both ways + one generator down per leg.
        self.charge_round_communication(active, down_surcharge=self.generator_size)
        return {"train_loss": self.mean_local_loss(results), "gen_loss": gen_loss}
