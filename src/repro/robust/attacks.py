"""Seeded Byzantine upload attacks.

An attack is a pure function of the *dispatched* row ``d`` (the state
the server sent), the honestly *trained* row ``t`` (what the client
would have uploaded) and a fixed integer seed key — never of wall
clock, backend, or landing order.  Attacks run at the upload boundary,
in one place: :func:`repro.fl.execution.run_leg` overwrites the row the
trained state just landed in, wherever the leg ran (on ``distributed``
that is the shard host, so poisoned rows still never transit the
coordinator).  ``d`` and ``t`` are rows in the pool's buffer dtype and
the transform runs in float64, so the poisoned bytes are bit-identical
on every backend.

Kinds
-----
``sign_flip``
    ``d - scale * (t - d)`` — upload the *negated*, amplified local
    update.  The classic model-poisoning baseline.
``gauss_noise``
    ``t + scale * N(0, I)`` with noise drawn from ``seed_key`` alone,
    so retries and redispatches regenerate identical noise.
``scale``
    ``d + scale * (t - d)`` — an amplified (boosted) honest update.
``label_flip``
    Emulates training on permuted labels by reversing the class axis
    of the classifier head (the lexicographically last 2-D float
    ``.weight`` field and its matching ``.bias``) of the trained row.

Integer columns (step counters and the like) are always restored from
the trained row: attacks poison learnable parameters, not bookkeeping.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.utils.layout import StateLayout

__all__ = [
    "ATTACK_KINDS",
    "DEFAULT_ATTACK_SCALES",
    "AttackSpec",
    "attacked_row",
]

ATTACK_KINDS = ("sign_flip", "gauss_noise", "scale", "label_flip")

#: Per-kind default magnitudes used when ``FaultScenario.attack_scale``
#: is left unset.  Chosen so each attack is clearly harmful to a plain
#: mean under a 20% Byzantine fraction without being numerically silly.
DEFAULT_ATTACK_SCALES = {
    "sign_flip": 4.0,
    "gauss_noise": 1.0,
    "scale": 10.0,
    "label_flip": 1.0,
}


@dataclass(frozen=True)
class AttackSpec:
    """One client-round attack decision, wire-serializable.

    ``seed_key`` is the full RNG key (salt, run seed, round, client) so
    any party — a retried leg, a redispatched stand-in, a remote shard
    host — regenerates exactly the same attack from the spec alone.
    """

    kind: str
    scale: float
    seed_key: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.kind not in ATTACK_KINDS:
            raise ValueError(
                f"unknown attack kind {self.kind!r}; valid kinds: {list(ATTACK_KINDS)}"
            )
        if not self.scale > 0:
            raise ValueError(f"attack scale must be > 0, got {self.scale}")

    def to_wire(self) -> dict:
        """JSON-safe dict for the distributed ``train_leg`` meta."""
        return {
            "kind": self.kind,
            "scale": float(self.scale),
            "seed_key": [int(v) for v in self.seed_key],
        }

    @classmethod
    def from_wire(cls, data) -> "AttackSpec":
        return cls(
            kind=str(data["kind"]),
            scale=float(data["scale"]),
            seed_key=tuple(int(v) for v in data["seed_key"]),
        )


def _head_fields(layout: StateLayout):
    """Classifier-head (weight, bias) field specs, bias possibly None.

    Heuristic: the head is the lexicographically *last* 2-D float
    ``.weight`` field (layout keys are sorted, and every bundled model
    names its output ``Linear`` after its hidden blocks); its bias is
    the 1-D field sharing the prefix with matching fan-out.
    """
    weight = None
    for spec in layout.fields:
        if (
            spec.key.endswith(".weight")
            and len(spec.shape) == 2
            and not spec.is_integer
        ):
            weight = spec
    if weight is None:
        raise ValueError(
            "label_flip needs a 2-D float '.weight' classifier head; "
            f"none found among {list(layout.keys)}"
        )
    bias = layout.by_key.get(weight.key[: -len("weight")] + "bias")
    if bias is not None and (
        bias.is_integer or len(bias.shape) != 1 or bias.shape[0] != weight.shape[0]
    ):
        bias = None
    return weight, bias


def attacked_row(
    spec: AttackSpec,
    layout: StateLayout,
    dispatched: np.ndarray,
    trained: np.ndarray,
) -> np.ndarray:
    """Poisoned upload row for ``spec`` (same dtype as ``trained``).

    ``dispatched`` and ``trained`` are 1-D flat rows in the pool's
    buffer dtype; the transform runs in float64 and rounds once on the
    way out, so the result is independent of which backend applies it.
    """
    d = dispatched.astype(np.float64, copy=False)
    t = trained.astype(np.float64, copy=False)
    if spec.kind == "sign_flip":
        out = d - spec.scale * (t - d)
    elif spec.kind == "scale":
        out = d + spec.scale * (t - d)
    elif spec.kind == "gauss_noise":
        noise = np.random.default_rng(list(spec.seed_key)).standard_normal(t.shape[0])
        out = t + spec.scale * noise
    else:  # label_flip
        out = np.array(t, copy=True)
        weight, bias = _head_fields(layout)
        block = t[weight.offset : weight.stop].reshape(weight.shape)
        out[weight.offset : weight.stop] = block[::-1].ravel()
        if bias is not None:
            out[bias.offset : bias.stop] = t[bias.offset : bias.stop][::-1]
    out = out.astype(trained.dtype, copy=False)
    int_mask = layout.integer_mask()
    if int_mask.any():
        out = np.array(out, copy=True) if out is t else out
        out[int_mask] = trained[int_mask]
    return np.array(out, copy=False)
