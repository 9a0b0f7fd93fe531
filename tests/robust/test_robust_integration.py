"""End-to-end Byzantine robustness: identity, redraws, screening, accuracy."""

import numpy as np
import pytest

from _fits import BASE, assert_same_fit, extras, records, run_fit
from repro.distributed.cluster import shutdown_clusters
from repro.faults.inject import UploadDropper
from repro.faults.model import ClientPopulation
from repro.fl.callbacks import ServerCallback


SIGNFLIP = {"byzantine_frac": 0.25, "attack": "sign_flip"}
# Seed 7 over 8 clients draws exactly these adversaries (static mask).
BYZANTINE_CLIENTS = [3, 4, 6]


@pytest.fixture(scope="module", autouse=True)
def _fresh_fleet():
    yield
    shutdown_clusters()


class _InstallDropper(ServerCallback):
    """Wrap the live execution backend in an UploadDropper at fit start."""

    def __init__(self, client_ids, times=1):
        self.client_ids = client_ids
        self.times = times
        self.dropper = None

    def on_round_start(self, server, round_idx):
        if self.dropper is None:
            self.dropper = UploadDropper(
                server.executor, self.client_ids, self.times
            )
            server.executor = self.dropper


class TestBenignIdentity:
    def test_operator_layer_engaged_is_bit_identical(self):
        # aggregator resolved through the registry, screening active,
        # fault engine engaged — with no adversaries the whole robust
        # layer must reproduce the reference bit for bit, analytic
        # communication ledger included.
        reference = run_fit(BASE)
        engaged = run_fit(
            BASE,
            aggregator="mean",
            screen="flag",
            faults={"byzantine_frac": 0.0},
            failure_policy="carry",
        )
        assert_same_fit(reference, engaged)
        assert extras(engaged, "suspect_uploads") == []


class TestSeededAttackDeterminism:
    def test_gauss_noise_identical_serial_vs_thread(self):
        attacked = dict(
            faults={"byzantine_frac": 0.25, "attack": "gauss_noise"},
            failure_policy="carry",
        )
        serial = run_fit(BASE, **attacked)
        thread = run_fit(BASE, execution="thread", workers=2, **attacked)
        assert_same_fit(serial, thread)

    def test_retried_byzantine_leg_lands_identical_bytes(self):
        # Every client's first upload is dropped after training; the
        # retry restores RNG snapshots AND re-derives each attack from
        # the seeded stream, so everything but the communication bill
        # matches the undropped attacked run.
        attacked = dict(faults=SIGNFLIP, failure_policy="carry")
        reference = run_fit(BASE, **attacked)
        installer = _InstallDropper(range(BASE["num_clients"]), times=1)
        retried = run_fit(
            BASE,
            callbacks=[installer],
            leg_retries=1,
            leg_backoff=0.001,
            **attacked,
        )
        assert installer.dropper is not None and installer.dropper.dropped > 0
        assert_same_fit(reference, retried, comm=False)

    def test_redispatched_byzantine_leg_redraws_its_attack(self):
        # A Byzantine client's upload is dropped with no retry budget;
        # the redispatch reissues the leg, which must *redraw* its
        # attack from the seeded stream (not inherit or skip it) and
        # land bit-identical to the clean attacked run.
        attacked = dict(
            faults=SIGNFLIP,
            failure_policy="redispatch",
            participation=1.0,
            rounds=2,
        )
        reference = run_fit(BASE, **attacked)
        installer = _InstallDropper(BYZANTINE_CLIENTS, times=1)
        redispatched = run_fit(BASE, callbacks=[installer], **attacked)
        assert installer.dropper is not None
        assert installer.dropper.dropped == len(BYZANTINE_CLIENTS)
        assert_same_fit(reference, redispatched, comm=False)
        # The reissues cost extra downlink, never extra uplink.
        ref, red = reference.history.records, redispatched.history.records
        assert sum(r.comm_down_params for r in red) > sum(
            r.comm_down_params for r in ref
        )
        assert [r.comm_up_params for r in red] == [
            r.comm_up_params for r in ref
        ]

    def test_mixed_churn_and_poison_scenario_file(self):
        # The committed scenario combines availability churn, dropouts
        # and gauss-noise adversaries; redispatch + quorum must survive
        # it identically on serial and thread backends, with both kinds
        # of adversity visible in the history.
        from pathlib import Path

        path = str(
            Path(__file__).parent.parent
            / "faults" / "scenarios" / "byzantine_mixed.json"
        )
        mixed = dict(faults=path, failure_policy="redispatch", quorum=0.25)
        serial = run_fit(BASE, **mixed)
        thread = run_fit(BASE, execution="thread", workers=2, **mixed)
        assert_same_fit(serial, thread)
        failures = extras(serial, "leg_failures")
        assert failures  # seed 7 churns every run under this scenario
        assert records(serial) != records(run_fit(BASE))

    def test_byzantine_mask_is_static_and_seeded(self):
        pop = ClientPopulation(SIGNFLIP, seed=BASE["seed"], num_clients=8)
        np.testing.assert_array_equal(
            np.flatnonzero(pop.byzantine_mask()), BYZANTINE_CLIENTS
        )

    def test_quorum_counts_attacked_legs_as_fresh(self):
        # Attacked legs land uploads, so a full quorum holds even when
        # every Byzantine client participates.
        result = run_fit(BASE, faults=SIGNFLIP, failure_policy="carry", quorum=1.0)
        assert len(result.history.records) == BASE["rounds"]


class TestScreening:
    # Full participation keeps the cohort's Byzantine fraction at the
    # scenario's 3/8 — a half-sampled cohort can be 50% poisoned, which
    # no median-based screen can be expected to untangle.
    FULL = dict(faults=SIGNFLIP, failure_policy="carry", participation=1.0)

    def test_suspects_surface_in_extras_and_callback(self):
        seen = []

        class Recorder(ServerCallback):
            def on_suspect_upload(self, server, record):
                seen.append(record)

        result = run_fit(BASE, callbacks=[Recorder()], screen="flag", **self.FULL)
        suspects = extras(result, "suspect_uploads")
        assert suspects  # sign-flipped uploads are far outside the cluster
        for summary in suspects:
            assert set(summary) == {
                "row", "client", "score", "threshold", "action",
            }
            assert summary["action"] == "flag"
            assert summary["score"] > summary["threshold"]
        assert len(seen) == len(suspects)
        # Every adversary is caught; the conservative threshold may add
        # the odd borderline honest row but never a majority of flags.
        flagged_clients = [s["client"] for s in suspects]
        assert set(BYZANTINE_CLIENTS) <= set(flagged_clients)
        honest = [c for c in flagged_clients if c not in BYZANTINE_CLIENTS]
        assert len(honest) < len(flagged_clients) - len(honest)

    def test_flag_mode_only_observes(self):
        # Flag-mode screening is a pure observer: the numbers match the
        # unscreened attacked run exactly.
        plain = run_fit(BASE, **self.FULL)
        flagged = run_fit(BASE, screen="flag", **self.FULL)
        assert_same_fit(plain, flagged)

    def test_carry_mode_quarantines_suspect_rows(self):
        flagged = run_fit(BASE, screen="flag", **self.FULL)
        carried = run_fit(BASE, screen="carry", **self.FULL)
        suspects = extras(carried, "suspect_uploads")
        assert suspects and all(s["action"] == "carry" for s in suspects)
        # Quarantine changes the aggregate: the poisoned rows were
        # replaced by their dispatched middleware states.
        assert records(carried, comm=False) != records(flagged, comm=False)


class TestRobustAccuracy:
    """The ISSUE acceptance bar, asserted on the seed CNN.

    Seeded 20% Byzantine sign-flip over K=10 (exactly two adversaries
    at seed 26), 5 rounds: the plain mean must collapse while the
    rank-based operators track the attack-free accuracy.
    """

    CNN = dict(
        method="fedcross",
        dataset="synth_cifar10",
        model="cnn_s",
        num_clients=10,
        participation=1.0,
        local_epochs=3,
        batch_size=16,
        rounds=5,
        lr=0.1,
        seed=26,
        dataset_params={
            "samples_per_client": 80,
            "num_test": 200,
            "noise": 0.3,
            "label_noise": 0.0,
        },
    )
    ATTACK = dict(
        faults={"byzantine_frac": 0.2, "attack": "sign_flip"},
        failure_policy="carry",
    )

    def _accuracy(self, **overrides):
        return run_fit(self.CNN, **overrides).history.records[-1].accuracy

    # Four CNN fits (~10 s): out of tier-1's one-minute budget, but the
    # blocking "Robust-aggregation attack matrix" CI step selects slow
    # tests too, so it still gates every PR.
    @pytest.mark.slow
    def test_mean_degrades_while_robust_operators_hold(self):
        clean = self._accuracy()
        mean = self._accuracy(**self.ATTACK)
        trimmed = self._accuracy(aggregator="trimmed_mean", **self.ATTACK)
        median = self._accuracy(aggregator="coordinate_median", **self.ATTACK)
        assert clean - mean >= 0.10
        assert trimmed >= clean - 0.02
        assert median >= clean - 0.02
