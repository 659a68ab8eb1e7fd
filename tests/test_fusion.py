"""Tests for the table fusion controller."""

import pytest

from repro.common.rng import DeterministicRng
from repro.composite.fusion import FusionController
from repro.predictors import COMPONENT_NAMES, make_component


def _components(entries=64):
    rng = DeterministicRng(0)
    return {n: make_component(n, entries, rng) for n in COMPONENT_NAMES}


def _controller(components, epoch=1000, threshold=20.0, observe=2, revert=5,
                grace=0):
    controller = FusionController(
        components, epoch_instructions=epoch, upki_threshold=threshold,
        observe_epochs=observe, revert_epochs=revert,
    )
    # Most tests exercise steady-state classification; the warm-up
    # grace (tested separately) is skipped by default.
    controller._grace_epochs = grace
    return controller


def _feed_epochs(controller, useful, epochs, per_epoch=100):
    """Run epochs where only the ``useful`` components hit the threshold."""
    for _ in range(epochs):
        for name in useful:
            for _ in range(per_epoch):
                controller.note_used_prediction(name)
        controller.end_epoch()


class TestClassification:
    def test_fuses_after_observation_window(self):
        components = _components()
        controller = _controller(components)
        _feed_epochs(controller, useful=("sap", "cvp", "cap"), epochs=2)
        assert controller.state.fused
        assert controller.state.donors == ("lvp",)
        assert set(controller.state.receivers) == {"sap", "cvp", "cap"}

    def test_single_donor_goes_to_top_receiver(self):
        components = _components()
        controller = _controller(components)
        for _ in range(2):
            for name, count in (("sap", 500), ("cvp", 100), ("cap", 90)):
                for _ in range(count):
                    controller.note_used_prediction(name)
            controller.end_epoch()
        assert controller.state.grants == {"sap": 1}
        assert components["sap"].total_entries == 128  # one extra bank

    def test_three_donors_one_receiver(self):
        components = _components()
        controller = _controller(components)
        _feed_epochs(controller, useful=("sap",), epochs=2)
        assert controller.state.grants == {"sap": 3}
        assert components["sap"].total_entries == 64 * 4

    def test_two_donors_two_receivers(self):
        components = _components()
        controller = _controller(components)
        _feed_epochs(controller, useful=("sap", "lvp"), epochs=2)
        assert set(controller.state.grants) == {"sap", "lvp"}
        assert all(v == 1 for v in controller.state.grants.values())

    def test_no_fusion_when_all_useful(self):
        controller = _controller(_components())
        _feed_epochs(controller, useful=COMPONENT_NAMES, epochs=2)
        assert not controller.state.fused

    def test_no_fusion_when_none_useful(self):
        controller = _controller(_components())
        _feed_epochs(controller, useful=(), epochs=2)
        assert not controller.state.fused


class TestLifecycle:
    def test_donor_flushed_and_silenced(self):
        from conftest import make_probe, train_constant

        components = _components(entries=256)
        lvp = components["lvp"]
        train_constant(lvp, pc=0x1000, value=7, times=300)
        assert lvp.predict(make_probe(pc=0x1000)) is not None
        controller = _controller(components)
        _feed_epochs(controller, useful=("sap", "cvp", "cap"), epochs=2)
        assert controller.is_donor("lvp")
        assert lvp.predict(make_probe(pc=0x1000)) is None  # flushed

    def test_reversion_after_m_epochs(self):
        components = _components()
        controller = _controller(components, observe=2, revert=5)
        _feed_epochs(controller, useful=("sap",), epochs=2)
        assert controller.state.fused
        _feed_epochs(controller, useful=("sap",), epochs=5)
        assert not controller.state.fused
        assert components["sap"].total_entries == 64
        assert controller.state.reversions_performed == 1

    def test_refusion_after_reversion(self):
        components = _components()
        controller = _controller(components, observe=2, revert=5)
        _feed_epochs(controller, useful=("sap",), epochs=2)   # fuse
        _feed_epochs(controller, useful=("sap",), epochs=5)   # revert
        _feed_epochs(controller, useful=("sap",), epochs=2)   # fuse again
        assert controller.state.fused
        assert controller.state.fusions_performed == 2

    def test_validation(self):
        with pytest.raises(ValueError):
            _controller(_components(), observe=3, revert=3)

    def test_warmup_grace_defers_classification(self):
        """No fusion decisions while components are still warming."""
        controller = _controller(_components(), observe=2, grace=2)
        _feed_epochs(controller, useful=("sap",), epochs=2)  # grace
        assert not controller.state.fused
        _feed_epochs(controller, useful=("sap",), epochs=2)  # observed
        assert controller.state.fused
