"""Tests for the footnote-1 predictors (LAP, SVP)."""

from conftest import make_outcome, make_probe, train_strided

from repro.common.rng import DeterministicRng
from repro.predictors.lap import LapPredictor
from repro.predictors.svp import SvpPredictor
from repro.predictors.types import PredictionKind


def _lap(entries=256):
    return LapPredictor(entries, DeterministicRng(0))


def _svp(entries=256):
    return SvpPredictor(entries, DeterministicRng(0))


class TestLap:
    def test_predicts_repeated_address(self):
        lap = _lap()
        for _ in range(30):
            lap.train(*make_outcome(pc=0x1000, addr=0x9000))
        prediction = lap.predict(make_probe(pc=0x1000))
        assert prediction is not None
        assert prediction.kind is PredictionKind.ADDRESS
        assert prediction.addr == 0x9000

    def test_strided_addresses_never_confident(self):
        """The defining gap vs SAP: LAP cannot follow strides."""
        lap = _lap()
        train_strided(lap, pc=0x1000, base=0x8000, stride=8, times=100)
        assert lap.predict(make_probe(pc=0x1000)) is None

    def test_address_change_resets(self):
        lap = _lap()
        for _ in range(30):
            lap.train(*make_outcome(pc=0x1000, addr=0x9000))
        lap.train(*make_outcome(pc=0x1000, addr=0xA000))
        assert lap.predict(make_probe(pc=0x1000)) is None

    def test_penalize(self):
        lap = _lap()
        for _ in range(30):
            lap.train(*make_outcome(pc=0x1000, addr=0x9000))
        lap.penalize(*make_outcome(pc=0x1000, addr=0x9000))
        assert lap.predict(make_probe(pc=0x1000)) is None

    def test_storage(self):
        assert _lap(1024).storage_bits() == 1024 * 67


class TestSvp:
    def test_predicts_strided_values(self):
        svp = _svp()
        for i in range(300):
            svp.train(*make_outcome(pc=0x1000, value=100 + 4 * i))
        prediction = svp.predict(make_probe(pc=0x1000))
        assert prediction is not None
        assert prediction.kind is PredictionKind.VALUE
        assert prediction.value == 100 + 4 * 300

    def test_constant_is_stride_zero(self):
        svp = _svp()
        for _ in range(300):
            svp.train(*make_outcome(pc=0x1000, value=7))
        assert svp.predict(make_probe(pc=0x1000)).value == 7

    def test_inflight_compensation(self):
        svp = _svp()
        for i in range(300):
            svp.train(*make_outcome(pc=0x1000, value=10 + 2 * i))
        p0 = svp.predict(make_probe(pc=0x1000, inflight=0))
        p2 = svp.predict(make_probe(pc=0x1000, inflight=2))
        assert p2.value == p0.value + 4

    def test_unrepresentable_stride_never_confident(self):
        """Deltas outside the 16-bit stride field must not build
        confidence on their wrapped value."""
        svp = _svp()
        for i in range(300):
            svp.train(*make_outcome(pc=0x1000, value=i * (1 << 20)))
        assert svp.predict(make_probe(pc=0x1000)) is None

    def test_negative_stride(self):
        svp = _svp()
        for i in range(300):
            svp.train(*make_outcome(pc=0x1000, value=(10_000 - 3 * i) & ((1 << 64) - 1)))
        prediction = svp.predict(make_probe(pc=0x1000))
        assert prediction.value == (10_000 - 3 * 300) & ((1 << 64) - 1)

    def test_storage(self):
        assert _svp(1024).storage_bits() == 1024 * 97


class TestOrdering:
    def test_selection_and_training_positions(self):
        """Extras slot into the generalized orders behind their
        same-class canonical components."""
        from repro.composite.composite import selection_order, training_order
        from repro.predictors import make_component

        components = {
            name: make_component(name, 64)
            for name in ("lvp", "sap", "cvp", "cap", "lap", "svp")
        }
        selection = selection_order(components)
        training = training_order(components)
        assert selection.index("svp") > selection.index("lvp")
        assert selection.index("lap") > selection.index("sap")
        assert selection.index("svp") < selection.index("cap")  # value first
        assert training[:3] == ("lvp", "svp", "cvp")

    def test_canonical_orders_preserved(self):
        from repro.composite.composite import (
            SELECTION_ORDER,
            TRAINING_ORDER,
            selection_order,
            training_order,
        )
        from repro.predictors import COMPONENT_NAMES, make_component

        components = {n: make_component(n, 64) for n in COMPONENT_NAMES}
        assert selection_order(components) == SELECTION_ORDER
        assert training_order(components) == TRAINING_ORDER
