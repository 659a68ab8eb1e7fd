"""Tests for CompositeConfig mechanics."""

from repro.composite.config import CompositeConfig


class TestEntries:
    def test_homogeneous(self):
        config = CompositeConfig().homogeneous(128)
        assert set(config.entries().values()) == {128}
        assert config.is_homogeneous
        assert config.total_entries() == 512

    def test_with_entries(self):
        config = CompositeConfig().with_entries(64, 256, 128, 64)
        assert config.entries() == {
            "lvp": 64, "sap": 256, "cvp": 128, "cap": 64,
        }
        assert not config.is_homogeneous

    def test_extra_components_in_entries(self):
        config = CompositeConfig(
            extra_components=(("lap", 64), ("svp", 32)),
        ).homogeneous(64)
        entries = config.entries()
        assert entries["lap"] == 64 and entries["svp"] == 32
        assert len(entries) == 6

    def test_plain_disables_optimizations(self):
        config = CompositeConfig().plain()
        assert config.accuracy_monitor == "none"
        assert not config.smart_training
        assert not config.table_fusion

    def test_confidence_delta_applied(self):
        from repro.composite import CompositePredictor
        from dataclasses import replace

        base = CompositeConfig(epoch_instructions=1000).homogeneous(64).plain()
        loose = CompositePredictor(replace(base, confidence_delta=-2))
        paper = CompositePredictor(base)
        for name in ("lvp", "sap", "cvp", "cap"):
            assert loose.components[name].confidence_threshold <= \
                paper.components[name].confidence_threshold
            assert loose.components[name].confidence_threshold >= 1

    def test_confidence_delta_clamped(self):
        from repro.composite import CompositePredictor
        from dataclasses import replace

        base = CompositeConfig(epoch_instructions=1000).homogeneous(64).plain()
        very_loose = CompositePredictor(replace(base, confidence_delta=-99))
        assert all(
            c.confidence_threshold == 1
            for c in very_loose.components.values()
        )

