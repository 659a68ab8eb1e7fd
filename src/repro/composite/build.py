"""Predictor assemblies built from declarative specs.

:func:`build_predictor` turns the small picklable spec dicts that sweep
cells, serve sessions and the CLI carry into a predictor assembly.  It
lives beside the composite, not in the sweep harness, so that a serve
worker opening a session loads the predictor code alone; the EVES
baseline is imported only for an ``eves`` spec.
:func:`repro.harness.runner.build_predictor` re-exports it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.composite.composite import CompositePredictor
from repro.composite.config import CompositeConfig
from repro.predictors import COMPONENT_NAMES

if TYPE_CHECKING:
    from repro.pipeline.vp import ValuePredictorHost


def build_predictor(spec: dict | None) -> ValuePredictorHost | None:
    """Construct a predictor assembly from a declarative spec.

    Specs are small picklable dicts so sweeps can ship them to worker
    subprocesses and fingerprint them for the results database:

    * ``{"kind": "none"}`` or ``None`` -- baseline, no predictor;
    * ``{"kind": "composite", "config": CompositeConfig(...)}``;
    * ``{"kind": "component", "name": "lvp", "entries": 256}`` -- one
      component alone (Figure 3), built as the one-component *plain*
      composite (every filter off, Section V-A): ``entries`` in the
      named slot and 0 in the other three, or, for the footnote-1
      ``lap``/``svp``, all four slots 0 and ``(name, entries)`` as the
      only extra component.  Its FPC streams are the composite's
      (``CompositeConfig.seed`` 0);
    * ``{"kind": "eves", "variant": "8kb"|"32kb"|"infinite", "seed": 0}``.

    Malformed specs raise :class:`ValueError` with a one-line message
    (never a raw :class:`KeyError`), which the CLI surfaces as exit
    code 2 -- the PR-1 exit-code contract for bad inputs.
    """
    if spec is None:
        return None
    if not isinstance(spec, dict):
        raise ValueError(
            f"predictor spec must be a dict or None, got {type(spec).__name__}"
        )
    if "kind" not in spec:
        raise ValueError(
            f"predictor spec missing 'kind'; got keys {sorted(spec)}"
        )
    kind = spec["kind"]
    if kind == "none":
        return None
    if kind == "composite":
        if "config" not in spec:
            raise ValueError(
                "composite predictor spec missing 'config' "
                "(a CompositeConfig)"
            )
        return CompositePredictor(spec["config"])
    if kind == "component":
        if "name" not in spec:
            raise ValueError(
                "component predictor spec missing 'name' "
                "(e.g. 'lvp', 'sap', 'cvp', 'cap')"
            )
        if "entries" not in spec:
            raise ValueError(
                f"component predictor spec for {spec['name']!r} missing "
                "'entries'"
            )
        name, entries = spec["name"], spec["entries"]
        slots = {n: entries if n == name else 0 for n in COMPONENT_NAMES}
        extra = () if name in slots else ((name, entries),)
        config = CompositeConfig(extra_components=extra)
        return CompositePredictor(config.with_entries(**slots).plain())
    if kind == "eves":
        from repro.eves.eves import eves_8kb, eves_32kb, eves_infinite

        factories = {
            "8kb": eves_8kb, "32kb": eves_32kb, "infinite": eves_infinite,
        }
        if "variant" not in spec:
            raise ValueError(
                f"eves predictor spec missing 'variant'; expected one of "
                f"{sorted(factories)}"
            )
        try:
            factory = factories[spec["variant"]]
        except KeyError:
            raise ValueError(
                f"unknown EVES variant {spec['variant']!r}; expected one of "
                f"{sorted(factories)}"
            ) from None
        return factory(spec.get("seed", 0))
    raise ValueError(f"unknown predictor spec kind {kind!r}")
