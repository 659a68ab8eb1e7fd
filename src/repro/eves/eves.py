"""The assembled EVES predictor with the paper's budget presets."""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.rng import DeterministicRng
from repro.eves.estride import EStridePredictor
from repro.eves.evtage import EVtagePredictor
from repro.predictors.types import CONFIDENT, PredictionKind


@dataclass(frozen=True)
class EvesConfig:
    """Structure sizes for one EVES instance."""

    estride_entries: int = 128
    evtage_base_entries: int = 512
    evtage_tagged_entries: int = 64
    evtage_num_tables: int = 6
    seed: int = 0
    label: str = "eves"


class EvesPredictor:
    """EVES: E-Stride consulted first, then E-VTAGE.

    E-Stride takes priority when confident because a correct stride
    chain predicts values E-VTAGE fundamentally cannot (each dynamic
    instance differs); otherwise the VTAGE side supplies last-value-
    with-context behaviour.  Both components always train, per the
    championship design.

    It is a value-predictor host itself (see
    :class:`repro.pipeline.vp.ValuePredictorHost`) with one value slot,
    ``"eves"``: a confident prediction from either side is always the
    chosen one, and EVES has no epochs, so ``tick_instructions`` does
    nothing.
    """

    name = "eves"
    kind = PredictionKind.VALUE
    context_aware = True
    slot_names = ("eves",)
    address_slots = 0

    def __init__(self, config: EvesConfig | None = None) -> None:
        self.config = config or EvesConfig()
        rng = DeterministicRng(self.config.seed, self.config.label)
        self.estride = EStridePredictor(self.config.estride_entries, rng)
        self.evtage = EVtagePredictor(
            base_entries=self.config.evtage_base_entries,
            tagged_entries=self.config.evtage_tagged_entries,
            num_tables=self.config.evtage_num_tables,
            rng=rng,
        )

    def predict(
        self, pc: int, ordinal: int, direction: int, path: int,
        load_path: int, inflight: int,
    ) -> list:
        prediction = self.estride.predict(
            pc, ordinal, direction, path, load_path, inflight
        )
        if prediction is None:
            prediction = self.evtage.predict(
                pc, ordinal, direction, path, load_path, inflight
            )
        if prediction is None:
            return [pc, ordinal, direction, path, load_path, inflight,
                    0, 0, -1, None]
        return [pc, ordinal, direction, path, load_path, inflight,
                1, 0, 0, prediction]

    def validate_and_train(
        self, decision: list, addr: int, size: int, value: int,
        correct: int,
    ) -> None:
        if correct & ~decision[CONFIDENT]:
            raise ValueError(
                f"verdict mask {correct:#x} has slots outside the "
                f"confident mask {decision[CONFIDENT]:#x}"
            )
        load = decision[:CONFIDENT]  # the six load fields
        self.estride.train(*load, addr, size, value)
        self.evtage.train(*load, addr, size, value)

    def tick_instructions(self, count: int) -> None:
        pass

    def storage_bits(self) -> int:
        return self.estride.storage_bits() + self.evtage.storage_bits()

    def storage_kib(self) -> float:
        return self.storage_bits() / 8 / 1024

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"EvesPredictor({self.config.label}, {self.storage_kib():.1f}KiB)"


def eves_8kb(seed: int = 0) -> EvesPredictor:
    """~8KB EVES (the paper's small comparison point)."""
    return EvesPredictor(EvesConfig(
        estride_entries=128,
        evtage_base_entries=512,
        evtage_tagged_entries=64,
        evtage_num_tables=6,
        seed=seed,
        label="eves-8kb",
    ))


def eves_32kb(seed: int = 0) -> EvesPredictor:
    """~32KB EVES (the paper's large comparison point)."""
    return EvesPredictor(EvesConfig(
        estride_entries=512,
        evtage_base_entries=2048,
        evtage_tagged_entries=256,
        evtage_num_tables=6,
        seed=seed,
        label="eves-32kb",
    ))


def eves_infinite(seed: int = 0) -> EvesPredictor:
    """Effectively unbounded EVES (the Figure 11 limit point).

    64K entries per structure dwarfs the working set of any trace this
    library generates, so aliasing vanishes, which is what the paper's
    "infinite" column measures.
    """
    return EvesPredictor(EvesConfig(
        estride_entries=65536,
        evtage_base_entries=65536,
        evtage_tagged_entries=16384,
        evtage_num_tables=6,
        seed=seed,
        label="eves-infinite",
    ))
