"""Deterministic random-number streams.

Every source of randomness in the library (FPC coin flips, workload
generation, replacement tie-breaking) draws from a named
:class:`DeterministicRng` stream seeded from experiment configuration, so
any run is reproducible bit-for-bit.  A stream that draws nothing but
coins (a predictor's FPC stream) is a :class:`CoinStream`, which takes
its doubles from the generator in blocks.
"""

from __future__ import annotations

import numpy as np


class DeterministicRng:
    """A thin, deterministic wrapper around :class:`numpy.random.Generator`.

    Streams are derived from a root seed plus a name, so independent
    subsystems never perturb each other's sequences: adding an extra FPC
    coin flip in one predictor cannot change the workload another
    experiment generates.
    """

    def __init__(self, seed: int, name: str = "root") -> None:
        self._seed = seed
        self._name = name
        material = np.random.SeedSequence(
            [seed, *(ord(c) for c in name)]
        )
        self._gen = np.random.Generator(np.random.PCG64(material))

    @property
    def seed(self) -> int:
        return self._seed

    @property
    def name(self) -> str:
        return self._name

    def derive(self, name: str) -> "DeterministicRng":
        """Create an independent child stream, e.g. ``rng.derive("lvp")``."""
        return DeterministicRng(self._seed, f"{self._name}/{name}")

    def coin(self, probability: float) -> bool:
        """Bernoulli draw; ``True`` with the given probability."""
        if probability <= 0.0:
            return False
        if probability >= 1.0:
            return True
        return bool(self._gen.random() < probability)

    def randint(self, low: int, high: int) -> int:
        """Uniform integer in ``[low, high)``."""
        return int(self._gen.integers(low, high))

    def random(self) -> float:
        return float(self._gen.random())

    def choice(self, items: list):
        """Uniformly choose one element of a non-empty list."""
        if not items:
            raise ValueError("cannot choose from an empty list")
        return items[self.randint(0, len(items))]

    def shuffled(self, items: list) -> list:
        """Return a shuffled copy; the input list is left untouched."""
        out = list(items)
        self._gen.shuffle(out)
        return out

    def geometric(self, p: float) -> int:
        """Geometric draw (number of trials until first success, >= 1)."""
        return int(self._gen.geometric(p))

    def coins(self, name: str) -> "CoinStream":
        """A child stream that draws nothing but coins, e.g. a
        predictor's FPC stream: ``rng.coins("lvp")``."""
        return CoinStream(self.derive(name))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"DeterministicRng(seed={self._seed}, name={self._name!r})"


#: Doubles in a :class:`CoinStream`'s first block; each refill doubles
#: the block up to ``_MAX_BLOCK``, so a stream that flips a handful of
#: coins draws a handful of doubles, a busy one refills rarely, and a
#: pickled one carries at most ``_MAX_BLOCK`` unhanded doubles.
_FIRST_BLOCK = 16
_MAX_BLOCK = 256


class CoinStream:
    """Bernoulli draws of one stream, from doubles drawn in blocks.

    ``Generator.random(n)`` yields the same doubles as ``n`` successive
    ``random()`` calls, so ``coin`` answers exactly what
    :meth:`DeterministicRng.coin` on the same stream would, at a
    fraction of the per-draw cost.  The stream's position is its
    generator state plus the doubles still unhanded, and both pickle,
    so a stream checkpointed mid-block resumes identically.  Only a
    stream that draws nothing else may be one: any other draw would
    see the generator already past the buffered block.
    """

    __slots__ = ("_gen", "_block", "_fetched")

    def __init__(self, rng: DeterministicRng) -> None:
        self._gen = rng._gen
        #: The drawn-but-unhanded doubles, next one last.
        self._block: list[float] = []
        #: Doubles taken from the generator so far.
        self._fetched = 0

    @property
    def drawn(self) -> int:
        """Coins that consumed a double so far: the stream position."""
        return self._fetched - len(self._block)

    def coin(self, probability: float) -> bool:
        """Bernoulli draw; ``True`` with the given probability (no
        double is consumed when ``probability`` is outside (0, 1))."""
        if probability <= 0.0:
            return False
        if probability >= 1.0:
            return True
        block = self._block
        return (block.pop() if block else self._refill()) < probability

    def _refill(self) -> float:
        """Draw the next block and hand out its first double."""
        size = min(max(self._fetched, _FIRST_BLOCK), _MAX_BLOCK)
        block = self._gen.random(size).tolist()
        block.reverse()
        self._fetched += size
        self._block = block
        return block.pop()
