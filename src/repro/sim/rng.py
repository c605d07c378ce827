"""Reproducible random-number streams for the Monte-Carlo harness.

Built on :class:`numpy.random.Generator` with ``SeedSequence`` spawning,
so every run of every experiment cell gets an independent, reproducible
stream: ``RandomSource(seed).substream(i)`` is deterministic in
``(seed, i)`` and statistically independent across ``i``.  It is
numpy's ``default_rng(SeedSequence(seed, spawn_key=(i,)))``, seeded
through the port in :mod:`repro.sim.seedseq`, which mixes the seed once
per source and a block's rep indices in one vectorised pass.
``numpy.random`` is imported on the first draw, not with this module.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator, Optional

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only, keeps numpy.random lazy
    from repro.sim.seedseq import SpawnMixer

__all__ = ["RandomSource", "FAST_STREAM_TAG"]

#: Domain-separation tag folded into every fast-kernel block stream so
#: the fast mode's Philox universe can never collide with the exact
#: mode's ``SeedSequence(seed, spawn_key=...)`` spawn tree.
FAST_STREAM_TAG = 0xFA57B10C


class RandomSource:
    """A root seed from which independent substreams are derived."""

    def __init__(self, seed: int = 0) -> None:
        self._seed = int(seed)
        if self._seed < 0:
            raise ValueError(f"seed must be >= 0, got {seed}")
        self._mixer: Optional["SpawnMixer"] = None

    @property
    def seed(self) -> int:
        """The root seed this source was created with."""
        return self._seed

    def generator(self) -> np.random.Generator:
        """A generator seeded directly from the root seed."""
        return np.random.default_rng(np.random.SeedSequence(self._seed))

    def substream(self, index: int) -> np.random.Generator:
        """The ``index``-th independent substream (deterministic)."""
        if index < 0:
            raise ValueError(f"substream index must be >= 0, got {index}")
        return self._spawn_mixer().generator(index)

    def substream_range(
        self, start: int, stop: int
    ) -> Iterator[np.random.Generator]:
        """``substream(i)`` for ``i`` in ``[start, stop)``, seeded as one block.

        The streams are :meth:`substream`'s bit for bit; the rep indices
        are mixed in one vectorised pass, and each generator is built
        as the iteration reaches it.
        """
        if start < 0 or stop < start:
            raise ValueError(f"need 0 <= start <= stop, got [{start}, {stop})")
        return self._spawn_mixer().generators(start, stop)

    def _spawn_mixer(self) -> "SpawnMixer":
        if self._mixer is None:
            from repro.sim.seedseq import SpawnMixer

            self._mixer = SpawnMixer(self._seed)
        return self._mixer

    def fast_block_stream(self, block_start: int) -> np.random.Generator:
        """One vectorised Philox stream for a fast-kernel rep block.

        The fast kernel (:mod:`repro.sim.kernel`) draws a whole block's
        fault realisations from a *single* counter-based bit generator
        instead of seeding one ``PCG64`` per rep (~28 µs each through
        numpy's ``SeedSequence``, ~4–6 µs through
        :meth:`substream_range`).  The stream is a pure function of
        ``(seed, FAST_STREAM_TAG, block_start)`` — the absolute index
        of the block's first rep — so, for a fixed chunk size, which
        worker draws the block (and in what order blocks complete)
        cannot change the realisations: fast mode's *block-determinism*
        contract.  The tag keeps this universe disjoint from the exact
        mode's spawn tree.
        """
        if block_start < 0:
            raise ValueError(
                f"block_start must be >= 0, got {block_start}"
            )
        sequence = np.random.SeedSequence(
            entropy=(self._seed, FAST_STREAM_TAG, int(block_start))
        )
        return np.random.Generator(np.random.Philox(sequence))

    def substreams(self, count: int) -> Iterator[np.random.Generator]:
        """Iterate the first ``count`` substreams."""
        for index in range(count):
            yield self.substream(index)

    def fork(self, label: int) -> "RandomSource":
        """A new root source derived deterministically from this one.

        Used to give each experiment cell its own seed universe so that
        adding rows to a table never perturbs existing rows.
        """
        mixed = np.random.SeedSequence(self._seed, spawn_key=(0xC0FFEE, label))
        return RandomSource(int(mixed.generate_state(1, np.uint64)[0]))
