"""Unit tests for the reproducible RNG streams.

numpy's own ``SeedSequence`` is the oracle for the spawn-seeding port
(:mod:`repro.sim.seedseq`) behind ``substream`` and ``substream_range``.
"""

import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import ParameterError
from repro.sim.rng import RandomSource

from tests.conftest import repro_env


class TestRandomSource:
    def test_same_seed_same_streams(self):
        a = RandomSource(42).substream(3).random(8)
        b = RandomSource(42).substream(3).random(8)
        assert np.array_equal(a, b)

    def test_different_substreams_differ(self):
        a = RandomSource(42).substream(0).random(8)
        b = RandomSource(42).substream(1).random(8)
        assert not np.array_equal(a, b)

    def test_different_seeds_differ(self):
        a = RandomSource(1).substream(0).random(8)
        b = RandomSource(2).substream(0).random(8)
        assert not np.array_equal(a, b)

    def test_substreams_iterator_matches_indexing(self):
        source = RandomSource(7)
        from_iter = [g.random() for g in source.substreams(4)]
        from_index = [source.substream(i).random() for i in range(4)]
        assert from_iter == from_index

    def test_fork_is_deterministic(self):
        a = RandomSource(5).fork(9)
        b = RandomSource(5).fork(9)
        assert a.seed == b.seed

    def test_fork_labels_independent(self):
        source = RandomSource(5)
        assert source.fork(1).seed != source.fork(2).seed

    def test_adding_reps_preserves_existing_streams(self):
        # The property the Monte-Carlo harness relies on.
        source = RandomSource(0)
        first_two = [g.random() for g in source.substreams(2)]
        first_of_many = [g.random() for g in source.substreams(10)][:2]
        assert first_two == first_of_many

    def test_negative_substream_rejected(self):
        with pytest.raises(ValueError):
            RandomSource(0).substream(-1)

    def test_generator_is_seeded(self):
        assert RandomSource(3).generator().random() == RandomSource(
            3
        ).generator().random()

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match="seed must be >= 0"):
            RandomSource(-1)
        assert RandomSource(0).seed == 0

    @pytest.mark.parametrize(
        "seed", [2.7, 3.0, True, False, "3", None], ids=repr
    )
    def test_non_integer_seed_rejected(self, seed):
        # Truncating would run another seed's streams: 2.7 drew seed 2's.
        with pytest.raises(ParameterError, match="seed must be an integer"):
            RandomSource(seed)

    def test_numpy_random_loads_on_first_draw(self):
        code = (
            "import sys\n"
            "from repro.sim.rng import RandomSource\n"
            "source = RandomSource(3)\n"
            "assert 'numpy.random' not in sys.modules\n"
            "source.substream(0)\n"
            "assert 'numpy.random' in sys.modules\n"
        )
        subprocess.run([sys.executable, "-c", code], check=True, env=repro_env())


def numpy_state(seed, index):
    """The oracle: numpy's own spawn of ``seed`` at ``index``."""
    sequence = np.random.SeedSequence(seed, spawn_key=(index,))
    return np.random.default_rng(sequence).bit_generator.state


#: Seeds of one to five 32-bit words (numpy's pool holds four).
SEEDS = st.one_of(
    st.integers(min_value=0, max_value=2**32),
    st.integers(min_value=0, max_value=2**130),
    st.integers(min_value=2**128, max_value=2**130),
)
INDICES = st.integers(min_value=0, max_value=2**40)


class TestSpawnPort:
    @given(seed=SEEDS, index=INDICES)
    @example(seed=0, index=0)
    @example(seed=2**130, index=2**32)
    @settings(max_examples=200, deadline=None)
    def test_substream_is_numpys_spawn(self, seed, index):
        assert RandomSource(seed).substream(index).bit_generator.state == numpy_state(
            seed, index
        )

    @given(
        seed=SEEDS,
        start=st.one_of(INDICES, st.integers(min_value=2**32 - 16, max_value=2**32)),
        count=st.integers(min_value=0, max_value=24),
    )
    @example(seed=0, start=0, count=4)
    @example(seed=7, start=2**32 - 2, count=4)  # straddles 2**32
    @example(seed=7, start=2**64 - 2, count=4)  # past the uint64 arrays
    @settings(max_examples=150, deadline=None)
    def test_substream_range_is_numpys_spawn(self, seed, start, count):
        streams = RandomSource(seed).substream_range(start, start + count)
        assert [stream.bit_generator.state for stream in streams] == [
            numpy_state(seed, index) for index in range(start, start + count)
        ]

    @given(seed=SEEDS, index=INDICES)
    @settings(max_examples=50, deadline=None)
    def test_spawn_gives_numpys_children(self, seed, index):
        """``Generator.spawn`` (the TMR extension's per-processor split)."""
        ours = [
            RandomSource(seed).substream(index),
            next(RandomSource(seed).substream_range(index, index + 1)),
        ]
        for stream in ours:
            theirs = np.random.default_rng(
                np.random.SeedSequence(seed, spawn_key=(index,))
            )
            for count in (3, 2):  # a second spawn continues the count
                assert [c.bit_generator.state for c in stream.spawn(count)] == [
                    c.bit_generator.state for c in theirs.spawn(count)
                ]

    def test_other_state_requests_are_numpys(self):
        stream = RandomSource(11).substream(5)
        theirs = np.random.SeedSequence(11, spawn_key=(5,))
        for words, dtype in ((4, np.uint64), (3, np.uint32), (9, np.uint64)):
            assert np.array_equal(
                stream.bit_generator.seed_seq.generate_state(words, dtype),
                theirs.generate_state(words, dtype),
            )

    def test_precomputed_words_are_read_only(self):
        seed_seq = RandomSource(11).substream(5).bit_generator.seed_seq
        with pytest.raises(ValueError):
            seed_seq.generate_state(4, np.uint64)[0] = 0

    def test_bad_range_rejected(self):
        with pytest.raises(ValueError):
            RandomSource(0).substream_range(-1, 2)
        with pytest.raises(ValueError):
            RandomSource(0).substream_range(3, 2)
