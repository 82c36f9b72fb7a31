"""Wire-protocol types: specs rebuild systems, batches plan sanely."""

import pickle
from math import prod

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.hole import Hole
from repro.core.action import Action
from repro.dist.coordinator import plan_batches, plan_shard_batches
from repro.dist.messages import (
    BatchTask,
    HoleSpec,
    PassStart,
    PatternUpdate,
    SystemSpec,
)
from repro.mc.system import TransitionSystem
from repro.protocols.catalog import (
    SKELETON_CATALOG,
    build_skeleton,
    build_skeleton_with_holes,
    skeleton_names,
)


class TestSystemSpec:
    @pytest.mark.parametrize("name", ["figure2", "mutex", "vi", "msi-tiny"])
    def test_build_matches_catalog(self, name):
        system = SystemSpec(name).build()
        assert isinstance(system, TransitionSystem)
        assert system.name == build_skeleton(name).name

    def test_rebuild_is_deterministic(self):
        a = SystemSpec("msi-tiny").build()
        b = SystemSpec("msi-tiny").build()
        assert [rule.name for rule in a.rules] == [rule.name for rule in b.rules]

    def test_unknown_name_rejected(self):
        with pytest.raises(KeyError, match="unknown skeleton"):
            SystemSpec("nope").build()

    def test_catalog_covers_cli_names(self):
        assert {"msi-small", "msi-large", "mutex", "figure2"} <= set(
            skeleton_names()
        )

    def test_spec_is_picklable(self):
        spec = SystemSpec("mutex", replicas=3)
        assert pickle.loads(pickle.dumps(spec)) == spec


class TestHoleSpec:
    def test_round_trip_preserves_names_and_order(self):
        hole = Hole("h", (Action("a"), Action("b"), Action("c")))
        spec = HoleSpec.from_hole(hole)
        assert spec.name == "h"
        assert spec.actions == ("a", "b", "c")
        assert spec.arity == 3
        placeholder = spec.placeholder()
        assert placeholder.name == hole.name
        assert placeholder.arity == hole.arity
        assert [a.name for a in placeholder.domain] == ["a", "b", "c"]

    def test_messages_are_picklable(self):
        spec = HoleSpec("h", ("a", "b"))
        start = PassStart(1, 0, (spec,), (((0, 1),),), ())
        task = BatchTask(0, 0, 10, eval_budget=3)
        update = PatternUpdate(1, fail_delta=(((0, 0),),))
        for message in (spec, start, task, update):
            assert pickle.loads(pickle.dumps(message)) == message


class TestPlanBatches:
    def test_covers_range_contiguously(self):
        batches = plan_batches(1000, workers=4)
        assert batches[0][0] == 0
        assert batches[-1][1] == 1000
        for (_, end), (start, _) in zip(batches, batches[1:]):
            assert end == start

    def test_batch_count_tracks_workers(self):
        batches = plan_batches(100_000, workers=4, batches_per_worker=4)
        assert len(batches) == 16

    def test_min_batch_size_floor(self):
        batches = plan_batches(40, workers=4, min_batch_size=16)
        assert all(end - start <= 16 for start, end in batches)
        assert len(batches) == 3

    def test_tiny_and_empty_spaces(self):
        assert plan_batches(1, workers=4) == [(0, 1)]
        assert plan_batches(0, workers=4) == []


#: the dispatch plan of every catalog skeleton's declared holes (lowest
#: replica count) at 1-4 workers with the engine's default chunking —
#: the exact ranges the processes backend hands out
EXPECTED_SHARD_BATCHES = {
    "figure2": {
        1: [(0, 16), (16, 24)],
        2: [(0, 16), (16, 24)],
        3: [(0, 16), (16, 24)],
        4: [(0, 16), (16, 24)],
    },
    "german-small": {
        1: [(0, 16), (16, 18)],
        2: [(0, 16), (16, 18)],
        3: [(0, 16), (16, 18)],
        4: [(0, 16), (16, 18)],
    },
    "mesi": {
        1: [(0, 16), (16, 24)],
        2: [(0, 16), (16, 24)],
        3: [(0, 16), (16, 24)],
        4: [(0, 16), (16, 24)],
    },
    "moesi-small": {
        1: [(0, 20), (20, 40), (40, 50)],
        2: [(0, 16), (16, 32), (32, 48), (48, 50)],
        3: [(0, 16), (16, 32), (32, 48), (48, 50)],
        4: [(0, 16), (16, 32), (32, 48), (48, 50)],
    },
    "msi-evict": {
        1: [(0, 11664), (11664, 23328), (23328, 34992), (34992, 46656)],
        2: [(0, 6480), (6480, 12960), (12960, 19440), (19440, 25920),
            (25920, 32400), (32400, 38880), (38880, 45360), (45360, 46656)],
        3: [(0, 3888), (3888, 7776), (7776, 11664), (11664, 15552), (15552, 19440),
            (19440, 23328), (23328, 27216), (27216, 31104), (31104, 34992),
            (34992, 38880), (38880, 42768), (42768, 46656)],
        4: [(0, 3888), (3888, 7776), (7776, 11664), (11664, 15552), (15552, 19440),
            (19440, 23328), (23328, 27216), (27216, 31104), (31104, 34992),
            (34992, 38880), (38880, 42768), (42768, 46656)],
    },
    "msi-large": {
        1: [(0, 29172150), (29172150, 58344300), (58344300, 87516450),
            (87516450, 102102525)],
        2: [(0, 14586075), (14586075, 29172150), (29172150, 43758225),
            (43758225, 58344300), (58344300, 72930375), (72930375, 87516450),
            (87516450, 102102525)],
        3: [(0, 9724050), (9724050, 19448100), (19448100, 29172150),
            (29172150, 38896200), (38896200, 48620250), (48620250, 58344300),
            (58344300, 68068350), (68068350, 77792400), (77792400, 87516450),
            (87516450, 97240500), (97240500, 102102525)],
        4: [(0, 9724050), (9724050, 19448100), (19448100, 29172150),
            (29172150, 38896200), (38896200, 48620250), (48620250, 58344300),
            (58344300, 68068350), (68068350, 77792400), (77792400, 87516450),
            (87516450, 97240500), (97240500, 102102525)],
    },
    "msi-read-tiny": {
        1: [(0, 16), (16, 21)],
        2: [(0, 16), (16, 21)],
        3: [(0, 16), (16, 21)],
        4: [(0, 16), (16, 21)],
    },
    "msi-small": {
        1: [(0, 66150), (66150, 132300), (132300, 198450), (198450, 231525)],
        2: [(0, 33075), (33075, 66150), (66150, 99225), (99225, 132300),
            (132300, 165375), (165375, 198450), (198450, 231525)],
        3: [(0, 22050), (22050, 44100), (44100, 66150), (66150, 88200),
            (88200, 110250), (110250, 132300), (132300, 154350), (154350, 176400),
            (176400, 198450), (198450, 220500), (220500, 231525)],
        4: [(0, 22050), (22050, 44100), (44100, 66150), (66150, 88200),
            (88200, 110250), (110250, 132300), (132300, 154350), (154350, 176400),
            (176400, 198450), (198450, 220500), (220500, 231525)],
    },
    "msi-tiny": {
        1: [(0, 16), (16, 21)],
        2: [(0, 16), (16, 21)],
        3: [(0, 16), (16, 21)],
        4: [(0, 16), (16, 21)],
    },
    "mutex": {
        1: [(0, 9)],
        2: [(0, 9)],
        3: [(0, 9)],
        4: [(0, 9)],
    },
    "vi": {
        1: [(0, 36), (36, 72), (72, 108)],
        2: [(0, 24), (24, 48), (48, 72), (72, 96), (96, 108)],
        3: [(0, 16), (16, 32), (32, 48), (48, 64), (64, 80), (80, 96), (96, 108)],
        4: [(0, 16), (16, 32), (32, 48), (48, 64), (64, 80), (80, 96), (96, 108)],
    },
}


class TestPlanShardBatches:
    def test_empty_radices_are_one_candidate(self):
        # A skeleton with no declared holes still has the one empty
        # candidate; the shard planner agrees with the plain planner.
        for workers in range(1, 5):
            assert plan_shard_batches([], workers) == [(0, 1)]
            assert plan_shard_batches([], workers) == plan_batches(1, workers)

    @pytest.mark.parametrize("name", sorted(SKELETON_CATALOG))
    def test_catalog_plans_are_pinned(self, name):
        low, _high = SKELETON_CATALOG[name].replicas
        _system, holes = build_skeleton_with_holes(name, low)
        radices = [hole.arity for hole in holes]
        plans = {
            workers: plan_shard_batches(radices, workers)
            for workers in range(1, 5)
        }
        assert plans == EXPECTED_SHARD_BATCHES[name]

    @settings(max_examples=200, deadline=None)
    @given(
        radices=st.lists(st.integers(min_value=1, max_value=6), max_size=6),
        workers=st.integers(min_value=1, max_value=4),
        batches_per_worker=st.integers(min_value=1, max_value=8),
        min_batch_size=st.integers(min_value=1, max_value=40),
    )
    def test_batches_partition_the_full_space(
        self, radices, workers, batches_per_worker, min_batch_size
    ):
        total = prod(radices)
        batches = plan_shard_batches(
            radices, workers, batches_per_worker, min_batch_size
        )
        # Contiguous, non-empty, and exactly covering range(total).
        assert batches[0][0] == 0 and batches[-1][1] == total
        for (_, end), (start, _) in zip(batches, batches[1:]):
            assert end == start
        assert all(start < end for start, end in batches)
        # Every batch but the last spans one shard-aligned step that
        # meets the size floor; the step never leaves more batches than
        # the workers x batches_per_worker target.
        sizes = {end - start for start, end in batches[:-1]}
        assert len(sizes) <= 1
        if sizes:
            step = sizes.pop()
            assert step >= min_batch_size
            assert len(batches) <= workers * batches_per_worker
            assert batches[-1][1] - batches[-1][0] <= step
