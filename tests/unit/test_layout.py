"""Unit tests for the physical layout / backup order."""

import pytest

from repro.errors import PartitionError
from repro.ids import PageId
from repro.storage.layout import MIN_POS, Layout


class TestLayoutBasics:
    def test_needs_a_partition(self):
        with pytest.raises(PartitionError):
            Layout([])

    def test_rejects_empty_partition(self):
        with pytest.raises(PartitionError):
            Layout([4, 0])

    def test_sizes(self):
        layout = Layout([4, 8])
        assert layout.num_partitions == 2
        assert layout.partition_size(0) == 4
        assert layout.partition_size(1) == 8
        assert layout.total_pages() == 12

    def test_position_is_slot(self):
        layout = Layout([4, 8])
        assert layout.position(PageId(1, 5)) == 5

    def test_position_checks_membership(self):
        layout = Layout([4])
        with pytest.raises(PartitionError):
            layout.position(PageId(0, 4))
        with pytest.raises(PartitionError):
            layout.position(PageId(1, 0))

    def test_min_max_sentinels_bracket_positions(self):
        layout = Layout([4])
        assert layout.min_pos(0) == MIN_POS == -1
        assert layout.max_pos(0) == 4
        for page in layout.pages_in_partition(0):
            assert layout.min_pos(0) < layout.position(page) < layout.max_pos(0)

    def test_all_pages_in_backup_order(self):
        layout = Layout([2, 2])
        assert list(layout.all_pages()) == [
            PageId(0, 0), PageId(0, 1), PageId(1, 0), PageId(1, 1),
        ]

    def test_page_ids_are_built_once(self):
        """Every walk of the layout hands out the same PageId objects."""
        layout = Layout([3, 2])
        assert layout.pages_in_partition(1) is layout.pages_in_partition(1)
        assert all(
            a is b for a, b in zip(layout.all_pages(), layout.all_pages())
        )

    def test_pages_in_partition_checks_range(self):
        with pytest.raises(PartitionError):
            Layout([4]).pages_in_partition(1)


class TestStepBoundaries:
    def test_last_boundary_is_max(self):
        layout = Layout([100])
        for steps in (1, 2, 3, 7, 8, 100, 200):
            boundaries = layout.step_boundaries(0, steps)
            assert boundaries[-1] == layout.max_pos(0)

    def test_boundaries_strictly_increasing(self):
        layout = Layout([100])
        for steps in (1, 2, 3, 7, 8, 64):
            boundaries = layout.step_boundaries(0, steps)
            assert all(a < b for a, b in zip(boundaries, boundaries[1:]))

    def test_equal_steps(self):
        layout = Layout([100])
        assert layout.step_boundaries(0, 4) == [25, 50, 75, 100]

    def test_one_step_covers_everything(self):
        layout = Layout([10])
        assert layout.step_boundaries(0, 1) == [10]

    def test_more_steps_than_pages_degenerates(self):
        layout = Layout([3])
        assert layout.step_boundaries(0, 10) == [1, 2, 3]

    def test_zero_steps_rejected(self):
        with pytest.raises(ValueError):
            Layout([10]).step_boundaries(0, 0)
