"""Physical layout: the backup order ``#X`` of section 3.4.

With each object X the paper associates a value ``#X`` in the backup
(partial) order such that ``#X < #Y`` guarantees X is copied to the backup
before Y.  These values "can be derived from the physical locations of data
on disk"; here they are derived from the page's (partition, slot) address.

Progress is tracked *per partition* (section 3.4), which permits partitions
to be backed up in parallel.  Within a partition the order is total: the
position of ``PageId(p, s)`` is simply ``s``.  ``MIN_POS``/``max_pos`` play
the roles of the paper's Min and Max sentinels: ``Min < #X < Max`` for all
real pages.
"""

from __future__ import annotations

from itertools import chain
from typing import Dict, Iterator, List, Tuple

from repro.errors import PartitionError
from repro.ids import PageId

# Sentinel strictly below every real position (real positions are >= 0).
MIN_POS = -1


class Layout:
    """Maps pages to partitions and backup-order positions.

    Parameters
    ----------
    pages_per_partition:
        list giving, for each partition index, how many page slots it has.
    """

    def __init__(self, pages_per_partition: List[int]):
        if not pages_per_partition:
            raise PartitionError("layout needs at least one partition")
        for i, n in enumerate(pages_per_partition):
            if n <= 0:
                raise PartitionError(
                    f"partition {i} must have a positive page count, got {n}"
                )
        self._sizes = list(pages_per_partition)
        # The layout is immutable, so every page id is built once here and
        # shared by every walk of the layout (formatting, restore, sweeps).
        self._pages: Tuple[Tuple[PageId, ...], ...] = tuple(
            tuple(PageId(partition, slot) for slot in range(size))
            for partition, size in enumerate(self._sizes)
        )

    @property
    def num_partitions(self) -> int:
        return len(self._sizes)

    def partition_size(self, partition: int) -> int:
        self._check_partition(partition)
        return self._sizes[partition]

    def max_pos(self, partition: int) -> int:
        """The paper's Max sentinel for ``partition``: strictly above all #X."""
        return self.partition_size(partition)

    def min_pos(self, partition: int) -> int:  # noqa: ARG002 - uniform API
        """The paper's Min sentinel: strictly below all #X."""
        self._check_partition(partition)
        return MIN_POS

    def position(self, page_id: PageId) -> int:
        """Backup-order position ``#X`` of ``page_id`` within its partition."""
        self._check_page(page_id)
        return page_id.slot

    def contains(self, page_id: PageId) -> bool:
        return (
            0 <= page_id.partition < len(self._sizes)
            and 0 <= page_id.slot < self._sizes[page_id.partition]
        )

    def pages_in_partition(self, partition: int) -> Tuple[PageId, ...]:
        """All pages of ``partition`` in backup order."""
        self._check_partition(partition)
        return self._pages[partition]

    def all_pages(self) -> Iterator[PageId]:
        return chain.from_iterable(self._pages)

    def total_pages(self) -> int:
        return sum(self._sizes)

    def step_boundaries(self, partition: int, steps: int) -> List[int]:
        """Positions P_1 < P_2 < ... < P_steps = Max for an N-step backup.

        The boundaries split the partition into ``steps`` approximately
        equal pieces, matching the analysis of section 5 ("a backup is done
        in N equal steps").
        """
        if steps <= 0:
            raise ValueError(f"steps must be positive, got {steps}")
        size = self.partition_size(partition)
        maximum = self.max_pos(partition)
        if steps >= size:
            # Degenerate: one page (or less) per step.
            return list(range(1, size)) + [maximum]
        boundaries = []
        for m in range(1, steps):
            boundaries.append((size * m) // steps)
        boundaries.append(maximum)
        # Deduplicate while preserving order (tiny partitions).
        out: List[int] = []
        for b in boundaries:
            if not out or b > out[-1]:
                out.append(b)
        if out[-1] != maximum:
            out.append(maximum)
        return out

    def _check_partition(self, partition: int) -> None:
        if not 0 <= partition < len(self._sizes):
            raise PartitionError(
                f"partition {partition} out of range "
                f"[0, {len(self._sizes)})"
            )

    def _check_page(self, page_id: PageId) -> None:
        if not self.contains(page_id):
            raise PartitionError(f"page {page_id!r} not in layout")

    def describe(self) -> Dict[int, int]:
        """Partition → size mapping, for diagnostics."""
        return dict(enumerate(self._sizes))
