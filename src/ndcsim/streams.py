"""Timestamp stream container shared by simulation, correlation and I/O."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import UnsortedTagsError, check_range

# Tags are integer femtoseconds; these convert other units to that one.
FS_PER_PS = 1e3
FS_PER_MS = 1e12
FS_PER_S = 1e15


@dataclass(frozen=True)
class TagStream:
    """Sorted int64 femtosecond timestamps from one detector/event-timer site."""

    tags: np.ndarray
    resolution_fs: int
    site_id: int
    acquisition_span_fs: int

    def __post_init__(self):
        # What a tag header can carry: a uint32 site, a uint64 span, and
        # TimerSpec's int64 bound on the resolution.
        check_range("resolution_fs", self.resolution_fs, 1, 2**63 - 1)
        check_range("site_id", self.site_id, 0, 2**32 - 1)
        check_range("acquisition_span_fs", self.acquisition_span_fs, 0, 2**64 - 1)
        # Aligned as well as contiguous: numpy copies an unaligned haystack on
        # every searchsorted, so a misaligned buffer is copied once, here.
        tags = np.require(self.tags, np.int64, "CA")
        object.__setattr__(self, "tags", tags)
        # Compared, not subtracted: no int64 temporary and no overflow.
        bad = np.flatnonzero(tags[1:] < tags[:-1])
        if bad.size:
            raise UnsortedTagsError(
                f"tags not sorted: first offending index {int(bad[0]) + 1}"
            )

    def __len__(self) -> int:
        return int(self.tags.size)

    def __eq__(self, other) -> bool:
        if not isinstance(other, TagStream):
            return NotImplemented
        return (
            self.resolution_fs == other.resolution_fs
            and self.site_id == other.site_id
            and self.acquisition_span_fs == other.acquisition_span_fs
            and np.array_equal(self.tags, other.tags)
        )

    @property
    def duration_s(self) -> float:
        return self.acquisition_span_fs / FS_PER_S

    def rate_hz(self) -> float:
        """Mean tag rate over the acquisition span."""
        if self.acquisition_span_fs <= 0:
            return 0.0
        return self.tags.size / self.duration_s
