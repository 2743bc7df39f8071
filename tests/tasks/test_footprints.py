"""Lowering of task access specs to byte-interval footprints."""

import pytest

from repro.errors import TaskGraphError
from repro.poly.intervals import normalize_intervals
from repro.tasks.footprints import (
    buffer_key,
    lower_access,
    opaque,
    region2d,
    span,
    whole,
)


class Buf:
    """A stand-in allocation; optionally sized, optionally a virtual buffer."""

    def __init__(self, nbytes=None, vb_id=None):
        if nbytes is not None:
            self.nbytes = nbytes
        if vb_id is not None:
            self.vb_id = vb_id


class TestSpan:
    def test_lowered_to_single_interval(self):
        fp = lower_access(span(Buf(), 16, 64))
        assert fp.intervals == [(16, 64)]
        assert fp.affine

    def test_empty_span_rejected(self):
        with pytest.raises(TaskGraphError, match="empty span"):
            lower_access(span(Buf(), 64, 64))


class TestRegion2D:
    def test_column_slice_yields_one_interval_per_row(self):
        # Rows 1..3 of columns 2..4 in an 8x8 f32 array: 8-byte strips
        # every 32 bytes, non-adjacent so they stay distinct.
        fp = lower_access(region2d(Buf(), (8, 8), (1, 3), (2, 4)))
        assert fp.intervals == [(40, 48), (72, 80)]

    def test_full_width_rows_merge_into_one_interval(self):
        fp = lower_access(region2d(Buf(), (8, 8), (2, 4), (0, 8)))
        assert fp.intervals == [(2 * 32, 4 * 32)]

    def test_halo_clips_at_the_array_border(self):
        # A band with one halo row on each side, at the top of the image:
        # the -1 row vanishes instead of wrapping or erroring.
        fp = lower_access(region2d(Buf(), (8, 8), (-1, 3), (0, 8)))
        assert fp.intervals == [(0, 3 * 32)]

    def test_empty_after_clipping_rejected(self):
        with pytest.raises(TaskGraphError, match="empty after"):
            lower_access(region2d(Buf(), (8, 8), (8, 10), (0, 8)))


class TestWholeAndBare:
    def test_whole_reads_nbytes_from_the_buffer(self):
        fp = lower_access(whole(Buf(nbytes=128)))
        assert fp.intervals == [(0, 128)]
        assert fp.affine

    def test_whole_needs_a_size_somewhere(self):
        with pytest.raises(TaskGraphError, match="nbytes"):
            lower_access(whole(Buf()))
        assert lower_access(whole(Buf(), nbytes=32)).intervals == [(0, 32)]

    def test_bare_sized_buffer_is_whole(self):
        fp = lower_access(Buf(nbytes=64))
        assert fp.intervals == [(0, 64)]

    def test_bare_unsized_object_rejected(self):
        with pytest.raises(TaskGraphError, match="cannot lower"):
            lower_access(object())


class TestOpaque:
    def test_opaque_is_whole_buffer_but_non_affine(self):
        fp = lower_access(opaque(Buf(nbytes=64), note="host-computed gather"))
        assert fp.intervals == [(0, 64)]
        assert not fp.affine
        assert "gather" in fp.note


class TestBufferKey:
    def test_virtual_buffers_key_by_vb_id(self):
        a, b = Buf(vb_id=7), Buf(vb_id=7)
        assert buffer_key(a) == buffer_key(b)

    def test_plain_objects_key_by_identity(self):
        a, b = Buf(nbytes=8), Buf(nbytes=8)
        assert buffer_key(a) != buffer_key(b)
        assert buffer_key(a) == buffer_key(a)


class TestNormalizedInvariant:
    """Every lowering yields intervals in ``normalize_intervals`` form: the
    task graph intersects footprints without normalizing them again."""

    @pytest.mark.parametrize(
        "spec",
        [
            span(Buf(), 16, 64),
            region2d(Buf(), (8, 8), (1, 3), (2, 4)),
            region2d(Buf(), (8, 8), (-1, 3), (0, 8)),
            whole(Buf(nbytes=128)),
            whole(Buf(), nbytes=0),
            opaque(Buf(nbytes=64)),
            opaque(Buf(), nbytes=0),
            Buf(nbytes=64),
            Buf(nbytes=0),
        ],
        ids=[
            "span",
            "region2d",
            "region2d-clipped",
            "whole",
            "whole-zero",
            "opaque",
            "opaque-zero",
            "bare",
            "bare-zero",
        ],
    )
    def test_lowered_intervals_are_normalized(self, spec):
        intervals = lower_access(spec).intervals
        assert intervals == normalize_intervals(intervals)
        assert all(type(b) is int for iv in intervals for b in iv)
