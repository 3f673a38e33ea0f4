"""Unit tests for the chunk-level streaming playback model."""

import pytest

from repro.net.streaming import (
    PlaybackReport,
    StreamingError,
    simulate_playback,
    simulate_resume,
)

BITRATE = 320_000.0


def _play(rate, length=200.0, chunks=20, buffer_s=2.0, prefetched=False):
    return simulate_playback(
        video_length_s=length,
        bitrate_bps=BITRATE,
        transfer_rate_bps=rate,
        chunks=chunks,
        startup_buffer_s=buffer_s,
        prefetched_first_chunk=prefetched,
    )


class TestValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(video_length_s=0),
            dict(bitrate_bps=0),
            dict(transfer_rate_bps=0),
            dict(chunks=0),
            dict(startup_buffer_s=-1),
        ],
    )
    def test_invalid_parameters_rejected(self, kwargs):
        base = dict(
            video_length_s=100.0,
            bitrate_bps=BITRATE,
            transfer_rate_bps=BITRATE,
            chunks=10,
            startup_buffer_s=2.0,
        )
        base.update(kwargs)
        with pytest.raises(StreamingError):
            simulate_playback(**base)


class TestSmoothPlayback:
    def test_fast_transfer_never_stalls(self):
        report = _play(rate=2 * BITRATE)
        assert report.smooth
        assert report.total_stall_s == 0.0
        assert report.continuity_index == 1.0

    def test_exact_bitrate_never_stalls(self):
        # At exactly the bitrate, each chunk arrives exactly when needed.
        report = _play(rate=BITRATE)
        assert report.smooth

    def test_startup_scales_with_rate(self):
        fast = _play(rate=4 * BITRATE)
        slow = _play(rate=1 * BITRATE)
        assert fast.startup_delay_s < slow.startup_delay_s


class TestStalls:
    def test_slow_transfer_stalls(self):
        report = _play(rate=0.5 * BITRATE)
        assert report.stall_count > 0
        assert report.total_stall_s > 0
        assert report.continuity_index < 1.0

    def test_half_rate_doubles_wall_clock(self):
        # At rate r = bitrate/2, the transfer takes 2x the video length;
        # total stall ~= video length minus what the startup buffered.
        report = _play(rate=0.5 * BITRATE, length=200.0)
        wall = report.startup_delay_s + report.playback_duration_s + report.total_stall_s
        assert wall == pytest.approx(400.0, rel=0.05)

    def test_continuity_monotone_in_rate(self):
        rates = [0.3, 0.5, 0.8, 1.0, 2.0]
        continuity = [_play(rate=f * BITRATE).continuity_index for f in rates]
        assert continuity == sorted(continuity)

    def test_stall_durations_sum(self):
        report = _play(rate=0.4 * BITRATE)
        assert sum(report.stalls) == pytest.approx(report.total_stall_s)


class TestPrefetchedFirstChunk:
    def test_prefetch_zeroes_startup(self):
        report = _play(rate=2 * BITRATE, prefetched=True)
        assert report.startup_delay_s == 0.0

    def test_prefetch_does_not_prevent_later_stalls(self):
        report = _play(rate=0.4 * BITRATE, prefetched=True)
        assert report.stall_count > 0

    def test_prefetch_smooth_at_adequate_rate(self):
        report = _play(rate=2 * BITRATE, prefetched=True)
        assert report.smooth


class TestPrefetchedStartupPinned:
    """Pins the prefetched branch: startup is exactly 0.0 and the
    remaining chunks still stream from t=0 (the dead buffered_target
    computation was deleted; behaviour must not move)."""

    def test_startup_exactly_zero_regardless_of_buffer(self):
        for buffer_s in (0.0, 2.0, 50.0, 1e6):
            report = _play(rate=2 * BITRATE, buffer_s=buffer_s, prefetched=True)
            assert report.startup_delay_s == 0.0

    def test_arrival_schedule_shifts_by_exactly_one_chunk(self):
        # Prefetching makes chunk 0 free and pulls every later arrival
        # forward by one chunk-transfer time; total waiting (startup +
        # stalls) drops by exactly that amount and nothing else moves.
        rate = 0.5 * BITRATE
        plain = _play(rate=rate)
        prefetched = _play(rate=rate, prefetched=True)
        chunk_transfer_s = (BITRATE * 10.0) / rate  # 20 chunks of a 200s video
        assert prefetched.total_stall_s == pytest.approx(
            plain.startup_delay_s + plain.total_stall_s - chunk_transfer_s,
            rel=1e-9,
        )


class TestResume:
    def _resume(self, rate=2 * BITRATE, chunks_done=10, position=100.0, gap=5.0):
        return simulate_resume(
            video_length_s=200.0,
            bitrate_bps=BITRATE,
            transfer_rate_bps=rate,
            chunks=20,
            chunks_done=chunks_done,
            playback_position_s=position,
            resume_gap_s=gap,
        )

    def test_completion_always_exceeds_the_gap(self):
        report = self._resume(gap=7.0)
        assert report.completion_s > 7.0

    def test_fast_resume_stalls_only_for_the_gap(self):
        # Playhead at the first missing chunk: the failover gap itself is
        # the stall; a fast new provider adds nothing.
        report = self._resume(rate=10 * BITRATE, chunks_done=10, position=100.0)
        assert report.stall_count == 1
        assert report.total_stall_s == pytest.approx(
            5.0 + (BITRATE * 10.0) / (10 * BITRATE), rel=1e-9
        )

    def test_local_chunks_play_without_stalling(self):
        # Playhead well behind the transfer edge: the already-delivered
        # chunks cover the failover gap entirely.
        report = self._resume(rate=2 * BITRATE, chunks_done=15, position=10.0, gap=5.0)
        assert report.total_stall_s == 0.0

    def test_slow_new_provider_keeps_stalling(self):
        report = self._resume(rate=0.5 * BITRATE, chunks_done=10, position=100.0)
        assert report.stall_count > 1

    def test_completion_covers_remaining_playback(self):
        report = self._resume(rate=2 * BITRATE, chunks_done=10, position=100.0)
        # 100s of video remain; completion includes them plus all stalls.
        assert report.completion_s == pytest.approx(
            100.0 + report.total_stall_s, rel=1e-9
        )

    def test_stall_durations_sum(self):
        report = self._resume(rate=0.5 * BITRATE)
        assert sum(report.stalls) == pytest.approx(report.total_stall_s)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(chunks_done=20),  # nothing left to resume
            dict(chunks_done=-1),
            dict(gap=-1.0),
            dict(rate=0.0),
        ],
    )
    def test_invalid_parameters_rejected(self, kwargs):
        with pytest.raises(StreamingError):
            self._resume(**kwargs)


class TestHelpers:
    def test_report_continuity_degenerate(self):
        report = PlaybackReport(
            startup_delay_s=0.0, stall_count=0, total_stall_s=0.0,
            playback_duration_s=0.0,
        )
        assert report.continuity_index == 1.0
