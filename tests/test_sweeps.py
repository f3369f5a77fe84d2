import pytest

from kashin import frames, quantize, sweeps, uncertainty
from kashin.errors import InvalidConfig

FAMILY = frames.FrameFamily(frames.RANDOM_ORTHOGONAL, 16, 32, 4)


def test_calibrate_adds_the_margin_to_the_sampled_eta():
    frame = frames.generate(FAMILY)
    eta, cfg = sweeps.calibrate(frame, 0.1, 7, 9)
    eta_hat = uncertainty.up_estimate(frame, 0.1, 2000, 9)[0]
    assert eta == min(eta_hat + sweeps.ETA_MARGIN, 1.0 - 1e-6)
    assert (cfg.up.eta, cfg.up.delta, cfg.iterations) == (eta, 0.1, 7)
    assert cfg.frame_epsilon == frame.tightness_eps + 1e-12


def test_channel_cells_are_paired():
    cell = (quantize.ERASURE, 2 / 32, 64)
    first, second, other = sweeps.channel_sweep(
        FAMILY, 0.05, 8, [cell, cell, (quantize.QUANTIZE_ONLY, 0.0, 16)], 3)
    assert first == second
    assert [r.seed for r in other] == [4, 5, 6]
    assert [r.l2_error for r in first] != [r.l2_error for r in other]


@pytest.mark.parametrize("n, N", [(64, 128), (128, 256)])
def test_decay_sweep_inputs_clip(n, N):
    # frame-column inputs leave a residual after the first pass, so the
    # per-pass ratio is measured rather than rounding noise, and it stays
    # within the adjusted constant
    family = frames.FrameFamily(frames.RANDOM_ORTHOGONAL, n, N, 0)
    sweep = sweeps.decay_sweep(family, 0.05, 20, 5)
    assert 1e-6 < sweep.worst_ratio <= sweep.eta_adjusted
    assert all(r.bound_ok for r in sweep.rows)


def test_decay_sweep_reports_the_recomputed_error():
    # the encoder's last recorded residual is exactly 0 on a Parseval frame
    # once a pass clips nothing; the error ||x - U a|| is rounding, not 0
    family = frames.FrameFamily(frames.RANDOM_ORTHOGONAL, 64, 128, 0)
    sweep = sweeps.decay_sweep(family, 0.05, 20, 5)
    assert all(0.0 < r.l2_error <= 1e-13 for r in sweep.rows)


def test_decay_sweep_refuses_frames_without_contraction():
    family = frames.FrameFamily(frames.GAUSSIAN, 16, 32, 0)
    with pytest.raises(InvalidConfig):
        sweeps.decay_sweep(family, 0.05, 4, 2)
