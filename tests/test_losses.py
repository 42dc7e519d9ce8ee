"""Loss tests: depth terms, photometric warp, feature terms, weighted total.

Hand anchors:

* two valid pixels with log-ratios g = (ln 2, 0):
  mean(g^2) = ln^2(2) / 2 and mean(g)^2 = ln^2(2) / 4, so
  silog = ln^2(2)/2 - 0.5 * ln^2(2)/4 = (3/8) ln^2(2);
* two constant images a = 0.5, b = 0.25 have zero variance, so their SSIM
  is (2ab + C1) / (a^2 + b^2 + C1) at every pixel and the photometric cost
  is 0.85 (1 - s)/2 + 0.15 |a - b|;
* unit components (1, 1, 1, 1, 1) total
  (1 + 0.15 + 10) + (1 + 10) = 22.15 under the default weights;
* orthogonal unit features score cosine term 1 and squared-error term 2.
"""

from __future__ import annotations

import numpy as np
import numpy.testing as npt
import pytest

from fgs.errors import EmptyInputError, InvalidInputError
from fgs.losses import (LossComponents, LossWeights, SSIM_C1, feat_loss,
                        l1_depth, photometric_temporal, silog, ssim,
                        total_loss, warp_photo)

IDENTITY_POSE = (np.eye(3), np.zeros(3))
UNIT_INTRINSICS = (1.0, 1.0, 0.0, 0.0)


def _const_photo(h, w, value, channels=1):
    return np.full((h, w, channels), float(value))


# ---------------------------------------------------------------------------
# Direct depth terms
# ---------------------------------------------------------------------------

def test_l1_depth_hand_case_and_mask():
    ref = np.array([[1.0, 2.0], [3.0, 4.0]])
    pred = np.array([[1.5, 2.0], [1.0, 4.0]])
    npt.assert_allclose(l1_depth(ref, pred), (0.5 + 0.0 + 2.0 + 0.0) / 4.0)
    mask = np.array([[True, True], [False, True]])
    npt.assert_allclose(l1_depth(ref, pred, valid=mask), 0.5 / 3.0)
    with pytest.raises(InvalidInputError):
        l1_depth(ref, pred[:1])
    with pytest.raises(InvalidInputError):
        l1_depth(ref, pred, valid=mask[:1])
    with pytest.raises(EmptyInputError):
        l1_depth(ref, pred, valid=np.zeros_like(mask))


def test_silog_hand_case():
    ref = np.array([[1.0, 5.0]])
    pred = np.array([[2.0, 5.0]])          # g = (ln 2, 0)
    want = np.log(2.0) ** 2 * 3.0 / 8.0
    npt.assert_allclose(silog(ref, pred), want, atol=1e-15)
    npt.assert_allclose(silog(ref, ref), 0.0, atol=1e-15)


def test_silog_full_variance_mode_is_scale_invariant():
    rng = np.random.default_rng(3)
    ref = rng.uniform(1.0, 9.0, size=(6, 7))
    pred = ref * rng.uniform(0.5, 2.0, size=(6, 7))
    a = silog(ref, pred, lambda_var=1.0)
    b = silog(ref, 3.0 * pred, lambda_var=1.0)
    npt.assert_allclose(a, b, atol=1e-12)
    # the default mode keeps part of the mean, so scaling must move it
    assert abs(silog(ref, pred) - silog(ref, 3.0 * pred)) > 1e-3


def test_silog_rejects_non_positive_depths():
    with pytest.raises(InvalidInputError):
        silog(np.array([[1.0, -1.0]]), np.array([[1.0, 1.0]]))
    with pytest.raises(InvalidInputError):
        silog(np.array([[1.0, 1.0]]), np.array([[0.0, 1.0]]))
    with pytest.raises(EmptyInputError):
        silog(np.array([[1.0]]), np.array([[1.0]]),
              valid=np.array([[False]]))


# ---------------------------------------------------------------------------
# SSIM
# ---------------------------------------------------------------------------

def test_ssim_identical_images_score_one():
    rng = np.random.default_rng(11)
    img = rng.uniform(0.0, 1.0, size=(8, 9, 3))
    npt.assert_allclose(ssim(img, img), 1.0, atol=1e-12)


def test_ssim_constant_images_hand_value():
    a, b = 0.5, 0.25
    x = _const_photo(6, 6, a)
    y = _const_photo(6, 6, b)
    want = (2.0 * a * b + SSIM_C1) / (a * a + b * b + SSIM_C1)
    npt.assert_allclose(ssim(x, y), want, atol=1e-12)
    got = ssim(x, y)
    assert got.shape == (6, 6)


def test_ssim_validation():
    with pytest.raises(InvalidInputError):
        ssim(np.zeros((4, 4)), np.zeros((4, 4)))
    with pytest.raises(InvalidInputError):
        ssim(np.zeros((4, 4, 1)), np.zeros((4, 5, 1)))


# ---------------------------------------------------------------------------
# Warping
# ---------------------------------------------------------------------------

def test_warp_identity_pose_reproduces_source():
    rng = np.random.default_rng(5)
    src = rng.uniform(size=(6, 8, 2))
    depth = np.full((6, 8), 2.0)           # power of two: warp math is exact
    warped, ok = warp_photo(src, depth, IDENTITY_POSE, UNIT_INTRINSICS)
    assert ok.all()
    npt.assert_array_equal(warped, src)


def test_warp_translation_shifts_one_column():
    h, w = 5, 7
    ramp = np.tile(np.arange(w, dtype=np.float64), (h, 1))[:, :, None]
    depth = np.ones((h, w))
    pose = (np.eye(3), np.array([1.0, 0.0, 0.0]))  # u_src = u + 1
    warped, ok = warp_photo(ramp, depth, pose, UNIT_INTRINSICS)
    assert ok[:, :-1].all() and not ok[:, -1].any()
    npt.assert_allclose(warped[:, :-1, 0], ramp[:, 1:, 0], atol=1e-12)
    npt.assert_array_equal(warped[:, -1, 0], 0.0)   # fallback fill


def test_warp_flags_behind_camera_and_invalid_depth():
    src = _const_photo(4, 4, 1.0)
    depth = np.ones((4, 4))
    backward = (np.eye(3), np.array([0.0, 0.0, -3.0]))
    _, ok = warp_photo(src, depth, backward, UNIT_INTRINSICS)
    assert not ok.any()

    mask = np.zeros((4, 4), dtype=bool)
    mask[0, 0] = True
    warped, ok = warp_photo(src, depth, IDENTITY_POSE, UNIT_INTRINSICS,
                            valid=mask)
    assert ok[0, 0] and ok.sum() == 1
    npt.assert_array_equal(warped[~ok], 0.0)

    _, none_ok = warp_photo(src, np.zeros((4, 4)), IDENTITY_POSE,
                            UNIT_INTRINSICS)
    assert not none_ok.any()                # z = 0 is behind the near plane

    # depth_validity's rule: non-finite depth is no depth, and warns nowhere
    depth[0, 0], depth[2, 3] = np.inf, np.nan
    _, ok = warp_photo(src, depth, IDENTITY_POSE, UNIT_INTRINSICS)
    assert not ok[0, 0] and not ok[2, 3] and ok.sum() == 14


# ---------------------------------------------------------------------------
# Photometric temporal loss
# ---------------------------------------------------------------------------

def test_photometric_zero_for_reproducing_source():
    rng = np.random.default_rng(9)
    target = rng.uniform(size=(6, 8, 3))
    depth = np.full((6, 8), 2.0)
    loss = photometric_temporal(target, [target.copy()], depth,
                                [IDENTITY_POSE], UNIT_INTRINSICS)
    npt.assert_allclose(loss, 0.0, atol=1e-12)


def test_photometric_constant_images_hand_value():
    a, b = 0.5, 0.25
    target = _const_photo(6, 6, a)
    source = _const_photo(6, 6, b)
    depth = np.full((6, 6), 2.0)
    s = (2.0 * a * b + SSIM_C1) / (a * a + b * b + SSIM_C1)
    want = 0.85 * (1.0 - s) / 2.0 + 0.15 * abs(a - b)
    got = photometric_temporal(target, [source], depth, [IDENTITY_POSE],
                               UNIT_INTRINSICS)
    npt.assert_allclose(got, want, atol=1e-12)


def test_photometric_takes_per_pixel_minimum_over_sources():
    rng = np.random.default_rng(21)
    target = rng.uniform(size=(5, 7, 2))
    depth = np.full((5, 7), 2.0)
    good = target.copy()
    bad = target + 0.5
    for order in ([good, bad], [bad, good]):
        loss = photometric_temporal(target, order, depth,
                                    [IDENTITY_POSE, IDENTITY_POSE],
                                    UNIT_INTRINSICS)
        npt.assert_allclose(loss, 0.0, atol=1e-12)
    alone = photometric_temporal(target, [bad], depth, [IDENTITY_POSE],
                                 UNIT_INTRINSICS)
    assert alone > 0.01


def test_photometric_validation_and_coverage():
    target = _const_photo(4, 4, 0.5)
    depth = np.ones((4, 4))
    with pytest.raises(InvalidInputError):
        photometric_temporal(target, [], depth, [], UNIT_INTRINSICS)
    with pytest.raises(InvalidInputError):
        photometric_temporal(target, [target], depth, [], UNIT_INTRINSICS)
    with pytest.raises(InvalidInputError):
        photometric_temporal(target, [_const_photo(4, 5, 0.5)], depth,
                             [IDENTITY_POSE], UNIT_INTRINSICS)
    with pytest.raises(InvalidInputError):
        photometric_temporal(target[:, :, 0], [target], depth,
                             [IDENTITY_POSE], UNIT_INTRINSICS)
    with pytest.raises(EmptyInputError):
        photometric_temporal(target, [target], np.zeros((4, 4)),
                             [IDENTITY_POSE], UNIT_INTRINSICS)


# ---------------------------------------------------------------------------
# Feature terms and the weighted total
# ---------------------------------------------------------------------------

def test_feat_loss_orthogonal_and_aligned():
    ref = np.zeros((1, 2, 2))
    ref[0, :, 0] = 1.0                      # all rows e_x
    pred = np.zeros((1, 2, 2))
    pred[0, :, 1] = 1.0                     # all rows e_y
    cos_term, mse_term = feat_loss(ref, pred)
    npt.assert_allclose(cos_term, 1.0)
    npt.assert_allclose(mse_term, 2.0)

    cos_term, mse_term = feat_loss(ref, 3.0 * ref)
    npt.assert_allclose(cos_term, 0.0, atol=1e-12)
    npt.assert_allclose(mse_term, 4.0)      # |3 e_x - e_x|^2


def test_feat_loss_excludes_zero_norm_rows_from_cosine_only():
    ref = np.zeros((1, 2, 3))
    ref[0, 0] = [1.0, 0.0, 0.0]             # second row stays zero
    pred = np.zeros((1, 2, 3))
    pred[0, 0] = [0.0, 1.0, 0.0]
    pred[0, 1] = [2.0, 0.0, 0.0]
    cos_term, mse_term = feat_loss(ref, pred)
    npt.assert_allclose(cos_term, 1.0)      # only the first pair counts
    npt.assert_allclose(mse_term, (2.0 + 4.0) / 2.0)

    cos_term, mse_term = feat_loss(np.zeros((1, 1, 3)), np.zeros((1, 1, 3)))
    assert cos_term == 0.0 and mse_term == 0.0


def test_feat_loss_mask_and_validation():
    ref = np.ones((2, 2, 3))
    pred = 2.0 * np.ones((2, 2, 3))
    mask = np.array([[True, False], [False, False]])
    _, mse_term = feat_loss(ref, pred, valid=mask)
    npt.assert_allclose(mse_term, 3.0)
    with pytest.raises(InvalidInputError):
        feat_loss(ref, pred[:1])
    with pytest.raises(EmptyInputError):
        feat_loss(ref, pred, valid=np.zeros((2, 2), dtype=bool))


def test_total_loss_unit_components():
    parts = LossComponents(l1=1.0, silog=1.0, temporal=1.0, cos=1.0, mse=1.0)
    total, breakdown = total_loss(parts)
    npt.assert_allclose(breakdown["depth_group"], 11.15)
    npt.assert_allclose(breakdown["feat_group"], 11.0)
    npt.assert_allclose(total, 22.15)
    assert breakdown["total"] == total
    for key in ("l1", "silog", "temporal", "cos", "mse"):
        assert breakdown[key] == 1.0


def test_total_loss_custom_weights():
    parts = LossComponents(l1=2.0, silog=4.0, temporal=0.5, cos=3.0, mse=0.25)
    w = LossWeights(lambda_silog=1.0, lambda_temp=2.0, lambda_mse=4.0,
                    lambda_depth=0.5, lambda_feat=2.0)
    total, breakdown = total_loss(parts, w)
    npt.assert_allclose(breakdown["depth_group"], 2.0 + 4.0 + 1.0)
    npt.assert_allclose(breakdown["feat_group"], 3.0 + 1.0)
    npt.assert_allclose(total, 0.5 * 7.0 + 2.0 * 4.0)
