import numpy as np
import pytest

from semiconv import tensor as T
from semiconv.tensor import NORM_EPS, NumericError, Tensor
from semiconv.kernels import (FAMILIES, KernelParams, box_seeds, fuse_boxes, fuse_scores,
                              gaussian_kernel, factorized_kernel, log_kernel,
                              steered_laplacian)
from semiconv.seedcut import RegionProposal, cut_region
from whole_image import learnable_scale


def test_gaussian_identity_and_substitution():
    a = [0.3, -1.2, 4.0]
    assert gaussian_kernel(a, a).item() == 1.0
    # distance sqrt(2)
    assert gaussian_kernel([0.0, 0.0], [1.0, 1.0]).item() == np.exp(-1.0)


def test_gaussian_symmetric():
    rng = np.random.default_rng(0)
    for _ in range(20):
        a, b = rng.standard_normal(5), rng.standard_normal(5)
        assert gaussian_kernel(a, b).item() == gaussian_kernel(b, a).item()


def test_gaussian_dimension_mismatch():
    with pytest.raises(ValueError):
        gaussian_kernel([1.0, 2.0], [1.0, 2.0, 3.0])


@pytest.mark.parametrize("call,message", [
    (lambda: gaussian_kernel([], []), "a is empty"),
    (lambda: factorized_kernel([0.0, 0.0], [1.0, 1.0], [0.0, 0.0], [0.0, 0.0], [1.0], [1.0, 2.0]),
     "appearance dimensions differ"),
    (lambda: fuse_boxes(np.zeros(4), Tensor(np.zeros(4)), [4], KernelParams("gaussian")),
     "embedding rows must be [N, D]"),
], ids=["empty", "factorized-appearance", "fuse-boxes-rows"])
def test_a_malformed_kernel_input_is_a_one_line_error(call, message):
    with pytest.raises(ValueError) as err:
        call()
    assert str(err.value) == message


def test_a_score_map_is_read_row_major():
    # a [2, 4] score map cuts as its row-major flattening does
    rows = np.array([[0.0, 0.0], [0.0, 0.0], [50.0, 50.0], [50.0, 50.0]] * 2)
    scores = np.zeros((2, 4))
    scores[1, 2] = 2.0  # seed on a far pixel
    params = KernelParams("gaussian")
    flat = fuse_scores(scores.reshape(-1), Tensor(rows), params)
    mapped = fuse_scores(scores, Tensor(rows), params)
    assert mapped.seed_index == flat.seed_index == 6
    assert np.array_equal(mapped.probabilities.data, flat.probabilities.data)
    mask = cut_region(RegionProposal((0, 0, 4, 2), Tensor(scores), Tensor(rows)), params)
    assert mask.tolist() == [[False, False, True, True], [False, False, True, True]]


def test_factorized_matches_gaussian():
    rng = np.random.default_rng(1)
    for _ in range(200):
        u, v = rng.uniform(0, 10, 2), rng.uniform(0, 10, 2)
        gu, gv = rng.standard_normal(2), rng.standard_normal(2)
        au, av = rng.standard_normal(6), rng.standard_normal(6)
        k_fact = factorized_kernel(u, v, gu, gv, au, av).item()
        psi_u = np.concatenate([u + gu, au])
        psi_v = np.concatenate([v + gv, av])
        assert abs(k_fact - gaussian_kernel(psi_u, psi_v).item()) < 1e-12


def test_factorized_degenerate_steering():
    # no displacement, constant appearance: pure spatial affinity remains
    u, v = np.array([1.0, 2.0]), np.array([4.0, 6.0])
    z = np.zeros(2)
    c = np.full(3, 0.7)
    k = factorized_kernel(u, v, z, z, c, c).item()
    assert k == np.exp(-25.0 / 2.0)  # |u-v| = 5


def test_factorized_zero_appearance_difference():
    rng = np.random.default_rng(2)
    u, v = rng.uniform(0, 5, 2), rng.uniform(0, 5, 2)
    gu, gv = rng.standard_normal(2), rng.standard_normal(2)
    a = rng.standard_normal(4)
    full = factorized_kernel(u, v, gu, gv, a, a).item()
    geo_only = factorized_kernel(u, v, gu, gv, np.zeros(0), np.zeros(0)).item()
    assert abs(full - geo_only) < 1e-15


def test_factorized_requires_2d_geometry():
    with pytest.raises(ValueError):
        factorized_kernel([1.0], [1.0], [0.0], [0.0], [0.0], [0.0])


def test_laplacian_identity_and_substitution():
    a = [2.0, -3.0]
    assert steered_laplacian(a, a, sigma=0.7).item() == 1.0
    # distance sigma apart: exp(-1) up to the shift NORM_EPS puts in the norm
    shifted = np.sqrt(0.25 + NORM_EPS) - np.sqrt(NORM_EPS)
    assert steered_laplacian([0.0], [0.5], sigma=0.5).item() == np.exp(-shifted / 0.5)


def test_laplacian_monotone_in_distance():
    prev = 1.0
    for d in [0.1, 0.5, 1.0, 2.0, 5.0]:
        k = steered_laplacian([0.0], [d], sigma=1.3).item()
        assert k < prev
        prev = k


def test_laplacian_rejects_bad_sigma():
    with pytest.raises(ValueError):
        steered_laplacian([0.0], [1.0], sigma=0.0)
    with pytest.raises(ValueError):
        steered_laplacian([0.0], [1.0], sigma=-2.0)
    with pytest.raises(ValueError):
        steered_laplacian([0.0], [1.0], sigma=Tensor(-1.0))


def test_laplacian_grad_through_sigma():
    a, b = np.array([0.0, 1.0]), np.array([2.0, -1.0])

    def f(log_sigma):
        return steered_laplacian(a, b, T.exp(log_sigma))

    for seed in range(5):
        start = np.random.default_rng(seed).uniform(-0.5, 0.5, size=1)
        assert T.grad_check(f, Tensor(start)) < 1e-4


def test_kernel_params():
    # inference-only in every family: the scale is learnt through a twin
    p = KernelParams("steered_laplacian", sigma=2.0)
    assert abs(p.sigma - 2.0) < 1e-12
    assert not p.log_sigma.requires_grad
    q = KernelParams("gaussian")
    assert not q.log_sigma.requires_grad
    for unknown in ("rbf", "bilateral"):
        with pytest.raises(ValueError):
            KernelParams(unknown)
    with pytest.raises(ValueError):
        KernelParams("gaussian", sigma=0.0)


def test_log_kernel_formulas():
    sumsq = Tensor([0.0, 2.0, 9.0])
    assert np.array_equal(log_kernel(sumsq, "gaussian").data, [0.0, -1.0, -4.5])
    lap = log_kernel(sumsq, "steered_laplacian", Tensor(1.5)).data
    shifted = np.sqrt(np.array([0.0, 2.0, 9.0]) + NORM_EPS) - np.sqrt(NORM_EPS)
    assert np.array_equal(lap, -shifted / 1.5)
    # NORM_EPS keeps the zero distance at log K = 0 exactly
    assert lap[0] == 0.0
    with pytest.raises(ValueError):
        log_kernel(sumsq, "bilateral")


@pytest.mark.parametrize("family", FAMILIES)
def test_fused_scores_are_the_pairwise_kernel_to_the_seed(family):
    # hard fusion adds log K(seed row, row i) to score i: the same number the
    # pairwise kernel gives for that pair
    rng = np.random.default_rng(12)
    rows = rng.standard_normal((9, 4)) * 2.0
    s = rng.standard_normal(9)
    params = KernelParams(family, sigma=0.7)
    out = fuse_scores(s, Tensor(rows), params)
    seed = rows[out.seed_index]
    for i, row in enumerate(rows):
        if family == "gaussian":
            want = gaussian_kernel(row, seed).item()
        else:
            want = steered_laplacian(row, seed, params.sigma).item()
        got = np.exp(out.fused_scores.data[i] - s[i])
        assert abs(got - want) <= 1e-12 * want


def test_fuse_hard_seed_untouched():
    rows = Tensor(np.array([[0.0, 0.0], [1.0, 1.0]]))
    out = fuse_scores(Tensor([2.0, 0.5]), rows, KernelParams("gaussian"), "hard")
    assert out.seed_index == 0
    assert out.fused_scores.data[0] == 2.0
    # other pixel at squared distance 2: log-kernel exactly -1, score 0.5 - 1
    assert out.fused_scores.data[1] - 0.5 == -1.0
    assert out.probabilities.data[0] == 1.0 / (1.0 + np.exp(-2.0))


def test_fuse_hard_tie_breaks_low_index():
    rows = Tensor(np.zeros((3, 2)))
    out = fuse_scores(Tensor([1.0, 1.0, 1.0]), rows, KernelParams("gaussian"))
    assert out.seed_index == 0


def test_fuse_soft_equal_scores_gives_mean_embedding():
    # equal scores weigh every row 1/7: the seed row is the mean row
    rng = np.random.default_rng(3)
    rows = rng.standard_normal((7, 4))
    out = fuse_scores(Tensor(np.zeros(7)), Tensor(rows),
                      KernelParams("gaussian"), "soft")
    want = -0.5 * np.sum((rows - rows.mean(axis=0)) ** 2, axis=1)
    assert np.max(np.abs(out.fused_scores.data - want)) < 1e-12


def test_fuse_never_raises_scores():
    rng = np.random.default_rng(4)
    for fam in ("gaussian", "steered_laplacian"):
        for mode in ("hard", "soft"):
            for seed in range(25):
                r = np.random.default_rng(100 + seed)
                n = int(r.integers(1, 12))
                s = r.standard_normal(n) * 3
                rows = r.standard_normal((n, 5))
                params = KernelParams(fam, sigma=float(r.uniform(0.3, 3.0)))
                out = fuse_scores(Tensor(s), Tensor(rows), params, mode)
                # log K <= 0 lowers every score; K > 0 keeps every score finite
                assert np.all(out.fused_scores.data <= s)
                assert np.all(np.isfinite(out.fused_scores.data))
    del rng


def test_fuse_soft_continuous_in_scores():
    rng = np.random.default_rng(5)
    s = rng.standard_normal(9)
    rows = rng.standard_normal((9, 3))
    base = fuse_scores(Tensor(s), Tensor(rows), KernelParams("gaussian"),
                       "soft").fused_scores.data
    delta = 1e-6
    for j in range(9):
        sp = s.copy()
        sp[j] += delta
        moved = fuse_scores(Tensor(sp), Tensor(rows), KernelParams("gaussian"),
                            "soft").fused_scores.data
        assert np.max(np.abs(moved - base)) < 100 * delta


def test_fuse_probabilities_are_logistic():
    rng = np.random.default_rng(6)
    s = rng.standard_normal(5)
    rows = rng.standard_normal((5, 2))
    out = fuse_scores(Tensor(s), Tensor(rows), KernelParams("gaussian"))
    expect = 1.0 / (1.0 + np.exp(-out.fused_scores.data))
    assert np.allclose(out.probabilities.data, expect, atol=1e-15, rtol=0)


def test_fuse_validation():
    p = KernelParams("gaussian")
    with pytest.raises(ValueError):
        fuse_scores(Tensor(np.zeros(0)), Tensor(np.zeros((0, 2))), p)
    with pytest.raises(ValueError):
        fuse_scores(Tensor([1.0, 2.0]), Tensor(np.zeros((3, 2))), p)
    with pytest.raises(ValueError):
        fuse_scores(Tensor([1.0]), Tensor(np.zeros((1, 2))), p, mode="warm")


def overlapping_boxes():
    # an 8-pixel strip in two overlapping 5-pixel boxes, [0, 5) and [3, 8);
    # the second box's top score 0.9 is tied at pixels 4 and 6
    rng = np.random.default_rng(10)
    rows = rng.standard_normal((8, 3))
    scores = np.array([0.2, 1.5, -0.3, 0.7, 0.9, 0.1, 0.9, -1.0])
    idx = [np.arange(0, 5), np.arange(3, 8)]
    return rows, scores, idx


@pytest.mark.parametrize("family", FAMILIES)
def test_fuse_boxes_is_fuse_scores_per_box(family):
    rows, scores, idx = overlapping_boxes()
    params = KernelParams(family, sigma=0.8)
    pixels = np.concatenate(idx)
    out = fuse_boxes(scores[pixels], Tensor(rows[pixels]), [5, 5], params)
    # list positions: box 0's seed is pixel 1, box 1's the lower tied pixel 4
    assert out.seed_index.tolist() == [1, 6]
    for b, i in enumerate(idx):
        one = fuse_scores(scores[i], Tensor(rows[i]), params)
        assert one.seed_index == int(np.argmax(scores[i]))
        assert np.array_equal(out.fused_scores.data[5 * b:5 * b + 5], one.fused_scores.data)
        assert np.array_equal(out.probabilities.data[5 * b:5 * b + 5], one.probabilities.data)


def test_box_seeds_match_argmax():
    rng = np.random.default_rng(11)
    counts = rng.integers(1, 9, size=40)
    scores = rng.integers(-2, 3, size=counts.sum()).astype(float)  # many ties
    scores[3] = -0.0
    starts = np.cumsum(counts) - counts
    want = [s + int(np.argmax(scores[s:s + n])) for s, n in zip(starts, counts)]
    assert box_seeds(scores, counts).tolist() == want


def test_fuse_boxes_nan_score_is_numeric_error():
    rows, scores, idx = overlapping_boxes()
    pixels = np.concatenate(idx)
    for where in (4, 0, 9):
        s = scores[pixels]
        s[where] = np.nan
        with pytest.raises(NumericError):
            fuse_boxes(s, Tensor(rows[pixels]), [5, 5], KernelParams("gaussian"))
    with pytest.raises(NumericError):
        fuse_scores(np.full(3, np.nan), Tensor(np.zeros((3, 2))), KernelParams("gaussian"))


def test_fuse_boxes_validation():
    p = KernelParams("gaussian")
    rows = Tensor(np.zeros((4, 2)))
    for counts in ([2, 1], [2, 3], [4, 0], []):
        with pytest.raises(ValueError):
            fuse_boxes(np.zeros(4), rows, counts, p)


def test_fuse_soft_grad_check():
    rows_np = np.random.default_rng(8).standard_normal((6, 3))
    gt = np.array([1.0, 1.0, 0.0, 0.0, 0.0, 1.0])

    def f_scores(s):
        out = fuse_scores(s, Tensor(rows_np), KernelParams("gaussian"), "soft")
        return T.tsum(out.fused_scores)

    def f_rows(rflat):
        rows = T.reshape(rflat, (6, 3))
        out = fuse_scores(Tensor(np.array([0.5, -0.2, 0.1, 0.0, 0.3, -1.0])),
                          rows, KernelParams("steered_laplacian", sigma=1.5), "soft")
        from semiconv.losses import mask_bce
        return mask_bce(out.probabilities, gt)

    for seed in range(3):
        rng = np.random.default_rng(20 + seed)
        assert T.grad_check(f_scores, Tensor(rng.standard_normal(6))) < 1e-4
        assert T.grad_check(f_rows, Tensor(rng.standard_normal(18))) < 1e-4


def test_fuse_sigma_grad_reaches_log_sigma():
    rng = np.random.default_rng(9)
    rows = Tensor(rng.standard_normal((5, 3)))
    s = Tensor(rng.standard_normal(5))
    params = learnable_scale(KernelParams("steered_laplacian", sigma=1.0))
    out = fuse_scores(s, rows, params, "hard")
    from semiconv.losses import mask_bce
    loss = mask_bce(out.probabilities, np.array([1.0, 0.0, 0.0, 1.0, 0.0]))
    loss.backward()
    assert params.log_sigma.grad is not None
    assert np.isfinite(params.log_sigma.grad).all()
