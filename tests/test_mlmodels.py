"""Unit tests for the from-scratch regressors (Section 5.7 machinery)."""
import numpy as np
import pytest

from repro.mlmodels import (
    GBRTRegressor,
    KernelRidgeRegressor,
    KNNRegressor,
    LinearRegressor,
    LogisticRegressor,
)

ALL_MODELS = [
    ("GBRT", lambda: GBRTRegressor(n_estimators=80, max_depth=3)),
    ("KRR", lambda: KernelRidgeRegressor(alpha=0.01)),
    ("Linear", lambda: LinearRegressor()),
    ("Logistic", lambda: LogisticRegressor(n_iter=800)),
    ("KNN", lambda: KNNRegressor(k=3)),
]


def _data(n=80, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.random((n, 4))
    y = 3 * X[:, 0] + np.sin(4 * X[:, 1]) + 0.05 * rng.standard_normal(n)
    return X, y


@pytest.mark.parametrize("name,make", ALL_MODELS)
def test_fits_better_than_mean_predictor(name, make):
    X, y = _data()
    Xte, yte = _data(seed=1)
    model = make().fit(X, y)
    pred = model.predict(Xte)
    assert pred.shape == (len(yte),)
    mse = float(np.mean((pred - yte) ** 2))
    mse_mean = float(np.mean((y.mean() - yte) ** 2))
    assert mse < mse_mean, f"{name}: {mse} vs {mse_mean}"


@pytest.mark.parametrize("name,make", ALL_MODELS)
def test_predict_single_row(name, make):
    X, y = _data(30)
    model = make().fit(X, y)
    out = model.predict(X[0])
    assert out.shape == (1,)
    assert np.isfinite(out[0])


def test_linear_exact_on_linear_data():
    rng = np.random.default_rng(2)
    X = rng.random((50, 3))
    y = 2 * X[:, 0] - X[:, 2] + 5
    model = LinearRegressor().fit(X, y)
    np.testing.assert_allclose(model.predict(X), y, atol=1e-8)


def test_gbrt_feature_importance_finds_driver():
    rng = np.random.default_rng(3)
    X = rng.random((100, 6))
    y = 10 * X[:, 2] + 0.1 * rng.standard_normal(100)
    model = GBRTRegressor(n_estimators=50, max_depth=2).fit(X, y)
    assert model.feature_importances_.argmax() == 2
    assert model.feature_importances_.sum() == pytest.approx(1.0)


def test_gbrt_constant_target():
    X = np.random.default_rng(4).random((20, 3))
    model = GBRTRegressor().fit(X, np.full(20, 3.0))
    np.testing.assert_allclose(model.predict(X), 3.0)


def test_knn_exact_on_training_point_k1():
    X, y = _data(20)
    model = KNNRegressor(k=1).fit(X, y)
    assert model.predict(X[5])[0] == pytest.approx(y[5])


def test_logistic_predictions_within_target_range():
    X, y = _data(40)
    model = LogisticRegressor(n_iter=500).fit(X, y)
    pred = model.predict(X)
    assert pred.min() >= y.min() - 1e-9
    assert pred.max() <= y.max() + 1e-9


def test_krr_interpolates_with_small_alpha():
    X, y = _data(30)
    model = KernelRidgeRegressor(alpha=1e-8).fit(X, y)
    np.testing.assert_allclose(model.predict(X), y, atol=1e-3)


def _scalar_build(X, y, depth, max_depth, importance):
    """The per-(feature, split) scalar loop the vectorized split search
    replaced, kept as its oracle: ``(feature, threshold, value, left, right)``."""
    value = float(y.mean())
    if depth >= max_depth or len(y) < 4 or np.ptp(y) == 0:
        return (-1, 0.0, value, None, None)
    n, d = X.shape
    base_sse = float(((y - y.mean()) ** 2).sum())
    best_gain, best_j, best_t = 0.0, -1, 0.0
    for j in range(d):
        order = np.argsort(X[:, j], kind="stable")
        xs_s, ys_s = X[order, j], y[order]
        csum, csq = np.cumsum(ys_s), np.cumsum(ys_s**2)
        total, total_sq = csum[-1], csq[-1]
        for i in range(2, n - 1):
            if xs_s[i - 1] == xs_s[i]:
                continue
            left_sse = csq[i - 1] - csum[i - 1] ** 2 / i
            right_sse = (total_sq - csq[i - 1]) - (total - csum[i - 1]) ** 2 / (n - i)
            gain = base_sse - left_sse - right_sse
            if gain > best_gain:
                best_gain, best_j, best_t = gain, j, 0.5 * (xs_s[i - 1] + xs_s[i])
    if best_j < 0:
        return (-1, 0.0, value, None, None)
    importance[best_j] += best_gain
    mask = X[:, best_j] <= best_t
    return (
        best_j,
        best_t,
        value,
        _scalar_build(X[mask], y[mask], depth + 1, max_depth, importance),
        _scalar_build(X[~mask], y[~mask], depth + 1, max_depth, importance),
    )


def _scalar_predict(tree, x):
    feature, threshold, value, left, right = tree
    while feature >= 0:
        feature, threshold, value, left, right = left if x[feature] <= threshold else right
    return value


def _same_tree(node, want):
    feature, threshold, value, left, right = want
    assert (node.feature, node.threshold, node.value) == (feature, threshold, value)
    if feature >= 0:
        _same_tree(node.left, left)
        _same_tree(node.right, right)


# At seeds 1709 and 1123 some tree's winning gain differs in its last bits
# when the squares are taken as arrays (``c * c``) instead of as scalars.
@pytest.mark.parametrize("n,seed", [(4, 4), (5, 5), (9, 1709), (23, 1123), (60, 60)])
def test_gbrt_split_search_matches_scalar_oracle(n, seed):
    """The vectorized split search builds the scalar loop's trees, node for
    node and bit for bit, on tied inputs with a constant column."""
    rng = np.random.default_rng(seed)
    X = np.round(rng.random((n, 5)) * 8) / 8
    X[:, 3] = 0.5
    y = X[:, 0] * 3 + rng.standard_normal(n)
    model = GBRTRegressor(n_estimators=6, max_depth=3).fit(X, y)
    assert model._trees
    resid = y - model._base
    imp = np.zeros(X.shape[1])
    for t in model._trees:
        tree_imp = np.zeros(X.shape[1])
        want = _scalar_build(X, resid, 0, 3, tree_imp)
        _same_tree(t.root, want)
        assert np.array_equal(t.importance, tree_imp)
        imp += tree_imp
        pred = np.array([_scalar_predict(want, x) for x in X])
        assert np.array_equal(t.predict(X), pred)
        resid = resid - model.learning_rate * pred
    assert np.array_equal(model.feature_importances_, imp / imp.sum())
