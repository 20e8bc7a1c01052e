"""Likelihood families, expected-KL geometry, covering distances."""

import math
import re
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import rel_entr

from peerlearn import (
    BernoulliContextModel,
    CategoricalContextModel,
    LikelihoodModel,
    LinearGaussianModel,
    NotGloballyLearnableError,
    ParameterSet,
    UnboundedKLError,
    assumption_bounds,
    separation_table,
    spectral_gap,
    validate_weight_matrix,
)
from peerlearn import models
from peerlearn.models import DUPLICATE_TOL, instance_support

from helpers import (
    pairwise_separation_rate,
    peak_bytes,
    per_draw_covering_distances,
    per_sample_kl_mean,
    reference_closest_duplicate,
)


def binary_kl(p, q):
    """Hand-rolled Bernoulli KL used as the oracle throughout."""
    terms = []
    for a, b in ((p, q), (1 - p, 1 - q)):
        if a == 0:
            terms.append(0.0)
        elif b == 0:
            terms.append(math.inf)
        else:
            terms.append(a * math.log(a / b))
    return sum(terms)


def _planted_points(n_points, pairs, gap):
    """Random points with point b set to point a plus ``gap`` per pair (a, b)."""
    points = np.random.default_rng(3).uniform(0.0, 1.0, (n_points, 3))
    for a, b in pairs:
        points[b] = points[a] + gap
    return points


def _split_pair():
    """Points 0 and 2 are duplicates, and point 1, far from both, projects between them."""
    w = models._projection(2)
    points = np.array([[0.5, 0.5], [0.5 + 1e-3, 0.5 + (0.5e-12 - 1e-3) * w[0] / w[1]],
                       [0.5 + 1e-12, 0.5]])
    projections = points @ w
    assert projections[0] < projections[1] < projections[2]
    return points


def _far_pair_projected_together():
    """Two points whose coordinate differences overflow, with projections in one window."""
    w0, w1 = models._projection(2)
    return np.array([[1.5e308, -1.5e308 * w0 / w1], [-1.5e308, 1.5e308 * w0 / w1], [0.0, 0.0]])


_TIE = 2.0**-41  # about 4.5e-13, and every difference below is exact


def _context_world(family, seed, n_nodes=1):
    """Random context world: models sharing one truth, its candidates and their label tables.

    The truth is the first candidate. Every label has positive probability
    under the truth and under each candidate.
    """
    rng = np.random.default_rng(seed)
    n_contexts = int(rng.integers(1, 5))
    if family == "bernoulli":
        truth = rng.uniform(0.05, 0.95, n_contexts)
        points = np.vstack([truth, rng.uniform(0.02, 0.98, (10, n_contexts))])
        tables = np.stack([1.0 - points, points], axis=2)
    else:
        n_labels = int(rng.integers(2, 5))
        truth = rng.dirichlet(np.ones(n_labels), n_contexts)
        rows = rng.dirichlet(np.ones(n_labels), (10, n_contexts))
        points = np.vstack([truth.ravel(), rows.reshape(10, -1)])
        tables = points.reshape(len(points), n_contexts, n_labels)
    family_cls = BernoulliContextModel if family == "bernoulli" else CategoricalContextModel
    models = [
        family_cls(j, truth, rng.choice(n_contexts, size=int(rng.integers(1, n_contexts + 1)),
                                        replace=False))
        for j in range(n_nodes)
    ]
    return models, points, tables


_WORLDS = settings(max_examples=40, deadline=None, derandomize=True)
_FAMILIES = st.sampled_from(["bernoulli", "categorical"])
_SEEDS = st.integers(0, 2**32 - 1)


class TestContextFamilies:
    @_WORLDS
    @given(family=_FAMILIES, seed=_SEEDS)
    def test_log_likelihood_matrix_is_the_per_sample_formula(self, family, seed):
        (model,), points, _ = _context_world(family, seed)
        # Candidates with zero-probability labels give -inf entries.
        n_contexts = model.n_contexts
        if family == "bernoulli":
            points = np.vstack([points, np.zeros(n_contexts), np.ones(n_contexts)])
        else:
            one_hot = np.tile(np.eye(model.n_labels)[0], n_contexts)
            points = np.vstack([points, one_hot, one_hot[::-1]])
        rng = np.random.default_rng(seed)
        xs = rng.integers(0, n_contexts, 30)
        ys = rng.integers(0, model.n_labels, 30)
        with np.errstate(divide="ignore"):
            if family == "bernoulli":
                expected = [np.log(points[:, x]) if y == 1 else np.log1p(-points[:, x])
                            for x, y in zip(xs, ys)]
            else:
                tables = points.reshape(len(points), n_contexts, model.n_labels)
                expected = [np.log(tables[:, x, y]) for x, y in zip(xs, ys)]
        np.testing.assert_array_equal(model.log_likelihood_matrix(points, xs, ys),
                                      np.array(expected))

    @_WORLDS
    @given(family=_FAMILIES, seed=_SEEDS)
    def test_kl_to_truth_matches_the_per_sample_mean(self, family, seed):
        (model,), points, tables = _context_world(family, seed)
        support, shares = instance_support(model, 500, seed)
        xs = model.sample_instances(np.random.default_rng([seed, model.node_id]), 500)
        np.testing.assert_allclose(model.kl_to_truth(points, support) @ shares,
                                   per_sample_kl_mean(model.true_table, tables, xs),
                                   rtol=1e-12, atol=0)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(family=_FAMILIES, seed=_SEEDS, n_draws=st.integers(1, 3000))
    def test_instance_support_is_the_unique_draws(self, family, seed, n_draws):
        (model,), _, _ = _context_world(family, seed)
        support, shares = instance_support(model, n_draws, seed)
        xs = model.sample_instances(np.random.default_rng([seed, model.node_id]), n_draws)
        expected, counts = np.unique(xs, axis=0, return_counts=True)
        assert support.dtype == expected.dtype and shares.dtype == np.float64
        np.testing.assert_array_equal(support, expected)
        assert list(map(_bits, shares)) == list(map(_bits, counts / n_draws))

    @_WORLDS
    @given(seed=_SEEDS)
    def test_kl_to_truth_is_scipys_terms_summed(self, seed):
        # Up to 12 labels, zeros, and columns with and without repeated values.
        rng = np.random.default_rng(seed)
        n_contexts, n_labels = int(rng.integers(1, 5)), int(rng.integers(2, 13))
        rows = rng.dirichlet(np.ones(n_labels), (40, n_contexts))
        rows[rng.random(rows.shape) < 0.2] = 0.0
        rows[..., 0] += 0.1
        rows /= rows.sum(axis=2, keepdims=True)
        points = rows[rng.integers(0, rng.choice([3, 40]), 300)].reshape(300, -1)
        model = CategoricalContextModel(0, rows[0], range(n_contexts))
        xs = np.flatnonzero(rng.random(n_contexts) < 0.7)
        expected = rel_entr(model.true_table[xs], model._tables(points)[:, xs]).sum(axis=2)
        assert list(map(_bits, model.kl_to_truth(points, xs).ravel())) == \
            list(map(_bits, expected.ravel()))

    @_WORLDS
    @given(family=_FAMILIES, seed=_SEEDS, n_nodes=st.integers(1, 4))
    def test_separation_rate_matches_the_pairwise_oracle(self, family, seed, n_nodes):
        models, points, tables = _context_world(family, seed, n_nodes)
        stationary = np.random.default_rng(seed).dirichlet(np.ones(n_nodes))
        table = separation_table(models, ParameterSet(points), stationary,
                                 mc_samples=300, seed=seed)
        kl = np.stack([
            per_sample_kl_mean(m.true_table, tables,
                               m.sample_instances(np.random.default_rng([seed, j]), 300))
            for j, m in enumerate(models)
        ])
        assert 0 in table.global_optima
        expected = pairwise_separation_rate(kl, stationary, table.global_optima)
        assert table.separation_rate == pytest.approx(expected, rel=1e-12)

    @_WORLDS
    @given(family=st.sampled_from(["bernoulli", "categorical", "linear_gaussian"]), seed=_SEEDS)
    def test_gather_of_the_codes_is_the_log_likelihood_matrix(self, family, seed):
        # One (encode, gather) pair serves many batches, each the same bits as
        # a direct call: gathered whole, every other code (a strided view, as
        # the engine's codes of one round are) and into a strided (T, M) view
        # of a (T, N, M) array, as the engine's publics are.
        rng = np.random.default_rng(seed)
        if family == "linear_gaussian":
            model = LinearGaussianModel(0, [-0.3, 0.5], [[-1, 1]], [0], 0.8)
            points = rng.uniform(-1.0, 1.0, (12, 2))
        else:
            (model,), points, _ = _context_world(family, seed)
        encode, gather = model.log_likelihood_codes(points)
        for size in (1, 7, 30):
            xs = model.sample_instances(rng, size)
            ys = model.sample_labels(rng, xs)
            expected = model.log_likelihood_matrix(points, xs, ys)
            codes = encode(xs, ys)
            np.testing.assert_array_equal(gather(codes), expected)
            np.testing.assert_array_equal(
                gather(codes[::2]), model.log_likelihood_matrix(points, xs[::2], ys[::2]))
            state = np.zeros((size, 3, len(points)))
            gather(codes, out=state[:, 1])
            np.testing.assert_array_equal(state[:, 1], expected)
            assert not state[:, ::2].any()

    @pytest.mark.parametrize("x, y", [(5, 1), (-1, 1), (0, 2)],
                             ids=["context-past-the-end", "negative-context", "label-past-the-end"])
    def test_encode_rejects_a_sample_outside_the_table(self, x, y):
        # Each would otherwise alias a valid row: the last one after the
        # gather's clip, or the next context's label 0.
        model = BernoulliContextModel(3, [0.8, 0.3], [0, 1])
        points = np.array([[0.8, 0.3], [0.5, 0.5]])
        encode, _ = model.log_likelihood_codes(points)
        with pytest.raises(ValueError, match="^node 3: a sample lies outside 2 contexts"):
            encode(np.array([0, x]), np.array([1, y]))
        with pytest.raises(ValueError, match="^node 3: "):
            model.log_likelihood_matrix(points, [x], [y])

    @pytest.mark.parametrize("probs, named", [
        ([math.nan, 0.5], 0), ([0.5, 1.5, -0.1], 1), ([0.2, 0.3, -0.0, -1e-300], 3),
    ], ids=["nan", "first-of-two", "below-zero"])
    def test_bernoulli_truth_names_its_first_bad_entry(self, probs, named):
        with pytest.raises(ValueError, match=rf"^true_probs\[{named}\] must lie in \[0, 1\]$"):
            BernoulliContextModel(0, probs, [0, 1])

    def test_categorical_truth_rejects_a_nan_cell(self):
        table = [[0.5, 0.5], [math.nan, 0.7]]
        with pytest.raises(ValueError, match="^true_table must be a nonnegative"):
            CategoricalContextModel(0, table, [0, 1])

    def test_a_model_without_likelihoods_raises_not_implemented(self):
        # The two defaults called each other until the stack ran out.
        class Bare(LikelihoodModel):
            node_id, param_dim = 0, 1

        points, xs, ys = np.array([[0.2], [0.7]]), np.zeros((3, 1)), np.zeros(3)
        with pytest.raises(NotImplementedError):
            Bare().log_likelihood_matrix(points, xs, ys)
        encode, gather = Bare().log_likelihood_codes(points)
        with pytest.raises(NotImplementedError):
            gather(encode(xs, ys))

    def test_one_gaussian_sample_is_a_row_of_the_batch(self):
        model = LinearGaussianModel(0, [-0.3, 0.5, 0.8], [[-1, 1], [-1.5, 1.5]], [0, 1], 0.8)
        rng = np.random.default_rng(4)
        points = rng.uniform(-1.0, 1.0, (50, 3))
        xs = model.sample_instances(rng, 20)
        ys = model.sample_labels(rng, xs)
        batch = model.log_likelihood_matrix(points, xs, ys)
        # Not bitwise: the BLAS product may take another kernel for one row.
        for k in range(len(xs)):
            np.testing.assert_allclose(
                model.log_likelihood_matrix(points, [xs[k]], [ys[k]])[0], batch[k],
                rtol=1e-14, atol=0)


@pytest.mark.parametrize("build, message", [
    (lambda: ParameterSet(np.array([0.1, 0.2])), "parameter points must form a 2-D array (M, d)"),
    (lambda: BernoulliContextModel(0, [[0.8, 0.3]], [0]), "true_probs must be a vector"),
    *[(lambda std=std: LinearGaussianModel(0, [0.1, 0.2], [[-1, 1]], [0], std),
       "noise_std must be positive") for std in (0.0, -0.8)],
    (lambda: separation_table([BernoulliContextModel(0, [0.8], [0])],
                              ParameterSet(np.array([[0.8], [0.3]])), [0.5, 0.5]),
     "stationary vector length must match the number of models"),
    (lambda: LinearGaussianModel(0, [0.1, 0.2], [[-1, 1]], [0], math.nan),
     "noise_std must be positive"),
    *[(lambda std=std: LinearGaussianModel(0, [0.1, 0.2], [[-1, 1]], [0], std),
       "noise_std's square, the noise variance, must be positive and finite")
      for std in (math.inf, 1e-200)],
    (lambda: LinearGaussianModel(0, [0.1, math.nan], [[-1, 1]], [0], 0.8),
     "true_theta must be finite"),
    *[(lambda row=row: LinearGaussianModel(0, [0.1, 0.2], [row], [0], 0.8),
       "every range must have low < high and a finite width")
      for row in ([1, -1], [math.nan, 1], [-1e308, 1e308])],
], ids=["1-d-parameter-set", "2-d-true-probs", "zero-noise-std", "negative-noise-std",
        "stationary-length", "nan-noise-std", "infinite-noise-std", "noise-std-underflow",
        "nan-true-theta", "reversed-range", "nan-range", "range-width-overflow"])
def test_a_malformed_argument_is_rejected(build, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build()


class TestParameterSet:
    def test_basic_properties(self):
        ps = ParameterSet(np.array([[0.1, 0.2], [0.3, 0.4]]))
        assert ps.n_points == 2 and ps.dim == 2

    def test_rejects_single_point(self):
        with pytest.raises(ValueError):
            ParameterSet(np.array([[0.1]]))

    @pytest.mark.parametrize("points, named", [
        (np.array([[0.1, 0.2], [0.1, 0.2 + 1e-13]]), (0, 1)),
        (np.array([[0.1, 0.2], [0.1, 0.2 + 2e-12]]), None),
        (np.array([[0.0, 0.0], [0.5, 0.5], [0.0, 5e-13], [0.5, 0.5 + 1e-13]]), (1, 3)),
        (_planted_points(500, [(0, 499)], 1e-14), (0, 499)),
        (_planted_points(8, [(2, 5), (1, 4)], 0.0), (1, 4)),
        (_split_pair(), (0, 2)),
        ([[0.0, 1.0], [0.5, 0.5], [-0.0, 1.0]], (0, 2)),
        ([[0.3, 0.3], [0.1, 0.2], [0.3, 0.3], [0.3, 0.3]], (0, 2)),
        ([[1e6, 1.0], [np.nextafter(1e6, 2e6), 1.0], [1e6, 2.0]], None),
        ([[1e6, 1.0], [1e6 + 0.5, 1.0], [1e6, 1.0]], (0, 2)),
        ([[1e300, -1e300], [np.nextafter(1e300, np.inf), -1e300], [-1e300, 1e300]], None),
        ([[1e300, -1e300], [-1e300, 1e300], [1e300, -1e300]], (0, 2)),
        (_far_pair_projected_together(), None),
        ([[2690.0329883356644, 2770.602291202402], [2690.0329883356653, 2770.6022912024027]],
         (0, 1)),
        ([[0.25], [0.25]], (0, 1)),
        ([[0.25], [0.75]], None),
        ([[0.0, 0.0], [0.25, 0.5], [0.75, 0.125], [2 * _TIE, 0.0], [0.25 + _TIE, 0.5],
          [0.75, 0.125 - _TIE]], (1, 4)),
    ], ids=["1e-13-apart", "2e-12-apart", "closer-pair-named", "first-and-last",
            "tie-lowest-indices", "split-by-a-third-point", "signed-zeros", "exact-duplicates",
            "1e6-one-ulp-apart", "1e6-copy", "1e300-one-ulp-apart", "1e300-copy",
            "differences-overflow", "projections-apart-by-their-rounding", "two-equal-points",
            "two-points", "lowest-index-tie"])
    def test_rejects_duplicates(self, points, named):
        if named is None:
            assert ParameterSet(points).n_points == len(points)
            return
        with pytest.raises(ValueError, match=f"indices {named[0]} and {named[1]}$"):
            ParameterSet(points)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(data=st.data(), n_points=st.integers(2, 40), dim=st.integers(1, 4),
           scale=st.sampled_from([5e-13, 1e-3, 1.0, 2.5e3, 1e6, 1e300]),
           shift=st.floats(0.0, 1.0))
    def test_duplicate_search_agrees_with_the_kd_tree(self, data, n_points, dim, scale, shift):
        # Lattice points collide often; planted partners sit at, near and past the
        # tolerance, and at scale 2.5e3 the projections' rounding is a good part of it.
        lattice = data.draw(st.lists(st.lists(st.integers(-2, 2), min_size=dim, max_size=dim),
                                     min_size=n_points, max_size=n_points))
        points = (np.array(lattice, dtype=float) + shift) * scale
        offsets = st.sampled_from([0.0, 1e-13, 5e-13, DUPLICATE_TOL,
                                   np.nextafter(DUPLICATE_TOL, 1.0), 2e-12, 1e-9])
        index = st.integers(0, n_points - 1)
        for a, b, offset in data.draw(st.lists(
                st.tuples(index, index, st.lists(offsets, min_size=dim, max_size=dim)),
                max_size=4)):
            points[b] = points[a] + np.array(offset) * data.draw(st.sampled_from([-1.0, 1.0]))
        assert models._closest_duplicate(points) == reference_closest_duplicate(points)

    def test_leaves_the_callers_array_alone(self):
        arr = np.array([[0.1, 0.2], [0.3, 0.4]])
        ps = ParameterSet(arr)
        assert arr.flags.writeable and not ps.points.flags.writeable
        arr[0, 0] = 0.5
        assert ps.points[0, 0] == 0.1

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            ParameterSet(np.array([[0.1], [np.nan]]))


def _bits(value) -> str:
    """A float's exact text, one text for every NaN: signed zeros and infinities differ."""
    return "nan" if math.isnan(value) else float(value).hex()


def _ulps(x: float, steps: int) -> float:
    for _ in range(abs(steps)):
        x = math.nextafter(x, math.copysign(math.inf, steps))
    return x


@st.composite
def _near_branch_edges(draw):
    """``(x, y)`` a few ulps from the ratios 0.5, 1 and 2, where the rule changes branch."""
    y = draw(st.floats(min_value=5e-324, max_value=sys.float_info.max))
    return _ulps(y * draw(st.sampled_from([0.5, 1.0, 2.0])), draw(st.integers(-3, 3))), y


_PINNED = [
    *((x, y) for x in (0.0, -0.0, 5e-324, 1.0) for y in (0.0, -0.0, 5e-324, 1.0)),
    *((_ulps(f * y, steps), y) for f in (0.5, 2.0) for steps in (-1, 0, 1)
      for y in (1.0, 0.3, 1e-300)),
    (5e-324, 1.0), (1e-300, 1e10), (sys.float_info.min, 2.0), (1e300, 1e-10), (sys.float_info.max, 0.5),
    *((x, y) for x in (math.inf, -math.inf, math.nan, 0.0, 0.7)
      for y in (math.inf, -math.inf, math.nan, 0.0, 0.7)),
]


class TestRelEntr:
    """``models._rel_entr`` against ``scipy.special.rel_entr``, bit for bit and NaN for NaN."""

    @settings(max_examples=500, deadline=None, derandomize=True)
    @given(pair=st.one_of(st.tuples(st.floats(), st.floats()), _near_branch_edges()))
    def test_matches_scipy(self, pair):
        assert _bits(models._rel_entr(*pair)) == _bits(rel_entr(*pair))

    @pytest.mark.parametrize("x, y", _PINNED)
    def test_matches_scipy_on_pinned_cases(self, x, y):
        assert _bits(models._rel_entr(x, y)) == _bits(rel_entr(x, y))

    def test_matches_scipy_elementwise(self):
        # One call over every branch at once, its cells interleaved, and one
        # with a scalar truth as kl_to_truth makes.
        rng = np.random.default_rng(0)
        patterns = rng.integers(0, 2**64, size=(2, 2048), dtype=np.uint64).view(float)
        near = rng.random(2048)
        x = np.concatenate([[x for x, _ in _PINNED], patterns[0], np.abs(patterns[0]),
                            near * rng.uniform(0.4, 2.1, near.size)])
        y = np.concatenate([[y for _, y in _PINNED], patterns[1], np.abs(patterns[1]), near])
        order = rng.permutation(x.size)
        x, y = x[order], y[order]
        for args in ((x, y), (0.3, y), (x, 0.3)):
            got = models._rel_entr(*args)
            assert got.shape == x.shape
            assert list(map(_bits, got)) == list(map(_bits, rel_entr(*args)))


def expected_kl(model, theta, index, mc_samples, seed) -> float:
    """One node's expected KL from the truth to parameter ``index``, from its separation table."""
    table = separation_table([model], theta, [1.0], mc_samples=mc_samples, seed=seed)
    return float(table.kl_to_truth[0, index])


class TestExpectedKL:
    def test_bernoulli_hand_value(self):
        # Single context, so the expectation is exact regardless of draws.
        model = BernoulliContextModel(0, true_probs=[0.9], visible=[0])
        theta = ParameterSet(np.array([[0.9], [0.5]]))
        kl = expected_kl(model, theta, 1, mc_samples=50, seed=3)
        assert kl == pytest.approx(binary_kl(0.9, 0.5), abs=1e-12)
        assert kl == pytest.approx(0.368, abs=5e-4)

    def test_realizable_parameter_scores_zero(self):
        model = BernoulliContextModel(0, true_probs=[0.7, 0.2], visible=[0, 1])
        theta = ParameterSet(np.array([[0.7, 0.2], [0.5, 0.5]]))
        assert expected_kl(model, theta, 0, mc_samples=200, seed=1) == 0.0

    def test_gaussian_unobserved_coordinate_scores_zero(self):
        # A type-1 node never excites coordinate 2, so a parameter differing
        # only there is indistinguishable from the truth.
        truth = [-0.3, 0.5, 0.8]
        model = LinearGaussianModel(0, truth, [[-1, 1], [-1.5, 1.5]], [0], 0.8)
        theta = ParameterSet(np.array([truth, [-0.3, 0.5, 0.0]]))
        assert expected_kl(model, theta, 1, mc_samples=500, seed=9) == 0.0

    def test_gaussian_matches_quadratic_form(self):
        truth = np.array([0.2, -0.4])
        model = LinearGaussianModel(0, truth, [[-2, 2]], [0], 0.7)
        candidate = np.array([0.5, 0.3])
        theta = ParameterSet(np.stack([truth, candidate]))
        estimate = expected_kl(model, theta, 1, mc_samples=400, seed=5)
        xs = model.sample_instances(np.random.default_rng([5, 0]), 400)
        gaps = [
            (1.0 * (truth[0] - candidate[0]) + x[0] * (truth[1] - candidate[1])) ** 2
            for x in xs
        ]
        oracle = np.mean(gaps) / (2 * 0.7**2)
        assert estimate == pytest.approx(oracle, rel=1e-12)

    def test_deterministic_given_seed(self):
        model = BernoulliContextModel(0, true_probs=[0.6, 0.4], visible=[0, 1])
        theta = ParameterSet(np.array([[0.6, 0.4], [0.2, 0.9]]))
        a = expected_kl(model, theta, 1, mc_samples=333, seed=77)
        b = expected_kl(model, theta, 1, mc_samples=333, seed=77)
        assert a == b

    def test_support_mismatch_raises(self):
        model = BernoulliContextModel(0, true_probs=[0.9], visible=[0])
        theta = ParameterSet(np.array([[0.0], [0.5]]))
        with pytest.raises(UnboundedKLError):
            expected_kl(model, theta, 0, mc_samples=10, seed=0)

    def test_unseen_context_never_enters_the_kl(self):
        # The candidate gives the truth's label zero mass only on context 1,
        # which this node never draws.
        model = BernoulliContextModel(0, true_probs=[0.7, 0.5], visible=[0])
        theta = ParameterSet(np.array([[0.7, 0.5], [0.4, 0.0]]))
        kl = expected_kl(model, theta, 1, mc_samples=20, seed=0)
        assert kl == pytest.approx(binary_kl(0.7, 0.4), rel=1e-12)

    def test_categorical_binary_matches_bernoulli(self):
        bern = BernoulliContextModel(0, true_probs=[0.8], visible=[0])
        cat = CategoricalContextModel(0, true_table=[[0.2, 0.8]], visible=[0])
        theta_b = ParameterSet(np.array([[0.8], [0.3]]))
        theta_c = ParameterSet(np.array([[0.2, 0.8], [0.7, 0.3]]))
        kb = expected_kl(bern, theta_b, 1, mc_samples=50, seed=2)
        kc = expected_kl(cat, theta_c, 1, mc_samples=50, seed=2)
        assert kb == pytest.approx(kc, abs=1e-12)


class TestSeparationTable:
    def test_single_identifiable_node(self):
        model = BernoulliContextModel(0, true_probs=[0.8, 0.3], visible=[0, 1])
        theta = ParameterSet(np.array([[0.8, 0.3], [0.5, 0.5], [0.2, 0.7]]))
        table = separation_table([model], theta, [1.0], mc_samples=2000, seed=4)
        assert table.global_optima == (0,)
        assert table.separation_rate > 0
        # Brute-force oracle: average the per-context KLs over the shared draws.
        xs = model.sample_instances(np.random.default_rng([4, 0]), 2000)
        truth = np.array([0.8, 0.3])
        expected_rate = min(
            np.mean([binary_kl(truth[x], cand[x]) for x in xs])
            for cand in (np.array([0.5, 0.5]), np.array([0.2, 0.7]))
        )
        assert table.separation_rate == pytest.approx(expected_rate, rel=1e-12)

    def test_two_node_complementary_ambiguity(self):
        truth = np.array([0.7, 0.3])
        psi = np.array([0.7, 0.6])    # node 0 cannot tell from the truth
        phi = np.array([0.2, 0.3])    # node 1 cannot tell from the truth
        theta = ParameterSet(np.stack([truth, psi, phi]))
        models = [
            BernoulliContextModel(0, truth, [0]),
            BernoulliContextModel(1, truth, [1]),
        ]
        table = separation_table(models, theta, [0.5, 0.5], mc_samples=100, seed=8)
        assert table.local_optima == ((0, 1), (0, 2))
        assert table.global_optima == (0,)
        # Realizable case: the truth is never at a KL disadvantage anywhere.
        kl = table.kl_to_truth
        assert np.all(kl[:, 0] <= kl.min(axis=1) + 1e-12)

    def test_all_equivalent_parameters_give_infinite_rate(self):
        model = BernoulliContextModel(0, true_probs=[0.5, 0.1], visible=[0])
        theta = ParameterSet(np.array([[0.5, 0.1], [0.5, 0.9]]))
        table = separation_table([model], theta, [1.0], mc_samples=100, seed=6)
        assert table.global_optima == (0, 1)
        assert math.isinf(table.separation_rate)

    def test_not_globally_learnable_raises(self):
        # The two nodes see the same context but disagree on the truth.
        models = [
            BernoulliContextModel(0, true_probs=[0.2], visible=[0]),
            BernoulliContextModel(1, true_probs=[0.8], visible=[0]),
        ]
        theta = ParameterSet(np.array([[0.2], [0.8]]))
        with pytest.raises(NotGloballyLearnableError):
            separation_table(models, theta, [0.5, 0.5], mc_samples=100, seed=0)

    def test_reindexing_equivariance(self):
        truth = np.array([0.7, 0.2])
        points = np.array([truth, [0.4, 0.5], [0.9, 0.8], [0.1, 0.3]])
        models = [
            BernoulliContextModel(0, truth, [0]),
            BernoulliContextModel(1, truth, [0, 1]),
        ]
        perm = np.array([2, 0, 3, 1])
        base = separation_table(models, ParameterSet(points), [0.4, 0.6],
                                mc_samples=300, seed=13)
        shuffled = separation_table(models, ParameterSet(points[perm]), [0.4, 0.6],
                                    mc_samples=300, seed=13)
        inverse = np.argsort(perm)
        np.testing.assert_allclose(shuffled.kl_to_truth[:, inverse], base.kl_to_truth,
                                   atol=1e-12)
        assert base.separation_rate == pytest.approx(shuffled.separation_rate, rel=1e-12)

    @pytest.mark.parametrize("seed", range(24))
    def test_rate_matches_pairwise_oracle(self, seed):
        # Random Bernoulli world. The last context is seen by no node, so
        # every copy of the truth that differs only there is also globally
        # optimal.
        rng = np.random.default_rng([17, seed])
        n_nodes, n_contexts = int(rng.integers(1, 5)), int(rng.integers(2, 5))
        truth = rng.uniform(0.1, 0.9, n_contexts)
        models = [
            BernoulliContextModel(j, truth, rng.choice(
                n_contexts - 1, size=int(rng.integers(1, n_contexts)), replace=False))
            for j in range(n_nodes)
        ]
        copies = np.repeat(truth[None, :], int(rng.integers(0, 3)), axis=0)
        copies[:, -1] = rng.uniform(0.1, 0.9, len(copies))
        points = np.vstack([truth, copies, rng.uniform(0.05, 0.95, (12, n_contexts))])
        stationary = rng.dirichlet(np.ones(n_nodes))
        table = separation_table(models, ParameterSet(points), stationary,
                                 mc_samples=200, seed=seed)
        assert len(table.global_optima) == 1 + len(copies)
        expected = pairwise_separation_rate(table.kl_to_truth, stationary,
                                            table.global_optima)
        assert table.separation_rate == pytest.approx(expected, rel=1e-12)

    def test_rate_stable_under_sample_doubling(self):
        truth = np.array([0.8, 0.3])
        models = [
            BernoulliContextModel(0, truth, [0]),
            BernoulliContextModel(1, truth, [1]),
        ]
        theta = ParameterSet(np.array([truth, [0.6, 0.5], [0.3, 0.8]]))

        def rate(mc, seed):
            return separation_table(models, theta, [0.5, 0.5],
                                    mc_samples=mc, seed=seed).separation_rate

        replicates = np.array([rate(1500, s) for s in range(40, 50)])
        se = replicates.std(ddof=1)
        assert abs(rate(1500, 0) - rate(3000, 1)) < 3 * se + 1e-9


class TestLinearMemory:
    """Parameter geometry must not take memory quadratic in M (M = 4,096 here)."""

    axis = np.linspace(0.02, 0.98, 64)
    grid = np.stack(np.meshgrid(axis, axis, indexing="ij"), axis=-1).reshape(-1, 2)

    def test_parameter_set_peak(self):
        assert peak_bytes(lambda: ParameterSet(self.grid)) < 1 * 2**20

    @pytest.mark.parametrize("points", [
        lambda m: np.random.default_rng(m).uniform(0.0, 1.0, (m, 3)),
        lambda m: np.full((m, 3), 0.5),
    ], ids=["uniform", "all-equal"])
    def test_duplicate_search_peak_is_linear(self, points):
        # All equal, every pair is compared; the search still holds O(M) at a time.
        small, large = (peak_bytes(lambda: models._closest_duplicate(points(m)))
                        for m in (500, 2000))
        assert large < 5 * small

    def test_gather_into_a_contiguous_block_takes_no_buffer(self):
        # The engine hands each node's gather its contiguous (T, M) block of
        # the state, which np.take fills in place.
        model = BernoulliContextModel(0, self.grid[1234], [0])
        encode, gather = model.log_likelihood_codes(self.grid)
        rng = np.random.default_rng(3)
        xs = model.sample_instances(rng, 4)
        ys = model.sample_labels(rng, xs)
        codes = encode(xs, ys)
        state = np.empty((2, 4, len(self.grid)))
        assert peak_bytes(lambda: gather(codes, out=state[1])) < state[1].nbytes
        np.testing.assert_array_equal(state[1], model.log_likelihood_matrix(self.grid, xs, ys))

    def _separation_table_peak(self, **kwargs):
        theta = ParameterSet(self.grid)
        truth = self.grid[1234]
        models = [BernoulliContextModel(j, truth, [j]) for j in range(2)]
        stationary = spectral_gap(validate_weight_matrix([[0.8, 0.2], [0.3, 0.7]])).stationary
        tables = []
        peak = peak_bytes(lambda: tables.append(
            separation_table(models, theta, stationary, seed=5, **kwargs)))
        assert tables[0].global_optima == (1234,)
        return peak

    def test_separation_table_peak(self):
        assert self._separation_table_peak(mc_samples=50) < 32 * 2**20

    def test_separation_table_peak_at_default_mc_samples(self):
        # The draws are reduced to their distinct contexts first, so a context
        # family's KL table is (M, n_contexts), never (M, mc_samples).
        assert self._separation_table_peak() < 4 * 2**20

    def test_instance_support_holds_one_index_a_draw(self):
        # A context family's draws are counted, not kept as contexts and sorted.
        model = BernoulliContextModel(0, self.grid[1234], [0, 1])
        n_draws = 200_000
        assert peak_bytes(lambda: instance_support(model, n_draws, 5)) <= 9 * n_draws

    def test_kl_to_truth_peak_is_flat_in_the_context_count(self):
        # A categorical family's tables are a view of the points, so what the
        # call holds beyond its result is the rule's temporaries, one context's.
        def held(n_contexts):
            rng = np.random.default_rng(n_contexts)
            rows = rng.dirichlet(np.ones(4), (4096, n_contexts))
            model = CategoricalContextModel(0, rows[0], range(n_contexts))
            points, xs = rows.reshape(4096, -1), np.arange(n_contexts)
            kl = []
            return peak_bytes(lambda: kl.append(model.kl_to_truth(points, xs))) - kl[0].nbytes

        assert held(16) <= 1.25 * held(2)


class TestCoveringVerifier:
    def test_points_cover_themselves(self):
        truth = np.array([0.6, 0.4])
        points = np.array([truth, [0.3, 0.7]])
        models = [BernoulliContextModel(0, truth, [0, 1])]
        assert per_draw_covering_distances(points, points, models, 100, 0).max() <= 1e-15

    def test_intercept_grid_worst_radius_closed_form(self):
        # Intercept-only regression: the average KL to the nearest grid point
        # is (distance^2)/(2 noise_var), maximized at grid midpoints.
        noise_std = 0.5
        spacing = 0.1
        grid = np.arange(0.0, 1.0 + 1e-12, spacing)[:, None]
        model = LinearGaussianModel(0, [0.5], ranges=[], observed=[],
                                    noise_std=noise_std)
        phi = np.linspace(0.0, 1.0, 201)[:, None]
        distances = per_draw_covering_distances(phi, grid, [model], 50, 0)
        expected_worst = (spacing / 2.0) ** 2 / (2.0 * noise_std**2)
        assert distances.max() == pytest.approx(expected_worst, rel=1e-9)

    def test_small_radius_reports_midpoint_violations(self):
        noise_std = 0.5
        grid = np.arange(0.0, 1.0 + 1e-12, 0.1)[:, None]
        model = LinearGaussianModel(0, [0.5], ranges=[], observed=[],
                                    noise_std=noise_std)
        phi = np.linspace(0.0, 1.0, 201)[:, None]
        tight = 0.004
        violating = np.flatnonzero(per_draw_covering_distances(phi, grid, [model], 50, 0) > tight)
        assert violating.size
        # Every violation sits farther from its nearest grid point than the
        # radius allows.
        threshold = math.sqrt(tight * 2.0 * noise_std**2)
        for idx in violating:
            nearest = np.min(np.abs(grid[:, 0] - phi[idx, 0]))
            assert nearest > threshold - 1e-12


class TestAssumptionBounds:
    def test_bernoulli_bounds(self):
        truth = np.array([0.9, 0.1])
        models = [
            BernoulliContextModel(0, truth, [0]),
            BernoulliContextModel(1, truth, [0, 1]),
        ]
        theta = ParameterSet(np.array([[0.9, 0.1], [0.3, 0.7]]))
        low, high = assumption_bounds(models, theta)
        assert low == pytest.approx(0.1)
        assert high == pytest.approx(0.9)

    @pytest.mark.parametrize("model, points", [
        (BernoulliContextModel(0, [0.0, 0.6], [0]), [[0.0, 0.6], [0.5, 0.6]]),
        (BernoulliContextModel(0, [1.0, 0.6], [0]), [[1.0, 0.6], [0.5, 0.6]]),
        (CategoricalContextModel(0, [[0.5, 0.5], [1.0, 0.0]], [0, 1]),
         [[0.5, 0.5, 1.0, 0.0], [0.3, 0.7, 0.4, 0.6]]),
    ], ids=["bernoulli-zero", "bernoulli-one", "categorical-zero"])
    def test_zero_probability_on_a_visible_context_is_unbounded(self, model, points):
        assert assumption_bounds([model], ParameterSet(np.array(points))) is None

    def test_zero_probability_on_an_unseen_context_is_bounded(self):
        model = BernoulliContextModel(0, [0.6, 0.0], [0])
        theta = ParameterSet(np.array([[0.6, 0.0], [0.3, 1.0]]))
        assert assumption_bounds([model], theta) == (0.3, 0.7)

    def test_gaussian_family_is_unbounded(self):
        models = [LinearGaussianModel(0, [0.0, 1.0], [[-1, 1]], [0], 0.5)]
        theta = ParameterSet(np.array([[0.0, 1.0], [0.2, 0.8]]))
        assert assumption_bounds(models, theta) is None
