"""Grouped-dataset validation and lower-bound Gini tests."""

import numpy as np
import pytest

from gb2fit import distributions as d
from gb2fit.distributions import FamilySpec
from gb2fit.exceptions import ValidationError
from gb2fit.grouped import GroupedDataset, from_shares, lower_bound_gini


def dataset_from_spec(spec, n_groups, id="gen"):
    u = np.arange(1, n_groups + 1) / n_groups
    return GroupedDataset(id=id, u=u, s=d.lorenz(spec, u))


class TestValidation:
    def test_equality_ok(self):
        u = np.array([0.2, 0.4, 0.6, 0.8, 1.0])
        GroupedDataset(id="eq", u=u, s=u.copy())

    def test_all_violations_reported(self):
        with pytest.raises(ValidationError) as err:
            GroupedDataset(
                id="bad",
                u=np.array([0.5, 0.4, 1.0]),
                s=np.array([0.9, 0.2, 0.8]),
                mean=-1.0,
                survey_gini=1.5,
            )
        msg = str(err.value)
        assert "u must be strictly increasing" in msg
        assert "non-decreasing" in msg
        assert "last income share" in msg
        assert "mean must be positive" in msg
        assert "survey_gini" in msg

    @pytest.mark.parametrize(
        "field,value,message",
        [
            ("mean", float("nan"), "mean must be positive and finite"),
            ("mean", float("inf"), "mean must be positive and finite"),
            ("mean", "x", "mean must be positive and finite"),
            ("mean", True, "mean must be positive and finite"),
            ("survey_gini", float("nan"), "survey_gini must lie"),
            ("survey_gini", "0.3", "survey_gini must lie"),
            ("s", [float("nan"), 1.0], "u and s must be finite"),
            ("u", [0.5, float("inf")], "u and s must be finite"),
        ],
    )
    def test_non_finite_or_non_numeric_rejected(self, field, value, message):
        kwargs = {"id": "x", "u": [0.5, 1.0], "s": [0.3, 1.0], field: value}
        with pytest.raises(ValidationError, match=message):
            GroupedDataset(**kwargs)

    def test_share_above_diagonal_rejected(self):
        with pytest.raises(ValidationError):
            GroupedDataset(id="x", u=np.array([0.5, 1.0]), s=np.array([0.7, 1.0]))

    def test_too_few_groups(self):
        with pytest.raises(ValidationError):
            GroupedDataset(id="x", u=np.array([1.0]), s=np.array([1.0]))

    def test_empty_group_share_legal(self):
        # zero income share in a group => weakly increasing s
        GroupedDataset(
            id="x",
            u=np.array([0.2, 0.4, 0.6, 0.8, 1.0]),
            s=np.array([0.0, 0.0, 0.0, 0.0, 1.0]),
        )

    def test_arrays_read_only(self):
        ds = GroupedDataset(id="x", u=np.array([0.5, 1.0]), s=np.array([0.3, 1.0]))
        with pytest.raises(ValueError):
            ds.u[0] = 0.1


class TestFromShares:
    def test_perfect_equality(self):
        ds = from_shares([0.2] * 5)
        assert np.allclose(ds.u, [0.2, 0.4, 0.6, 0.8, 1.0])
        assert np.allclose(ds.s, ds.u)

    def test_two_groups(self):
        ds = from_shares([0.3, 0.7])
        assert np.allclose(ds.s, [0.3, 1.0])
        assert np.allclose(ds.u, [0.5, 1.0])

    def test_lognormal_deciles(self):
        spec = FamilySpec("lognormal", (0.0, 1.0))
        u = np.arange(1, 11) / 10
        shares = np.diff(d.lorenz(spec, u), prepend=0.0)
        ds = from_shares(shares, id="ln")
        assert np.max(np.abs(ds.s - d.lorenz(spec, u))) < 1e-12

    def test_bad_sum(self):
        with pytest.raises(ValidationError):
            from_shares([0.3, 0.3])

    @pytest.mark.parametrize("total", [0.9951, 1.001, 1.0049, 99.51, 100.0, 100.49])
    def test_rounded_and_percent_sums_renormalized(self, total):
        shares = np.array([0.1, 0.2, 0.3, 0.4]) * total
        ds = from_shares(shares)
        assert np.array_equal(ds.s[:-1], np.cumsum(shares / shares.sum())[:-1])
        assert ds.s[-1] == 1.0

    @pytest.mark.parametrize("total", [0.9949, 1.0051, 2.0, 99.49, 100.51])
    def test_sum_beyond_slack_rejected(self, total):
        with pytest.raises(ValidationError, match="shares sum to"):
            from_shares(np.array([0.1, 0.2, 0.3, 0.4]) * total)

    def test_group_accessors(self):
        ds = from_shares([0.1, 0.3, 0.6])
        assert ds.n_groups == 3


class TestLowerBoundGini:
    def test_equality_zero(self):
        u = np.array([0.25, 0.5, 0.75, 1.0])
        assert lower_bound_gini(GroupedDataset(id="eq", u=u, s=u.copy())) == 0.0

    def test_extreme_quintiles(self):
        # one group owns everything: trapezoid oracle gives 0.8
        ds = GroupedDataset(
            id="x",
            u=np.array([0.2, 0.4, 0.6, 0.8, 1.0]),
            s=np.array([0.0, 0.0, 0.0, 0.0, 1.0]),
        )
        assert lower_bound_gini(ds) == pytest.approx(0.8, abs=1e-12)

    def test_trapezoid_oracle(self):
        # independent computation: 1 - 2 * trapezoid area under the chords
        rng = np.random.default_rng(5)
        for _ in range(20):
            J = rng.integers(2, 12)
            u = np.sort(rng.random(J - 1))
            u = np.concatenate((u, [1.0]))
            s = np.minimum(np.sort(rng.random(J - 1)), u[:-1])
            s = np.concatenate((np.sort(s), [1.0]))
            ds = GroupedDataset(id="r", u=u, s=s)
            uu = np.concatenate(([0.0], u))
            ss = np.concatenate(([0.0], s))
            area = np.trapezoid(ss, uu)
            assert lower_bound_gini(ds) == pytest.approx(1 - 2 * area, abs=1e-12)

    def test_underestimates_true_gini(self):
        for spec in (
            FamilySpec("lognormal", (0.0, 1.0)),
            FamilySpec("sm", (2.0, 1.0, 1.5)),
            FamilySpec("weibull", (1.2, 1.0)),
        ):
            ds = dataset_from_spec(spec, 10)
            assert lower_bound_gini(ds) < d.gini_closed(spec).value

    def test_lognormal_deciles_below_05205(self):
        ds = dataset_from_spec(FamilySpec("lognormal", (0.0, 1.0)), 10)
        g = lower_bound_gini(ds)
        assert g < 0.5205
        assert g > 0.45  # still informative

    def test_refinement_monotonicity(self):
        spec = FamilySpec("sm", (2.0, 1.0, 1.5))
        g5 = lower_bound_gini(dataset_from_spec(spec, 5))
        g10 = lower_bound_gini(dataset_from_spec(spec, 10))
        assert g10 >= g5

    def test_chord_split_invariance(self):
        ds = GroupedDataset(
            id="x", u=np.array([0.5, 1.0]), s=np.array([0.2, 1.0])
        )
        # split the first group at u = 0.25, exactly on the chord
        split = GroupedDataset(
            id="x2", u=np.array([0.25, 0.5, 1.0]), s=np.array([0.1, 0.2, 1.0])
        )
        assert lower_bound_gini(split) == pytest.approx(lower_bound_gini(ds), abs=1e-14)
