"""Bad input fails early with an error that names the culprit."""
import numpy as np
import pytest

from ldlkit import Hyperparams


@pytest.mark.parametrize("field, value, name", [
    ("alpha", np.nan, "alpha"),
    ("alpha", np.inf, "alpha"),
    ("lam", np.nan, "lambda"),
    ("lam", np.inf, "lambda"),
    ("tol", np.nan, "tol"),
    ("tol", np.inf, "tol"),
    ("mu_growth", np.nan, "mu_growth"),
])
def test_hyperparams_reject_non_finite_values(field, value, name):
    with pytest.raises(ValueError, match=name):
        Hyperparams(**{field: value})
