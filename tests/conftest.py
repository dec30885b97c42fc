import pytest
from hypothesis import settings

import hjikit as hk
from hjikit import smoothing as sm

# `pytest --hypothesis-profile=ci` draws the same examples on every run, so the
# bitwise differential tests cannot pass on one run and fail on the next.
settings.register_profile("ci", derandomize=True)


@pytest.fixture(scope="session")
def smoothed_sigma1():
    """One shared smoothing run: sigma1 / v1_scaled upgraded from gain 1 to 1.1."""
    sys = hk.zoo_entry("sigma1").system
    cert = sm.smooth_witness(sys, hk.builtin("v1_scaled"), 1.0, 1.1)
    assert cert.passed
    return cert
