"""The sampler and the closed mean error against ``scipy.stats.gennorm``.

The probe P(x) = C exp(-2 |x/gamma|**alpha) is scipy's generalized normal
law with ``beta = alpha`` and ``scale = gamma / 2**(1/alpha)`` (Nadarajah
2005); scipy's CDF and its quadrature-based ``expect`` share no code with
the probe's gamma-variate sampler or the closed forms.

Only alpha <= 20 is checked: at alpha of about 100 and above ``|x/s|**beta``
underflows in scipy's CDF, which then reads 0 for |x| < 0.09 s, so a KS test
rejects a sampler that follows the exact law.  The large-shape sampler tests
in ``test_probe.py`` cover that range.
"""

import numpy as np
import pytest

from genfisher.measures import mean_error_closed
from genfisher.probe import ProbeDistribution

stats = pytest.importorskip("scipy.stats")


def gennorm(dist):
    return stats.gennorm(beta=dist.alpha, scale=dist.gamma_scale / 2.0 ** (1.0 / dist.alpha))


@pytest.mark.parametrize("alpha", [0.8, 1.0, 2.0, 5.0, 20.0])
def test_sample_follows_the_gennorm_law(alpha):
    dist = ProbeDistribution.from_shape_energy(alpha, 1.0)
    x = dist.sample(np.random.default_rng(2024), 20_000)
    assert stats.kstest(x, gennorm(dist).cdf).pvalue > 1e-3


@pytest.mark.parametrize("alpha", [0.8, 1.0, 2.0, 5.0])
@pytest.mark.parametrize("q", [0.25, 0.5, 1.0, 2.0, 4.0])
def test_mean_error_closed_is_the_gennorm_moment(alpha, q):
    dist = ProbeDistribution.from_shape_scale(alpha, 1.7)
    moment = gennorm(dist).expect(lambda x: abs(x) ** (1.0 / q))
    assert mean_error_closed(dist, q).value == pytest.approx(moment**q, rel=1e-10, abs=0.0)
