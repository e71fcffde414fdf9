"""Order-q uncertainty measures for exponential power probe distributions.

Core objects: the probe family (``ProbeDistribution``), the order-q measure
family (generalized Hellinger distance, generalized Fisher information,
sensitivity, posterior width, mean estimation error), Monte Carlo
single-shot estimation, and the quadrature engine that cross-checks every
closed form.

Each module's ``__all__`` is the one list of its public names; the package
re-exports them.
"""

from . import estimation, measures, numerics, probe
from .estimation import *  # noqa: F401,F403
from .measures import *  # noqa: F401,F403
from .numerics import *  # noqa: F401,F403
from .probe import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = probe.__all__ + numerics.__all__ + measures.__all__ + estimation.__all__
