"""finiverse: exact finite-field geometry and vacuum-energy cosmology.

The package has five working layers:

* ``fields`` -- GF(p^k) arithmetic with exhaustive axiom verification,
* ``geometry`` -- affine spaces over finite fields, degenerate-distance
  search, line/incidence enumeration, and exact rational-plane tools,
* ``hilbert`` -- finite inner-product spaces with conjugation,
* ``regularization`` -- Bernoulli numbers, regularized divergent sums,
  and vacuum-energy formulas,
* ``cosmology`` -- the pointset-cosmology calculator and a verified
  scale-factor integrator.

``cli`` exposes all of it as the ``finiverse`` command.  The package
re-exports each library module's ``__all__``.
"""

from .constants import *
from .cosmology import *
from .errors import *
from .fields import *
from .geometry import *
from .hilbert import *
from .regularization import *

__version__ = "0.1.0"
