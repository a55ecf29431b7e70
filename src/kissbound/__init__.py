"""Certified upper bounds on average kissing numbers of ball packings.

The average kissing number k_d is the supremum of the average degree of
contact graphs of (not necessarily congruent) ball packings in R^d.  This
package computes the area-argument bounds in general dimension and the
sharper certified bound k_3 < 13.955 obtained by bounding cap-packing
densities on inflated measuring spheres.

The public names are those of each module's __all__, re-exported here.
"""

from . import caps, certifier, density, errors, highdim, packings

# bound before the star imports, which rebind `density` to the function
_MODULES = (caps, highdim, density, certifier, packings, errors)

from .caps import *  # noqa: E402, F403
from .certifier import *  # noqa: E402, F403
from .density import *  # noqa: E402, F403
from .errors import *  # noqa: E402, F403
from .highdim import *  # noqa: E402, F403
from .packings import *  # noqa: E402, F403

__version__ = "0.1.0"

__all__ = ["__version__"] + [name for module in _MODULES for name in module.__all__]
