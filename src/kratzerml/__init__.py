"""Kratzer-potential spectra under a minimal-length deformed algebra.

The package computes closed-form bound-state energies of the molecular
potential g1/r^2 - g2/r, perturbative corrections induced by a deformed
Heisenberg algebra with a minimal position uncertainty, independent
quadrature and momentum-space ODE cross-checks, and minimal-length
upper bounds fitted to experimental rovibrational data.
"""

from .estimate import *  # noqa: F401,F403
from .momentum import *  # noqa: F401,F403
from .oracle import *  # noqa: F401,F403
from .physmodel import *  # noqa: F401,F403
from .spectrum import *  # noqa: F401,F403
from .verify import *  # noqa: F401,F403
from .wavefunctions import *  # noqa: F401,F403

__version__ = "1.0.0"

# importing a submodule binds it on the package, so the star imports above
# also define these names
_MODULES = (physmodel, wavefunctions, spectrum, oracle, momentum, estimate, verify)  # noqa: F405

__all__ = ["__version__"] + [name for mod in _MODULES for name in mod.__all__]
