"""Kratzer-potential spectra under a minimal-length deformed algebra.

The package computes closed-form bound-state energies of the molecular
potential g1/r^2 - g2/r, perturbative corrections induced by a deformed
Heisenberg algebra with a minimal position uncertainty, independent
quadrature and momentum-space ODE cross-checks, and minimal-length
upper bounds fitted to experimental rovibrational data.

Submodules are imported on first use (PEP 562), so `import kratzerml`
loads none of them.  kratzerml.X is the X that its submodule exports,
found by walking the submodules in order: the closed-form ones come
first and import only the standard library, so their names resolve
without numpy or scipy.  The numerical oracles import both at the top.
"""

import importlib

__version__ = "1.0.0"

# the verify grid presets; defined here so that the CLI parser can offer
# them without importing verify, and with it numpy and scipy
PRESETS = ("small", "paper")

# the submodules whose __all__ lists make up the package's, in that order:
# physmodel, spectrum and estimate, which bound, spectrum and fit need,
# before the modules that import numpy and scipy
_MODULES = ("physmodel", "spectrum", "estimate", "wavefunctions", "oracle",
            "momentum", "verify")


def _module(name):
    return importlib.import_module(f"{__name__}.{name}")


def __getattr__(name):
    # shell is named so that `from kratzerml import shell` imports it alone
    if name in _MODULES or name == "shell":
        return _module(name)
    if name == "__all__":
        value = ["__version__"] + [
            export for module in map(_module, _MODULES) for export in module.__all__
        ]
    else:
        # a private or dunder probe (copy, pickle, inspect) imports nothing;
        # a public name imports the submodules in order up to its owner
        owners = () if name.startswith("_") else map(_module, _MODULES)
        owner = next((module for module in owners if name in module.__all__), None)
        if owner is None:
            raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
        value = getattr(owner, name)
    globals()[name] = value
    return value


def __dir__():
    return list(__getattr__("__all__"))
