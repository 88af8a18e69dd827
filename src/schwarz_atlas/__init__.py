"""Hypergeometric monodromy, ADE root-system connections, triangle tessellations,
and exact stratum-condition enumeration.

Importing the package, or its exact modules (exact, roots, schwarzcond, cli),
loads no numpy; the numeric modules (gauss, triangle, torus, _kernels) load it.
"""

import importlib

__version__ = "0.1.0"


class NumericFailure(Exception):
    """Numerics broke down: a series that does not converge, a frame that is
    no longer finite, a path that reaches a singular point, or (its torus
    subclasses) a mirror point or no single invariant form.  Deliberately
    not a ValueError: the input was valid, the numerics failed (exit 1).
    Defined here, outside the numeric modules, so that the CLI can catch it
    without loading numpy."""


# Asking the package for one of these (`from schwarz_atlas import gauss`)
# loads all three.  perfbench/tracer.py reads every layer from sys.modules
# right after `from schwarz_atlas import cli, gauss`; this grouping can go
# when ROADMAP item 3 replaces that tracer.
_NUMERIC = ("gauss", "triangle", "torus")


def __getattr__(name):
    if name not in _NUMERIC:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    for module in _NUMERIC:
        importlib.import_module(f"{__name__}.{module}")
    return globals()[name]
