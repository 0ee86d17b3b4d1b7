"""Exact and numerical tools for cocalibrated torsion geometry in dimension 7.

The exact layer (forms, spin, g2, liegroup, classifier) works over the
rationals; the numerical layer (coframe, liouville, bundle) provides
finite-difference differential geometry for coordinate-dependent metrics.
The numerical names are imported on first access, so code that uses only
the exact layer never imports numpy.
"""

import importlib

from .forms import Form, format_form, parse_form
from .g2 import char_torsion, project3, standard_omega3, standard_omega4
from .liegroup import LieAlgebraData, parse_algebra, with_torsion
from .pipeline import G2Report, run
from .spin import OCTONION_TRIPLES, CliffordRep, standard_rep

#: Numerical-layer names and the module that defines each.
_NUMERIC = {
    "BundleData": "bundle",
    "assemble_N5": "bundle",
    "kahler_coframe": "bundle",
    "strominger_check": "bundle",
    "CoframeField": "coframe",
    "riemann_ricci": "coframe",
    "LiouvilleSolution": "liouville",
    "solve_liouville": "liouville",
}


def __getattr__(name):
    if name in _NUMERIC:
        module = importlib.import_module(f".{_NUMERIC[name]}", __name__)
        return getattr(module, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "BundleData",
    "assemble_N5",
    "kahler_coframe",
    "strominger_check",
    "CoframeField",
    "riemann_ricci",
    "Form",
    "format_form",
    "parse_form",
    "char_torsion",
    "project3",
    "standard_omega3",
    "standard_omega4",
    "LieAlgebraData",
    "parse_algebra",
    "with_torsion",
    "LiouvilleSolution",
    "solve_liouville",
    "G2Report",
    "run",
    "OCTONION_TRIPLES",
    "CliffordRep",
    "standard_rep",
]

__version__ = "0.1.0"
