"""Zeta-regularized trace engine for oscillatory phase-space integrals.

Import the submodules: ``zetatrace.cli`` for the command line,
``zetatrace.models`` for the bundled models, ``zetatrace.engine`` for the
pipeline.  Importing the package alone loads none of them.
"""

__version__ = "0.1.0"
