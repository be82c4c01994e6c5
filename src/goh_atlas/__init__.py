"""Exact free-nilpotent Lie algebra models, polynomial frames in normal form,
Goh varieties, and numeric abnormal-extremal diagnostics.

Submodules load on first attribute access (PEP 562), so importing the exact
kernel pulls in neither numpy nor the CLI, and ``python -m goh_atlas.cli``
runs the CLI module once.  Only floateval, goh, trajectories and scenarios
import numpy, so the commands basis, realize and metabelian, --help and
every usage error run without it.
"""

import importlib

__all__ = [
    "cli",
    "errors",
    "floateval",
    "freelie",
    "goh",
    "metabelian",
    "normalform",
    "options",
    "polyfield",
    "scenarios",
    "serialize",
    "trajectories",
]
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in __all__:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
