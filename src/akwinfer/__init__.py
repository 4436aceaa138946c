"""Gradient-free averaged stochastic optimization with online inference.

Modules: ``numkernel`` (dense symmetric linear algebra), ``directions``
(random search-direction laws and their noise-inflation matrices),
``models`` (loss oracles with closed-form ground truth),
``plugin_inference`` and ``random_scaling`` (two online
confidence-interval constructions), ``simharness`` (the optimizer: a
Monte-Carlo replication engine with its schedules, divergence rule,
configs and reports), ``recipes`` (frozen experiment configs) and ``cli``
(the ``akw`` command line, also run as ``python -m akwinfer.cli``; the
package does not import it).
"""

from . import (  # noqa: F401
    directions,
    models,
    numkernel,
    plugin_inference,
    random_scaling,
    recipes,
    simharness,
)

__version__ = "0.1.0"
