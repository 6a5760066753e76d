"""Homonym author-name disambiguation over co-authorship networks.

The package root exports only ``__version__``; import every other name
from its module, e.g. ``from nameclust.cluster import cluster_block``.
"""

__version__ = "0.1.0"
