"""Genetic-algorithm beam selection for multiuser MIMO initial access.

The package simulates a base station that picks DFT codebook beams for N
simultaneous users, trading search time against payload throughput, and ships
a Monte Carlo harness plus a CLI for the standard experiment recipes. Import
from the submodules: ``beamsel.core``, ``beamsel.config``, ``beamsel.channel``,
``beamsel.codebook``, ``beamsel.search``, ``beamsel.harness`` and
``beamsel.cli``.
"""

from ._version import __version__

__all__ = ["__version__"]
