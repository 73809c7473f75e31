"""Magnitude computation and verification for metric measure spaces.

The package imports nothing on its own; import the module you need, such
as ``magnilab.finite_mag`` or ``magnilab.mc``.
"""

__version__ = "0.1.0"
