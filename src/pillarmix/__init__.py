"""Mixed-precision INT8/FP16 quantization toolkit with a pillar-detection harness.

The modules are the API: import each name from the module that defines it
(``pillarmix.model``, ``pillarmix.detector``, ...); the package root re-exports nothing.
"""

__all__ = []
