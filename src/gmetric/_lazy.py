"""numpy, imported on first use.

``from ._lazy import np`` stands in for ``import numpy as np``: the first
attribute read imports numpy, so a command that never reaches an array
kernel (``solve``, ``gauge``, ``violate``, and ``oracle`` or exhaustive
``axioms`` on a finite table whose off-diagonal entries lie within a factor
2 of each other) starts without it.  When a CLI command does reach one,
:func:`gmetric.cli.entry` has already defaulted ``OPENBLAS_NUM_THREADS`` to
1, so the import starts no OpenBLAS worker threads that gmetric never uses.
"""


class _LazyNumpy:
    def __getattr__(self, name):
        import numpy
        value = getattr(numpy, name)
        setattr(self, name, value)  # later reads of ``name`` skip this method
        return value


np = _LazyNumpy()
