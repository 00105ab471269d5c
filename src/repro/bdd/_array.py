"""Former home of the struct-of-arrays store, now :class:`repro.bdd.BddManager`."""

from .manager import BddManager

__all__ = ["ArrayBddManager"]


class ArrayBddManager(BddManager):
    """A subclass, not an alias: ``perfbench/tracer.py`` wraps the methods in each class's own ``vars()``."""
