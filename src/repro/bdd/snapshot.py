"""Former home of the shared-memory snapshot overlay, which was removed."""

from .manager import BddManager

__all__ = ["SnapshotOverlayManager"]


class SnapshotOverlayManager(BddManager):
    """A name only: ``perfbench/tracer.py`` still imports this module and wraps each class's own ``vars()``."""
