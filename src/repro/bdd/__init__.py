"""Pure-Python ROBDD library (the symbolic substrate of the reproduction).

The node layer uses *complement edges* — a function handle is a signed edge
``(node << 1) | complement`` with a single shared terminal, so negation is an
O(1) edge flip and a function shares every node with its complement — and a
mark-and-sweep garbage collector with external-reference tracking (see
:mod:`repro.bdd.manager`).

Public API
----------
:class:`BddManager`
    The node table and operation layer (integer signed-edge handles),
    including ``ref``/``deref`` external-root tracking, ``collect_garbage``
    / ``maybe_collect`` and GC hooks.  Its one node store is a
    struct-of-arrays layout: flat int64 node vectors, packed integer cache
    keys and vectorised GC/counting.  Every session, shard and service
    worker evaluates in a private manager of its own.
"""

from .manager import BddError, BddManager, QuantCube

__all__ = [
    "BddError",
    "BddManager",
    "QuantCube",
]
