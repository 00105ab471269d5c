"""Concurrent Boolean programs: a set of threads sharing global variables.

The paper extends the sequential syntax with a list of component programs
("threads") that share the globally declared variables; execution interleaves
the threads, one being active at a time (Section 5).  Here a concurrent
program is a list of named :class:`Thread` objects plus the shared globals.
Thread-private globals (the per-program globals of the paper) are supported
and are simply globals no other thread mentions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from .ast import Program

__all__ = ["Thread", "ConcurrentProgram"]


@dataclass
class Thread:
    """One component program of a concurrent Boolean program."""

    name: str
    program: Program


@dataclass
class ConcurrentProgram:
    """A concurrent Boolean program: shared globals plus a list of threads.

    ``init`` gives the initial value of (some of) the shared globals; shared
    globals without an entry start with a nondeterministic value, like every
    other Boolean-program variable.
    """

    shared: List[str]
    threads: List[Thread]
    name: str = "program"
    init: Dict[str, bool] = field(default_factory=dict)

    def __post_init__(self) -> None:
        names = [thread.name for thread in self.threads]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate thread names: {names}")

    @property
    def num_threads(self) -> int:
        """Number of threads."""
        return len(self.threads)

    def thread(self, name: str) -> Thread:
        """Look up a thread by name."""
        for thread in self.threads:
            if thread.name == name:
                return thread
        raise KeyError(f"no thread named {name!r}")

    def replicate(self, template: Thread, copies: int) -> "ConcurrentProgram":
        """Return a new program with ``copies`` instances of ``template`` added.

        Each copy gets a fresh thread name (``name_1``, ``name_2``, ...); the
        procedures themselves are shared (they contain no thread-identifying
        state), so re-using the same :class:`Program` object is safe.
        """
        threads = list(self.threads)
        for index in range(copies):
            threads.append(Thread(name=f"{template.name}_{index + 1}", program=template.program))
        return ConcurrentProgram(
            shared=list(self.shared), threads=threads, name=self.name, init=dict(self.init)
        )
