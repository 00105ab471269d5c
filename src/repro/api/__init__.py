"""Session-oriented public API: compile once, query many times.

:class:`AnalysisSession` owns the compiled artifacts of one program
(validated AST, CFG, encoder, per-algorithm symbolic backends, template
BDDs, compiled query plans, retained fixed-point interpretations) and
answers repeated reachability queries against them.  Its
:meth:`~AnalysisSession.check` is the one sequential query path: the CLI,
``check_reachability``, ``run_sequential``, batches and the daemon all
answer through it, so the ``ResourceLimits.degrade`` retry and witness
attachment are session behaviour they share.  See
:mod:`repro.api.session` for the per-algorithm reuse matrix.
"""

from .session import AnalysisSession, SolveInfo

__all__ = ["AnalysisSession", "SolveInfo"]
