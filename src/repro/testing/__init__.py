"""Deterministic test scaffolding (fault injection) for the analysis stack."""

from .faults import FaultPlan, clear, install

__all__ = ["FaultPlan", "clear", "install"]
