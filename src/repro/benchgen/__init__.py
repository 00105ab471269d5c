"""Benchmark-program generators (substitutes for the paper's proprietary suites)."""

from .regression import RegressionCase, regression_case, regression_suite, TEMPLATE_NAMES
from .drivers import DriverSpec, driver_suite, make_driver
from .terminator import TerminatorSpec, make_terminator, terminator_suite
from .bluetooth import BLUETOOTH_CONFIGURATIONS, bluetooth_source, make_bluetooth
from .random_programs import random_program, random_program_source

__all__ = [
    "RegressionCase",
    "regression_case",
    "regression_suite",
    "TEMPLATE_NAMES",
    "DriverSpec",
    "driver_suite",
    "make_driver",
    "TerminatorSpec",
    "make_terminator",
    "terminator_suite",
    "BLUETOOTH_CONFIGURATIONS",
    "bluetooth_source",
    "make_bluetooth",
    "random_program",
    "random_program_source",
]
