"""Exact values shared by the test modules.

They live outside conftest.py because test modules import them by module
name, and `conftest` names a different module once the benchmark harness
tests under bench/tests are collected in the same pytest run.
"""

import numpy as np

GEOMETRIC_P = 101.0 / 300.0

# exact algebraic values for the geometric law at kappa=2
PHI0_EXACT_K2 = (np.sqrt(90597.0) - 297.0) / 202.0
PHI1_EXACT_K2 = (45450.0 - 150.0 * np.sqrt(90597.0)) / 10201.0
