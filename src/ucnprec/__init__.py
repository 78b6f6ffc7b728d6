"""Downlink precoder design for user-centric network massive MIMO.

A library and CLI that solves the per-BS-power-constrained weighted sum-rate
problem with a dissipative constrained-Hamiltonian iteration and benchmarks it
against RZF, WMMSE, GD and NAGD on synthetic multi-cell channels.
"""

# The package exports exactly the names that the README's library example binds
# from it; everything else is imported from the submodule that defines it.
from .baselines import rzf_init
from .objective import WsrObjective
from .symplectic import solve

__all__ = ["WsrObjective", "rzf_init", "solve"]
