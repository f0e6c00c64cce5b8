"""Deterministic WAN fault injection.

A :class:`FaultProfile` degrades one TCP connection (injected loss
events, delay jitter, RTT inflation) on inter-site routes.  An experiment
attaches it explicitly, through
:attr:`repro.tcp.connection.TcpOptions.fault_profile` or
:meth:`repro.impls.base.MpiImplementation.with_fault_profile`; every
random draw comes from a named :meth:`repro.sim.rng.RngRegistry.uniform`
stream, so a faulted run is byte-reproducible and never loads numpy.  No profile (the default) is the
paper's clean dedicated path.
"""

from repro.faults.profile import FaultProfile

__all__ = ["FaultProfile"]
