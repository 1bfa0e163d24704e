"""The paper's contribution: Crusader Pulse Synchronization and Theorem 5.

* :mod:`repro.core.params` — parameter derivation (Theorem 17/Corollary 4);
* :mod:`repro.core.tcb` — timed crusader broadcast (Figure 2);
* :mod:`repro.core.cps` — the pulse-synchronization protocol (Figure 3);
* :mod:`repro.core.attacks` — Byzantine strategies tailored to CPS;
* :mod:`repro.core.lower_bound` — the executable Theorem 5 construction;
* :mod:`repro.core.logical_clock`, :mod:`repro.core.synchronizer` — the
  applications the introduction motivates.
"""

from repro.core.attacks import (
    CpsEquivocatingSubsetAttack,
    CpsMimicDealerAttack,
    CpsRushingEchoAttack,
    FastToFaultyDelayPolicy,
    cps_attack_catalog,
)
from repro.core.cps import (
    CpsNode,
    CpsRoundSummary,
    assemble_cps_simulation,
    default_clocks,
)
from repro.core.logical_clock import (
    LogicalClock,
    build_logical_clocks,
    logical_skew,
)
from repro.core.lower_bound import (
    FixedPeriodProtocol,
    LowerBoundEngine,
    LowerBoundResult,
    ShiftFunction,
    run_lower_bound,
)
from repro.core.messages import TcbMessage, tcb_tag
from repro.core.params import (
    THETA_MAX,
    InfeasibleParameters,
    ProtocolParameters,
    derive_parameters,
    max_faults,
)
from repro.core.synchronizer import (
    RoundSchedule,
    supports_round_simulation,
    synchronous_round_overhead,
    verify_round_separation,
)
from repro.core.tcb import TcbInstance, TcbState, offset_estimate
from repro.core.topology import (
    LinkTiming,
    SimulatedTopology,
    check_connectivity,
    circulant,
    required_connectivity,
    simulate_full_connectivity,
    uniform_timings,
)

__all__ = [
    "CpsEquivocatingSubsetAttack",
    "CpsMimicDealerAttack",
    "CpsNode",
    "CpsRoundSummary",
    "CpsRushingEchoAttack",
    "FastToFaultyDelayPolicy",
    "FixedPeriodProtocol",
    "InfeasibleParameters",
    "LinkTiming",
    "LogicalClock",
    "LowerBoundEngine",
    "LowerBoundResult",
    "ProtocolParameters",
    "RoundSchedule",
    "ShiftFunction",
    "SimulatedTopology",
    "TcbInstance",
    "TcbMessage",
    "TcbState",
    "THETA_MAX",
    "assemble_cps_simulation",
    "build_logical_clocks",
    "check_connectivity",
    "circulant",
    "cps_attack_catalog",
    "default_clocks",
    "derive_parameters",
    "logical_skew",
    "max_faults",
    "offset_estimate",
    "required_connectivity",
    "run_lower_bound",
    "simulate_full_connectivity",
    "supports_round_simulation",
    "synchronous_round_overhead",
    "tcb_tag",
    "uniform_timings",
    "verify_round_separation",
]
