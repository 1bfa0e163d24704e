"""repro — a reproduction of "Optimal Clock Synchronization with Signatures"
(Lenzen & Loss, PODC 2022).

Quickstart::

    from repro import PulseReport, build_simulation

    built = build_simulation(
        {"n": 8, "adversary": "silent", "delay": "maximum"},
        backend="event",  # or "vectorized" for the numpy engine
    )
    result = built.simulation.run(max_pulses=20)
    print(PulseReport.from_pulses(result.honest_pulses()))

Package map:

* :mod:`repro.build` — the unified :func:`build_simulation` facade:
  registry-keyed cases on a selectable ``event``/``vectorized`` backend;
* :mod:`repro.core` — Algorithm CPS, TCB, parameters, the Theorem 5 lower
  bound, and pulse-based logical clocks / synchronizers;
* :mod:`repro.sync` — the synchronous substrate: crusader broadcast,
  approximate agreement, Dolev-Strong;
* :mod:`repro.sim` — discrete-event timed simulation (clocks, delays,
  Byzantine behaviours, signature-knowledge enforcement) plus the
  round-batched numpy engine in :mod:`repro.sim.vectorized`;
* :mod:`repro.crypto` — symbolic unforgeable signatures and PKI;
* :mod:`repro.baselines` — Lynch-Welch, signed-relay, chain-relay;
* :mod:`repro.scenarios` — the scenario registry: adversaries, delay
  policies, topologies, and drift profiles under stable string keys;
* :mod:`repro.campaigns` — declarative sweep campaigns: per-scale
  grids, parallel execution, content-addressed result caching;
* :mod:`repro.analysis` — metrics, theory bounds, experiments E1-E10,
  ablations A1-A3, and the STRESS campaign.

See ``docs/ARCHITECTURE.md`` for the package-to-paper mapping and the
generated ``docs/EXPERIMENTS.md`` for the experiment catalog.
"""

from repro.analysis.metrics import PulseReport
from repro.build import (
    BACKENDS,
    BuiltSimulation,
    UnknownBackendError,
    build_simulation,
    resolve_backend,
)
from repro.core.cps import (
    CpsNode,
    assemble_cps_simulation,
)
from repro.core.lower_bound import run_lower_bound
from repro.core.params import (
    THETA_MAX,
    ProtocolParameters,
    derive_parameters,
    max_faults,
)
from repro.sim.scheduler import Simulation, SimulationResult

__version__ = "1.0.0"

__all__ = [
    "BACKENDS",
    "BuiltSimulation",
    "CpsNode",
    "ProtocolParameters",
    "PulseReport",
    "Simulation",
    "SimulationResult",
    "THETA_MAX",
    "UnknownBackendError",
    "__version__",
    "assemble_cps_simulation",
    "build_simulation",
    "derive_parameters",
    "max_faults",
    "resolve_backend",
    "run_lower_bound",
]
