"""repro — Expanded Delta Networks for very large parallel computers.

A production-quality reproduction of Alleyne & Scherson, *Expanded Delta
Networks for Very Large Parallel Computers* (UC Irvine ICS TR #92-02, 1992).

The package is organized as:

* :mod:`repro.api` — the unified facade: :class:`NetworkSpec`/``RunConfig``
  specs, the batched :class:`Router` protocol, and the string-keyed
  backend registry (``build_router``, ``measure``) — the canonical way to
  construct and drive any network here;
* :mod:`repro.core` — the EDN itself: hyperbar switches, topology, digit
  routing, path enumeration, cost models, and the analytic acceptance
  models (Eqs. 2-5 of the paper);
* :mod:`repro.sim` — simulation substrate: seeded RNG streams,
  statistics, the compiled stage-graph router, the buffered path and
  Monte-Carlo harnesses;
* :mod:`repro.workloads` — the pluggable traffic-model subsystem: the
  ``TrafficGenerator`` protocol, the built-in models (uniform,
  permutation, hot-spot/NUTS, bursty, mixture, trace replay, structured
  permutations), and the string-keyed registry behind ``name[:args]``
  workload specs (``"hotspot:0.1"``, ``"bitrev"``, ...);
* :mod:`repro.mimd` — Section 4: shared-memory MIMD systems with request
  resubmission (Markov model + cycle simulator);
* :mod:`repro.simd` — Section 5: restricted-access EDNs (clusters of PEs
  sharing network ports), the drain-time model, and the MasPar MP-1
  configuration;
* :mod:`repro.baselines` — Patel delta networks, full crossbars, dilated
  deltas, and omega networks for comparison;
* :mod:`repro.viz` — ASCII topology diagrams, curve plots and tables;
* :mod:`repro.experiments` — one module per paper figure, driving the
  benchmark suite.

Quickstart::

    from repro import EDNParams, EDNetwork, acceptance_probability

    params = EDNParams(a=16, b=4, c=4, l=2)       # 64 inputs -> 64 outputs
    print(params.describe())
    print("PA(1) =", acceptance_probability(params, 1.0))

    net = EDNetwork(params)
    result = net.route_destinations({s: (s * 7) % 64 for s in range(64)})
    print("delivered", result.num_delivered, "of", result.num_offered)

Or through the facade (any topology, any engine)::

    from repro.api import NetworkSpec, RunConfig, measure

    print(measure(NetworkSpec.edn(16, 4, 4, 2), RunConfig(cycles=500)).acceptance)
"""

from repro.core import (
    ConfigurationError,
    ConvergenceError,
    Crossbar,
    CycleResult,
    DestinationTag,
    EDNError,
    EDNParams,
    EDNetwork,
    EDNTopology,
    FaultSet,
    FaultyEDNetwork,
    Hyperbar,
    LabelError,
    Message,
    MessageOutcome,
    MultipassResult,
    Path,
    Permutation,
    RetirementOrder,
    RoutingError,
    ScheduleError,
    SwitchResult,
    WireFault,
    connectivity_under_faults,
    random_faults,
    route_permutation_multipass,
    acceptance_probability,
    cost_report,
    count_paths,
    crossbar_acceptance,
    crosspoint_cost,
    crosspoint_cost_closed_form,
    delta_acceptance,
    enumerate_paths,
    expected_accepted,
    expected_bandwidth,
    family_members,
    gamma,
    gamma_permutation,
    hyperbar_family,
    permutation_acceptance,
    stage_rates,
    verify_full_access,
    wire_cost,
    wire_cost_closed_form,
)

__version__ = "1.0.0"


def __getattr__(name: str):
    # Lazy: `repro.api` pulls in every engine and baseline; load it only
    # when the facade is actually used so `import repro` stays light.
    # `repro.workloads` rides the same hook for symmetry.
    if name in ("api", "workloads"):
        import importlib

        return importlib.import_module(f"repro.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "__version__",
    "api",
    "workloads",
    "EDNParams",
    "EDNTopology",
    "EDNetwork",
    "Hyperbar",
    "Crossbar",
    "SwitchResult",
    "Message",
    "MessageOutcome",
    "CycleResult",
    "DestinationTag",
    "RetirementOrder",
    "Permutation",
    "Path",
    "gamma",
    "gamma_permutation",
    "enumerate_paths",
    "count_paths",
    "verify_full_access",
    "hyperbar_family",
    "family_members",
    "crosspoint_cost",
    "crosspoint_cost_closed_form",
    "wire_cost",
    "wire_cost_closed_form",
    "cost_report",
    "acceptance_probability",
    "permutation_acceptance",
    "expected_accepted",
    "expected_bandwidth",
    "stage_rates",
    "crossbar_acceptance",
    "delta_acceptance",
    "EDNError",
    "ConfigurationError",
    "LabelError",
    "RoutingError",
    "ScheduleError",
    "ConvergenceError",
    "WireFault",
    "FaultSet",
    "FaultyEDNetwork",
    "random_faults",
    "connectivity_under_faults",
    "MultipassResult",
    "route_permutation_multipass",
]
