"""Exception hierarchy for the HEB reproduction library.

All library-raised exceptions derive from :class:`ReproError` so callers can
catch everything from this package with a single ``except`` clause while
still being able to discriminate on the specific failure mode.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every exception raised by this library."""


class ConfigurationError(ReproError):
    """A configuration value is out of range or internally inconsistent."""


class StorageError(ReproError):
    """Base class for energy-storage device failures."""


class DepletedError(StorageError):
    """A discharge was requested from a device with no usable energy left.

    Callers that dispatch power across a pool normally check
    :meth:`EnergyStorageDevice.usable_energy` first; this exception guards
    against logic errors rather than expected run-time conditions.
    """


class OverchargeError(StorageError):
    """A charge was requested that would exceed the device's capacity."""


class CurrentLimitError(StorageError):
    """A requested current exceeds the device's safe operating limit."""


class TopologyError(ReproError):
    """A power-delivery topology was wired inconsistently."""


class SwitchError(TopologyError):
    """A power switch was actuated into an invalid state."""


class SimulationError(ReproError):
    """The simulation engine reached an inconsistent state."""


class BatchCompatibilityError(SimulationError):
    """A scenario set cannot share one batched tick loop.

    Raised by :class:`~repro.sim.batch.BatchSimulation` when scenarios
    disagree on the tick grid, slot grid, or cluster shape, or carry a
    tick profiler, which only the scalar engine takes.  The runner does
    not catch it: its groups always pass these checks, so a rejection
    surfaces as an error instead of a switch to the scalar engine.
    """


class TraceError(ReproError):
    """A power trace is malformed (wrong length, negative power, ...)."""


class PredictionError(ReproError):
    """The predictor was asked for a forecast before seeing enough data."""


class TCOError(ReproError):
    """An economics computation received inconsistent inputs."""


class FaultSpecError(ReproError):
    """A fault-injection schedule or event specification is invalid.

    Raised for out-of-range event parameters, unknown fault kinds, and
    malformed schedule documents — always before a simulation starts,
    never while one is running.
    """


class AnalysisError(ReproError):
    """The static-analysis tooling was invoked incorrectly.

    Raised for unknown rule ids, missing lint paths, and unreadable
    source files — usage errors, never findings (those are data, not
    exceptions).
    """


class ServiceError(ReproError):
    """Base class for scenario-service failures (``python -m repro serve``).

    Every subclass maps onto one structured HTTP error: the response body
    carries ``{"error": {"code": <class name>, "message": ...}}`` so
    clients can dispatch on the code without parsing prose.
    """


class ProtocolError(ServiceError):
    """An HTTP exchange violated the service's wire contract.

    Raised for malformed request lines, oversized headers/bodies, and
    unroutable method/path pairs — transport-level problems, as opposed
    to :class:`SpecError` which covers a well-transported but invalid
    run spec.
    """


class SpecError(ServiceError):
    """A submitted run spec is malformed (not a valid ``RunRequest``).

    Raised for non-JSON bodies, unknown fields, wrong field types, and
    unknown scheme/workload names — always before anything is enqueued,
    and always surfaced as a structured HTTP 400.
    """


class QueueFullError(ServiceError):
    """The service's bounded work queue rejected a new submission.

    Carries ``retry_after_s`` — the server's estimate of when capacity
    frees up — which the HTTP layer surfaces as a 429 ``Retry-After``
    header.  An accepted request is never dropped; rejection happens
    only at submission time.
    """

    def __init__(self, message: str, retry_after_s: float = 1.0) -> None:
        super().__init__(message)
        self.retry_after_s = retry_after_s


class UnknownRunError(ServiceError):
    """A poll/stream referenced a run key this service has never seen."""


class RunExecutionError(ServiceError):
    """An accepted run's execution crashed outside the ReproError contract.

    Wraps pool/pickle/engine failures so the run still reaches a
    terminal ``failed`` state with a structured code instead of hanging
    its submitters; the original failure is preserved in the message.
    """


class ServiceShutdownError(ServiceError):
    """The service is shutting down and no longer accepts submissions.

    Also the terminal error recorded on queued runs aborted by a
    non-draining shutdown: every accepted run either completes or
    faults with this code — none silently disappear.
    """
