"""Exception hierarchy for the repro library."""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all library-specific errors."""


class ConfigError(ReproError):
    """An experiment or cluster configuration is invalid."""


class SchedulerError(ReproError):
    """A scheduling policy was misused (e.g. pop from an empty queue)."""


class UnknownSchedulerError(SchedulerError):
    """Requested scheduler name is not in the registry."""

    def __init__(self, name: str, known: list[str]):
        super().__init__(f"unknown scheduler {name!r}; known: {', '.join(known)}")
        self.name = name
        self.known = known


class PartitioningError(ReproError):
    """Consistent-hash ring misconfiguration or lookup failure."""


class WorkloadError(ReproError):
    """Workload generator misconfiguration."""


class TraceFormatError(WorkloadError):
    """A trace file record is malformed."""


class ProtocolError(ReproError):
    """Wire-protocol violation in the asyncio runtime."""
