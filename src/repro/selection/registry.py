"""Name-based construction of selection policies.

The registry is the one place that knows each policy's constructor
dependencies, expressed as :class:`PolicyNeeds` so callers (the sim's
cluster assembly, the runtime client, configs) can provision an rng
stream or estimates view only when the chosen policy wants one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict

from repro.errors import ConfigError
from repro.selection.base import SelectionPolicy
from repro.selection.dodoor import DodoorPolicy
from repro.selection.prequal import PrequalPolicy
from repro.selection.scored import C3Policy, TarsPolicy
from repro.selection.static import (
    LeastWorkPolicy,
    PowerOfDPolicy,
    PrimaryPolicy,
    RandomPolicy,
    RoundRobinPolicy,
)


@dataclass(frozen=True)
class PolicyNeeds:
    """Constructor dependencies of one policy name.

    ``load_reports`` flags policies fed by periodic asynchronous server
    load reports, so callers can provision the reporter (the sim's
    broadcaster, the runtime's ``load_report_interval``) before the
    policy instance exists.
    """

    rng: bool = False
    estimates: bool = False
    load_reports: bool = False


_SPECS: Dict[str, PolicyNeeds] = {
    "primary": PolicyNeeds(),
    "random": PolicyNeeds(rng=True),
    "round_robin": PolicyNeeds(),
    "least_estimated_work": PolicyNeeds(estimates=True),
    "power_of_d": PolicyNeeds(rng=True),
    "c3": PolicyNeeds(estimates=True),
    "tars": PolicyNeeds(estimates=True),
    "prequal": PolicyNeeds(),
    "dodoor": PolicyNeeds(rng=True, load_reports=True),
}

#: Every registered policy name, in registration order.
SELECTION_POLICY_NAMES = tuple(_SPECS)


def selection_policy_needs(name: str) -> PolicyNeeds:
    """Dependencies of policy ``name`` (ConfigError when unknown)."""
    try:
        return _SPECS[name]
    except KeyError:
        known = ", ".join(SELECTION_POLICY_NAMES)
        raise ConfigError(
            f"unknown selection policy {name!r}; one of {known}"
        ) from None


def create_selection_policy(
    name: str,
    rng=None,
    estimates=None,
    **params: Any,
) -> SelectionPolicy:
    """Build the policy registered under ``name``.

    ``rng`` / ``estimates`` are provisioned by the caller when
    :func:`selection_policy_needs` says so.  Remaining ``params`` are
    forwarded to the policy constructor (each policy documents its
    knobs).
    """
    needs = selection_policy_needs(name)
    if needs.rng and rng is None:
        raise ConfigError(f"selection={name!r} requires an rng")
    if name == "primary":
        return PrimaryPolicy(**params)
    if name == "random":
        return RandomPolicy(rng, **params)
    if name == "round_robin":
        return RoundRobinPolicy(**params)
    if name == "least_estimated_work":
        return LeastWorkPolicy(estimates, **params)
    if name == "power_of_d":
        return PowerOfDPolicy(rng, estimates=estimates, **params)
    if name == "c3":
        return C3Policy(estimates, **params)
    if name == "tars":
        return TarsPolicy(estimates, **params)
    if name == "prequal":
        return PrequalPolicy(**params)
    if name == "dodoor":
        return DodoorPolicy(rng, **params)
    raise ConfigError(f"unregistered selection policy {name!r}")  # pragma: no cover
