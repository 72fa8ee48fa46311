"""The scenario table: named cipher-datapath backends for campaigns.

Like the flow's other backends (:mod:`repro.flow.registry`), scenarios
are a closed table, :data:`SCENARIOS`, mapping a short name to a
scenario *factory* that is resolved when a campaign runs.  A factory is
called as ``factory(key=..., sbox=..., **params)`` where ``key`` and
``sbox`` come from the campaign config (``sbox`` is the S-box *name*)
and ``params`` is the flow's :class:`~repro.flow.config.ScenarioConfig`
parameter mapping.

Built-ins:

========== ============================================= ==================
name       datapath                                      parameters
========== ============================================= ==================
``sbox``            one keyed S-box ``S(p ^ k)``          --
``present_round``   S-box layer + pLayer + key XOR        ``sboxes`` (1/2/4/8/16, default 4)
``present_rounds``  N chained rounds, keyed schedule      ``sboxes`` (default 1), ``rounds`` (default 2)
========== ============================================= ==================
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Mapping, Optional

from ..flow.registry import get_sbox
from ..registry import lookup
from .base import Scenario, ScenarioError
from .present import PresentRoundScenario, PresentRoundsScenario
from .sbox import SboxScenario

__all__ = [
    "SCENARIOS",
    "ScenarioFactory",
    "get_scenario",
    "make_scenario",
]

#: A scenario factory: ``(key=..., sbox=..., **params) -> Scenario``.
ScenarioFactory = Callable[..., Scenario]


def get_scenario(name: str) -> ScenarioFactory:
    """The scenario factory named ``name``."""
    return lookup(SCENARIOS, "scenario", name)


def make_scenario(
    name: str,
    key: int,
    sbox: str = "present",
    params: Optional[Mapping[str, Any]] = None,
) -> Scenario:
    """Instantiate the scenario named ``name``.

    ``params`` is forwarded as keyword arguments; an unknown parameter
    raises :class:`~repro.scenarios.base.ScenarioError` naming the
    scenario instead of a bare ``TypeError``.
    """
    factory = get_scenario(name)
    try:
        return factory(key=key, sbox=sbox, **dict(params or {}))
    except TypeError as error:
        raise ScenarioError(
            f"scenario {name!r} rejected its parameters "
            f"{sorted(dict(params or {}))}: {error}"
        ) from error


def _sbox_scenario(key: int, sbox: str = "present") -> SboxScenario:
    return SboxScenario(key, get_sbox(sbox), sbox_name=sbox)


def _present_round_scenario(
    key: int, sbox: str = "present", sboxes: int = 4
) -> PresentRoundScenario:
    return PresentRoundScenario(key, get_sbox(sbox), sboxes=sboxes, sbox_name=sbox)


def _present_rounds_scenario(
    key: int, sbox: str = "present", sboxes: int = 1, rounds: int = 2
) -> PresentRoundsScenario:
    return PresentRoundsScenario(
        key, get_sbox(sbox), sboxes=sboxes, rounds=rounds, sbox_name=sbox
    )


#: Cipher-datapath scenarios, keyed by short name.  A factory accepts
#: ``key`` (the campaign's secret key) and ``sbox`` (the campaign's S-box
#: name) as keywords, plus any scenario-specific parameters.
SCENARIOS: Dict[str, ScenarioFactory] = {
    "sbox": _sbox_scenario,
    "present_round": _present_round_scenario,
    "present_rounds": _present_rounds_scenario,
}
