"""The two simulation tiers the differential suites compare.

``compiled`` is production (the generated code of
:mod:`repro.sim.compiled` and :mod:`repro.sva.monitor`); ``interp`` is
the reference oracle, reached through
:func:`repro.sva.reference.reference_tier`.
"""

from contextlib import nullcontext

from repro.sim.compiled import make_simulator
from repro.sim.simulator import Simulator
from repro.sva.reference import reference_tier

#: In test-id order.
TIERS = ("compiled", "interp")


def on_tier(tier: str):
    """A context that runs its bounded checks on ``tier``."""
    return reference_tier() if tier == "interp" else nullcontext()


def simulator_on(design, tier: str):
    """A simulator of ``design`` on ``tier``."""
    return Simulator(design) if tier == "interp" else make_simulator(design)
