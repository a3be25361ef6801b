"""Declared config knobs: each field once, everything else derived.

Every config class declares each field with :func:`knob`: its type, its
bounds or choices, and its *role*:

- ``semantic`` knobs change results.  They enter content keys and
  digests, so a store or cache entry is reused only when all of them
  match.  A deleted one is *retired* (:func:`configclass`): keys keep
  its last default, so older store entries keep hitting.
- ``report`` knobs change only how results aggregate.  They enter a
  request's content key but not the memo digest (``EvalConfig.k_values``
  is the one such knob).
- ``execution`` knobs change how fast or where results are computed,
  never what they are: workers, backends, caches, stores, tiers,
  deadlines and transport.  They enter neither.

:func:`configclass` makes the class a dataclass and builds its knob plan
once, at class creation.  The plan gives the class ``validate()`` (one
type and range check per knob, then the class's own ``_check()`` for
cross-field rules), the byte-relevant :func:`canonical` and
:func:`digest`, and the JSON codec blocks :func:`wire` and
:func:`from_wire`.  Values are never coerced: ``0`` renders as ``0`` and
``0.0`` as ``0.0``.  Only structure is normalized: a dict renders as its
sorted ``(key, value)`` pairs and a list as a tuple (the same JSON).

Stdlib only, importing nothing from ``repro`` at module level, so every
layer (``store/config.py`` included) can use it without a cycle.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import MISSING, dataclass, field, fields

SEMANTIC = "semantic"
REPORT = "report"
EXECUTION = "execution"
ROLES = (SEMANTIC, REPORT, EXECUTION)

_META = "repro.knob"
_INF = float("inf")
_NOUNS = {int: "an integer", float: "a number", bool: "a bool",
          str: "a string", tuple: "a tuple", list: "a list", dict: "a dict"}


def knob(default=MISSING, *, kind, role, items=None, ge=None, gt=None,
         le=None, choices=None, optional=False, compare=True):
    """A dataclass field carrying its knob declaration.

    ``kind`` is a type or a tuple of types.  ``float`` means any number,
    and neither ``int`` nor ``float`` admits a bool.  ``items`` is the
    element type of a sequence knob, and the bounds ``ge``/``gt``/``le``
    then apply to each element.  ``optional`` admits ``None``.  A kind
    built by :func:`configclass` is validated recursively."""
    if role not in ROLES:
        raise ValueError(f"role must be one of {ROLES}, got {role!r}")
    spec = dict(kind=kind, role=role, items=items, ge=ge, gt=gt, le=le,
                choices=choices, optional=optional)
    return field(default=default, compare=compare, metadata={_META: spec})


def _kinds(kind) -> tuple:
    return kind if isinstance(kind, tuple) else (kind,)


def _accepts(kind):
    """``(types, admits_bool)`` for an isinstance check of ``kind``."""
    kinds = _kinds(kind)
    if float in kinds:
        kinds = kinds + (int,)
    return kinds, bool in kinds


def _noun(kind) -> str:
    return " or ".join(_NOUNS.get(k, f"a {k.__name__}") for k in _kinds(kind))


def _bounds(ge, gt, le) -> str:
    if ge is not None and le is not None:
        return f" in [{ge}, {le}]"
    parts = [f"{op} {bound}" for op, bound in
             ((">=", ge), (">", gt), ("<=", le)) if bound is not None]
    return "".join(f" {part}" for part in parts)


def _scalar_test(kind, ge, gt, le):
    """A test of one value against ``kind`` and the bounds.  The exact
    types are looked up first: the common case costs one set probe."""
    types, admits_bool = _accepts(kind)
    exact = frozenset(types)

    def is_kind(value) -> bool:
        return type(value) in exact or (
            isinstance(value, types)
            and (admits_bool or not isinstance(value, bool)))

    if ge is None and gt is None and le is None:
        return is_kind
    low = -_INF if ge is None else ge
    high = _INF if le is None else le
    floor = -_INF if gt is None else gt
    return lambda value: ((type(value) in exact or is_kind(value))
                          and low <= value <= high and value > floor)


def _test(spec):
    """One knob's value test (True = valid) and its ``must be`` text."""
    kind, items, choices = spec["kind"], spec["items"], spec["choices"]
    bounds = spec["ge"], spec["gt"], spec["le"]
    if items is not None:
        outer = _scalar_test(kind, None, None, None)
        item_ok = _scalar_test(items, *bounds)
        expect = (f"{_noun(kind)} whose entries are each "
                  f"{_noun(items)}{_bounds(*bounds)}")

        def test(value) -> bool:
            return outer(value) and all(map(item_ok, value))
    elif choices is not None:
        outer = _scalar_test(kind, None, None, None)
        expect = f"one of {tuple(choices)}"

        def test(value) -> bool:
            return outer(value) and value in choices
    else:
        test = _scalar_test(kind, *bounds)
        expect = f"{_noun(kind)}{_bounds(*bounds)}"
    if hasattr(kind, "__knobs__"):
        typed = test

        def test(value) -> bool:  # a nested config validates itself
            return typed(value) and value.validate() is None
    if spec["optional"]:
        expect += " or None"
        given = test

        def test(value) -> bool:
            return value is None or given(value)
    return test, expect


def _canon(value):
    """The payload rendering of one value: dicts as sorted pairs, lists
    as tuples, everything else as is."""
    if isinstance(value, dict):
        return tuple(sorted(value.items()))
    if isinstance(value, list):
        return tuple(value)
    return value


def _decode(value):
    """A JSON array off the wire as a tuple (its inner arrays too)."""
    if isinstance(value, list):
        return tuple(tuple(item) if isinstance(item, list) else item
                     for item in value)
    return value


class _Plan:
    """One config class's knobs, resolved once at class creation."""

    __slots__ = ("names", "roles", "checks", "check", "eager", "sequences",
                 "by_role", "retired")

    def __init__(self, cls, eager: bool, retired: dict):
        self.names = []
        self.roles = {}
        self.checks = []
        self.sequences = set()
        for f in fields(cls):
            spec = f.metadata.get(_META)
            if spec is None:
                raise TypeError(f"{cls.__name__}.{f.name} is not declared "
                                f"with knob()")
            self.names.append(f.name)
            self.roles[f.name] = spec["role"]
            test, expect = _test(spec)
            self.checks.append((f.name, test, expect))
            if tuple in _kinds(spec["kind"]):
                self.sequences.add(f.name)
        self.names = tuple(self.names)
        if set(retired).intersection(self.names):
            raise TypeError(f"{cls.__name__} retires a live knob")
        self.retired = dict(retired)
        self.check = getattr(cls, "_check", None)
        self.eager = eager
        self.by_role = {}

    def select(self, roles):
        """The declaration-ordered names whose role is in ``roles``."""
        names = self.by_role.get(roles)
        if names is None:
            names = tuple(n for n in self.names if self.roles[n] in roles)
            self.by_role[roles] = names
        return names


def _validate(self) -> None:
    """Raise ``ValueError`` naming the first offending knob, then run
    the class's cross-field ``_check()``."""
    plan = type(self).__knobs__
    for name, test, expect in plan.checks:
        value = getattr(self, name)
        if not test(value):
            raise ValueError(f"{name} must be {expect}, got {value!r}")
    if plan.check is not None:
        plan.check(self)


def configclass(cls=None, *, frozen=False, eager=True, retired=None):
    """Make ``cls`` a dataclass whose fields are all declared with
    :func:`knob`.

    Installs ``validate()`` and, when ``eager`` and the class defines no
    ``__post_init__`` of its own, runs it at construction (and so on
    ``dataclasses.replace``).

    ``retired`` maps each deleted ``semantic`` knob to its last default:
    no field, yet :func:`payload` and so every key still carries it, and
    :func:`from_wire` accepts that one value."""

    def wrap(cls):
        cls.validate = _validate
        if eager and "__post_init__" not in cls.__dict__:
            cls.__post_init__ = _validate
        cls = dataclass(frozen=frozen)(cls)
        cls.__knobs__ = _Plan(cls, eager, retired or {})
        return cls

    return wrap if cls is None else wrap(cls)


def payload(config, roles=(SEMANTIC,)) -> dict:
    """``{name: rendered value}`` over the knobs whose role is in
    ``roles``, in declaration order, then any retired ones."""
    plan = type(config).__knobs__
    data = {name: _canon(getattr(config, name))
            for name in plan.select(roles)}
    if plan.retired and SEMANTIC in roles:
        data.update(plan.retired)
    return data


def canonical(config, roles=(SEMANTIC,)) -> str:
    """Sorted-key JSON of :func:`payload`: the text content keys hash."""
    return json.dumps(payload(config, roles), sort_keys=True)


def digest(config) -> str:
    """SHA-256 over the semantic payload and the package version.

    The version is folded in because implementations evolve across
    releases: a long-lived shared store must never serve a result the
    current code would not produce."""
    import repro

    data = payload(config)
    data["repro_version"] = repro.__version__
    return hashlib.sha256(
        json.dumps(data, sort_keys=True).encode("utf-8")).hexdigest()


def wire(config) -> dict:
    """Every knob, as a JSON request body carries it."""
    return {name: getattr(config, name)
            for name in type(config).__knobs__.names}


def from_wire(cls, raw, where: str):
    """Build (and so validate) ``cls`` from a decoded JSON object.

    ``where`` names the block in error messages.  Raises ``ValueError``
    for a non-object, an unknown key, or a value its knob rejects."""
    if not isinstance(raw, dict):
        raise ValueError(
            f"{where} must be a JSON object, got {type(raw).__name__}")
    plan = cls.__knobs__
    if plan.retired:
        raw = dict(raw)
        for name, last in plan.retired.items():
            value = raw.pop(name, last)
            if type(value) is not type(last) or value != last:
                raise ValueError(f"{name} is retired and must be {last!r}, "
                                 f"got {value!r}")
    unknown = set(raw).difference(plan.names)
    if unknown:
        raise ValueError(f"unknown {where} fields: {sorted(unknown)}")
    config = cls(**{name: _decode(value) if name in plan.sequences
                     else value for name, value in raw.items()})
    if not plan.eager:
        config.validate()
    return config
