"""Unified metrics: counters, gauges, log-bucket histograms, Prometheus text.

A :class:`MetricsRegistry` is an instance-scoped collection of metric
families — each :class:`AssertService`, :class:`AssertHttpServer`, and
:class:`FleetRouter` owns one, so three backends sharing a process (the
``make_fleet`` demo shape) never pollute each other's numbers.  The
``GET /metricsz`` endpoint renders one or more registries with
:func:`render_prometheus`, appending the engine's provider counters
(compile cache, stores, ``solve_profile``, coverage) as
:meth:`repro.engine.ExecutionEngine.counter_totals` totals them, so
everything the engine counts is exposed without per-call-site glue.

Three metric shapes, all stdlib, all thread-safe:

- **Counters** — monotonic; direct (``inc()``), labelled families
  (``labels(code="200").inc()``), or callback-backed, labelled or not
  (read existing bookkeeping at render time — no double bookkeeping).
- **Gauges** — point-in-time; direct (``set()``) or callback-backed
  (queue depth, inflight, per-backend health).
- **Histograms** — fixed log-spaced buckets (powers of two from 0.5 ms
  to ~65 s) rendered as cumulative Prometheus ``_bucket``/``_sum``/
  ``_count`` series, from which p50/p95/p99 are derivable by any
  scraper; :meth:`Histogram.quantile` derives them locally the same way.

The exposition follows the Prometheus text format 0.0.4
(``# HELP`` / ``# TYPE`` comments, ``name{label="value"} value``
samples).  :func:`parse_prometheus_text` reads it back and
:func:`merge_expositions` sums samples across expositions by identical
``name{labels}`` — that pair is how the fleet router serves one
``/metricsz`` for the whole fleet: fetch each backend's text, merge,
append its own.
"""

from __future__ import annotations

import math
import re
import threading
from bisect import bisect_left
from collections import OrderedDict
from typing import (Callable, Dict, Iterable, List, Mapping, Optional,
                    Sequence, Tuple)

__all__ = [
    "CallbackCounter",
    "CallbackFamily",
    "CallbackGauge",
    "Counter",
    "CounterFamily",
    "DEFAULT_BUCKETS",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "merge_expositions",
    "parse_prometheus_text",
    "provider_exposition",
    "render_prometheus",
]

#: Log-spaced (powers of two) histogram bounds in seconds: 0.5 ms .. ~65 s.
#: Fixed for every histogram so fleet-level merges sum bucket-for-bucket.
DEFAULT_BUCKETS: Tuple[float, ...] = tuple(
    0.0005 * (2.0 ** i) for i in range(18))

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_NAME_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

#: ``(labels, value)`` rows as rendered/parsed; labels are a sorted tuple
#: of ``(name, value)`` pairs so they hash and compare structurally.
Sample = Tuple[Tuple[Tuple[str, str], ...], float]


def _check_name(name: str) -> str:
    if not _NAME_RE.match(name):
        raise ValueError(f"invalid metric name: {name!r}")
    return name


def _format_value(value: float) -> str:
    if value == math.inf:
        return "+Inf"
    if isinstance(value, float) and value.is_integer() \
            and abs(value) < 2 ** 53:
        return str(int(value))
    return repr(value)


def _escape_label(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"') \
        .replace("\n", "\\n")


def _check_label_names(label_names: Sequence[str]) -> Tuple[str, ...]:
    if not label_names:
        raise ValueError("a labelled family needs at least one label name")
    for label in label_names:
        if not _LABEL_NAME_RE.match(label):
            raise ValueError(f"invalid label name: {label!r}")
    return tuple(label_names)


def _render_labels(labels: Tuple[Tuple[str, str], ...]) -> str:
    if not labels:
        return ""
    inner = ",".join(f'{k}="{_escape_label(v)}"' for k, v in labels)
    return "{" + inner + "}"


class _Family:
    """Base: a named metric family rendering to exposition lines."""

    kind = "untyped"

    def __init__(self, name: str, help_: str):
        self.name = _check_name(name)
        self.help = help_

    def samples(self) -> List[Tuple[str, Sample]]:
        """``(sample_name, (labels, value))`` rows, family order."""
        raise NotImplementedError

    def render(self, out: List[str]) -> None:
        out.append(f"# HELP {self.name} {self.help}")
        out.append(f"# TYPE {self.name} {self.kind}")
        for sample_name, (labels, value) in self.samples():
            out.append(
                f"{sample_name}{_render_labels(labels)}"
                f" {_format_value(value)}")


class Counter(_Family):
    """Monotonic counter incremented at the call site."""

    kind = "counter"

    def __init__(self, name: str, help_: str):
        super().__init__(name, help_)
        self._value = 0.0
        self._lock = threading.Lock()

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value

    def samples(self) -> List[Tuple[str, Sample]]:
        return [(self.name, ((), self.value))]


class CounterFamily(_Family):
    """Labelled counters: ``family.labels(code="200").inc()``.

    Children are created lazily per distinct label-value tuple and
    retained for the registry's lifetime (label cardinality is the
    caller's problem — keep it to status codes, not request ids).
    """

    kind = "counter"

    def __init__(self, name: str, help_: str, label_names: Sequence[str]):
        super().__init__(name, help_)
        self.label_names = _check_label_names(label_names)
        self._children: "OrderedDict[Tuple[str, ...], Counter]" = \
            OrderedDict()
        self._lock = threading.Lock()

    def labels(self, **labels: str) -> Counter:
        if set(labels) != set(self.label_names):
            raise ValueError(
                f"{self.name} expects labels {self.label_names}, "
                f"got {tuple(sorted(labels))}")
        key = tuple(str(labels[name]) for name in self.label_names)
        with self._lock:
            child = self._children.get(key)
            if child is None:
                child = self._children[key] = Counter(self.name, self.help)
            return child

    def samples(self) -> List[Tuple[str, Sample]]:
        with self._lock:
            children = list(self._children.items())
        rows: List[Tuple[str, Sample]] = []
        for key, child in children:
            labels = tuple(sorted(zip(self.label_names, key)))
            rows.append((self.name, (labels, child.value)))
        return rows


class CallbackCounter(_Family):
    """Counter whose value is read from existing bookkeeping at render
    time — the bridge from ``ServiceStats``-style attributes into the
    exposition without maintaining the number twice."""

    kind = "counter"

    def __init__(self, name: str, help_: str, callback: Callable[[], float]):
        super().__init__(name, help_)
        self._callback = callback

    def samples(self) -> List[Tuple[str, Sample]]:
        return [(self.name, ((), float(self._callback())))]


class CallbackFamily(_Family):
    """Labelled counters (or gauges) read at render time: ``callback()``
    maps each label-value tuple, in ``label_names`` order, to its value
    (a router's backend slots, a batcher's flush reasons)."""

    def __init__(self, name: str, help_: str, label_names: Sequence[str],
                 callback: Callable[[], Mapping[Tuple[str, ...], float]],
                 kind: str = "counter"):
        super().__init__(name, help_)
        self.kind = kind
        self.label_names = _check_label_names(label_names)
        self._callback = callback

    def samples(self) -> List[Tuple[str, Sample]]:
        return [(self.name,
                 (tuple(sorted(zip(self.label_names, map(str, key)))),
                  float(value)))
                for key, value in self._callback().items()]


class Gauge(_Family):
    """Point-in-time value set at the call site."""

    kind = "gauge"

    def __init__(self, name: str, help_: str):
        super().__init__(name, help_)
        self._value = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    @property
    def value(self) -> float:
        with self._lock:
            return self._value

    def samples(self) -> List[Tuple[str, Sample]]:
        return [(self.name, ((), self.value))]


class CallbackGauge(_Family):
    """Gauge sampled from a callable at render time (queue depth etc.)."""

    kind = "gauge"

    def __init__(self, name: str, help_: str, callback: Callable[[], float]):
        super().__init__(name, help_)
        self._callback = callback

    def samples(self) -> List[Tuple[str, Sample]]:
        return [(self.name, ((), float(self._callback())))]


class Histogram(_Family):
    """Fixed-bucket histogram with Prometheus cumulative exposition.

    Buckets are log-spaced and shared by default across every histogram
    (:data:`DEFAULT_BUCKETS`), so fleet aggregation can sum buckets
    bucket-for-bucket.  Quantiles interpolate linearly within the
    containing bucket, the same estimate ``histogram_quantile`` makes.
    """

    kind = "histogram"

    def __init__(self, name: str, help_: str,
                 buckets: Optional[Sequence[float]] = None):
        super().__init__(name, help_)
        bounds = tuple(buckets) if buckets is not None else DEFAULT_BUCKETS
        if not bounds or list(bounds) != sorted(bounds) \
                or len(set(bounds)) != len(bounds):
            raise ValueError("histogram buckets must be ascending and unique")
        self.bounds = bounds
        self._counts = [0] * (len(bounds) + 1)  # last slot is +Inf
        self._sum = 0.0
        self._count = 0
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        idx = bisect_left(self.bounds, value)
        with self._lock:
            self._counts[idx] += 1
            self._sum += value
            self._count += 1

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    @property
    def sum(self) -> float:
        with self._lock:
            return self._sum

    def quantile(self, q: float) -> float:
        """Estimated q-quantile (0 < q <= 1) of observed values, in the
        observed unit.  Values beyond the last bound clamp to it."""
        if not 0.0 < q <= 1.0:
            raise ValueError("q must be in (0, 1]")
        with self._lock:
            counts = list(self._counts)
            total = self._count
        if total == 0:
            return 0.0
        target = q * total
        cumulative = 0
        for idx, bucket_count in enumerate(counts):
            previous = cumulative
            cumulative += bucket_count
            if cumulative >= target:
                if idx >= len(self.bounds):
                    return self.bounds[-1]
                upper = self.bounds[idx]
                lower = self.bounds[idx - 1] if idx > 0 else 0.0
                if bucket_count == 0:  # pragma: no cover - defensive
                    return upper
                fraction = (target - previous) / bucket_count
                return lower + (upper - lower) * fraction
        return self.bounds[-1]  # pragma: no cover - unreachable

    def samples(self) -> List[Tuple[str, Sample]]:
        with self._lock:
            counts = list(self._counts)
            total_sum = self._sum
            total = self._count
        rows: List[Tuple[str, Sample]] = []
        cumulative = 0
        for bound, bucket_count in zip(self.bounds, counts):
            cumulative += bucket_count
            rows.append((f"{self.name}_bucket",
                         ((("le", _format_value(bound)),), float(cumulative))))
        rows.append((f"{self.name}_bucket", ((("le", "+Inf"),), float(total))))
        rows.append((f"{self.name}_sum", ((), total_sum)))
        rows.append((f"{self.name}_count", ((), float(total))))
        return rows


class _ProviderFamily(_Family):
    """A dict-valued callback rendered as one counter per key, the key
    suffixed onto ``prefix`` — how engine provider snapshots and other
    pre-existing counter dicts surface wholesale."""

    kind = "counter"

    def __init__(self, prefix: str, help_: str,
                 callback: Callable[[], Mapping[str, float]]):
        super().__init__(prefix, help_)
        self._callback = callback

    def samples(self) -> List[Tuple[str, Sample]]:
        rows: List[Tuple[str, Sample]] = []
        try:
            values = self._callback()
        except Exception:  # pragma: no cover - a provider must not 500 /metricsz
            return rows
        for key in sorted(values):
            name = f"{self.name}_{key}"
            if not _NAME_RE.match(name):
                continue
            rows.append((name, ((), float(values[key]))))
        return rows

    def render(self, out: List[str]) -> None:
        # One HELP/TYPE block per derived sample name.
        for sample_name, (labels, value) in self.samples():
            out.append(f"# HELP {sample_name} {self.help}")
            out.append(f"# TYPE {sample_name} {self.kind}")
            out.append(
                f"{sample_name}{_render_labels(labels)}"
                f" {_format_value(value)}")


class MetricsRegistry:
    """An ordered, named collection of metric families.

    Re-registering a name returns the existing family when the shape
    matches (idempotent wiring) and raises when it does not.
    """

    def __init__(self):
        self._families: "OrderedDict[str, _Family]" = OrderedDict()
        self._lock = threading.Lock()

    def _register(self, family: _Family) -> _Family:
        with self._lock:
            existing = self._families.get(family.name)
            if existing is not None:
                if type(existing) is not type(family):
                    raise ValueError(
                        f"metric {family.name!r} already registered as "
                        f"{type(existing).__name__}")
                return existing
            self._families[family.name] = family
            return family

    def counter(self, name: str, help_: str) -> Counter:
        return self._register(Counter(name, help_))

    def counter_family(self, name: str, help_: str,
                       label_names: Sequence[str]) -> CounterFamily:
        return self._register(CounterFamily(name, help_, label_names))

    def counter_callback(self, name: str, help_: str,
                         callback: Callable[[], float]) -> CallbackCounter:
        return self._register(CallbackCounter(name, help_, callback))

    def callback_family(self, name: str, help_: str,
                        label_names: Sequence[str], callback: Callable,
                        kind: str = "counter") -> CallbackFamily:
        return self._register(
            CallbackFamily(name, help_, label_names, callback, kind))

    def gauge(self, name: str, help_: str) -> Gauge:
        return self._register(Gauge(name, help_))

    def gauge_callback(self, name: str, help_: str,
                       callback: Callable[[], float]) -> CallbackGauge:
        return self._register(CallbackGauge(name, help_, callback))

    def histogram(self, name: str, help_: str,
                  buckets: Optional[Sequence[float]] = None) -> Histogram:
        return self._register(Histogram(name, help_, buckets))

    def provider(self, prefix: str, help_: str,
                 callback: Callable[[], Mapping[str, float]]
                 ) -> _ProviderFamily:
        family = self._register(_ProviderFamily(prefix, help_, callback))
        return family  # type: ignore[return-value]

    def families(self) -> List[_Family]:
        with self._lock:
            return list(self._families.values())

    def render(self) -> str:
        out: List[str] = []
        for family in self.families():
            family.render(out)
        return "\n".join(out) + "\n" if out else ""


# -- engine provider section --------------------------------------------------


def provider_exposition(totals: Mapping[str, Mapping[str, float]]) -> str:
    """Per-provider counters (:mod:`repro.engine.metrics`) as counters.

    Each provider key renders as ``repro_<provider>_<key>``.  ``totals``
    is what :meth:`repro.engine.ExecutionEngine.counter_totals` returns:
    this process's counters plus, under a process pool, the workers'.
    """
    out: List[str] = []
    for provider in sorted(totals):
        for key in sorted(totals[provider]):
            name = f"repro_{provider}_{key}"
            if not _NAME_RE.match(name):
                continue
            out.append(f"# HELP {name} Engine metrics provider counter.")
            out.append(f"# TYPE {name} counter")
            out.append(f"{name} {_format_value(float(totals[provider][key]))}")
    return "\n".join(out) + "\n" if out else ""


def render_prometheus(registries: Iterable[MetricsRegistry],
                      providers: Optional[Mapping[str, Mapping[str, float]]]
                      = None) -> str:
    """Render registries (plus, when given, the engine ``providers``
    section) into one Prometheus text 0.0.4 exposition."""
    parts = [registry.render() for registry in registries]
    if providers is not None:
        parts.append(provider_exposition(providers))
    return "".join(part for part in parts if part)


# -- parsing and fleet-level merging -------------------------------------------

_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>[^}]*)\})?"
    r"\s+(?P<value>[^\s]+)\s*$")
_LABEL_RE = re.compile(
    r'(?P<name>[a-zA-Z_][a-zA-Z0-9_]*)="(?P<value>(?:[^"\\]|\\.)*)"')


def _unescape_label(value: str) -> str:
    return value.replace("\\n", "\n").replace('\\"', '"') \
        .replace("\\\\", "\\")


def parse_prometheus_text(text: str) -> "ParsedExposition":
    """Parse a text exposition; raises ``ValueError`` on malformed lines.

    Strict enough to serve as the format gate in tests, and the parsing
    half of the router's fleet-wide ``/metricsz`` merge.
    """
    types: "OrderedDict[str, str]" = OrderedDict()
    helps: Dict[str, str] = {}
    samples: "OrderedDict[Tuple[str, Tuple[Tuple[str, str], ...]], float]" \
        = OrderedDict()
    for line_number, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("# TYPE "):
            parts = line.split(None, 3)
            if len(parts) != 4:
                raise ValueError(f"line {line_number}: malformed TYPE: {raw!r}")
            types[parts[2]] = parts[3]
            continue
        if line.startswith("# HELP "):
            parts = line.split(None, 3)
            if len(parts) < 3:
                raise ValueError(f"line {line_number}: malformed HELP: {raw!r}")
            helps[parts[2]] = parts[3] if len(parts) == 4 else ""
            continue
        if line.startswith("#"):
            continue
        match = _SAMPLE_RE.match(line)
        if not match:
            raise ValueError(f"line {line_number}: malformed sample: {raw!r}")
        labels_text = match.group("labels")
        labels: Tuple[Tuple[str, str], ...] = ()
        if labels_text:
            parsed = _LABEL_RE.findall(labels_text)
            leftover = _LABEL_RE.sub("", labels_text).replace(",", "").strip()
            if leftover:
                raise ValueError(
                    f"line {line_number}: malformed labels: {raw!r}")
            labels = tuple(sorted(
                (name, _unescape_label(value)) for name, value in parsed))
        raw_value = match.group("value")
        if raw_value == "+Inf":
            value = math.inf
        elif raw_value == "-Inf":
            value = -math.inf
        else:
            try:
                value = float(raw_value)
            except ValueError:
                raise ValueError(
                    f"line {line_number}: malformed value: {raw!r}") from None
        key = (match.group("name"), labels)
        samples[key] = samples.get(key, 0.0) + value
    return ParsedExposition(types=types, helps=helps, samples=samples)


class ParsedExposition:
    """Parsed exposition: type/help per family, value per sample key."""

    __slots__ = ("types", "helps", "samples")

    def __init__(self, types: "OrderedDict[str, str]",
                 helps: Dict[str, str],
                 samples: "OrderedDict[Tuple[str, Tuple[Tuple[str, str], ...]], float]"):
        self.types = types
        self.helps = helps
        self.samples = samples

    def value(self, name: str, **labels: str) -> Optional[float]:
        key = (name, tuple(sorted((k, str(v)) for k, v in labels.items())))
        return self.samples.get(key)

    def render(self) -> str:
        # Group samples by family (longest matching TYPE name: a
        # histogram's _bucket/_sum/_count samples share its family).
        family_of: Dict[str, str] = {}
        for name in self.samples:
            base = name[0]
            if base in self.types:
                family_of.setdefault(base, base)
                continue
            for suffix in ("_bucket", "_sum", "_count"):
                if base.endswith(suffix) and base[:-len(suffix)] in self.types:
                    family_of[base] = base[:-len(suffix)]
                    break
            else:
                family_of[base] = base
        out: List[str] = []
        emitted_header = set()
        for (name, labels), value in self.samples.items():
            family = family_of.get(name, name)
            if family not in emitted_header:
                emitted_header.add(family)
                help_text = self.helps.get(family, "")
                out.append(f"# HELP {family} {help_text}".rstrip())
                out.append(
                    f"# TYPE {family} {self.types.get(family, 'untyped')}")
            out.append(
                f"{name}{_render_labels(labels)} {_format_value(value)}")
        return "\n".join(out) + "\n" if out else ""


def merge_expositions(texts: Sequence[str]) -> str:
    """Sum samples across expositions by identical ``name{labels}``.

    Counters and histogram buckets add the way fleet aggregation wants;
    gauges add too (queue depths across backends sum meaningfully —
    point-in-time maxima would not merge losslessly in text form).
    Family type/help come from the first exposition that declares them.
    """
    types: "OrderedDict[str, str]" = OrderedDict()
    helps: Dict[str, str] = {}
    samples: "OrderedDict[Tuple[str, Tuple[Tuple[str, str], ...]], float]" \
        = OrderedDict()
    for text in texts:
        parsed = parse_prometheus_text(text)
        for name, kind in parsed.types.items():
            types.setdefault(name, kind)
        for name, help_text in parsed.helps.items():
            helps.setdefault(name, help_text)
        for key, value in parsed.samples.items():
            samples[key] = samples.get(key, 0.0) + value
    return ParsedExposition(types=types, helps=helps, samples=samples).render()
