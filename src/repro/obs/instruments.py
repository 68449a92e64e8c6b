"""Typed instruments and the process-local registry.

Three instrument kinds, mirroring the Prometheus data model without the
dependency:

* :class:`Counter` — monotonically increasing count (events, items);
* :class:`Gauge` — a value that goes up and down (queue depth);
* :class:`Histogram` — fixed-bucket latency/size distribution with
  cumulative ``le`` semantics (a value exactly on a bucket's upper
  bound lands in that bucket; values above the last bound land in the
  implicit ``+Inf`` overflow bucket).

Instruments live in a :class:`Registry` keyed by dotted name
(``"monitor.apply.seconds"``).  An instrument may additionally carry a
small set of **labels** (string keys and values only, validated at
registration): each distinct label set is its own instrument, keyed by
the canonical ``name{key="value",...}`` form, so the pruning counters
(``join.dsc.pruned{dim=...}``) and the error-labelled span histograms
stay independent series.  A registry snapshots to a plain-dict
:meth:`Registry.summary` — picklable and JSON-representable — and
per-worker summaries merge losslessly with :func:`merge_summaries`
(counters and gauges sum; histograms with identical bounds add their
bucket counts), which is how :mod:`repro.runtime` builds its fleet view
at poll time.

All mutation is gated on :data:`repro.obs.state.ENABLED`; a disabled
process keeps registering instruments (cheap) but never touches their
values.

Instruments pickle as *references*: unpickling get-or-creates the same
name in the process-local global registry (values reset to zero).
Counts are process-local by design — a monitor restored from a
checkpoint must re-attach to the restoring process's registry, not
resurrect the counts of the process that wrote the snapshot.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from typing import Any, Iterable, Mapping, Sequence

from . import state
from .catalog import CATALOG

#: Prometheus label-name alphabet.
_LABEL_NAME = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")


def escape_label_value(value: str) -> str:
    """A label value escaped per the Prometheus text format 0.0.4:
    backslash, double-quote and newline become ``\\\\``, ``\\"`` and
    ``\\n`` (backslash first, so escapes never double up)."""
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def validate_labels(name: str, labels: Mapping[str, object] | None) -> dict[str, str]:
    """Validated, key-sorted copy of an instrument's labels.

    Label names must match the Prometheus alphabet and values must
    already be strings — rejecting a non-string *early*, at
    registration, keeps the failure at the call site that forgot a
    ``str()`` instead of deep inside exposition.
    """
    if not labels:
        return {}
    validated: dict[str, str] = {}
    for key in sorted(labels):
        if not isinstance(key, str) or not _LABEL_NAME.match(key):
            raise ValueError(f"invalid label name {key!r} on instrument {name!r}")
        value = labels[key]
        if not isinstance(value, str):
            raise TypeError(
                f"label {key!r} of instrument {name!r} must be a string, "
                f"got {type(value).__name__}"
            )
        validated[key] = value
    return validated


def instrument_key(name: str, labels: Mapping[str, str]) -> str:
    """Canonical registry/summary key: the bare name, or
    ``name{key="escaped value",...}`` with keys sorted."""
    if not labels:
        return name
    inner = ",".join(
        f'{key}="{escape_label_value(labels[key])}"' for key in sorted(labels)
    )
    return f"{name}{{{inner}}}"

#: Default latency buckets in seconds: ~1 µs to 10 s, log-spaced the
#: way stream maintenance costs actually spread (the paper's Figure 15
#: unit is milliseconds per timestamp).
DEFAULT_LATENCY_BUCKETS: tuple[float, ...] = (
    1e-6,
    1e-5,
    1e-4,
    2.5e-4,
    1e-3,
    2.5e-3,
    1e-2,
    2.5e-2,
    1e-1,
    2.5e-1,
    1.0,
    10.0,
)


class Counter:
    """Monotonic event count."""

    kind = "counter"
    __slots__ = ("name", "help", "labels", "value")

    def __init__(
        self, name: str, help: str = "", labels: Mapping[str, str] | None = None
    ) -> None:
        self.name = name
        self.help = help
        self.labels = validate_labels(name, labels)
        self.value: float = 0

    def inc(self, amount: float = 1) -> None:
        """Add ``amount`` (must be >= 0) when instrumentation is on."""
        if state.ENABLED:
            if amount < 0:
                raise ValueError(f"counter {self.name!r} cannot decrease")
            self.value += amount

    def summary(self) -> dict:
        """Plain-dict snapshot."""
        entry = {"kind": self.kind, "help": self.help, "value": self.value}
        if self.labels:
            entry["labels"] = dict(self.labels)
        return entry

    def __reduce__(self):
        from .registry import counter

        return (counter, (self.name, self.help, self.labels or None))


class Gauge:
    """A value that can go up and down."""

    kind = "gauge"
    __slots__ = ("name", "help", "labels", "value")

    def __init__(
        self, name: str, help: str = "", labels: Mapping[str, str] | None = None
    ) -> None:
        self.name = name
        self.help = help
        self.labels = validate_labels(name, labels)
        self.value: float = 0

    def set(self, value: float) -> None:
        """Replace the current value when instrumentation is on."""
        if state.ENABLED:
            self.value = value

    def inc(self, amount: float = 1) -> None:
        """Shift the current value when instrumentation is on."""
        if state.ENABLED:
            self.value += amount

    def dec(self, amount: float = 1) -> None:
        """Shift the current value down when instrumentation is on."""
        if state.ENABLED:
            self.value -= amount

    def summary(self) -> dict:
        """Plain-dict snapshot."""
        entry = {"kind": self.kind, "help": self.help, "value": self.value}
        if self.labels:
            entry["labels"] = dict(self.labels)
        return entry

    def __reduce__(self):
        from .registry import gauge

        return (gauge, (self.name, self.help, self.labels or None))


class Histogram:
    """Fixed-bucket distribution with Prometheus ``le`` semantics.

    ``bounds`` are the finite upper bucket edges, strictly increasing;
    an observation lands in the first bucket whose bound is >= the
    value (so a value exactly on an edge belongs to that bucket), and
    anything above the last bound lands in the implicit ``+Inf``
    bucket.  ``counts`` has ``len(bounds) + 1`` entries, the last being
    the overflow bucket; exposition cumulates them.
    """

    kind = "histogram"
    __slots__ = ("name", "help", "labels", "bounds", "counts", "sum", "count")

    def __init__(
        self,
        name: str,
        help: str = "",
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
        labels: Mapping[str, str] | None = None,
    ) -> None:
        bounds = tuple(float(b) for b in buckets)
        if not bounds:
            raise ValueError(f"histogram {name!r} needs at least one bucket bound")
        if any(b >= c for b, c in zip(bounds, bounds[1:])):
            raise ValueError(
                f"histogram {name!r} bucket bounds must strictly increase: {bounds}"
            )
        self.name = name
        self.help = help
        self.labels = validate_labels(name, labels)
        self.bounds = bounds
        self.counts = [0] * (len(bounds) + 1)
        self.sum: float = 0.0
        self.count: int = 0

    def observe(self, value: float) -> None:
        """Fold one observation in when instrumentation is on."""
        if state.ENABLED:
            self.counts[bisect_left(self.bounds, value)] += 1
            self.sum += value
            self.count += 1

    def summary(self) -> dict:
        """Plain-dict snapshot (bounds + per-bucket counts, not cumulated)."""
        entry = {
            "kind": self.kind,
            "help": self.help,
            "bounds": list(self.bounds),
            "counts": list(self.counts),
            "sum": self.sum,
            "count": self.count,
        }
        if self.labels:
            entry["labels"] = dict(self.labels)
        return entry

    def __reduce__(self):
        from .registry import histogram

        return (histogram, (self.name, self.help, self.bounds, self.labels or None))


Instrument = Counter | Gauge | Histogram


class Registry:
    """Process-local, name-keyed instrument store.

    ``counter()`` / ``gauge()`` / ``histogram()`` get-or-create, so
    instrumentation sites never need registration boilerplate.  A name
    in :data:`repro.obs.catalog.CATALOG` takes its help text (and its
    buckets) from its row there, whatever the caller passed, and asking
    for it as another kind raises; an uncatalogued name (tests, ad-hoc
    series) is created from the caller's ``help`` / ``buckets``.  Asking
    for an existing name with a different kind (or an uncatalogued
    histogram with different buckets) is a programming error and
    raises.  Each distinct label set of a name is its own instrument
    (keyed by the canonical ``name{key="value"}`` form of
    :func:`instrument_key`).
    """

    def __init__(self) -> None:
        self._instruments: dict[str, Counter | Gauge | Histogram] = {}

    def _get_or_create(
        self,
        cls: type,
        name: str,
        help: str,
        labels: Mapping[str, str] | None,
        buckets: Sequence[float] | None = None,
    ) -> Any:
        """The one get-or-create behind the three public methods
        (``buckets`` is given for histograms only)."""
        key = instrument_key(name, validate_labels(name, labels))
        instrument = self._instruments.get(key)
        if instrument is None:
            row = CATALOG.get(name)
            if row is not None:
                if row[0] != cls.kind:
                    raise TypeError(
                        f"{name!r} is catalogued as a {row[0]}, not a {cls.kind}"
                    )
                help = row[1]
                if buckets is not None:
                    buckets = row[2] if len(row) > 2 else DEFAULT_LATENCY_BUCKETS
            if buckets is None:
                instrument = cls(name, help, labels)
            else:
                instrument = cls(name, help, buckets, labels)
            self._instruments[key] = instrument
        elif not isinstance(instrument, cls):
            raise TypeError(f"{key!r} is a {instrument.kind}, not a {cls.kind}")
        elif (
            buckets is not None
            and name not in CATALOG
            and instrument.bounds != tuple(float(b) for b in buckets)
        ):
            raise ValueError(
                f"histogram {key!r} already registered with bounds "
                f"{instrument.bounds}, not {tuple(buckets)}"
            )
        return instrument

    def counter(
        self, name: str, help: str = "", labels: Mapping[str, str] | None = None
    ) -> Counter:
        """Get or create the named counter."""
        return self._get_or_create(Counter, name, help, labels)

    def gauge(
        self, name: str, help: str = "", labels: Mapping[str, str] | None = None
    ) -> Gauge:
        """Get or create the named gauge."""
        return self._get_or_create(Gauge, name, help, labels)

    def histogram(
        self,
        name: str,
        help: str = "",
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
        labels: Mapping[str, str] | None = None,
    ) -> Histogram:
        """Get or create the named histogram."""
        return self._get_or_create(Histogram, name, help, labels, buckets)

    def names(self) -> list[str]:
        """Registered instrument keys (name plus canonical labels), sorted."""
        return sorted(self._instruments)

    def get(
        self, name: str, labels: Mapping[str, str] | None = None
    ) -> Counter | Gauge | Histogram | None:
        """The named instrument (with the given label set), or None."""
        if labels:
            name = instrument_key(name, validate_labels(name, labels))
        return self._instruments.get(name)

    def reset(self) -> None:
        """Zero every instrument (registrations survive)."""
        for instrument in self._instruments.values():
            if isinstance(instrument, Histogram):
                instrument.counts = [0] * len(instrument.counts)
                instrument.sum = 0.0
                instrument.count = 0
            else:
                instrument.value = 0

    def summary(self) -> dict:
        """Plain-dict snapshot of every instrument, keyed by name."""
        return {
            name: self._instruments[name].summary()
            for name in sorted(self._instruments)
        }


def merge_summaries(summaries: Iterable[Mapping]) -> dict:
    """Lossless fleet-wide aggregate of :meth:`Registry.summary` dicts.

    Counters and gauges sum (a fleet gauge like inbox depth reads as
    the total across workers); histograms require identical bucket
    bounds — which same-named instruments always have — and add their
    bucket counts, sums and counts elementwise.  The operation is
    associative with identity ``{}``, so partial merges compose
    (``tests/test_obs.py`` pins both properties).
    """
    merged: dict[str, dict] = {}
    for summary in summaries:
        for name, entry in summary.items():
            into = merged.get(name)
            if into is None:
                merged[name] = {
                    key: (
                        list(value)
                        if isinstance(value, list)
                        else dict(value) if isinstance(value, dict) else value
                    )
                    for key, value in entry.items()
                }
                continue
            if into["kind"] != entry["kind"]:
                raise ValueError(
                    f"cannot merge {name!r}: kind {entry['kind']} vs {into['kind']}"
                )
            if entry["kind"] == "histogram":
                if list(into["bounds"]) != list(entry["bounds"]):
                    raise ValueError(
                        f"cannot merge histogram {name!r}: bucket bounds differ"
                    )
                into["counts"] = [
                    a + b for a, b in zip(into["counts"], entry["counts"])
                ]
                into["sum"] += entry["sum"]
                into["count"] += entry["count"]
            else:
                into["value"] += entry["value"]
    return dict(sorted(merged.items()))
