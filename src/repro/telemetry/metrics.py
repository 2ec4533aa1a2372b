"""Process-wide metrics registry: counters, gauges, histograms.

Zero-dependency reimplementation of the Prometheus client-library core,
shaped for this repository's needs:

* a :class:`MetricsRegistry` hands out **labeled metric families**
  (:meth:`~MetricsRegistry.counter`, :meth:`~MetricsRegistry.gauge`,
  :meth:`~MetricsRegistry.histogram`); registration is idempotent, so
  module-level subsystems (the arena cache, the result store, the
  experiment engine) can declare their metrics at import time and
  re-imports or multiple instances share one family;
* families without labels act directly as their single child, so
  ``REQUESTS.inc()`` works without a ``labels()`` hop;
* label cardinality is **capped per family** (:data:`MAX_LABEL_SETS`):
  past the cap, new label combinations collapse into one reserved
  ``overflow`` child instead of growing memory without bound (the drop
  count is visible as the family's ``dropped_label_sets``);
* :func:`render_exposition` serialises any number of registries into
  Prometheus text format 0.0.4 (``# HELP`` / ``# TYPE`` lines, escaped
  label values, ``_bucket``/``_sum``/``_count`` histogram series) --
  what ``GET /metrics`` serves with :data:`CONTENT_TYPE`.

There are two kinds of registry in practice: the module-level
:data:`REGISTRY` (process-wide counters: arena cache, store, engine)
and per-instance registries owned by service schedulers, so concurrent
services in one process (tests!) never see each other's job counters.
The HTTP layer renders both in one exposition.

All mutation is lock-guarded (one lock per family), so metrics are safe
to bump from the scheduler's thread-pool executor, the engine thread
and the event loop at once.  None of this appears on the simulator's
cycle loop.
"""

from __future__ import annotations

import math
import threading
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

__all__ = [
    "CONTENT_TYPE", "Counter", "DEFAULT_BUCKETS", "Gauge", "Histogram",
    "MAX_LABEL_SETS", "MetricFamily", "MetricsRegistry", "REGISTRY",
    "render_exposition",
]

#: the Content-Type ``GET /metrics`` must serve for Prometheus scrapers
CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

#: per-family bound on distinct label combinations; past it new label
#: sets collapse into one reserved ``overflow`` child
MAX_LABEL_SETS = 256

#: histogram default bucket upper bounds (seconds-flavoured)
DEFAULT_BUCKETS = (
    0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0, 30.0, 60.0, 300.0,
)

#: label values substituted when a family overflows its cardinality cap
_OVERFLOW_VALUE = "overflow"


class Counter:
    """Monotonically increasing value (float; fractional seconds count)."""

    __slots__ = ("_value", "_lock")

    def __init__(self, lock: threading.Lock) -> None:
        self._value = 0.0
        self._lock = lock

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters can only increase")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        return self._value

    def reset(self) -> None:
        """Zero the counter (test/benchmark hook, not a Prometheus op)."""
        with self._lock:
            self._value = 0.0


class Gauge:
    """Value that can go up, down, or track a callback at read time."""

    __slots__ = ("_value", "_lock", "_fn")

    def __init__(self, lock: threading.Lock) -> None:
        self._value = 0.0
        self._lock = lock
        self._fn: Optional[Callable[[], float]] = None

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value -= amount

    def set_function(self, fn: Callable[[], float]) -> None:
        """Read *fn* at collection time instead of a stored value."""
        self._fn = fn

    @property
    def value(self) -> float:
        fn = self._fn
        if fn is not None:
            return float(fn())
        return self._value

    def reset(self) -> None:
        with self._lock:
            self._value = 0.0


class Histogram:
    """Cumulative-bucket histogram with fixed upper bounds."""

    __slots__ = ("buckets", "_counts", "_sum", "_count", "_lock")

    def __init__(
        self, buckets: Sequence[float], lock: threading.Lock
    ) -> None:
        self.buckets: Tuple[float, ...] = tuple(buckets)
        self._counts = [0] * (len(self.buckets) + 1)  # +1 for +Inf
        self._sum = 0.0
        self._count = 0
        self._lock = lock

    def observe(self, value: float) -> None:
        with self._lock:
            self._sum += value
            self._count += 1
            for index, bound in enumerate(self.buckets):
                if value <= bound:
                    self._counts[index] += 1
                    break
            else:
                self._counts[-1] += 1

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    def cumulative_counts(self) -> List[Tuple[float, int]]:
        """``(upper_bound, cumulative_count)`` per bucket, ending +Inf."""
        out: List[Tuple[float, int]] = []
        running = 0
        for bound, count in zip(self.buckets, self._counts):
            running += count
            out.append((bound, running))
        out.append((math.inf, running + self._counts[-1]))
        return out

    def reset(self) -> None:
        with self._lock:
            self._counts = [0] * (len(self.buckets) + 1)
            self._sum = 0.0
            self._count = 0


class MetricFamily:
    """One named metric plus its labeled children.

    A family with no label names owns exactly one child and proxies the
    child's mutation API (``inc``/``set``/``observe``/``value``...), so
    unlabeled metrics read naturally at call sites.
    """

    def __init__(
        self,
        name: str,
        help_text: str,
        kind: str,
        labelnames: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> None:
        _validate_name(name)
        for label in labelnames:
            _validate_name(label)
        self.name = name
        self.help = help_text
        self.kind = kind  # "counter" | "gauge" | "histogram"
        self.labelnames: Tuple[str, ...] = tuple(labelnames)
        self.buckets = tuple(buckets)
        self.dropped_label_sets = 0
        self._lock = threading.Lock()
        self._children: "Dict[Tuple[str, ...], object]" = {}
        if not self.labelnames:
            self._children[()] = self._new_child()

    # ------------------------------------------------------------------
    def _new_child(self):
        if self.kind == "counter":
            return Counter(self._lock)
        if self.kind == "gauge":
            return Gauge(self._lock)
        return Histogram(self.buckets, self._lock)

    def labels(self, *values: str):
        """The child for one label-value combination (created on use).

        Past :data:`MAX_LABEL_SETS` distinct combinations, new ones all
        map to the reserved ``overflow`` child so a hostile or buggy
        label source cannot grow the registry without bound.
        """
        if len(values) != len(self.labelnames):
            raise ValueError(
                f"{self.name} takes {len(self.labelnames)} label value(s) "
                f"{self.labelnames}, got {len(values)}"
            )
        key = tuple(str(value) for value in values)
        child = self._children.get(key)
        if child is not None:
            return child
        with self._lock:
            child = self._children.get(key)
            if child is not None:
                return child
            if len(self._children) >= MAX_LABEL_SETS:
                self.dropped_label_sets += 1
                overflow = (_OVERFLOW_VALUE,) * len(self.labelnames)
                child = self._children.get(overflow)
                if child is None:
                    child = self._new_child()
                    self._children[overflow] = child
                return child
            child = self._new_child()
            self._children[key] = child
            return child

    def children(self) -> Iterable[Tuple[Tuple[str, ...], object]]:
        return list(self._children.items())

    # -- unlabeled proxy ------------------------------------------------
    def _solo(self):
        if self.labelnames:
            raise ValueError(
                f"{self.name} is labeled {self.labelnames}; use .labels()"
            )
        return self._children[()]

    def inc(self, amount: float = 1.0) -> None:
        self._solo().inc(amount)

    def dec(self, amount: float = 1.0) -> None:
        self._solo().dec(amount)

    def set(self, value: float) -> None:
        self._solo().set(value)

    def set_function(self, fn: Callable[[], float]) -> None:
        self._solo().set_function(fn)

    def observe(self, value: float) -> None:
        self._solo().observe(value)

    @property
    def value(self) -> float:
        return self._solo().value

    @property
    def count(self) -> int:
        return self._solo().count

    @property
    def sum(self) -> float:
        return self._solo().sum

    def cumulative_counts(self) -> List[Tuple[float, int]]:
        return self._solo().cumulative_counts()

    def reset(self) -> None:
        """Drop every labeled child and zero the rest (test hook)."""
        with self._lock:
            if self.labelnames:
                self._children.clear()
                self.dropped_label_sets = 0
            else:
                child = self._children[()]
                # the child's reset re-acquires the shared family lock
        if not self.labelnames:
            child.reset()


class MetricsRegistry:
    """Named metric families, one namespace per registry.

    Registration is **get-or-create**: asking for an existing name with
    the same kind and label names returns the existing family; asking
    with a conflicting shape raises.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._families: "Dict[str, MetricFamily]" = {}

    # ------------------------------------------------------------------
    def _register(
        self,
        name: str,
        help_text: str,
        kind: str,
        labelnames: Sequence[str],
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> MetricFamily:
        with self._lock:
            family = self._families.get(name)
            if family is not None:
                if family.kind != kind or family.labelnames != tuple(
                    labelnames
                ):
                    raise ValueError(
                        f"metric {name!r} already registered as "
                        f"{family.kind}{family.labelnames}, cannot "
                        f"re-register as {kind}{tuple(labelnames)}"
                    )
                return family
            family = MetricFamily(
                name, help_text, kind, labelnames, buckets
            )
            self._families[name] = family
            return family

    def counter(
        self, name: str, help_text: str, labelnames: Sequence[str] = ()
    ) -> MetricFamily:
        return self._register(name, help_text, "counter", labelnames)

    def gauge(
        self, name: str, help_text: str, labelnames: Sequence[str] = ()
    ) -> MetricFamily:
        return self._register(name, help_text, "gauge", labelnames)

    def histogram(
        self,
        name: str,
        help_text: str,
        buckets: Sequence[float] = DEFAULT_BUCKETS,
        labelnames: Sequence[str] = (),
    ) -> MetricFamily:
        if not buckets or list(buckets) != sorted(set(buckets)):
            raise ValueError(
                "histogram buckets must be non-empty, strictly increasing"
            )
        return self._register(
            name, help_text, "histogram", labelnames, buckets
        )

    # ------------------------------------------------------------------
    def get(self, name: str) -> Optional[MetricFamily]:
        return self._families.get(name)

    def collect(self) -> List[MetricFamily]:
        with self._lock:
            return list(self._families.values())

    def reset(self) -> None:
        """Zero every family's values (test/benchmark hook)."""
        for family in self.collect():
            family.reset()

    def unregister(self, name: str) -> None:
        with self._lock:
            self._families.pop(name, None)


#: the process-wide default registry (module-level subsystems: arena
#: cache, result store, experiment engine).  Service schedulers own
#: per-instance registries on top of this one.
REGISTRY = MetricsRegistry()


# ----------------------------------------------------------------------
# Prometheus text exposition (format 0.0.4)
# ----------------------------------------------------------------------
def _validate_name(name: str) -> None:
    if not name or not all(
        ch.isalnum() or ch in "_:" for ch in name
    ) or name[0].isdigit():
        raise ValueError(f"invalid metric/label name {name!r}")


def _escape_help(text: str) -> str:
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _escape_label_value(value: str) -> str:
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _format_value(value: float) -> str:
    if value == math.inf:
        return "+Inf"
    if value == -math.inf:
        return "-Inf"
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(float(value))


def _format_labels(
    labelnames: Sequence[str],
    labelvalues: Sequence[str],
    extra: Sequence[Tuple[str, str]] = (),
) -> str:
    pairs = [
        f'{name}="{_escape_label_value(value)}"'
        for name, value in zip(labelnames, labelvalues)
    ]
    pairs.extend(
        f'{name}="{_escape_label_value(value)}"' for name, value in extra
    )
    return "{" + ",".join(pairs) + "}" if pairs else ""


def render_exposition(*registries: MetricsRegistry) -> str:
    """Serialise *registries* into one Prometheus text-format document.

    Families are rendered in sorted-name order across all registries;
    a name appearing in several registries is rendered once per
    registry (callers keep namespaces disjoint by prefix discipline).
    """
    lines: List[str] = []
    families: List[MetricFamily] = []
    for registry in registries:
        families.extend(registry.collect())
    for family in sorted(families, key=lambda f: f.name):
        lines.append(f"# HELP {family.name} {_escape_help(family.help)}")
        lines.append(f"# TYPE {family.name} {family.kind}")
        for labelvalues, child in sorted(family.children()):
            if family.kind == "histogram":
                for bound, cumulative in child.cumulative_counts():
                    labels = _format_labels(
                        family.labelnames, labelvalues,
                        extra=(("le", _format_value(bound)),),
                    )
                    lines.append(
                        f"{family.name}_bucket{labels} {cumulative}"
                    )
                labels = _format_labels(family.labelnames, labelvalues)
                lines.append(
                    f"{family.name}_sum{labels} "
                    f"{_format_value(child.sum)}"
                )
                lines.append(f"{family.name}_count{labels} {child.count}")
            else:
                labels = _format_labels(family.labelnames, labelvalues)
                lines.append(
                    f"{family.name}{labels} {_format_value(child.value)}"
                )
    return "\n".join(lines) + "\n"
