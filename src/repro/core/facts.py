"""Measures, aggregate functions and the temporally consistent fact table.

Definition 5 models the fact table as a function from leaf member versions
(one per dimension) and a time instant to measure values; the data is
*temporally consistent* because every referenced member version must be
valid at the fact's time coordinate.

This module provides:

* :class:`AggregateFunction` and the standard ``⊕`` instances (sum, min,
  max, count, avg) used by Definition 12's data aggregation;
* :class:`Measure` — a named measure with its domain aggregate;
* :class:`FactRow` — one cell of the consistent fact table;
* :class:`TemporallyConsistentFactTable` — an append-only store with
  coordinate indexes, validated against the schema's dimensions by
  :meth:`~repro.core.schema.TemporalMultidimensionalSchema.validate`.

Unknown values (produced by ``uk`` mappings downstream) are represented as
``None``; aggregates skip them, and the confidence algebra — not the value
algebra — is what reports the resulting unreliability.
"""

from __future__ import annotations

import functools
import itertools
import operator
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Any, Callable, Iterable, Iterator, Mapping, Sequence

from .chronology import Instant
from .errors import FactError
from .tokens import next_token

__all__ = [
    "AggregateFunction",
    "SumAggregate",
    "MinAggregate",
    "MaxAggregate",
    "CountAggregate",
    "AvgAggregate",
    "SUM",
    "MIN",
    "MAX",
    "COUNT",
    "AVG",
    "Measure",
    "FactKey",
    "FactRow",
    "TemporallyConsistentFactTable",
]


class AggregateFunction:
    """An aggregate ``⊕`` over measure values.

    Subclasses implement :meth:`fold` over the non-``None`` values; the
    public :meth:`combine_all` handles unknowns: if every input is unknown
    the aggregate is unknown (``None``), otherwise unknowns are skipped and
    the confidence algebra carries the reliability downgrade.
    """

    name = "aggregate"

    def fold(self, values: Sequence[float]) -> float:
        """Combine a non-empty sequence of known values."""
        raise NotImplementedError

    def combine_all(self, values: Iterable[float | None]) -> float | None:
        """Aggregate a sequence that may contain unknown (``None``) values."""
        known = [v for v in values if v is not None]
        if not known:
            return None
        return self.fold(known)

    def combine_each(self, values: Sequence[float | None]) -> list[float | None]:
        """``[combine_all((v,)) for v in values]``: each value folded on its
        own, as a cell with one contribution folds it."""
        return [self.combine_all((v,)) for v in values]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return self.name


class SumAggregate(AggregateFunction):
    """``⊕ = +`` — the default for additive measures such as amounts.

    Values are added left to right, so a running total resumes the fold
    exactly: ``fold([a, b, c]) == fold([fold([a, b]), c])``, which the
    derived MultiVersion fact table relies on.
    """

    name = "sum"

    def fold(self, values: Sequence[float]) -> float:
        # Not the builtin ``sum``: from Python 3.12 it compensates rounding
        # error across the whole sequence, which a running total cannot resume.
        return functools.reduce(operator.add, values, 0)

    def combine_each(self, values: Sequence[float | None]) -> list[float | None]:
        # ``0 + v``, as the fold starts from 0: ``-0.0`` becomes ``0.0``.
        if None in values:
            return [None if v is None else 0 + v for v in values]
        return list(map(operator.add, itertools.repeat(0, len(values)), values))


class MinAggregate(AggregateFunction):
    """``⊕ = min``."""

    name = "min"

    def fold(self, values: Sequence[float]) -> float:
        return min(values)

    def combine_each(self, values: Sequence[float | None]) -> list[float | None]:
        return list(values)


class MaxAggregate(AggregateFunction):
    """``⊕ = max``."""

    name = "max"

    def fold(self, values: Sequence[float]) -> float:
        return max(values)

    def combine_each(self, values: Sequence[float | None]) -> list[float | None]:
        return list(values)


class CountAggregate(AggregateFunction):
    """Counts known values (useful for audit measures)."""

    name = "count"

    def fold(self, values: Sequence[float]) -> float:
        return float(len(values))


class AvgAggregate(AggregateFunction):
    """Arithmetic mean of the known values.

    Note that averages are not distributive; rolling up pre-aggregated
    averages is approximate, which is why the paper's examples stick to
    additive measures.  The cube layer materializes sums and counts when an
    average measure is requested.
    """

    name = "avg"

    def fold(self, values: Sequence[float]) -> float:
        return sum(values) / len(values)


SUM = SumAggregate()
MIN = MinAggregate()
MAX = MaxAggregate()
COUNT = CountAggregate()
AVG = AvgAggregate()


@dataclass(frozen=True)
class Measure:
    """A named measure with its domain aggregate ``⊕``.

    Parameters
    ----------
    name:
        Measure name, unique within a schema (e.g. ``"amount"``).
    aggregate:
        The ``⊕`` used by data aggregation (Definition 12).  Defaults to sum.
    description:
        Optional free-text documentation surfaced by the metadata layer.
    """

    name: str
    aggregate: AggregateFunction = SUM
    description: str = ""

    def __post_init__(self) -> None:
        if not self.name:
            raise FactError("measure needs a non-empty name")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Measure({self.name}, {self.aggregate.name})"


FactKey = tuple[tuple[str, ...], Instant]
"""Internal key of a fact row: leaf mvids in dimension order, plus time."""


@dataclass(frozen=True)
class FactRow:
    """One cell of the temporally consistent fact table.

    ``coordinates`` maps each dimension name to the *leaf* member version id
    the fact is recorded against; ``t`` is the time coordinate; ``values``
    maps measure names to values.  ``source`` optionally names the ETL
    origin of the row (``"<source>#<row-index>"``) so lineage can point
    back at the operational record that produced it.
    """

    coordinates: Mapping[str, str]
    t: Instant
    values: Mapping[str, float | None]
    source: str | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "coordinates", MappingProxyType(dict(self.coordinates)))
        object.__setattr__(self, "values", MappingProxyType(dict(self.values)))

    def coordinate(self, dimension: str) -> str:
        """The leaf member version id along ``dimension``."""
        try:
            return self.coordinates[dimension]
        except KeyError:
            raise FactError(
                f"fact row has no coordinate for dimension {dimension!r}"
            ) from None

    def value(self, measure: str) -> float | None:
        """The value recorded for ``measure`` (``None`` when unknown)."""
        return self.values.get(measure)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        coords = ", ".join(f"{d}={m}" for d, m in sorted(self.coordinates.items()))
        vals = ", ".join(f"{m}={v}" for m, v in self.values.items())
        return f"Fact({coords}, t={self.t}, {vals})"


class TemporallyConsistentFactTable:
    """The fact table ``f`` of Definition 5.

    The table is append-only (data warehouses are non-volatile); rows carry
    one leaf member version id per dimension, a time coordinate and one
    value per measure.  Dimension names and measures are fixed at
    construction.

    The table itself checks *shape* (all coordinates and measures present);
    the *temporal consistency* constraint — every coordinate is a leaf
    member version valid at ``t`` — requires the dimensions and is enforced
    by the owning schema's ``validate`` / ``add_fact`` entry points.
    """

    def __init__(self, dimensions: Sequence[str], measures: Sequence[Measure]) -> None:
        if not dimensions:
            raise FactError("a fact table needs at least one dimension")
        if len(set(dimensions)) != len(dimensions):
            raise FactError(f"duplicate dimension names in {dimensions!r}")
        if not measures:
            raise FactError("a fact table needs at least one measure")
        names = [m.name for m in measures]
        if len(set(names)) != len(names):
            raise FactError(f"duplicate measure names in {names!r}")
        self._dimensions = tuple(dimensions)
        self._measures = tuple(measures)
        self._measure_index = {m.name: m for m in measures}
        self._rows: list[FactRow] = []
        self._token = next_token()

    @property
    def version_token(self) -> int:
        """The version stamp of the table's current contents (bumped by
        every mutator; see :mod:`repro.core.tokens`)."""
        return self._token

    # -- schema -------------------------------------------------------------

    @property
    def dimensions(self) -> tuple[str, ...]:
        """Dimension names, in coordinate order."""
        return self._dimensions

    @property
    def measures(self) -> tuple[Measure, ...]:
        """The declared measures."""
        return self._measures

    @property
    def measure_names(self) -> list[str]:
        """Measure names, in declaration order."""
        return [m.name for m in self._measures]

    def measure(self, name: str) -> Measure:
        """Look up a measure by name."""
        try:
            return self._measure_index[name]
        except KeyError:
            raise FactError(f"unknown measure {name!r}") from None

    # -- data ---------------------------------------------------------------

    def add(
        self,
        coordinates: Mapping[str, str],
        t: Instant,
        values: Mapping[str, float | None] | None = None,
        *,
        source: str | None = None,
        **value_kwargs: float | None,
    ) -> FactRow:
        """Append a fact row.

        ``values`` and keyword arguments are merged; every declared measure
        must be present and every coordinate must name a declared dimension.
        ``source`` tags the row with its ETL origin.  Returns the stored
        :class:`FactRow`.
        """
        merged: dict[str, float | None] = dict(values or {})
        merged.update(value_kwargs)
        missing_dims = set(self._dimensions) - set(coordinates)
        if missing_dims:
            raise FactError(f"fact row misses coordinates for {sorted(missing_dims)}")
        extra_dims = set(coordinates) - set(self._dimensions)
        if extra_dims:
            raise FactError(f"fact row names unknown dimensions {sorted(extra_dims)}")
        missing_measures = set(self._measure_index) - set(merged)
        if missing_measures:
            raise FactError(f"fact row misses measures {sorted(missing_measures)}")
        extra_measures = set(merged) - set(self._measure_index)
        if extra_measures:
            raise FactError(f"fact row names unknown measures {sorted(extra_measures)}")
        row = FactRow(coordinates=coordinates, t=t, values=merged, source=source)
        self._rows.append(row)
        self._token = next_token()
        return row

    def rows(self) -> Iterator[FactRow]:
        """Iterate all fact rows in insertion order."""
        return iter(self._rows)

    def adopt(self, rows: Iterable[FactRow]) -> int:
        """Append already-validated :class:`FactRow` objects, sharing them.

        Rows are immutable, so a snapshot/clone of a fact table can share
        the row objects of its source and only copy the container — the
        copy-on-write trick behind
        :mod:`repro.concurrency.snapshot`.  No shape re-validation happens;
        callers must hand over rows that came out of a compatible table.
        Returns the number of rows adopted.
        """
        count = len(self._rows)
        self._rows.extend(rows)
        self._token = next_token()
        return len(self._rows) - count

    def truncate(self, length: int) -> int:
        """Drop every row appended after position ``length``.

        The fact table is append-only for *committed* data; truncation
        exists solely so a transaction that loaded facts can roll them back
        to its begin mark.  Returns the number of rows dropped.
        """
        if length < 0 or length > len(self._rows):
            raise FactError(
                f"cannot truncate {len(self._rows)} fact rows to {length}"
            )
        dropped = len(self._rows) - length
        del self._rows[length:]
        self._token = next_token()
        return dropped

    def __len__(self) -> int:
        return len(self._rows)

    def __iter__(self) -> Iterator[FactRow]:
        return self.rows()

    # -- lookups ------------------------------------------------------------

    def rows_at(self, t: Instant) -> list[FactRow]:
        """All rows whose time coordinate equals ``t``."""
        return [r for r in self._rows if r.t == t]

    def rows_for(self, dimension: str, mvid: str) -> list[FactRow]:
        """All rows recorded against ``mvid`` along ``dimension``."""
        if dimension not in self._dimensions:
            raise FactError(f"unknown dimension {dimension!r}")
        return [r for r in self._rows if r.coordinates.get(dimension) == mvid]

    def lookup(
        self, coordinates: Mapping[str, str], t: Instant
    ) -> FactRow | None:
        """The row at exactly these coordinates and time, if any.

        Definition 5 models ``f`` as a function, so at most one row matches;
        the store tolerates duplicates for robustness but ``lookup`` returns
        the most recently appended one (later loads win, mirroring ETL
        upserts).
        """
        for row in reversed(self._rows):
            if row.t == t and all(
                row.coordinates.get(d) == m for d, m in coordinates.items()
            ):
                return row
        return None

    def total(self, measure: str) -> float | None:
        """Aggregate ``measure`` over the whole table with its own ``⊕``."""
        agg = self.measure(measure).aggregate
        return agg.combine_all(r.value(measure) for r in self._rows)

    def to_records(self) -> list[dict[str, Any]]:
        """Flatten rows to plain dictionaries (ETL/export convenience)."""
        records: list[dict[str, Any]] = []
        for row in self._rows:
            rec: dict[str, Any] = {d: row.coordinates[d] for d in self._dimensions}
            rec["t"] = row.t
            rec.update({m: row.value(m) for m in self.measure_names})
            records.append(rec)
        return records
