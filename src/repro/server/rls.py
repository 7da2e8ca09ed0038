"""Row-level security: per-tenant slice predicates compiled into queries.

A tenant's RLS policy is a set of declarative *member filters* — "this
tenant sees only facts rolling up into Division ∈ {Sales}" — the shape
relational warehouses express as ``CREATE SECURITY POLICY ... FILTER
PREDICATE`` scripts.  Here each rule compiles to a
:class:`~repro.core.query.LevelFilter` and the policy is **merged into
the query plan before execution**: the engine applies level filters
conjunctively and resolves them through the query's own presentation
mode, so the restriction follows reclassifications exactly like an
analyst's slice would (a department moved out of Sales in 2002 stops
contributing to a Sales-scoped tenant's 2002 numbers in ``tcm``).

Because enforcement happens at plan level rather than on serialized
results, a tenant cannot observe another tenant's slice through any
statement shape — grouping, filtering on the same level, RANK MODES
(which re-executes the compiled query per mode) or cube pivots all pass
through :meth:`RLSPolicy.apply`.  A tenant query that asks for members
outside its slice simply intersects to the empty set of facts: an empty
result, not an error, so the policy leaks nothing about what exists.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Iterable, Mapping, Sequence

from repro.core.query import LevelFilter, Query

from .protocol import ForbiddenError

__all__ = ["RLSRule", "RLSPolicy", "RLSConfigError"]


class RLSConfigError(ValueError):
    """An RLS rule that cannot be interpreted or validated."""


@dataclass(frozen=True)
class RLSRule:
    """One declarative member filter: ``dimension.level ∈ values``."""

    dimension: str
    level: str
    values: tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.dimension or not self.level:
            raise RLSConfigError(
                "an RLS rule needs a dimension and a level name"
            )
        if not self.values:
            raise RLSConfigError(
                f"RLS rule on {self.dimension}.{self.level} needs at least "
                f"one allowed member"
            )

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "RLSRule":
        """Build one rule from its JSON config shape."""
        unknown = set(payload) - {"dimension", "level", "values"}
        if unknown:
            raise RLSConfigError(f"unknown RLS rule fields: {sorted(unknown)}")
        missing = {"dimension", "level", "values"} - set(payload)
        if missing:
            raise RLSConfigError(f"RLS rule missing fields: {sorted(missing)}")
        values = payload["values"]
        if isinstance(values, str) or not isinstance(values, Sequence):
            raise RLSConfigError("RLS rule 'values' must be a list of names")
        return cls(
            dimension=str(payload["dimension"]),
            level=str(payload["level"]),
            values=tuple(str(v) for v in values),
        )

    def to_filter(self) -> LevelFilter:
        """The query-plan predicate implementing this rule."""
        return LevelFilter(self.dimension, self.level, self.values)

    def to_dict(self) -> dict[str, Any]:
        """The JSON config shape."""
        return {
            "dimension": self.dimension,
            "level": self.level,
            "values": list(self.values),
        }


class RLSPolicy:
    """A tenant's full set of RLS rules, applied to every query plan."""

    def __init__(self, rules: Iterable[RLSRule] = ()) -> None:
        self.rules = tuple(rules)
        self._filters = tuple(rule.to_filter() for rule in self.rules)

    @classmethod
    def from_list(cls, payload: Iterable[Mapping[str, Any]]) -> "RLSPolicy":
        """Build a policy from the JSON config list."""
        return cls(RLSRule.from_dict(item) for item in payload)

    @property
    def unrestricted(self) -> bool:
        """Whether this policy imposes no restriction."""
        return not self.rules

    @property
    def filters(self) -> tuple[LevelFilter, ...]:
        """The compiled level filters (for surfaces taking ``filters=``)."""
        return self._filters

    def apply(self, query: Query) -> Query:
        """The query with this policy's predicates merged into its plan.

        The tenant's own filters stay in place; RLS filters append, and
        the engine's conjunctive semantics make the result the
        intersection of both restrictions.
        """
        if not self._filters:
            return query
        return replace(
            query, level_filters=query.level_filters + self._filters
        )

    def validate(self, mvft: Any) -> None:
        """Fail fast when a rule names schema elements that don't exist.

        ``mvft`` is the MultiVersion fact table the policy will guard.
        Dimension levels are collected across every structure version
        (levels evolve; a rule on a level any version knows is valid).
        """
        schema = mvft.schema
        for rule in self.rules:
            if rule.dimension not in schema.dimensions:
                raise RLSConfigError(
                    f"RLS rule references unknown dimension "
                    f"{rule.dimension!r} (available: {schema.dimension_ids})"
                )
            levels = mvft.modes.level_names(rule.dimension)
            if rule.level not in levels:
                raise RLSConfigError(
                    f"RLS rule references unknown level {rule.level!r} of "
                    f"dimension {rule.dimension!r} (available: {levels})"
                )

    def guard_writes(self, tenant: str) -> None:
        """RLS-scoped tenants never write: a write could move members
        across the slice boundary and reveal (or corrupt) what it must
        not see."""
        if not self.unrestricted:
            raise ForbiddenError(
                f"tenant {tenant!r} is RLS-scoped and cannot run evolutions"
            )

    def to_dicts(self) -> list[dict[str, Any]]:
        """The JSON config list."""
        return [rule.to_dict() for rule in self.rules]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"RLSPolicy(rules={len(self.rules)})"
