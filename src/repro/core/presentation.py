"""Temporal modes of presentation (Definition 10).

Given ``N`` structure versions, the set of temporal modes of presentation is
``TMP = {tcm, VM1, ..., VMN}``: the *temporally consistent mode* plus one
mode per structure version, in which all data is mapped into that version's
(static) structure.

At the logical level (§4.1) this set becomes a *flat dimension* of the
multiversion warehouse; here it is a small value-object catalog the query
engine and warehouse builders share.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from .errors import QueryError
from .versions import StructureVersion, levels_across

__all__ = ["TCM_LABEL", "PresentationMode", "ModeSet", "build_modes"]

TCM_LABEL = "tcm"
"""Canonical label of the temporally consistent mode of presentation."""


@dataclass(frozen=True)
class PresentationMode:
    """One temporal mode of presentation.

    ``label`` is ``"tcm"`` for the consistent mode and the structure
    version's ``vsid`` (e.g. ``"V2"``) for version modes; ``version`` is
    ``None`` exactly for the consistent mode.
    """

    label: str
    version: StructureVersion | None = None

    @property
    def is_tcm(self) -> bool:
        """Whether this is the temporally consistent mode."""
        return self.version is None

    def describe(self) -> str:
        """Human-readable description for front ends and metadata."""
        if self.is_tcm:
            return "temporally consistent mode (source data)"
        return f"data mapped into structure version {self.label} {self.version.valid_time!r}"

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Mode({self.label})"


class ModeSet:
    """The set ``TMP`` of Definition 10, indexable by label."""

    def __init__(self, modes: Iterable[PresentationMode]) -> None:
        self._modes: dict[str, PresentationMode] = {}
        for mode in modes:
            if mode.label in self._modes:
                raise QueryError(f"duplicate presentation mode label {mode.label!r}")
            self._modes[mode.label] = mode
        if TCM_LABEL not in self._modes:
            raise QueryError("a mode set must include the temporally consistent mode")

    def __iter__(self) -> Iterator[PresentationMode]:
        return iter(self._modes.values())

    def __len__(self) -> int:
        return len(self._modes)

    def __contains__(self, label: str) -> bool:
        return label in self._modes

    @property
    def labels(self) -> list[str]:
        """Mode labels (``tcm`` first, then version modes in order)."""
        return list(self._modes)

    @property
    def tcm(self) -> PresentationMode:
        """The temporally consistent mode."""
        return self._modes[TCM_LABEL]

    @property
    def version_modes(self) -> list[PresentationMode]:
        """The structure-version modes, chronological."""
        return [m for m in self._modes.values() if not m.is_tcm]

    def level_names(self, did: str) -> list[str]:
        """Level names of dimension ``did`` across every version mode."""
        return levels_across((m.version for m in self.version_modes), did)

    def mode(self, label: str) -> PresentationMode:
        """Look up a mode by label."""
        try:
            return self._modes[label]
        except KeyError:
            raise QueryError(
                f"unknown presentation mode {label!r} (available: {self.labels})"
            ) from None

    def mode_for_instant(self, t: int) -> PresentationMode:
        """The version mode whose structure version covers instant ``t``.

        Useful for "map onto the structure of year Y" requests: resolve the
        year to an instant, then to the covering version.
        """
        for m in self.version_modes:
            assert m.version is not None
            if m.version.contains_instant(t):
                return m
        raise QueryError(f"no structure version covers instant {t}")

    def version_at(self, mode: PresentationMode, t: int) -> StructureVersion | None:
        """The structure version whose hierarchy ``mode`` shows at ``t``:
        its own for a version mode; for ``tcm`` the one that covers ``t``,
        since versions are the maximal spans over which the structure does
        not change (§3.1).  ``None`` where none does: ``D(t)`` is empty."""
        if mode.version is not None:
            return mode.version
        try:
            return self.mode_for_instant(t).version
        except QueryError:
            return None


def build_modes(versions: Iterable[StructureVersion]) -> ModeSet:
    """Assemble ``TMP = {tcm, VM1, ..., VMN}`` from structure versions."""
    modes: list[PresentationMode] = [PresentationMode(TCM_LABEL, None)]
    modes.extend(PresentationMode(v.vsid, v) for v in versions)
    return ModeSet(modes)
