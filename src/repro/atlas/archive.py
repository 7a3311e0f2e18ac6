"""Probe archive: metadata registry plus country/continent geography.

The paper resolves each probe's country through the RIPE Atlas probe
database and aggregates to continents for Figure 1.  We keep the same
two-step structure: probes carry an ISO country code, and
:data:`COUNTRY_TO_CONTINENT` maps the countries appearing in our scenarios
onto the two-letter continent codes the paper's legend uses
(EU, NA, AS, AF, SA, OC).
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable, Iterator

from repro.atlas.types import ProbeMeta, ProbeVersion
from repro.errors import DatasetError

#: ISO 3166 alpha-2 country -> continent code used by the paper's Figure 1.
COUNTRY_TO_CONTINENT: dict[str, str] = {
    # Europe
    "DE": "EU", "FR": "EU", "GB": "EU", "NL": "EU", "IT": "EU", "BE": "EU",
    "AT": "EU", "HR": "EU", "PL": "EU", "HU": "EU", "RU": "EU", "ES": "EU",
    "SE": "EU", "CH": "EU", "CZ": "EU", "PT": "EU", "GR": "EU", "IE": "EU",
    "NO": "EU", "FI": "EU", "DK": "EU", "UA": "EU", "RO": "EU",
    # North America
    "US": "NA", "CA": "NA", "MX": "NA",
    # Asia
    "JP": "AS", "IN": "AS", "CN": "AS", "KZ": "AS", "SG": "AS", "KR": "AS",
    "ID": "AS", "TR": "AS", "IL": "AS", "TH": "AS",
    # Africa
    "ZA": "AF", "KE": "AF", "EG": "AF", "MU": "AF", "SN": "AF", "NG": "AF",
    # South America
    "BR": "SA", "AR": "SA", "CL": "SA", "UY": "SA", "CO": "SA", "PE": "SA",
    # Oceania
    "AU": "OC", "NZ": "OC",
}

CONTINENTS = ("EU", "NA", "AS", "AF", "SA", "OC")


def continent_of(country: str) -> str:
    """Return the continent code for a country; raises when unknown."""
    try:
        return COUNTRY_TO_CONTINENT[country]
    except KeyError:
        raise DatasetError("no continent mapping for country %r" % country) from None


class ProbeArchive:
    """Registry of probe metadata, the analogue of the RIPE probe archive."""

    def __init__(self, probes: Iterable[ProbeMeta] = ()) -> None:
        self._probes: dict[int, ProbeMeta] = {}
        for meta in probes:
            self.add(meta)

    def __len__(self) -> int:
        return len(self._probes)

    def __iter__(self) -> Iterator[ProbeMeta]:
        for probe_id in sorted(self._probes):
            yield self._probes[probe_id]

    def add(self, meta: ProbeMeta) -> None:
        """Register a probe; duplicate ids are rejected."""
        if meta.probe_id in self._probes:
            raise DatasetError("probe %d already registered" % meta.probe_id)
        if meta.continent not in CONTINENTS:
            raise DatasetError("unknown continent %r" % meta.continent)
        self._probes[meta.probe_id] = meta

    def get(self, probe_id: int) -> ProbeMeta:
        """Return a probe's metadata; raises when absent."""
        try:
            return self._probes[probe_id]
        except KeyError:
            raise DatasetError("probe %d not in archive" % probe_id) from None

    def has_probe(self, probe_id: int) -> bool:
        """True when the probe is registered."""
        return probe_id in self._probes

    def probe_ids(self) -> list[int]:
        """All probe ids, sorted."""
        return sorted(self._probes)

    def count_by_country(self) -> Counter:
        """Probe counts keyed by country code."""
        return Counter(meta.country for meta in self._probes.values())

    def count_by_continent(self) -> Counter:
        """Probe counts keyed by continent code."""
        return Counter(meta.continent for meta in self._probes.values())

    def count_by_version(self) -> Counter:
        """Probe counts keyed by hardware version."""
        return Counter(meta.version for meta in self._probes.values())

    def probes_with_version(self, version: ProbeVersion) -> list[int]:
        """Probe ids running the given hardware version."""
        return sorted(pid for pid, meta in self._probes.items()
                      if meta.version is version)
