"""Analysis core: the paper's address-change attribution pipeline."""

from repro.core.association import GapCause, GapEvent
from repro.core.changes import (
    AddressChange,
    AddressSpan,
    extract_changes,
    extract_spans,
    known_durations,
    strip_testing_entry,
)
from repro.core.conditional import (
    OutageRenumberingRow,
    ProbeOutageStats,
    conditional_cdf_network,
    conditional_cdf_power,
    outage_renumbering_table,
    probe_outage_stats,
)
from repro.core.filtering import FilterReport, ProbeCategory, ProbeVerdict
from repro.core.geography import (
    GroupDurations,
    country_as_breakdown,
    durations_by_continent,
    durations_by_country,
)
from repro.core.hourofday import (
    concentration,
    hour_histogram,
    periodic_change_hours,
)
from repro.core.outage_buckets import (
    BUCKETS,
    DurationBucket,
    bucket_outages,
)
from repro.core.outages import NetworkOutage, detect_network_outages
from repro.core.periodicity import (
    PeriodicityRow,
    ProbePeriodicity,
    all_probes_row,
    as_periodicity_table,
    classify_probe,
    detect_probe_period,
    is_harmonic,
    max_within,
)
from repro.core.pipeline import (
    AnalysisPipeline,
    AnalysisResults,
    pipeline_for_bundle,
    pipeline_for_world,
)
from repro.core.prefixes import (
    PrefixChangeRow,
    prefix_change_table,
)
from repro.core.reboots import (
    Reboot,
    detect_firmware_days,
    detect_reboots,
    firmware_filtered_reboots,
    reboots_per_day,
    remove_firmware_reboots,
)
from repro.core.timefraction import (
    bin_duration,
    binned_time,
    dominant_duration,
    time_fraction_cdf,
    total_time_fraction,
)

__all__ = [
    "AddressChange",
    "AddressSpan",
    "AnalysisPipeline",
    "AnalysisResults",
    "BUCKETS",
    "DurationBucket",
    "FilterReport",
    "GapCause",
    "GapEvent",
    "GroupDurations",
    "NetworkOutage",
    "OutageRenumberingRow",
    "PeriodicityRow",
    "PrefixChangeRow",
    "ProbeCategory",
    "ProbeOutageStats",
    "ProbePeriodicity",
    "ProbeVerdict",
    "Reboot",
    "all_probes_row",
    "as_periodicity_table",
    "bin_duration",
    "binned_time",
    "bucket_outages",
    "classify_probe",
    "concentration",
    "conditional_cdf_network",
    "conditional_cdf_power",
    "country_as_breakdown",
    "detect_firmware_days",
    "detect_network_outages",
    "detect_probe_period",
    "detect_reboots",
    "dominant_duration",
    "durations_by_continent",
    "durations_by_country",
    "extract_changes",
    "extract_spans",
    "firmware_filtered_reboots",
    "hour_histogram",
    "is_harmonic",
    "known_durations",
    "max_within",
    "outage_renumbering_table",
    "periodic_change_hours",
    "pipeline_for_bundle",
    "pipeline_for_world",
    "prefix_change_table",
    "probe_outage_stats",
    "reboots_per_day",
    "remove_firmware_reboots",
    "strip_testing_entry",
    "time_fraction_cdf",
    "total_time_fraction",
]
