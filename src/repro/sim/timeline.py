"""Per-probe timeline simulation.

:class:`ProbeSimulator` walks one probe through the study year, producing
exactly the observable traces the paper works from:

* connection-log entries — the controller TCP connection breaks on address
  changes, probe/CPE reboots, outages, and benign TCP breaks;
* SOS-uptime records — reported at every connection establishment, with
  the counter resetting on reboots;
* power-off and network-down interval sets — the generative state behind
  the probe's k-root ping series.

The walker interleaves two event sources: the CPE's pre-sampled
interruptions (:mod:`repro.sim.outages`) and the ISP's scheduled session
cuts (:mod:`repro.isp.policy`).  Reconnect gaps follow the paper's
observation that an address change keeps TCP retrying for ~15-25 minutes,
while a plain reconnect returns within a few minutes.

Confounder behaviours — dual-stack family alternation, multihomed
fixed/dynamic alternation, the RIPE testing address, v1/v2 memory-
fragmentation reboots, firmware-update reboots — are all modelled here so
the filtering pipeline has real signals to detect.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.atlas.types import ConnectionLogEntry, ProbeVersion, UptimeRecord
from repro.errors import SimulationError
from repro.isp.policy import DhcpPlant, PppPlant
from repro.net.ipv4 import TESTING_ADDRESS, IPv4Address
from repro.sim.outages import Interruption, InterruptionKind
from repro.util.intervals import IntervalSet
from repro.util.timeutil import DAY, MINUTE

#: Reconnect delay bounds when the address changed (TCP retransmission
#: exhaustion per RFC 1122 4.2.3.5; the paper observes 15-25 minutes).
CHANGE_DELAY = (15 * MINUTE, 25 * MINUTE)
#: Reconnect delay bounds when the address did not change.
PLAIN_DELAY = (1 * MINUTE, 4 * MINUTE)
#: How long a probe takes to reboot (firmware installs, fragmentation).
REBOOT_DURATION = 3 * MINUTE
#: Dark window for a probe-only reboot: boot plus measurement resync.
#: Longer than the ping cadence so at least one round goes missing.
PROBE_REBOOT_OUTAGE = 5 * MINUTE


@dataclass(frozen=True)
class Segment:
    """One stretch of the year during which the probe sits in one ISP.

    Movers have two segments; everyone else has one.
    """

    plant: DhcpPlant | PppPlant | None
    cpe_id: str
    start: float
    end: float

    def __post_init__(self) -> None:
        if self.end <= self.start:
            raise SimulationError("segment window is empty")


@dataclass
class ProbeOutput:
    """Everything one probe contributes to the world's datasets.

    Connections and uptime reports are plain rows in the form
    :meth:`ConnectionLog.stage <repro.atlas.connlog.ConnectionLog.stage>`
    and :meth:`UptimeDataset.stage
    <repro.atlas.sosuptime.UptimeDataset.stage>` take; :attr:`entries`
    and :attr:`uptime_records` build record objects from them on demand.
    """

    probe_id: int
    #: ``(start, end, IPv4 value, IPv6 text)`` rows; the value is 0 on
    #: IPv6 rows and the text is None on IPv4 rows.
    connections: list[tuple[float, float, int, str | None]] = field(
        default_factory=list)
    #: ``(timestamp, uptime)`` rows.
    uptimes: list[tuple[float, float]] = field(default_factory=list)
    power_off: IntervalSet = field(default_factory=IntervalSet)
    network_down: IntervalSet = field(default_factory=IntervalSet)
    #: Ground truth: times at which the probe's IPv4 address changed.
    true_changes: list[float] = field(default_factory=list)

    @property
    def entries(self) -> list[ConnectionLogEntry]:
        """The connections as record objects (built on every access)."""
        return [ConnectionLogEntry(self.probe_id, start, end, None,
                                   ipv6_address=text)
                if text is not None else
                ConnectionLogEntry(self.probe_id, start, end,
                                   IPv4Address(value))
                for start, end, value, text in self.connections]

    @property
    def uptime_records(self) -> list[UptimeRecord]:
        """The uptime reports as record objects (built on every access)."""
        return [UptimeRecord(self.probe_id, timestamp, uptime)
                for timestamp, uptime in self.uptimes]


class ProbeSimulator:
    """Simulates one probe's year of connections.

    ``family_mode`` is ``"v4"``, ``"dual"`` or ``"v6"``; ``fixed_address``
    enables multihomed alternation between a fixed and the dynamic address;
    ``testing_first`` prepends a connection from the RIPE testing address.
    """

    def __init__(self, probe_id: int, rng: random.Random,
                 interruptions_by_segment: list[list[Interruption]],
                 segments: list[Segment],
                 version: ProbeVersion = ProbeVersion.V3,
                 fate_sharing: bool = True,
                 frag_reboot_prob: float = 0.0,
                 firmware_campaigns: tuple[float, ...] = (),
                 family_mode: str = "v4",
                 ipv6_address: str | None = None,
                 fixed_address: IPv4Address | None = None,
                 testing_first: bool = False) -> None:
        if family_mode not in ("v4", "dual", "v6"):
            raise SimulationError("unknown family mode %r" % family_mode)
        if family_mode in ("dual", "v6") and ipv6_address is None:
            raise SimulationError("family mode %r needs an IPv6 address"
                                  % family_mode)
        if len(interruptions_by_segment) != len(segments):
            raise SimulationError("one interruption list per segment required")
        if not segments:
            raise SimulationError("at least one segment required")
        self.probe_id = probe_id
        self._rng = rng
        self._segments = segments
        self._interruptions = interruptions_by_segment
        self._version = version
        self._fate_sharing = fate_sharing
        self._frag_prob = (frag_reboot_prob
                           if version is not ProbeVersion.V3 else 0.0)
        self._campaigns = sorted(firmware_campaigns)
        self._family_mode = family_mode
        self._ipv6_address = ipv6_address
        self._fixed_address = fixed_address
        # Mutable walk state.
        self._out = ProbeOutput(probe_id)
        self._last_boot = 0.0
        self._applied_campaigns = 0
        self._connection_index = 0
        self._testing_first = testing_first

    # -- public ------------------------------------------------------------

    def run(self) -> ProbeOutput:
        """Walk all segments and return the probe's dataset contributions."""
        first_start = self._segments[0].start
        self._last_boot = first_start - self._rng.uniform(0, 30 * DAY)
        previous_end: float | None = None
        for segment, interruptions in zip(self._segments,
                                          self._interruptions):
            if previous_end is not None and segment.start < previous_end:
                raise SimulationError("segments overlap")
            self._walk_segment(segment, interruptions)
            previous_end = segment.end
        return self._out

    # -- walk --------------------------------------------------------------

    def _walk_segment(self, segment: Segment,
                      interruptions: list[Interruption]) -> None:
        plant = segment.plant
        clock = segment.start
        if self._testing_first:
            # Pre-shipment test connection from the RIPE NCC lab.
            self._emit_entry(clock, clock + 10 * MINUTE, TESTING_ADDRESS,
                             force_v4=True)
            clock += 20 * MINUTE
            self._testing_first = False

        address = (plant.connect(segment.cpe_id, clock)
                   if plant is not None else None)
        session_start = clock
        conn_start = clock
        next_cut = (plant.scheduled_cut(segment.cpe_id, session_start)
                    if plant is not None else None)
        self._emit_uptime(conn_start)

        index = 0
        while True:
            upcoming = interruptions[index] if index < len(interruptions) else None
            cut = next_cut
            if cut is not None and cut <= segment.end and (
                    upcoming is None or cut <= upcoming.start):
                # Scheduled periodic cut fires first.
                cut_at = max(cut, conn_start + MINUTE)
                self._emit_entry(conn_start, cut_at, address)
                assert isinstance(plant, PppPlant)
                plant.periodic_cut(segment.cpe_id, cut_at)
                reconnect = cut_at + self._delay(changed=True)
                reconnect = self._gap_reboots(cut_at, reconnect,
                                              address_changed=True)
                address = plant.connect(segment.cpe_id, cut_at)
                self._out.true_changes.append(cut_at)
                session_start = cut_at
                next_cut = plant.scheduled_cut(segment.cpe_id, session_start)
                conn_start = reconnect
                self._emit_uptime(conn_start)
                index = self._skip_interruptions(interruptions, index,
                                                 reconnect)
                continue
            if upcoming is None or upcoming.start >= segment.end:
                break
            index += 1
            if upcoming.start <= conn_start:
                continue  # swallowed by a previous gap
            changed, reconnect, new_address = self._handle_interruption(
                segment, upcoming, conn_start, address)
            if changed:
                self._out.true_changes.append(upcoming.end)
                session_start = upcoming.end
                if plant is not None:
                    next_cut = plant.scheduled_cut(segment.cpe_id,
                                                   session_start)
            address = new_address
            conn_start = reconnect
            self._emit_uptime(conn_start)
            index = self._skip_interruptions(interruptions, index, reconnect)

        if conn_start < segment.end:
            self._emit_entry(conn_start, segment.end, address)
        if plant is not None and isinstance(plant, PppPlant) and \
                plant.concentrator.active_session(segment.cpe_id) is not None:
            # Close the books so a mover's first ISP does not leak sessions.
            plant.concentrator.disconnect(segment.cpe_id, segment.end,
                                          cause="Probe-Moved")

    def _handle_interruption(self, segment: Segment, event: Interruption,
                             conn_start: float,
                             address: IPv4Address | None
                             ) -> tuple[bool, float, IPv4Address | None]:
        """Process one interruption; returns (changed, reconnect, address)."""
        self._emit_entry(conn_start, event.start, address)
        plant = segment.plant
        if event.kind is InterruptionKind.BREAK:
            reconnect = event.start + self._delay(changed=False)
            reconnect = self._gap_reboots(event.start, reconnect,
                                          address_changed=False)
            return False, reconnect, address
        if event.kind is InterruptionKind.ADMIN:
            # ISP-scheduled mass renumbering: the session drops and comes
            # back with an address from the migration prefix.
            if plant is None:
                reconnect = event.start + self._delay(changed=False)
                return False, reconnect, address
            new_address = plant.admin_renumber(segment.cpe_id, event.start)
            reconnect = event.start + self._delay(changed=True)
            reconnect = self._gap_reboots(event.start, reconnect,
                                          address_changed=True)
            return True, reconnect, new_address
        if event.kind is InterruptionKind.PROBE_REBOOT:
            # Only the probe restarts: the CPE keeps its session and
            # address, but the uptime counter resets and a few ping rounds
            # go missing — a false-positive power outage for the analysis.
            boot_end = event.start + PROBE_REBOOT_OUTAGE
            self._out.power_off.add_span(event.start, boot_end)
            self._last_boot = boot_end
            reconnect = boot_end + self._delay(changed=False)
            return False, reconnect, address

        cpe_lost_power = event.kind is InterruptionKind.POWER
        if cpe_lost_power and self._fate_sharing:
            # The probe is USB-powered from the CPE: it goes dark too.
            self._out.power_off.add_span(event.start, event.end)
            self._last_boot = event.end
        else:
            # The probe stays up and watches its pings fail.
            self._out.network_down.add_span(event.start, event.end)

        if plant is None:
            changed = False
        else:
            outcome = plant.reconnect(segment.cpe_id, event.start, event.end,
                                      lost_power=cpe_lost_power)
            changed = outcome.changed
            address = outcome.address
        reconnect = event.end + self._delay(changed)
        reconnect = self._gap_reboots(event.end, reconnect,
                                      address_changed=changed)
        return changed, reconnect, address

    def _skip_interruptions(self, interruptions: list[Interruption],
                            index: int, horizon: float) -> int:
        """Drop events that would start while the probe is still reconnecting."""
        while (index < len(interruptions)
               and interruptions[index].start <= horizon):
            index += 1
        return index

    # -- gap-side effects ----------------------------------------------------

    def _gap_reboots(self, gap_start: float, reconnect: float,
                     address_changed: bool) -> float:
        """Model firmware-install and fragmentation reboots inside a gap.

        The reboot dark window starts when the connection broke and never
        reaches back into the preceding connection; a reboot longer than
        the planned gap pushes the reconnect out.  Returns the (possibly
        extended) reconnect time.
        """
        rebooted = False
        while (self._applied_campaigns < len(self._campaigns)
               and self._campaigns[self._applied_campaigns] <= gap_start):
            self._applied_campaigns += 1
            rebooted = True
        if not rebooted and address_changed and \
                self._rng.random() < self._frag_prob:
            # v1/v2 memory fragmentation: new connections can reboot the
            # probe (Section 5.1), a false-positive power outage.
            rebooted = True
        if rebooted:
            boot_end = gap_start + REBOOT_DURATION
            self._out.power_off.add_span(gap_start, boot_end)
            self._last_boot = boot_end
            reconnect = max(reconnect, boot_end + MINUTE)
        return reconnect

    # -- emission ------------------------------------------------------------

    def _delay(self, changed: bool) -> float:
        low, high = CHANGE_DELAY if changed else PLAIN_DELAY
        return self._rng.uniform(low, high)

    def _emit_uptime(self, timestamp: float) -> None:
        rows = self._out.uptimes
        if rows and timestamp < rows[-1][0]:
            raise SimulationError(
                "probe %d: uptime record at %s out of order"
                % (self.probe_id, timestamp))
        rows.append((timestamp, max(0.0, timestamp - self._last_boot)))

    def _emit_entry(self, start: float, end: float,
                    address: IPv4Address | None,
                    force_v4: bool = False) -> None:
        if end <= start:
            return
        rows = self._out.connections
        if rows and start < rows[-1][1]:
            raise SimulationError(
                "probe %d: connection starting %s overlaps previous one"
                % (self.probe_id, start))
        self._connection_index += 1
        use_v6 = False
        if not force_v4:
            if self._family_mode == "v6":
                use_v6 = True
            elif self._family_mode == "dual":
                use_v6 = self._rng.random() < 0.5
        if use_v6:
            rows.append((start, end, 0, self._ipv6_address))
            return
        chosen = address
        if (self._fixed_address is not None
                and self._connection_index % 2 == 0):
            chosen = self._fixed_address
        if chosen is None:
            # IPv4 leg of a probe with no IPv4 plant cannot be emitted.
            raise SimulationError(
                "probe %d has no IPv4 address to report" % self.probe_id
            )
        rows.append((start, end, chosen.value, None))
