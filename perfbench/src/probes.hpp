// Layer probes for the traced run: bench-owned Scheduler and Medium
// instances driven with a workload's geometry, listener share and timer
// mix, timed from outside. They isolate one layer's cost per operation
// where the full scenario mixes every layer into one number.
#pragma once

#include <cstdint>
#include <string>

#include "bench.hpp"

namespace perfbench {

/// Fill the probe fields of `l` for `workload` (the others stay 0):
///   fleet_sleepy:
///     scheduler.probe_ns_per_event — a bench-owned Scheduler with the
///       fleet's timer mix: 40,000 periodic 60 s device timers, each wake
///       followed by a chain of 15 short timers (the CSMA, airtime and
///       power-phase events of one duty cycle; the fleet runs ~16.5
///       scheduler events per device cycle) and one backoff timer that
///       is scheduled and then cancelled, advanced with run_until in 1 s
///       steps; ns per fired event.
///     medium.probe_ns_per_tx.sleepy — the fleet's geometry: 40,000
///       clients on a 5 m grid listening only at the 16 gateway slots;
///       ns per transmission, delivery scan included.
///   fleet_wur_listen:
///     medium.probe_ns_per_delivery.listen — the fleet's geometry: 4,000
///       clients on a 5 m grid, all listening, wake frames from the AP at
///       the grid centre; ns per delivery.
void run_probes(Layers& l, const std::string& workload, std::uint64_t seed);

}  // namespace perfbench
