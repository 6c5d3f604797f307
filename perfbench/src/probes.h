// Layer probes: each times one layer's public calls from outside, on the
// world the traced pass finished with, after the end-to-end passes are
// done -- so a probe never perturbs an end-to-end number.
#pragma once

#include <cstdint>

#include "harness.h"
#include "workloads.h"

namespace kkt::perfbench {

struct ProbeResult {
  double incident_ns_per_edge = 0;   // graph: full Graph::incident scan
  double premark_s = 0;              // graph: kruskal_msf + marking
  double run_ns = 0;                 // sim: one-message Network::run
  double sync_ns_per_msg = 0;        // sim: bulk ping/pong, sync policy
  double async_ns_per_msg = 0;       // sim: bulk ping/pong, async policy
  double bcast_echo_ns_per_msg = 0;  // proto: TreeOps::broadcast_echo
  double odd_hash_ns = 0;            // hashing: OddHash::parity per key
  bool ok = true;                    // every probe's own output checked
};

// Each probe's figure is scaled to the reference host speed measured just
// before it (HostSpeed).
ProbeResult run_probes(const WorkloadDef& def, std::uint64_t seed,
                       scenario::World& world, Tracer& tracer,
                       HostSpeed& speed);

}  // namespace kkt::perfbench
