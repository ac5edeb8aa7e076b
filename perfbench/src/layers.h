// Per-layer probes of the traced run (layers.cpp).
#pragma once

#include <string>
#include <vector>

#include "phases.h"

namespace perfbench {

struct Metric {
  std::string name;
  double value;
  std::string unit;
};
using Metrics = std::vector<Metric>;

/// What the layer metrics need from the timed phases.
struct PhaseSummary {
  double batch_ms = 0.0;        // median engine batch latency
  double wire_batches = 0.0;    // wire-engine batches during the wire phase
  double wire_avg_batch = 0.0;  // requests per batch during the wire phase
};

/// Forwards the plan runners interpreted because a shape had no plan
/// (the process-wide `plan.fallbacks` counter).
double plan_fallbacks();

/// Appends every per-layer metric, measured at the workload's shapes.
void run_layer_probes(const Profile& p, std::uint64_t seed, Serving& s,
                      const PhaseSummary& ph, Metrics* out);

}  // namespace perfbench
