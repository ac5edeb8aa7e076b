// Shared declarations of the end-to-end benchmark (see perfbench/README.md).
//
// Everything here measures the library from outside: it only calls public
// functions of src/ and times them with its own clocks and spans.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "chip/chips.h"
#include "chip/power_gen.h"
#include "data/normalizer.h"
#include "tensor/tensor.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;
using saufno::Tensor;

double ms_since(Clock::time_point t0);
double median(std::vector<double> v);
/// Peak resident set of this process, MB.
double peak_rss_mb();

// --- spans (spans.cpp) -------------------------------------------------------
/// Spans are recorded only while enabled (`--trace 1`). Each thread keeps its
/// own parent stack, so a span's self time is its duration minus the
/// durations of the spans opened inside it on the same thread.
void spans_enable(bool on);
bool spans_enabled();

class Span {
 public:
  explicit Span(const char* name);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  const char* name_ = nullptr;
  int64_t t0_ns_ = 0;
  int64_t child_ns_ = 0;
  Span* parent_ = nullptr;
};

struct SpanStats {
  int64_t count = 0;
  double median_ms = 0.0;
  double total_ms = 0.0;
  double self_ms = 0.0;
};
std::map<std::string, SpanStats> span_summary();
/// Chrome trace-event JSON of every recorded span (loads in Perfetto).
bool spans_write_chrome(const std::string& path);

// --- workload profile and inputs (inputs.cpp) --------------------------------
/// One workload's shapes, model and time split. Every workload runs the same
/// phases (batches, lone maps, wire, transfer rounds) in its own terms; the
/// profile decides sizes and how the run's seconds are shared. The run is cut
/// into `cycles` equal slices and each slice runs every phase for its share,
/// so each metric samples the whole run rather than one stretch of it.
struct Profile {
  std::string name;
  std::string model;       // model-zoo name
  // The zoo's layer sizes for `model` (probed layer by layer when traced).
  int64_t width = 0, modes = 0, unet_base = 0, unet_depth = 0, attn_dim = 0;
  int grid_lo = 0;         // coarse grid: wire majority, low-fidelity set
  int grid_hi = 0;         // fine grid: engine batches, high-fidelity set
  double wire_lo_share = 0.75;
  int n_lo = 0;            // low-fidelity samples per transfer round
  int n_hi = 0;            // high-fidelity samples per transfer round
  int cycles = 1;          // slices of the run, each running every phase
  int wire_rate_window = 64;  // completions per wire_rps window
  // Shares of --seconds per phase (sum to 1).
  double share_batches = 0.0;
  double share_single = 0.0;
  double share_wire = 0.0;
  double share_transfer = 0.0;
};
bool profile_for(const std::string& workload, Profile* out);

constexpr int kBatch = 8;   // engine batch (the default max_batch) and training batch
constexpr int kConns = 2;   // wire connections
constexpr int kWindow = 8;  // wire requests in flight per connection

/// Chip1 has two device layers: inputs are [2 power + 2 coordinate, H, W],
/// outputs [2, H, W] kelvin maps.
constexpr int64_t kInChannels = 4;
constexpr int64_t kOutChannels = 2;

/// Power maps drawn by chip::PowerGenerator from `seed` and rasterized to
/// [4, res, res] model inputs (power channels then y, x coordinates, the
/// layout data::generate_dataset uses).
std::vector<Tensor> make_inputs(int n, int res, std::uint64_t seed);
/// Serving normalizer: power scale from the maps, a fixed 10 K rise scale.
saufno::data::Normalizer serving_normalizer(const std::vector<Tensor>& maps);

// --- results ------------------------------------------------------------------
struct Tally {
  int64_t attempted = 0;
  int64_t failed = 0;
  bool correct = true;
};
Tally& tally();
/// Records a failed correctness check (prints it to stderr).
void check(bool ok, const std::string& what);
bool all_finite(const Tensor& t);
/// Largest |a - b| over max(|b|), or +inf on a shape mismatch.
double rel_max_diff(const Tensor& a, const Tensor& b);

}  // namespace perfbench
