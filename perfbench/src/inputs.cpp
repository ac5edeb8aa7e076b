#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>

#include "bench.h"
#include "common/rng.h"

namespace perfbench {

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double peak_rss_mb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

bool profile_for(const std::string& workload, Profile* out) {
  Profile p;
  p.name = workload;
  if (workload == "steady_b8_64") {
    // The paper's prediction shape: smoke-scale SAU-FNO, B=8 at 64x64.
    p.model = "SAU-FNO";
    p.width = 12;
    p.modes = 8;
    p.unet_base = 12;
    p.unet_depth = 3;
    p.attn_dim = 12;
    p.grid_lo = 32;
    p.grid_hi = 64;
    // Wire traffic stays on the coarse grid: every batch size the batcher
    // forms is its own plan, and each plan keeps its arena, so 64x64 wire
    // shapes would hold several GB.
    p.wire_lo_share = 1.0;
    p.n_lo = 8;
    p.n_hi = 1;
    // A batch takes about 1.3 s and a transfer round about 2.5 s, so a
    // 10 s slice holds a few rounds of each.
    p.cycles = 4;
    p.wire_rate_window = 16;
    p.share_batches = 0.5;
    p.share_single = 0.15;
    p.share_wire = 0.1;
    p.share_transfer = 0.25;
  } else if (workload == "wire_mixed") {
    // Closed-loop serving of a tiny model: the serving stack dominates.
    p.model = "SAU-FNO-micro";
    p.width = 4;
    p.modes = 3;
    p.unet_base = 4;
    p.unet_depth = 2;
    p.attn_dim = 4;
    p.grid_lo = 12;
    p.grid_hi = 16;
    p.n_lo = 16;
    p.n_hi = 8;
    // A batch of 8 tiny maps is a few ms of thread hand-offs, whose speed
    // swings with the shared host from second to second; a fifth of the
    // run keeps its median steady.
    p.cycles = 10;
    p.wire_rate_window = 64;
    p.share_batches = 0.2;
    p.share_single = 0.1;
    p.share_wire = 0.5;
    p.share_transfer = 0.2;
  } else {
    return false;
  }
  *out = p;
  return true;
}

std::vector<Tensor> make_inputs(int n, int res, std::uint64_t seed) {
  const saufno::chip::ChipSpec spec = saufno::chip::make_chip1();
  const saufno::chip::PowerGenerator gen(spec);
  saufno::Rng rng(seed);
  const int64_t plane = static_cast<int64_t>(res) * res;
  std::vector<Tensor> out;
  for (int s = 0; s < n; ++s) {
    const auto maps = gen.rasterize(gen.sample(rng), res, res);
    Tensor t({kInChannels, res, res});
    float* p = t.data();
    for (std::size_t c = 0; c < maps.size(); ++c) {
      std::copy(maps[c].begin(), maps[c].end(), p + static_cast<int64_t>(c) * plane);
    }
    for (int i = 0; i < res; ++i) {
      for (int j = 0; j < res; ++j) {
        p[2 * plane + i * res + j] = res > 1 ? static_cast<float>(i) / (res - 1) : 0.f;
        p[3 * plane + i * res + j] = res > 1 ? static_cast<float>(j) / (res - 1) : 0.f;
      }
    }
    out.push_back(std::move(t));
  }
  return out;
}

saufno::data::Normalizer serving_normalizer(const std::vector<Tensor>& maps) {
  double sum = 0.0, sq = 0.0;
  int64_t cnt = 0;
  for (const Tensor& t : maps) {
    const int64_t plane = t.size(1) * t.size(2);
    for (int64_t i = 0; i < 2 * plane; ++i) {
      sum += t.data()[i];
      sq += static_cast<double>(t.data()[i]) * t.data()[i];
      ++cnt;
    }
  }
  const double mean = sum / static_cast<double>(cnt);
  const double sd = std::sqrt(std::max(sq / static_cast<double>(cnt) - mean * mean, 1e-12));
  return saufno::data::Normalizer::from_stats(
      saufno::chip::make_chip1().ambient, sd, 10.0, 2);
}

Tally& tally() {
  static Tally t;
  return t;
}

void check(bool ok, const std::string& what) {
  if (ok) return;
  tally().correct = false;
  std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
}

bool all_finite(const Tensor& t) {
  const float* p = t.data();
  for (int64_t i = 0; i < t.numel(); ++i) {
    if (!std::isfinite(p[i])) return false;
  }
  return true;
}

double rel_max_diff(const Tensor& a, const Tensor& b) {
  if (a.shape() != b.shape()) return std::numeric_limits<double>::infinity();
  double diff = 0.0, scale = 0.0;
  for (int64_t i = 0; i < a.numel(); ++i) {
    diff = std::max(diff, std::fabs(static_cast<double>(a.data()[i]) - b.data()[i]));
    scale = std::max(scale, std::fabs(static_cast<double>(b.data()[i])));
  }
  return diff / std::max(scale, 1e-30);
}

}  // namespace perfbench
