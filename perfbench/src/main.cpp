// perfbench: one run of one workload of the end-to-end benchmark.
//
//   perfbench --workload <steady_b8_64|wire_mixed>
//             --seed <n> --seconds <s> --trace <0|1> [--out-dir <dir>]
//
// Prints progress and checks on stderr, and as the last stdout line one JSON
// object {correct, attempted, failed, metrics}: the end-to-end metrics, or
// with --trace 1 the per-layer metrics (the traced end-to-end numbers are
// printed on the line before it). See perfbench/README.md.
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "checks.h"
#include "layers.h"
#include "runtime/thread_pool.h"

namespace {

// Set during static initialization, before main: the process's start.
const perfbench::Clock::time_point g_process_start = perfbench::Clock::now();

void print_metrics_json(const perfbench::Metrics& ms) {
  std::printf("{");
  for (std::size_t i = 0; i < ms.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                ms[i].name.c_str(), ms[i].value, ms[i].unit.c_str());
  }
  std::printf("}");
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <steady_b8_64|wire_mixed> "
               "--seed <n> --seconds <s> --trace <0|1> [--out-dir <dir>]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  std::string workload, out_dir = ".";
  std::uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") workload = v;
    else if (k == "--seed") seed = std::strtoull(v.c_str(), nullptr, 10);
    else if (k == "--seconds") seconds = std::atof(v.c_str());
    else if (k == "--trace") trace = std::atoi(v.c_str());
    else if (k == "--out-dir") out_dir = v;
    else return usage();
  }
  Profile p;
  if (!profile_for(workload, &p) || seconds <= 0.0 || (trace != 0 && trace != 1)) return usage();

  // Two pool threads leave the other cores to the batcher, the server's
  // connection threads and the clients, so a run does not contend with
  // itself; a second core of headroom also keeps runs steadier on a shared
  // host.
  const int threads = static_cast<int>(std::min(2u, std::max(1u, std::thread::hardware_concurrency())));
  saufno::runtime::ThreadPool::instance().resize(threads);
  spans_enable(trace == 1);
  std::fprintf(stderr, "workload %s: model %s, grids %d/%d, batch %d, %d pool threads, "
               "seed %llu, %.0f s\n", p.name.c_str(), p.model.c_str(), p.grid_lo, p.grid_hi,
               kBatch, threads, static_cast<unsigned long long>(seed), seconds);

  Metrics e2e, layers;
  {
    Serving s;
    setup_serving(p, seed, &s);
    const double setup_s = ms_since(g_process_start) * 1e-3;

    // Every slice runs every phase for its share, so a slow stretch of the
    // host lands on a few rounds of each metric, not on all of one.
    const double slice = seconds / p.cycles;
    std::vector<double> batch_ms, single_ms;
    TransferRound transfer;  // summed over every round of the run
    std::vector<Tensor> first_batch;
    WireTotals wire;
    std::uint64_t transfer_rounds = 0;
    const auto before = s.wire_engine->stats();
    for (int c = 0; c < p.cycles; ++c) {
      const bool first = c == 0;
      run_batches(s, slice * p.share_batches, &batch_ms, first ? &first_batch : nullptr);
      run_single(s, slice * p.share_single, first ? kBatch : 1, first ? &first_batch : nullptr,
                 &single_ms);
      run_wire(p, s, seed, static_cast<std::uint64_t>(c), slice * p.share_wire, &wire);
      const auto t_end = Clock::now() + std::chrono::duration<double>(slice * p.share_transfer);
      for (bool once = true; once || Clock::now() < t_end; once = false) {
        const TransferRound tr = run_transfer_round(p, seed * 1000 + transfer_rounds++);
        ++tally().attempted;
        transfer.fdm_solves += tr.fdm_solves;
        transfer.fdm_seconds += tr.fdm_seconds;
        transfer.train_samples += tr.train_samples;
        transfer.train_seconds += tr.train_seconds;
      }
    }
    const auto after = s.wire_engine->stats();

    const double batch_med = median(batch_ms);
    e2e = {
        {"setup_s", setup_s, "s"},
        {"peak_rss_mb", peak_rss_mb(), "MB"},
        {"steady_maps_per_s", kBatch * 1e3 / batch_med, "maps/s"},
        {"single_map_ms", median(single_ms), "ms"},
        {"wire_rps", median(wire.rates), "req/s"},
        {"wire_p50_ms", median(wire.latency_ms), "ms"},
        // A run holds only a few transfer rounds on steady_b8_64, too few
        // for a steady median: these are total work over total time.
        {"fdm_solves_per_s", transfer.fdm_solves / transfer.fdm_seconds, "solves/s"},
        {"train_samples_per_s", transfer.train_samples / transfer.train_seconds, "samples/s"},
    };
    std::fprintf(stderr, "rounds in %d slices: %zu batches, %zu lone maps, %lld wire requests, "
                 "%zu transfer\n", p.cycles, batch_ms.size(), single_ms.size(),
                 static_cast<long long>(wire.requests),
                 static_cast<std::size_t>(transfer_rounds));

    check_attention(p, seed);
    check_fdm_physics(p, seed);
    check_gradient(p, seed);
    check_training(p, seed);

    PhaseSummary ph;
    ph.batch_ms = batch_med;
    ph.wire_batches = static_cast<double>(after.batches - before.batches);
    ph.wire_avg_batch = static_cast<double>(after.requests - before.requests) /
                        std::max<double>(1.0, ph.wire_batches);
    if (trace == 1) run_layer_probes(p, seed, s, ph, &layers);
    std::fprintf(stderr, "plan.fallbacks %.0f (plan cache: %zu + %zu shapes)\n",
                 plan_fallbacks(),
                 s.engine->plan_runner().cache_size(), s.wire_engine->plan_runner().cache_size());
  }
  saufno::runtime::ThreadPool::instance().resize(1);

  if (trace == 1) {
    const std::string path = out_dir + "/" + p.name + "_seed" + std::to_string(seed) + "_trace.json";
    if (!spans_write_chrome(path)) std::fprintf(stderr, "could not write %s\n", path.c_str());
    std::fprintf(stderr, "%-34s %8s %12s %12s %12s\n", "span", "count", "median_ms", "total_ms", "self_ms");
    for (const auto& [name, st] : span_summary()) {
      std::fprintf(stderr, "%-34s %8lld %12.3f %12.3f %12.3f\n", name.c_str(),
                   static_cast<long long>(st.count), st.median_ms, st.total_ms, st.self_ms);
    }
    std::printf("traced_end_to_end ");
    print_metrics_json(e2e);
    std::printf("\n");
  }
  const Tally& t = tally();
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, \"metrics\": ",
              t.correct ? "true" : "false", static_cast<long long>(t.attempted),
              static_cast<long long>(t.failed));
  print_metrics_json(trace == 1 ? layers : e2e);
  std::printf("}\n");
  return 0;
}
