// The timed phases every workload runs: engine batches, lone maps, closed-
// loop wire serving and transfer-learning rounds. Each call runs one slice
// of a phase: whole rounds of the same operation until the slice's budget
// is spent. The results of every slice are pooled, and reported as medians
// over rounds.
#include <algorithm>
#include <cstdio>
#include <deque>
#include <thread>

#include "common/rng.h"
#include "data/generator.h"
#include "phases.h"
#include "serve/client.h"
#include "train/model_zoo.h"
#include "train/transfer.h"

namespace perfbench {

namespace rt = saufno::runtime;
namespace serve = saufno::serve;
using saufno::NoGradGuard;
using saufno::Var;

namespace {

// Served results must equal an in-process forward of the same input. The
// serving contract is bit-identical; the tolerance only leaves room for a
// kernel that legitimately reorders a float sum.
constexpr double kServeTol = 1e-5;

std::shared_ptr<rt::InferenceEngine> make_engine(const Profile& p, std::uint64_t seed,
                                                 const saufno::data::Normalizer& norm) {
  rt::InferenceEngine::Config cfg;  // plan mode and batch partitions at defaults
  cfg.max_batch = kBatch;
  cfg.expected_in_channels = kInChannels;
  return std::make_shared<rt::InferenceEngine>(
      saufno::train::make_model(p.model, kInChannels, kOutChannels, seed), norm, cfg);
}

/// Submit `maps[first .. first+n)` (cyclic) together and wait for every
/// result; failed requests are counted and leave an undefined tensor.
std::vector<Tensor> submit_all(rt::InferenceEngine& e, const std::vector<Tensor>& maps,
                               std::size_t first, int n) {
  std::vector<std::future<Tensor>> fs;
  std::vector<Tensor> out(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    try {
      fs.push_back(e.submit(maps[(first + static_cast<std::size_t>(i)) % maps.size()]));
    } catch (const std::exception& ex) {
      fs.emplace_back();
      std::fprintf(stderr, "submit failed: %s\n", ex.what());
    }
  }
  for (int i = 0; i < n; ++i) {
    ++tally().attempted;
    try {
      out[static_cast<std::size_t>(i)] = fs[static_cast<std::size_t>(i)].get();
    } catch (const std::exception& ex) {
      ++tally().failed;
      std::fprintf(stderr, "request failed: %s\n", ex.what());
    }
  }
  return out;
}

}  // namespace

Serving::~Serving() {
  for (auto& c : clients) c.close();
  if (server) server->stop();
}

void setup_serving(const Profile& p, std::uint64_t seed, Serving* s) {
  Span span("setup.serving");
  s->maps_hi = make_inputs(16, p.grid_hi, seed * 7919 + 1);
  s->wire_lo = make_inputs(6, p.grid_lo, seed * 7919 + 2);
  s->wire_hi = make_inputs(2, p.grid_hi, seed * 7919 + 3);
  s->norm = serving_normalizer(s->maps_hi);
  s->engine = make_engine(p, seed, s->norm);
  s->wire_engine = make_engine(p, seed, s->norm);

  // In-process references for the wire templates, made before any load.
  auto ref_model = saufno::train::make_model(p.model, kInChannels, kOutChannels, seed);
  ref_model->set_training(false);
  const auto forward_one = [&](const Tensor& x) {
    NoGradGuard ng;
    Tensor in = s->norm.encode_inputs(x.reshape({1, x.size(0), x.size(1), x.size(2)}));
    Tensor y = s->norm.decode_targets(ref_model->forward(Var(in)).value());
    return y.reshape({y.size(1), y.size(2), y.size(3)});
  };
  for (const Tensor& t : s->wire_lo) s->ref_lo.push_back(forward_one(t));
  for (const Tensor& t : s->wire_hi) s->ref_hi.push_back(forward_one(t));

  s->fleet = std::make_shared<serve::Fleet>(serve::Fleet::Config{});
  s->fleet->add_engine("bench", s->wire_engine);
  serve::Server::Config scfg;
  scfg.default_model = "bench";
  scfg.max_conns = kConns + 2;
  s->server = std::make_unique<serve::Server>(s->fleet, scfg);
  s->server->start();

  // Warm-up to the first timed operation: compile the plans of every shape
  // the phases serve (each batch size the wire batcher can form, on both
  // grids) and touch every code path once. Results are discarded.
  (void)submit_all(*s->engine, s->maps_hi, 0, kBatch);
  (void)submit_all(*s->engine, s->maps_hi, 0, 1);
  for (int b = 1; b <= kBatch; ++b) {
    (void)submit_all(*s->wire_engine, s->wire_lo, 0, b);
    if (p.wire_lo_share < 1.0) (void)submit_all(*s->wire_engine, s->wire_hi, 0, b);
  }
  s->clients.resize(static_cast<std::size_t>(kConns));
  for (serve::Client& c : s->clients) {
    c.connect("127.0.0.1", s->server->port());
    for (int i = 0; i < kWindow; ++i) c.send_infer(s->wire_lo[static_cast<std::size_t>(i) % s->wire_lo.size()]);
    for (int i = 0; i < kWindow; ++i) (void)c.recv_response();
    (void)c.ping();
  }
}

void run_batches(Serving& s, double budget_s, std::vector<double>* ms,
                 std::vector<Tensor>* first) {
  const auto end = Clock::now() + std::chrono::duration<double>(budget_s);
  for (std::size_t r = 0; r == 0 || Clock::now() < end; ++r) {
    const auto t0 = Clock::now();
    std::vector<Tensor> out;
    {
      Span span("runtime.engine.batch");
      out = submit_all(*s.engine, s.maps_hi, r * static_cast<std::size_t>(kBatch), kBatch);
    }
    ms->push_back(ms_since(t0));
    for (const Tensor& t : out) check(t.defined() && all_finite(t), "batch output not finite");
    if (r == 0 && first != nullptr) *first = std::move(out);
  }
}

void run_single(Serving& s, double budget_s, std::size_t min_rounds,
                const std::vector<Tensor>* batch_out, std::vector<double>* ms) {
  const auto end = Clock::now() + std::chrono::duration<double>(budget_s);
  for (std::size_t r = 0; r < min_rounds || Clock::now() < end; ++r) {
    const auto t0 = Clock::now();
    std::vector<Tensor> out;
    {
      Span span("runtime.engine.single");
      out = submit_all(*s.engine, s.maps_hi, r, 1);
    }
    ms->push_back(ms_since(t0));
    const Tensor& y = out[0];
    check(y.defined() && all_finite(y), "lone-map output not finite");
    // The first lone maps are the maps of the first engine batch: a map's
    // result must not depend on the batch it was served in.
    if (batch_out != nullptr && r < batch_out->size() && y.defined() &&
        (*batch_out)[r].defined()) {
      check(rel_max_diff(y, (*batch_out)[r]) <= kServeTol,
            "lone-map result differs from its batched result");
    }
  }
}

void run_wire(const Profile& p, Serving& s, std::uint64_t seed, std::uint64_t stream,
              double budget_s, WireTotals* out) {
  std::vector<std::vector<double>> lat(static_cast<std::size_t>(kConns));
  std::vector<int64_t> done(static_cast<std::size_t>(kConns), 0);
  std::vector<int64_t> bad(static_cast<std::size_t>(kConns), 0);
  std::vector<int64_t> lost(static_cast<std::size_t>(kConns), 0);
  std::vector<std::vector<Clock::time_point>> done_at(static_cast<std::size_t>(kConns));
  const auto end = Clock::now() + std::chrono::duration<double>(budget_s);
  std::vector<std::thread> threads;
  for (int ci = 0; ci < kConns; ++ci) {
    threads.emplace_back([&, ci] {
      const std::size_t c = static_cast<std::size_t>(ci);
      Span span("wire.connection");
      saufno::Rng rng((seed * 104729 + stream) * kConns + c);
      struct Pending {
        const Tensor* ref;
        Clock::time_point sent;
      };
      std::deque<Pending> inflight;
      serve::Client& client = s.clients[c];
      bool sending = true;
      try {
        while (true) {
          while (sending && static_cast<int>(inflight.size()) < kWindow) {
            const bool lo = rng.uniform() < p.wire_lo_share;
            const auto& pool = lo ? s.wire_lo : s.wire_hi;
            const std::size_t k = static_cast<std::size_t>(rng.next_below(pool.size()));
            inflight.push_back({lo ? &s.ref_lo[k] : &s.ref_hi[k], Clock::now()});
            client.send_infer(pool[k]);
          }
          if (inflight.empty()) break;
          serve::Response r = client.recv_response();
          const auto now = Clock::now();
          const Pending pend = inflight.front();
          inflight.pop_front();
          ++done[c];
          lat[c].push_back(std::chrono::duration<double, std::milli>(now - pend.sent).count());
          done_at[c].push_back(now);
          if (!r.ok() || !r.has_tensor || rel_max_diff(r.tensor, *pend.ref) > kServeTol) ++bad[c];
          sending = now < end;
        }
      } catch (const std::exception& ex) {
        lost[c] += static_cast<int64_t>(inflight.size());
        std::fprintf(stderr, "wire connection %zu: %s\n", c, ex.what());
      }
    });
  }
  for (auto& t : threads) t.join();
  std::vector<Clock::time_point> times;
  for (std::size_t c = 0; c < lat.size(); ++c) {
    out->latency_ms.insert(out->latency_ms.end(), lat[c].begin(), lat[c].end());
    out->requests += done[c];
    tally().attempted += done[c] + lost[c];
    tally().failed += lost[c];
    check(bad[c] == 0, "wire response differs from the in-process forward");
    check(lost[c] == 0, "wire requests left unanswered");
    times.insert(times.end(), done_at[c].begin(), done_at[c].end());
  }
  // Throughput is taken over windows of consecutive completions, so a
  // stall of the whole machine moves one window, not the figure. A slice
  // too short for two windows gives one rate over all its completions.
  const std::size_t w = static_cast<std::size_t>(p.wire_rate_window);
  std::sort(times.begin(), times.end());
  const std::size_t before = out->rates.size();
  for (std::size_t k = w; k < times.size(); k += w) {
    out->rates.push_back(w / std::chrono::duration<double>(times[k] - times[k - w]).count());
  }
  if (out->rates.size() < before + 2 && times.size() > 1) {
    out->rates.resize(before);
    out->rates.push_back(static_cast<double>(times.size() - 1) /
                         std::chrono::duration<double>(times.back() - times.front()).count());
  }
}

TransferRound run_transfer_round(const Profile& p, std::uint64_t seed) {
  namespace data = saufno::data;
  TransferRound r;
  const saufno::chip::ChipSpec spec = saufno::chip::make_chip1();
  data::GenConfig lo_cfg, hi_cfg;
  lo_cfg.resolution = p.grid_lo;
  lo_cfg.n_samples = p.n_lo;
  lo_cfg.seed = seed;
  lo_cfg.cache = false;
  hi_cfg = lo_cfg;
  hi_cfg.resolution = p.grid_hi;
  hi_cfg.n_samples = p.n_hi;
  hi_cfg.seed = seed + 1;

  auto t0 = Clock::now();
  data::Dataset lo, hi;
  {
    Span span("data.generate_dataset.lo");
    lo = data::generate_dataset(spec, lo_cfg);
  }
  {
    Span span("data.generate_dataset.hi");
    hi = data::generate_dataset(spec, hi_cfg);
  }
  r.fdm_seconds = ms_since(t0) * 1e-3;
  r.fdm_solves = p.n_lo + p.n_hi;

  const auto norm = data::Normalizer::fit(lo, spec.num_device_layers());
  auto model = saufno::train::make_model(p.model, kInChannels, kOutChannels, seed);
  auto cfg = saufno::train::TransferConfig::defaults();
  cfg.pretrain.epochs = 1;
  cfg.pretrain.batch_size = kBatch;
  cfg.pretrain.seed = seed;
  cfg.finetune.epochs = 1;
  cfg.finetune.batch_size = kBatch;
  cfg.finetune.seed = seed + 1;
  t0 = Clock::now();
  {
    Span span("train.transfer_train");
    (void)saufno::train::transfer_train(*model, norm, lo, hi, cfg);
  }
  r.train_seconds = ms_since(t0) * 1e-3;
  r.train_samples = p.n_lo + p.n_hi;
  return r;
}

}  // namespace perfbench
