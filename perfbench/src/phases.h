// The timed phases shared by every workload (phases.cpp).
#pragma once

#include <memory>
#include <vector>

#include "bench.h"
#include "runtime/inference_engine.h"
#include "serve/client.h"
#include "serve/fleet.h"
#include "serve/server.h"

namespace perfbench {

/// Engines, server and inputs of one run. `engine` serves the in-process
/// batches and lone maps; `wire_engine` sits behind the TCP server, so its
/// stats cover wire traffic only.
struct Serving {
  std::vector<Tensor> maps_hi;         // engine inputs at grid_hi
  std::vector<Tensor> wire_lo, wire_hi;  // wire request templates
  std::vector<Tensor> ref_lo, ref_hi;    // in-process forwards of the templates
  saufno::data::Normalizer norm;
  std::shared_ptr<saufno::runtime::InferenceEngine> engine;
  std::shared_ptr<saufno::runtime::InferenceEngine> wire_engine;
  std::shared_ptr<saufno::serve::Fleet> fleet;
  std::unique_ptr<saufno::serve::Server> server;
  std::vector<saufno::serve::Client> clients;  // kConns, connected in set-up
  ~Serving();
};

/// Build both engines, start the server, connect the wire clients, make the
/// wire references and warm every served shape. Everything up to the first
/// timed operation.
void setup_serving(const Profile& p, std::uint64_t seed, Serving* s);

/// Batches of `kBatch` maps submitted together, at least one, until
/// `budget_s` is spent; appends per-batch milliseconds to `ms`. When `first`
/// is non-null it receives the first batch's results.
void run_batches(Serving& s, double budget_s, std::vector<double>* ms,
                 std::vector<Tensor>* first);
/// Lone maps, submit to kelvin result, at least `min_rounds`, until
/// `budget_s` is spent; appends per-map milliseconds to `ms`. The first
/// lone maps are the first batch's maps: when `batch_out` is non-null each
/// must give its batched result.
void run_single(Serving& s, double budget_s, std::size_t min_rounds,
                const std::vector<Tensor>* batch_out, std::vector<double>* ms);

/// What the wire slices of one run add up to.
struct WireTotals {
  int64_t requests = 0;
  std::vector<double> latency_ms;  // every client round trip
  std::vector<double> rates;       // completions per second, per window
};
/// One slice of closed-loop traffic over TCP loopback: the `kConns` clients
/// keep `kWindow` requests in flight, drawing grid_lo maps with probability
/// `p.wire_lo_share` (stream `stream` of `seed`), then drain. Every response
/// is checked against its reference.
void run_wire(const Profile& p, Serving& s, std::uint64_t seed, std::uint64_t stream,
              double budget_s, WireTotals* out);

struct TransferRound {
  int fdm_solves = 0;
  double fdm_seconds = 0.0;
  int train_samples = 0;
  double train_seconds = 0.0;
};
/// One transfer-learning round on a fresh model: generate the low- and
/// high-fidelity sets with the FDM solver, then pretrain and fine-tune one
/// epoch each.
TransferRound run_transfer_round(const Profile& p, std::uint64_t seed);

}  // namespace perfbench
