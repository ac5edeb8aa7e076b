// Per-layer probes of the traced run: each public entry point of a layer is
// called at the workload's shapes inside a span, and reported as the median
// over repetitions. Counts come from public stats accessors.
#include <algorithm>
#include <cmath>
#include <functional>

#include "autograd/ops.h"
#include "common/rng.h"
#include "core/attention.h"
#include "core/spectral_conv.h"
#include "core/ufno_layer.h"
#include "core/unet.h"
#include "fft/fft.h"
#include "layers.h"
#include "nn/linear.h"
#include "obs/metrics.h"
#include "optim/optimizer.h"
#include "plan/runner.h"
#include "serve/client.h"
#include "serve/wire.h"
#include "tensor/tensor_ops.h"
#include "thermal/fdm_solver.h"
#include "train/model_zoo.h"

namespace perfbench {

using saufno::NoGradGuard;
using saufno::Var;
namespace ops = saufno::ops;

namespace {

Tensor randn(const saufno::Shape& shape, saufno::Rng& rng) {
  Tensor t(shape);
  for (int64_t i = 0; i < t.numel(); ++i) t.data()[i] = static_cast<float>(rng.normal());
  return t;
}

/// Runs `f` inside a span named `name` at least `min_reps` times and for at
/// least `min_s` seconds (capped at `max_reps`); median milliseconds.
double probe(const char* name, const std::function<void()>& f, int min_reps = 3,
             double min_s = 0.3, int max_reps = 2000) {
  std::vector<double> ms;
  const auto start = Clock::now();
  while (static_cast<int>(ms.size()) < min_reps ||
         (ms_since(start) < min_s * 1e3 && static_cast<int>(ms.size()) < max_reps)) {
    const auto t0 = Clock::now();
    {
      Span span(name);
      f();
    }
    ms.push_back(ms_since(t0));
  }
  return median(ms);
}

/// Times one call inside its own span (a child of the caller's span).
template <typename F>
double timed(const char* name, F&& f) {
  const auto t0 = Clock::now();
  Span span(name);
  f();
  return ms_since(t0);
}

}  // namespace

double plan_fallbacks() {
  for (const auto& m : saufno::obs::Registry::instance().snapshot()) {
    if (m.name == "plan.fallbacks") return m.value;
  }
  return 0.0;
}

void run_layer_probes(const Profile& p, std::uint64_t seed, Serving& s,
                      const PhaseSummary& ph, Metrics* out) {
  const auto put = [out](const std::string& n, double v, const char* unit) {
    out->push_back({n, v, unit});
  };
  saufno::Rng rng(seed * 7 + 11);
  const int64_t B = kBatch, C = p.width, d = p.attn_dim, G = p.grid_hi, N = G * G;
  const Var x(randn({B, C, G, G}, rng));

  // --- core / nn at the served shape ---------------------------------------
  {
    NoGradGuard ng;
    saufno::core::SelfAttentionBlock attn(C, d, rng);
    put("core.attention.forward_ms", probe("core.attention.forward", [&] { (void)attn.forward(x); }), "ms");

    // The attention's tensor ops at its shapes, as the block issues them.
    const Tensor q = randn({B, d, N}, rng), k = randn({B, d, N}, rng), v = randn({B, C, N}, rng);
    std::vector<double> bmm, scal, soft, perm;
    probe("core.attention.decomposed", [&] {
      Tensor qn, sc, a;
      double pm = timed("tensor.permute", [&] { qn = saufno::permute(q, {0, 2, 1}); });
      double bm = timed("tensor.bmm", [&] { sc = saufno::bmm(qn, k); });
      scal.push_back(timed("tensor.mul_scalar", [&] { sc = saufno::mul_scalar(sc, 1.f / std::sqrt(static_cast<float>(d))); }));
      soft.push_back(timed("tensor.softmax", [&] { a = saufno::softmax_lastdim(sc); }));
      pm += timed("tensor.permute", [&] { a = saufno::permute(a, {0, 2, 1}); });
      bm += timed("tensor.bmm", [&] { (void)saufno::bmm(v, a); });
      bmm.push_back(bm);
      perm.push_back(pm);
    });
    put("tensor.bmm_ms", median(bmm), "ms");
    put("tensor.mul_scalar_ms", median(scal), "ms");
    put("tensor.softmax_ms", median(soft), "ms");
    put("tensor.permute_ms", median(perm), "ms");
    put("tensor.attention_score_bytes", static_cast<double>(B * N * N) * sizeof(float), "bytes");

    saufno::core::UFourierLayer::Config lc;
    lc.width = C;
    lc.modes1 = lc.modes2 = p.modes;
    lc.unet_base = p.unet_base;
    lc.unet_depth = p.unet_depth;
    saufno::core::UFourierLayer uf(lc, rng);
    put("core.ufourier.forward_ms", probe("core.ufourier.forward", [&] { (void)uf.forward(x); }), "ms");
    saufno::core::SpectralConv2d sp(C, C, p.modes, p.modes, rng);
    put("core.spectral.forward_ms", probe("core.spectral.forward", [&] { (void)sp.forward(x); }), "ms");
    saufno::core::UNet un(C, p.unet_base, p.unet_depth, rng);
    put("core.unet.forward_ms", probe("core.unet.forward", [&] { (void)un.forward(x); }), "ms");
    saufno::nn::PointwiseConv pw(C, C, rng);
    put("nn.pointwise.forward_ms", probe("nn.pointwise.forward", [&] { (void)pw.forward(x); }), "ms");
  }

  // --- fft at the spectral conv's planes -----------------------------------
  {
    const int64_t wk = std::min<int64_t>(p.modes, saufno::rfft_cols(G));
    std::vector<saufno::cfloat> spec(static_cast<std::size_t>(B * C * G * wk));
    Tensor back({B, C, G, G});
    put("fft.rfft_2d_ms", probe("fft.rfft_2d", [&] {
          saufno::rfft_2d(x.value().data(), spec.data(), B * C, G, G, wk);
        }), "ms");
    std::vector<saufno::cfloat> work(spec.size());
    put("fft.irfft_2d_ms", probe("fft.irfft_2d", [&] {
          std::copy(spec.begin(), spec.end(), work.begin());
          saufno::irfft_2d(work.data(), back.data(), B * C, G, G, wk, 1.f);
        }), "ms");
  }

  // --- whole model, interpreted and planned --------------------------------
  {
    auto model = saufno::train::make_model(p.model, kInChannels, kOutChannels, seed);
    model->set_training(false);
    Tensor in8({B, kInChannels, G, G}), in1({1, kInChannels, G, G});
    for (int64_t b = 0; b < B; ++b) {
      const Tensor enc = s.norm.encode_inputs(s.maps_hi[static_cast<std::size_t>(b)].reshape({1, kInChannels, G, G}));
      std::copy(enc.data(), enc.data() + enc.numel(), in8.data() + b * enc.numel());
      if (b == 0) std::copy(enc.data(), enc.data() + enc.numel(), in1.data());
    }
    {
      NoGradGuard ng;
      put("core.model.interp_forward_ms",
          probe("core.model.interp_forward", [&] { (void)model->forward(Var(in8)); }), "ms");
    }
    saufno::plan::PlanRunner runner(model, saufno::plan::Mode::kOn);
    const double first8 = timed("plan.first_forward", [&] { (void)runner.forward(in8); });
    const double fwd8 = probe("plan.forward.b8", [&] { (void)runner.forward(in8); });
    const double first1 = timed("plan.first_forward", [&] { (void)runner.forward(in1); });
    const double fwd1 = probe("plan.forward.b1", [&] { (void)runner.forward(in1); });
    // A first forward is compile + one run; the compile is the excess.
    put("plan.compile_ms", 0.5 * ((first8 - fwd8) + (first1 - fwd1)), "ms");
    put("plan.forward_ms.b8", fwd8, "ms");
    put("plan.forward_ms.b1", fwd1, "ms");
    put("plan.cache_size",
        static_cast<double>(s.engine->plan_runner().cache_size() +
                            s.wire_engine->plan_runner().cache_size()),
        "count");
    put("plan.fallbacks", plan_fallbacks(), "count");
    put("runtime.engine.overhead_ms", ph.batch_ms - fwd8, "ms");
  }

  // --- runtime: the wire engine over the wire phase -------------------------
  put("runtime.engine.avg_batch_size", ph.wire_avg_batch, "count");
  put("runtime.engine.batches", ph.wire_batches, "count");
  put("runtime.engine.latency_p50_ms", s.wire_engine->stats().latency_p50_ms, "ms");

  // --- serve: frame codec and a bare round trip ----------------------------
  {
    namespace serve = saufno::serve;
    serve::InferRequest req;
    req.id = 1;
    req.tenant = "default";
    req.input = s.maps_hi[0];
    std::vector<std::uint8_t> frame;
    put("serve.encode_infer_us", 1e3 * probe("serve.encode_infer", [&] { frame = serve::encode_infer(req); }, 50), "us");
    put("serve.decode_frame_us", 1e3 * probe("serve.decode_frame", [&] {
          (void)serve::decode_frame(frame.data() + serve::kFrameHeaderBytes,
                                    frame.size() - serve::kFrameHeaderBytes);
        }, 50), "us");
    serve::Response resp;
    resp.id = 1;
    resp.has_tensor = true;
    resp.tensor = s.ref_hi[0];
    put("serve.encode_response_us", 1e3 * probe("serve.encode_response", [&] { (void)serve::encode_response(resp); }, 50), "us");
    serve::Client c;
    c.connect("127.0.0.1", s.server->port());
    put("serve.ping_rtt_us", 1e3 * probe("serve.ping", [&] { (void)c.ping(); }, 200), "us");
  }

  // --- thermal / chip at both fidelities -----------------------------------
  {
    const auto spec = saufno::chip::make_chip1();
    const saufno::chip::PowerGenerator gen(spec);
    const saufno::thermal::FdmSolver solver;
    saufno::Rng prng(seed * 3 + 1);
    for (const auto& [grid, tag] : {std::pair<int, const char*>{p.grid_lo, "lo"}, {p.grid_hi, "hi"}}) {
      std::vector<double> iters;
      const double ms = probe(grid == p.grid_lo ? "thermal.fdm_solve.lo" : "thermal.fdm_solve.hi", [&] {
        const auto g = saufno::thermal::build_grid(spec, gen.sample(prng), grid, grid);
        iters.push_back(solver.solve(g).iterations);
      }, 3, 0.5, 20);
      put(std::string("thermal.fdm_solve_ms.") + tag, ms, "ms");
      put(std::string("thermal.cg_iterations.") + tag, median(iters), "count");
    }
    const auto pa = gen.sample(prng);
    put("chip.rasterize_ms", probe("chip.rasterize", [&] { (void)gen.rasterize(pa, p.grid_hi, p.grid_hi); }, 10), "ms");
  }

  // --- train / autograd / optim: one manual step at the pretrain shape ------
  {
    const int64_t TB = kBatch, L = p.grid_lo;
    auto model = saufno::train::make_model(p.model, kInChannels, kOutChannels, seed + 5);
    saufno::optim::Adam opt(model->parameters(), 1e-3);
    const Var xin(randn({TB, kInChannels, L, L}, rng)), y(randn({TB, kOutChannels, L, L}, rng));
    std::vector<double> fwd, bwd, step;
    probe("train.step", [&] {
      Var loss;
      fwd.push_back(timed("train.forward", [&] { loss = ops::mse_loss(model->forward(xin), y); }));
      bwd.push_back(timed("autograd.backward", [&] {
        opt.zero_grad();
        loss.backward();
      }));
      step.push_back(timed("optim.adam_step", [&] { opt.step(); }));
    });
    put("train.forward_ms", median(fwd), "ms");
    put("autograd.backward_ms", median(bwd), "ms");
    put("optim.adam_step_ms", median(step), "ms");

    saufno::core::SelfAttentionBlock attn(C, d, rng);
    const Var xa(randn({TB, C, L, L}, rng));
    put("core.attention.train_step_ms", probe("core.attention.train_step", [&] {
          attn.zero_grad();
          ops::mean_all(attn.forward(xa)).backward();
        }), "ms");
  }
}

}  // namespace perfbench
