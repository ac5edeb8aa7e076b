// Correctness checks computed apart from the library: a double-precision
// attention reference, physical properties of the FDM solution, and a
// finite-difference check of the training gradient. None compares against
// a stored copy of earlier output.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>

#include "autograd/ops.h"
#include "checks.h"
#include "common/rng.h"
#include "core/attention.h"
#include "data/generator.h"
#include "thermal/fdm_solver.h"
#include "train/model_zoo.h"
#include "train/trainer.h"

namespace perfbench {

using saufno::NoGradGuard;
using saufno::Var;

namespace {

Tensor randn(const saufno::Shape& shape, saufno::Rng& rng, double sd = 1.0) {
  Tensor t(shape);
  for (int64_t i = 0; i < t.numel(); ++i) t.data()[i] = static_cast<float>(rng.normal() * sd);
  return t;
}

Tensor& param(saufno::nn::Module& m, const std::string& name) {
  for (auto& [n, v] : m.named_parameters()) {
    if (n == name) return v.value();
  }
  throw std::runtime_error("no parameter " + name);
}

}  // namespace

void check_attention(const Profile& p, std::uint64_t seed) {
  // out_i = x_i + W_o^T sum_j softmax_j(q_i . k_j / sqrt(d)) v_j + b_o with
  // q = W_q^T x, k = W_k^T x, v = W_h^T x (1x1 maps, weights [cin, cout]).
  constexpr double kTol = 1e-4;  // relative to the largest |out| checked
  saufno::Rng rng(seed * 31 + 5);
  const int64_t B = 2, C = p.width, d = p.attn_dim, H = p.grid_hi, N = H * H;
  saufno::core::SelfAttentionBlock block(C, d, rng);
  Tensor& bo = param(block, "wo.bias");
  for (int64_t i = 0; i < bo.numel(); ++i) bo.data()[i] = static_cast<float>(rng.normal() * 0.1);
  const Tensor x = randn({B, C, H, H}, rng);
  Tensor out;
  {
    NoGradGuard ng;
    out = block.forward(Var(x)).value();
  }
  const float* wq = param(block, "wq.weight").data();
  const float* wk = param(block, "wk.weight").data();
  const float* wh = param(block, "wh.weight").data();
  const float* wo = param(block, "wo.weight").data();
  const float* xb = x.data();
  double worst = 0.0, scale = 0.0;
  for (int64_t b = 0; b < B; ++b) {
    const float* xs = xb + b * C * N;
    const auto embed = [&](const float* w, int64_t cout, int64_t j, double* o) {
      for (int64_t e = 0; e < cout; ++e) {
        double acc = 0.0;
        for (int64_t c = 0; c < C; ++c) acc += static_cast<double>(xs[c * N + j]) * w[c * cout + e];
        o[e] = acc;
      }
    };
    std::vector<double> k(static_cast<std::size_t>(N * d)), v(static_cast<std::size_t>(N * C));
    for (int64_t j = 0; j < N; ++j) {
      embed(wk, d, j, &k[static_cast<std::size_t>(j * d)]);
      embed(wh, C, j, &v[static_cast<std::size_t>(j * C)]);
    }
    std::vector<double> q(static_cast<std::size_t>(d)), s(static_cast<std::size_t>(N)),
        vp(static_cast<std::size_t>(C));
    for (int r = 0; r < 16; ++r) {
      const int64_t i = static_cast<int64_t>(rng.next_below(static_cast<std::uint64_t>(N)));
      embed(wq, d, i, q.data());
      double smax = -1e300;
      for (int64_t j = 0; j < N; ++j) {
        double acc = 0.0;
        for (int64_t e = 0; e < d; ++e) acc += q[static_cast<std::size_t>(e)] * k[static_cast<std::size_t>(j * d + e)];
        s[static_cast<std::size_t>(j)] = acc / std::sqrt(static_cast<double>(d));
        smax = std::max(smax, s[static_cast<std::size_t>(j)]);
      }
      double z = 0.0;
      for (double& sj : s) z += (sj = std::exp(sj - smax));
      std::fill(vp.begin(), vp.end(), 0.0);
      for (int64_t j = 0; j < N; ++j) {
        for (int64_t c = 0; c < C; ++c) vp[static_cast<std::size_t>(c)] += s[static_cast<std::size_t>(j)] / z * v[static_cast<std::size_t>(j * C + c)];
      }
      for (int64_t o = 0; o < C; ++o) {
        double ref = xs[o * N + i] + bo.data()[o];
        for (int64_t c = 0; c < C; ++c) ref += vp[static_cast<std::size_t>(c)] * wo[c * C + o];
        const double got = out.data()[(b * C + o) * N + i];
        worst = std::max(worst, std::fabs(got - ref));
        scale = std::max(scale, std::fabs(ref));
      }
    }
  }
  check(all_finite(out), "attention output not finite");
  check(worst <= kTol * scale, "attention differs from the double-precision reference by " +
                                   std::to_string(worst / scale) + " (relative)");
}

void check_fdm_physics(const Profile& p, std::uint64_t seed) {
  namespace thermal = saufno::thermal;
  constexpr double kSuperTol = 1e-5;   // of the largest temperature rise
  constexpr double kEnergyTol = 1e-5;  // of the injected power
  const auto spec = saufno::chip::make_chip1();
  const saufno::chip::PowerGenerator gen(spec);
  saufno::Rng rng(seed * 17 + 3);
  const auto pa1 = gen.sample(rng), pa2 = gen.sample(rng);
  auto pa12 = pa1;
  for (std::size_t l = 0; l < pa12.power.size(); ++l) {
    for (std::size_t b = 0; b < pa12.power[l].size(); ++b) pa12.power[l][b] += pa2.power[l][b];
  }
  const thermal::FdmSolver solver;
  const int n = p.grid_lo;
  const auto g1 = thermal::build_grid(spec, pa1, n, n);
  const auto g2 = thermal::build_grid(spec, pa2, n, n);
  const auto g12 = thermal::build_grid(spec, pa12, n, n);
  const auto s1 = solver.solve(g1), s2 = solver.solve(g2), s12 = solver.solve(g12);
  check(s1.converged && s2.converged && s12.converged, "FDM solve did not converge");
  const double ta = g1.ambient;

  // Superposition: the steady problem is linear in the source.
  double worst = 0.0, rise = 0.0;
  for (std::size_t i = 0; i < s12.temperature.size(); ++i) {
    const double sum = (s1.temperature[i] - ta) + (s2.temperature[i] - ta);
    worst = std::max(worst, std::fabs((s12.temperature[i] - ta) - sum));
    rise = std::max(rise, s12.temperature[i] - ta);
  }
  check(rise > 0.0 && worst <= kSuperTol * rise,
        "FDM superposition off by " + std::to_string(worst / rise) + " of the rise");

  // Energy balance and the maximum principle, per solve.
  for (const auto* gs : {&g1, &g2, &g12}) {
    const auto& g = *gs;
    const auto& t = (gs == &g1 ? s1 : gs == &g2 ? s2 : s12).temperature;
    double out = 0.0, tmin = 1e300;
    const double area = g.dx * g.dy;
    for (int iy = 0; iy < g.ny; ++iy) {
      for (int ix = 0; ix < g.nx; ++ix) {
        // Robin face: film 1/h in series with the half-cell conduction.
        const auto face = [&](int iz, double h) {
          if (h <= 0.0) return 0.0;
          const std::size_t c = static_cast<std::size_t>(g.cell(iz, iy, ix));
          const double r = 0.5 * g.dz[static_cast<std::size_t>(iz)] / g.k[c] + 1.0 / h;
          return area / r * (t[c] - ta);
        };
        out += face(g.nz - 1, g.h_top) + face(0, g.h_bottom);
      }
    }
    for (double v : t) tmin = std::min(tmin, v);
    const double in = g.total_power();
    check(in > 0.0 && std::fabs(out - in) <= kEnergyTol * in,
          "FDM energy balance: injected " + std::to_string(in) + " W, outflow " +
              std::to_string(out) + " W");
    check(tmin >= ta - 1e-9 * ta, "FDM solution below ambient: " + std::to_string(tmin));
  }
}

void check_gradient(const Profile& p, std::uint64_t seed) {
  // Central difference of the loss along one direction against the
  // autograd directional derivative g . u.
  constexpr double kTol = 2e-2;
  saufno::Rng rng(seed * 13 + 7);
  auto model = saufno::train::make_model(p.model, kInChannels, kOutChannels, seed + 99);
  const int n = p.grid_lo;
  const auto maps = make_inputs(2, n, seed * 13 + 8);
  const auto norm = serving_normalizer(maps);
  Tensor x({2, kInChannels, n, n});
  for (int i = 0; i < 2; ++i) {
    std::copy(maps[static_cast<std::size_t>(i)].data(),
              maps[static_cast<std::size_t>(i)].data() + maps[0].numel(),
              x.data() + i * maps[0].numel());
  }
  x = norm.encode_inputs(x);
  const Tensor y = randn({2, kOutChannels, n, n}, rng);
  const auto loss_at = [&] {
    NoGradGuard ng;
    return static_cast<double>(saufno::ops::mse_loss(model->forward(Var(x)), Var(y)).value().item());
  };

  auto params = model->parameters();
  model->zero_grad();
  Var loss = saufno::ops::mse_loss(model->forward(Var(x)), Var(y));
  loss.backward();
  // Direction: half along the gradient, half random, unit norm overall.
  std::vector<std::vector<double>> u;
  double gnorm = 0.0, rnorm = 0.0;
  for (auto& v : params) {
    const Tensor g = v.grad();
    u.emplace_back(static_cast<std::size_t>(v.numel()));
    for (int64_t i = 0; i < v.numel(); ++i) {
      gnorm += static_cast<double>(g.data()[i]) * g.data()[i];
      const double r = rng.normal();
      rnorm += r * r;
      u.back()[static_cast<std::size_t>(i)] = r;
    }
  }
  gnorm = std::sqrt(gnorm);
  rnorm = std::sqrt(rnorm);
  double unorm = 0.0;
  for (std::size_t k = 0; k < params.size(); ++k) {
    const Tensor g = params[k].grad();
    for (std::size_t i = 0; i < u[k].size(); ++i) {
      u[k][i] = g.data()[i] / gnorm + u[k][i] / rnorm;
      unorm += u[k][i] * u[k][i];
    }
  }
  unorm = std::sqrt(unorm);
  double analytic = 0.0;
  for (std::size_t k = 0; k < params.size(); ++k) {
    const Tensor g = params[k].grad();
    for (std::size_t i = 0; i < u[k].size(); ++i) {
      u[k][i] /= unorm;
      analytic += g.data()[i] * u[k][i];
    }
  }
  const double eps = 1e-3;
  const auto shift = [&](double a) {
    for (std::size_t k = 0; k < params.size(); ++k) {
      float* w = params[k].value().data();
      for (std::size_t i = 0; i < u[k].size(); ++i) w[i] += static_cast<float>(a * u[k][i]);
    }
  };
  const std::vector<Tensor> saved = [&] {
    std::vector<Tensor> s;
    for (auto& v : params) s.push_back(v.value().clone());
    return s;
  }();
  shift(eps);
  const double lp = loss_at();
  for (std::size_t k = 0; k < params.size(); ++k) {
    std::copy(saved[k].data(), saved[k].data() + saved[k].numel(), params[k].value().data());
  }
  shift(-eps);
  const double lm = loss_at();
  const double numeric = (lp - lm) / (2 * eps);
  check(std::isfinite(analytic) && std::fabs(numeric - analytic) <= kTol * std::fabs(analytic),
        "loss gradient: autograd " + std::to_string(analytic) + " vs finite difference " +
            std::to_string(numeric));
}

void check_training(const Profile& p, std::uint64_t seed) {
  // Ten full-batch Adam steps on FDM data: the loss before the last step
  // must be below the loss before the first. (A transfer round's one epoch
  // per stage is too short to promise that.)
  namespace data = saufno::data;
  data::GenConfig gc;
  gc.resolution = 16;
  gc.n_samples = kBatch;
  gc.seed = seed * 11 + 9;
  gc.cache = false;
  const auto spec = saufno::chip::make_chip1();
  const data::Dataset set = data::generate_dataset(spec, gc);
  const auto norm = data::Normalizer::fit(set, spec.num_device_layers());
  auto model = saufno::train::make_model(p.model, kInChannels, kOutChannels, seed + 77);
  saufno::train::TrainConfig tc;
  tc.epochs = 10;
  tc.batch_size = kBatch;
  tc.seed = seed;
  const auto report = saufno::train::Trainer(*model, norm, tc).fit(set);
  const double first = report.epoch_loss.front(), last = report.epoch_loss.back();
  check(std::isfinite(last) && last < first,
        "training loss did not fall: " + std::to_string(first) + " -> " + std::to_string(last));
}

}  // namespace perfbench
