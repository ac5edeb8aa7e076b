// Correctness checks computed apart from the library (checks.cpp).
#pragma once

#include "bench.h"

namespace perfbench {

/// SelfAttentionBlock at [2, width, grid_hi, grid_hi] against a double-
/// precision softmax(QK^T / sqrt(d)) V built from its named_parameters(),
/// on sampled query rows.
void check_attention(const Profile& p, std::uint64_t seed);
/// FDM solutions at grid_lo: superposition, energy balance through the
/// Robin faces, and never below ambient.
void check_fdm_physics(const Profile& p, std::uint64_t seed);
/// Central finite difference of the training loss along one direction
/// against the autograd gradient.
void check_gradient(const Profile& p, std::uint64_t seed);
/// Ten full-batch training steps on 16x16 FDM data lower the loss.
void check_training(const Profile& p, std::uint64_t seed);

}  // namespace perfbench
