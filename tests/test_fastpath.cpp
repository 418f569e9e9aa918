// Calibrated fast path vs spectral physics walk: the fast path linearizes
// the tensor core at weight-load time (cached ring-chain gains, canonical
// summation order) and must be BIT-identical to the physics path — pinned
// here for every encoding, readout mode, fleet size, and model lowering the
// matmul pipeline supports and under arbitrary interleavings of loads,
// drift and faults, plus the exact ring-evaluation cost of calibration and
// the weight-plan cache contract the graph executor and serving layer lean
// on.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/random_matrix.hpp"
#include "common/rng.hpp"
#include "core/tensor_core.hpp"
#include "graph/compile.hpp"
#include "graph/executor.hpp"
#include "graph/ir.hpp"
#include "nn/backend.hpp"
#include "nn/dataset.hpp"
#include "nn/mlp.hpp"
#include "nn/tiling.hpp"
#include "runtime/accelerator.hpp"
#include "runtime/backend.hpp"

namespace {

using namespace ptc;
using namespace ptc::nn;

core::TensorCoreConfig core_config(bool fast_path) {
  core::TensorCoreConfig config;
  config.fast_path = fast_path;
  return config;
}

TEST(FastPath, ArmsAtWeightLoad) {
  core::TensorCore core(core_config(true));
  EXPECT_FALSE(core.fast_path_active());
  Rng rng(1);
  core.load_weights_normalized(random_activations(16, 16, rng));
  EXPECT_TRUE(core.fast_path_active());

  core::TensorCore physics(core_config(false));
  physics.load_weights_normalized(random_activations(16, 16, rng));
  EXPECT_FALSE(physics.fast_path_active());
}

TEST(FastPath, AnalogBatchBitIdentical) {
  core::TensorCore fast(core_config(true));
  core::TensorCore physics(core_config(false));
  Rng w_rng(2);
  const Matrix w = random_activations(16, 16, w_rng);
  fast.load_weights_normalized(w);
  physics.load_weights_normalized(w);

  Rng x_rng(3);
  const Matrix x = random_activations(64, 16, x_rng);
  EXPECT_EQ(fast.multiply_analog_batch(x).max_abs_diff(
                physics.multiply_analog_batch(x)),
            0.0);

  // Single-sample API dispatches through the same replay.
  std::vector<double> input(16, 0.0);
  for (std::size_t c = 0; c < 16; ++c) input[c] = x(0, c);
  const auto a = fast.multiply_analog(input);
  const auto b = physics.multiply_analog(input);
  for (std::size_t r = 0; r < a.size(); ++r) EXPECT_EQ(a[r], b[r]);
}

TEST(FastPath, QuantizedBatchBitIdenticalAndAccounted) {
  core::TensorCore fast(core_config(true));
  core::TensorCore physics(core_config(false));
  Rng w_rng(4);
  const Matrix w = random_activations(16, 16, w_rng);
  fast.load_weights_normalized(w);
  physics.load_weights_normalized(w);

  Rng x_rng(5);
  const Matrix x = random_activations(40, 16, x_rng);
  EXPECT_EQ(fast.multiply_batch(x).max_abs_diff(physics.multiply_batch(x)),
            0.0);
  // Every batch row burns one ADC sample window, exactly like multiply().
  EXPECT_EQ(fast.samples_processed(), 40u);
  EXPECT_EQ(physics.samples_processed(), 40u);
}

TEST(FastPath, RecalibratesWhenWeightsChange) {
  core::TensorCore fast(core_config(true));
  core::TensorCore physics(core_config(false));
  Rng rng(6);
  const Matrix w1 = random_activations(16, 16, rng);
  const Matrix w2 = random_activations(16, 16, rng);
  const Matrix x = random_activations(8, 16, rng);

  fast.load_weights_normalized(w1);
  physics.load_weights_normalized(w1);
  const Matrix y1 = fast.multiply_analog_batch(x);
  EXPECT_EQ(y1.max_abs_diff(physics.multiply_analog_batch(x)), 0.0);

  fast.load_weights_normalized(w2);
  physics.load_weights_normalized(w2);
  const Matrix y2 = fast.multiply_analog_batch(x);
  EXPECT_EQ(y2.max_abs_diff(physics.multiply_analog_batch(x)), 0.0);
  EXPECT_GT(y2.max_abs_diff(y1), 0.0);  // the gains really changed

  // Reloading w1 assembles its gains from the drive-state table without
  // new ring physics — still bit-identical.
  fast.load_weights_normalized(w1);
  physics.load_weights_normalized(w1);
  EXPECT_EQ(fast.multiply_analog_batch(x).max_abs_diff(y1), 0.0);
  EXPECT_EQ(physics.multiply_analog_batch(x).max_abs_diff(y1), 0.0);
}

TEST(FastPath, BitIdenticalUnderInterleavedLoadsDriftAndFaults) {
  // Seeded random interleavings reach every invalidation edge of the
  // macros' drive-state tables: fresh and repeated blocks, repeated
  // detunings, returns to exactly 0, re-locks, faults injected while
  // detuned, a stuck heater, clears, and reloads of blocks last seen under
  // a different fault set.  Even seeds use a varied die, so every ring's
  // transmission (and drift response) is distinct.
  for (const std::uint64_t seed : {1u, 2u, 3u, 4u}) {
    core::TensorCoreConfig fast_config = core_config(true);
    core::TensorCoreConfig physics_config = core_config(false);
    if (seed % 2 == 0) {
      fast_config.variation.seed = seed;
      physics_config.variation.seed = seed;
    }
    core::TensorCore fast(fast_config);
    core::TensorCore physics(physics_config);
    Rng rng(seed * 7919);
    const Matrix x = random_activations(4, 16, rng);
    std::vector<Matrix> seen;
    const auto load = [&](const Matrix& w) {
      fast.load_weights_normalized(w);
      physics.load_weights_normalized(w);
    };
    const auto reload_seen = [&] { load(seen[rng.below(seen.size())]); };
    const auto detune = [&](double kelvin) {
      fast.set_thermal_detuning(kelvin);
      physics.set_thermal_detuning(kelvin);
    };
    seen.push_back(random_activations(16, 16, rng));
    load(seen.back());

    for (int step = 0; step < 50; ++step) {
      std::string what;
      switch (rng.below(8)) {
        case 0:
          what = "fresh block";
          seen.push_back(random_activations(16, 16, rng));
          load(seen.back());
          break;
        case 1:
          what = "seen block";
          reload_seen();
          break;
        case 2:
          what = "repeated detuning";
          detune(fast.thermal_detuning());
          break;
        case 3:
          what = "detuning back to 0";
          detune(0.0);
          break;
        case 4:
          what = "new detuning";
          detune(rng.uniform(-0.5, 0.5));
          if (rng.bernoulli(0.5)) {
            what += " + recalibrate";
            fast.recalibrate();
            physics.recalibrate();
          }
          break;
        case 5: {
          what = "ring faults while detuned";
          if (fast.thermal_detuning() == 0.0) detune(rng.uniform(0.1, 0.5));
          const auto sites = core::FaultModel::sample_ring_faults(
              16, 16, 3, 1 + rng.below(6), rng.next_u64());
          fast.inject_ring_faults(sites);
          physics.inject_ring_faults(sites);
          if (rng.bernoulli(0.5)) {
            what += " + seen block";
            reload_seen();
          }
          break;
        }
        case 6:
          what = "stuck heater";
          fast.inject_stuck_heater();
          physics.inject_stuck_heater();
          break;
        default:
          what = "clear faults";
          fast.clear_faults();
          physics.clear_faults();
          if (rng.bernoulli(0.5)) {
            what += " + seen block";
            reload_seen();
          }
          break;
      }
      ASSERT_EQ(fast.multiply_analog_batch(x).max_abs_diff(
                    physics.multiply_analog_batch(x)),
                0.0)
          << "seed " << seed << " step " << step << ": " << what;
      ASSERT_EQ(fast.multiply_batch(x).max_abs_diff(physics.multiply_batch(x)),
                0.0)
          << "seed " << seed << " step " << step << ": " << what;
    }
  }
}

TEST(FastPath, CalibrationRingEvalsAreExact) {
  // Walking every ring of a bit row at every channel wavelength costs
  // 16 rows x 4 tiles x 3 bits x 4 channels x 4 rings = 3,072 ring
  // evaluations per load.  The drive-state table pays each (ring, state)
  // pair once per detuning slot and fault set instead: 50 distinct blocks
  // cost at most 16 x 4 x 3 x 4 rings x 2 states x 4 channels = 6,144
  // evaluations, not 50 x 3,072 = 153,600.
  core::TensorCore core(core_config(true));
  EXPECT_EQ(core.calibration_ring_evals(), 0u);
  Rng rng(21);
  std::vector<Matrix> blocks;
  for (int i = 0; i < 50; ++i) {
    blocks.push_back(random_activations(16, 16, rng));
  }
  core.load_weights_normalized(blocks[0]);
  EXPECT_EQ(core.calibration_ring_evals(), 3072u);
  for (const Matrix& w : blocks) core.load_weights_normalized(w);
  EXPECT_EQ(core.calibration_ring_evals(), 6144u);

  // A drift epoch evaluates the programmed states once at the new
  // detuning; repeating that detuning evaluates nothing.
  core.set_thermal_detuning(0.4);
  core.set_thermal_detuning(0.4);
  EXPECT_EQ(core.calibration_ring_evals(), 6144u + 3072u);
  // The re-lock and a reload of an earlier block read the detuning-0 slot.
  core.recalibrate();
  core.load_weights_normalized(blocks[7]);
  EXPECT_EQ(core.calibration_ring_evals(), 6144u + 3072u);

  // A fault-set change drops the faulted macros' tables; each refills its
  // programmed states: 3 bit rows x 4 rings x 4 channels = 48 evaluations.
  const auto sites = core::FaultModel::sample_ring_faults(16, 16, 3, 5, 9);
  std::set<std::pair<std::size_t, std::size_t>> faulted_macros;
  for (const auto& site : sites) faulted_macros.emplace(site.row, site.col / 4);
  core.inject_ring_faults(sites);
  EXPECT_EQ(core.calibration_ring_evals(),
            6144u + 3072u + 48u * faulted_macros.size());

  // The physics oracle never fills a table.
  core::TensorCore physics(core_config(false));
  physics.load_weights_normalized(blocks[0]);
  EXPECT_EQ(physics.calibration_ring_evals(), 0u);
}

/// Backend-level identity across encodings and readout modes, including
/// non-multiple-of-16 shapes and batch 1.
void check_backend_identity(bool differential, bool quantize, std::size_t s,
                            std::size_t k, std::size_t m, std::uint64_t seed) {
  Rng rng(seed);
  const Matrix x = random_activations(s, k, rng);
  const Matrix w = random_signed(k, m, rng);

  PhotonicBackendOptions options;
  options.differential_weights = differential;
  options.quantize_output = quantize;

  core::TensorCore fast_core(core_config(true));
  core::TensorCore physics_core(core_config(false));
  PhotonicBackend fast(fast_core, options);
  PhotonicBackend physics(physics_core, options);
  EXPECT_EQ(fast.matmul(x, w).max_abs_diff(physics.matmul(x, w)), 0.0)
      << "differential=" << differential << " quantize=" << quantize << " "
      << s << "x" << k << "*" << k << "x" << m;
}

TEST(FastPath, BackendBitIdenticalAllEncodingsAndReadouts) {
  for (const bool differential : {false, true}) {
    for (const bool quantize : {false, true}) {
      check_backend_identity(differential, quantize, 7, 20, 18, 100);
      check_backend_identity(differential, quantize, 1, 16, 16, 101);
    }
  }
}

TEST(FastPath, FleetBitIdenticalToPhysicsFleet) {
  Rng rng(7);
  const Matrix x = random_activations(12, 40, rng);
  const Matrix w = random_signed(40, 24, rng);

  for (const bool differential : {false, true}) {
    PhotonicBackendOptions options;
    options.differential_weights = differential;

    runtime::AcceleratorConfig fast_config{.cores = 4};
    runtime::AcceleratorConfig physics_config{.cores = 4};
    physics_config.core.fast_path = false;
    runtime::Accelerator fast(fast_config);
    runtime::Accelerator physics(physics_config);
    EXPECT_EQ(fast.matmul(x, w, options).max_abs_diff(
                  physics.matmul(x, w, options)),
              0.0);
  }
}

TEST(FastPath, MlpForwardBitIdenticalEndToEnd) {
  Rng rng(8);
  Mlp model(12, 10, 4, rng);
  Rng data_rng(9);
  const Matrix x = random_activations(9, 12, data_rng);

  PhotonicBackendOptions options;
  options.differential_weights = true;

  core::TensorCore fast_core(core_config(true));
  core::TensorCore physics_core(core_config(false));
  PhotonicBackend fast(fast_core, options);
  PhotonicBackend physics(physics_core, options);
  EXPECT_EQ(model.forward(fast, x).max_abs_diff(model.forward(physics, x)),
            0.0);

  runtime::AcceleratorConfig fleet_config{.cores = 3};
  fleet_config.core.fast_path = false;
  runtime::Accelerator physics_fleet(fleet_config);
  runtime::AcceleratorBackend fleet(physics_fleet, options);
  EXPECT_EQ(model.forward(fast, x).max_abs_diff(model.forward(fleet, x)), 0.0);
}

TEST(FastPath, CnnGraphBitIdenticalOnTheFleet) {
  Rng rng(10);
  graph::Graph g;
  const auto in = g.input(graph::Shape{{8, 8, 1}});
  auto v = g.conv2d(in, random_signed(9, 4, rng), 3);
  v = g.bias(v, std::vector<double>(4, 0.05));
  v = g.relu(v);
  v = g.maxpool(v, 2);
  v = g.flatten(v);
  v = g.matmul(v, random_signed(36, 5, rng));
  g.softmax(v);
  const graph::CompiledGraph compiled = graph::compile(g);

  Rng data_rng(11);
  const Matrix x = random_activations(4, 64, data_rng);

  PhotonicBackendOptions options;
  options.differential_weights = true;

  runtime::AcceleratorConfig fast_config{.cores = 4};
  runtime::AcceleratorConfig physics_config{.cores = 4};
  physics_config.core.fast_path = false;
  runtime::Accelerator fast_fleet(fast_config);
  runtime::Accelerator physics_fleet(physics_config);
  runtime::AcceleratorBackend fast(fast_fleet, options);
  runtime::AcceleratorBackend physics(physics_fleet, options);
  EXPECT_EQ(graph::run(compiled, fast, x).max_abs_diff(
                graph::run(compiled, physics, x)),
            0.0);
}

TEST(PlanCache, ReusesPlansAndRebuildsOnContentChange) {
  Rng rng(12);
  Matrix w = random_signed(20, 20, rng);

  WeightPlanCache cache;
  const auto p1 = cache.get(w, 16, 16, false);
  const auto p2 = cache.get(w, 16, 16, false);
  EXPECT_EQ(p1.get(), p2.get());  // same plan object, no rebuild
  EXPECT_EQ(cache.builds(), 1u);
  EXPECT_EQ(p1->passes.size(), 4u);
  EXPECT_EQ(p1->encoded.size(), 4u);

  // A different geometry or encoding is a different plan.
  cache.get(w, 16, 16, true);
  EXPECT_EQ(cache.builds(), 2u);

  // Changing the weight contents must invalidate: the cache is keyed by
  // content, so a stale plan (stale mapping, stale encoded blocks) can
  // never be served for updated weights.
  w(3, 3) = 5.0;  // new max |w|: the mapping scale must change too
  const auto p3 = cache.get(w, 16, 16, false);
  EXPECT_EQ(cache.builds(), 3u);
  EXPECT_NE(p3.get(), p1.get());
  EXPECT_NE(p3->mapping.scale, p1->mapping.scale);

  cache.invalidate();
  cache.get(w, 16, 16, false);
  EXPECT_EQ(cache.builds(), 4u);
}

TEST(PlanCache, CachedMatmulBitIdenticalToUncached) {
  Rng rng(13);
  const Matrix x = random_activations(5, 20, rng);
  const Matrix w = random_signed(20, 20, rng);

  PhotonicBackendOptions options;
  core::TensorCore core_a(core_config(true));
  core::TensorCore core_b(core_config(true));
  PhotonicBackend cached(core_a, options);
  PhotonicBackend fresh(core_b, options);

  WeightPlanCache cache;
  const Matrix via_cache = cached.matmul_cached(x, w, cache);
  const Matrix direct = fresh.matmul(x, w);
  EXPECT_EQ(via_cache.max_abs_diff(direct), 0.0);
  // Second call through the same cache: no rebuild, same bits.
  EXPECT_EQ(cached.matmul_cached(x, w, cache).max_abs_diff(direct), 0.0);
  EXPECT_EQ(cache.builds(), 1u);
}

TEST(PlanCache, MlpTrainingRefreshesCompiledPlans) {
  // Training rewrites the weights and relowers the schedule; the rebuilt
  // step caches must serve plans for the *new* weights — pinned by
  // comparing against an uncached float forward after the update.
  Rng rng(14);
  Mlp model(6, 8, 3, rng);
  Dataset data;
  data.inputs = random_activations(24, 6, rng);
  data.labels.resize(24);
  for (std::size_t i = 0; i < data.labels.size(); ++i) {
    data.labels[i] = i % 3;
  }

  FloatBackend reference;
  const Matrix x = random_activations(5, 6, rng);
  const Matrix before = model.forward(reference, x);

  Rng train_rng(15);
  model.train_epoch(data, 0.05, 8, train_rng);
  const Matrix after = model.forward(reference, x);
  EXPECT_GT(after.max_abs_diff(before), 0.0);

  // The compiled schedule (with its refreshed plan caches) must agree with
  // the raw layer math over the new weights.
  Matrix manual = matmul(x, model.layer1().w);
  for (std::size_t s = 0; s < manual.rows(); ++s)
    for (std::size_t c = 0; c < manual.cols(); ++c) {
      manual(s, c) += model.layer1().b[c];
      manual(s, c) = std::max(0.0, manual(s, c));
    }
  manual = matmul(manual, model.layer2().w);
  for (std::size_t s = 0; s < manual.rows(); ++s)
    for (std::size_t c = 0; c < manual.cols(); ++c)
      manual(s, c) += model.layer2().b[c];
  EXPECT_EQ(after.max_abs_diff(manual), 0.0);
}

}  // namespace
