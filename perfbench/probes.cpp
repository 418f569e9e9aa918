#include "probes.hpp"

#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "core/eoadc.hpp"
#include "core/tensor_core.hpp"
#include "fleet/health.hpp"
#include "optics/microring.hpp"

namespace perfbench {
namespace {

using namespace ptc;

volatile double g_sink = 0.0;

/// Median host time [s] of one call of `fn`, each call in its own span.
template <typename Fn>
double timed_calls(SpanRecorder& spans, const char* name, std::size_t calls,
                   Fn&& fn) {
  for (std::size_t i = 0; i < calls; ++i) {
    SpanRecorder::Scope span(spans, name);
    fn(i);
  }
  return median(spans.durations(name));
}

std::vector<std::vector<std::uint32_t>> random_words(const core::TensorCore& c,
                                                     Rng& rng) {
  std::vector<std::vector<std::uint32_t>> w(c.rows(),
                                            std::vector<std::uint32_t>(c.cols()));
  for (auto& row : w) {
    for (auto& v : row) {
      v = static_cast<std::uint32_t>(rng.below(c.max_weight() + 1));
    }
  }
  return w;
}

Matrix random_inputs(std::size_t rows, std::size_t cols, Rng& rng) {
  Matrix x(rows, cols);
  for (double& v : x.data()) v = rng.uniform();
  return x;
}

}  // namespace

void run_probes(runtime::Accelerator& fleet, SpanRecorder& spans,
                std::map<std::string, double>& out) {
  constexpr double kUs = 1e6;
  Rng rng(2718);

  // --- runtime: pool dispatch, drift clock, fleet recalibration -----------
  const std::size_t cores = fleet.core_count();
  out["runtime.pool_dispatch_us"] =
      kUs * timed_calls(spans, "runtime.pool_dispatch", 200, [&](std::size_t) {
        fleet.pool().parallel_for(0, cores, [](std::size_t) {});
      });
  const double clock = fleet.clock();
  out["runtime.advance_to_us"] =
      kUs * timed_calls(spans, "runtime.advance_to", 20, [&](std::size_t i) {
        fleet.advance_to(clock + 30e-9 * static_cast<double>(i + 1));
      });
  out["runtime.recalibrate_us"] =
      kUs * timed_calls(spans, "runtime.recalibrate", 5,
                        [&](std::size_t) { fleet.recalibrate(); });

  // --- fleet: one health sweep over every core ------------------------------
  {
    fleet::FleetHealthMonitor monitor(fleet);
    const double t0 = fleet.clock();
    out["fleet.health_sample_us"] =
        kUs * timed_calls(spans, "fleet.health_sample", 20, [&](std::size_t i) {
          monitor.sample(t0 + 30e-9 * static_cast<double>(i + 1));
        });
  }

  // --- core: a die with the fleet's core-0 configuration --------------------
  core::TensorCore probe(fleet.core(0).config());
  std::vector<std::vector<std::vector<std::uint32_t>>> fresh;
  for (int i = 0; i < 20; ++i) fresh.push_back(random_words(probe, rng));
  out["core.load_cold_us"] =
      kUs * timed_calls(spans, "core.load_cold", fresh.size(),
                        [&](std::size_t i) { probe.load_weights(fresh[i]); });
  // Two word sets alternating: both stay in the calibration memo.
  out["core.load_memo_us"] =
      kUs * timed_calls(spans, "core.load_memo", 50, [&](std::size_t i) {
        probe.load_weights(fresh[fresh.size() - 1 - i % 2]);
      });

  constexpr std::size_t kRows = 256;
  const Matrix x = random_inputs(kRows, probe.cols(), rng);
  const double analog = timed_calls(
      spans, "core.matvec", 5, [&](std::size_t) { probe.multiply_analog_batch(x); });
  const double quantized = timed_calls(
      spans, "core.multiply_batch", 5, [&](std::size_t) { probe.multiply_batch(x); });
  out["core.matvec_us_per_row"] = kUs * analog / kRows;
  out["core.readout_us_per_row"] = kUs * (quantized - analog) / kRows;

  out["core.detune_us"] =
      kUs * timed_calls(spans, "core.detune", 20, [&](std::size_t i) {
        probe.set_thermal_detuning(0.01 * static_cast<double>(i + 1));
      });
  probe.recalibrate();
  out["core.self_test_us"] =
      kUs * timed_calls(spans, "core.self_test", 5, [&](std::size_t i) {
        probe.self_test(fleet.config().self_test.samples, 2026 + i);
      });

  // --- eoADC and ring: the unit costs under readout and calibration ---------
  core::EoAdc adc(probe.config().adc);
  const double full_scale = probe.config().adc.v_full_scale;
  unsigned codes = 0;
  out["eoadc.convert_us"] =
      kUs * timed_calls(spans, "eoadc.convert", 2000, [&](std::size_t i) {
        codes += adc.convert(full_scale * static_cast<double>(i % 97) / 97.0)
                     .code;
      });

  const optics::Microring ring{optics::MicroringConfig{}};
  constexpr std::size_t kEvals = 20000;
  double sink = 0.0;
  const double per_batch = timed_calls(
      spans, "optics.ring_eval_x20000", 5, [&](std::size_t) {
        for (std::size_t i = 0; i < kEvals; ++i) {
          sink += ring.thru_transmission(1305e-9 +
                                         1e-11 * static_cast<double>(i % 1000));
        }
      });
  out["optics.ring_eval_ns"] = 1e9 * per_batch / kEvals;
  // Keep the probe results observable so the loops are not elided.
  g_sink = sink + codes;
}

}  // namespace perfbench
