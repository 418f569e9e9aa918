#ifndef PERFBENCH_WORKLOADS_HPP
#define PERFBENCH_WORKLOADS_HPP

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "runtime/accelerator.hpp"
#include "serve/model_registry.hpp"
#include "spans.hpp"
#include "telemetry/trace.hpp"

/// The three benchmark workloads.  Each generates its open-loop arrival
/// schedule up front from the seed, builds a fleet + registry + server
/// (the timed set-up), and serves the whole schedule once per pass as fast
/// as the host allows.  Every pass replays the same schedule, so the
/// modeled report, its digest and the work counters must repeat exactly.
namespace perfbench {

/// Exact, host-independent work one pass performs, read from public
/// getters as before/after deltas.
struct WorkCounters {
  std::uint64_t matmuls = 0;          ///< AcceleratorStats::matmuls
  std::uint64_t tile_loads = 0;       ///< AcceleratorStats::tile_loads
  std::uint64_t adc_samples = 0;      ///< AcceleratorStats::samples
  std::uint64_t word_writes = 0;      ///< sum of psram().word_writes()
  std::uint64_t adc_conversions = 0;  ///< sum of adc_conversions()
  std::uint64_t events = 0;           ///< batches or token steps
  std::uint64_t passes = 0;           ///< report tile passes
  std::uint64_t warm_passes = 0;      ///< report reload-free passes

  bool operator==(const WorkCounters&) const = default;
};

/// The modeled (simulated-hardware) outcome of one pass.
struct Modeled {
  std::size_t attempted = 0;  ///< requests offered
  std::size_t completed = 0;  ///< requests served to completion
  std::size_t shed = 0;       ///< requests refused by load shedding
  std::size_t items = 0;      ///< tokens (token_decode) or completed requests
  double p99_s = 0.0;         ///< arrival -> completion, nearest-rank p99
  double ttft_p99_s = 0.0;    ///< arrival -> first output, p99
  double queue_wait_p99_s = 0.0;
  double items_per_s = 0.0;   ///< items per modeled second
  double energy_per_item_j = 0.0;
  double output_match = 0.0;  ///< share of outputs equal to the float reference
  double mean_batch = 0.0;
  double warm_frac = 0.0;
  double downtime_frac = 0.0;  ///< recal + probe + self-test time / makespan
  std::size_t recalibrations = 0;
  std::size_t probes = 0;
  std::size_t faults = 0;
};

struct PassResult {
  double host_s = 0.0;  ///< host wall time of the serve call
  std::uint64_t digest = 0;
  WorkCounters counters;
  Modeled modeled;
};

class Workload {
 public:
  virtual ~Workload() = default;

  virtual const char* name() const = 0;
  /// What one item is: "token" or "request".
  virtual const char* item() const = 0;

  /// Builds the fleet (with `threads` host pool threads), the registry and
  /// the server, dropping any previous stack, then pre-warms it with a
  /// short run over the head of the schedule (weight plans, calibration
  /// memos and the health monitor fill).  This is what setup_s times.
  virtual void build(std::size_t threads) = 0;

  /// Serves the whole schedule once on the stack build() just made.  Every
  /// pass gets a fresh stack: the energy ledger and the fleet clock are
  /// cumulative, so only identical starting states give bit-identical
  /// reports.  A non-null `tracer` is attached to the server for the pass
  /// (the program's own modeled-time tracing).
  virtual PassResult pass(ptc::telemetry::Tracer* tracer) = 0;

  /// Replays the last pass's dispatches through the model executor
  /// (graph::run per batch, or TransformerModel::decode_step per token)
  /// on `backend`, each inside an executor span.
  virtual void replay(ptc::nn::MatmulBackend& backend,
                      SpanRecorder& spans) = 0;

  /// Runs the other executor once as a standalone probe on `backend`, so
  /// every workload reports both executor layers.
  virtual void executor_probe(ptc::nn::MatmulBackend& backend,
                              SpanRecorder& spans) = 0;

  virtual ptc::runtime::Accelerator& accelerator() = 0;
  virtual ptc::serve::ModelRegistry& registry() = 0;
};

/// nullptr for an unknown name.
std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_HPP
