// Host-throughput benchmark of the photonic tensor core simulator.
//
//   perfbench --workload <token_decode|batch_stream|drift_faults>
//             [--seed N] [--seconds S] [--trace 0|1]
//             [--expect-digest HEX] [--trace-out PATH]
//
// Each workload generates its arrival schedule from the seed, builds its
// stack (timed as setup_s), serves one untimed warm-up pass, then serves
// the same schedule pass after pass for --seconds (half of it with
// --trace 1) and reports medians over the passes.  Every pass must reproduce the warm-up's modeled-report
// digest and work counters exactly.  --trace 1 adds the per-layer run: a
// pass with the program's tracer attached, a replay of one pass's
// dispatches through a timed backend, standalone lower-layer probes, and a
// 1-thread pass that must match the digest.  Human-readable tables go to
// stdout; the last stdout line is the JSON result.
#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/json.hpp"
#include "probes.hpp"
#include "spans.hpp"
#include "stats.hpp"
#include "telemetry/trace.hpp"
#include "workloads.hpp"

#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif
#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace perfbench;

/// Host pool threads of every measured fleet (clamped to the host's CPUs).
constexpr std::size_t kPoolThreads = 2;
/// Timed passes per run at the least, however short --seconds is.
constexpr std::size_t kMinPasses = 3;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string expect_digest;
  std::string trace_out;
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload <name> [--seed N] [--seconds S]"
               " [--trace 0|1] [--expect-digest HEX] [--trace-out PATH]\n";
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      o.workload = value;
    } else if (flag == "--seed") {
      o.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0' || value.empty()) usage("bad --seed " + value);
    } else if (flag == "--seconds") {
      o.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(o.seconds > 0.0) || o.seconds > 600.0) {
        usage("bad --seconds " + value);
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") usage("bad --trace " + value);
      o.trace = value == "1";
    } else if (flag == "--expect-digest") {
      o.expect_digest = value;
    } else if (flag == "--trace-out") {
      o.trace_out = value;
    } else {
      usage("unknown flag " + flag);
    }
  }
  if (o.workload.empty()) usage("--workload is required");
  return o;
}

std::string hex(std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, v);
  return buf;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // kB on Linux
}

double per(double num, double den) { return den > 0.0 ? num / den : 0.0; }

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

void print_table(const std::string& title, const std::vector<Metric>& rows) {
  std::cout << "\n" << title << "\n";
  for (const Metric& m : rows) {
    std::printf("  %-34s %-22.10g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  std::fflush(stdout);
}

std::string json_metrics(const std::vector<Metric>& rows) {
  std::ostringstream out;
  out << "{";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    if (i > 0) out << ", ";
    out << ptc::json::quote(rows[i].name) << ": {\"value\": "
        << ptc::json::format_number(rows[i].value)
        << ", \"unit\": " << ptc::json::quote(rows[i].unit) << "}";
  }
  out << "}";
  return out.str();
}

/// Accumulates pass checks: every pass must match the reference pass.
struct Checker {
  std::uint64_t digest = 0;
  WorkCounters counters;
  std::vector<std::string> failures;
  std::size_t failed_requests = 0;

  void check(const PassResult& r, const std::string& label) {
    if (r.digest != digest) {
      failures.push_back(label + ": digest " + hex(r.digest) + " != " +
                         hex(digest));
      failed_requests += r.modeled.attempted;
    } else if (!(r.counters == counters)) {
      failures.push_back(label + ": work counters differ from the warm-up");
      failed_requests += r.modeled.attempted;
    }
  }
};

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse(argc, argv);
  std::unique_ptr<Workload> wl = make_workload(opt.workload, opt.seed);
  if (!wl) usage("unknown workload " + opt.workload);

  const std::size_t nproc =
      std::max<std::size_t>(1, std::thread::hardware_concurrency());
  const std::size_t threads = std::min(kPoolThreads, nproc);

  std::cout << "perfbench " << wl->name() << ": seed " << opt.seed
            << ", seconds " << opt.seconds << ", trace " << opt.trace
            << "\nhost: nproc " << nproc << ", compiler " << PERFBENCH_COMPILER
            << ", build " << PERFBENCH_BUILD_TYPE << ", pool threads "
            << threads << "\n";
  std::cout.flush();

  // Every pass serves on a freshly built stack; each build is one set-up
  // sample.
  std::vector<double> setups;
  const auto build = [&](std::size_t pool_threads) {
    const double t0 = now_s();
    wl->build(pool_threads);
    setups.push_back(now_s() - t0);
  };

  // --- warm-up pass: the reference digest and counters -----------------------
  build(threads);
  const PassResult warm = wl->pass(nullptr);
  Checker checker{warm.digest, warm.counters, {}, 0};
  const Modeled& m = warm.modeled;
  if (!opt.expect_digest.empty() && opt.expect_digest != hex(warm.digest)) {
    checker.failures.push_back("digest " + hex(warm.digest) +
                               " != recorded " + opt.expect_digest);
  }

  // --- timed passes ------------------------------------------------------------
  // A traced run spends half of its time budget on the per-layer steps.
  const double timed_seconds = opt.trace ? opt.seconds / 2 : opt.seconds;
  std::vector<double> pass_s;
  std::vector<double> rates;
  const double start = now_s();
  while (pass_s.size() < kMinPasses || now_s() - start < timed_seconds) {
    build(threads);
    const PassResult r = wl->pass(nullptr);
    checker.check(r, "pass " + std::to_string(pass_s.size() + 1));
    pass_s.push_back(r.host_s);
    rates.push_back(static_cast<double>(r.modeled.items) / r.host_s);
  }
  const double setup_s = median(setups);
  const double pass_median = median(pass_s);
  const std::size_t attempted = m.attempted * pass_s.size();

  const double failed = failed_frac(m.attempted, m.completed, m.shed);
  if (m.items == 0) checker.failures.push_back("the pass produced no items");

  const std::vector<Metric> end_to_end = {
      {"setup_s", setup_s, "s"},
      {"sim_items_per_s", median(rates), "1/s"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
      {"modeled_p99_s", m.p99_s, "s"},
      {"modeled_ttft_p99_s", m.ttft_p99_s, "s"},
      {"modeled_items_per_s", m.items_per_s, "1/s"},
      {"modeled_energy_per_item_j", m.energy_per_item_j, "J"},
      {"output_match", m.output_match, "frac"},
      {"served_frac", 1.0 - failed, "frac"},
  };
  const double items = static_cast<double>(m.items);
  const WorkCounters& c = warm.counters;
  std::cout << "\n" << pass_s.size() << " timed passes of " << m.attempted
            << " requests, " << m.items << " " << wl->item()
            << "s each; pass host time median " << pass_median
            << " s; digest " << hex(warm.digest) << "\npass host times [s]:";
  for (const double t : pass_s) std::cout << " " << t;
  std::cout << "\n";
  print_table("end-to-end (" + std::string(wl->item()) +
                  " = item; host clock unless modeled_)",
              end_to_end);
  print_table(
      "work counters, per item unless a count (exact; identical in every "
      "pass)",
      {{"accelerator matmuls", per(c.matmuls, items), "1/item"},
       {"tile loads", per(c.tile_loads, items), "1/item"},
       {"adc sample windows", per(c.adc_samples, items), "1/item"},
       {"psram word writes", per(c.word_writes, items), "1/item"},
       {"adc conversions", per(c.adc_conversions, items), "1/item"},
       {"serve events (batches/steps)", per(c.events, items), "1/item"},
       {"tile passes", per(c.passes, items), "1/item"},
       {"warm tile passes", per(c.warm_passes, items), "1/item"},
       {"recalibrations", static_cast<double>(m.recalibrations), "count"},
       {"probe sweeps", static_cast<double>(m.probes), "count"},
       {"faults", static_cast<double>(m.faults), "count"},
       {"shed requests", static_cast<double>(m.shed), "count"},
       {"failed_frac", failed, "frac"}});

  std::vector<Metric> per_layer;
  if (opt.trace) {
    SpanRecorder spans;
    std::map<std::string, double> layer;

    // Traced pass: the program's own tracer attached, under a serve span.
    ptc::telemetry::Tracer tracer;
    PassResult traced;
    {
      build(threads);
      SpanRecorder::Scope span(spans, "serve.run");
      traced = wl->pass(&tracer);
    }
    checker.check(traced, "traced pass");

    // Replay of the pass's dispatches through the timed backend.
    TimedBackend timed(wl->registry().decode_backend(), spans);
    const bool token = std::string(wl->item()) == "token";
    const char* replayed = token ? "nn.decode_step" : "graph.run";
    const char* probed = token ? "graph.run" : "nn.decode_step";
    {
      SpanRecorder::Scope span(spans, "replay");
      wl->replay(timed, spans);
    }
    const std::vector<double> matmul_s = spans.durations("runtime.matmul");
    const double replay_rows = static_cast<double>(timed.rows());
    {
      SpanRecorder::Scope span(spans, "executor_probe");
      wl->executor_probe(timed, spans);
    }
    {
      SpanRecorder::Scope span(spans, "probes");
      run_probes(wl->accelerator(), spans, layer);
    }

    // 1-thread pass on a fresh stack: any-thread-count identity.
    PassResult single;
    {
      SpanRecorder::Scope span(spans, "serve.run_1thread");
      build(1);
      single = wl->pass(nullptr);
    }
    checker.check(single, "1-thread pass");

    const std::vector<double> replay_s = spans.durations(replayed);
    double replay_total = 0.0;
    for (const double s : replay_s) replay_total += s;
    const auto [graph_total, graph_self] = spans.total_and_self("graph.run");
    const auto [nn_total, nn_self] = spans.total_and_self("nn.decode_step");
    const Tail graph_tail = tail(spans.durations("graph.run"));
    const Tail nn_tail = tail(spans.durations("nn.decode_step"));
    const Tail matmul_tail = tail(matmul_s);

    constexpr double kUs = 1e6;
    per_layer = {
        {"serve.run_s", pass_median, "s"},
        {"serve.self_frac", 1.0 - replay_total / pass_median, "frac"},
        {"serve.host_us_per_event", kUs * per(pass_median, c.events), "us"},
        {"serve.events", static_cast<double>(c.events), "count"},
        {"serve.mean_batch", m.mean_batch, "count"},
        {"serve.warm_frac", m.warm_frac, "frac"},
        {"serve.modeled_queue_wait_p99_s", m.queue_wait_p99_s, "s"},
        {"serve.downtime_frac", m.downtime_frac, "frac"},
        {"serve.recalibrations", static_cast<double>(m.recalibrations),
         "count"},
        {"serve.probes", static_cast<double>(m.probes), "count"},
        {"serve.faults", static_cast<double>(m.faults), "count"},
        {"serve.shed", static_cast<double>(m.shed), "count"},
        {"graph.run_us_p50", kUs * percentile(spans.durations("graph.run"), 50),
         "us"},
        {"graph.run_us_tail", kUs * graph_tail.value, "us"},
        {"graph.self_frac", per(graph_self, graph_total), "frac"},
        {"nn.decode_step_us_p50",
         kUs * percentile(spans.durations("nn.decode_step"), 50), "us"},
        {"nn.decode_step_us_tail", kUs * nn_tail.value, "us"},
        {"nn.self_frac", per(nn_self, nn_total), "frac"},
        {"runtime.matmul_us_p50", kUs * percentile(matmul_s, 50), "us"},
        {"runtime.matmul_us_tail", kUs * matmul_tail.value, "us"},
        {"runtime.matmul_calls_per_item", per(c.matmuls, items), "count"},
        {"runtime.rows_per_matmul",
         per(replay_rows, static_cast<double>(matmul_s.size())), "count"},
        {"runtime.tile_loads_per_item", per(c.tile_loads, items), "count"},
        {"runtime.samples_per_item", per(c.adc_samples, items), "count"},
        {"runtime.pool_dispatch_us", layer.at("runtime.pool_dispatch_us"),
         "us"},
        {"runtime.thread_scaling", single.host_s / pass_median, "x"},
        {"runtime.advance_to_us", layer.at("runtime.advance_to_us"), "us"},
        {"runtime.recalibrate_us", layer.at("runtime.recalibrate_us"), "us"},
        {"core.load_cold_us", layer.at("core.load_cold_us"), "us"},
        {"core.load_memo_us", layer.at("core.load_memo_us"), "us"},
        {"core.matvec_us_per_row", layer.at("core.matvec_us_per_row"), "us"},
        {"core.readout_us_per_row", layer.at("core.readout_us_per_row"), "us"},
        {"core.adc_conversions_per_item", per(c.adc_conversions, items),
         "count"},
        {"core.psram_word_writes_per_item", per(c.word_writes, items),
         "count"},
        {"eoadc.convert_us", layer.at("eoadc.convert_us"), "us"},
        {"core.detune_us", layer.at("core.detune_us"), "us"},
        {"core.self_test_us", layer.at("core.self_test_us"), "us"},
        {"optics.ring_eval_ns", layer.at("optics.ring_eval_ns"), "ns"},
        {"fleet.health_sample_us", layer.at("fleet.health_sample_us"), "us"},
        {"trace.overhead_frac", traced.host_s / pass_median - 1.0, "frac"},
    };
    print_table("per-layer (traced run; " + std::string(replayed) +
                    " replays one pass, " + probed + " is a standalone probe)",
                per_layer);
    std::printf(
        "  tails: graph.run p%g of %zu (%zu beyond), nn.decode_step p%g of "
        "%zu (%zu beyond), runtime.matmul p%g of %zu (%zu beyond)\n",
        graph_tail.percentile, graph_tail.count, graph_tail.beyond,
        nn_tail.percentile, nn_tail.count, nn_tail.beyond,
        matmul_tail.percentile, matmul_tail.count, matmul_tail.beyond);
    std::printf("  program tracer recorded %zu events in the traced pass\n",
                tracer.size());
    if (!opt.trace_out.empty()) {
      spans.write_chrome_json(opt.trace_out);
      std::cout << "  wrote " << spans.spans().size() << " host spans to "
                << opt.trace_out << "\n";
    }
  }

  for (const std::string& f : checker.failures) {
    std::cout << "CHECK FAILED: " << f << "\n";
  }
  if (!checker.failures.empty() && checker.failed_requests == 0) {
    checker.failed_requests = attempted;
  }
  const bool correct = checker.failures.empty();
  std::cout << (correct ? "outputs checked: digest and work counters "
                          "identical in every pass\n"
                        : "outputs INCORRECT\n");
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << attempted
            << ", \"failed\": " << std::min(checker.failed_requests, attempted)
            << ", \"metrics\": "
            << json_metrics(opt.trace ? per_layer : end_to_end) << "}"
            << std::endl;
  return 0;
}
