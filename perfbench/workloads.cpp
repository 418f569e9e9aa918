#include "workloads.hpp"

#include <algorithm>
#include <map>
#include <stdexcept>
#include <utility>

#include "common/rng.hpp"
#include "graph/compile.hpp"
#include "graph/executor.hpp"
#include "graph/models.hpp"
#include "nn/dataset.hpp"
#include "nn/mlp.hpp"
#include "nn/transformer.hpp"
#include "runtime/fault.hpp"
#include "serve/batcher.hpp"
#include "serve/load_generator.hpp"
#include "serve/server.hpp"
#include "serve/token_server.hpp"

namespace perfbench {
namespace {

using namespace ptc;

// --- shared helpers ----------------------------------------------------------

/// FNV-1a over raw bytes: the pass digest.
class Digest {
 public:
  void bytes(const void* data, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      hash_ ^= p[i];
      hash_ *= 1099511628211ull;
    }
  }
  void u64(std::uint64_t v) { bytes(&v, sizeof v); }
  void f64(double v) { bytes(&v, sizeof v); }
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 1469598103934665603ull;
};

/// Cumulative fleet counters; a pass's work is the difference of two.
WorkCounters snapshot(const runtime::Accelerator& fleet) {
  const runtime::AcceleratorStats stats = fleet.stats();
  WorkCounters c;
  c.matmuls = stats.matmuls;
  c.tile_loads = stats.tile_loads;
  c.adc_samples = stats.samples;
  for (std::size_t i = 0; i < fleet.core_count(); ++i) {
    c.word_writes += fleet.core(i).psram().word_writes();
    c.adc_conversions += fleet.core(i).adc_conversions();
  }
  return c;
}

WorkCounters delta(const WorkCounters& after, const WorkCounters& before) {
  WorkCounters d;
  d.matmuls = after.matmuls - before.matmuls;
  d.tile_loads = after.tile_loads - before.tile_loads;
  d.adc_samples = after.adc_samples - before.adc_samples;
  d.word_writes = after.word_writes - before.word_writes;
  d.adc_conversions = after.adc_conversions - before.adc_conversions;
  return d;
}

/// The decoder bench_serving_transformer serves.
nn::TransformerConfig decoder_config() {
  nn::TransformerConfig config;
  config.vocab = 16;
  config.d_model = 8;
  config.heads = 2;
  config.layers = 2;
  config.d_ff = 12;
  config.max_seq = 24;
  return config;
}

nn::TransformerModel decoder_model() {
  Rng rng(71);
  return nn::TransformerModel::random(decoder_config(), rng);
}

/// Standalone decode probe: one request decoded through the whole context.
void decode_probe(nn::MatmulBackend& backend, SpanRecorder& spans) {
  const nn::TransformerModel model = decoder_model();
  nn::KvCache cache = model.make_cache();
  std::size_t token = 1;
  for (std::size_t t = 0; t + 1 < model.config().max_seq; ++t) {
    std::vector<double> logits;
    {
      SpanRecorder::Scope span(spans, "nn.decode_step");
      logits = model.decode_step(backend, cache, token);
    }
    token = static_cast<std::size_t>(
        std::max_element(logits.begin(), logits.end()) - logits.begin());
  }
}

// --- token_decode --------------------------------------------------------------

/// TokenServer with continuous batching on a 32-core fleet, serving the
/// 2-layer decoder.  Arrivals are Poisson at 1 Greq/s (1 ns apart on
/// average: saturating); prompts are 1-12 tokens and generation fills the
/// context window.
class TokenDecode final : public Workload {
 public:
  static constexpr std::size_t kRequests = 24;
  static constexpr std::size_t kCores = 32;
  static constexpr std::size_t kMaxBatch = 8;

  explicit TokenDecode(std::uint64_t seed) : model_(decoder_model()) {
    const nn::TransformerConfig config = model_.config();
    Rng load(seed);
    const char* tenants[] = {"acme", "globex", "initech"};
    double arrival = 0.0;
    for (std::size_t i = 0; i < kRequests; ++i) {
      serve::TokenRequest request;
      request.id = i;
      request.tenant = tenants[i % 3];
      request.model = "tf";
      request.arrival = arrival;
      arrival += load.exponential(1e9);
      const std::size_t prompt_len = 1 + load.below(12);
      for (std::size_t t = 0; t < prompt_len; ++t) {
        request.prompt.push_back(load.below(config.vocab));
      }
      request.max_new = config.max_seq - prompt_len;
      requests_.push_back(std::move(request));
    }
    // Pre-warm: one single-token request streams every static weight tile.
    warmup_ = requests_.front();
    warmup_.prompt = {0};
    warmup_.max_new = 1;
    policy_.schedule = serve::TokenPolicy::Schedule::kContinuous;
    policy_.max_batch = kMaxBatch;
    full_graph_ = graph::compile(model_.build_graph(config.max_seq));
  }

  const char* name() const override { return "token_decode"; }
  const char* item() const override { return "token"; }

  void build(std::size_t threads) override {
    server_.reset();
    registry_.reset();
    fleet_.reset();
    runtime::AcceleratorConfig config;
    config.cores = kCores;
    config.threads = threads;
    config.variation.seed = 7;
    fleet_ = std::make_unique<runtime::Accelerator>(config);
    // The full hardware path the digit classifier uses: 3-bit eoADC
    // readout with differential weights and readout ranging.
    nn::PhotonicBackendOptions options;
    options.differential_weights = true;
    options.adc_range_gain = 8.0;
    registry_ = std::make_unique<serve::ModelRegistry>(*fleet_, options);
    registry_->add_transformer("tf", model_);
    server_ = std::make_unique<serve::TokenServer>(*registry_);
    server_->run({warmup_}, policy_);
  }

  PassResult pass(telemetry::Tracer* tracer) override {
    const WorkCounters before = snapshot(*fleet_);
    server_->set_tracer(tracer);
    const double t0 = now_s();
    last_ = server_->run(requests_, policy_);
    const double t1 = now_s();
    server_->set_tracer(nullptr);

    PassResult out;
    out.host_s = t1 - t0;
    out.counters = delta(snapshot(*fleet_), before);
    out.counters.events = last_.steps;
    out.counters.passes = last_.passes;
    out.counters.warm_passes = last_.warm_passes;

    std::vector<const serve::TokenRequestRecord*> records;
    for (const auto& r : last_.requests) records.push_back(&r);
    std::sort(records.begin(), records.end(),
              [](const auto* a, const auto* b) { return a->id < b->id; });
    Digest digest;
    for (const serve::TokenRequestRecord* r : records) {
      digest.u64(r->id);
      for (const std::size_t t : r->tokens) digest.u64(t);
    }
    digest.f64(last_.makespan);
    digest.f64(last_.energy);
    digest.f64(last_.total.p99);
    digest.f64(last_.first_token.p99);
    digest.u64(last_.tokens);
    digest.u64(last_.steps);
    out.digest = digest.value();

    Modeled& m = out.modeled;
    m.attempted = requests_.size();
    m.completed = last_.completed;
    m.items = last_.tokens;
    m.p99_s = last_.total.p99;
    m.ttft_p99_s = last_.first_token.p99;
    // The token server admits straight into decode slots; the wait for a
    // slot is folded into the time to first token.
    m.queue_wait_p99_s = last_.first_token.p99;
    m.items_per_s = last_.tokens_per_second();
    m.energy_per_item_j = last_.energy_per_token();
    m.output_match = greedy_match(records);
    m.mean_batch = last_.steps > 0 ? static_cast<double>(last_.tokens) /
                                         static_cast<double>(last_.steps)
                                   : 0.0;
    m.warm_frac = last_.warm_fraction();
    return out;
  }

  void replay(nn::MatmulBackend& backend, SpanRecorder& spans) override {
    std::size_t calls = 0;
    for (const serve::TokenRequestRecord& r : last_.requests) {
      nn::KvCache cache = model_.make_cache();
      for (std::size_t i = 0; i + 1 < r.tokens.size(); ++i) {
        SpanRecorder::Scope span(spans, "nn.decode_step");
        model_.decode_step(backend, cache, r.tokens[i]);
        ++calls;
      }
    }
    if (calls != last_.tokens) {
      throw std::runtime_error("token replay fed " + std::to_string(calls) +
                               " tokens, the pass fed " +
                               std::to_string(last_.tokens));
    }
  }

  void executor_probe(nn::MatmulBackend& backend,
                      SpanRecorder& spans) override {
    // The same weights as one full-sequence graph over each request's
    // first max_seq tokens.
    for (std::size_t r = 0; r < 10 && r < last_.requests.size(); ++r) {
      const std::vector<std::size_t>& stream = last_.requests[r].tokens;
      Matrix ids(1, model_.config().max_seq);
      for (std::size_t t = 0; t < ids.cols(); ++t) {
        ids(0, t) = static_cast<double>(stream[t % stream.size()]);
      }
      SpanRecorder::Scope span(spans, "graph.run");
      graph::run(full_graph_, backend, ids);
    }
  }

  runtime::Accelerator& accelerator() override { return *fleet_; }
  serve::ModelRegistry& registry() override { return *registry_; }

 private:
  /// Share of generated tokens equal to the float backend's greedy pick
  /// given the same served prefix.  Teacher-forced, so one early mismatch
  /// does not turn every later position of the stream into a mismatch.
  double greedy_match(
      const std::vector<const serve::TokenRequestRecord*>& records) const {
    nn::FloatBackend exact;
    std::size_t generated = 0;
    std::size_t matched = 0;
    for (const serve::TokenRequestRecord* r : records) {
      nn::KvCache cache = model_.make_cache();
      for (std::size_t i = 0; i + 1 < r->tokens.size(); ++i) {
        const std::vector<double> logits =
            model_.decode_step(exact, cache, r->tokens[i]);
        if (i + 1 < r->prompt_tokens) continue;
        ++generated;
        const auto pick = static_cast<std::size_t>(
            std::max_element(logits.begin(), logits.end()) - logits.begin());
        if (pick == r->tokens[i + 1]) ++matched;
      }
    }
    return generated > 0 ? static_cast<double>(matched) /
                               static_cast<double>(generated)
                         : 0.0;
  }

  nn::TransformerModel model_;
  std::vector<serve::TokenRequest> requests_;
  serve::TokenRequest warmup_;
  serve::TokenPolicy policy_;
  graph::CompiledGraph full_graph_;
  std::unique_ptr<runtime::Accelerator> fleet_;
  std::unique_ptr<serve::ModelRegistry> registry_;
  std::unique_ptr<serve::TokenServer> server_;
  serve::TokenServeReport last_;
};

// --- batch_stream / drift_faults -------------------------------------------------

/// Everything that distinguishes the two Server workloads.
struct BatchSpec {
  const char* name = "";
  runtime::AcceleratorConfig fleet;
  nn::PhotonicBackendOptions options;
  void (*register_models)(serve::ModelRegistry&) = nullptr;
  std::vector<serve::TenantConfig> tenants;
  serve::BatchPolicy policy;
  /// Replace the uniform input rows with glyph images drawn from the same
  /// seed.
  bool glyph_inputs = false;
  /// Poisson hard faults [1/s] over the arrival window; 0 = none.
  double fault_rate = 0.0;
  /// Field-repair delay after each fault [s] (a kClear event).
  double repair_after = 0.0;
};

/// Dynamic-batching Server over a spec's fleet and tenants.
class BatchServe final : public Workload {
 public:
  BatchServe(BatchSpec spec, std::uint64_t seed)
      : spec_(std::move(spec)), seed_(seed) {}

  const char* name() const override { return spec_.name; }
  const char* item() const override { return "request"; }

  void build(std::size_t threads) override {
    server_.reset();
    registry_.reset();
    fleet_.reset();
    runtime::AcceleratorConfig config = spec_.fleet;
    config.threads = threads;
    fleet_ = std::make_unique<runtime::Accelerator>(config);
    registry_ =
        std::make_unique<serve::ModelRegistry>(*fleet_, spec_.options);
    spec_.register_models(*registry_);
    server_ = std::make_unique<serve::Server>(*registry_);
    if (requests_.empty()) generate();
    server_->run(warmup_, spec_.policy);
    if (!faults_.empty()) server_->set_fault_schedule(faults_);
  }

  PassResult pass(telemetry::Tracer* tracer) override {
    const WorkCounters before = snapshot(*fleet_);
    server_->set_tracer(tracer);
    const double t0 = now_s();
    last_ = server_->run(requests_, spec_.policy);
    const double t1 = now_s();
    server_->set_tracer(nullptr);

    PassResult out;
    out.host_s = t1 - t0;
    out.counters = delta(snapshot(*fleet_), before);
    out.counters.events = last_.dispatched_batches;
    out.counters.passes = last_.passes;
    out.counters.warm_passes = last_.warm_passes;

    std::vector<const serve::RequestRecord*> records;
    std::vector<double> totals;
    std::vector<double> waits;
    for (const auto& r : last_.requests) {
      records.push_back(&r);
      totals.push_back(r.total());
      waits.push_back(r.queue_wait());
    }
    std::sort(records.begin(), records.end(),
              [](const auto* a, const auto* b) { return a->id < b->id; });
    Digest digest;
    for (const serve::RequestRecord* r : records) {
      digest.u64(r->id);
      digest.u64(r->predicted);
      digest.u64(r->matches_reference ? 1 : 0);
      digest.u64(r->batch);
    }
    digest.f64(last_.makespan);
    digest.f64(last_.energy);
    digest.f64(last_.total.p99);
    digest.u64(last_.completed);
    digest.u64(last_.shed);
    digest.u64(last_.recalibrations);
    digest.u64(last_.probes);
    digest.u64(last_.faults);
    out.digest = digest.value();

    Modeled& m = out.modeled;
    m.attempted = requests_.size();
    m.completed = last_.completed;
    m.shed = last_.shed;
    m.items = last_.completed;
    // Exact nearest-rank tails from the per-request records (the report's
    // own summaries are histogram-bucketed).
    m.p99_s = totals.empty() ? 0.0 : percentile(totals, 99.0);
    // One output per request: its first output is its completion.
    m.ttft_p99_s = m.p99_s;
    m.queue_wait_p99_s = waits.empty() ? 0.0 : percentile(waits, 99.0);
    m.items_per_s = last_.throughput();
    m.energy_per_item_j = last_.energy_per_request();
    m.output_match = last_.accuracy();
    m.mean_batch = last_.mean_batch();
    m.warm_frac = last_.warm_fraction();
    m.downtime_frac =
        last_.makespan > 0.0
            ? (last_.recalibration_time + last_.probe_time +
               last_.fault_time) /
                  last_.makespan
            : 0.0;
    m.recalibrations = last_.recalibrations;
    m.probes = last_.probes;
    m.faults = last_.faults;
    return out;
  }

  void replay(nn::MatmulBackend& backend, SpanRecorder& spans) override {
    std::map<std::size_t, std::vector<std::size_t>> members;  // batch -> ids
    for (const serve::RequestRecord& r : last_.requests) {
      members[r.batch].push_back(r.id);
    }
    for (const serve::BatchRecord& batch : last_.batches) {
      const std::vector<std::size_t>& ids = members[batch.id];
      if (ids.empty()) continue;
      const std::size_t width = registry_->input_width(batch.model);
      Matrix x(ids.size(), width);
      for (std::size_t i = 0; i < ids.size(); ++i) {
        const std::vector<double>& input = requests_.at(ids[i]).input;
        std::copy(input.begin(), input.end(), x.data().begin() + i * width);
      }
      SpanRecorder::Scope span(spans, "graph.run");
      graph::run(registry_->compiled(batch.model), backend, x);
    }
  }

  void executor_probe(nn::MatmulBackend& backend,
                      SpanRecorder& spans) override {
    decode_probe(backend, spans);
  }

  runtime::Accelerator& accelerator() override { return *fleet_; }
  serve::ModelRegistry& registry() override { return *registry_; }

 private:
  void generate() {
    requests_ = arrivals(spec_.tenants, seed_);
    if (spec_.glyph_inputs) {
      Rng rng(seed_ ^ 0x61797068);
      const nn::Dataset glyphs = nn::make_dataset(requests_.size(), rng, 0.12);
      for (std::size_t i = 0; i < requests_.size(); ++i) {
        const double* row = &glyphs.inputs.data()[i * nn::glyph_pixels];
        requests_[i].input.assign(row, row + nn::glyph_pixels);
      }
    }
    // Pre-warm: a short schedule of every tenant from a fixed seed, so
    // set-up does the same work whatever the workload seed.
    std::vector<serve::TenantConfig> warm_tenants = spec_.tenants;
    for (serve::TenantConfig& tenant : warm_tenants) tenant.requests = 16;
    warmup_ = arrivals(warm_tenants, kWarmupSeed);
    if (spec_.fault_rate <= 0.0) return;
    // The fault history is part of the scenario, not of the traffic: a
    // fixed seed over the expected arrival window, so the seed moves only
    // the arrivals and inputs and the control-plane work stays comparable.
    double horizon = 0.0;
    for (const serve::TenantConfig& tenant : spec_.tenants) {
      horizon = std::max(horizon,
                         static_cast<double>(tenant.requests) / tenant.rate);
    }
    for (runtime::FaultEvent event : runtime::poisson_fault_schedule(
             spec_.fault_rate, horizon, spec_.fleet.cores, kFaultSeed)) {
      // Dead-ring clusters sized well past the self-test's FAILED bar.
      if (event.kind == runtime::FaultEvent::Kind::kDeadRings) {
        event.count = 64;
      }
      faults_.push_back(event);
      runtime::FaultEvent repair;
      repair.kind = runtime::FaultEvent::Kind::kClear;
      repair.core = event.core;
      repair.time = event.time + spec_.repair_after;
      faults_.push_back(repair);
    }
    std::stable_sort(faults_.begin(), faults_.end(),
                     [](const auto& a, const auto& b) {
                       return a.time < b.time;
                     });
  }

  /// Open-loop Poisson arrivals of every tenant conditioned on its request
  /// count: the arrival instants are sorted uniform draws over the tenant's
  /// window requests / rate.  Fixing the window keeps the modeled span, and
  /// with it the drift and probe work per request, the same for every seed.
  /// Inputs are uniform in [0, 1) at the model's width; ids follow arrival
  /// order.
  std::vector<serve::Request> arrivals(
      const std::vector<serve::TenantConfig>& tenants,
      std::uint64_t seed) const {
    const Rng base(seed);
    std::vector<serve::Request> out;
    for (std::size_t t = 0; t < tenants.size(); ++t) {
      const serve::TenantConfig& tenant = tenants[t];
      Rng times = base.split(2 * t);
      Rng inputs = base.split(2 * t + 1);
      const double window = static_cast<double>(tenant.requests) / tenant.rate;
      std::vector<double> at(tenant.requests);
      for (double& a : at) a = window * times.uniform();
      std::sort(at.begin(), at.end());
      const std::size_t width = registry_->input_width(tenant.model);
      for (const double a : at) {
        serve::Request request;
        request.tenant = tenant.name;
        request.model = tenant.model;
        request.arrival = a;
        request.input.resize(width);
        for (double& x : request.input) x = inputs.uniform();
        out.push_back(std::move(request));
      }
    }
    std::stable_sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
      return a.arrival < b.arrival;
    });
    for (std::size_t i = 0; i < out.size(); ++i) out[i].id = i;
    return out;
  }

  BatchSpec spec_;
  std::uint64_t seed_;
  static constexpr std::uint64_t kWarmupSeed = 4321;
  static constexpr std::uint64_t kFaultSeed = 905;

  std::vector<serve::Request> requests_;
  std::vector<serve::Request> warmup_;
  std::vector<runtime::FaultEvent> faults_;
  std::unique_ptr<runtime::Accelerator> fleet_;
  std::unique_ptr<serve::ModelRegistry> registry_;
  std::unique_ptr<serve::Server> server_;
  serve::ServeReport last_;
};

/// Digit classifiers trained in float on synthetic 8x8 glyphs, so that
/// served outputs can be compared to the float reference meaningfully
/// (random weights on random inputs leave near-tied logits whose argmax
/// is noise).  Trained once per process from a fixed seed.
struct GlyphModels {
  nn::Mlp mlp;            ///< 64-32-10: 10 weight tiles > 8 cores
  graph::Graph cnn;       ///< conv(4ch) -> pool -> 36-16-10 dense head
};

const GlyphModels& glyph_models() {
  static const GlyphModels models = [] {
    Rng rng(2025);
    const nn::Dataset train = nn::make_dataset(600, rng, 0.12);
    nn::Mlp mlp(nn::glyph_pixels, 32, nn::glyph_classes, rng);
    for (int epoch = 0; epoch < 8; ++epoch) {
      mlp.train_epoch(train, 0.1, 16, rng);
    }
    const Matrix bank = graph::edge_kernel_bank(4);
    graph::Graph features;
    {
      auto v = features.input(graph::Shape{{nn::glyph_side, nn::glyph_side, 1}});
      v = features.conv2d(v, bank, 3);
      v = features.relu(v);
      v = features.maxpool(v, 2);
      features.flatten(v);
    }
    nn::FloatBackend exact;
    const nn::Dataset train_features{
        graph::run(graph::compile(features), exact, train.inputs),
        train.labels};
    nn::Mlp head(train_features.inputs.cols(), 16, nn::glyph_classes, rng);
    for (int epoch = 0; epoch < 15; ++epoch) {
      head.train_epoch(train_features, 0.1, 16, rng);
    }
    return GlyphModels{
        std::move(mlp),
        graph::cnn_graph(nn::glyph_side, nn::glyph_side, bank, 3, 2,
                         head.layer1().w, head.layer1().b, head.layer2().w,
                         head.layer2().b)};
  }();
  return models;
}

/// Streaming MLP (10 tiles > 8 cores: every batch rewrites pSRAM) plus the
/// compiled CNN (36 im2col rows per request) on an 8-core varied fleet,
/// classifying glyph images.
BatchSpec batch_stream_spec() {
  constexpr std::size_t kCnnRequests = 800;
  glyph_models();  // train now, outside every timed set-up
  BatchSpec spec;
  spec.name = "batch_stream";
  spec.fleet.cores = 8;
  spec.fleet.variation.seed = 42;
  // The digit classifier's full hardware path: 3-bit eoADC readout with
  // differential weights and readout ranging.
  spec.options.differential_weights = true;
  spec.options.adc_range_gain = 8.0;
  spec.register_models = [](serve::ModelRegistry& registry) {
    registry.add("stream", glyph_models().mlp);
    registry.add_graph("cnn", glyph_models().cnn);
  };
  spec.glyph_inputs = true;
  spec.tenants = {
      {.name = "mlp", .model = "stream", .rate = 1.2e9,
       .requests = 4 * kCnnRequests},
      {.name = "cnn", .model = "cnn", .rate = 0.3e9,
       .requests = kCnnRequests}};
  spec.policy = {.max_batch = 32, .max_wait = 100e-9};
  return spec;
}

/// bench_serving_health's fleet (6-bit weights, variation seed 42, OU drift
/// sigma 1 K, tau 4 us, differential analog readout) with pilot-tone
/// probes, the estimated-drift trigger, and Poisson hard faults handled by
/// eviction, recalibration and shedding.
BatchSpec drift_faults_spec() {
  BatchSpec spec;
  spec.name = "drift_faults";
  spec.fleet.cores = 8;
  spec.fleet.core.weight_bits = 6;
  spec.fleet.variation.seed = 42;
  spec.fleet.drift.sigma = 1.0;
  spec.fleet.drift.tau = 4e-6;
  spec.options.quantize_output = false;
  spec.options.differential_weights = true;
  spec.register_models = [](serve::ModelRegistry& registry) {
    Rng rng(7);
    registry.add("mlp", nn::Mlp(32, 16, 10, rng));
  };
  spec.tenants = {
      {.name = "t", .model = "mlp", .rate = 100e6, .requests = 1024}};
  spec.policy = {.max_batch = 8,
                 .max_wait = 20e-9,
                 .probe_period = 30e-9,
                 .estimated_drift_threshold = 0.10,
                 .evict_on_fault = true,
                 .recalibrate_on_fault = true,
                 .degraded_queue_limit = 6};
  spec.fault_rate = 2e6;
  spec.repair_after = 0.5e-6;
  return spec;
}

}  // namespace

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed) {
  if (name == "token_decode") return std::make_unique<TokenDecode>(seed);
  if (name == "batch_stream") {
    return std::make_unique<BatchServe>(batch_stream_spec(), seed);
  }
  if (name == "drift_faults") {
    return std::make_unique<BatchServe>(drift_faults_spec(), seed);
  }
  return nullptr;
}

}  // namespace perfbench
