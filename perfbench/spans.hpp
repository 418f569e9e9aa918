#ifndef PERFBENCH_SPANS_HPP
#define PERFBENCH_SPANS_HPP

#include <chrono>
#include <cstddef>
#include <string>
#include <utility>
#include <vector>

#include "nn/backend.hpp"
#include "stats.hpp"
#include "telemetry/trace.hpp"

/// Host-time spans recorded from the benchmark's own files around calls
/// into the simulator's layers.  Spans are kept in memory and exported once
/// at the end through telemetry::Tracer's Chrome trace writer.
namespace perfbench {

inline double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  std::string name;
  double start = 0.0;  ///< host seconds (steady clock)
  double end = 0.0;
  int parent = -1;     ///< index of the enclosing span, -1 at the root
};

/// Single-threaded span store: spans nest by open/close order.
class SpanRecorder {
 public:
  int open(const std::string& name) {
    spans_.push_back({name, now_s(), 0.0, open_});
    open_ = static_cast<int>(spans_.size()) - 1;
    return open_;
  }
  void close(int id) {
    spans_[id].end = now_s();
    open_ = spans_[id].parent;
  }

  /// RAII span around one call.
  class Scope {
   public:
    Scope(SpanRecorder& recorder, const std::string& name)
        : recorder_(recorder), id_(recorder.open(name)) {}
    ~Scope() { recorder_.close(id_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanRecorder& recorder_;
    int id_;
  };

  const std::vector<Span>& spans() const { return spans_; }

  /// Durations [s] of every span named `name`, in recording order.
  std::vector<double> durations(const std::string& name) const {
    std::vector<double> out;
    for (const Span& s : spans_) {
      if (s.name == name) out.push_back(s.end - s.start);
    }
    return out;
  }

  /// Summed duration and summed self time [s] of every span named `name`.
  std::pair<double, double> total_and_self(const std::string& name) const {
    std::vector<std::vector<Interval>> children(spans_.size());
    for (const Span& s : spans_) {
      if (s.parent >= 0) children[s.parent].push_back({s.start, s.end});
    }
    double total = 0.0;
    double self = 0.0;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      if (spans_[i].name != name) continue;
      total += spans_[i].end - spans_[i].start;
      self += self_time({spans_[i].start, spans_[i].end}, children[i]);
    }
    return {total, self};
  }

  /// Chrome trace-event JSON, timestamps relative to the first span.
  void write_chrome_json(const std::string& path) const {
    ptc::telemetry::Tracer tracer;
    tracer.set_track_name(ptc::telemetry::track::kServe, "perfbench host");
    const double origin = spans_.empty() ? 0.0 : spans_.front().start;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      tracer.complete(ptc::telemetry::track::kServe, s.name.c_str(), "host",
                      s.start - origin, s.end - origin,
                      {{"span", i}, {"parent", static_cast<double>(s.parent)}});
    }
    tracer.write_chrome_json_file(path);
  }

 private:
  std::vector<Span> spans_;
  int open_ = -1;
};

/// nn::MatmulBackend decorator: forwards every call to `inner` inside a
/// "runtime.matmul" span and counts the activation rows it streamed.
class TimedBackend final : public ptc::nn::MatmulBackend {
 public:
  TimedBackend(ptc::nn::MatmulBackend& inner, SpanRecorder& spans)
      : inner_(inner), spans_(spans) {}

  ptc::Matrix matmul(const ptc::Matrix& x, const ptc::Matrix& w) override {
    SpanRecorder::Scope span(spans_, "runtime.matmul");
    rows_ += x.rows();
    return inner_.matmul(x, w);
  }
  ptc::Matrix matmul_cached(const ptc::Matrix& x, const ptc::Matrix& w,
                            ptc::nn::WeightPlanCache& cache) override {
    SpanRecorder::Scope span(spans_, "runtime.matmul");
    rows_ += x.rows();
    return inner_.matmul_cached(x, w, cache);
  }
  const char* name() const override { return "timed"; }

  std::size_t rows() const { return rows_; }

 private:
  ptc::nn::MatmulBackend& inner_;
  SpanRecorder& spans_;
  std::size_t rows_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_HPP
