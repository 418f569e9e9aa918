// Checks the benchmark's own arithmetic.  Exits non-zero when any
// expectation fails; run.py runs it before every measurement.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <vector>

#include "spans.hpp"
#include "stats.hpp"

namespace {

using namespace perfbench;

int failures = 0;

void expect(bool ok, const char* what) {
  if (!ok) {
    std::printf("FAIL: %s\n", what);
    ++failures;
  }
}

bool near(double a, double b) { return std::fabs(a - b) < 1e-12; }

template <typename Fn>
bool throws(Fn&& fn) {
  try {
    fn();
  } catch (const std::invalid_argument&) {
    return true;
  }
  return false;
}

std::vector<double> ramp(std::size_t n) {
  std::vector<double> xs;
  for (std::size_t i = n; i >= 1; --i) xs.push_back(static_cast<double>(i));
  return xs;  // n, n-1, ..., 1: unsorted on purpose
}

void test_median() {
  expect(near(median({3.0}), 3.0), "median of one sample");
  expect(near(median({5.0, 1.0, 3.0}), 3.0), "median of an odd sample");
  expect(near(median({4.0, 1.0, 3.0, 2.0}), 2.5),
         "median of an even sample averages the middle pair");
  expect(throws([] { median({}); }), "median of nothing throws");
}

void test_percentile() {
  expect(near(percentile(ramp(100), 50.0), 50.0), "p50 of 1..100 is 50");
  expect(near(percentile(ramp(100), 99.0), 99.0), "p99 of 1..100 is 99");
  expect(near(percentile(ramp(4), 50.0), 2.0),
         "nearest-rank p50 of 4 samples is the second");
  expect(near(percentile({7.0}, 99.0), 7.0), "any percentile of one sample");
  expect(throws([] { percentile({}, 50.0); }), "percentile of nothing throws");
}

void test_tail() {
  // 2000 samples: p99.9 has only 2 beyond it, p99 has 20 -> p99.
  Tail t = tail(ramp(2000));
  expect(t.percentile == 99.0, "2000 samples report p99");
  expect(near(t.value, 1980.0), "p99 of 1..2000 is 1980 (nearest rank)");
  expect(t.count == 2000 && t.beyond == 20, "p99 of 2000 has 20 beyond");

  // 1000 samples: p99 rank 990 leaves exactly 10 beyond -> still p99.
  t = tail(ramp(1000));
  expect(t.percentile == 99.0 && t.beyond == 10, "1000 samples: p99, 10 beyond");
  // 999 samples: p99 leaves 9 beyond -> falls back to p95.
  t = tail(ramp(999));
  expect(t.percentile == 95.0, "999 samples fall back to p95");
  expect(t.beyond >= kTailSupport, "the fallback keeps >= 10 beyond");
  // 100 samples: p90 rank 90 leaves 10 beyond.
  t = tail(ramp(100));
  expect(t.percentile == 90.0 && near(t.value, 90.0), "100 samples: p90");
  // 12 samples: no tail percentile has support -> the median, thin tail.
  t = tail(ramp(12));
  expect(t.percentile == 50.0 && near(t.value, 6.0), "12 samples: median");
  expect(t.beyond == 6 && t.count == 12, "12 samples: 6 beyond");
  expect(throws([] { tail({}); }), "tail of nothing throws");
}

void test_self_time() {
  // A 10 s span with children [1,3) and [2,5) overlapping: covered 4 s.
  expect(near(self_time({0.0, 10.0}, {{1.0, 3.0}, {2.0, 5.0}}), 6.0),
         "overlapping children count once");
  // A child reaching past the span is clipped to it.
  expect(near(self_time({0.0, 10.0}, {{8.0, 12.0}}), 8.0),
         "children are clipped to the span");
  expect(near(self_time({0.0, 10.0}, {}), 10.0), "no children: all self");
  expect(near(self_time({0.0, 10.0}, {{6.0, 7.0}, {1.0, 2.0}}), 8.0),
         "unsorted children");

  // Through the recorder: a parent with two sequential children.
  SpanRecorder spans;
  const int parent = spans.open("graph.run");
  const int a = spans.open("runtime.matmul");
  spans.close(a);
  const int b = spans.open("runtime.matmul");
  spans.close(b);
  spans.close(parent);
  const auto [total, self] = spans.total_and_self("graph.run");
  double children = 0.0;
  for (const double d : spans.durations("runtime.matmul")) children += d;
  expect(spans.spans()[a].parent == parent && spans.spans()[b].parent == parent,
         "children record their parent");
  expect(std::fabs(total - self - children) < 1e-9,
         "recorder self time is the span minus its children");
}

void test_failed_frac() {
  expect(near(failed_frac(100, 100, 0), 0.0), "nothing failed");
  expect(near(failed_frac(100, 90, 6), 0.10),
         "shed (6) and unfinished (4) both count as failed");
  expect(near(failed_frac(100, 94, 6), 0.06), "shed requests count as failed");
  expect(throws([] { failed_frac(10, 8, 3); }), "more outcomes than attempts");
  expect(throws([] { failed_frac(0, 0, 0); }), "no attempts");
}

}  // namespace

int main() {
  test_median();
  test_percentile();
  test_tail();
  test_self_time();
  test_failed_frac();
  if (failures == 0) std::printf("perfbench_test: all checks passed\n");
  return failures == 0 ? 0 : 1;
}
