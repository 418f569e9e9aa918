#ifndef PERFBENCH_PROBES_HPP
#define PERFBENCH_PROBES_HPP

#include <map>
#include <string>

#include "runtime/accelerator.hpp"
#include "spans.hpp"

namespace perfbench {

/// Standalone probes of the layers under the serve loop, on `fleet` (the
/// workload's own fleet, after its passes) and on a core, eoADC and ring
/// built from its configuration.  Each call runs in its own span; `out`
/// receives the median per-call cost of each layer metric.  Mutates the
/// fleet's drift clock and calibration epochs.
void run_probes(ptc::runtime::Accelerator& fleet, SpanRecorder& spans,
                std::map<std::string, double>& out);

}  // namespace perfbench

#endif  // PERFBENCH_PROBES_HPP
