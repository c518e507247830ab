/**
 * @file
 * The traced pass: times the benchmark's own calls into each layer's
 * public functions, one layer at a time and from outside, and reads
 * the machine's deterministic per-reference counts. Per-reference
 * layers are timed over whole batches, never per call, because a
 * clock read costs about as much as one generated reference.
 */

#ifndef SIMBENCH_LAYERS_HH
#define SIMBENCH_LAYERS_HH

#include <string>
#include <vector>

#include "spans.hh"
#include "workloads.hh"

namespace simbench
{

struct LayerMetric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

struct TracedPass
{
    /** Every per-layer metric, in BENCHMARK.json order. */
    std::vector<LayerMetric> metrics;
    /** Host seconds of the fastest instrumented generator-driven run. */
    double instrumentedRunS = 0.0;
    /** Empty when every check passed, else what failed. */
    std::string failure;
};

/**
 * Run the traced pass of @p workload, recording spans into @p spans.
 * @p expected is the fingerprint of the untraced repetitions: the
 * replayed and the instrumented runs must both reproduce it.
 */
TracedPass runTracedPass(const Workload &workload,
                         const Fingerprint &expected, SpanLog &spans);

} // namespace simbench

#endif // SIMBENCH_LAYERS_HH
