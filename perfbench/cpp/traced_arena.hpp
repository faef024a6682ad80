// The traced trial path: one executor batch built from the registry's public
// factories and driven through net::Engine / net::FusedBlock directly, with
// the decorators of trace.hpp on every seam. It mirrors the library's pooled
// arena (sim/runner.cpp) step for step, so its aggregate must equal
// sim::run_trials' bit for bit; the driver checks that on every run.
#pragma once

#include <cstdint>

#include "sim/registry.hpp"
#include "sim/runner.hpp"
#include "trace.hpp"

namespace perfbench {

/// An executor partial of the traced path: the aggregate plus its spans.
struct TracedAggregate {
    adba::sim::Aggregate agg;
    Trace trace;

    void merge(const TracedAggregate& o) {
        agg.merge(o.agg);
        trace.merge(o.trace);
    }
};

/// Runs trials [0, trials) of `plan` at `base_seed` through the traced path,
/// with the same chunking, seeds, fused blocking and merge order as
/// sim::run_trials(plan.scenario, base_seed, trials, exec).
TracedAggregate run_traced(const adba::sim::ScenarioPlan& plan, std::uint64_t base_seed,
                           Count trials, const adba::sim::ExecutorConfig& exec);

}  // namespace perfbench
