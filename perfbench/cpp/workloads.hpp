// The benchmark's workload table, the smoke cases, aggregate digests and
// the host fingerprint stamped on every result.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/runner.hpp"
#include "trace.hpp"

namespace perfbench {

/// Extra output check a workload runs beside the digest comparisons.
enum class Check {
    None,
    Thm2Ordering,     ///< ours' mean rounds below chor-coan-rushing's
    FusedBlockScalar, ///< one 64-lane block equals 64 scalar trials
};

struct Workload {
    std::string name;
    /// Scenario spec strings (sim::Scenario::parse), run in this order.
    std::vector<std::string> specs;
    /// Trials per scenario in one executor batch (a closed batch: every
    /// trial is issued up front and the executor's threads pull chunks).
    adba::Count batch_trials = 0;
    /// Trials in one set-up sample (the first cold trial or 64-lane block).
    adba::Count setup_trials = 1;
    unsigned setup_repeats = 3;
    /// Executor threads, clamped to the hardware at run time.
    unsigned exec_threads = 1;
    Check check = Check::None;
};

/// The benchmark workloads, in BENCHMARK.json order.
const std::vector<Workload>& workloads();
const Workload* find_workload(const std::string& name);

/// Tiny scenarios that drive every decorator path (flat, sharded ranges,
/// sparse receive serial and sharded, fused lanes).
struct SmokeCase {
    std::string name;
    std::string spec;
    adba::Count trials = 8;
    std::uint64_t Trace::*counter = nullptr;  ///< must move on this path
};
const std::vector<SmokeCase>& smoke_cases();

/// FNV-1a over every aggregate's counters and sample values in observation
/// order. Call before any quantile query (those sort the sample buffers).
std::uint64_t digest(const std::vector<adba::sim::Aggregate>& aggs);
std::string hex(std::uint64_t x);

/// Trials that did not end Decided with agreement and validity. An upper
/// bound when one trial fails several ways (the aggregate keeps counts, not
/// per-trial records); exact when it is zero.
adba::Count failed_trials(const adba::sim::Aggregate& agg);

/// One-line JSON: CPU model, nproc, compiler, build type, AVX-512 support,
/// executor threads and intra-trial shard threads.
std::string host_fingerprint(unsigned exec_threads, unsigned shard_threads);

}  // namespace perfbench
