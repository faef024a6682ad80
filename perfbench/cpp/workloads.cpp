#include "workloads.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <thread>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

namespace perfbench {

const std::vector<Workload>& workloads() {
    // Every workload runs two threads (executor threads times shard
    // workers): half of a 4-vCPU host, so the host's own work seldom
    // preempts a thread that a closed batch or a shard barrier waits on.
    static const std::vector<Workload> table = {
        // Theorem 2's separation from Chor-Coan shows only once
        // t < 3n/log^2 n; n=2^16, t=256 is past that. The worst-case
        // adversary declines fused, and shard=off keeps one shard per trial
        // on any host: this is the flat engine plus the adversary's
        // per-pair deliver_as path.
        {"thm2-worstcase-flat",
         {"protocol=ours adversary=worst-case inputs=split n=65536 t=256 shard=off",
          "protocol=chor-coan-rushing adversary=worst-case inputs=split n=65536 t=256 "
          "shard=off"},
         /*batch_trials=*/4, /*setup_trials=*/1, /*setup_repeats=*/5,
         /*exec_threads=*/2, Check::Thm2Ordering},
        // Small n, where the fused plane does nearly all the work; trials
        // are microseconds each, so executor chunk overhead shows. 8192
        // trials give 128-trial chunks: whole 64-lane blocks, no scalar
        // remainder.
        {"fused-static-n256",
         {"protocol=ours adversary=static inputs=split n=256 t=85 fused=on"},
         /*batch_trials=*/8192, /*setup_trials=*/64, /*setup_repeats=*/101,
         /*exec_threads=*/2, Check::FusedBlockScalar},
        // A million nodes on the sampled sparse plane, one huge trial at a
        // time with two intra-trial shards: the probe kernel and the only
        // workload where sharding runs. q=256 keeps King-Saia-style quorum
        // slack (at q=t the sampled quorum never forms).
        {"sparse-static-1m",
         {"protocol=ours adversary=static inputs=split n=1048576 t=104857 q=256 "
          "plane=sparse sample_degree=64 sparse_stream=counter intra_threads=2"},
         /*batch_trials=*/2, /*setup_trials=*/1, /*setup_repeats=*/9,
         /*exec_threads=*/1, Check::None},
    };
    return table;
}

const Workload* find_workload(const std::string& name) {
    for (const Workload& w : workloads())
        if (w.name == name) return &w;
    return nullptr;
}

const std::vector<SmokeCase>& smoke_cases() {
    static const std::vector<SmokeCase> cases = {
        {"flat-worstcase", "protocol=ours adversary=worst-case inputs=split n=256 t=4", 8,
         &Trace::deliver_as},
        {"flat-sharded", "protocol=ours adversary=static inputs=split n=256 t=40 intra_threads=4",
         8, &Trace::ranges},
        {"sparse-serial",
         "protocol=ours adversary=static inputs=split n=256 t=40 q=8 plane=sparse "
         "sample_degree=64 shard=off",
         8, &Trace::probes},
        {"sparse-sharded",
         "protocol=ours adversary=static inputs=split n=256 t=40 q=8 plane=sparse "
         "sample_degree=64 intra_threads=4",
         8, &Trace::ranges},
        {"fused-lanes", "protocol=ours adversary=static inputs=split n=64 t=10 fused=on", 128,
         &Trace::blocks},
    };
    return cases;
}

namespace {

struct Fnv {
    std::uint64_t h = 0xcbf29ce484222325ULL;
    void bytes(const void* p, std::size_t len) {
        const auto* b = static_cast<const unsigned char*>(p);
        for (std::size_t i = 0; i < len; ++i) {
            h ^= b[i];
            h *= 0x100000001b3ULL;
        }
    }
    void u64(std::uint64_t x) { bytes(&x, sizeof x); }
    void samples(const adba::Samples& s) {
        u64(s.count());
        for (double x : s.values()) {
            std::uint64_t bits = 0;
            std::memcpy(&bits, &x, sizeof bits);
            u64(bits);
        }
    }
};

}  // namespace

std::uint64_t digest(const std::vector<adba::sim::Aggregate>& aggs) {
    Fnv f;
    for (const auto& a : aggs) {
        for (adba::Count c : {a.trials, a.agreement_failures, a.validity_failures,
                              a.not_halted, a.cap_exhausted, a.watchdog_timeouts,
                              a.faulted})
            f.u64(c);
        f.samples(a.rounds);
        f.samples(a.messages);
        f.samples(a.bits);
        f.samples(a.corruptions);
    }
    return f.h;
}

std::string hex(std::uint64_t x) {
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(x));
    return buf;
}

adba::Count failed_trials(const adba::sim::Aggregate& agg) {
    const adba::Count not_decided = agg.cap_exhausted + agg.watchdog_timeouts + agg.faulted;
    return std::min(agg.trials,
                    not_decided + agg.agreement_failures + agg.validity_failures);
}

namespace {

std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
    if (__get_cpuid_max(0x80000000u, nullptr) >= 0x80000004u) {
        unsigned regs[12] = {};
        for (unsigned i = 0; i < 3; ++i)
            __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                        &regs[4 * i + 2], &regs[4 * i + 3]);
        char brand[49] = {};
        std::memcpy(brand, regs, 48);
        std::string s(brand);
        const auto first = s.find_first_not_of(' ');
        const auto last = s.find_last_not_of(' ');
        if (first != std::string::npos) return s.substr(first, last - first + 1);
    }
#endif
    return "unknown";
}

bool avx512_available() {
#if defined(__x86_64__) || defined(__i386__)
    return __builtin_cpu_supports("avx512f") != 0 &&
           __builtin_cpu_supports("avx512dq") != 0 &&
           __builtin_cpu_supports("avx512vl") != 0;
#else
    return false;
#endif
}

std::string json_string(const std::string& s) {
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\') out += '\\';
        if (static_cast<unsigned char>(c) >= 0x20) out += c;
    }
    return out + "\"";
}

}  // namespace

std::string host_fingerprint(unsigned exec_threads, unsigned shard_threads) {
#if defined(__clang__)
    const std::string compiler = std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
    const std::string compiler = std::string("gcc ") + __VERSION__;
#else
    const std::string compiler = "unknown";
#endif
    return "{\"cpu\": " + json_string(cpu_model()) +
           ", \"nproc\": " + std::to_string(std::thread::hardware_concurrency()) +
           ", \"compiler\": " + json_string(compiler) +
           ", \"build_type\": " + json_string(ADBA_PERFBENCH_BUILD_TYPE) +
           ", \"avx512\": " + (avx512_available() ? "true" : "false") +
           ", \"executor_threads\": " + std::to_string(exec_threads) +
           ", \"shard_threads\": " + std::to_string(shard_threads) + "}";
}

}  // namespace perfbench
