// adba_perfbench: the repository benchmark's measuring process.
//
//   adba_perfbench --workload NAME --seed N --seconds S --trace 0|1
//   adba_perfbench --smoke
//
// One process per workload. --trace 0 measures the end-to-end metrics with
// no tracing: closed executor batches of the workload's scenarios through
// the library's public sim::run_trials for S seconds, with repeated set-ups
// (median) and host-probe samples between them; the probe rescales every
// timed metric to a reference host speed. --trace 1 alternates untraced batches with traced
// ones (the decorated path of traced_arena.hpp) for S seconds and reports
// the per-layer metrics. Both check their outputs: the traced and untraced runs
// of one batch must have the same aggregate digest, and each workload runs
// its own claim check. The last stdout line is one JSON object: correct,
// attempted, failed, metrics.
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <exception>
#include <map>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "sim/runner.hpp"
#include "trace.hpp"
#include "traced_arena.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;
namespace sim = adba::sim;

double cpu_seconds() {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    const auto tv = [](const timeval& t) {
        return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) * 1e-6;
    };
    return tv(ru.ru_utime) + tv(ru.ru_stime);
}

/// Past this many seconds no new batch is issued: the batch that would have
/// run counts as failed trials. run.py kills the process at 150 s.
constexpr double kDeadlineS = 110.0;

double peak_rss_mb() {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

sim::ExecutorConfig exec_config(unsigned threads, adba::Count chunk) {
    sim::ExecutorConfig c;
    c.threads = threads;
    c.chunk = chunk;
    return c;
}

double median(std::vector<double> xs) {
    if (xs.empty()) return 0.0;
    std::sort(xs.begin(), xs.end());
    const std::size_t m = xs.size() / 2;
    return xs.size() % 2 ? xs[m] : 0.5 * (xs[m - 1] + xs[m]);
}

/// Nearest-rank quantile (the convention of adba::Samples).
double quantile(std::vector<double> xs, double q) {
    if (xs.empty()) return 0.0;
    std::sort(xs.begin(), xs.end());
    const auto k = std::clamp<std::size_t>(
        static_cast<std::size_t>(std::ceil(q * static_cast<double>(xs.size()))), 1, xs.size());
    return xs[k - 1];
}

/// Share of the measured work's time the host probe spends sampling.
constexpr double kProbeShare = 0.2;

double thread_cpu_seconds() {
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// Host speed probe. The host is shared, and its speed drifts by tens of
/// percent within minutes, which no length of run averages away. Some of the
/// drift is time the vCPUs are not scheduled at all, which shows in wall
/// time only; some is slower execution while they are, which shows in CPU
/// time too. The probe is a fixed kernel that belongs to the benchmark, not
/// the library: hashed random reads of an L2-resident 512 KiB table, like the
/// workloads' hot data. (Of 512 KiB, 1, 2 and 8 MiB tables, 512 KiB tracked
/// all three workloads' drift best; 2 MiB, the L2's size, over-reacted on
/// some runs.) It is sampled between batches on as many threads as the
/// workload uses, which claim chunks of probe steps off a shared cursor the
/// way executor threads claim trials, so a descheduled vCPU delays a sample
/// as it delays a batch. It keeps two rates: per wall second and per CPU
/// second. Wall-time metrics are rescaled by kRefMops / (median wall rate)
/// and CPU time by kRefMops / (median CPU rate), i.e. to a host on which the
/// probe runs at kRefMops per thread. No library change can move the probe,
/// so a library change moves the scaled metrics by the same factor as the
/// raw ones.
class HostProbe {
public:
    /// The probe's median rate per thread on the host the reference figures
    /// were measured on (4-vCPU Intel Xeon VM, g++ 12.2.0, Release).
    static constexpr double kRefMops = 480.0;

    explicit HostProbe(unsigned threads) : threads_(std::max(1u, threads)), table_(kTable) {
        std::uint64_t x = 1;
        for (auto& v : table_) v = (x = x * 0x9E3779B97F4A7C15ULL + 1) >> 7;
    }

    /// One sample: kChunks * kChunkOps probe steps per thread, shared out
    /// chunk by chunk.
    void sample() {
        const Stopwatch w;
        std::atomic<std::size_t> cursor{0};
        const std::size_t chunks = kChunks * threads_;
        std::vector<double> cpu_s(threads_);
        const auto work = [&](unsigned t) {
            const double cpu0 = thread_cpu_seconds();
            for (std::size_t c; (c = cursor.fetch_add(1, std::memory_order_relaxed)) < chunks;)
                kernel(c);
            cpu_s[t] = thread_cpu_seconds() - cpu0;
        };
        std::vector<std::thread> helpers;
        for (unsigned t = 1; t < threads_; ++t) helpers.emplace_back(work, t);
        work(0);
        for (auto& h : helpers) h.join();
        const double mops = static_cast<double>(chunks * kChunkOps) * 1e-6;
        double cpu_total = 0.0;
        for (double c : cpu_s) cpu_total += c;
        seconds_ += w.seconds();
        wall_rates_.push_back(mops / threads_ / w.seconds());
        cpu_rates_.push_back(mops / cpu_total);
    }

    /// Samples until the probe has taken `share` of `work_s` seconds of
    /// measured work, so the samples spread over the run in step with it.
    void keep_up(double work_s, double share) {
        while (seconds_ < share * work_s) sample();
    }

    /// Host slowdown against the reference in wall time and in CPU time:
    /// > 1 on a host slower than it.
    double wall_slowdown() const { return kRefMops / median(wall_rates_); }
    double cpu_slowdown() const { return kRefMops / median(cpu_rates_); }
    /// Mops per thread per wall second and per CPU second, one per sample.
    const std::vector<double>& wall_rates() const { return wall_rates_; }
    const std::vector<double>& cpu_rates() const { return cpu_rates_; }

private:
    static constexpr unsigned kTableBits = 16;
    static constexpr std::size_t kTable = std::size_t{1} << kTableBits;  // 512 KiB
    static constexpr std::size_t kChunkOps = std::size_t{1} << 16;
    static constexpr std::size_t kChunks = 64;  ///< per thread: about 10 ms

    /// Runs the kChunkOps steps of chunk `c`.
    void kernel(std::size_t c) {
        std::uint64_t x = 0x2545F4914F6CDD1DULL * (c + 1), acc = 0;
        for (std::size_t i = 0; i < kChunkOps; ++i) {
            x = x * 0x9E3779B97F4A7C15ULL + 0xD1B54A32D192ED03ULL;
            const std::uint64_t h = (x ^ (x >> 29)) * 0xBF58476D1CE4E5B9ULL;
            acc += table_[h >> (64 - kTableBits)] ^ h;
        }
        sink_.fetch_xor(acc, std::memory_order_relaxed);
    }

    unsigned threads_;
    std::vector<std::uint64_t> table_;
    std::atomic<std::uint64_t> sink_{0};  ///< keeps the kernel's reads live
    double seconds_ = 0.0;
    std::vector<double> wall_rates_, cpu_rates_;
};

struct Args {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    int trace = 0;
    bool smoke = false;
};

Args parse_args(int argc, char** argv) {
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string k = argv[i];
        const auto value = [&]() -> std::string {
            if (i + 1 >= argc) throw std::invalid_argument("missing value for " + k);
            return argv[++i];
        };
        if (k == "--workload") a.workload = value();
        else if (k == "--seed") a.seed = std::stoull(value());
        else if (k == "--seconds") a.seconds = std::stod(value());
        else if (k == "--trace") a.trace = std::stoi(value());
        else if (k == "--smoke") a.smoke = true;
        else throw std::invalid_argument("unknown argument " + k);
    }
    if (!a.smoke && !find_workload(a.workload))
        throw std::invalid_argument("unknown workload '" + a.workload + "'");
    if (a.trace != 0 && a.trace != 1) throw std::invalid_argument("--trace must be 0 or 1");
    if (a.seconds <= 0) throw std::invalid_argument("--seconds must be positive");
    return a;
}

/// The process-wide trial bookkeeping behind `attempted` / `failed`.
struct Tally {
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    void add(const sim::Aggregate& a) {
        attempted += a.trials;
        failed += failed_trials(a);
    }
};

/// One closed batch of a workload: every scenario's trials, in spec order.
struct Batch {
    double wall_s = 0.0;
    double cpu_s = 0.0;
    std::vector<sim::Aggregate> aggs;
    Trace trace;  ///< traced batches only
    std::uint64_t digest = 0;
};

class Runner {
public:
    Runner(const Workload& w, std::uint64_t seed, const Stopwatch& clock)
        : w_(w), seed_(seed), clock_(clock) {
        threads_ = std::min(w.exec_threads, sim::hardware_threads());
        sim::set_default_threads(threads_);
        for (const std::string& spec : w.specs) scenarios_.push_back(sim::Scenario::parse(spec));
        for (const sim::Scenario& s : scenarios_) plans_.push_back(sim::BinaryWorkload::make_plan(s));
        const sim::Scenario& s0 = scenarios_.front();
        const unsigned shards = s0.use_shard ? sim::plan_intra_shards(s0.intra_threads, s0.n) : 1;
        shard_threads_ = shards > 1 ? std::min(shards, sim::intra_worker_cap(threads_)) : 1;
    }

    unsigned threads() const { return threads_; }
    unsigned shard_threads() const { return shard_threads_; }
    const std::vector<sim::Scenario>& scenarios() const { return scenarios_; }
    Tally& tally() { return tally_; }

    bool past_deadline() const { return clock_.seconds() > kDeadlineS; }

    /// Set-up sample i: validate() plus arena, plane and pool construction
    /// plus the first cold trial (or 64-lane block) of batch i, summed over
    /// the workload's scenarios. Each sample draws its own trial, so the
    /// median does not hang on one trial's length.
    double setup_once(unsigned i) {
        const Stopwatch w;
        for (const sim::Scenario& s : scenarios_)
            tally_.add(sim::run_trials(s, batch_seed(i), w_.setup_trials,
                                       exec_config(1, w_.setup_trials)));
        return w.seconds();
    }

    /// validate() for every scenario, in ms.
    double plan_ms() const {
        const Stopwatch w;
        for (const sim::Scenario& s : scenarios_) (void)sim::BinaryWorkload::make_plan(s);
        return static_cast<double>(w.ns()) * 1e-6;
    }

    /// Batch k runs trials at base seed seed + k * phi64: batch 0 at the
    /// workload seed itself, later batches on fresh trials, so a run's
    /// median covers more than one draw of trial lengths.
    std::uint64_t batch_seed(unsigned k) const {
        return seed_ + std::uint64_t{k} * 0x9E3779B97F4A7C15ULL;
    }

    Batch untraced(unsigned k) { return run_batch(k, false); }
    Batch traced(unsigned k) { return run_batch(k, true); }

    adba::Count batch_trials() const {
        return w_.batch_trials * static_cast<adba::Count>(scenarios_.size());
    }

private:
    sim::ExecutorConfig exec() const { return exec_config(threads_, 0); }

    /// Batch k of every scenario, through sim::run_trials or the traced path.
    Batch run_batch(unsigned k, bool traced) {
        Batch b;
        const double cpu0 = cpu_seconds();
        const Stopwatch w;
        for (std::size_t i = 0; i < scenarios_.size(); ++i) {
            if (traced) {
                TracedAggregate t = run_traced(plans_[i], batch_seed(k), w_.batch_trials, exec());
                b.aggs.push_back(std::move(t.agg));
                b.trace.merge(t.trace);
            } else {
                b.aggs.push_back(
                    sim::run_trials(scenarios_[i], batch_seed(k), w_.batch_trials, exec()));
            }
        }
        b.wall_s = w.seconds();
        b.cpu_s = cpu_seconds() - cpu0;
        b.digest = digest(b.aggs);  // before anything sorts the samples
        for (const auto& a : b.aggs) tally_.add(a);
        return b;
    }

    const Workload& w_;
    std::uint64_t seed_;
    const Stopwatch& clock_;
    unsigned threads_ = 1;
    unsigned shard_threads_ = 1;
    std::vector<sim::Scenario> scenarios_;
    std::vector<sim::ScenarioPlan> plans_;
    Tally tally_;
};

/// Output-check bookkeeping: every check prints one line; any failure makes
/// the run incorrect.
struct Checks {
    bool ok = true;
    void expect(bool pass, const std::string& name, const std::string& detail) {
        std::printf("check %s %s %s\n", name.c_str(), pass ? "ok" : "FAIL", detail.c_str());
        ok = ok && pass;
    }
    /// A check repeated once per batch: failures print at once, passes are
    /// summarised by report().
    void repeat(bool pass, const std::string& name, const std::string& detail) {
        auto& [passed, total] = repeated_[name];
        ++total;
        if (pass) ++passed;
        else expect(false, name, detail);
    }
    void report() {
        for (const auto& [name, counts] : repeated_)
            if (counts.first == counts.second)
                expect(true, name, std::to_string(counts.second) + " batches");
        repeated_.clear();
    }

private:
    std::map<std::string, std::pair<unsigned, unsigned>> repeated_;
};

using Metrics = std::vector<std::pair<std::string, std::pair<double, std::string>>>;

void print_result(bool correct, const Tally& t, const Metrics& m) {
    std::string out = std::string("{\"correct\": ") + (correct ? "true" : "false") +
                      ", \"attempted\": " + std::to_string(t.attempted) +
                      ", \"failed\": " + std::to_string(t.failed) + ", \"metrics\": {";
    for (std::size_t i = 0; i < m.size(); ++i) {
        char num[64];
        std::snprintf(num, sizeof num, "%.17g", m[i].second.first);
        out += (i ? ", \"" : "\"") + m[i].first + "\": {\"value\": " + num +
               ", \"unit\": \"" + m[i].second.second + "\"}";
    }
    out += "}}";
    std::printf("%s\n", out.c_str());
    std::fflush(stdout);
}

/// Workload-specific claim checks, on the first (reference) batch.
void claim_checks(const Workload& w, Runner& r, const Batch& ref, std::uint64_t seed,
                  Checks& checks) {
    if (w.check == Check::Thm2Ordering) {
        const double ours = ref.aggs[0].rounds.mean();
        const double cc = ref.aggs[1].rounds.mean();
        char d[96];
        std::snprintf(d, sizeof d, "ours=%.3f chor-coan-rushing=%.3f mean rounds", ours, cc);
        checks.expect(ours < cc, "thm2-ordering", d);
    }
    if (w.check == Check::FusedBlockScalar) {
        sim::Scenario fused = r.scenarios().front();
        sim::Scenario scalar = fused;
        scalar.use_fused = false;
        const sim::ExecutorConfig one_chunk = exec_config(1, 64);
        const sim::Aggregate f = sim::run_trials(fused, seed, 64, one_chunk);
        const sim::Aggregate s = sim::run_trials(scalar, seed, 64, one_chunk);
        const std::uint64_t df = digest({f}), ds = digest({s});
        r.tally().add(f);
        r.tally().add(s);
        checks.expect(df == ds, "fused-block-vs-scalar",
                      "fused=" + hex(df) + " scalar=" + hex(ds));
    }
}

int run_workload(const Args& a) {
    const Stopwatch clock;
    const Workload& w = *find_workload(a.workload);
    Runner r(w, a.seed, clock);
    std::printf("host %s\n", host_fingerprint(r.threads(), r.shard_threads()).c_str());
    std::printf("workload %s seed %llu batch_trials %llu\n", w.name.c_str(),
                static_cast<unsigned long long>(a.seed),
                static_cast<unsigned long long>(r.batch_trials()));
    std::fflush(stdout);

    Checks checks;
    Metrics metrics;
    // Past the deadline no further batch is issued; the batch that would
    // have run is recorded as failed trials and the run as incorrect.
    const auto deadline_hit = [&](const char* where) {
        if (!r.past_deadline()) return false;
        r.tally().attempted += r.batch_trials();
        r.tally().failed += r.batch_trials();
        checks.expect(false, "deadline",
                      std::string(where) + " at " + std::to_string(clock.seconds()) + " s");
        return true;
    };

    if (a.trace == 0) {
        // The traced batch doubles as the warm-up: the first timed batch runs
        // the same trials untraced and must reproduce its digest.
        Batch ref = r.traced(0);
        std::printf("digest %s\n", hex(ref.digest).c_str());
        // Set-up samples go between timed batches, so their median spans the
        // whole run rather than one moment of the host; the timed section
        // counts batch wall time only.
        std::vector<double> setups, tps, cpu_ms;
        HostProbe probe(r.threads() * r.shard_threads());
        probe.sample();
        double timed_s = 0.0, timed_cpu_s = 0.0, work_s = 0.0;
        for (unsigned k = 0; k < 2 || timed_s < a.seconds; ++k) {
            if (deadline_hit("timed batches")) break;
            if (setups.size() < w.setup_repeats) {
                setups.push_back(r.setup_once(k));
                work_s += setups.back();
            }
            const Batch b = r.untraced(k);
            timed_s += b.wall_s;
            timed_cpu_s += b.cpu_s;
            work_s += b.wall_s;
            probe.keep_up(work_s, kProbeShare);
            if (k == 0)
                checks.expect(b.digest == ref.digest, "untraced-vs-traced-digest",
                              "untraced=" + hex(b.digest) + " traced=" + hex(ref.digest));
            tps.push_back(static_cast<double>(r.batch_trials()) / b.wall_s);
            cpu_ms.push_back(b.cpu_s * 1e3 / static_cast<double>(r.batch_trials()));
        }
        while (setups.size() < w.setup_repeats && !r.past_deadline()) {
            setups.push_back(r.setup_once(static_cast<unsigned>(setups.size())));
            work_s += setups.back();
            probe.keep_up(work_s, kProbeShare);
        }
        const double rss = peak_rss_mb();
        claim_checks(w, r, ref, a.seed, checks);
        checks.expect(tps.size() >= 2, "timed-batches", std::to_string(tps.size()));
        // Throughput and CPU cost are totals over the timed batches, set-up a
        // median over repeats; all three are rescaled to the reference host
        // speed. Print the raw per-batch quartiles and the probe's.
        const auto spread = [](const char* name, const std::vector<double>& xs) {
            std::printf("spread %s n=%zu q1=%.6g median=%.6g q3=%.6g\n", name, xs.size(),
                        quantile(xs, 0.25), median(xs), quantile(xs, 0.75));
        };
        spread("raw_trials_per_s", tps);
        spread("raw_cpu_ms_per_trial", cpu_ms);
        spread("raw_setup_s", setups);
        spread("probe_wall_mops_per_thread", probe.wall_rates());
        spread("probe_cpu_mops_per_thread", probe.cpu_rates());
        const double wall_slow = probe.wall_slowdown(), cpu_slow = probe.cpu_slowdown();
        std::printf("host_slowdown wall %.4f cpu %.4f\n", wall_slow, cpu_slow);
        const double timed_trials = static_cast<double>(tps.size() * r.batch_trials());
        metrics = {{"trials_per_s", {timed_trials / timed_s * wall_slow, "1/s"}},
                   {"cpu_ms_per_trial", {timed_cpu_s * 1e3 / timed_trials / cpu_slow, "ms"}},
                   {"setup_s", {median(setups) / wall_slow, "s"}},
                   {"peak_rss_mb", {rss, "MB"}}};
    } else {
        // Every pair repeats batch 0, so per-batch counts are exact and
        // repeat from run to run.
        Batch ref = r.untraced(0);
        std::printf("digest %s\n", hex(ref.digest).c_str());
        std::vector<double> wall_u, wall_t, util, plan;
        Trace tr;
        unsigned traced_batches = 0;
        const double total_threads = static_cast<double>(r.threads() * r.shard_threads());
        const Stopwatch timed;
        while (traced_batches < 1 || timed.seconds() < a.seconds) {
            if (deadline_hit("traced batches")) break;
            plan.push_back(r.plan_ms());
            const Batch u = r.untraced(0);
            checks.repeat(u.digest == ref.digest, "untraced-digest", hex(u.digest));
            wall_u.push_back(u.wall_s);
            util.push_back(u.cpu_s / (u.wall_s * total_threads));
            const Batch t = r.traced(0);
            checks.repeat(t.digest == ref.digest, "traced-vs-untraced-digest",
                          "traced=" + hex(t.digest) + " untraced=" + hex(ref.digest));
            wall_t.push_back(t.wall_s);
            tr.merge(t.trace);
            ++traced_batches;
        }
        claim_checks(w, r, ref, a.seed, checks);
        checks.expect(traced_batches >= 1, "traced-batches", std::to_string(traced_batches));

        const double nb = std::max(1u, traced_batches);
        const auto ms = [](double ns, double per) { return per > 0 ? ns * 1e-6 / per : 0.0; };
        const auto frac = [](double part, double whole) { return whole > 0 ? part / whole : 0.0; };
        const double runs = static_cast<double>(tr.engine_runs);
        const double trials = static_cast<double>(tr.trials);
        const double blocks = static_cast<double>(tr.blocks);
        const double adv_ns = static_cast<double>(tr.act_ns[kEnginePlane] + tr.act_ns[kFusedPlane]);
        const double on_start_ns =
            static_cast<double>(tr.on_start_ns[kEnginePlane] + tr.on_start_ns[kFusedPlane]);
        const double engine_self =
            static_cast<double>(tr.engine_ns) - static_cast<double>(tr.send_ns) -
            static_cast<double>(tr.receive_ns) - static_cast<double>(tr.act_ns[kEnginePlane]) -
            static_cast<double>(tr.on_start_ns[kEnginePlane]);
        const double fused_adv =
            static_cast<double>(tr.act_ns[kFusedPlane] + tr.on_start_ns[kFusedPlane]);
        const double block_self = static_cast<double>(tr.block_ns) -
                                  static_cast<double>(tr.fused_send_ns) -
                                  static_cast<double>(tr.fused_receive_ns) - fused_adv;
        const double trial_self = static_cast<double>(tr.trial_span_ns) -
                                  static_cast<double>(tr.engine_ns) -
                                  static_cast<double>(tr.block_ns);
        double traced_wall = 0.0;
        for (double x : wall_t) traced_wall += x;

        metrics = {
            {"executor.cpu_util", {median(util), "ratio"}},
            {"executor.plan_ms", {median(plan), "ms"}},
            {"executor.unattributed_frac",
             {1.0 - frac(static_cast<double>(tr.trial_span_ns) * 1e-9,
                         traced_wall * r.threads()),
              "ratio"}},
            {"trial.self_ms", {ms(trial_self, trials), "ms"}},
            {"engine.trial_ms_p50", {quantile(tr.engine_run_ms, 0.5), "ms"}},
            {"engine.trial_ms_p90", {quantile(tr.engine_run_ms, 0.9), "ms"}},
            {"engine.rounds", {static_cast<double>(tr.engine_rounds) / nb, "count"}},
            {"engine.self_ms", {ms(engine_self, runs), "ms"}},
            {"engine.self_frac", {frac(engine_self, static_cast<double>(tr.engine_ns)), "ratio"}},
            {"engine.ns_per_node_round",
             {frac(static_cast<double>(tr.engine_ns), static_cast<double>(tr.node_rounds)), "ns"}},
            {"batch.send_ms", {ms(static_cast<double>(tr.send_ns), runs), "ms"}},
            {"batch.receive_ms", {ms(static_cast<double>(tr.receive_ns), runs), "ms"}},
            {"batch.receive_frac",
             {frac(static_cast<double>(tr.receive_ns), static_cast<double>(tr.engine_ns)),
              "ratio"}},
            {"adversary.act_ms", {ms(adv_ns, trials), "ms"}},
            {"adversary.act_frac",
             {frac(adv_ns, static_cast<double>(tr.engine_ns + tr.block_ns)), "ratio"}},
            {"adversary.on_start_ms", {ms(on_start_ns, trials), "ms"}},
            {"adversary.deliver_as_calls", {static_cast<double>(tr.deliver_as) / nb, "count"}},
            {"adversary.split_as_calls", {static_cast<double>(tr.split_as) / nb, "count"}},
            {"adversary.corrupt_calls", {static_cast<double>(tr.corrupt) / nb, "count"}},
            {"shard.ranges", {static_cast<double>(tr.ranges) / nb, "count"}},
            {"shard.busy_frac",
             {frac(static_cast<double>(tr.range_ns), static_cast<double>(tr.worker_beat_ns)),
              "ratio"}},
            {"sparse.probes", {static_cast<double>(tr.probes) / nb, "count"}},
            {"sparse.ns_per_probe",
             {frac(static_cast<double>(tr.sparse_ns), static_cast<double>(tr.probes)), "ns"}},
            {"fused.blocks", {blocks / nb, "count"}},
            {"fused.send_ms", {ms(static_cast<double>(tr.fused_send_ns), blocks), "ms"}},
            {"fused.receive_ms", {ms(static_cast<double>(tr.fused_receive_ns), blocks), "ms"}},
            {"fused.adversary_ms", {ms(fused_adv, blocks), "ms"}},
            {"fused.block_self_ms", {ms(block_self, blocks), "ms"}},
            {"fused.live_lane_frac",
             {frac(static_cast<double>(tr.live_lanes),
                   64.0 * static_cast<double>(tr.fused_rounds)),
              "ratio"}},
            {"trace.overhead_frac", {median(wall_t) / median(wall_u) - 1.0, "ratio"}},
        };

        // The traced breakdown: every leaf span as a share of the summed
        // trial spans, and the dominant one.
        const std::vector<std::pair<std::string, double>> leaves = {
            {"batch.send", static_cast<double>(tr.send_ns)},
            {"batch.receive(flat)", static_cast<double>(tr.receive_ns - tr.sparse_ns)},
            {"sparse.receive", static_cast<double>(tr.sparse_ns)},
            {"adversary", static_cast<double>(tr.act_ns[kEnginePlane] +
                                              tr.on_start_ns[kEnginePlane])},
            {"engine.self", engine_self},
            {"fused.send", static_cast<double>(tr.fused_send_ns)},
            {"fused.receive", static_cast<double>(tr.fused_receive_ns)},
            {"fused.adversary", fused_adv},
            {"fused.block_self", block_self},
            {"trial.self", trial_self},
        };
        const double whole = static_cast<double>(tr.trial_span_ns);
        std::size_t top = 0;
        for (std::size_t i = 0; i < leaves.size(); ++i) {
            std::printf("layer %-20s %6.2f%%\n", leaves[i].first.c_str(),
                        100.0 * frac(leaves[i].second, whole));
            if (leaves[i].second > leaves[top].second) top = i;
        }
        std::printf("dominant_layer %s\n", leaves[top].first.c_str());
    }

    checks.expect(r.tally().failed == 0, "no-failed-trials",
                  std::to_string(r.tally().failed) + "/" + std::to_string(r.tally().attempted));
    checks.report();
    print_result(checks.ok, r.tally(), metrics);
    return checks.ok ? 0 : 1;
}

/// Tiny scenarios through every decorator path; the traced (serial) and
/// untraced (parallel) digests must match and each path's counter must move.
int run_smoke() {
    // Two trial threads leave two shard workers: sharded smoke cases run
    // their ranges on more than one thread.
    sim::set_default_threads(2);
    Checks checks;
    for (const SmokeCase& c : smoke_cases()) {
        const sim::Scenario s = sim::Scenario::parse(c.spec);
        const sim::ScenarioPlan plan = sim::validate(s);
        const sim::Aggregate u = sim::run_trials(s, 1, c.trials, exec_config(2, 0));
        TracedAggregate t = run_traced(plan, 1, c.trials, exec_config(1, 0));
        const std::uint64_t du = digest({u}), dt = digest({t.agg});
        checks.expect(du == dt, "smoke-" + c.name,
                      "untraced=" + hex(du) + " traced=" + hex(dt));
        const adba::Count fu = failed_trials(u), ft = failed_trials(t.agg);
        checks.expect(fu == 0 && ft == 0, "smoke-" + c.name + "-no-failed-trials",
                      "untraced=" + std::to_string(fu) + " traced=" + std::to_string(ft));
        const std::uint64_t moved = t.trace.*c.counter;
        checks.expect(moved > 0, "smoke-" + c.name + "-path", std::to_string(moved));
    }
    std::printf("smoke %s\n", checks.ok ? "ok" : "FAIL");
    return checks.ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
    try {
        const Args a = parse_args(argc, argv);
        return a.smoke ? run_smoke() : run_workload(a);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "adba_perfbench: %s\n", e.what());
        return 2;
    }
}
