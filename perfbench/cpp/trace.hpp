// Layer tracing from outside the library: timing and counting decorators
// around the public seams the engine and the fused plane call through.
//
// Every decorator forwards every virtual of the interface it wraps, so a
// traced trial computes exactly what an untraced one does; the driver checks
// that by comparing aggregate digests. Spans are steady_clock intervals
// summed into a Trace, one Trace per executor chunk (merged in chunk order
// afterwards), so no accumulator is shared between trial threads. The only
// concurrent writers are shard workers inside one ShardPool beat; their range
// spans go through an atomic and are folded in after the beat's barrier.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "net/batch.hpp"
#include "net/engine.hpp"
#include "net/fused_plane.hpp"
#include "net/sparse_plane.hpp"
#include "sim/executor.hpp"

namespace perfbench {

using adba::Count;
using adba::NodeId;
using adba::Round;

class Stopwatch {
public:
    std::uint64_t ns() const {
        return static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now() - t0_)
                .count());
    }
    double seconds() const { return static_cast<double>(ns()) * 1e-9; }

private:
    std::chrono::steady_clock::time_point t0_ = std::chrono::steady_clock::now();
};

/// Which plane an adversary instance runs on (its spans are split so the
/// engine's and the fused block's self times each subtract their own).
enum Plane : unsigned { kEnginePlane = 0, kFusedPlane = 1 };

/// Summed spans (ns) and counts of one executor chunk, or of a merged run.
struct Trace {
    // Trial-level spans: one per scalar trial or per 64-lane block, from the
    // arena's re-arm to result assembly.
    std::uint64_t trial_span_ns = 0;
    std::uint64_t trials = 0;

    // net/engine: Engine::run spans and the rounds they executed.
    std::uint64_t engine_runs = 0;
    std::uint64_t engine_ns = 0;
    std::vector<double> engine_run_ms;  ///< per run, for the percentiles
    std::uint64_t engine_rounds = 0;
    std::uint64_t node_rounds = 0;  ///< n x rounds, for ns per node-round

    // net/batch seam: beat spans (serial calls, or whole sharded beats).
    std::uint64_t send_ns = 0;
    std::uint64_t receive_ns = 0;

    // adversary/: per plane, so each parent span subtracts its own.
    std::uint64_t act_ns[2] = {0, 0};
    std::uint64_t on_start_ns[2] = {0, 0};
    std::uint64_t deliver_as = 0;
    std::uint64_t split_as = 0;
    std::uint64_t corrupt = 0;

    // sim::ShardPool beats: dispatch spans times pool workers, and the
    // summed range spans inside them.
    std::uint64_t worker_beat_ns = 0;
    std::uint64_t ranges = 0;
    std::uint64_t range_ns = 0;

    // net/sparse_*: receive spans and computed probes (live receivers x
    // sampled edges per receiver).
    std::uint64_t sparse_ns = 0;
    std::uint64_t probes = 0;
    /// The decorator's own live-receiver scans behind `probes`; they run
    /// inside Engine::run, so the engine and trial spans leave them out.
    std::uint64_t probe_scan_ns = 0;

    // net/fused_plane + core/skeleton_fused: FusedBlock::run spans and the
    // FusedProtocol beats inside them.
    std::uint64_t blocks = 0;
    std::uint64_t block_ns = 0;
    std::uint64_t fused_send_ns = 0;
    std::uint64_t fused_receive_ns = 0;
    std::uint64_t fused_rounds = 0;
    std::uint64_t live_lanes = 0;  ///< sum of live lanes over block rounds

    void merge(const Trace& o);
};

/// Shared between a traced batch and the traced dispatcher of one arena:
/// which batch beat the current ShardPool dispatch is running.
struct BeatTag {
    enum Kind : int { kNone = 0, kSend = 1, kReceive = 2, kSparseReceive = 3 };
    std::atomic<int> kind{kNone};
    std::atomic<bool> in_beat{false};
};

/// RoundControl decorator: counts the adversary's actions and forwards
/// every call to the plane's own control.
class CountingControl final : public adba::net::RoundControl {
public:
    CountingControl(adba::net::RoundControl& inner, Trace& tr) : in_(inner), tr_(tr) {}

    Round round() const override { return in_.round(); }
    NodeId n() const override { return in_.n(); }
    Count budget_left() const override { return in_.budget_left(); }
    bool is_honest(NodeId v) const override { return in_.is_honest(v); }
    bool is_halted(NodeId v) const override { return in_.is_halted(v); }
    const adba::net::Message* intended_broadcast(NodeId v) const override {
        return in_.intended_broadcast(v);
    }
    adba::Bit current_value(NodeId v) const override { return in_.current_value(v); }
    bool current_decided(NodeId v) const override { return in_.current_decided(v); }
    std::optional<adba::net::Message> corrupt(NodeId v) override {
        ++tr_.corrupt;
        return in_.corrupt(v);
    }
    void deliver_as(NodeId byz_from, NodeId to, const adba::net::Message& m) override {
        ++tr_.deliver_as;
        in_.deliver_as(byz_from, to, m);
    }
    void split_as(NodeId byz_from, const std::optional<adba::net::Message>& low,
                  const std::optional<adba::net::Message>& high,
                  NodeId boundary) override {
        ++tr_.split_as;
        in_.split_as(byz_from, low, high, boundary);
    }

private:
    adba::net::RoundControl& in_;
    Trace& tr_;
};

/// Adversary decorator: times on_start and act, and hands act a counting
/// control.
class TracedAdversary final : public adba::net::Adversary {
public:
    TracedAdversary(std::unique_ptr<adba::net::Adversary> inner, Trace& tr, Plane plane)
        : in_(std::move(inner)), tr_(tr), plane_(plane) {}

    void on_start(NodeId n, Count budget) override {
        const Stopwatch w;
        in_->on_start(n, budget);
        tr_.on_start_ns[plane_] += w.ns();
    }
    void act(adba::net::RoundControl& ctl) override {
        CountingControl counting(ctl, tr_);
        const Stopwatch w;
        in_->act(counting);
        tr_.act_ns[plane_] += w.ns();
    }

private:
    std::unique_ptr<adba::net::Adversary> in_;
    Trace& tr_;
    Plane plane_;
};

/// BatchProtocol decorator. Serial beats are timed here; range calls only
/// tag the running ShardPool beat, which the traced dispatcher times.
class TracedBatch final : public adba::net::BatchProtocol {
public:
    TracedBatch(std::unique_ptr<adba::net::BatchProtocol> inner, Trace& tr, BeatTag& tag)
        : in_(std::move(inner)), tr_(tr), tag_(tag) {}

    /// Hands the wrapped batch back to the arena's pool.
    std::unique_ptr<adba::net::BatchProtocol> release() { return std::move(in_); }

    NodeId n() const override { return in_->n(); }
    void send_all(Round r, adba::net::RoundBuffer& buf) override;
    void receive_all(Round r, const adba::net::RoundBuffer& buf,
                     const adba::net::RoundTally& tally) override;
    void receive_all(Round r, const adba::net::RoundBuffer& buf,
                     const adba::net::DeliverySource& src) override;
    bool shardable() const override { return in_->shardable(); }
    void send_range(Round r, adba::net::RoundBuffer& buf, NodeId lo, NodeId hi) override;
    void receive_prepare(Round r, const adba::net::RoundBuffer& buf,
                         const adba::net::RoundTally& tally) override;
    void receive_range(Round r, const adba::net::RoundBuffer& buf,
                       const adba::net::RoundTally& tally, NodeId lo, NodeId hi) override;
    bool supports_sparse() const override { return in_->supports_sparse(); }
    void receive_sparse_prepare(Round r, const adba::net::RoundBuffer& buf,
                                const adba::net::RoundTally& tally,
                                const adba::net::SparsePlane& sparse) override;
    void receive_sparse_range(Round r, const adba::net::RoundBuffer& buf,
                              const adba::net::RoundTally& tally,
                              const adba::net::SparsePlane& sparse, NodeId lo,
                              NodeId hi) override;
    const std::uint8_t* halted_plane() const override { return in_->halted_plane(); }
    adba::Bit value(NodeId v) const override { return in_->value(v); }
    bool decided(NodeId v) const override { return in_->decided(v); }
    adba::Bit output(NodeId v) const override { return in_->output(v); }
    const std::vector<std::unique_ptr<adba::net::HonestNode>>* nodes() const override {
        return in_->nodes();
    }

private:
    std::unique_ptr<adba::net::BatchProtocol> in_;
    Trace& tr_;
    BeatTag& tag_;
};

/// IntraDispatcher decorator over a ShardPool: times each beat and each
/// range, and books the beat span to the batch beat that tagged it (an
/// untagged beat is the engine's own tally pack).
class TracedDispatcher final : public adba::net::IntraDispatcher {
public:
    TracedDispatcher(adba::sim::ShardPool& pool, Trace& tr, BeatTag& tag)
        : pool_(pool), tr_(tr), tag_(tag) {}

    unsigned shards() const override { return pool_.shards(); }
    void run_shards(NodeId n,
                    const std::function<void(unsigned, NodeId, NodeId)>& fn) override;

private:
    adba::sim::ShardPool& pool_;
    Trace& tr_;
    BeatTag& tag_;
};

/// FusedProtocol decorator: times the word-parallel beats and records how
/// many of the 64 lanes were still live in each round.
class TracedFused final : public adba::net::FusedProtocol {
public:
    TracedFused(adba::net::FusedProtocol& inner, Trace& tr) : in_(inner), tr_(tr) {}

    NodeId n() const override { return in_.n(); }
    void rearm(const std::uint64_t* input_plane, const adba::SeedTree* lane_seeds) override {
        in_.rearm(input_plane, lane_seeds);
    }
    void send_round(Round r, adba::net::FusedFrame& frame) override;
    void receive_round(Round r, const adba::net::FusedFrame& frame) override;
    const std::uint64_t* value_plane() const override { return in_.value_plane(); }
    const std::uint64_t* decided_plane() const override { return in_.decided_plane(); }
    const std::uint64_t* halted_plane() const override { return in_.halted_plane(); }

private:
    adba::net::FusedProtocol& in_;
    Trace& tr_;
};

}  // namespace perfbench
