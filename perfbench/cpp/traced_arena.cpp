#include "traced_arena.hpp"

#include <bit>
#include <memory>
#include <optional>
#include <stdexcept>
#include <utility>
#include <vector>

#include "rand/rng.hpp"
#include "sim/inputs.hpp"

namespace perfbench {

namespace net = adba::net;
namespace sim = adba::sim;

// -------------------------------------------------------------------- Trace

void Trace::merge(const Trace& o) {
    trial_span_ns += o.trial_span_ns;
    trials += o.trials;
    engine_runs += o.engine_runs;
    engine_ns += o.engine_ns;
    engine_run_ms.insert(engine_run_ms.end(), o.engine_run_ms.begin(),
                         o.engine_run_ms.end());
    engine_rounds += o.engine_rounds;
    node_rounds += o.node_rounds;
    send_ns += o.send_ns;
    receive_ns += o.receive_ns;
    for (unsigned p = 0; p < 2; ++p) {
        act_ns[p] += o.act_ns[p];
        on_start_ns[p] += o.on_start_ns[p];
    }
    deliver_as += o.deliver_as;
    split_as += o.split_as;
    corrupt += o.corrupt;
    worker_beat_ns += o.worker_beat_ns;
    ranges += o.ranges;
    range_ns += o.range_ns;
    sparse_ns += o.sparse_ns;
    probes += o.probes;
    probe_scan_ns += o.probe_scan_ns;
    blocks += o.blocks;
    block_ns += o.block_ns;
    fused_send_ns += o.fused_send_ns;
    fused_receive_ns += o.fused_receive_ns;
    fused_rounds += o.fused_rounds;
    live_lanes += o.live_lanes;
}

// -------------------------------------------------------------- TracedBatch

void TracedBatch::send_all(Round r, net::RoundBuffer& buf) {
    const Stopwatch w;
    in_->send_all(r, buf);
    tr_.send_ns += w.ns();
}

void TracedBatch::receive_all(Round r, const net::RoundBuffer& buf,
                              const net::RoundTally& tally) {
    const Stopwatch w;
    in_->receive_all(r, buf, tally);
    tr_.receive_ns += w.ns();
}

void TracedBatch::receive_all(Round r, const net::RoundBuffer& buf,
                              const net::DeliverySource& src) {
    const Stopwatch w;
    in_->receive_all(r, buf, src);
    tr_.receive_ns += w.ns();
}

void TracedBatch::send_range(Round r, net::RoundBuffer& buf, NodeId lo, NodeId hi) {
    tag_.kind.store(BeatTag::kSend, std::memory_order_relaxed);
    in_->send_range(r, buf, lo, hi);
}

void TracedBatch::receive_prepare(Round r, const net::RoundBuffer& buf,
                                  const net::RoundTally& tally) {
    const Stopwatch w;
    in_->receive_prepare(r, buf, tally);
    tr_.receive_ns += w.ns();
}

void TracedBatch::receive_range(Round r, const net::RoundBuffer& buf,
                                const net::RoundTally& tally, NodeId lo, NodeId hi) {
    tag_.kind.store(BeatTag::kReceive, std::memory_order_relaxed);
    in_->receive_range(r, buf, tally, lo, hi);
}

void TracedBatch::receive_sparse_prepare(Round r, const net::RoundBuffer& buf,
                                         const net::RoundTally& tally,
                                         const net::SparsePlane& sparse) {
    // Computed probe count: every receiver that is live going into this
    // beat walks `degree` sampled sender edges. Counted before the span;
    // the scan's own time is booked apart so no span includes it.
    const Stopwatch scan;
    const std::uint8_t* state = buf.state_plane();
    const std::uint8_t* halted = in_->halted_plane();
    const NodeId n = in_->n();
    std::uint64_t live = 0;
    for (NodeId v = 0; v < n; ++v)
        live += ((state[v] & net::RoundBuffer::kByzantine) == 0 && halted[v] == 0) ? 1 : 0;
    tr_.probes += live * sparse.degree();
    tr_.probe_scan_ns += scan.ns();

    const Stopwatch w;
    in_->receive_sparse_prepare(r, buf, tally, sparse);
    const std::uint64_t span = w.ns();
    tr_.receive_ns += span;
    tr_.sparse_ns += span;
}

void TracedBatch::receive_sparse_range(Round r, const net::RoundBuffer& buf,
                                       const net::RoundTally& tally,
                                       const net::SparsePlane& sparse, NodeId lo,
                                       NodeId hi) {
    if (tag_.in_beat.load(std::memory_order_relaxed)) {
        tag_.kind.store(BeatTag::kSparseReceive, std::memory_order_relaxed);
        in_->receive_sparse_range(r, buf, tally, sparse, lo, hi);
        return;
    }
    const Stopwatch w;
    in_->receive_sparse_range(r, buf, tally, sparse, lo, hi);
    const std::uint64_t span = w.ns();
    tr_.receive_ns += span;
    tr_.sparse_ns += span;
}

// --------------------------------------------------------- TracedDispatcher

void TracedDispatcher::run_shards(
    NodeId n, const std::function<void(unsigned, NodeId, NodeId)>& fn) {
    tag_.kind.store(BeatTag::kNone, std::memory_order_relaxed);
    tag_.in_beat.store(true, std::memory_order_relaxed);
    std::atomic<std::uint64_t> busy{0};
    const Stopwatch beat;
    pool_.run_shards(n, [&fn, &busy](unsigned s, NodeId lo, NodeId hi) {
        const Stopwatch w;
        fn(s, lo, hi);
        busy.fetch_add(w.ns(), std::memory_order_relaxed);
    });
    const std::uint64_t span = beat.ns();
    tag_.in_beat.store(false, std::memory_order_relaxed);

    tr_.worker_beat_ns += span * pool_.workers();
    tr_.ranges += pool_.shards();
    tr_.range_ns += busy.load(std::memory_order_relaxed);
    switch (tag_.kind.load(std::memory_order_relaxed)) {
        case BeatTag::kSend:
            tr_.send_ns += span;
            break;
        case BeatTag::kReceive:
            tr_.receive_ns += span;
            break;
        case BeatTag::kSparseReceive:
            tr_.receive_ns += span;
            tr_.sparse_ns += span;
            break;
        default:
            break;  // the engine's packed tally build: engine self time
    }
}

// -------------------------------------------------------------- TracedFused

void TracedFused::send_round(Round r, net::FusedFrame& frame) {
    tr_.fused_rounds += 1;
    tr_.live_lanes += static_cast<std::uint64_t>(std::popcount(frame.active));
    const Stopwatch w;
    in_.send_round(r, frame);
    tr_.fused_send_ns += w.ns();
}

void TracedFused::receive_round(Round r, const net::FusedFrame& frame) {
    const Stopwatch w;
    in_.receive_round(r, frame);
    tr_.fused_receive_ns += w.ns();
}

// -------------------------------------------------------------- TracedArena

namespace {

/// The traced twin of the library's pooled per-chunk arena: the same
/// factories, re-arm order, engine configuration and result assembly, with
/// every seam wrapped. Batch-plane protocols only (every workload runs the
/// native batch; the per-node adapter is an oracle path).
class TracedArena {
public:
    TracedArena(const sim::ScenarioPlan& plan, Trace& tr) : plan_(plan), tr_(tr) {
        if (!plan_.protocol->make_batch)
            throw std::invalid_argument("traced path needs a native batch protocol: " +
                                        plan_.protocol->name);
        if (!plan_.scenario.use_batch || plan_.scenario.reference_delivery ||
            plan_.scenario.record_transcript)
            throw std::invalid_argument(
                "traced path covers batch=on reference=off transcript=off only");
    }

    sim::TrialResult run(std::uint64_t seed) {
        const Stopwatch trial;
        const sim::Scenario& s = plan_.scenario;
        const adba::SeedTree seeds(seed);
        sim::make_inputs(s.inputs, s.n, seeds, inputs_);
        if (!have_bundle_) {
            bundle_ = plan_.protocol->make_batch(s, inputs_, seeds);
            have_bundle_ = true;
        } else if (plan_.protocol->reinit_batch) {
            plan_.protocol->reinit_batch(s, inputs_, seeds, bundle_);
        } else {
            bundle_.batch = plan_.protocol->make_batch(s, inputs_, seeds).batch;
        }
        TracedAdversary adversary(plan_.adversary->make_adversary(s, bundle_, seeds), tr_,
                                  kEnginePlane);

        net::EngineConfig cfg;
        cfg.n = s.n;
        cfg.budget = s.t;
        cfg.max_rounds =
            s.max_rounds_override ? s.max_rounds_override : bundle_.default_max_rounds;
        cfg.simd_tally = s.use_simd;
        if (s.sparse_plane) {
            cfg.plane = net::PlaneMode::Sparse;
            cfg.sample_degree = s.sample_degree;
            cfg.sparse_seed = seeds.seed(adba::StreamPurpose::SparseTopology, s.sparse_seed);
            cfg.sparse_stream = s.sparse_stream;
        }
        cfg.watchdog_ms = s.watchdog_ms;
        if (s.use_shard) {
            const unsigned shards = sim::plan_intra_shards(s.intra_threads, s.n);
            if (shards > 1) {
                if (!pool_ || pool_->shards() != shards) {
                    dispatcher_.reset();
                    pool_ = std::make_unique<sim::ShardPool>(shards, sim::default_threads());
                    dispatcher_ = std::make_unique<TracedDispatcher>(*pool_, tr_, tag_);
                }
                cfg.intra = dispatcher_.get();
            }
        }

        auto traced = std::make_unique<TracedBatch>(std::move(bundle_.batch), tr_, tag_);
        if (engine_)
            engine_->reset(cfg, std::move(traced), adversary);
        else
            engine_.emplace(cfg, std::move(traced), adversary);
        const std::uint64_t scan0 = tr_.probe_scan_ns;
        const Stopwatch engine;
        const net::RunResult run = engine_->run();
        const std::uint64_t scan_ns = tr_.probe_scan_ns - scan0;
        const std::uint64_t engine_ns = engine.ns() - scan_ns;
        bundle_.batch = static_cast<TracedBatch&>(*engine_->take_batch()).release();

        tr_.engine_runs += 1;
        tr_.engine_ns += engine_ns;
        tr_.engine_run_ms.push_back(static_cast<double>(engine_ns) * 1e-6);
        tr_.engine_rounds += run.rounds;
        tr_.node_rounds += static_cast<std::uint64_t>(s.n) * run.rounds;

        sim::TrialResult res;
        res.agreement = run.agreement();
        res.agreed_value = run.agreed_value();
        res.validity_applicable = sim::unanimous(inputs_);
        res.validity_ok = !res.validity_applicable ||
                          (res.agreement && res.agreed_value &&
                           *res.agreed_value == inputs_.front());
        res.all_halted = run.all_halted;
        res.rounds = run.rounds;
        res.outcome = run.outcome;
        res.metrics = run.metrics;
        res.phases_configured = bundle_.phases;
        tr_.trials += 1;
        tr_.trial_span_ns += trial.ns() - scan_ns;
        return res;
    }

    bool fused_active() const { return plan_.scenario.use_fused; }

    /// 64 consecutive trials as one traced fused block; lane j gets
    /// trial_seeds[j] and out[j] its result.
    void run_fused(const std::uint64_t* trial_seeds, sim::TrialResult* out) {
        const Stopwatch trial;
        const sim::Scenario& s = plan_.scenario;
        const NodeId n = s.n;
        if (!fused_proto_) {
            fused_proto_ = plan_.protocol->make_fused(s);
            const sim::BudgetHint hint = plan_.protocol->budgets(s);
            fused_meta_.phases = hint.phases;
            fused_meta_.default_max_rounds = hint.max_rounds;
            if (plan_.protocol->schedule_of)
                fused_meta_.schedule = plan_.protocol->schedule_of(s);
        }

        lane_seeds_.clear();
        lane_seeds_.reserve(net::kFusedLanes);
        fused_inputs_.assign(n, 0);
        std::uint64_t unan = 0, front = 0;
        std::unique_ptr<TracedAdversary> lane_advs[net::kFusedLanes];
        net::Adversary* advs[net::kFusedLanes];
        for (unsigned j = 0; j < net::kFusedLanes; ++j) {
            lane_seeds_.emplace_back(trial_seeds[j]);
            sim::make_inputs(s.inputs, n, lane_seeds_.back(), inputs_);
            for (NodeId v = 0; v < n; ++v)
                fused_inputs_[v] |= std::uint64_t{inputs_[v] & 1u} << j;
            if (sim::unanimous(inputs_)) unan |= std::uint64_t{1} << j;
            front |= std::uint64_t{inputs_.front() & 1u} << j;
            lane_advs[j] = std::make_unique<TracedAdversary>(
                plan_.adversary->make_adversary(s, fused_meta_, lane_seeds_.back()), tr_,
                kFusedPlane);
            advs[j] = lane_advs[j].get();
        }
        TracedFused proto(*fused_proto_, tr_);
        proto.rearm(fused_inputs_.data(), lane_seeds_.data());

        const Round max_rounds =
            s.max_rounds_override ? s.max_rounds_override : fused_meta_.default_max_rounds;
        net::FusedLaneResult lanes[net::kFusedLanes];
        const Stopwatch block;
        fused_block_.run(proto, advs, s.t, max_rounds, lanes);
        tr_.block_ns += block.ns();
        tr_.blocks += 1;

        const std::uint64_t* byz = fused_block_.byz_plane();
        const std::uint64_t* val = fused_proto_->value_plane();
        std::uint64_t any0 = 0, any1 = 0;
        for (NodeId v = 0; v < n; ++v) {
            any0 |= ~byz[v] & ~val[v];
            any1 |= ~byz[v] & val[v];
        }
        for (unsigned j = 0; j < net::kFusedLanes; ++j) {
            const std::uint64_t bit = std::uint64_t{1} << j;
            sim::TrialResult& res = out[j];
            res = sim::TrialResult{};
            res.agreement = (any0 & any1 & bit) == 0;
            if (res.agreement)
                res.agreed_value = static_cast<adba::Bit>((any1 & bit) != 0 ? 1 : 0);
            res.validity_applicable = (unan & bit) != 0;
            res.validity_ok =
                !res.validity_applicable ||
                (res.agreement && res.agreed_value &&
                 *res.agreed_value == static_cast<adba::Bit>((front & bit) != 0 ? 1 : 0));
            res.all_halted = lanes[j].all_halted;
            res.rounds = lanes[j].rounds;
            res.outcome = lanes[j].outcome;
            res.metrics = lanes[j].metrics;
            res.phases_configured = fused_meta_.phases;
        }
        tr_.trials += net::kFusedLanes;
        tr_.trial_span_ns += trial.ns();
    }

private:
    const sim::ScenarioPlan& plan_;
    Trace& tr_;
    BeatTag tag_;
    std::vector<adba::Bit> inputs_;
    sim::ProtocolBundle bundle_;
    bool have_bundle_ = false;
    std::unique_ptr<sim::ShardPool> pool_;
    std::unique_ptr<TracedDispatcher> dispatcher_;
    std::optional<net::Engine> engine_;  ///< after the dispatcher it points at
    std::unique_ptr<net::FusedProtocol> fused_proto_;
    net::FusedBlock fused_block_;
    sim::ProtocolBundle fused_meta_;
    std::vector<std::uint64_t> fused_inputs_;
    std::vector<adba::SeedTree> lane_seeds_;
};

}  // namespace

TracedAggregate run_traced(const sim::ScenarioPlan& plan, std::uint64_t base_seed,
                           Count trials, const sim::ExecutorConfig& exec) {
    using W = sim::BinaryWorkload;
    return sim::parallel_reduce<TracedAggregate>(
        trials, exec, [&](Count begin, Count end) {
            TracedAggregate part;
            part.agg.trials = end - begin;
            W::reserve(part.agg, end - begin);
            TracedArena arena(plan, part.trace);
            Count i = begin;
            // Whole 64-lane blocks first, then the scalar remainder — the
            // library kernel's split (sim/workload.hpp).
            if (arena.fused_active()) {
                std::uint64_t lane_seeds[net::kFusedLanes];
                sim::TrialResult lane_out[net::kFusedLanes];
                while (end - i >= net::kFusedLanes) {
                    for (unsigned j = 0; j < net::kFusedLanes; ++j)
                        lane_seeds[j] = adba::mix64(base_seed + W::kSeedStride * (i + j));
                    arena.run_fused(lane_seeds, lane_out);
                    for (const auto& r : lane_out) W::accumulate(part.agg, r);
                    i += net::kFusedLanes;
                }
            }
            for (; i < end; ++i)
                W::accumulate(part.agg,
                              arena.run(adba::mix64(base_seed + W::kSeedStride * i)));
            return part;
        });
}

}  // namespace perfbench
