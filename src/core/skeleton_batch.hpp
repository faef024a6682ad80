// SoA batch implementation of the Rabin phase skeleton — the native
// BatchProtocol for every shared-coin agreement protocol in the repository
// (Algorithm 3, both Chor-Coan baselines, the Rabin trusted-dealer
// reference, and the local-coin ablation).
//
// Semantics are EXACTLY core/skeleton.hpp's RabinSkeletonNode — same state
// machine, same thresholds, same finish-flush termination, same per-node
// randomness draws in the same order — but the per-node state lives in flat
// arrays (val / decided / finish / flushing / halted planes plus one RNG
// stream per node in a contiguous vector) and the whole population steps
// under ONE virtual dispatch per engine beat. The receive step hoists the
// receiver-independent work out of the per-node loop entirely: the honest
// val/flag counts and coin prefix are read once per round from the shared
// RoundTally, and the per-receiver Byzantine deltas come from the tally's
// delta planes, so the inner loop is pure arithmetic over contiguous
// arrays. When no Byzantine delivery matches the round's vote query, every
// receiver sees the same counts: the thresholds run once and the planes
// update in branch-free byte loops — the case-3 coins too, when no
// receiver draws and the committee's Byzantine coin is absent or one
// selector's (RoundTally::coin_delta_select). The send step hands the
// buffer whole 64-sender words (RoundBuffer::set_word), so the packed
// tally adopts them instead of re-reading n Messages. tests/test_batch_plane.cpp pins this
// class bit-identical to the per-node adapter across every compatible
// registry pair.
//
// The subclass coin hooks of RabinSkeletonNode become a BatchCoinSpec
// value: Committee (Algorithm 3 / Chor-Coan block schedules), Dealer (a
// public coin function of the phase), or Local (private per-node flips).
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "core/params.hpp"
#include "core/skeleton.hpp"
#include "net/batch.hpp"
#include "net/sparse_plane.hpp"
#include "rand/rng.hpp"
#include "rand/seed_tree.hpp"

namespace adba::core {

/// The coin source for a SkeletonBatch — the data-only analogue of the
/// RabinSkeletonNode subclass hooks.
struct BatchCoinSpec {
    enum class Kind : std::uint8_t {
        Committee,  ///< phase-p committee members flip; coin = sign of sum
        Dealer,     ///< public coin: dealer(p), identical at every node
        Local,      ///< private coin: each case-3 node flips its own bit
    };
    Kind kind = Kind::Local;
    BlockSchedule schedule;           ///< Committee only
    std::function<Bit(Phase)> dealer; ///< Dealer only
};

/// Whole-population Rabin skeleton: one object, n nodes, flat planes.
class SkeletonBatch final : public net::BatchProtocol {
public:
    SkeletonBatch(const SkeletonConfig& cfg, BatchCoinSpec coin,
                  const std::vector<Bit>& inputs, const SeedTree& seeds);

    /// Re-arms a pooled batch for a fresh trial (constructor contract);
    /// zero allocation once warm.
    void rearm(const SkeletonConfig& cfg, BatchCoinSpec coin,
               const std::vector<Bit>& inputs, const SeedTree& seeds);

    NodeId n() const override { return cfg_.n; }
    void send_all(Round r, net::RoundBuffer& buf) override;
    void receive_all(Round r, const net::RoundBuffer& buf,
                     const net::RoundTally& tally) override;
    void receive_all(Round r, const net::RoundBuffer& buf,
                     const net::DeliverySource& src) override;
    // Sharded beats: all per-node state (planes, RNG streams) is indexed by
    // node, so ranges write disjointly; every shared tally query — including
    // the committee coin — is hoisted into receive_prepare. Dealer coins must
    // be pure functions of the phase (the registry's are), so they may be
    // invoked from any shard.
    bool shardable() const override { return true; }
    void send_range(Round r, net::RoundBuffer& buf, NodeId lo, NodeId hi) override;
    void receive_prepare(Round r, const net::RoundBuffer& buf,
                         const net::RoundTally& tally) override;
    void receive_range(Round r, const net::RoundBuffer& buf,
                       const net::RoundTally& tally, NodeId lo, NodeId hi) override;
    // Sparse beats: vote counts come from sampled per-receiver estimates;
    // the committee coin stays EXACT (its sender range is the paper's
    // polylog committee — cheap to hear in full), hoisted exactly as in
    // receive_prepare. Dense sampling reproduces the flat integers, so the
    // Lemma 3 assertion stays armed there and relaxes only under real
    // sampling, where two t+1 estimates can statistically coexist.
    bool supports_sparse() const override { return true; }
    void receive_sparse_prepare(Round r, const net::RoundBuffer& buf,
                                const net::RoundTally& tally,
                                const net::SparsePlane& sparse) override;
    void receive_sparse_range(Round r, const net::RoundBuffer& buf,
                              const net::RoundTally& tally,
                              const net::SparsePlane& sparse, NodeId lo,
                              NodeId hi) override;
    const std::uint8_t* halted_plane() const override { return halted_.data(); }
    Bit value(NodeId v) const override { return val_[v]; }
    bool decided(NodeId v) const override { return decided_[v] != 0; }
    Bit output(NodeId v) const override { return val_[v]; }
    const Bit* value_plane() const override { return val_.data(); }
    const std::uint8_t* decided_plane() const override { return decided_.data(); }

private:
    /// What the thresholds make of one receiver's counts: round 1 reads
    /// the (val 0, val 1) counts, round 2 the decided-only counts.
    struct Step {
        std::uint8_t keep = 0;     ///< round 1 below quorum: value unchanged
        Bit val = 0;
        std::uint8_t decided = 0;
        std::uint8_t finish = 0;   ///< round-2 case 1: start the finish flush
        std::uint8_t coin = 0;     ///< round-2 case 3: value = the coin
    };
    /// The thresholds, with the two-quorum (round 1) and Lemma 3 (round 2,
    /// when `checked`) contracts. Lemma 3 is a theorem for exact counts
    /// only, not for sub-dense sampled estimates.
    Step step(bool round2, const std::array<Count, 2>& cnt, bool checked) const;
    /// The case-3 coin of one receive beat, as prepare_coin hoisted it.
    /// Fixed: no receiver draws or sums — receiver v's coin is
    /// fixed[bit v of `select`] (select == nullptr: fixed[0]): the dealer's
    /// coin, or a committee coin whose Byzantine part is absent or chosen by
    /// one selector. Sums: the committee coin from the hoisted honest sum
    /// plus a per-receiver Byzantine delta plane. Draw: the receiver's own
    /// flip. Captured by value: the receive loop's byte stores may alias
    /// members.
    struct PreparedCoin {
        enum class Form : std::uint8_t { Fixed, Sums, Draw };
        Form form = Form::Draw;
        Bit fixed[2] = {0, 0};
        const std::uint64_t* select = nullptr;
        std::int64_t honest = 0;
        const std::int64_t* delta = nullptr;
        Xoshiro256* rng = nullptr;

        Bit operator()(NodeId v) const;
        /// Fixed form only: the coins of receivers v..v+7 as 0/1 bytes.
        std::uint64_t bytes8(NodeId v) const;
    };
    /// Receive beat over receivers [lo, hi): counts(v) is v's tally and
    /// coin(v) its case-3 coin, drawn only for live case-3 receivers in
    /// ascending order. kUniform: every receiver has the same counts, so
    /// the thresholds run once — and their contracts fire only if the range
    /// has a live receiver — and the planes update branch-free (a Fixed
    /// coin eight receivers at a time too).
    template <bool kUniform, typename CountsFn, typename CoinFn>
    void step_range(Round r, const std::uint8_t* state, NodeId lo, NodeId hi,
                    bool checked, CountsFn&& counts, CoinFn&& coin);
    /// Hoists round r's case-3 coin into prep_coin_ (receive_prepare and
    /// receive_sparse_prepare): the committee's honest sum and Byzantine
    /// deltas, or the dealer's pure coin, read once. The tally's lazy
    /// caches must not be built from concurrent shards, so this pays for
    /// them up front even when no node lands in case 3 — a cache build
    /// only, not an observable draw.
    void prepare_coin(Round r, const net::RoundTally& tally);

    SkeletonConfig cfg_;
    BatchCoinSpec coin_;
    // receive_prepare → receive_range handoff; valid for one beat only.
    std::array<Count, 2> prep_base_{0, 0};
    const std::array<Count, 2>* prep_delta_ = nullptr;
    PreparedCoin prep_coin_;
    net::SparsePlane::Query prep_sparse_query_;  ///< sparse beats only
    std::vector<Bit> val_;
    std::vector<std::uint8_t> decided_;
    std::vector<std::uint8_t> finish_;
    std::vector<std::uint8_t> flushing_;
    std::vector<std::uint8_t> halted_;
    std::vector<Xoshiro256> rng_;  ///< per-node streams, flat
};

}  // namespace adba::core
