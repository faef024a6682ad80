// Rabin's randomized agreement (FOCS 1983) with a trusted external dealer —
// the idealized shared-coin reference (paper §1.2: "Rabin's protocol assumes
// a shared (common) coin available to all nodes (say, given by a trusted
// external dealer)").
//
// The dealer is modeled as a public function of (dealer seed, phase) that
// every node evaluates locally — a perfect common coin, by construction
// unbiased and identical at all nodes. The dealer's phase-p coin is treated
// as revealed only in round 2 of phase p (a non-rushing dealer): the
// adversary strategies in this repository do not act on it before honest
// nodes adopt it. Each phase is good with probability >= 1/2, so expected
// O(1) phases — the floor any committee scheme is compared against.
#pragma once

#include <memory>
#include <vector>

#include "core/skeleton.hpp"
#include "core/skeleton_batch.hpp"
#include "rand/seed_tree.hpp"

namespace adba::base {

struct RabinDealerParams {
    NodeId n = 0;
    Count t = 0;
    Count phases = 1;  ///< w.h.p. budget: failure prob <= 2^-phases

    /// phases = ⌈γ·log2 n⌉ + 1 gives failure probability <= 2/n^γ. The
    /// dealer seed is per trial, so it is not a parameter: the arm functions
    /// read it from the trial's DealerCoin stream.
    static RabinDealerParams compute(NodeId n, Count t, double gamma = 2.0);
};

class RabinDealerNode final : public core::RabinSkeletonNode {
public:
    RabinDealerNode(const RabinDealerParams& params, core::AgreementMode mode,
                    NodeId self, Bit input, std::uint64_t dealer_seed, Xoshiro256 rng);

    /// Re-arms a pooled node for a fresh trial (constructor contract; the
    /// dealer seed is per-trial, so it is re-latched here).
    void reinit(const RabinDealerParams& params, core::AgreementMode mode,
                NodeId self, Bit input, std::uint64_t dealer_seed, Xoshiro256 rng);

    /// The dealer's public coin for phase p (identical at every node).
    static Bit dealer_coin(std::uint64_t dealer_seed, Phase p);

protected:
    CoinSign coin_contribution(Phase) override { return 0; }
    Bit coin_value(Phase p, const net::ReceiveView& view) override;

private:
    std::uint64_t dealer_seed_ = 0;
};

/// Arms the per-node form (every node latches the trial's DealerCoin seed)
/// into an empty pool, or re-arms a pool armed earlier in place.
void arm_rabin_dealer_nodes(const RabinDealerParams& params, core::AgreementMode mode,
                            const std::vector<Bit>& inputs, const SeedTree& seeds,
                            net::NodePool& nodes);

/// Arms the native SoA batch form (dealer coin from the trial's DealerCoin
/// seed); bit-identical to the node vector.
void arm_rabin_dealer_batch(const RabinDealerParams& params, core::AgreementMode mode,
                            const std::vector<Bit>& inputs, const SeedTree& seeds,
                            std::unique_ptr<net::BatchProtocol>& batch);

Round max_rounds_whp(const RabinDealerParams& p);

}  // namespace adba::base
