// Algorithm 3 (paper §3.2): committee-based Byzantine agreement under an
// adaptive full-information rushing adversary, t < n/3.
//
// The node is the Rabin skeleton plus the paper's committee coin: phase i's
// coin is produced by committee i (ID block of size s = n/c), each member
// piggybacking a ±1 flip on its round-2 broadcast; every node adopts the
// sign of the committee sum (Algorithm 2 / Corollary 1). The same node,
// over a different block schedule, is each Chor-Coan baseline
// (baselines/chor_coan.hpp): the protocols differ only in their committee
// sizing, so one committee-coin node over (SkeletonConfig, BlockSchedule)
// serves all four committee protocols.
//
// Round complexity: phases = c = min(α⌈t²/n⌉log n, 3αt/log n) (+ the
// finite-n w.h.p. floor, see core/params.hpp), two rounds per phase, early
// termination per Lemma 4.
#pragma once

#include <memory>
#include <vector>

#include "core/params.hpp"
#include "core/skeleton.hpp"
#include "core/skeleton_batch.hpp"
#include "net/node.hpp"
#include "rand/seed_tree.hpp"

namespace adba::core {

/// One node of a committee-coin protocol: phase p's committee (an ID block
/// of `schedule`) flips, and every node adopts the sign of its sum.
class CommitteeCoinNode final : public RabinSkeletonNode {
public:
    CommitteeCoinNode(const SkeletonConfig& cfg, const BlockSchedule& schedule, NodeId self,
                      Bit input, Xoshiro256 rng);

    /// Re-arms a pooled node for a fresh trial (constructor contract).
    void reinit(const SkeletonConfig& cfg, const BlockSchedule& schedule, NodeId self,
                Bit input, Xoshiro256 rng);

    const BlockSchedule& schedule() const { return sched_; }

protected:
    CoinSign coin_contribution(Phase p) override;
    Bit coin_value(Phase p, const net::ReceiveView& view) override;

private:
    BlockSchedule sched_;
};

/// Arms the per-node form for one run: node v gets inputs[v] and an
/// independent protocol stream from the seed tree. An empty pool is built;
/// a pool armed earlier (same n, same node type) is re-armed in place with
/// zero allocation.
void arm_committee_nodes(const SkeletonConfig& cfg, const BlockSchedule& schedule,
                         const std::vector<Bit>& inputs, const SeedTree& seeds,
                         net::NodePool& nodes);

/// Arms the native SoA batch form of the same protocol (core/skeleton_batch.hpp
/// with the committee coin): bit-identical to the node vector above, one
/// dispatch per engine beat. Builds on an empty slot, re-arms otherwise.
void arm_committee_batch(const SkeletonConfig& cfg, const BlockSchedule& schedule,
                         const std::vector<Bit>& inputs, const SeedTree& seeds,
                         std::unique_ptr<net::BatchProtocol>& batch);

}  // namespace adba::core
