#include "core/agreement.hpp"

#include <functional>
#include <tuple>
#include <utility>

#include "support/contracts.hpp"

namespace adba::core {

CommitteeCoinNode::CommitteeCoinNode(const SkeletonConfig& cfg, const BlockSchedule& schedule,
                                     NodeId self, Bit input, Xoshiro256 rng) {
    reinit(cfg, schedule, self, input, rng);
}

void CommitteeCoinNode::reinit(const SkeletonConfig& cfg, const BlockSchedule& schedule,
                               NodeId self, Bit input, Xoshiro256 rng) {
    RabinSkeletonNode::reinit(cfg, self, input, rng);
    sched_ = schedule;
}

CoinSign CommitteeCoinNode::coin_contribution(Phase p) {
    return sched_.flips_in_phase(self(), p) ? rng().sign() : CoinSign{0};
}

Bit CommitteeCoinNode::coin_value(Phase p, const net::ReceiveView& view) {
    const Count k = sched_.committee_of_phase(p);
    const auto [first, last] = sched_.range(k);
    return committee_coin_sum(view, p, first, last) >= 0 ? Bit{1} : Bit{0};
}

void arm_committee_nodes(const SkeletonConfig& cfg, const BlockSchedule& schedule,
                         const std::vector<Bit>& inputs, const SeedTree& seeds,
                         net::NodePool& nodes) {
    ADBA_EXPECTS(inputs.size() == cfg.n);
    net::arm_node_pool<CommitteeCoinNode>(nodes, cfg.n, [&](NodeId v) {
        return std::make_tuple(std::cref(cfg), std::cref(schedule), v, inputs[v],
                               seeds.stream(StreamPurpose::NodeProtocol, v));
    });
}

void arm_committee_batch(const SkeletonConfig& cfg, const BlockSchedule& schedule,
                         const std::vector<Bit>& inputs, const SeedTree& seeds,
                         std::unique_ptr<net::BatchProtocol>& batch) {
    BatchCoinSpec coin;
    coin.kind = BatchCoinSpec::Kind::Committee;
    coin.schedule = schedule;
    net::arm_batch<SkeletonBatch>(batch, cfg, std::move(coin), inputs, seeds);
}

}  // namespace adba::core
