#include "core/agreement.hpp"

#include <functional>
#include <tuple>
#include <utility>

#include "support/contracts.hpp"

namespace adba::core {

Algorithm3Node::Algorithm3Node(const AgreementParams& params, AgreementMode mode,
                               NodeId self, Bit input, Xoshiro256 rng) {
    reinit(params, mode, self, input, rng);
}

void Algorithm3Node::reinit(const AgreementParams& params, AgreementMode mode,
                            NodeId self, Bit input, Xoshiro256 rng) {
    RabinSkeletonNode::reinit(SkeletonConfig{params.n, params.t, params.phases, mode},
                              self, input, rng);
    sched_ = params.schedule;
}

CoinSign Algorithm3Node::coin_contribution(Phase p) {
    return sched_.flips_in_phase(self(), p) ? rng().sign() : CoinSign{0};
}

Bit Algorithm3Node::coin_value(Phase p, const net::ReceiveView& view) {
    const Count k = sched_.committee_of_phase(p);
    const auto [first, last] = sched_.range(k);
    return committee_coin_sum(view, p, first, last) >= 0 ? Bit{1} : Bit{0};
}

void arm_algorithm3_nodes(const AgreementParams& params, AgreementMode mode,
                          const std::vector<Bit>& inputs, const SeedTree& seeds,
                          net::NodePool& nodes) {
    ADBA_EXPECTS(inputs.size() == params.n);
    net::arm_node_pool<Algorithm3Node>(nodes, params.n, [&](NodeId v) {
        return std::make_tuple(std::cref(params), mode, v, inputs[v],
                               seeds.stream(StreamPurpose::NodeProtocol, v));
    });
}

void arm_algorithm3_batch(const AgreementParams& params, AgreementMode mode,
                          const std::vector<Bit>& inputs, const SeedTree& seeds,
                          std::unique_ptr<net::BatchProtocol>& batch) {
    BatchCoinSpec coin;
    coin.kind = BatchCoinSpec::Kind::Committee;
    coin.schedule = params.schedule;
    net::arm_batch<SkeletonBatch>(batch, SkeletonConfig{params.n, params.t, params.phases, mode},
                                  std::move(coin), inputs, seeds);
}

}  // namespace adba::core
