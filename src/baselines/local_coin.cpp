#include "baselines/local_coin.hpp"

#include <functional>
#include <tuple>
#include <utility>

#include "support/contracts.hpp"

namespace adba::base {

LocalCoinNode::LocalCoinNode(const LocalCoinParams& params, core::AgreementMode mode,
                             NodeId self, Bit input, Xoshiro256 rng) {
    reinit(params, mode, self, input, rng);
}

void arm_local_coin_nodes(const LocalCoinParams& params, core::AgreementMode mode,
                          const std::vector<Bit>& inputs, const SeedTree& seeds,
                          net::NodePool& nodes) {
    ADBA_EXPECTS(inputs.size() == params.n);
    net::arm_node_pool<LocalCoinNode>(nodes, params.n, [&](NodeId v) {
        return std::make_tuple(std::cref(params), mode, v, inputs[v],
                               seeds.stream(StreamPurpose::NodeProtocol, v));
    });
}

void arm_local_coin_batch(const LocalCoinParams& params, core::AgreementMode mode,
                          const std::vector<Bit>& inputs, const SeedTree& seeds,
                          std::unique_ptr<net::BatchProtocol>& batch) {
    core::BatchCoinSpec coin;
    coin.kind = core::BatchCoinSpec::Kind::Local;
    net::arm_batch<core::SkeletonBatch>(
        batch, core::SkeletonConfig{params.n, params.t, params.phases, mode}, std::move(coin),
        inputs, seeds);
}

}  // namespace adba::base
