#include "baselines/rabin_dealer.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <tuple>
#include <utility>

#include "support/contracts.hpp"
#include "support/math.hpp"

namespace adba::base {

RabinDealerParams RabinDealerParams::compute(NodeId n, Count t, double gamma) {
    ADBA_EXPECTS(n >= 1);
    ADBA_EXPECTS_MSG(3 * static_cast<std::uint64_t>(t) < n, "requires t < n/3");
    const double logn = static_cast<double>(std::max<std::uint32_t>(1, ceil_log2(n)));
    RabinDealerParams p;
    p.n = n;
    p.t = t;
    p.phases = static_cast<Count>(std::max(1.0, std::ceil(gamma * logn))) + 1;
    return p;
}

RabinDealerNode::RabinDealerNode(const RabinDealerParams& params, core::AgreementMode mode,
                                 NodeId self, Bit input, std::uint64_t dealer_seed,
                                 Xoshiro256 rng) {
    reinit(params, mode, self, input, dealer_seed, rng);
}

void RabinDealerNode::reinit(const RabinDealerParams& params, core::AgreementMode mode,
                             NodeId self, Bit input, std::uint64_t dealer_seed,
                             Xoshiro256 rng) {
    RabinSkeletonNode::reinit(
        core::SkeletonConfig{params.n, params.t, params.phases, mode}, self, input,
        rng);
    dealer_seed_ = dealer_seed;
}

Bit RabinDealerNode::dealer_coin(std::uint64_t dealer_seed, Phase p) {
    return static_cast<Bit>(mix64(dealer_seed ^ (0x51a3c0ffee1dULL + p)) & 1);
}

Bit RabinDealerNode::coin_value(Phase p, const net::ReceiveView&) {
    return dealer_coin(dealer_seed_, p);
}

void arm_rabin_dealer_nodes(const RabinDealerParams& params, core::AgreementMode mode,
                            const std::vector<Bit>& inputs, const SeedTree& seeds,
                            net::NodePool& nodes) {
    ADBA_EXPECTS(inputs.size() == params.n);
    const std::uint64_t dealer_seed = seeds.seed(StreamPurpose::DealerCoin);
    net::arm_node_pool<RabinDealerNode>(nodes, params.n, [&](NodeId v) {
        return std::make_tuple(std::cref(params), mode, v, inputs[v], dealer_seed,
                               seeds.stream(StreamPurpose::NodeProtocol, v));
    });
}

void arm_rabin_dealer_batch(const RabinDealerParams& params, core::AgreementMode mode,
                            const std::vector<Bit>& inputs, const SeedTree& seeds,
                            std::unique_ptr<net::BatchProtocol>& batch) {
    core::BatchCoinSpec coin;
    coin.kind = core::BatchCoinSpec::Kind::Dealer;
    coin.dealer = [seed = seeds.seed(StreamPurpose::DealerCoin)](Phase p) {
        return RabinDealerNode::dealer_coin(seed, p);
    };
    net::arm_batch<core::SkeletonBatch>(
        batch, core::SkeletonConfig{params.n, params.t, params.phases, mode}, std::move(coin),
        inputs, seeds);
}

Round max_rounds_whp(const RabinDealerParams& p) { return 2 * (p.phases + 2); }

}  // namespace adba::base
