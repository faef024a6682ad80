#include "adversary/chaos.hpp"

#include <vector>

#include "adversary/observer.hpp"

namespace adba::adv {

void ChaosAdversary::act(net::RoundControl& ctl) {
    const NodeId n = ctl.n();
    if (corrupted_.size() < cfg_.max_corruptions && ctl.budget_left() > 0 &&
        rng_.bernoulli(cfg_.corrupt_prob)) {
        const Observer obs(ctl);
        std::vector<NodeId> candidates;
        for (NodeId v = 0; v < n; ++v)
            if (obs.live(v)) candidates.push_back(v);
        if (!candidates.empty()) {
            const NodeId victim = candidates[rng_.below(candidates.size())];
            ctl.corrupt(victim);
            corrupted_.push_back(victim);
        }
    }
    for (NodeId v : corrupted_) {
        for (NodeId to = 0; to < n; ++to) {
            if (!rng_.bernoulli(cfg_.deliver_prob)) continue;
            net::Message m;
            m.kind = static_cast<net::MsgKind>(rng_.below(8));  // includes None
            m.val = static_cast<Bit>(rng_.below(2));
            m.flag = static_cast<std::uint8_t>(rng_.below(2));
            m.coin = static_cast<CoinSign>(static_cast<std::int64_t>(rng_.below(5)) - 2);
            // Mostly current phase, sometimes stale/future garbage.
            const Phase p = ctl.round() / 2;
            m.phase = rng_.bernoulli(0.8)
                          ? p
                          : static_cast<Phase>(rng_.below(p + 3));
            ctl.deliver_as(v, to, m);
        }
    }
}

}  // namespace adba::adv
