#include "adversary/balancer.hpp"

#include <algorithm>

#include "adversary/observer.hpp"

namespace adba::adv {

void MajorityBalancerAdversary::act(net::RoundControl& ctl) {
    const Observer obs(ctl);
    const NodeId n = obs.n();

    // Observe the round's honest broadcasts (rushing).
    Count tally[2] = {0, 0};
    std::vector<NodeId> side[2];
    for (NodeId v = 0; v < n; ++v) {
        if (!obs.live(v)) continue;
        const net::Message* m = obs.broadcast(v);
        if (!m) continue;
        const Bit b = m->val & 1;
        ++tally[b];
        side[b].push_back(v);
    }

    // Cancel the drift: corrupt majority-side nodes until balanced (their
    // broadcasts vanish from the sample pool this round and forever).
    Count spent_this_round = 0;
    while (tally[0] != tally[1]) {
        if (used_ >= cfg_.max_corruptions || ctl.budget_left() == 0) break;
        if (cfg_.per_round_cap != 0 && spent_this_round >= cfg_.per_round_cap) break;
        const Bit maj = tally[1] > tally[0] ? Bit{1} : Bit{0};
        if (side[maj].empty()) break;
        ctl.corrupt(side[maj].back());
        corrupted_.push_back(side[maj].back());
        side[maj].pop_back();
        --tally[maj];
        ++used_;
        ++spent_this_round;
    }

    // All Byzantine identities broadcast the minority value.
    const Bit minority = tally[0] <= tally[1] ? Bit{0} : Bit{1};
    net::Message m;
    m.kind = net::MsgKind::Vote1;
    m.phase = ctl.round();
    m.val = minority;
    for (NodeId v : corrupted_) ctl.broadcast_as(v, m);
}

}  // namespace adba::adv
