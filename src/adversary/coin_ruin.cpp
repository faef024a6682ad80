#include "adversary/coin_ruin.hpp"

#include <vector>

#include "adversary/observer.hpp"
#include "support/contracts.hpp"

namespace adba::adv {

void CoinRuinAdversary::act(net::RoundControl& ctl) {
    if (ctl.round() != 0) return;  // the coin protocols are one round long

    // Observe the designated flips (rushing: current-round randomness).
    const Observer obs(ctl);
    std::int64_t sum = 0;
    std::vector<NodeId> pos, neg;
    for (NodeId u = 0; u < cfg_.designated; ++u) {
        if (!obs.honest(u)) continue;
        const net::Message* m = obs.broadcast(u);
        if (!m || m->kind != net::MsgKind::Coin || m->coin == 0) continue;
        if (m->coin > 0) {
            ++sum;
            pos.push_back(u);
        } else {
            --sum;
            neg.push_back(u);
        }
    }

    const Count budget = std::min<Count>(cfg_.max_corruptions, ctl.budget_left());
    std::vector<NodeId> taken;  // corrupted designated flippers (coin slots)

    auto corrupt_from = [&](std::vector<NodeId>& pool, std::int64_t delta) {
        ctl.corrupt(pool.back());
        taken.push_back(pool.back());
        pool.pop_back();
        sum += delta;
    };

    if (cfg_.attack == CoinAttack::Split) {
        // Goal: sum' in [-M, M-1] where M = #Byzantine designated slots, so
        // equivocation can land receivers on both sides of the >=0 rule.
        // Each corruption of a majority-sign flipper moves sum' 1 toward 0
        // and grows M by 1 (net margin gain 2 per corruption).
        while (taken.size() < budget) {
            const auto m_byz = static_cast<std::int64_t>(taken.size());
            if (sum >= -m_byz && sum <= m_byz - 1) break;  // already feasible
            if (sum >= 0 && !pos.empty())
                corrupt_from(pos, -1);
            else if (sum < 0 && !neg.empty())
                corrupt_from(neg, +1);
            else
                break;  // no flippers left on the needed side
        }
        const auto m_byz = static_cast<std::int64_t>(taken.size());
        feasible_ = sum >= -m_byz && sum <= m_byz - 1;
        // Equivocate: half the receivers get all-(+1) Byzantine coins, the
        // other half all-(-1); best effort even when infeasible.
        net::Message plus;
        plus.kind = net::MsgKind::Coin;
        plus.coin = 1;
        net::Message minus = plus;
        minus.coin = -1;
        const NodeId half = ctl.n() / 2;
        for (NodeId v : taken) ctl.split_as(v, plus, minus, half);
        return;
    }

    // ForceBit: push every receiver's sum to the target side.
    // Target 1 needs sum' + M >= 0 (all Byzantine send +1);
    // target 0 needs sum' - M <= -1 (all send -1).
    const bool want_one = cfg_.forced_bit == 1;
    while (taken.size() < budget) {
        const auto m_byz = static_cast<std::int64_t>(taken.size());
        if (want_one ? (sum + m_byz >= 0) : (sum - m_byz <= -1)) break;
        if (want_one && !neg.empty())
            corrupt_from(neg, +1);
        else if (!want_one && !pos.empty())
            corrupt_from(pos, -1);
        else
            break;
    }
    const auto m_byz = static_cast<std::int64_t>(taken.size());
    feasible_ = want_one ? (sum + m_byz >= 0) : (sum - m_byz <= -1);
    for (NodeId v : taken) {
        net::Message m;
        m.kind = net::MsgKind::Coin;
        m.coin = want_one ? CoinSign{1} : CoinSign{-1};
        ctl.broadcast_as(v, m);
    }
}

}  // namespace adba::adv
