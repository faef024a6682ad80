#include "adversary/crash.hpp"

#include <vector>

#include "adversary/observer.hpp"
#include "support/contracts.hpp"

namespace adba::adv {

void CrashAdversary::act(net::RoundControl& ctl) {
    if (cfg_.mode == CrashMode::Random)
        act_random(ctl);
    else
        act_targeted(ctl);
}

void CrashAdversary::crash_prefix(net::RoundControl& ctl, NodeId v, NodeId prefix) {
    ADBA_EXPECTS(crashes_ < cfg_.max_crashes);
    ADBA_EXPECTS(ctl.budget_left() > 0);
    const std::optional<net::Message> intended = ctl.corrupt(v);
    ++crashes_;
    if (intended && prefix > 0)
        ctl.split_as(v, intended, std::nullopt, prefix);  // mid-broadcast cut
    // Silent forever after (crash adversaries never re-deliver).
}

void CrashAdversary::act_random(net::RoundControl& ctl) {
    if (crashes_ >= cfg_.max_crashes || ctl.budget_left() == 0) return;
    if (!rng_.bernoulli(cfg_.crash_prob)) return;
    const Observer obs(ctl);
    const NodeId n = obs.n();
    std::vector<NodeId> candidates;
    for (NodeId v = 0; v < n; ++v)
        if (obs.live(v)) candidates.push_back(v);
    if (candidates.empty()) return;
    const NodeId victim = candidates[rng_.below(candidates.size())];
    const auto prefix = static_cast<NodeId>(rng_.below(n + 1));
    crash_prefix(ctl, victim, prefix);
}

void CrashAdversary::act_targeted(net::RoundControl& ctl) {
    ADBA_EXPECTS_MSG(cfg_.schedule.has_value(), "TargetedCoin mode needs a schedule");
    if ((ctl.round() % 2) != 1) return;  // flips fly in round 2 of each phase
    const Phase p = ctl.round() / 2;
    const auto& sched = *cfg_.schedule;
    const auto [first, last] = sched.range(sched.committee_of_phase(p));

    // Honest committee flip sum and the flippers by sign.
    const Observer obs(ctl);
    std::int64_t sum = 0;
    std::vector<NodeId> pos, neg;
    for (NodeId u = first; u < last; ++u) {
        if (!obs.live(u)) continue;
        const net::Message* m = obs.broadcast(u);
        if (!m || m->coin == 0) continue;
        if (m->coin > 0) {
            ++sum;
            pos.push_back(u);
        } else {
            --sum;
            neg.push_back(u);
        }
    }

    auto budget = [&] {
        const Count left = cfg_.max_crashes - crashes_;
        return std::min<Count>(left, ctl.budget_left());
    };

    // Split the coin with crash faults alone by straddling the >=0 tie rule.
    // For S >= 0: crash S+1 of the +1 flippers, the LAST one mid-broadcast
    // (delivered to a prefix only). Survivors sum to S - (S+1) = -1; prefix
    // receivers also get the partial +1 and see 0 (coin 1), everyone else
    // sees -1 (coin 0). For S < 0 symmetrically: |S| crashes of -1 flippers
    // with the last partial (survivors sum to 0 -> coin 1; prefix receivers
    // see -1 -> coin 0). Best effort when flippers or budget run short.
    auto& side = sum >= 0 ? pos : neg;
    const auto needed = static_cast<std::uint64_t>(sum >= 0 ? sum + 1 : -sum);
    // Crash-only limitation: a committee whose flips cannot be dragged
    // across the >=0 tie boundary (e.g. unanimous +1 with too few flippers)
    // is crash-immune; spend nothing on a doomed phase.
    if (needed > side.size() || needed > budget()) return;
    for (std::uint64_t k = 0; k < needed; ++k) {
        const bool final_crash = k + 1 == needed;
        crash_prefix(ctl, side.back(), final_crash ? ctl.n() / 2 : 0);
        side.pop_back();
    }
}

}  // namespace adba::adv
