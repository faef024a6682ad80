#include "adversary/worst_case.hpp"

#include <algorithm>
#include <limits>

#include "adversary/observer.hpp"
#include "support/contracts.hpp"

namespace adba::adv {

namespace {
constexpr Count kInfeasible = std::numeric_limits<Count>::max();
}

Count WorstCaseAdversary::remaining(const net::RoundControl& ctl) const {
    return std::min<Count>(ctl.budget_left(), cfg_.max_corruptions - used_);
}

void WorstCaseAdversary::corrupt_tracked(net::RoundControl& ctl, NodeId v) {
    ctl.corrupt(v);
    ++used_;
}

void WorstCaseAdversary::act(net::RoundControl& ctl) {
    if (ctl.round() < cfg_.round_offset) return;  // prelude rounds: not ours
    const Round r = ctl.round() - cfg_.round_offset;
    const Phase p = r / 2;
    if ((r % 2) == 0)
        act_round1(ctl, p);
    else
        act_round2(ctl, p);
}

void WorstCaseAdversary::act_round1(net::RoundControl& ctl, Phase p) {
    if (!cfg_.block_round1_quorums) return;
    const Observer obs(ctl);
    const NodeId n = obs.n();
    const Count quorum = n - cfg_.t;

    Count tally[2] = {0, 0};
    for (NodeId v = 0; v < n; ++v) {
        if (!obs.live(v)) continue;
        const net::Message* m = obs.broadcast(v);
        if (m && m->kind == net::MsgKind::Vote1 && m->phase == p) ++tally[m->val & 1];
    }

    for (Bit b : {Bit{0}, Bit{1}}) {
        if (tally[b] < quorum) continue;
        const Count need = tally[b] - quorum + 1;
        if (need > remaining(ctl)) return;  // cannot block; let it lock in
        // Corrupt `need` nodes of the quorum bloc, preferring members of the
        // current committee (their corpses become coin equivocators in
        // round 2 of this phase).
        std::vector<NodeId> committee_first, rest;
        for (NodeId v = 0; v < n && committee_first.size() + rest.size() <
                                        static_cast<std::size_t>(tally[b]);
             ++v) {
            if (!obs.live(v)) continue;
            const net::Message* m = obs.broadcast(v);
            if (!(m && m->kind == net::MsgKind::Vote1 && m->phase == p && (m->val & 1) == b))
                continue;
            if (cfg_.schedule.flips_in_phase(v, p))
                committee_first.push_back(v);
            else
                rest.push_back(v);
        }
        Count done = 0;
        for (NodeId v : committee_first) {
            if (done == need) break;
            corrupt_tracked(ctl, v);
            ++done;
        }
        for (NodeId v : rest) {
            if (done == need) break;
            corrupt_tracked(ctl, v);
            ++done;
        }
        return;  // at most one value can hold an n-t quorum
    }
}

void WorstCaseAdversary::act_round2(net::RoundControl& ctl, Phase p) {
    const Observer obs(ctl);
    const NodeId n = obs.n();
    const auto [first, last] = cfg_.schedule.range(cfg_.schedule.committee_of_phase(p));
    const auto in_committee = [&](NodeId v) { return v >= first && v < last; };

    // ---- observe (full information + rushing) ----
    Count d = 0;
    Bit b_i = 0;
    // Decided honest nodes, committee members last: victims outside the
    // committee leave the flip sum untouched, while committee victims both
    // lose their flip and join the equivocator pool.
    victims_.clear();
    decided_in_.clear();
    for (NodeId v = 0; v < n; ++v) {
        if (!obs.live(v)) continue;
        if (obs.decided(v)) {
            ++d;
            b_i = obs.value(v);
            (in_committee(v) ? decided_in_ : victims_).push_back(v);
        }
    }
    victims_.insert(victims_.end(), decided_in_.begin(), decided_in_.end());

    // Honest committee flippers by sign. The plan below edits these lists
    // in place; nothing reads the observed lists afterwards.
    std::int64_t sum = 0;
    std::vector<NodeId>& plan_pos = pos_;
    std::vector<NodeId>& plan_neg = neg_;
    plan_pos.clear();
    plan_neg.clear();
    Count m_byz = 0;
    for (NodeId u = first; u < last; ++u) {
        if (!obs.honest(u)) {
            ++m_byz;
            continue;
        }
        if (obs.halted(u)) continue;
        const net::Message* m = obs.broadcast(u);
        if (!m || m->kind != net::MsgKind::Vote2 || m->coin == 0) continue;
        if (m->coin > 0) {
            ++sum;
            plan_pos.push_back(u);
        } else {
            --sum;
            plan_neg.push_back(u);
        }
    }

    // ---- plan: decided reduction ----
    const Count need_reduce = d > cfg_.t ? d - cfg_.t : 0;
    if (need_reduce > victims_.size()) return;  // cannot even see all decided (impossible)
    victims_.resize(need_reduce);

    std::int64_t plan_sum = sum;
    std::int64_t plan_m = m_byz;
    for (NodeId v : victims_) {
        if (!in_committee(v)) continue;
        ++plan_m;
        // Remove the victim's flip from the plan.
        if (auto it = std::find(plan_pos.begin(), plan_pos.end(), v); it != plan_pos.end()) {
            plan_pos.erase(it);
            --plan_sum;
        } else if (auto it2 = std::find(plan_neg.begin(), plan_neg.end(), v);
                   it2 != plan_neg.end()) {
            plan_neg.erase(it2);
            ++plan_sum;
        }
    }

    // ---- plan: coin ruin cost (SPLIT and OPPOSITE) ----
    // Greedy over majority-sign flippers; each corruption shifts the margin
    // by 2. Returns corruption count or kInfeasible.
    const auto split_cost = [&]() -> Count {
        std::int64_t s = plan_sum, m = plan_m;
        std::size_t avail_pos = plan_pos.size(), avail_neg = plan_neg.size();
        Count k = 0;
        while (!(s >= -m && s <= m - 1)) {
            if (s >= 0 && avail_pos > 0) {
                --avail_pos;
                --s;
            } else if (s < 0 && avail_neg > 0) {
                --avail_neg;
                ++s;
            } else {
                return kInfeasible;
            }
            ++m;
            ++k;
        }
        return k;
    };
    const auto opposite_cost = [&](Bit target) -> Count {
        std::int64_t s = plan_sum, m = plan_m;
        std::size_t avail_pos = plan_pos.size(), avail_neg = plan_neg.size();
        Count k = 0;
        // target 1: all receivers must see s' + m >= 0; target 0: s' - m <= -1.
        while (target == 1 ? (s + m < 0) : (s - m > -1)) {
            if (target == 1 && avail_neg > 0) {
                --avail_neg;
                ++s;
            } else if (target == 0 && avail_pos > 0) {
                --avail_pos;
                --s;
            } else {
                return kInfeasible;
            }
            ++m;
            ++k;
        }
        return k;
    };

    const Count c_split = split_cost();
    const Count d_visible = d - need_reduce;
    const Count c_opp =
        d_visible >= 1 ? opposite_cost(b_i ? Bit{0} : Bit{1}) : kInfeasible;

    const bool use_split = c_split <= c_opp;
    const Count coin_cost = use_split ? c_split : c_opp;
    if (coin_cost == kInfeasible) return;
    const std::uint64_t total =
        static_cast<std::uint64_t>(need_reduce) + coin_cost;
    if (total > remaining(ctl)) return;  // unaffordable: spend nothing

    // ---- execute ----
    for (NodeId v : victims_) corrupt_tracked(ctl, v);
    {
        // Replicate the planning greedy exactly, corrupting for real.
        std::int64_t s = plan_sum;
        std::size_t ip = 0, in = 0;
        for (Count k = 0; k < coin_cost; ++k) {
            if (use_split) {
                if (s >= 0) {
                    corrupt_tracked(ctl, plan_pos[ip++]);
                    --s;
                } else {
                    corrupt_tracked(ctl, plan_neg[in++]);
                    ++s;
                }
            } else if (b_i == 0) {  // forcing 1: drain -1 flippers
                corrupt_tracked(ctl, plan_neg[in++]);
                ++s;
            } else {  // forcing 0: drain +1 flippers
                corrupt_tracked(ctl, plan_pos[ip++]);
                --s;
            }
        }
    }
    ++ruined_;

    // ---- deliveries from every Byzantine committee member ----
    byz_members_.clear();
    for (NodeId u = first; u < last; ++u)
        if (!obs.honest(u)) byz_members_.push_back(u);
    if (byz_members_.empty()) return;  // natural ruin, nothing to push

    net::Message m;
    m.kind = net::MsgKind::Vote2;
    m.phase = p;
    if (use_split) {
        // Balanced target assignment over live honest receivers so the next
        // phase's tallies stay far from every threshold. Every member sends
        // the same vector, so it goes out as one shared row set.
        cells_.assign(n, m);
        bool next = false;
        for (NodeId v = 0; v < n; ++v) {
            bool up = false;
            if (obs.live(v)) {
                up = next;
                next = !next;
            }
            cells_[v].coin = up ? CoinSign{1} : CoinSign{-1};
        }
        ctl.deliver_rows_as(byz_members_, cells_);
    } else {
        m.coin = b_i == 0 ? CoinSign{1} : CoinSign{-1};
        for (NodeId u : byz_members_) ctl.broadcast_as(u, m);
    }
}

}  // namespace adba::adv
