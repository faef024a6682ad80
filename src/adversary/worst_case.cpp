#include "adversary/worst_case.hpp"

#include <algorithm>
#include <bit>
#include <limits>

#include "adversary/observer.hpp"
#include "support/contracts.hpp"

namespace adba::adv {

namespace {
constexpr Count kInfeasible = std::numeric_limits<Count>::max();

/// Bit i set iff bits 0..i of x hold an odd number of ones.
std::uint64_t prefix_parity(std::uint64_t x) {
    for (unsigned s = 1; s < net::kern::kWordBits; s <<= 1) x ^= x << s;
    return x;
}

/// Bits of [first, last) that fall in word w.
std::uint64_t range_mask(std::size_t w, NodeId first, NodeId last) {
    const auto v0 = static_cast<NodeId>(w * net::kern::kWordBits);
    const NodeId lo = std::max(first, v0);
    const NodeId hi = std::min<NodeId>(last, v0 + net::kern::kWordBits);
    if (lo >= hi) return 0;
    return (hi - v0 == net::kern::kWordBits ? ~std::uint64_t{0}
                                            : (std::uint64_t{1} << (hi - v0)) - 1) &
           (~std::uint64_t{0} << (lo - v0));
}
}  // namespace

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
    const std::size_t words = net::kern::word_count(n);

    // The Vote1 voters of phase p by value, one bit per live node. In a
    // word-sent round the send words answer it a word at a time: either
    // every present sender voted under (Vote1, p) or none did.
    for (auto& plane : votes_) plane.assign(words, 0);
    if (const net::ObservationPlanes* sw = obs.send_words()) {
        if (sw->word_kind == net::MsgKind::Vote1 && sw->word_phase == p) {
            for (std::size_t w = 0; w < words; ++w) {
                const std::uint64_t voted = sw->present_words[w] & obs.live_word(w);
                votes_[1][w] = voted & sw->val_words[w];
                votes_[0][w] = voted & ~sw->val_words[w];
            }
        }
    } else {
        for (NodeId v = 0; v < n; ++v) {
            if (!obs.live(v)) continue;
            const net::Message* m = obs.broadcast(v);
            if (m && m->kind == net::MsgKind::Vote1 && m->phase == p)
                votes_[m->val & 1][v / net::kern::kWordBits] |= std::uint64_t{1}
                                                                << (v % net::kern::kWordBits);
        }
    }

    for (Bit b : {Bit{0}, Bit{1}}) {
        const std::uint64_t* bloc = votes_[b].data();
        const Count tally = net::kern::popcount_words(bloc, words);
        if (tally < quorum) continue;
        const Count need = tally - quorum + 1;
        if (need > remaining(ctl)) return;  // cannot block; let it lock in
        // Corrupt `need` nodes of the quorum bloc, preferring members of the
        // current committee (their corpses become coin equivocators in
        // round 2 of this phase), then the rest in ascending order. `bloc`
        // is this act's own copy, so corruptions do not disturb the walk.
        const auto [first, last] = cfg_.schedule.range(cfg_.schedule.committee_of_phase(p));
        Count done = 0;
        for (const bool committee : {true, false}) {
            for (std::size_t w = 0; w < words && done < need; ++w) {
                const std::uint64_t in = range_mask(w, first, last);
                std::uint64_t bits = bloc[w] & (committee ? in : ~in);
                for (; bits != 0 && done < need; bits &= bits - 1, ++done)
                    corrupt_tracked(ctl, static_cast<NodeId>(w * net::kern::kWordBits +
                                                             std::countr_zero(bits)));
            }
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
    // Live decided nodes, one bit each; b_i is the value of the highest.
    const std::size_t words = net::kern::word_count(n);
    decided_.resize(words);
    Count d = 0;
    NodeId highest = 0;
    for (std::size_t w = 0; w < words; ++w) {
        const std::uint64_t bits = obs.live_decided_word(w);
        decided_[w] = bits;
        if (bits == 0) continue;
        d += static_cast<Count>(std::popcount(bits));
        highest = static_cast<NodeId>(w * net::kern::kWordBits + 63 - std::countl_zero(bits));
    }
    const Bit b_i = d > 0 ? obs.value(highest) : Bit{0};

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
    if (need_reduce > remaining(ctl)) return;  // unaffordable at any coin cost: spend nothing
    // The first need_reduce decided nodes, committee members last: victims
    // outside the committee leave the flip sum untouched, while committee
    // victims both lose their flip and join the equivocator pool.
    victims_.clear();
    for (const bool committee : {false, true}) {
        for (std::size_t w = 0; w < words && victims_.size() < need_reduce; ++w) {
            const std::uint64_t in = range_mask(w, first, last);
            std::uint64_t bits = decided_[w] & (committee ? in : ~in);
            for (; bits != 0 && victims_.size() < need_reduce; bits &= bits - 1)
                victims_.push_back(
                    static_cast<NodeId>(w * net::kern::kWordBits + std::countr_zero(bits)));
        }
    }

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
        // phase's tallies stay far from every threshold: +1 to every live
        // receiver with an odd number of live receivers before it, -1 to
        // everyone else. Every member sends the same split, so it goes out
        // as one selector plane, built a word at a time from the live
        // planes as they stand after this round's corruptions.
        select_.resize(words);
        std::uint64_t odd_before = 0;  // all ones iff earlier words hold an odd count
        for (std::size_t w = 0; w < words; ++w) {
            const std::uint64_t live = obs.live_word(w);
            const std::uint64_t parity = prefix_parity(live) ^ live ^ odd_before;
            select_[w] = live & parity;
            if (std::popcount(live) & 1) odd_before = ~odd_before;
        }
        net::Message up = m;
        up.coin = CoinSign{1};
        m.coin = CoinSign{-1};
        ctl.deliver_select_as(byz_members_, m, up, select_);
    } else {
        m.coin = b_i == 0 ? CoinSign{1} : CoinSign{-1};
        for (NodeId u : byz_members_) ctl.broadcast_as(u, m);
    }
}

}  // namespace adba::adv
