#include "adversary/tc_prelude.hpp"

#include <map>

#include "adversary/observer.hpp"

namespace adba::adv {

void TcPreludeAdversary::act(net::RoundControl& ctl) {
    const Observer obs(ctl);
    const NodeId n = obs.n();
    const Count quorum = n - budget_;  // n - t: the prelude's threshold

    if (ctl.round() == 0) {
        // Rushing: read the honest word distribution first, then corrupt.
        std::map<net::Word, Count> tally;
        for (NodeId v = 0; v < n; ++v) {
            if (!obs.honest(v)) continue;
            const net::Message* m = obs.broadcast(v);
            if (m && m->kind == net::MsgKind::TCValue) ++tally[m->word];
        }
        plurality_ = 0;
        Count best = 0;
        for (const auto& [word, cnt] : tally) {
            if (cnt > best) {
                best = cnt;
                plurality_ = word;
            }
        }
        // Corrupt nodes OUTSIDE the plurality bloc first: the attack needs
        // the honest plurality count intact to push receivers over the
        // quorum.
        auto holds_plurality = [&](NodeId v) {
            const net::Message* m = obs.broadcast(v);
            return m && m->kind == net::MsgKind::TCValue && m->word == plurality_;
        };
        for (int pass = 0; pass < 2; ++pass) {
            for (NodeId v = 0; v < n && corrupted_.size() < q_; ++v) {
                if (!obs.honest(v) || ctl.budget_left() == 0) continue;
                if ((pass == 0) == holds_plurality(v)) continue;
                ctl.corrupt(v);
                corrupted_.push_back(v);
            }
        }
        const auto q_live = static_cast<Count>(corrupted_.size());
        // Recount the honest plurality bloc post-corruption.
        Count p_live = 0;
        for (NodeId v = 0; v < n; ++v)
            if (obs.honest(v) && holds_plurality(v)) ++p_live;

        // Boundary split: feasible iff the plurality bloc is inside the
        // adversary's reach of the quorum (p < quorum <= p + q). Target
        // EXACTLY quorum-1 honest receivers: they see p+q >= quorum and echo
        // the plurality word; the rest see p < quorum and echo ⊥. That puts
        // the honest echo count at quorum-1 — one short — so round 1's
        // forged echoes decide, per receiver, which side of the binary
        // threshold it lands on.
        split_armed_ = p_live < quorum && p_live + q_live >= quorum && quorum >= 1;
        // One threshold split per corrupted sender: the plurality word below
        // the boundary, one past the (quorum-1)-th honest node, so the
        // honest receivers there are exactly the targets (what the
        // Byzantine ones among them are sent is never read). The rest get a
        // decoy no honest node broadcast, which they hold q < n-t times:
        // never a quorum.
        NodeId boundary = 0;
        if (split_armed_) {
            Count targets = 0;
            for (NodeId v = 0; v < n && targets < quorum - 1; ++v) {
                if (!obs.honest(v)) continue;
                ++targets;
                boundary = v + 1;
            }
        }
        net::Message low;
        low.kind = net::MsgKind::TCValue;
        low.word = plurality_;
        net::Message high = low;
        high.word = 0x5A5A0000u;
        while (tally.contains(high.word)) ++high.word;
        for (const NodeId u : corrupted_) ctl.split_as(u, low, high, boundary);
        return;
    }

    if (ctl.round() == 1) {
        // The quorum-1 honest echoers broadcast the plurality word to all.
        // Forge additional echoes toward every OTHER honest receiver so the
        // binary inputs split roughly in half.
        net::Message m;
        m.kind = net::MsgKind::TCEcho;
        m.word = plurality_;
        if (split_armed_) {
            // Alternate receivers: the even ones pushed (flag 1), by every
            // corrupted node — one selector with every even bit set.
            select_.assign(net::kern::word_count(n), 0x5555555555555555ULL);
            net::Message pushed = m;
            pushed.flag = 1;
            ctl.deliver_select_as(corrupted_, m, pushed, select_);
        } else {
            // Unarmed: senders alternate pushing, each to all receivers.
            bool push = true;
            for (NodeId b : corrupted_) {
                m.flag = push ? 1 : 0;
                ctl.broadcast_as(b, m);
                push = !push;
            }
        }
        return;
    }
    // Prelude over; a composed second-stage adversary takes it from here.
}

}  // namespace adba::adv
