// Delivery-plane tests: the flat RoundBuffer/RoundTally path must be
// BIT-IDENTICAL to the reference virtual-dispatch path (per-sender loops
// over a DeliverySource) for every compatible (protocol, adversary) registry
// pair, at any thread count; plus pattern-row mechanics, shared selector
// rows (deliver_select and deliver_select_as) against their per-cell
// expansion, the Turpin–Coan prelude's pinned outcomes, word sends
// (RoundBuffer::set_word) against the pack pass, uniform-count receive
// against the per-node path, and the halted-receiver message-accounting
// contract.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "adversary/coin_ruin.hpp"
#include "adversary/observer.hpp"
#include "adversary/worst_case.hpp"
#include "core/common_coin.hpp"
#include "core/skeleton_batch.hpp"
#include "core/multivalued.hpp"
#include "core/params.hpp"
#include "net/engine.hpp"
#include "net/fused_plane.hpp"
#include "net/sparse_plane.hpp"
#include "net/round_buffer.hpp"
#include "rand/rng.hpp"
#include "rand/seed_tree.hpp"
#include "sim/executor.hpp"
#include "sim/inputs.hpp"
#include "sim/multivalued_runner.hpp"
#include "sim/registry.hpp"
#include "sim/runner.hpp"
#include "support/contracts.hpp"

namespace adba {
namespace {

using net::Message;
using net::MsgKind;

// ---------------------------------------------------------------------------
// Old-vs-new equivalence over the full registry cross product.

void expect_samples_eq(const Samples& a, const Samples& b, const char* what) {
    ASSERT_EQ(a.count(), b.count()) << what;
    const auto& xs = a.values();
    const auto& ys = b.values();
    for (std::size_t i = 0; i < xs.size(); ++i)
        ASSERT_EQ(xs[i], ys[i]) << what << " sample " << i;
}

void expect_aggregate_eq(const sim::Aggregate& a, const sim::Aggregate& b) {
    EXPECT_EQ(a.trials, b.trials);
    EXPECT_EQ(a.agreement_failures, b.agreement_failures);
    EXPECT_EQ(a.validity_failures, b.validity_failures);
    EXPECT_EQ(a.not_halted, b.not_halted);
    expect_samples_eq(a.rounds, b.rounds, "rounds");
    expect_samples_eq(a.messages, b.messages, "messages");
    expect_samples_eq(a.bits, b.bits, "bits");
    expect_samples_eq(a.corruptions, b.corruptions, "corruptions");
}

/// Largest t the protocol's resilience predicate admits at n (0 if none).
Count max_t(const sim::ProtocolEntry& p, NodeId n) {
    Count t = (n - 1) / 3;
    while (t > 0 && !p.supports(n, t)) --t;
    return t;
}

TEST(DeliveryPlaneEquivalence, AllRegistryPairsFlatMatchesReference) {
    const NodeId n = 25;
    // ADBA_FORCE_SPARSE=1 (the sanitizer CI pass) reruns the cross product
    // with the sparse plane in dense oracle mode: the reference comparison
    // below then pins sparse == reference through an entirely different
    // receive path, under ASan/UBSan.
    const bool force_sparse = std::getenv("ADBA_FORCE_SPARSE") != nullptr;
    Count covered = 0;
    for (const sim::ProtocolEntry* p : sim::ProtocolRegistry::instance().list()) {
        for (const sim::AdversaryEntry* a : sim::AdversaryRegistry::instance().list()) {
            sim::Scenario s;
            s.protocol = p->kind;
            s.adversary = a->kind;
            s.n = n;
            s.t = max_t(*p, n);
            s.inputs = sim::InputPattern::Split;
            s.local_coin_phases = 12;  // keep the private-coin runs bounded
            if (force_sparse) {
                s.sparse_plane = true;
                s.sample_degree = n;  // dense: bit-identical to flat
            }
            if (!sim::compatible(s)) continue;
            ++covered;
            SCOPED_TRACE(p->name + " vs " + a->name);

            const sim::ExecutorConfig serial{1, 0};
            const sim::Aggregate flat = sim::run_trials(s, 0xD1CE, 6, serial);

            sim::Scenario ref = s;
            ref.sparse_plane = false;  // sparse has no reference form
            ref.sample_degree = 0;
            ref.reference_delivery = true;
            const sim::Aggregate oracle = sim::run_trials(ref, 0xD1CE, 6, serial);
            expect_aggregate_eq(flat, oracle);

            // Thread-count invariance of the flat path (arena re-arming must
            // be exact across any chunking).
            const sim::Aggregate par = sim::run_trials(s, 0xD1CE, 6, {8, 2});
            expect_aggregate_eq(flat, par);
        }
    }
    // 9 protocols x 9 adversaries minus the schedule/targeting constraints
    // (8 sparse-capable protocols when the force flag drops sampling-majority).
    EXPECT_GE(covered, force_sparse ? 45u : 50u) << "registry coverage unexpectedly low";
}

TEST(DeliveryPlaneEquivalence, ArenaReuseMatchesFreshTrials) {
    sim::Scenario s;
    s.protocol = sim::ProtocolKind::Ours;
    s.adversary = sim::AdversaryKind::WorstCase;
    s.n = 28;
    s.t = 9;
    s.inputs = sim::InputPattern::Random;

    const Count trials = 10;
    const sim::Aggregate pooled = sim::run_trials(s, 0xABBA, trials, {1, 0});
    ASSERT_EQ(pooled.rounds.count(), trials);
    for (Count i = 0; i < trials; ++i) {
        // run_trial builds everything from scratch; the pooled arena must
        // reproduce it bit for bit at every index.
        const sim::TrialResult fresh =
            sim::run_trial(s, mix64(0xABBA + 0x100000001b3ULL * i));
        EXPECT_EQ(pooled.rounds.values()[i], static_cast<double>(fresh.rounds)) << i;
        EXPECT_EQ(pooled.messages.values()[i],
                  static_cast<double>(fresh.metrics.honest_messages))
            << i;
        EXPECT_EQ(pooled.corruptions.values()[i],
                  static_cast<double>(fresh.metrics.corruptions))
            << i;
    }
}

TEST(DeliveryPlaneEquivalence, ScenarioReferenceKeyRoundTrips) {
    sim::Scenario s;
    s.n = 16;
    s.t = 5;
    s.reference_delivery = true;
    const sim::Scenario parsed = sim::Scenario::parse(s.describe());
    EXPECT_EQ(parsed, s);
    EXPECT_FALSE(sim::Scenario::parse("n=16 t=5").reference_delivery);
}

// ---------------------------------------------------------------------------
// Tally queries: flat answers vs the per-sender executable spec, under
// randomized buffer contents (dense rows, pattern rows, garbage kinds).

TEST(DeliveryPlaneTally, RandomizedBufferMatchesAdapterSpec) {
    Xoshiro256 rng(2024);
    for (int iter = 0; iter < 50; ++iter) {
        const NodeId n = 6 + static_cast<NodeId>(rng.below(20));
        net::RoundBuffer buf;
        buf.reset(n);
        buf.begin_round();
        for (NodeId v = 0; v < n; ++v) {
            if (rng.bernoulli(0.2)) {  // Byzantine sender
                buf.corrupt(v);
                const double shape = rng.uniform01();
                Message m;
                m.kind = static_cast<MsgKind>(rng.below(8));
                m.phase = static_cast<Phase>(rng.below(3));
                m.val = static_cast<Bit>(rng.below(2));
                m.flag = static_cast<std::uint8_t>(rng.below(2));
                m.coin = static_cast<CoinSign>(static_cast<std::int64_t>(rng.below(5)) - 2);
                m.word = static_cast<net::Word>(rng.below(4));
                if (shape < 0.4) {  // pattern row
                    Message m2 = m;
                    m2.val = static_cast<Bit>(rng.below(2));
                    m2.coin = static_cast<CoinSign>(rng.below(3)) - 1;
                    m2.word = static_cast<net::Word>(rng.below(4));
                    buf.apply_pattern(v, &m, rng.bernoulli(0.7) ? &m2 : nullptr,
                                      static_cast<NodeId>(rng.below(n + 1)));
                } else if (shape < 0.8) {  // dense row
                    for (NodeId to = 0; to < n; ++to) {
                        if (!rng.bernoulli(0.6)) continue;
                        Message cell = m;
                        cell.val = static_cast<Bit>(rng.below(2));
                        cell.phase = static_cast<Phase>(rng.below(3));
                        buf.deliver(v, to, cell);
                    }
                }  // else: silent Byzantine
            } else if (rng.bernoulli(0.8)) {  // honest broadcast
                Message m;
                m.kind = rng.bernoulli(0.5) ? MsgKind::Vote2 : MsgKind::TCEcho;
                // Mixed phases per kind: exercises the multi-bucket merge in
                // the word queries (never produced by lockstep protocols).
                m.phase = static_cast<Phase>(rng.below(2));
                m.val = static_cast<Bit>(rng.below(2));
                m.flag = static_cast<std::uint8_t>(rng.below(2));
                m.coin = static_cast<CoinSign>(static_cast<std::int64_t>(rng.below(3)) - 1);
                m.word = static_cast<net::Word>(rng.below(4));
                buf.set_broadcast(v, m);
            }
        }

        net::RoundTally tally;
        tally.rebuild(buf);
        const net::RoundBufferSource src(buf);
        for (NodeId recv = 0; recv < n; ++recv) {
            const net::ReceiveView flat(buf, tally, recv);
            const net::ReceiveView spec(src, recv);
            for (NodeId u = 0; u < n; ++u) {
                const Message* a = flat.from(u);
                const Message* b = spec.from(u);
                ASSERT_EQ(a == nullptr, b == nullptr);
                if (a) ASSERT_EQ(*a, *b);
            }
            // Bulk iteration must visit exactly the non-silent senders, in
            // order, on both backends.
            std::vector<std::pair<NodeId, Message>> bulk_flat, bulk_spec;
            flat.for_each_delivery(
                [&](NodeId u, const Message& m) { bulk_flat.emplace_back(u, m); });
            spec.for_each_delivery(
                [&](NodeId u, const Message& m) { bulk_spec.emplace_back(u, m); });
            ASSERT_EQ(bulk_flat, bulk_spec);
            for (const MsgKind kind : {MsgKind::Vote1, MsgKind::Vote2, MsgKind::TCEcho}) {
                for (const Phase ph : {Phase{0}, Phase{1}}) {
                    ASSERT_EQ(flat.val_counts(kind, ph, false),
                              spec.val_counts(kind, ph, false));
                    ASSERT_EQ(flat.val_counts(kind, ph, true),
                              spec.val_counts(kind, ph, true));
                    const NodeId first = static_cast<NodeId>(rng.below(n));
                    const NodeId last =
                        first + static_cast<NodeId>(rng.below(n - first + 1));
                    ASSERT_EQ(flat.coin_sum(kind, ph, true, first, last),
                              spec.coin_sum(kind, ph, true, first, last));
                    ASSERT_EQ(flat.coin_sum(kind, ph, false, 0, n),
                              spec.coin_sum(kind, ph, false, 0, n));
                }
                ASSERT_EQ(flat.plurality_word(kind, false),
                          spec.plurality_word(kind, false));
                ASSERT_EQ(flat.plurality_word(kind, true),
                          spec.plurality_word(kind, true));
                // Quorum above n/2: two quorum words would need > n messages,
                // so the uniqueness contract cannot fire on random content.
                const Count q = n / 2 + 2;
                ASSERT_EQ(flat.quorum_word(kind, true, q), spec.quorum_word(kind, true, q));
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Pattern-row mechanics through the engine.

class InboxNode final : public net::HonestNode {
public:
    InboxNode(NodeId self, Round live) : self_(self), live_(live) {}

    std::optional<Message> round_send(Round r) override {
        Message m;
        m.kind = MsgKind::Vote1;
        m.val = static_cast<Bit>(self_ % 2);
        m.phase = r;
        return m;
    }
    void round_receive(Round r, const net::ReceiveView& view) override {
        inbox_.assign(view.n(), std::nullopt);
        for (NodeId u = 0; u < view.n(); ++u)
            if (const Message* m = view.from(u)) inbox_[u] = *m;
        if (r + 1 >= live_) halted_ = true;
    }
    bool halted() const override { return halted_; }
    Bit current_value() const override { return static_cast<Bit>(self_ % 2); }

    std::vector<std::optional<Message>> inbox_;

private:
    NodeId self_;
    Round live_;
    bool halted_ = false;
};

class ScriptAdversary final : public net::Adversary {
public:
    using Fn = std::function<void(net::RoundControl&)>;
    explicit ScriptAdversary(Fn fn) : fn_(std::move(fn)) {}
    void act(net::RoundControl& ctl) override { fn_(ctl); }

private:
    Fn fn_;
};

std::vector<std::unique_ptr<net::HonestNode>> inbox_nodes(NodeId n, Round live,
                                                          std::vector<InboxNode*>* raw) {
    std::vector<std::unique_ptr<net::HonestNode>> nodes;
    for (NodeId v = 0; v < n; ++v) {
        auto p = std::make_unique<InboxNode>(v, live);
        if (raw) raw->push_back(p.get());
        nodes.push_back(std::move(p));
    }
    return nodes;
}

TEST(DeliveryPlanePatterns, SplitAsDeliversThresholdEquivocation) {
    std::vector<InboxNode*> raw;
    ScriptAdversary adv([](net::RoundControl& ctl) {
        if (ctl.round() != 0) return;
        ctl.corrupt(3);
        Message low;
        low.kind = MsgKind::Vote2;
        low.val = 0;
        Message high = low;
        high.val = 1;
        ctl.split_as(3, low, high, 2);
    });
    net::Engine eng({5, 1, 1, false}, inbox_nodes(5, 1, &raw), adv);
    const net::RunResult res = eng.run();
    EXPECT_EQ(res.metrics.byzantine_messages, 5u);
    for (NodeId v = 0; v < 5; ++v) {
        if (v == 3) continue;  // the corrupted node takes no deliveries
        ASSERT_TRUE(raw[v]->inbox_[3].has_value());
        EXPECT_EQ(raw[v]->inbox_[3]->val, v < 2 ? 0 : 1) << "receiver " << v;
    }
}

TEST(DeliveryPlanePatterns, SplitWithSilentSideAndDenseMerge) {
    std::vector<InboxNode*> raw;
    ScriptAdversary adv([](net::RoundControl& ctl) {
        if (ctl.round() != 0) return;
        ctl.corrupt(0);
        Message m;
        m.kind = MsgKind::Vote1;
        m.val = 1;
        // Prefix-only delivery (crash shape): receivers 0..2 get m.
        ctl.split_as(0, m, std::nullopt, 3);
        // Dense overwrite on top of a pattern row must merge, not reset.
        Message late;
        late.kind = MsgKind::Vote2;
        late.val = 0;
        ctl.deliver_as(0, 4, late);
    });
    net::Engine eng({6, 1, 1, false}, inbox_nodes(6, 1, &raw), adv);
    const net::RunResult res = eng.run();
    EXPECT_EQ(res.metrics.byzantine_messages, 4u);  // 3 prefix + 1 late
    EXPECT_TRUE(raw[2]->inbox_[0].has_value());
    EXPECT_FALSE(raw[3]->inbox_[0].has_value());
    ASSERT_TRUE(raw[4]->inbox_[0].has_value());
    EXPECT_EQ(raw[4]->inbox_[0]->kind, MsgKind::Vote2);
}

TEST(DeliveryPlanePatterns, BroadcastAsCountsOnlyFreshSlots) {
    ScriptAdversary adv([](net::RoundControl& ctl) {
        if (ctl.round() != 0) return;
        ctl.corrupt(0);
        Message m;
        m.kind = MsgKind::Vote1;
        ctl.broadcast_as(0, m);
        ctl.broadcast_as(0, m);  // second blanket covers nothing new
    });
    net::Engine eng({4, 1, 1, false}, inbox_nodes(4, 1, nullptr), adv);
    const net::RunResult res = eng.run();
    EXPECT_EQ(res.metrics.byzantine_messages, 4u);
}

// ---------------------------------------------------------------------------
// Byzantine rows of every form — dense, pattern and shared selector rows —
// against the same deliveries expanded to per-cell deliver() on a second
// buffer.

Message random_message(Xoshiro256& rng) {
    Message m;
    const MsgKind kinds[] = {MsgKind::Vote1, MsgKind::Vote2, MsgKind::TCEcho};
    m.kind = kinds[rng.below(3)];
    m.phase = static_cast<Phase>(rng.below(2));
    m.val = static_cast<Bit>(rng.below(2));
    m.flag = static_cast<std::uint8_t>(rng.below(2));
    m.coin = static_cast<CoinSign>(static_cast<std::int64_t>(rng.below(5)) - 2);
    m.word = static_cast<net::Word>(rng.below(4));
    return m;
}

/// Delta planes may be null (no rows); null reads as all zeros.
template <typename Cell>
Cell plane_at(const Cell* plane, NodeId v) {
    return plane == nullptr ? Cell{} : plane[v];
}

void expect_tallies_eq(const net::RoundBuffer& shared, const net::RoundBuffer& expanded,
                       bool packed, Xoshiro256& rng) {
    const NodeId n = shared.n();
    net::RoundTally ts, te;
    ts.rebuild(shared, packed, nullptr);
    te.rebuild(expanded, packed, nullptr);
    for (const MsgKind kind : {MsgKind::Vote1, MsgKind::Vote2, MsgKind::TCEcho}) {
        for (const Phase ph : {Phase{0}, Phase{1}}) {
            for (const bool flag : {false, true}) {
                const auto* a = ts.val_delta_plane(kind, ph, flag);
                const auto* b = te.val_delta_plane(kind, ph, flag);
                for (NodeId v = 0; v < n; ++v)
                    ASSERT_EQ(plane_at(a, v), plane_at(b, v)) << "val receiver " << v;
            }
            for (int range = 0; range < 3; ++range) {
                const NodeId first = range == 0 ? 0 : static_cast<NodeId>(rng.below(n));
                const NodeId last =
                    range == 0 ? n : first + static_cast<NodeId>(rng.below(n - first + 1));
                const bool check_phase = range != 1;
                const auto* a = ts.coin_delta_plane(kind, ph, check_phase, first, last);
                const auto* b = te.coin_delta_plane(kind, ph, check_phase, first, last);
                for (NodeId v = 0; v < n; ++v)
                    ASSERT_EQ(plane_at(a, v), plane_at(b, v))
                        << "coin receiver " << v << " senders [" << first << ", " << last
                        << ")";
                // The two-valued form, where it answers, is the same plane.
                const auto two = ts.coin_delta_select(kind, ph, check_phase, first, last);
                if (!two) continue;
                for (NodeId v = 0; v < n; ++v) {
                    const auto bit = two->select == nullptr ? 0 : (two->select[v / 64] >> (v % 64)) & 1;
                    ASSERT_EQ(two->delta[bit], plane_at(b, v))
                        << "two-valued coin receiver " << v << " senders [" << first << ", "
                        << last << ")";
                }
            }
        }
        for (NodeId v = 0; v < n; ++v) {
            const net::WordHistogram a = ts.byz_word_deltas(kind, false, v);
            ASSERT_EQ(a, te.byz_word_deltas(kind, false, v)) << "words receiver " << v;
        }
    }
}

TEST(DeliveryPlaneShared, RandomOpsMatchPerCellExpansion) {
    Xoshiro256 rng(0x5A4ED);
    for (int iter = 0; iter < 120; ++iter) {
        // Mostly small n, sometimes past one 64-bit word for the packed mode.
        const NodeId n = 5 + static_cast<NodeId>(rng.below(iter % 4 == 0 ? 140 : 30));
        net::RoundBuffer shared, expanded;
        shared.reset(n);
        expanded.reset(n);
        std::vector<NodeId> byz;
        // Two rounds per buffer: slot bookkeeping must recycle cleanly.
        for (int round = 0; round < 2; ++round) {
            shared.begin_round();
            expanded.begin_round();
            for (NodeId v = 0; v < n; ++v) {
                if (!shared.is_honest(v)) continue;
                if (rng.bernoulli(0.3)) {
                    shared.corrupt(v);
                    expanded.corrupt(v);
                    byz.push_back(v);
                } else if (rng.bernoulli(0.8)) {
                    const Message m = random_message(rng);
                    shared.set_broadcast(v, m);
                    expanded.set_broadcast(v, m);
                }
            }
            if (byz.empty()) continue;
            const auto pick = [&](const std::vector<NodeId>& from) {
                return from[rng.below(from.size())];
            };
            std::vector<NodeId> last_select;  // senders of the latest selector call
            std::vector<std::uint64_t> select(net::kern::word_count(n));
            const int ops = 2 + static_cast<int>(rng.below(10));
            for (int op = 0; op < ops; ++op) {
                const double kind = rng.uniform01();
                // Writes aim at a sender on a shared selector half the time.
                const NodeId u = !last_select.empty() && rng.bernoulli(0.5)
                                     ? pick(last_select)
                                     : pick(byz);
                if (kind < 0.35) {
                    const NodeId to = static_cast<NodeId>(rng.below(n));
                    const Message m = random_message(rng);
                    ASSERT_EQ(shared.deliver(u, to, m), expanded.deliver(u, to, m));
                } else if (kind < 0.65) {
                    const Message low = random_message(rng);
                    const Message high = random_message(rng);
                    const Message* lo = rng.bernoulli(0.8) ? &low : nullptr;
                    const Message* hi = rng.bernoulli(0.8) ? &high : nullptr;
                    const NodeId boundary = static_cast<NodeId>(rng.below(n + 1));
                    Count fresh = 0;
                    for (NodeId to = 0; to < n; ++to)
                        if (const Message* m = to < boundary ? lo : hi)
                            fresh += expanded.deliver(u, to, *m) ? 1 : 0;
                    ASSERT_EQ(shared.apply_pattern(u, lo, hi, boundary), fresh);
                } else {
                    // Selector rows: random senders with repeats (some
                    // already hold rows), and a selector that is all zero,
                    // all one, or random — with random bits past n, which
                    // must be ignored.
                    last_select.clear();
                    const std::size_t k = 1 + rng.below(byz.size() + 1);
                    for (std::size_t i = 0; i < k; ++i) last_select.push_back(pick(byz));
                    const std::uint64_t shape = rng.below(3);
                    for (auto& word : select)
                        word = shape == 0 ? 0 : shape == 1 ? ~std::uint64_t{0} : rng();
                    const Message zero = random_message(rng);
                    const Message one = random_message(rng);
                    std::uint64_t fresh = 0;
                    for (const NodeId s : last_select)
                        for (NodeId to = 0; to < n; ++to)
                            fresh += expanded.deliver(s, to,
                                                      (select[to / 64] >> (to % 64)) & 1 ? one
                                                                                          : zero)
                                         ? 1
                                         : 0;
                    ASSERT_EQ(shared.deliver_select(last_select, zero, one, select), fresh);
                }
            }
            ASSERT_EQ(shared.rows_in_use(), expanded.rows_in_use());
            for (NodeId recv = 0; recv < n; ++recv) {
                for (NodeId u = 0; u < n; ++u) {
                    const Message* a = shared.from(recv, u);
                    const Message* b = expanded.from(recv, u);
                    ASSERT_EQ(a == nullptr, b == nullptr) << recv << " <- " << u;
                    if (a) ASSERT_EQ(*a, *b) << recv << " <- " << u;
                }
            }
            expect_tallies_eq(shared, expanded, false, rng);
            expect_tallies_eq(shared, expanded, true, rng);
        }
    }
}

TEST(DeliveryPlaneShared, SharedSelectorIsCopiedBeforeAWrite) {
    const NodeId n = 8;
    net::RoundBuffer buf;
    buf.reset(n);
    buf.begin_round();
    for (const NodeId v : {1u, 2u, 3u}) buf.corrupt(v);
    // Even receivers get coin +1, odd ones coin -1.
    Message zero, one;
    zero.kind = one.kind = MsgKind::Vote2;
    zero.coin = CoinSign{-1};
    one.coin = CoinSign{1};
    const std::vector<std::uint64_t> select = {0x55};
    const std::vector<NodeId> senders = {1, 2, 3, 2};  // 2 listed twice
    EXPECT_EQ(buf.deliver_select(senders, zero, one, select), 3u * n);
    EXPECT_EQ(buf.selects_in_use(), 1u);
    EXPECT_EQ(buf.slots_in_use(), 0u);

    Message late;
    late.kind = MsgKind::Vote1;
    EXPECT_FALSE(buf.deliver(2, 5, late));  // overwrite: not a fresh cell
    EXPECT_EQ(buf.slots_in_use(), 1u);      // sender 2 got its own copy
    EXPECT_EQ(*buf.from(5, 2), late);
    EXPECT_EQ(*buf.from(4, 2), one);
    EXPECT_EQ(*buf.from(5, 1), zero);
    EXPECT_EQ(*buf.from(5, 3), zero);

    // Coin deltas weight the selector by its in-range rows: senders 1 and
    // 3 here, sender 2's private copy once.
    net::RoundTally tally;
    tally.rebuild(buf);
    const std::int64_t* all = tally.coin_delta_plane(MsgKind::Vote2, 0, true, 0, n);
    ASSERT_NE(all, nullptr);
    EXPECT_EQ(all[4], 3);
    EXPECT_EQ(all[5], -2);  // sender 2 sends Vote1 to receiver 5
    const std::int64_t* just3 = tally.coin_delta_plane(MsgKind::Vote2, 0, true, 3, 4);
    EXPECT_EQ(just3[4], 1);
    EXPECT_EQ(just3[5], -1);
    // The two-valued form answers for the selector alone, and declines
    // once sender 2's dense copy is in range.
    const auto two = tally.coin_delta_select(MsgKind::Vote2, 0, true, 3, 4);
    ASSERT_TRUE(two.has_value());
    EXPECT_EQ(two->delta[0], -1);
    EXPECT_EQ(two->delta[1], 1);
    EXPECT_FALSE(tally.coin_delta_select(MsgKind::Vote2, 0, true, 0, n).has_value());
    // No Byzantine coin reaches anyone: no plane is built (nullptr reads as
    // zero deltas). Honest senders only, and a kind whose cells carry no
    // coin sign.
    EXPECT_EQ(tally.coin_delta_plane(MsgKind::Vote2, 0, true, 4, n), nullptr);
    EXPECT_EQ(tally.coin_delta_plane(MsgKind::Vote1, 0, true, 0, n), nullptr);
}

/// What a PerPairControl saw: per-pair deliveries and per-node observation
/// calls.
struct PerPairCounts {
    std::uint64_t deliver_as_calls = 0;
    std::uint64_t observations = 0;
};

/// Forwards every RoundControl call except deliver_select_as and planes().
/// So the selector delivery runs the base class's per-pair deliver_as
/// loop, and planes() returns the empty view (no byte planes, no send
/// words), which leaves the adversary on the per-node observation calls.
/// Both are the semantic spec.
class PerPairControl final : public net::RoundControl {
public:
    PerPairControl(net::RoundControl& inner, PerPairCounts& counts)
        : in_(inner), counts_(counts) {}

    Round round() const override { return in_.round(); }
    NodeId n() const override { return in_.n(); }
    Count budget_left() const override { return in_.budget_left(); }
    bool is_honest(NodeId v) const override {
        ++counts_.observations;
        return in_.is_honest(v);
    }
    bool is_halted(NodeId v) const override {
        ++counts_.observations;
        return in_.is_halted(v);
    }
    const Message* intended_broadcast(NodeId v) const override {
        ++counts_.observations;
        return in_.intended_broadcast(v);
    }
    Bit current_value(NodeId v) const override {
        ++counts_.observations;
        return in_.current_value(v);
    }
    bool current_decided(NodeId v) const override {
        ++counts_.observations;
        return in_.current_decided(v);
    }
    std::optional<Message> corrupt(NodeId v) override { return in_.corrupt(v); }
    void deliver_as(NodeId byz_from, NodeId to, const Message& m) override {
        ++counts_.deliver_as_calls;
        in_.deliver_as(byz_from, to, m);
    }
    void split_as(NodeId byz_from, const std::optional<Message>& low,
                  const std::optional<Message>& high, NodeId boundary) override {
        in_.split_as(byz_from, low, high, boundary);
    }

private:
    net::RoundControl& in_;
    PerPairCounts& counts_;
};

class PerPairAdversary final : public net::Adversary {
public:
    explicit PerPairAdversary(net::Adversary& inner) : in_(inner) {}
    void on_start(NodeId n, Count budget) override { in_.on_start(n, budget); }
    void act(net::RoundControl& ctl) override {
        PerPairControl per_pair(ctl, counts);
        in_.act(per_pair);
    }
    PerPairCounts counts;

private:
    net::Adversary& in_;
};

void expect_runs_eq(const net::RunResult& a, const net::RunResult& b) {
    EXPECT_EQ(a.outputs, b.outputs);
    EXPECT_EQ(a.honest, b.honest);
    EXPECT_EQ(a.halted, b.halted);
    EXPECT_EQ(a.rounds, b.rounds);
    EXPECT_EQ(a.outcome, b.outcome);
    EXPECT_EQ(a.metrics.honest_messages, b.metrics.honest_messages);
    EXPECT_EQ(a.metrics.honest_bits, b.metrics.honest_bits);
    EXPECT_EQ(a.metrics.byzantine_messages, b.metrics.byzantine_messages);
    EXPECT_EQ(a.metrics.rounds, b.metrics.rounds);
    EXPECT_EQ(a.metrics.corruptions, b.metrics.corruptions);
}

/// A trial's result plus the per-pair deliver_as calls it took (0 when
/// the adversary drove the plane's own control directly).
struct PinnedTrial {
    net::RunResult run;
    std::uint64_t deliver_as_calls = 0;
    std::vector<std::unique_ptr<net::HonestNode>> nodes;  ///< per-node form only
};

/// Runs one engine trial on either a batch or a node set (pass the other
/// empty); `per_pair` routes the adversary through PerPairControl.
PinnedTrial run_pinned(net::EngineConfig cfg, std::unique_ptr<net::BatchProtocol> batch,
                       std::vector<std::unique_ptr<net::HonestNode>> nodes,
                       net::Adversary& adversary, bool per_pair) {
    PerPairAdversary wrapped(adversary);
    net::Adversary& acting = per_pair ? static_cast<net::Adversary&>(wrapped) : adversary;
    const bool batched = batch != nullptr;
    std::optional<net::Engine> eng;
    if (batched)
        eng.emplace(cfg, std::move(batch), acting);
    else
        eng.emplace(cfg, std::move(nodes), acting);
    PinnedTrial out;
    out.run = eng->run();
    out.deliver_as_calls = wrapped.counts.deliver_as_calls;
    if (!batched) out.nodes = eng->take_nodes();
    return out;
}

/// A registry trial assembled the way sim::run_trial assembles it (batch
/// or node form, engine config from the scenario's plane keys), so a test
/// can decorate the adversary or the batch before running it.
struct TrialParts {
    net::EngineConfig cfg;
    sim::ProtocolBundle bundle;
    std::unique_ptr<net::Adversary> adversary;
};

TrialParts trial_parts(const sim::ScenarioPlan& plan, std::uint64_t seed) {
    const sim::Scenario& s = plan.scenario;
    const SeedTree seeds(seed);
    const std::vector<Bit> inputs = sim::make_inputs(s.inputs, s.n, seeds);
    TrialParts out;
    const bool batched = s.use_batch && plan.protocol->make_batch != nullptr;
    out.bundle = batched ? plan.protocol->make_batch(s, inputs, seeds)
                         : plan.protocol->make_nodes(s, inputs, seeds);
    out.adversary = plan.adversary->make_adversary(s, out.bundle, seeds);
    out.cfg.n = s.n;
    out.cfg.budget = s.t;
    out.cfg.max_rounds =
        s.max_rounds_override ? s.max_rounds_override : out.bundle.default_max_rounds;
    out.cfg.reference_delivery = s.reference_delivery;
    out.cfg.simd_tally = s.use_simd;
    if (s.sparse_plane) {
        out.cfg.plane = net::PlaneMode::Sparse;
        out.cfg.sample_degree = s.sample_degree;
        out.cfg.sparse_seed = seeds.seed(StreamPurpose::SparseTopology, s.sparse_seed);
        out.cfg.sparse_stream = s.sparse_stream;
    }
    return out;
}

/// One binary trial built from the registry factories the way the runner
/// builds it.
PinnedTrial run_binary_trial(const sim::ScenarioPlan& plan, std::uint64_t seed,
                             bool per_pair) {
    TrialParts parts = trial_parts(plan, seed);
    return run_pinned(parts.cfg, std::move(parts.bundle.batch),
                      std::move(parts.bundle.nodes), *parts.adversary, per_pair);
}

TEST(DeliveryPlaneShared, WorstCaseRowsMatchPerPairDefault) {
    for (const auto protocol : {sim::ProtocolKind::Ours, sim::ProtocolKind::ChorCoanRushing}) {
        sim::Scenario s;
        s.protocol = protocol;
        s.adversary = sim::AdversaryKind::WorstCase;
        s.n = 4096;
        s.t = 64;
        s.inputs = sim::InputPattern::Split;
        const sim::ScenarioPlan plan = sim::validate(s);
        std::uint64_t per_pair_calls = 0;
        for (std::uint64_t seed = 1; seed <= 2; ++seed) {
            SCOPED_TRACE(s.describe() + " seed " + std::to_string(seed));
            const PinnedTrial direct = run_binary_trial(plan, seed, false);
            const PinnedTrial spec = run_binary_trial(plan, seed, true);
            expect_runs_eq(direct.run, spec.run);
            per_pair_calls += spec.deliver_as_calls;

            // The hand-built trial is the runner's trial.
            const sim::TrialResult runner = sim::run_trial(plan, seed);
            EXPECT_EQ(runner.rounds, direct.run.rounds);
            EXPECT_EQ(runner.metrics.byzantine_messages,
                      direct.run.metrics.byzantine_messages);
            EXPECT_EQ(runner.metrics.corruptions, direct.run.metrics.corruptions);
        }
        // The SPLIT ruin ran: its selector is the strategy's only per-cell
        // delivery.
        EXPECT_GT(per_pair_calls, 0u) << s.describe();
    }
}

/// The multi-valued scenario the prelude tests share: prelude + worst case
/// at n=64, t=21, q=12 (6 prelude corruptions, 6 for the inner worst case).
sim::MvScenario prelude_scenario() {
    sim::MvScenario s;
    s.n = 64;
    s.t = 21;
    s.q = 12;
    s.adversary = sim::MvAdversaryKind::PreludePlusWorstCase;
    return s;
}

/// The near-quorum word inputs (60% share one word, the rest distinct),
/// which arm the prelude's boundary split: at n=64 that is 39 honest
/// holders of the plurality word, 39 < n-t = 43 <= 39 + 6.
std::vector<net::Word> armed_prelude_inputs(NodeId n) {
    const auto share = static_cast<NodeId>((6 * static_cast<std::uint64_t>(n) + 9) / 10);
    std::vector<net::Word> inputs(n);
    for (NodeId v = 0; v < n; ++v) inputs[v] = v < share ? 0xAAAA : 0x2000u + v;
    return inputs;
}

/// Two blocks of n/2, which leave the boundary split unarmed.
std::vector<net::Word> two_block_inputs(NodeId n) {
    std::vector<net::Word> inputs(n);
    for (NodeId v = 0; v < n; ++v) inputs[v] = v < n / 2 ? 0xAAAA : 0xBBBB;
    return inputs;
}

/// One multi-valued trial on the per-node Turpin–Coan stack, built the way
/// the mv runner builds it; `per_pair` routes the adversary through
/// PerPairControl.
PinnedTrial run_prelude_trial(const sim::MvScenario& s, const std::vector<net::Word>& inputs,
                              std::uint64_t seed, bool per_pair) {
    const sim::MvScenarioPlan plan = sim::validate(s);
    const SeedTree seeds(seed);
    const auto adversary = plan.adversary->make_adversary(s, plan.params, seeds);
    net::EngineConfig cfg;
    cfg.n = s.n;
    cfg.budget = s.t;
    cfg.max_rounds = plan.cap;
    net::NodePool nodes;
    core::arm_turpin_coan_nodes(plan.params, inputs, seeds, nodes);
    return run_pinned(cfg, nullptr, std::move(nodes), *adversary, per_pair);
}

net::Word output_word(const PinnedTrial& trial, NodeId v) {
    return static_cast<const core::TurpinCoanNode&>(*trial.nodes[v]).output_word();
}

TEST(DeliveryPlaneShared, TcPreludeRowsMatchPerPairDefault) {
    const sim::MvScenario s = prelude_scenario();
    for (const bool armed : {true, false}) {
        const std::vector<net::Word> inputs =
            armed ? armed_prelude_inputs(s.n) : two_block_inputs(s.n);
        for (std::uint64_t seed = 1; seed <= 3; ++seed) {
            SCOPED_TRACE(std::string(armed ? "armed" : "unarmed") + " seed " +
                         std::to_string(seed));
            const PinnedTrial direct = run_prelude_trial(s, inputs, seed, false);
            const PinnedTrial spec = run_prelude_trial(s, inputs, seed, true);
            expect_runs_eq(direct.run, spec.run);
            for (NodeId v = 0; v < s.n; ++v) {
                if (!direct.run.honest[v]) continue;
                EXPECT_EQ(output_word(direct, v), output_word(spec, v)) << "node " << v;
            }
            // Round 0 is pattern rows either way. Armed, round 1 pushes
            // through one selector, whose per-pair form is deliver_as;
            // unarmed, it broadcasts per sender.
            if (armed)
                EXPECT_GT(spec.deliver_as_calls, 0u);
            else
                EXPECT_EQ(spec.deliver_as_calls, 0u);
            EXPECT_GT(direct.run.metrics.byzantine_messages, 0u);
        }
    }
}

/// FNV-1a over the honest nodes' (id, output word) pairs.
std::uint64_t output_digest(const PinnedTrial& trial) {
    std::uint64_t h = 0xcbf29ce484222325ULL;
    const auto mix = [&](std::uint64_t x) {
        for (int b = 0; b < 8; ++b) {
            h ^= (x >> (8 * b)) & 0xFF;
            h *= 0x100000001b3ULL;
        }
    };
    for (NodeId v = 0; v < trial.run.honest.size(); ++v) {
        if (!trial.run.honest[v]) continue;
        mix(v);
        mix(output_word(trial, v));
    }
    return h;
}

TEST(DeliveryPlaneShared, TcPreludeOutcomesArePinned) {
    // Committed outcomes of prelude + worst case at n=64 (t=21, q=12) and
    // n=520 (t=173, q=t): rounds, Byzantine messages, corruptions and a
    // digest of the honest output words. They were recorded under the
    // earlier round-0 forgery (receiver-unique decoys on per-receiver
    // rows), which the pattern-row forgery must reproduce exactly.
    struct Pin {
        const char* inputs;
        NodeId n;
        std::uint64_t seed;
        Round rounds;
        std::uint64_t byzantine_messages;
        Count corruptions;
        std::uint64_t digest;
    };
    const Pin pins[] = {
        {"near-quorum", 64, 1, 16, 1152, 12, 0x0037593b83fc05f5ULL},
        {"near-quorum", 64, 2, 18, 1152, 12, 0x304fd7084ec4c565ULL},
        {"near-quorum", 64, 3, 16, 1152, 12, 0x6d76985bb9646a39ULL},
        {"two-blocks", 64, 1, 6, 768, 6, 0xb52c1445f9175ce4ULL},
        {"two-blocks", 64, 2, 6, 768, 6, 0xb52c1445f9175ce4ULL},
        {"two-blocks", 64, 3, 6, 768, 6, 0xb52c1445f9175ce4ULL},
        {"near-quorum", 520, 1, 142, 134680, 173, 0xd168b78b0748ce85ULL},
        {"near-quorum", 520, 2, 146, 134160, 172, 0x0cacb4a317ca37beULL},
        {"near-quorum", 520, 3, 148, 134680, 173, 0xc62a8da56ffc287cULL},
    };
    for (const Pin& pin : pins) {
        sim::MvScenario s = prelude_scenario();
        if (pin.n != s.n) {
            s.n = pin.n;
            s.t = (pin.n - 1) / 3;
            s.q.reset();
        }
        const std::string kind = pin.inputs;
        const std::vector<net::Word> inputs =
            kind == "two-blocks" ? two_block_inputs(s.n) : armed_prelude_inputs(s.n);
        SCOPED_TRACE(kind + " n=" + std::to_string(s.n) + " seed " + std::to_string(pin.seed));
        const PinnedTrial trial = run_prelude_trial(s, inputs, pin.seed, false);
        EXPECT_EQ(trial.run.rounds, pin.rounds);
        EXPECT_EQ(trial.run.metrics.byzantine_messages, pin.byzantine_messages);
        EXPECT_EQ(trial.run.metrics.corruptions, pin.corruptions);
        EXPECT_EQ(output_digest(trial), pin.digest);
    }
}

TEST(DeliveryPlaneShared, FusedStillDeclinesWorstCase) {
    const sim::Scenario s =
        sim::Scenario::parse("protocol=ours adversary=worst-case n=64 t=4 fused=true");
    const auto why = sim::why_incompatible(s);
    ASSERT_TRUE(why.has_value());
    EXPECT_NE(why->find("adversary 'worst-case' does not act through the fused plane's "
                        "lane-masked split_as bridge"),
              std::string::npos)
        << *why;
}

TEST(DeliveryPlaneShared, FusedLaneControlOffersNoPlanes) {
    // The lane bridge holds bit-sliced planes, not byte planes: adversaries
    // on the fused plane always read through the per-node calls.
    const net::FusedLaneControl lane_ctl;
    EXPECT_FALSE(lane_ctl.planes());
}

// ---------------------------------------------------------------------------
// Plane view: RoundControl::planes() and adv::Observer against the per-node
// observation calls.

/// Test-only batch: a PerNodeBatch that also materializes value/decided
/// byte planes after every beat, so the per-node protocols (coin,
/// Turpin–Coan, sampling-majority) reach the plane view too.
class PlanedBatch final : public net::BatchProtocol {
public:
    explicit PlanedBatch(std::vector<std::unique_ptr<net::HonestNode>> nodes)
        : in_(std::move(nodes)) {
        refresh();
    }

    NodeId n() const override { return in_.n(); }
    void send_all(Round r, net::RoundBuffer& buf) override {
        in_.send_all(r, buf);
        refresh();
    }
    void receive_all(Round r, const net::RoundBuffer& buf,
                     const net::RoundTally& tally) override {
        in_.receive_all(r, buf, tally);
        refresh();
    }
    void receive_all(Round r, const net::RoundBuffer& buf,
                     const net::DeliverySource& src) override {
        in_.receive_all(r, buf, src);
        refresh();
    }
    const std::uint8_t* halted_plane() const override { return in_.halted_plane(); }
    Bit value(NodeId v) const override { return in_.value(v); }
    bool decided(NodeId v) const override { return in_.decided(v); }
    Bit output(NodeId v) const override { return in_.output(v); }
    const Bit* value_plane() const override { return value_.data(); }
    const std::uint8_t* decided_plane() const override { return decided_.data(); }

private:
    void refresh() {
        value_.resize(in_.n());
        decided_.resize(in_.n());
        for (NodeId v = 0; v < in_.n(); ++v) {
            value_[v] = in_.value(v);
            decided_[v] = in_.decided(v) ? 1 : 0;
        }
    }

    net::PerNodeBatch in_;
    std::vector<Bit> value_;
    std::vector<std::uint8_t> decided_;
};

/// Acts through the plane's own control and records whether it offered
/// planes on every round.
class PlaneProbe final : public net::Adversary {
public:
    explicit PlaneProbe(net::Adversary& inner) : in_(inner) {}
    void on_start(NodeId n, Count budget) override { in_.on_start(n, budget); }
    void act(net::RoundControl& ctl) override {
        offered = offered && static_cast<bool>(ctl.planes());
        in_.act(ctl);
    }
    bool offered = true;

private:
    net::Adversary& in_;
};

/// Runs one adversary twice over identically built protocols: once on the
/// engine's control (plane view) and once through PerPairControl (per-node
/// calls). `make` returns a fresh (engine config, batch, adversary) each
/// time. Requires every RunResult field equal; returns the per-node
/// observation calls the fallback run made.
template <typename Make>
std::uint64_t expect_plane_view_matches_per_node(Make&& make, const std::string& what) {
    SCOPED_TRACE(what);
    auto [cfg_a, batch_a, adv_a] = make();
    PlaneProbe probe(*adv_a);
    net::Engine eng_a(cfg_a, std::move(batch_a), probe);
    const net::RunResult planes = eng_a.run();
    EXPECT_TRUE(probe.offered) << "the engine must offer planes over a SoA batch";

    auto [cfg_b, batch_b, adv_b] = make();
    PerPairAdversary per_node(*adv_b);
    net::Engine eng_b(cfg_b, std::move(batch_b), per_node);
    const net::RunResult calls = eng_b.run();

    expect_runs_eq(planes, calls);
    return per_node.counts.observations;
}

using BatchTrial =
    std::tuple<net::EngineConfig, std::unique_ptr<net::BatchProtocol>,
               std::unique_ptr<net::Adversary>>;

/// A registry binary trial in batch form; per-node protocols are wrapped in
/// PlanedBatch so the engine can offer planes for them as well.
BatchTrial binary_batch_trial(const sim::ScenarioPlan& plan, std::uint64_t seed) {
    TrialParts parts = trial_parts(plan, seed);
    std::unique_ptr<net::BatchProtocol> batch =
        parts.bundle.batch ? std::move(parts.bundle.batch)
                           : std::make_unique<PlanedBatch>(std::move(parts.bundle.nodes));
    return {parts.cfg, std::move(batch), std::move(parts.adversary)};
}

TEST(PlaneView, EveryPortedAdversaryMatchesPerNodeCalls) {
    const char* specs[] = {
        "protocol=ours adversary=worst-case n=1024 t=16 inputs=split",
        "protocol=chor-coan-rushing adversary=worst-case n=1024 t=16 inputs=split",
        "protocol=ours adversary=balancer n=256 t=40 inputs=split",
        "protocol=sampling-majority adversary=balancer n=256 t=40 inputs=split",
        "protocol=ours adversary=chaos n=64 t=21 inputs=split",
        "protocol=ben-or adversary=chaos n=64 t=12 inputs=random",
        "protocol=phase-king adversary=chaos n=65 t=16 inputs=split",
        "protocol=ours adversary=crash-random n=64 t=21 inputs=split",
        "protocol=ours adversary=crash-targeted-coin n=256 t=40 inputs=split",
    };
    for (const char* spec : specs) {
        const sim::ScenarioPlan plan = sim::validate(sim::Scenario::parse(spec));
        std::uint64_t observations = 0;
        for (std::uint64_t seed = 1; seed <= 3; ++seed)
            observations += expect_plane_view_matches_per_node(
                [&] { return binary_batch_trial(plan, seed); },
                std::string(spec) + " seed " + std::to_string(seed));
        // Random strategies may sit a whole trial out; not all three.
        EXPECT_GT(observations, 0u) << spec << ": the fallback must read per node";
    }
}

TEST(PlaneView, CoinRuinMatchesPerNodeCalls) {
    for (const auto attack : {adv::CoinAttack::Split, adv::CoinAttack::ForceBit}) {
        for (std::uint64_t seed = 1; seed <= 8; ++seed) {
            const auto make = [&]() -> BatchTrial {
                const core::CoinConfig coin{256, 64};
                net::EngineConfig cfg;
                cfg.n = coin.n;
                cfg.budget = 6;
                cfg.max_rounds = 1;
                net::NodePool nodes;
                core::arm_coin_nodes(coin, SeedTree(seed), nodes);
                return {cfg, std::make_unique<PlanedBatch>(std::move(nodes)),
                        std::make_unique<adv::CoinRuinAdversary>(
                            adv::CoinRuinConfig{coin.designated, 6, attack, 1})};
            };
            EXPECT_GT(expect_plane_view_matches_per_node(
                          make, "coin attack " +
                                    std::to_string(static_cast<int>(attack)) +
                                    " seed " + std::to_string(seed)),
                      0u);
        }
    }
}

TEST(PlaneView, TcPreludeMatchesPerNodeCalls) {
    const sim::MvScenario s = prelude_scenario();
    const sim::MvScenarioPlan plan = sim::validate(s);
    const std::vector<net::Word> inputs = armed_prelude_inputs(s.n);
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
        const auto make = [&]() -> BatchTrial {
            const SeedTree seeds(seed);
            net::EngineConfig cfg;
            cfg.n = s.n;
            cfg.budget = s.t;
            cfg.max_rounds = plan.cap;
            net::NodePool nodes;
            core::arm_turpin_coan_nodes(plan.params, inputs, seeds, nodes);
            return {cfg, std::make_unique<PlanedBatch>(std::move(nodes)),
                    plan.adversary->make_adversary(s, plan.params, seeds)};
        };
        EXPECT_GT(
            expect_plane_view_matches_per_node(make, "prelude seed " + std::to_string(seed)),
            0u);
    }
}

/// Checks, every round, that RoundControl::planes() and Observer answer
/// exactly as the per-node calls, before and after a corruption made in
/// the same act (the planes are live). Returns how many honest nodes the
/// scans found silent.
std::uint64_t check_planes_against_calls(net::EngineConfig cfg,
                                         std::unique_ptr<net::BatchProtocol> batch) {
    constexpr Round kCorruptingRounds = 2;
    Round rounds_checked = 0;
    std::uint64_t silent_honest = 0;
    ScriptAdversary adv([&](net::RoundControl& ctl) {
        const net::ObservationPlanes p = ctl.planes();
        ASSERT_TRUE(p);
        const adv::Observer obs(ctl);
        const auto agree = [&] {
            for (NodeId v = 0; v < ctl.n(); ++v) {
                ASSERT_EQ(obs.honest(v), ctl.is_honest(v)) << v;
                ASSERT_EQ(obs.halted(v), ctl.is_halted(v)) << v;
                ASSERT_EQ(obs.live(v), ctl.is_honest(v) && !ctl.is_halted(v)) << v;
                if (!ctl.is_honest(v)) continue;
                ASSERT_EQ(obs.broadcast(v), ctl.intended_broadcast(v)) << v;
                ASSERT_EQ(obs.value(v), ctl.current_value(v)) << v;
                ASSERT_EQ(obs.decided(v), ctl.current_decided(v)) << v;
                if (ctl.intended_broadcast(v) == nullptr) ++silent_honest;
            }
        };
        agree();
        if (ctl.round() < kCorruptingRounds) {
            const NodeId victim = 2 * ctl.round() + 1;  // not yet touched
            ASSERT_TRUE(obs.live(victim));
            ASSERT_NE(obs.broadcast(victim), nullptr);
            ctl.corrupt(victim);
            EXPECT_NE(p.state[victim] & net::RoundBuffer::kByzantine, 0);
            EXPECT_FALSE(obs.honest(victim));
            agree();
        }
        ++rounds_checked;
    });
    cfg.budget = kCorruptingRounds;
    net::Engine eng(cfg, std::move(batch), adv);
    const net::RunResult res = eng.run();
    EXPECT_EQ(rounds_checked, res.rounds);
    EXPECT_EQ(res.metrics.corruptions, std::min(res.rounds, kCorruptingRounds));
    return silent_honest;
}

TEST(PlaneView, PlanesAreLiveAndAgreeWithPerNodeCalls) {
    // The skeleton's own SoA planes...
    const sim::ScenarioPlan plan = sim::validate(
        sim::Scenario::parse("protocol=ours adversary=none n=64 t=21 inputs=split"));
    auto [cfg, batch, unused] = binary_batch_trial(plan, 4);
    check_planes_against_calls(cfg, std::move(batch));

    // ...and staggered lifetimes, so halted honest nodes (silent, state
    // plane 0) are scanned next to live ones.
    std::vector<std::unique_ptr<net::HonestNode>> nodes;
    for (NodeId v = 0; v < 16; ++v) nodes.push_back(std::make_unique<InboxNode>(v, 3 + v % 4));
    EXPECT_GT(check_planes_against_calls({16, 0, 8, false},
                                         std::make_unique<PlanedBatch>(std::move(nodes))),
              0u)
        << "no halted honest node was scanned";
}

TEST(PlaneView, PerNodeBatchOffersNoPlanes) {
    // The adapter has no SoA value/decided planes: all or nothing, so the
    // engine offers none and Observer falls back to the per-node calls.
    int acts = 0;
    ScriptAdversary adv([&](net::RoundControl& ctl) {
        EXPECT_FALSE(ctl.planes());
        const adv::Observer obs(ctl);
        EXPECT_TRUE(obs.live(1));
        EXPECT_EQ(obs.broadcast(1), ctl.intended_broadcast(1));
        ++acts;
    });
    net::Engine eng({4, 0, 2, false}, inbox_nodes(4, 2, nullptr), adv);
    eng.run();
    EXPECT_EQ(acts, 2);
}

TEST(PlaneView, WorstCaseWordPlanesMatchPerNodeCalls) {
    // n = 4097: the last plane word holds one node, so every word scan
    // meets a partial tail. Split and random inputs reach both the round-1
    // quorum block and the round-2 coin split.
    for (const char* protocol : {"ours", "chor-coan-rushing"}) {
        for (const char* inputs : {"split", "random"}) {
            const std::string spec = std::string("protocol=") + protocol +
                                     " adversary=worst-case n=4097 t=64 inputs=" + inputs;
            const sim::ScenarioPlan plan = sim::validate(sim::Scenario::parse(spec));
            for (std::uint64_t seed = 1; seed <= 2; ++seed)
                expect_plane_view_matches_per_node(
                    [&] { return binary_batch_trial(plan, seed); },
                    spec + " seed " + std::to_string(seed));
        }
    }
}

/// A hand-built adversary beat: n nodes' state, halted, decided and value
/// bytes and their broadcasts. With `offer_planes` the control hands them
/// out through planes() — plus the send words when every broadcast shares
/// one signature, as a word-sent round does — and otherwise only through
/// the per-node calls (the fallback's contract, as in Engine::Ctl).
/// Corruptions and deliveries are recorded in call order;
/// deliver_select_as keeps the base class's per-pair expansion.
class ScriptedRound final : public net::RoundControl {
public:
    ScriptedRound(NodeId n, Round round, Count budget, bool offer_planes)
        : n_(n), round_(round), budget_(budget), offer_planes_(offer_planes),
          state_(n, 0), halted_(n, 0), decided_(n, 0), value_(n, 0), sent_(n),
          present_(net::kern::word_count(n), 0), val_(net::kern::word_count(n), 0) {}

    /// Node v: honest with broadcast `m` (nullopt = silent), or Byzantine.
    void set(NodeId v, std::optional<Message> m, bool halted, bool decided, Bit value) {
        state_[v] = m ? net::RoundBuffer::kPresent : 0;
        if (m) sent_[v] = *m;
        halted_[v] = halted ? 1 : 0;
        decided_[v] = decided ? 1 : 0;
        value_[v] = value;
    }
    void set_byzantine(NodeId v) { state_[v] = net::RoundBuffer::kByzantine; }
    /// Builds the send words; call once every node is set.
    void seal() {
        words_ = true;
        bool first = true;
        for (NodeId v = 0; v < n_; ++v) {
            if (state_[v] != net::RoundBuffer::kPresent) continue;
            const Message& m = sent_[v];
            if (first) {
                kind_ = m.kind;
                phase_ = m.phase;
                first = false;
            }
            words_ = words_ && m.kind == kind_ && m.phase == phase_;
            present_[v / 64] |= std::uint64_t{1} << (v % 64);
            val_[v / 64] |= std::uint64_t{m.val & 1u} << (v % 64);
        }
    }

    Round round() const override { return round_; }
    NodeId n() const override { return n_; }
    Count budget_left() const override { return budget_ - static_cast<Count>(corrupted.size()); }
    bool is_honest(NodeId v) const override {
        EXPECT_LT(v, n_);
        return (state_[v] & net::RoundBuffer::kByzantine) == 0;
    }
    bool is_halted(NodeId v) const override { return is_honest(v) && halted_[v] != 0; }
    const Message* intended_broadcast(NodeId v) const override {
        EXPECT_TRUE(is_honest(v));
        return state_[v] == net::RoundBuffer::kPresent ? &sent_[v] : nullptr;
    }
    Bit current_value(NodeId v) const override { return value_[v]; }
    bool current_decided(NodeId v) const override { return decided_[v] != 0; }
    net::ObservationPlanes planes() const override {
        if (!offer_planes_) return {};
        net::ObservationPlanes p{state_.data(), halted_.data(), sent_.data(), decided_.data(),
                                 value_.data()};
        if (words_) {
            p.present_words = present_.data();
            p.val_words = val_.data();
            p.word_kind = kind_;
            p.word_phase = phase_;
        }
        return p;
    }
    std::optional<Message> corrupt(NodeId v) override {
        EXPECT_TRUE(is_honest(v) && !is_halted(v)) << v;
        EXPECT_GT(budget_left(), 0u);
        std::optional<Message> discarded;
        if (state_[v] == net::RoundBuffer::kPresent) discarded = sent_[v];
        state_[v] = net::RoundBuffer::kByzantine;
        present_[v / 64] &= ~(std::uint64_t{1} << (v % 64));
        corrupted.push_back(v);
        return discarded;
    }
    void deliver_as(NodeId byz_from, NodeId to, const Message& m) override {
        delivered.emplace_back(byz_from, to, m);
    }
    void split_as(NodeId byz_from, const std::optional<Message>& low,
                  const std::optional<Message>& high, NodeId boundary) override {
        splits.emplace_back(byz_from, low, high, boundary);
    }

    std::vector<NodeId> corrupted;
    std::vector<std::tuple<NodeId, NodeId, Message>> delivered;
    std::vector<std::tuple<NodeId, std::optional<Message>, std::optional<Message>, NodeId>>
        splits;

private:
    NodeId n_;
    Round round_;
    Count budget_;
    bool offer_planes_;
    std::vector<std::uint8_t> state_, halted_, decided_;
    std::vector<Bit> value_;
    std::vector<Message> sent_;
    bool words_ = false;
    std::vector<std::uint64_t> present_, val_;
    MsgKind kind_{};
    Phase phase_ = 0;
};

/// Runs one worst-case act on the scripted round twice — over the planes
/// (and send words) and through the per-node calls — and requires the same
/// corruptions, deliveries and splits in the same order. Returns the plane
/// run's control for further checks.
template <typename Script>
std::unique_ptr<ScriptedRound> expect_worst_case_act_matches(const adv::WorstCaseConfig& cfg,
                                                             NodeId n, Round round,
                                                             Count budget, Script&& script) {
    std::unique_ptr<ScriptedRound> runs[2];
    for (int per_node = 0; per_node < 2; ++per_node) {
        runs[per_node] = std::make_unique<ScriptedRound>(n, round, budget, per_node == 0);
        script(*runs[per_node]);
        runs[per_node]->seal();
        adv::WorstCaseAdversary adversary(cfg);
        adversary.act(*runs[per_node]);
    }
    EXPECT_EQ(runs[0]->corrupted, runs[1]->corrupted);
    EXPECT_EQ(runs[0]->delivered, runs[1]->delivered);
    EXPECT_EQ(runs[0]->splits, runs[1]->splits);
    return std::move(runs[0]);
}

TEST(PlaneView, ByteScanMatchesItsPortableFormAndThePerByteSpec) {
    // clear_bytes64 (the SSE2 form on x86-64) and its portable form against
    // a per-byte loop. Byte density varies by trial, so all-clear words,
    // lone set bytes and 0x80-only bytes all occur.
    Xoshiro256 rng(0xB17E5);
    std::uint8_t a[64], b[64];
    for (int trial = 0; trial < 4000; ++trial) {
        const auto amask = static_cast<std::uint8_t>(trial % 3 == 0 ? 0xFF : rng.below(256));
        const std::uint64_t sparsity = 1 + static_cast<std::uint64_t>(trial % 5) * 16;
        const auto draw = [&] {
            if (rng.below(sparsity) != 0) return std::uint8_t{0};
            return rng.below(4) == 0 ? std::uint8_t{0x80}
                                     : static_cast<std::uint8_t>(rng.below(256));
        };
        for (unsigned i = 0; i < 64; ++i) {
            a[i] = draw();
            b[i] = draw();
        }
        std::uint64_t clear = 0, nonzero = 0;
        for (unsigned i = 0; i < 64; ++i) {
            if ((a[i] & amask) == 0 && b[i] == 0) clear |= std::uint64_t{1} << i;
            if (a[i] != 0) nonzero |= std::uint64_t{1} << i;
        }
        ASSERT_EQ(net::kern::clear_bytes64_portable(a, amask, b), clear) << "trial " << trial;
        ASSERT_EQ(net::kern::clear_bytes64(a, amask, b), clear) << "trial " << trial;
        ASSERT_EQ(net::kern::nonzero_bytes64(a), nonzero) << "trial " << trial;
    }
}

TEST(PlaneView, WorstCaseRound1BlocksWithCommitteeMembersFirst) {
    // Phase 1's committee is [60, 120): with 60-node blocks it sits above
    // the lowest ids and straddles plane words, so "committee first, then
    // ascending" and plain ascending order pick different victims. n = 4097,
    // t = 200: the value-1 bloc holds 20 committee members and every other
    // live voter, 157 past the n-t quorum, so 158 corruptions block it —
    // the 20 members, then non-members from id 0 up, skipping the committee.
    constexpr NodeId n = 4097;
    constexpr Count t = 200;
    const core::BlockSchedule schedule = core::BlockSchedule::make(n, 60);
    for (const Round offset : {Round{0}, Round{2}}) {
        SCOPED_TRACE("round offset " + std::to_string(offset));
        const adv::WorstCaseConfig cfg{t, t, schedule, true, offset};
        const auto script = [&](ScriptedRound& r) {
            for (NodeId v = 0; v < n; ++v) {
                Message m;
                m.kind = MsgKind::Vote1;
                m.phase = 1;
                m.val = v >= 60 && v < 120 ? (v < 80 ? 1 : 0) : 1;
                // Outside the bloc: a halted node that still broadcast
                // (a flusher), a silent node and a corrupted one.
                if (v == 5) {
                    r.set(v, m, /*halted=*/true, true, 1);
                } else if (v == 6) {
                    r.set(v, std::nullopt, false, false, 0);
                } else if (v == 7) {
                    r.set_byzantine(v);
                } else {
                    r.set(v, m, false, false, m.val);
                }
            }
        };
        const auto run = expect_worst_case_act_matches(cfg, n, 2 + offset, t, script);
        const Count bloc = n - 40 - 3;  // committee 0-voters and the three above
        const Count need = bloc - (n - t) + 1;
        ASSERT_EQ(run->corrupted.size(), need);
        for (std::size_t i = 0; i < 20; ++i) EXPECT_EQ(run->corrupted[i], 60 + i);
        // Then ascending outside the committee, past nodes 5, 6 and 7.
        EXPECT_EQ(run->corrupted[20], 0u);
        EXPECT_EQ(run->corrupted[25], 8u);
        EXPECT_EQ(run->corrupted[24], 4u);
        EXPECT_EQ(run->corrupted[76], 59u);
        EXPECT_EQ(run->corrupted[77], 120u);
        EXPECT_TRUE(run->delivered.empty());
    }
}

TEST(PlaneView, WorstCaseRound2SplitMatchesPerNodeCalls) {
    // Round 2 of phase 1 at n = 4097: decided nodes past t (some in the
    // committee), finishers that broadcast and halted this round (flushers,
    // not live), three Byzantine committee members, and honest committee
    // flips summing to +5 — so the strategy trims the decided count by 9,
    // corrupts two +1 flippers and ruins the coin with the SPLIT selector.
    constexpr NodeId n = 4097;
    constexpr Count t = 100;
    const core::BlockSchedule schedule = core::BlockSchedule::make(n, 64);
    for (const Round offset : {Round{0}, Round{2}}) {
        SCOPED_TRACE("round offset " + std::to_string(offset));
        const adv::WorstCaseConfig cfg{t, t, schedule, true, offset};
        const auto script = [&](ScriptedRound& r) {
            for (NodeId v = 0; v < n; ++v) {
                Message m;
                m.kind = MsgKind::Vote2;
                m.phase = 1;
                const bool committee = v >= 64 && v < 128;
                const bool decided = v % 37 == 0;  // 111 decided nodes
                const bool flusher = v % 101 == 0 && !committee;
                m.val = 1;
                m.flag = decided || flusher ? 1 : 0;
                if (committee) m.coin = v % 2 == 0 || v < 72 ? CoinSign{1} : CoinSign{-1};
                if (v == 70 || v == 90 || v == 100) {
                    r.set_byzantine(v);
                } else if (v % 500 == 3) {
                    r.set(v, std::nullopt, /*halted=*/true, true, 1);
                } else {
                    r.set(v, m, flusher, decided || flusher, 1);
                }
            }
        };
        const auto run = expect_worst_case_act_matches(cfg, n, 3 + offset, t, script);
        ASSERT_EQ(run->corrupted.size(), 9u + 2u);
        ASSERT_FALSE(run->delivered.empty()) << "the SPLIT selector never went out";
        // Receiver `to` hears +1 iff it is live after the corruptions with an
        // odd number of live receivers before it.
        bool odd = false;
        std::vector<CoinSign> want(n);
        for (NodeId to = 0; to < n; ++to) {
            const bool live = run->is_honest(to) && !run->is_halted(to);
            want[to] = live && odd ? CoinSign{1} : CoinSign{-1};
            if (live) odd = !odd;
        }
        for (const auto& [from, to, m] : run->delivered) {
            ASSERT_EQ(m.coin, want[to]) << from << " -> " << to;
            ASSERT_EQ(m.kind, MsgKind::Vote2);
        }
    }
}

TEST(PlaneView, ObserverKeepsThePerNodePreconditions) {
    // Same ContractViolation messages on both paths: the plane view is an
    // access path, not a weaker contract.
    const sim::ScenarioPlan plan = sim::validate(
        sim::Scenario::parse("protocol=ours adversary=none n=16 t=5 inputs=split"));
    for (const bool per_node : {false, true}) {
        SCOPED_TRACE(per_node ? "per-node calls" : "plane view");
        auto [cfg, batch, unused] = binary_batch_trial(plan, 1);
        cfg.budget = 1;
        cfg.max_rounds = 1;
        ScriptAdversary script([&](net::RoundControl& ctl) {
            const adv::Observer obs(ctl);
            ctl.corrupt(3);
            const auto expect_violation = [](auto&& call, const std::string& needle) {
                try {
                    call();
                    ADD_FAILURE() << "expected a ContractViolation: " << needle;
                } catch (const ContractViolation& e) {
                    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
                        << e.what();
                }
            };
            expect_violation([&] { obs.broadcast(3); },
                             "only honest nodes have intended broadcasts");
            expect_violation([&] { obs.value(3); },
                             "introspection is defined for honest nodes");
            expect_violation([&] { obs.decided(3); },
                             "introspection is defined for honest nodes");
            expect_violation([&] { obs.honest(16); }, "v <");
        });
        PerPairAdversary wrapped(script);
        net::Adversary& acting = per_node ? static_cast<net::Adversary&>(wrapped) : script;
        net::Engine eng(cfg, std::move(batch), acting);
        eng.run();
    }
}

// ---------------------------------------------------------------------------
// Accounting oracle: Engine::account_sends charges honest traffic in closed
// form (net::honest_fanout). The per-sender charge it replaced lives on
// here as the reference.

/// Decorates an adversary: after the inner act(), recomputes the round's
/// honest charge sender by sender from the post-corruption per-node reads,
/// with the sparse sub-dense cap, exactly as the engine charged it before.
class AccountingOracle final : public net::Adversary {
public:
    AccountingOracle(net::Adversary& inner, const net::EngineConfig& cfg) : in_(inner) {
        const Count want = cfg.sample_degree ? cfg.sample_degree : net::kDefaultSampleDegree;
        sampled_ = cfg.plane == net::PlaneMode::Sparse && want < cfg.n;
        degree_ = want;
    }
    void on_start(NodeId n, Count budget) override { in_.on_start(n, budget); }
    void act(net::RoundControl& ctl) override {
        in_.act(ctl);
        const NodeId n = ctl.n();
        NodeId halted_receivers = 0;
        for (NodeId v = 0; v < n; ++v)
            if (ctl.is_honest(v) && ctl.is_halted(v)) ++halted_receivers;
        for (NodeId v = 0; v < n; ++v) {
            if (!ctl.is_honest(v)) continue;
            const Message* m = ctl.intended_broadcast(v);
            if (m == nullptr) continue;
            // A finish-flushing sender that halted during this round's
            // send is itself a halted receiver; put its own slot back.
            const std::uint64_t excluded =
                static_cast<std::uint64_t>(halted_receivers) - (ctl.is_halted(v) ? 1 : 0);
            std::uint64_t fanout = static_cast<std::uint64_t>(n) - 1 - excluded;
            if (sampled_ && fanout > degree_) {
                fanout = degree_;
                ++capped;
            }
            messages += fanout;
            bits += fanout * net::wire_bits(*m, n);
            if (ctl.is_halted(v)) ++flushed;
            if (net::carries_word(m->kind)) ++word_senders;
        }
    }

    std::uint64_t messages = 0;
    std::uint64_t bits = 0;
    std::uint64_t flushed = 0;       ///< flush-halting broadcasts seen
    std::uint64_t word_senders = 0;  ///< word-payload broadcasts seen
    std::uint64_t capped = 0;        ///< broadcasts the sparse cap cut

private:
    net::Adversary& in_;
    bool sampled_ = false;
    std::uint64_t degree_ = 0;
};

/// Runs one registry trial with the oracle wrapped around its adversary
/// and checks the engine's closed-form charge against it.
AccountingOracle expect_accounting_matches_oracle(const std::string& spec,
                                                  std::uint64_t seed) {
    SCOPED_TRACE(spec + " seed " + std::to_string(seed));
    const sim::ScenarioPlan plan = sim::validate(sim::Scenario::parse(spec));
    TrialParts parts = trial_parts(plan, seed);
    AccountingOracle oracle(*parts.adversary, parts.cfg);
    const net::RunResult res = run_pinned(parts.cfg, std::move(parts.bundle.batch),
                                          std::move(parts.bundle.nodes), oracle, false)
                                   .run;
    EXPECT_EQ(res.metrics.honest_messages, oracle.messages);
    EXPECT_EQ(res.metrics.honest_bits, oracle.bits);
    EXPECT_GT(oracle.messages, 0u);
    // The hand-built trial is the runner's trial.
    const sim::TrialResult runner = sim::run_trial(plan, seed);
    EXPECT_EQ(runner.metrics.honest_messages, res.metrics.honest_messages);
    EXPECT_EQ(runner.metrics.honest_bits, res.metrics.honest_bits);
    return oracle;
}

TEST(AccountingOracle, ClosedFormMatchesPerSenderCharge) {
    std::uint64_t flushed = 0, capped = 0;
    // The flat plane, the dense and sub-dense sparse plane, and the two
    // oracle paths, at sizes where each stays fast.
    const char* planes[] = {
        "n=4096 t=64",
        "n=1024 t=16 plane=sparse sample_degree=1024",
        "n=1024 t=16 plane=sparse sample_degree=128",
        "n=512 t=16 reference=true",
        "n=512 t=16 batch=false",
    };
    for (const char* protocol : {"ours", "chor-coan-rushing"}) {
        for (const char* plane : planes) {
            const std::string spec = std::string("protocol=") + protocol +
                                     " adversary=worst-case inputs=split " + plane;
            for (std::uint64_t seed = 1; seed <= 2; ++seed) {
                const AccountingOracle o = expect_accounting_matches_oracle(spec, seed);
                flushed += o.flushed;
                capped += o.capped;
            }
        }
    }
    // Flush-halting protocols corrupted mid-run: Ben-Or under chaos, and the
    // skeleton under random crashes on the sub-dense sparse plane.
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
        flushed += expect_accounting_matches_oracle(
                       "protocol=ben-or adversary=chaos n=64 t=12 inputs=random", seed)
                       .flushed;
        flushed += expect_accounting_matches_oracle(
                       "protocol=ours adversary=crash-random n=64 t=21 inputs=split "
                       "plane=sparse sample_degree=16",
                       seed)
                       .flushed;
    }
    EXPECT_GT(flushed, 0u) << "no flush-halting broadcast was charged";
    EXPECT_GT(capped, 0u) << "the sub-dense cap never bound";
}

TEST(AccountingOracle, WordPayloadKindsMatchPerSenderCharge) {
    // The Turpin–Coan prelude's TCValue/TCEcho carry the word payload: the
    // closed form must charge it for exactly those senders.
    const sim::MvScenario s = prelude_scenario();
    const sim::MvScenarioPlan plan = sim::validate(s);
    const std::vector<net::Word> inputs = armed_prelude_inputs(s.n);
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        const SeedTree seeds(seed);
        const auto adversary = plan.adversary->make_adversary(s, plan.params, seeds);
        net::EngineConfig cfg;
        cfg.n = s.n;
        cfg.budget = s.t;
        cfg.max_rounds = plan.cap;
        AccountingOracle oracle(*adversary, cfg);
        net::NodePool nodes;
        core::arm_turpin_coan_nodes(plan.params, inputs, seeds, nodes);
        net::Engine eng(cfg, std::move(nodes), oracle);
        const net::RunResult res = eng.run();
        EXPECT_EQ(res.metrics.honest_messages, oracle.messages);
        EXPECT_EQ(res.metrics.honest_bits, oracle.bits);
        EXPECT_GT(oracle.word_senders, 0u);
    }
}

TEST(AccountingOracle, HonestFanoutClosedForm) {
    // S*(n-1-H) + SH uncapped; per-class caps when sampled.
    EXPECT_EQ(net::honest_fanout(10, 0, 0, 10), 90u);
    EXPECT_EQ(net::honest_fanout(6, 2, 4, 10), 6u * 5u + 2u);
    EXPECT_EQ(net::honest_fanout(6, 2, 4, 10, 5), 4u * 5u + 2u * 5u);
    EXPECT_EQ(net::honest_fanout(6, 2, 4, 10, 4), 6u * 4u);
    // Everyone halted and honest: flushed senders reach nobody, no wrap.
    EXPECT_EQ(net::honest_fanout(3, 3, 10, 10), 0u);
    EXPECT_EQ(net::honest_fanout(0, 0, 10, 10, 4), 0u);
}

// ---------------------------------------------------------------------------
// Word sends: the skeleton batch hands the buffer whole 64-sender words
// (RoundBuffer::set_word), and the packed tally adopts them instead of
// re-reading n Messages. The pack pass over the same deliveries is the
// reference: buckets (order and counts), match planes, match-masked
// attribute planes, the Byzantine plane, coin range sums and both delta
// planes must agree.

/// Byzantine word plane derived from the state plane.
std::vector<std::uint64_t> byz_words_of(const net::RoundBuffer& buf) {
    std::vector<std::uint64_t> byz(net::kern::word_count(buf.n()), 0);
    for (NodeId v = 0; v < buf.n(); ++v)
        if (!buf.is_honest(v)) byz[v / 64] |= std::uint64_t{1} << (v % 64);
    return byz;
}

/// True when some Byzantine delivery of this round matches the query:
/// the brute-force form of val_delta_plane's nullptr contract.
bool any_byzantine_match(const net::RoundBuffer& buf, MsgKind kind, Phase phase,
                         bool require_flag) {
    for (std::size_t r = 0; r < buf.rows_in_use(); ++r)
        for (NodeId v = 0; v < buf.n(); ++v)
            if (const Message* m = buf.row_delivery(r, v))
                if (m->kind == kind && m->phase == phase && (!require_flag || m->flag != 0))
                    return true;
    return false;
}

/// True when some Byzantine sender in [first, last) delivers a coin sign
/// for the query: the brute-force form of coin_delta_plane's nullptr
/// contract.
bool any_byzantine_coin(const net::RoundBuffer& buf, MsgKind kind, Phase phase,
                        NodeId first, NodeId last) {
    for (std::size_t r = 0; r < buf.rows_in_use(); ++r) {
        if (buf.row_sender(r) < first || buf.row_sender(r) >= last) continue;
        for (NodeId v = 0; v < buf.n(); ++v)
            if (const Message* m = buf.row_delivery(r, v))
                if (m->kind == kind && m->phase == phase && m->coin != 0) return true;
    }
    return false;
}

/// Pins every packed query of `words` (built over `buf`) to `ref` (built
/// over the same deliveries by the pack pass). `queries` adds (kind,
/// phase) signatures beyond the buckets'; `brute` also checks the delta
/// planes' nullptr contract sender by sender.
void expect_tallies_eq(const net::RoundTally& words, const net::RoundTally& ref,
                       const net::RoundBuffer& buf,
                       std::vector<std::pair<MsgKind, Phase>> queries, Xoshiro256& rng,
                       bool brute) {
    const NodeId n = buf.n();
    const std::size_t nw = net::kern::word_count(n);
    ASSERT_TRUE(words.packed() && ref.packed());
    const net::kern::PackedPlanes& a = words.packed_planes();
    const net::kern::PackedPlanes& b = ref.packed_planes();
    const std::vector<std::uint64_t> byz = byz_words_of(buf);
    EXPECT_TRUE(std::equal(byz.begin(), byz.end(), a.byz.begin()));
    EXPECT_TRUE(std::equal(byz.begin(), byz.end(), b.byz.begin()));
    ASSERT_EQ(words.bucket_count(), ref.bucket_count());
    for (std::size_t i = 0; i < words.bucket_count(); ++i) {
        SCOPED_TRACE("bucket " + std::to_string(i));
        const net::TallyBucket& x = words.bucket(i);
        const net::TallyBucket& y = ref.bucket(i);
        EXPECT_EQ(x.kind, y.kind);
        EXPECT_EQ(x.phase, y.phase);
        EXPECT_EQ(x.total, y.total);
        EXPECT_EQ(x.val_cnt, y.val_cnt);
        EXPECT_EQ(x.val_flag_cnt, y.val_flag_cnt);
        std::size_t mismatched = 0;
        for (std::size_t w = 0; w < nw; ++w) {
            const std::uint64_t m = x.match[w];
            mismatched += m != y.match[w] || (m & a.val[w]) != (m & b.val[w]) ||
                          (m & a.flag[w]) != (m & b.flag[w]) ||
                          (m & a.coin_pos[w]) != (m & b.coin_pos[w]) ||
                          (m & a.coin_neg[w]) != (m & b.coin_neg[w]);
        }
        EXPECT_EQ(mismatched, 0u) << "words whose match or masked attributes differ";
        EXPECT_EQ(words.coin_range_sum(x, 0, n), ref.coin_range_sum(y, 0, n));
        for (int k = 0; k < 4; ++k) {
            const auto first = static_cast<NodeId>(rng.below(n + 1));
            const auto last = first + static_cast<NodeId>(rng.below(n - first + 1));
            EXPECT_EQ(words.coin_range_sum(x, first, last), ref.coin_range_sum(y, first, last))
                << "[" << first << ", " << last << ")";
        }
        queries.emplace_back(x.kind, x.phase);
    }
    for (const auto& [kind, phase] : queries) {
        for (const bool flag : {false, true}) {
            const auto* da = words.val_delta_plane(kind, phase, flag);
            const auto* db = ref.val_delta_plane(kind, phase, flag);
            ASSERT_EQ(da == nullptr, db == nullptr);
            if (brute) {
                EXPECT_EQ(da != nullptr, any_byzantine_match(buf, kind, phase, flag));
            }
            if (da != nullptr) {
                EXPECT_TRUE(std::equal(da, da + n, db));
            }
        }
        const auto first = static_cast<NodeId>(rng.below(n + 1));
        const auto last = first + static_cast<NodeId>(rng.below(n - first + 1));
        const std::int64_t* ca = words.coin_delta_plane(kind, phase, true, first, last);
        const std::int64_t* cb = ref.coin_delta_plane(kind, phase, true, first, last);
        ASSERT_EQ(ca == nullptr, cb == nullptr);
        if (brute) {
            EXPECT_EQ(ca != nullptr, any_byzantine_coin(buf, kind, phase, first, last));
        }
        if (ca != nullptr) {
            EXPECT_TRUE(std::equal(ca, ca + n, cb));
        }
    }
}

/// Applies the same script to a word-sending buffer and a per-node one.
struct TwinBuffers {
    net::RoundBuffer words;     ///< honest sends through set_word
    net::RoundBuffer per_node;  ///< the same sends through set_broadcast

    void reset(NodeId n) {
        words.reset(n);
        per_node.reset(n);
    }
    void begin_round() {
        words.begin_round();
        per_node.begin_round();
    }
    void corrupt(NodeId v) { EXPECT_EQ(words.corrupt(v), per_node.corrupt(v)) << v; }
    void send(std::size_t w, MsgKind kind, Phase phase,
              const net::RoundBuffer::SendWord& sw) {
        words.set_word(w, kind, phase, sw);
        for (unsigned i = 0; i < 64; ++i) {
            if (((sw.present >> i) & 1) == 0) continue;
            Message m;
            m.kind = kind;
            m.phase = phase;
            m.val = static_cast<Bit>((sw.val >> i) & 1);
            m.flag = static_cast<std::uint8_t>((sw.flag >> i) & 1);
            m.coin = static_cast<CoinSign>(((sw.coin_pos >> i) & 1) - ((sw.coin_neg >> i) & 1));
            per_node.set_broadcast(static_cast<NodeId>(w * 64 + i), m);
        }
    }
};

TEST(WordSend, WordsMatchThePackPassOnTheSameDeliveries) {
    Xoshiro256 rng(0x5E2D);
    std::uint64_t adopted = 0, declined = 0, empty = 0;
    for (const NodeId n : {NodeId{64}, NodeId{100}, NodeId{130}, NodeId{4096}}) {
        for (const unsigned shards : {1u, 2u, 8u}) {
            sim::ShardPool pool(shards, 1);
            for (int iter = 0; iter < 12; ++iter) {
                SCOPED_TRACE("n=" + std::to_string(n) + " shards=" + std::to_string(shards) +
                             " iter " + std::to_string(iter));
                // iter 0: nobody present; iter 1: one per-node send joins
                // the words; iter 2: two signatures; the rest: one.
                TwinBuffers twin;
                twin.reset(n);
                for (NodeId v = 0; v < n; ++v)
                    if (rng.bernoulli(0.05)) twin.corrupt(v);
                twin.begin_round();
                const Phase phase = static_cast<Phase>(rng.below(5));
                const MsgKind kind = rng.bernoulli(0.5) ? MsgKind::Vote1 : MsgKind::Vote2;
                const std::size_t nw = net::kern::word_count(n);
                const std::vector<std::uint64_t> byz = byz_words_of(twin.words);
                for (std::size_t w = 0; w < nw; ++w) {
                    const unsigned width = static_cast<unsigned>(std::min<NodeId>(64, n - w * 64));
                    const std::uint64_t in_range =
                        width == 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << width) - 1;
                    net::RoundBuffer::SendWord sw;
                    sw.present = iter == 0 ? 0 : rng() & rng() & in_range & ~byz[w];
                    sw.present |= iter == 0 ? 0 : (rng() & in_range & ~byz[w]);
                    sw.val = rng();
                    sw.flag = rng();
                    sw.coin_pos = rng() & rng();
                    sw.coin_neg = rng() & ~sw.coin_pos;
                    twin.send(w, kind, iter == 2 && w == nw - 1 ? phase + 1 : phase, sw);
                }
                if (iter == 1) {
                    for (NodeId v = 0; v < n; ++v) {
                        if (const Message* m = twin.words.broadcast(v)) {
                            twin.words.set_broadcast(v, *m);
                            break;
                        }
                    }
                }
                // The adversary beat: corruptions after the send, then rows
                // of every shape, some matching the round's query.
                for (int k = 0; k < 6; ++k) {
                    const auto v = static_cast<NodeId>(rng.below(n));
                    if (twin.words.is_honest(v)) twin.corrupt(v);
                }
                std::vector<NodeId> byz_ids;
                for (NodeId v = 0; v < n; ++v)
                    if (!twin.words.is_honest(v)) byz_ids.push_back(v);
                Message forged;
                forged.kind = kind;
                forged.phase = phase;
                forged.flag = static_cast<std::uint8_t>(rng.below(2));
                forged.val = static_cast<Bit>(rng.below(2));
                forged.coin = -1;
                std::vector<NodeId> rowless;
                for (const NodeId u : byz_ids) {
                    const double shape = rng.uniform01();
                    if (shape < 0.3) {
                        Message other = forged;
                        other.val ^= 1;
                        other.phase = rng.bernoulli(0.5) ? phase : phase + 7;
                        const auto boundary = static_cast<NodeId>(rng.below(n + 1));
                        twin.words.apply_pattern(u, &forged, &other, boundary);
                        twin.per_node.apply_pattern(u, &forged, &other, boundary);
                    } else if (shape < 0.5) {
                        const auto to = static_cast<NodeId>(rng.below(n));
                        twin.words.deliver(u, to, forged);
                        twin.per_node.deliver(u, to, forged);
                    } else {
                        rowless.push_back(u);
                    }
                }
                if (rng.bernoulli(0.7)) {  // one shared selector, as the coin split sends it
                    std::vector<std::uint64_t> select(nw);
                    for (auto& word : select) word = rng();
                    Message other = forged;
                    other.coin = 1;
                    twin.words.deliver_select(rowless, forged, other, select);
                    twin.per_node.deliver_select(rowless, forged, other, select);
                }

                net::RoundTally a, b;
                a.rebuild(twin.words, true, &pool);
                b.rebuild(twin.per_node, true, &pool);
                // A single-word round cannot carry a second signature.
                EXPECT_EQ(a.words_adopted(), iter == 2 ? nw == 1 : iter != 1);
                EXPECT_FALSE(b.words_adopted());
                adopted += a.words_adopted();
                declined += !a.words_adopted();
                if (iter == 0) {
                    EXPECT_EQ(a.bucket_count(), 0u);
                    ++empty;
                }
                expect_tallies_eq(a, b, twin.words, {{kind, phase}}, rng, n <= 130);
            }
        }
    }
    EXPECT_GT(adopted, 0u);
    EXPECT_GT(declined, 0u);
    EXPECT_GT(empty, 0u);
}

/// Forwards every virtual to a registry batch and, at each flat receive
/// beat, pins the engine's tally to the pack pass over a copy of the
/// round's deliveries whose honest broadcasts are re-sent one sender at a
/// time (set_broadcast takes a round off the word path).
class WordPinBatch final : public net::BatchProtocol {
public:
    explicit WordPinBatch(std::unique_ptr<net::BatchProtocol> inner) : in_(std::move(inner)) {}

    NodeId n() const override { return in_->n(); }
    void send_all(Round r, net::RoundBuffer& buf) override { in_->send_all(r, buf); }
    void receive_all(Round r, const net::RoundBuffer& buf,
                     const net::RoundTally& tally) override {
        pin(r, buf, tally);
        in_->receive_all(r, buf, tally);
    }
    void receive_all(Round r, const net::RoundBuffer& buf,
                     const net::DeliverySource& src) override {
        in_->receive_all(r, buf, src);
    }
    bool shardable() const override { return in_->shardable(); }
    void send_range(Round r, net::RoundBuffer& buf, NodeId lo, NodeId hi) override {
        in_->send_range(r, buf, lo, hi);
    }
    void receive_prepare(Round r, const net::RoundBuffer& buf,
                         const net::RoundTally& tally) override {
        pin(r, buf, tally);
        in_->receive_prepare(r, buf, tally);
    }
    void receive_range(Round r, const net::RoundBuffer& buf, const net::RoundTally& tally,
                       NodeId lo, NodeId hi) override {
        in_->receive_range(r, buf, tally, lo, hi);
    }
    const std::uint8_t* halted_plane() const override { return in_->halted_plane(); }
    Bit value(NodeId v) const override { return in_->value(v); }
    bool decided(NodeId v) const override { return in_->decided(v); }
    Bit output(NodeId v) const override { return in_->output(v); }
    const Bit* value_plane() const override { return in_->value_plane(); }
    const std::uint8_t* decided_plane() const override { return in_->decided_plane(); }

    std::uint64_t rounds = 0;
    std::uint64_t adopted = 0;

private:
    void pin(Round r, const net::RoundBuffer& buf, const net::RoundTally& tally) {
        ++rounds;
        adopted += tally.words_adopted();
        net::RoundBuffer copy = buf;
        for (NodeId v = 0; v < buf.n(); ++v)
            if (const Message* m = buf.broadcast(v)) copy.set_broadcast(v, *m);
        net::RoundTally ref;
        ref.rebuild(copy, true, nullptr);
        ASSERT_TRUE(!ref.words_adopted() || ref.bucket_count() == 0);
        const Phase p = r / 2;
        expect_tallies_eq(tally, ref, buf, {{MsgKind::Vote1, p}, {MsgKind::Vote2, p}}, rng_,
                          buf.n() <= 100);
    }

    std::unique_ptr<net::BatchProtocol> in_;
    Xoshiro256 rng_{0xA11};
};

TEST(WordSend, EveryRoundOfTheSkeletonMatchesThePackPass) {
    const char* protocols[] = {"ours", "chor-coan", "chor-coan-rushing", "rabin-dealer",
                               "local-coin"};
    const char* adversaries[] = {"static", "worst-case", "crash-random",
                                 "crash-targeted-coin", "chaos", "balancer"};
    std::uint64_t rounds = 0, adopted = 0, cells = 0;
    for (const NodeId n : {NodeId{64}, NodeId{100}, NodeId{4096}}) {
        for (const unsigned shards : {1u, 2u, 8u}) {
            sim::ShardPool pool(shards, 1);
            for (const char* protocol : protocols) {
                for (const char* adversary : adversaries) {
                    sim::Scenario s = sim::Scenario::parse(
                        std::string("protocol=") + protocol + " adversary=" + adversary +
                        " inputs=split n=" + std::to_string(n));
                    const sim::ProtocolEntry& entry =
                        sim::ProtocolRegistry::instance().at(s.protocol);
                    s.t = n == 4096 ? 64 : max_t(entry, n);
                    s.local_coin_phases = 12;
                    if (!sim::compatible(s)) continue;
                    ++cells;
                    SCOPED_TRACE(s.describe() + " shards=" + std::to_string(shards));
                    const sim::ScenarioPlan plan = sim::validate(s);
                    TrialParts parts = trial_parts(plan, 7);
                    ASSERT_NE(parts.bundle.batch, nullptr);
                    parts.cfg.intra = &pool;
                    auto pinned = std::make_unique<WordPinBatch>(std::move(parts.bundle.batch));
                    WordPinBatch& pin = *pinned;
                    net::Engine eng(parts.cfg, std::move(pinned), *parts.adversary);
                    const net::RunResult res = eng.run();
                    rounds += pin.rounds;
                    adopted += pin.adopted;
                    // The decorated, sharded trial is the runner's trial.
                    const sim::TrialResult runner = sim::run_trial(plan, 7);
                    EXPECT_EQ(runner.rounds, res.rounds);
                    EXPECT_EQ(runner.metrics.honest_messages, res.metrics.honest_messages);
                    EXPECT_EQ(runner.metrics.honest_bits, res.metrics.honest_bits);
                    EXPECT_EQ(runner.metrics.byzantine_messages,
                              res.metrics.byzantine_messages);
                    EXPECT_EQ(runner.metrics.corruptions, res.metrics.corruptions);
                }
            }
        }
    }
    EXPECT_GE(cells, 60u) << "registry coverage unexpectedly low";
    EXPECT_EQ(adopted, rounds) << "every skeleton round should arrive as words";
}

// ---------------------------------------------------------------------------
// Uniform-count receive: with no Byzantine delivery matching the vote query
// the skeleton decides once for every receiver.

TEST(UniformReceive, MatchesReferenceDeliveryAndTheAdapter) {
    // Split inputs and three phases: private coins rarely agree in time, so
    // the WhpFixedPhases last-phase halt ends runs, and n % 8 != 0 leaves a
    // per-node tail after the eight-wide updates.
    std::uint64_t exhausted = 0;
    for (const char* protocol : {"local-coin", "rabin-dealer", "ours", "chor-coan"}) {
        for (const char* adversary : {"static", "crash-random", "chaos"}) {
            for (const NodeId n : {NodeId{100}, NodeId{133}}) {
                sim::Scenario s = sim::Scenario::parse(
                    std::string("protocol=") + protocol + " adversary=" + adversary +
                    " inputs=split n=" + std::to_string(n) + " t=" + std::to_string(n / 8));
                s.local_coin_phases = 3;
                if (!sim::compatible(s)) continue;
                SCOPED_TRACE(s.describe());
                const sim::ExecutorConfig serial{1, 0};
                const sim::Aggregate flat = sim::run_trials(s, 0xC0DE, 8, serial);
                sim::Scenario ref = s;
                ref.reference_delivery = true;
                expect_aggregate_eq(flat, sim::run_trials(ref, 0xC0DE, 8, serial));
                sim::Scenario adapter = s;
                adapter.use_batch = false;
                expect_aggregate_eq(flat, sim::run_trials(adapter, 0xC0DE, 8, serial));
                if (std::string(protocol) == "local-coin")
                    for (const double r : flat.rounds.values()) exhausted += r == 6.0;
            }
        }
    }
    EXPECT_GT(exhausted, 0u) << "no run reached the last-phase halt";
}

/// One skeleton batch stepped by hand over its own buffer and tally.
struct HandStepped {
    HandStepped(const core::SkeletonConfig& cfg, core::BatchCoinSpec coin,
                const std::vector<Bit>& inputs)
        : batch(cfg, std::move(coin), inputs, SeedTree(11)) {
        buf.reset(cfg.n);
    }
    core::SkeletonBatch batch;
    net::RoundBuffer buf;
    net::RoundTally tally;
};

TEST(UniformReceive, DeltaPathAgreesWhenDeltasMissEveryLiveReceiver) {
    // Twin batches over the same rounds. In the second, a Byzantine sender
    // delivers a matching vote to itself only: the delta plane exists, so
    // the per-node path runs, yet every live receiver's counts equal the
    // uniform twin's. Values, decided bits, halts and Local-coin draws must
    // agree round by round.
    const NodeId n = 203;
    const core::SkeletonConfig cfg{n, 20, 4, core::AgreementMode::WhpFixedPhases};
    std::vector<Bit> inputs(n);
    for (NodeId v = 0; v < n; ++v) inputs[v] = static_cast<Bit>(v % 2);
    for (const auto kind : {core::BatchCoinSpec::Kind::Local, core::BatchCoinSpec::Kind::Dealer}) {
        core::BatchCoinSpec coin;
        coin.kind = kind;
        coin.dealer = [](Phase p) { return static_cast<Bit>(p % 2); };
        HandStepped uniform(cfg, coin, inputs), delta(cfg, coin, inputs);
        std::uint64_t delta_rounds = 0;
        for (Round r = 0; r < 2 * cfg.phases; ++r) {
            SCOPED_TRACE("round " + std::to_string(r));
            const NodeId byz = 17 * r + 5;
            for (HandStepped* h : {&uniform, &delta}) {
                h->buf.begin_round();
                h->batch.send_all(r, h->buf);
                if (h->buf.is_honest(byz) && !h->batch.halted_plane()[byz]) h->buf.corrupt(byz);
            }
            Message m;
            m.kind = r % 2 ? MsgKind::Vote2 : MsgKind::Vote1;
            m.phase = r / 2;
            m.flag = 1;
            if (!delta.buf.is_honest(byz)) delta.buf.deliver(byz, byz, m);
            for (HandStepped* h : {&uniform, &delta}) {
                h->tally.rebuild(h->buf, true, nullptr);
                h->batch.receive_all(r, h->buf, h->tally);
            }
            EXPECT_EQ(uniform.tally.val_delta_plane(m.kind, m.phase, r % 2 != 0), nullptr);
            delta_rounds += delta.tally.val_delta_plane(m.kind, m.phase, r % 2 != 0) != nullptr;
            for (NodeId v = 0; v < n; ++v) {
                ASSERT_EQ(uniform.batch.value(v), delta.batch.value(v)) << v;
                ASSERT_EQ(uniform.batch.decided(v), delta.batch.decided(v)) << v;
                ASSERT_EQ(uniform.batch.halted_plane()[v], delta.batch.halted_plane()[v]) << v;
            }
        }
        EXPECT_GT(delta_rounds, 0u);
        // The last-phase halt fired for every node still running.
        for (NodeId v = 0; v < n; ++v) {
            if (uniform.buf.is_honest(v)) {
                EXPECT_EQ(uniform.batch.halted_plane()[v], 1) << v;
            }
        }
    }
}

TEST(UniformReceive, ContractsFireOnlyWithALiveReceiver) {
    // Round 2 with honest decided votes split 32/32 and t = 31: both values
    // reach t+1, which Lemma 3 forbids. Receivers [64, 128) are all
    // Byzantine, so that range must step without a word; [0, 64) has live
    // receivers and must throw.
    const NodeId n = 128;
    const core::SkeletonConfig cfg{n, 31, 4, core::AgreementMode::WhpFixedPhases};
    core::BatchCoinSpec coin;
    coin.kind = core::BatchCoinSpec::Kind::Local;
    HandStepped h(cfg, coin, std::vector<Bit>(n, 0));
    for (NodeId v = 64; v < n; ++v) h.buf.corrupt(v);
    h.buf.begin_round();
    net::RoundBuffer::SendWord votes;
    votes.present = ~std::uint64_t{0};
    votes.val = 0xFFFFFFFF00000000ULL;
    votes.flag = ~std::uint64_t{0};
    h.buf.set_word(0, MsgKind::Vote2, 0, votes);
    h.buf.set_word(1, MsgKind::Vote2, 0, net::RoundBuffer::SendWord{});
    h.tally.rebuild(h.buf, true, nullptr);
    ASSERT_TRUE(h.tally.words_adopted());
    h.batch.receive_prepare(1, h.buf, h.tally);
    EXPECT_NO_THROW(h.batch.receive_range(1, h.buf, h.tally, 64, n));
    try {
        h.batch.receive_range(1, h.buf, h.tally, 0, 64);
        ADD_FAILURE() << "Lemma 3 violation went unreported";
    } catch (const ContractViolation& e) {
        EXPECT_NE(std::string(e.what()).find("Lemma 3"), std::string::npos) << e.what();
    }
}

// ---------------------------------------------------------------------------
// Metrics: honest fanout excludes receivers that already terminated.

TEST(DeliveryPlaneMetrics, FanoutExcludesHaltedReceivers) {
    // Node v halts after round v+1's deliveries, so round r has (4 - r) live
    // senders and r halted receivers: fanout per sender is 3 - r.
    //   round 0: 4 senders x 3 = 12      round 2: 2 x 1 = 2
    //   round 1: 3 senders x 2 = 6       round 3: 1 x 0 = 0
    net::NullAdversary adv;
    std::vector<std::unique_ptr<net::HonestNode>> nodes;
    for (NodeId v = 0; v < 4; ++v) nodes.push_back(std::make_unique<InboxNode>(v, v + 1));
    net::Engine eng({4, 0, 8, false}, std::move(nodes), adv);
    const net::RunResult res = eng.run();
    EXPECT_TRUE(res.all_halted);
    EXPECT_EQ(res.rounds, 4u);
    EXPECT_EQ(res.metrics.honest_messages, 20u);
    // Vote1 at n=4 is 8 + ceil(log2 5) = 11 bits on the wire.
    EXPECT_EQ(res.metrics.honest_bits, 20u * 11u);
}

TEST(DeliveryPlaneMetrics, UniformLifetimesKeepFullFanout) {
    // No one halts before the last delivery beat: accounting must match the
    // classic n*(n-1) per round exactly (regression guard for the halted-
    // receiver fix not over-subtracting).
    net::NullAdversary adv;
    net::Engine eng({5, 0, 3, false}, inbox_nodes(5, 3, nullptr), adv);
    const net::RunResult res = eng.run();
    EXPECT_EQ(res.metrics.honest_messages, 3u * 5u * 4u);
}

// ---------------------------------------------------------------------------
// Engine reuse: reset() + take_nodes() must reproduce a fresh engine's run.

TEST(DeliveryPlaneReuse, ResetDropsTheObserver) {
    net::NullAdversary adv;
    net::Engine eng({3, 0, 2, false}, inbox_nodes(3, 2, nullptr), adv);
    int fired = 0;
    eng.set_round_observer([&](Round, const auto&, const auto&) { ++fired; });
    eng.run();
    EXPECT_EQ(fired, 2);
    // A pooled engine must not replay run-A's observer on run-B's state.
    eng.reset({3, 0, 2, false}, inbox_nodes(3, 2, nullptr), adv);
    eng.run();
    EXPECT_EQ(fired, 2);
}

TEST(DeliveryPlaneReuse, EngineResetReproducesFreshRun) {
    const auto mk = [] {
        sim::Scenario s;
        s.protocol = sim::ProtocolKind::Ours;
        s.adversary = sim::AdversaryKind::Static;
        s.n = 20;
        s.t = 6;
        return s;
    };
    // Two one-shot runs with the same seed agree...
    const sim::TrialResult a = sim::run_trial(mk(), 99);
    const sim::TrialResult b = sim::run_trial(mk(), 99);
    EXPECT_EQ(a.rounds, b.rounds);
    EXPECT_EQ(a.metrics.honest_messages, b.metrics.honest_messages);
    // ...and a pooled sequence seeded identically at index 0 matches too
    // (run_trials routes through Engine::reset + reinit_nodes).
    const sim::Aggregate agg = sim::run_trials(mk(), 99, 3, {1, 0});
    EXPECT_EQ(agg.rounds.values()[0],
              static_cast<double>(sim::run_trial(mk(), mix64(99)).rounds));
}

}  // namespace
}  // namespace adba
