#include "core/skeleton_batch.hpp"

#include <algorithm>

#include "support/contracts.hpp"

namespace adba::core {

SkeletonBatch::SkeletonBatch(const SkeletonConfig& cfg, BatchCoinSpec coin,
                             const std::vector<Bit>& inputs, const SeedTree& seeds) {
    rearm(cfg, std::move(coin), inputs, seeds);
}

void SkeletonBatch::rearm(const SkeletonConfig& cfg, BatchCoinSpec coin,
                          const std::vector<Bit>& inputs, const SeedTree& seeds) {
    // Same contracts as RabinSkeletonNode::reinit, checked once for the
    // whole population.
    ADBA_EXPECTS(cfg.n > 0);
    ADBA_EXPECTS_MSG(3 * static_cast<std::uint64_t>(cfg.t) < cfg.n, "requires t < n/3");
    ADBA_EXPECTS(cfg.phases >= 1);
    ADBA_EXPECTS(inputs.size() == cfg.n);
    if (coin.kind == BatchCoinSpec::Kind::Dealer) ADBA_EXPECTS(coin.dealer != nullptr);
    cfg_ = cfg;
    coin_ = std::move(coin);
    const NodeId n = cfg_.n;
    val_.assign(inputs.begin(), inputs.end());
    for (NodeId v = 0; v < n; ++v) ADBA_EXPECTS(val_[v] <= 1);
    decided_.assign(n, 0);
    finish_.assign(n, 0);
    flushing_.assign(n, 0);
    halted_.assign(n, 0);
    // Per-node streams identical to the per-node constructors': stream
    // (NodeProtocol, v), consumed in ascending node order each beat.
    rng_.clear();
    rng_.reserve(n);
    for (NodeId v = 0; v < n; ++v)
        rng_.push_back(seeds.stream(StreamPurpose::NodeProtocol, v));
}

void SkeletonBatch::send_all(Round r, net::RoundBuffer& buf) {
    send_range(r, buf, 0, cfg_.n);
}

void SkeletonBatch::send_range(Round r, net::RoundBuffer& buf, NodeId lo, NodeId hi) {
    constexpr NodeId kWord = net::kern::kWordBits;
    ADBA_EXPECTS_MSG(lo % kWord == 0 && (hi % kWord == 0 || hi == cfg_.n),
                     "send ranges are word-aligned");
    const Phase p = r / 2;
    const bool round2 = (r % 2) != 0;
    const net::MsgKind kind = round2 ? net::MsgKind::Vote2 : net::MsgKind::Vote1;
    const std::uint8_t* state = buf.state_plane();

    // Committee membership is an ID range; hoist it out of the node loop
    // (BlockSchedule::flips_in_phase is exactly this range test).
    NodeId flip_first = 0, flip_last = 0;
    if (round2 && coin_.kind == BatchCoinSpec::Kind::Committee) {
        const auto range =
            coin_.schedule.range(coin_.schedule.committee_of_phase(p));
        flip_first = range.first;
        flip_last = range.second;
    }

    // One 64-sender word at a time, eight nodes per step: the byte planes
    // are read eight bytes at once and their 0/1 bytes gathered into the
    // word's presence, value and decided bits — no branch per node. Shards
    // own disjoint words. Raw plane pointers: a byte store may alias any
    // member.
    using net::kern::gather_low_bits8;
    using net::kern::kByteLowBits;
    using net::kern::load_bytes8;
    const Bit* val = val_.data();
    const std::uint8_t* decided = decided_.data();
    const std::uint8_t* flushing = flushing_.data();
    std::uint8_t* halted = halted_.data();
    for (NodeId v0 = lo; v0 < hi; v0 += kWord) {
        const NodeId v1 = std::min<NodeId>(hi, v0 + kWord);
        net::RoundBuffer::SendWord sw;
        NodeId v = v0;
        for (; v + 8 <= v1; v += 8) {
            // kByzantine is bit 1 of a state byte; halted bytes are 0/1.
            const std::uint64_t dead =
                ((load_bytes8(state + v) >> 1) | load_bytes8(halted + v)) & kByteLowBits;
            const std::uint64_t live = dead ^ kByteLowBits;
            const unsigned i = v - v0;
            sw.present |= gather_low_bits8(live) << i;
            sw.val |= gather_low_bits8(load_bytes8(val + v)) << i;
            sw.flag |= gather_low_bits8(load_bytes8(decided + v)) << i;
            // A flushing node's second flush broadcast is this one: halt.
            if (round2)
                net::kern::store_bytes8(halted + v, load_bytes8(halted + v) |
                                                        (live & load_bytes8(flushing + v)));
        }
        for (; v < v1; ++v) {  // the last word's tail when n % 8 != 0
            const std::uint64_t live =
                ((state[v] & net::RoundBuffer::kByzantine) | halted[v]) == 0;
            const unsigned i = v - v0;
            sw.present |= live << i;
            sw.val |= std::uint64_t{val[v]} << i;
            sw.flag |= std::uint64_t{decided[v]} << i;
            if (round2) halted[v] |= static_cast<std::uint8_t>(live) & flushing[v];
        }
        // The committee is the only part that draws: flip regardless of
        // this node's own case, before any round-2 delivery is seen
        // (Lemma 5 independence). Stream v is private to v, so a shard
        // draws exactly what the serial sweep would.
        const NodeId c1 = std::min(v1, flip_last);
        for (NodeId v = std::max(v0, flip_first); v < c1; ++v) {
            const std::uint64_t bit = std::uint64_t{1} << (v - v0);
            if ((sw.present & bit) == 0) continue;
            if (rng_[v].sign() > 0)
                sw.coin_pos |= bit;
            else
                sw.coin_neg |= bit;
        }
        buf.set_word(v0 / kWord, kind, p, sw);
    }
}

SkeletonBatch::Step SkeletonBatch::step(bool round2, const std::array<Count, 2>& cnt,
                                        bool checked) const {
    const Count quorum = cfg_.n - cfg_.t;
    Step s;
    if (!round2) {
        ADBA_ENSURES_MSG(!(cnt[0] >= quorum && cnt[1] >= quorum),
                         "two n-t quorums cannot coexist (t < n/3)");
        if (cnt[0] >= quorum || cnt[1] >= quorum) {
            s.val = cnt[0] >= quorum ? Bit{0} : Bit{1};
            s.decided = 1;
        } else {
            s.keep = 1;
        }
        return s;
    }
    const Count supermin = cfg_.t + 1;
    if (checked) {
        ADBA_ENSURES_MSG(!(cnt[0] >= supermin && cnt[1] >= supermin),
                         "Lemma 3 violated: decided quorums for both values");
    }
    for (Bit b : {Bit{0}, Bit{1}}) {
        if (cnt[b] >= quorum) {
            s.val = b;
            s.decided = 1;
            s.finish = 1;
            return s;
        }
    }
    for (Bit b : {Bit{0}, Bit{1}}) {
        if (cnt[b] >= supermin) {
            s.val = b;
            s.decided = 1;
            return s;
        }
    }
    s.coin = 1;
    return s;
}

template <bool kUniform, typename CountsFn, typename CoinFn>
void SkeletonBatch::step_range(Round r, const std::uint8_t* state, NodeId lo, NodeId hi,
                               bool checked, CountsFn&& counts, CoinFn&& coin) {
    const Phase p = r / 2;
    const std::uint8_t round2 = (r % 2) != 0;
    // Post-round-2 wrapper: a finisher starts its flush; otherwise the last
    // fixed phase halts the node. Round 1 does neither (s.finish is 0 there).
    const std::uint8_t last_phase =
        round2 && cfg_.mode == AgreementMode::WhpFixedPhases && p + 1 == cfg_.phases;
    // Raw plane pointers: a byte store may alias any member.
    Bit* val = val_.data();
    std::uint8_t* decided = decided_.data();
    std::uint8_t* finish = finish_.data();
    std::uint8_t* flushing = flushing_.data();
    std::uint8_t* halted = halted_.data();
    const auto live_at = [=](NodeId v) -> std::uint8_t {
        return ((state[v] & net::RoundBuffer::kByzantine) | halted[v] | flushing[v]) == 0;
    };

    NodeId v = lo;
    Step uniform;
    // Fixed case-3 coins ride the eight-byte plane update below; the other
    // coin forms (draws, per-receiver sums) are written first, per node.
    bool coin_bytes = false;
    if constexpr (kUniform) {
        while (v < hi && !live_at(v)) ++v;
        if (v == hi) return;  // no live receiver: nothing to write or check
        uniform = step(round2, counts(v), checked);
        coin_bytes = uniform.coin && coin.form == PreparedCoin::Form::Fixed;
        // Case 3 everywhere: the coins go first, in ascending order, so the
        // plane updates below carry no calls.
        if (uniform.coin && !coin_bytes)
            for (NodeId u = v; u < hi; ++u)
                if (live_at(u)) val[u] = coin(u);
        // Eight receivers per step: the same updates as the per-node loop
        // below, on eight plane bytes at once (all bytes are 0/1; state's
        // kByzantine is bit 1).
        using namespace net::kern;
        const std::uint64_t val_to = uniform.val * kByteLowBits;
        const std::uint64_t decided_to = uniform.decided * kByteLowBits;
        const std::uint64_t finish_to = uniform.finish * kByteLowBits;
        const std::uint64_t set_val =
            uniform.keep || (uniform.coin && !coin_bytes) ? 0 : kByteLowBits;
        const std::uint64_t flush_on = round2 * kByteLowBits;
        const std::uint64_t halt_on = last_phase * kByteLowBits;
        for (; v + 8 <= hi; v += 8) {
            const std::uint64_t live = ~((load_bytes8(state + v) >> 1) |
                                         load_bytes8(halted + v) | load_bytes8(flushing + v)) &
                                       kByteLowBits;
            const std::uint64_t on = live * 0xFF;
            const std::uint64_t val_on = (live & set_val) * 0xFF;
            const std::uint64_t to = coin_bytes ? coin.bytes8(v) : val_to;
            store_bytes8(val + v, (load_bytes8(val + v) & ~val_on) | (to & val_on));
            store_bytes8(decided + v, (load_bytes8(decided + v) & ~on) | (decided_to & on));
            const std::uint64_t fin = load_bytes8(finish + v) | (live & finish_to);
            store_bytes8(finish + v, fin);
            store_bytes8(flushing + v, load_bytes8(flushing + v) | (live & fin & flush_on));
            store_bytes8(halted + v, load_bytes8(halted + v) | (live & ~fin & halt_on));
        }
    }
    for (; v < hi; ++v) {
        if (!live_at(v)) continue;
        const Step s = kUniform ? uniform : step(round2, counts(v), checked);
        if (s.coin) {
            if (!kUniform || coin_bytes) val[v] = coin(v);  // else written above
        } else if (!s.keep) {
            val[v] = s.val;
        }
        decided[v] = s.decided;
        finish[v] |= s.finish;
        flushing[v] |= round2 & finish[v];
        halted[v] |= (finish[v] ^ 1) & last_phase;
    }
}

Bit SkeletonBatch::PreparedCoin::operator()(NodeId v) const {
    switch (form) {
        case Form::Fixed:
            return fixed[select != nullptr ? net::kern::bit_at(select, v) : 0];
        case Form::Sums:
            // The honest committee sum is receiver-independent and hoisted;
            // only the Byzantine delta varies per receiver.
            return honest + delta[v] >= 0 ? Bit{1} : Bit{0};
        case Form::Draw:
            return rng[v].bit();
    }
    return Bit{0};  // unreachable: all forms handled above
}

std::uint64_t SkeletonBatch::PreparedCoin::bytes8(NodeId v) const {
    using namespace net::kern;
    std::uint64_t bits = 0;
    if (select != nullptr) {
        // Receivers v..v+7 may straddle two selector words.
        const std::size_t w = v / kWordBits;
        const unsigned s = v % kWordBits;
        bits = select[w] >> s;
        if (s > kWordBits - 8) bits |= select[w + 1] << (kWordBits - s);
    }
    const std::uint64_t ones = scatter_low_bits8(bits);
    return (ones & (fixed[1] * kByteLowBits)) | (~ones & (fixed[0] * kByteLowBits));
}

void SkeletonBatch::prepare_coin(Round r, const net::RoundTally& tally) {
    const Phase p = r / 2;
    PreparedCoin c;
    c.rng = rng_.data();
    if ((r % 2) != 0 && coin_.kind == BatchCoinSpec::Kind::Dealer) {
        // Dealer coins are pure functions of the phase: one read serves all.
        c.form = PreparedCoin::Form::Fixed;
        c.fixed[0] = c.fixed[1] = coin_.dealer(p);
    } else if ((r % 2) != 0 && coin_.kind == BatchCoinSpec::Kind::Committee) {
        const auto range = coin_.schedule.range(coin_.schedule.committee_of_phase(p));
        for (std::size_t i = 0; i < tally.bucket_count(); ++i) {
            const net::TallyBucket& cb = tally.bucket(i);
            if (cb.kind != net::MsgKind::Vote2 || cb.phase != p) continue;
            c.honest += tally.coin_range_sum(cb, range.first, range.second);
        }
        // Byzantine deltas that take at most two values (none, or one
        // selector's) fix the coin per selector bit; any others come as a
        // per-receiver plane, and a null plane means no delta at all.
        const auto two = tally.coin_delta_select(net::MsgKind::Vote2, p, /*check_phase=*/true,
                                                 range.first, range.second);
        c.delta = two ? nullptr
                      : tally.coin_delta_plane(net::MsgKind::Vote2, p, /*check_phase=*/true,
                                               range.first, range.second);
        c.form = c.delta != nullptr ? PreparedCoin::Form::Sums : PreparedCoin::Form::Fixed;
        if (two) c.select = two->select;
        for (int b = 0; b < 2; ++b)
            c.fixed[b] = c.honest + (two ? two->delta[b] : 0) >= 0 ? Bit{1} : Bit{0};
    }
    prep_coin_ = c;
}

void SkeletonBatch::receive_all(Round r, const net::RoundBuffer& buf,
                                const net::RoundTally& tally) {
    receive_prepare(r, buf, tally);
    receive_range(r, buf, tally, 0, cfg_.n);
}

void SkeletonBatch::receive_prepare(Round r, const net::RoundBuffer&,
                                    const net::RoundTally& tally) {
    const Phase p = r / 2;
    const bool round2 = (r % 2) != 0;
    const net::MsgKind kind = round2 ? net::MsgKind::Vote2 : net::MsgKind::Vote1;
    const net::TallyBucket* b = tally.find(kind, p);
    prep_base_ = {0, 0};
    if (b != nullptr) prep_base_ = round2 ? b->val_flag_cnt : b->val_cnt;
    prep_delta_ = tally.val_delta_plane(kind, p, /*require_flag=*/round2);
    prepare_coin(r, tally);
}

void SkeletonBatch::receive_range(Round r, const net::RoundBuffer& buf,
                                  const net::RoundTally& /*tally*/, NodeId lo,
                                  NodeId hi) {
    // One shared honest histogram serves every receiver; a delta plane
    // exists only when some Byzantine delivery matches the vote query.
    const std::uint8_t* state = buf.state_plane();
    if (prep_delta_ == nullptr) {
        step_range<true>(
            r, state, lo, hi, /*checked=*/true, [&](NodeId) { return prep_base_; },
            PreparedCoin(prep_coin_));
        return;
    }
    step_range<false>(
        r, state, lo, hi, /*checked=*/true,
        [&](NodeId v) {
            return std::array<Count, 2>{prep_base_[0] + prep_delta_[v][0],
                                        prep_base_[1] + prep_delta_[v][1]};
        },
        PreparedCoin(prep_coin_));
}

void SkeletonBatch::receive_sparse_prepare(Round r, const net::RoundBuffer&,
                                           const net::RoundTally& tally,
                                           const net::SparsePlane& sparse) {
    const Phase p = r / 2;
    const bool round2 = (r % 2) != 0;
    const net::MsgKind kind = round2 ? net::MsgKind::Vote2 : net::MsgKind::Vote1;
    prep_sparse_query_ = sparse.query(kind, p, /*require_flag=*/round2);
    // The committee coin is the sparse plane's exact island: the sender
    // range is the paper's committee, so every receiver hears it in full
    // through the shared tally — the same hoist receive_prepare does, and
    // the same integers at any sampling degree.
    prepare_coin(r, tally);
}

void SkeletonBatch::receive_sparse_range(Round r, const net::RoundBuffer& buf,
                                         const net::RoundTally&,
                                         const net::SparsePlane& sparse, NodeId lo,
                                         NodeId hi) {
    // Round 1 keeps its assertion even under sampling: two n-t estimates
    // cannot coexist (est0 + est1 <= n + 1 < 2(n-t) for t < n/3). Lemma 3
    // stays armed only where the estimates are the exact counts.
    step_range<false>(
        r, buf.state_plane(), lo, hi, /*checked=*/sparse.dense(),
        [&](NodeId v) { return sparse.val_estimates(prep_sparse_query_, v); },
        PreparedCoin(prep_coin_));
}

void SkeletonBatch::receive_all(Round r, const net::RoundBuffer& buf,
                                const net::DeliverySource& src) {
    // Oracle path: per-node ReceiveView queries — the executable spec of
    // the hoisted receive above, pinned equal by the equivalence tests.
    const Phase p = r / 2;
    const bool round2 = (r % 2) != 0;
    const net::MsgKind kind = round2 ? net::MsgKind::Vote2 : net::MsgKind::Vote1;
    step_range<false>(
        r, buf.state_plane(), 0, cfg_.n, /*checked=*/true,
        [&](NodeId v) { return net::ReceiveView(src, v).val_counts(kind, p, round2); },
        [&](NodeId v) -> Bit {
            switch (coin_.kind) {
                case BatchCoinSpec::Kind::Committee: {
                    const auto range =
                        coin_.schedule.range(coin_.schedule.committee_of_phase(p));
                    return committee_coin_sum(net::ReceiveView(src, v), p, range.first,
                                              range.second) >= 0
                               ? Bit{1}
                               : Bit{0};
                }
                case BatchCoinSpec::Kind::Dealer:
                    return coin_.dealer(p);
                case BatchCoinSpec::Kind::Local:
                    return rng_[v].bit();
            }
            return Bit{0};  // unreachable: all kinds handled above
        });
}

}  // namespace adba::core
