#include "core/skeleton_batch.hpp"

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
    const Phase p = r / 2;
    const bool round2 = (r % 2) != 0;
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

    net::Message m;
    m.phase = p;
    m.kind = round2 ? net::MsgKind::Vote2 : net::MsgKind::Vote1;
    for (NodeId v = lo; v < hi; ++v) {
        if ((state[v] & net::RoundBuffer::kByzantine) != 0 || halted_[v]) continue;
        m.val = val_[v];
        m.flag = decided_[v] ? 1 : 0;
        m.coin = 0;
        if (round2) {
            // Flip regardless of this node's own case: the flip is drawn
            // before any round-2 delivery is seen (Lemma 5 independence).
            // Stream v is private to v, so a shard draws exactly what the
            // serial sweep would.
            if (v >= flip_first && v < flip_last) m.coin = rng_[v].sign();
            if (flushing_[v]) halted_[v] = 1;  // second flush broadcast done
        }
        buf.set_broadcast(v, m);
    }
}

void SkeletonBatch::apply_round1(NodeId v, const std::array<Count, 2>& cnt) {
    const Count quorum = cfg_.n - cfg_.t;
    ADBA_ENSURES_MSG(!(cnt[0] >= quorum && cnt[1] >= quorum),
                     "two n-t quorums cannot coexist (t < n/3)");
    if (cnt[0] >= quorum) {
        val_[v] = 0;
        decided_[v] = 1;
    } else if (cnt[1] >= quorum) {
        val_[v] = 1;
        decided_[v] = 1;
    } else {
        decided_[v] = 0;
    }
}

template <typename CoinFn>
void SkeletonBatch::apply_round2(NodeId v, const std::array<Count, 2>& cnt_dec,
                                 bool checked, CoinFn&& coin) {
    const Count quorum = cfg_.n - cfg_.t;
    const Count supermin = cfg_.t + 1;
    if (checked) {
        ADBA_ENSURES_MSG(!(cnt_dec[0] >= supermin && cnt_dec[1] >= supermin),
                         "Lemma 3 violated: decided quorums for both values");
    }
    for (Bit b : {Bit{0}, Bit{1}}) {
        if (cnt_dec[b] >= quorum) {
            val_[v] = b;
            decided_[v] = 1;
            finish_[v] = 1;
            return;
        }
    }
    for (Bit b : {Bit{0}, Bit{1}}) {
        if (cnt_dec[b] >= supermin) {
            val_[v] = b;
            decided_[v] = 1;
            return;
        }
    }
    val_[v] = coin();
    decided_[v] = 0;
}

void SkeletonBatch::apply_phase_end(NodeId v, Phase p) {
    if (finish_[v]) {
        // Broadcast (val, decided=true) through one more full phase, then
        // halt (the skeleton's finish flush).
        flushing_[v] = 1;
    } else if (cfg_.mode == AgreementMode::WhpFixedPhases && p + 1 == cfg_.phases) {
        halted_[v] = 1;
    }
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
    prep_honest_coin_ = 0;
    prep_coin_delta_ = nullptr;
    if (round2 && coin_.kind == BatchCoinSpec::Kind::Committee) {
        // Eager committee-coin hoist: the tally's lazy caches must not be
        // built from concurrent shards, so prepare pays for them up front
        // even when no node lands in case 3 — a cache build only, not an
        // observable draw (coin values are unchanged).
        const auto range = coin_.schedule.range(coin_.schedule.committee_of_phase(p));
        for (std::size_t i = 0; i < tally.bucket_count(); ++i) {
            const net::TallyBucket& cb = tally.bucket(i);
            if (cb.kind != net::MsgKind::Vote2 || cb.phase != p) continue;
            prep_honest_coin_ += tally.coin_range_sum(cb, range.first, range.second);
        }
        prep_coin_delta_ =
            tally.coin_delta_plane(net::MsgKind::Vote2, p, /*check_phase=*/true,
                                   range.first, range.second);
    }
}

void SkeletonBatch::receive_range(Round r, const net::RoundBuffer& buf,
                                  const net::RoundTally& /*tally*/, NodeId lo,
                                  NodeId hi) {
    const Phase p = r / 2;
    const std::uint8_t* state = buf.state_plane();
    const auto skip = [&](NodeId v) {
        return (state[v] & net::RoundBuffer::kByzantine) != 0 || halted_[v] ||
               flushing_[v];
    };

    if ((r % 2) == 0) {
        // Round 1: one shared honest histogram + one delta plane serve all
        // receivers; the per-node work is two adds and the threshold test.
        for (NodeId v = lo; v < hi; ++v) {
            if (skip(v)) continue;
            std::array<Count, 2> cnt = prep_base_;
            if (prep_delta_ != nullptr) {
                cnt[0] += prep_delta_[v][0];
                cnt[1] += prep_delta_[v][1];
            }
            apply_round1(v, cnt);
        }
        return;
    }

    // Round 2: decided counts the same way; the committee coin's honest
    // contribution is receiver-independent and already hoisted by
    // receive_prepare, so only the Byzantine delta varies per receiver.
    for (NodeId v = lo; v < hi; ++v) {
        if (skip(v)) continue;
        std::array<Count, 2> cnt = prep_base_;
        if (prep_delta_ != nullptr) {
            cnt[0] += prep_delta_[v][0];
            cnt[1] += prep_delta_[v][1];
        }
        apply_round2(v, cnt, /*checked=*/true, [&]() -> Bit {
            switch (coin_.kind) {
                case BatchCoinSpec::Kind::Committee: {
                    const std::int64_t sum =
                        prep_honest_coin_ +
                        (prep_coin_delta_ != nullptr ? prep_coin_delta_[v] : 0);
                    return sum >= 0 ? Bit{1} : Bit{0};
                }
                case BatchCoinSpec::Kind::Dealer:
                    return coin_.dealer(p);
                case BatchCoinSpec::Kind::Local:
                    return rng_[v].bit();
            }
            return Bit{0};  // unreachable: all kinds handled above
        });
        apply_phase_end(v, p);
    }
}

void SkeletonBatch::receive_sparse_prepare(Round r, const net::RoundBuffer&,
                                           const net::RoundTally& tally,
                                           const net::SparsePlane& sparse) {
    const Phase p = r / 2;
    const bool round2 = (r % 2) != 0;
    const net::MsgKind kind = round2 ? net::MsgKind::Vote2 : net::MsgKind::Vote1;
    prep_sparse_query_ = sparse.query(kind, p, /*require_flag=*/round2);
    prep_honest_coin_ = 0;
    prep_coin_delta_ = nullptr;
    if (round2 && coin_.kind == BatchCoinSpec::Kind::Committee) {
        // The committee coin is the sparse plane's exact island: the sender
        // range is the paper's committee, so every receiver hears it in
        // full through the shared tally — the same hoist receive_prepare
        // does, and the same integers at any sampling degree.
        const auto range = coin_.schedule.range(coin_.schedule.committee_of_phase(p));
        for (std::size_t i = 0; i < tally.bucket_count(); ++i) {
            const net::TallyBucket& cb = tally.bucket(i);
            if (cb.kind != net::MsgKind::Vote2 || cb.phase != p) continue;
            prep_honest_coin_ += tally.coin_range_sum(cb, range.first, range.second);
        }
        prep_coin_delta_ =
            tally.coin_delta_plane(net::MsgKind::Vote2, p, /*check_phase=*/true,
                                   range.first, range.second);
    }
}

void SkeletonBatch::receive_sparse_range(Round r, const net::RoundBuffer& buf,
                                         const net::RoundTally&,
                                         const net::SparsePlane& sparse, NodeId lo,
                                         NodeId hi) {
    const Phase p = r / 2;
    const std::uint8_t* state = buf.state_plane();
    const auto skip = [&](NodeId v) {
        return (state[v] & net::RoundBuffer::kByzantine) != 0 || halted_[v] ||
               flushing_[v];
    };

    if ((r % 2) == 0) {
        // Round 1: two n-t estimates cannot coexist even under sampling
        // (est0 + est1 <= n + 1 < 2(n-t) for t < n/3), so apply_round1's
        // assertion needs no relaxation.
        for (NodeId v = lo; v < hi; ++v) {
            if (skip(v)) continue;
            apply_round1(v, sparse.val_estimates(prep_sparse_query_, v));
        }
        return;
    }

    for (NodeId v = lo; v < hi; ++v) {
        if (skip(v)) continue;
        const std::array<Count, 2> cnt = sparse.val_estimates(prep_sparse_query_, v);
        apply_round2(v, cnt, /*checked=*/sparse.dense(), [&]() -> Bit {
            switch (coin_.kind) {
                case BatchCoinSpec::Kind::Committee: {
                    const std::int64_t sum =
                        prep_honest_coin_ +
                        (prep_coin_delta_ != nullptr ? prep_coin_delta_[v] : 0);
                    return sum >= 0 ? Bit{1} : Bit{0};
                }
                case BatchCoinSpec::Kind::Dealer:
                    return coin_.dealer(p);
                case BatchCoinSpec::Kind::Local:
                    return rng_[v].bit();
            }
            return Bit{0};  // unreachable: all kinds handled above
        });
        apply_phase_end(v, p);
    }
}

void SkeletonBatch::receive_all(Round r, const net::RoundBuffer& buf,
                                const net::DeliverySource& src) {
    // Oracle path: per-node ReceiveView queries — the executable spec of
    // the vectorized receive above, pinned equal by the equivalence tests.
    const Phase p = r / 2;
    const NodeId n = cfg_.n;
    const std::uint8_t* state = buf.state_plane();
    for (NodeId v = 0; v < n; ++v) {
        if ((state[v] & net::RoundBuffer::kByzantine) != 0 || halted_[v] ||
            flushing_[v])
            continue;
        const net::ReceiveView view(src, v);
        if ((r % 2) == 0) {
            apply_round1(v, view.val_counts(net::MsgKind::Vote1, p, false));
        } else {
            apply_round2(v, view.val_counts(net::MsgKind::Vote2, p, true),
                         /*checked=*/true, [&]() -> Bit {
                             switch (coin_.kind) {
                                 case BatchCoinSpec::Kind::Committee: {
                                     const auto range = coin_.schedule.range(
                                         coin_.schedule.committee_of_phase(p));
                                     return committee_coin_sum(view, p, range.first,
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
            apply_phase_end(v, p);
        }
    }
}

std::unique_ptr<net::BatchProtocol> make_skeleton_batch(
    const SkeletonConfig& cfg, BatchCoinSpec coin, const std::vector<Bit>& inputs,
    const SeedTree& seeds) {
    return std::make_unique<SkeletonBatch>(cfg, std::move(coin), inputs, seeds);
}

void reinit_skeleton_batch(const SkeletonConfig& cfg, BatchCoinSpec coin,
                           const std::vector<Bit>& inputs, const SeedTree& seeds,
                           net::BatchProtocol& batch) {
    auto* b = dynamic_cast<SkeletonBatch*>(&batch);
    ADBA_EXPECTS_MSG(b != nullptr,
                     "batch pool type does not match the requested protocol");
    b->rearm(cfg, std::move(coin), inputs, seeds);
}

}  // namespace adba::core
