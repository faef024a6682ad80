#include "net/round_buffer.hpp"

#include <algorithm>

namespace adba::net {

// -------------------------------------------------------------- RoundBuffer

void RoundBuffer::reset(NodeId n) {
    ADBA_EXPECTS(n > 0);
    n_ = n;
    honest_.resize(n);
    state_.assign(n, 0);
    const std::size_t words = kern::word_count(n);
    words_n_ = words;
    word_sig_.assign(words, WordSig{});
    present_.assign(words, 0);
    words_.ensure(words);
    std::fill_n(words_.byz.begin(), words, std::uint64_t{0});
    byz_row_of_.assign(n, -1);
    row_sender_.clear();
    row_mode_.clear();
    row_slot_.clear();
    rows_in_use_ = 0;
    slots_in_use_ = 0;
    selects_in_use_ = 0;
}

void RoundBuffer::begin_round() {
    // Byte stores may alias any member; a local pointer and bound keep
    // the loop vectorizable.
    std::uint8_t* state = state_.data();
    const NodeId n = n_;
    for (NodeId v = 0; v < n; ++v) state[v] &= kByzantine;
    for (WordSig& sig : word_sig_) sig.sent = 0;
    // ensure_row is byz_row_of_'s only writer, so the senders with a row
    // are exactly the ones to clear.
    for (std::size_t r = 0; r < rows_in_use_; ++r) byz_row_of_[row_sender_[r]] = -1;
    row_sender_.clear();
    row_mode_.clear();
    row_slot_.clear();
    rows_in_use_ = 0;
    slots_in_use_ = 0;
    selects_in_use_ = 0;
}

void RoundBuffer::set_word(std::size_t w, MsgKind kind, Phase phase,
                           const SendWord& sw) {
    ADBA_EXPECTS(w < word_sig_.size());
    ADBA_EXPECTS_MSG((sw.present & words_.byz[w]) == 0,
                     "set_word: a present sender must be honest");
    const auto v0 = static_cast<NodeId>(w * kern::kWordBits);
    const NodeId v1 = std::min<NodeId>(n_, v0 + static_cast<NodeId>(kern::kWordBits));
    ADBA_EXPECTS_MSG(v1 - v0 == kern::kWordBits || (sw.present >> (v1 - v0)) == 0,
                     "set_word: present bit past n");
    // The masks are consumed one bit per sender from registers: a byte
    // store may alias any member, so nothing is re-read through `sw`.
    std::uint64_t present = sw.present, val = sw.val, flag = sw.flag;
    std::uint64_t pos = sw.coin_pos, neg = sw.coin_neg;
    Message* honest = honest_.data();
    std::uint8_t* state = state_.data();
    for (NodeId v = v0; v < v1; ++v) {
        honest[v] = Message{kind,
                            static_cast<Bit>(val & 1),
                            static_cast<std::uint8_t>(flag & 1),
                            static_cast<CoinSign>(static_cast<int>(pos & 1) -
                                                  static_cast<int>(neg & 1)),
                            phase,
                            Word{0}};
        state[v] |= static_cast<std::uint8_t>(present & 1);  // kPresent
        present >>= 1;
        val >>= 1;
        flag >>= 1;
        pos >>= 1;
        neg >>= 1;
    }
    present_[w] = sw.present;
    words_.val[w] = sw.val;
    words_.flag[w] = sw.flag;
    words_.coin_pos[w] = sw.coin_pos;
    words_.coin_neg[w] = sw.coin_neg;
    word_sig_[w] = WordSig{kind, 1, phase};
}

std::optional<RoundBuffer::WordRound> RoundBuffer::word_round() const {
    const WordSig& first = word_sig_[0];
    for (const WordSig& sig : word_sig_)
        if (sig.sent == 0 || sig.kind != first.kind || sig.phase != first.phase)
            return std::nullopt;
    return WordRound{first.kind, first.phase};
}

std::optional<Message> RoundBuffer::corrupt(NodeId v) {
    ADBA_EXPECTS(v < n_);
    std::optional<Message> discarded;
    if (state_[v] == kPresent) discarded = honest_[v];
    state_[v] = kByzantine;
    const std::uint64_t bit = std::uint64_t{1} << (v % kern::kWordBits);
    present_[v / kern::kWordBits] &= ~bit;
    words_.byz[v / kern::kWordBits] |= bit;
    return discarded;
}

std::int32_t RoundBuffer::ensure_row(NodeId v) {
    std::int32_t row = byz_row_of_[v];
    if (row >= 0) return row;
    if (row_pattern_.size() <= rows_in_use_) row_pattern_.resize(rows_in_use_ + 1);
    row = static_cast<std::int32_t>(rows_in_use_);
    byz_row_of_[v] = row;
    row_sender_.push_back(v);
    row_mode_.push_back(kRowDense);
    row_slot_.push_back(-1);  // dense cells assigned only when needed
    ++rows_in_use_;
    return row;
}

std::size_t RoundBuffer::new_slot() {
    const std::size_t slot = slots_in_use_++;
    if ((slot + 1) * n_ > byz_msgs_.size()) {
        byz_msgs_.resize((slot + 1) * n_);
        byz_present_.resize((slot + 1) * n_);
    }
    return slot;
}

void RoundBuffer::assign_dense_slot(std::size_t row) {
    const std::size_t slot = new_slot();
    row_slot_[row] = static_cast<std::int32_t>(slot);
    std::fill_n(byz_present_.begin() + static_cast<std::ptrdiff_t>(slot * n_), n_,
                std::uint8_t{0});
}

void RoundBuffer::make_writable(std::size_t row) {
    if (row_mode_[row] == kRowDense) return;  // its slot is its own
    // A private slot takes the row's deliveries as they read now: a
    // pattern's two sides or a selector's templates (copy-on-write for
    // the shared selector). The row keeps its old form until the copy is
    // done; new_slot may reallocate the cell arrays, so offsets, not
    // iterators.
    const std::size_t own = new_slot();
    const std::size_t base = own * n_;
    for (NodeId to = 0; to < n_; ++to) {
        const Message* m = row_delivery(row, to);
        byz_present_[base + to] = m != nullptr ? 1 : 0;
        if (m != nullptr) byz_msgs_[base + to] = *m;
    }
    row_slot_[row] = static_cast<std::int32_t>(own);
    row_mode_[row] = kRowDense;
}

template <typename CellFn>
std::uint64_t RoundBuffer::merge_cells(std::size_t row, CellFn&& cell) {
    make_writable(row);
    const std::size_t base = static_cast<std::size_t>(row_slot_[row]) * n_;
    std::uint64_t fresh = 0;
    for (NodeId to = 0; to < n_; ++to) {
        const Message* m = cell(to);
        if (m == nullptr) continue;
        if (byz_present_[base + to] == 0) ++fresh;
        byz_present_[base + to] = 1;
        byz_msgs_[base + to] = *m;
    }
    return fresh;
}

bool RoundBuffer::deliver(NodeId byz_from, NodeId to, const Message& m) {
    ADBA_EXPECTS(byz_from < n_ && to < n_);
    const std::int32_t prior = byz_row_of_[byz_from];
    const std::size_t row = static_cast<std::size_t>(ensure_row(byz_from));
    if (prior < 0) {
        assign_dense_slot(row);  // fresh dense row: clear its cells once
    } else {
        make_writable(row);
    }
    const std::size_t off = static_cast<std::size_t>(row_slot_[row]) * n_ + to;
    const bool fresh = byz_present_[off] == 0;
    byz_present_[off] = 1;
    byz_msgs_[off] = m;
    return fresh;
}

Count RoundBuffer::apply_pattern(NodeId byz_from, const Message* low,
                                 const Message* high, NodeId boundary) {
    ADBA_EXPECTS(byz_from < n_ && boundary <= n_);
    // A side that reaches no receiver is silence, and silence on both
    // sides delivers nothing: no row, and no merge.
    if (boundary == 0) low = nullptr;
    if (boundary == n_) high = nullptr;
    if (low == nullptr && high == nullptr) return 0;
    const std::int32_t prior = byz_row_of_[byz_from];
    const std::size_t row = static_cast<std::size_t>(ensure_row(byz_from));
    if (prior < 0) {
        row_mode_[row] = kRowPattern;
        RowPattern& p = row_pattern_[row];
        p.boundary = boundary;
        p.present[0] = low != nullptr ? 1 : 0;
        p.present[1] = high != nullptr ? 1 : 0;
        if (low) p.msg[0] = *low;
        if (high) p.msg[1] = *high;
        Count fresh = 0;
        if (low) fresh += boundary;
        if (high) fresh += n_ - boundary;
        return fresh;
    }
    // Merge with earlier deliveries from the same sender.
    return static_cast<Count>(
        merge_cells(row, [&](NodeId to) { return to < boundary ? low : high; }));
}

std::uint64_t RoundBuffer::deliver_select(std::span<const NodeId> byz_from,
                                          const Message& zero, const Message& one,
                                          std::span<const std::uint64_t> select) {
    ADBA_EXPECTS_MSG(select.size() == words_n_,
                     "deliver_select needs one selector bit per receiver");
    const Message msg[2] = {zero, one};
    std::uint64_t fresh = 0;
    std::int32_t shared = -1;  // this call's selector, stored on first use
    for (const NodeId u : byz_from) {
        ADBA_EXPECTS(u < n_);
        const std::int32_t prior = byz_row_of_[u];
        if (prior >= 0) {
            // A sender listed twice already points at this call's selector.
            if (shared >= 0 && row_mode_[prior] == kRowSelect && row_slot_[prior] == shared)
                continue;
            fresh += merge_cells(static_cast<std::size_t>(prior), [&](NodeId to) {
                return &msg[kern::bit_at(select.data(), to)];
            });
            continue;
        }
        if (shared < 0) {
            const std::size_t s = selects_in_use_++;
            if (selects_.size() <= s) selects_.resize(s + 1);
            if (select_words_.size() < (s + 1) * words_n_)
                select_words_.resize((s + 1) * words_n_);
            std::uint64_t* bits = select_words_.data() + s * words_n_;
            std::copy(select.begin(), select.end(), bits);
            if (const NodeId tail = n_ % kern::kWordBits; tail != 0)
                bits[words_n_ - 1] &= (std::uint64_t{1} << tail) - 1;
            selects_[s] = RowSelect{{zero, one}, kern::popcount_words(bits, words_n_)};
            shared = static_cast<std::int32_t>(s);
        }
        const std::size_t row = static_cast<std::size_t>(ensure_row(u));
        row_mode_[row] = kRowSelect;
        row_slot_[row] = shared;
        fresh += n_;
    }
    return fresh;
}

// --------------------------------------------------------------- RoundTally

void RoundTally::rebuild(const RoundBuffer& buf, bool packed, IntraDispatcher* intra) {
    buf_ = &buf;
    buckets_in_use_ = 0;  // recycle bucket storage; no per-round allocation
    val_caches_in_use_ = 0;
    coin_caches_in_use_ = 0;
    packed_ = packed;
    adopted_ = false;
    if (packed)
        rebuild_packed(buf, intra);
    else
        rebuild_scalar(buf);
}

/// Finds or creates the (kind, phase) bucket for the current round; in
/// packed mode (words > 0) a fresh bucket gets a zeroed full-width match
/// plane. Creation order IS the serial discovery order: scalar rebuild
/// discovers by ascending sender, packed rebuild merges shard-local
/// buckets in shard-index order, and shard s covers lower senders than
/// shard s+1, so first occurrences arrive in the same order.
TallyBucket& RoundTally::bucket_for(MsgKind kind, Phase phase, std::size_t words) {
    for (std::size_t i = 0; i < buckets_in_use_; ++i)
        if (buckets_[i].kind == kind && buckets_[i].phase == phase)
            return buckets_[i];
    if (buckets_.size() <= buckets_in_use_) buckets_.resize(buckets_in_use_ + 1);
    TallyBucket& b = buckets_[buckets_in_use_++];
    b.kind = kind;
    b.phase = phase;
    b.val_cnt = {0, 0};
    b.val_flag_cnt = {0, 0};
    b.total = 0;
    b.have_coin_prefix = false;  // lazy storage keeps its capacity
    b.have_words = false;
    if (words > 0) b.match.assign(words, 0);
    return b;
}

void RoundTally::rebuild_scalar(const RoundBuffer& buf) {
    const NodeId n = buf.n();
    const std::uint8_t* state = buf.state_plane();
    const Message* honest = buf.honest_plane();
    for (NodeId v = 0; v < n; ++v) {
        if (state[v] != RoundBuffer::kPresent) continue;
        const Message& m = honest[v];
        TallyBucket& b = bucket_for(m.kind, m.phase, 0);
        ++b.total;
        ++b.val_cnt[m.val & 1];
        if (m.flag != 0) ++b.val_flag_cnt[m.val & 1];
    }
}

void RoundTally::rebuild_packed(const RoundBuffer& buf, IntraDispatcher* intra) {
    const NodeId n = buf.n();
    const std::size_t words = kern::word_count(n);
    if (const auto sent = buf.word_round()) {
        // Word-sent round: the planes were born at send. Every present
        // sender broadcast the one signature, so the presence plane is the
        // bucket's match plane — no pass over the n Messages.
        adopted_ = true;
        const std::uint64_t* present = buf.present_words();
        if (kern::popcount_words(present, words) != 0) {
            TallyBucket& b = bucket_for(sent->kind, sent->phase, 0);
            b.match.assign(present, present + words);
        }
    } else {
        pack_pass(buf, intra);
    }

    // Count reduction: popcounts over full-width planes. Exact integers —
    // val_cnt[0] falls out of total because val & 1 is binary.
    const kern::PackedPlanes& pl = planes();
    for (std::size_t i = 0; i < buckets_in_use_; ++i) {
        TallyBucket& b = buckets_[i];
        b.total = kern::popcount_words(b.match.data(), words);
        b.val_cnt[1] = kern::popcount_and(b.match.data(), pl.val.data(), words);
        b.val_cnt[0] = b.total - b.val_cnt[1];
        const Count flag_total =
            kern::popcount_and(b.match.data(), pl.flag.data(), words);
        b.val_flag_cnt[1] = kern::popcount_and3(b.match.data(), pl.flag.data(),
                                                pl.val.data(), words);
        b.val_flag_cnt[0] = flag_total - b.val_flag_cnt[1];
    }
}

void RoundTally::pack_pass(const RoundBuffer& buf, IntraDispatcher* intra) {
    const NodeId n = buf.n();
    const std::size_t words = kern::word_count(n);
    planes_.ensure(words);
    const unsigned shards = intra != nullptr ? intra->shards() : 1;
    if (pack_shards_.size() < shards) pack_shards_.resize(shards);

    // Pack pass: every shard fills its own word span of the attribute
    // planes and its own local bucket matches — disjoint writes, barrier
    // on return.
    kern::run_sharded(intra, n, [&](unsigned s, NodeId lo, NodeId hi) {
        kern::pack_shard(buf, lo, hi, planes_, pack_shards_[s]);
    });

    // Serial merge in shard-index order (see bucket_for on ordering).
    // Shard word spans are disjoint, so copies never overlap.
    for (unsigned s = 0; s < shards; ++s) {
        const kern::PackShard& sh = pack_shards_[s];
        for (std::size_t i = 0; i < sh.buckets_in_use; ++i) {
            const kern::PackShardBucket& lb = sh.buckets[i];
            TallyBucket& b = bucket_for(lb.kind, lb.phase, words);
            std::copy(lb.match.begin(), lb.match.end(),
                      b.match.begin() + static_cast<std::ptrdiff_t>(sh.word_lo));
        }
    }
}

const TallyBucket* RoundTally::find(MsgKind kind, Phase phase) const {
    for (std::size_t i = 0; i < buckets_in_use_; ++i)
        if (buckets_[i].kind == kind && buckets_[i].phase == phase)
            return &buckets_[i];
    return nullptr;
}

const std::vector<std::int64_t>& RoundTally::coin_prefix(const TallyBucket& b) const {
    if (!b.have_coin_prefix) {
        const NodeId n = buf_->n();
        b.coin_prefix.assign(n + 1, 0);
        const std::uint8_t* state = buf_->state_plane();
        const Message* honest = buf_->honest_plane();
        for (NodeId u = 0; u < n; ++u) {
            std::int64_t d = 0;
            if (state[u] == RoundBuffer::kPresent) {
                const Message& m = honest[u];
                if (m.kind == b.kind && m.phase == b.phase) {
                    if (m.coin > 0)
                        d = 1;
                    else if (m.coin < 0)
                        d = -1;
                }
            }
            b.coin_prefix[u + 1] = b.coin_prefix[u] + d;
        }
        b.have_coin_prefix = true;
    }
    return b.coin_prefix;
}

std::int64_t RoundTally::coin_range_sum(const TallyBucket& b, NodeId first,
                                        NodeId last) const {
    if (packed_) {
        const kern::PackedPlanes& pl = planes();
        return kern::coin_sum_range(pl.coin_pos.data(), pl.coin_neg.data(),
                                    b.match.data(), first, last);
    }
    const auto& prefix = coin_prefix(b);
    return prefix[last] - prefix[first];
}

namespace {

/// Sorts a raw (word, 1)-pair list and merges duplicates in place: the
/// flat-vector replacement for inserting into a std::map. Capacity is the
/// caller's; a recycled vector makes this allocation-free once warm.
void sort_aggregate(WordHistogram& h) {
    std::sort(h.begin(), h.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    std::size_t out = 0;
    for (std::size_t i = 0; i < h.size();) {
        std::size_t j = i;
        Count total = 0;
        while (j < h.size() && h[j].first == h[i].first) total += h[j++].second;
        h[out++] = {h[i].first, total};
        i = j;
    }
    h.resize(out);
}

}  // namespace

const WordHistogram& RoundTally::word_counts(const TallyBucket& b,
                                             bool require_flag) const {
    if (!b.have_words) {
        b.words.clear();
        b.words_flag.clear();
        const NodeId n = buf_->n();
        const Message* honest = buf_->honest_plane();
        if (packed_) {
            // Word-sliced collection: iterate set bits of the bucket's
            // match plane (ctz per live sender) instead of branching on
            // every sender's state/kind/phase bytes. Same senders in the
            // same ascending order — identical histograms.
            const std::size_t words = kern::word_count(n);
            kern::for_each_set_bit(b.match.data(), words, [&](NodeId u) {
                const Message& m = honest[u];
                b.words.emplace_back(m.word, Count{1});
                if (m.flag != 0) b.words_flag.emplace_back(m.word, Count{1});
            });
        } else {
            const std::uint8_t* state = buf_->state_plane();
            for (NodeId u = 0; u < n; ++u) {
                if (state[u] != RoundBuffer::kPresent) continue;
                const Message& m = honest[u];
                if (m.kind != b.kind || m.phase != b.phase) continue;
                b.words.emplace_back(m.word, Count{1});
                if (m.flag != 0) b.words_flag.emplace_back(m.word, Count{1});
            }
        }
        sort_aggregate(b.words);
        sort_aggregate(b.words_flag);
        b.have_words = true;
    }
    return require_flag ? b.words_flag : b.words;
}

template <typename Fn>
void RoundTally::for_each_dense_slot(NodeId first, NodeId last, Fn&& sweep) const {
    if (buf_->slots_in_use() == 0) return;
    for (std::size_t r = 0; r < buf_->rows_in_use(); ++r) {
        const NodeId u = buf_->row_sender(r);
        if (u < first || u >= last || buf_->row_mode(r) != RoundBuffer::kRowDense)
            continue;
        const std::size_t slot = buf_->row_slot(r);
        sweep(buf_->slot_messages(slot), buf_->slot_presence(slot));
    }
}

template <typename Fn>
void RoundTally::for_each_weighted_select(NodeId first, NodeId last, Fn&& fold) const {
    const std::size_t selects = buf_->selects_in_use();
    if (selects == 0) return;
    select_weight_.assign(selects, 0);
    for (std::size_t r = 0; r < buf_->rows_in_use(); ++r) {
        const NodeId u = buf_->row_sender(r);
        if (u < first || u >= last || buf_->row_mode(r) != RoundBuffer::kRowSelect)
            continue;
        ++select_weight_[buf_->row_select(r)];
    }
    for (std::size_t s = 0; s < selects; ++s)
        if (select_weight_[s] != 0)
            fold(buf_->select(s), buf_->select_words(s), select_weight_[s]);
}

const std::array<Count, 2>* RoundTally::val_delta_plane(MsgKind kind, Phase phase,
                                                        bool require_flag) const {
    const std::size_t rows = buf_->rows_in_use();
    if (rows == 0) return nullptr;
    for (std::size_t c = 0; c < val_caches_in_use_; ++c) {
        const ValCache& vc = val_caches_[c];
        if (vc.kind == kind && vc.phase == phase && vc.flag == require_flag)
            return vc.any ? vc.delta.data() : nullptr;
    }
    if (val_caches_.size() <= val_caches_in_use_)
        val_caches_.resize(val_caches_in_use_ + 1);
    ValCache& vc = val_caches_[val_caches_in_use_++];
    vc.kind = kind;
    vc.phase = phase;
    vc.flag = require_flag;
    const NodeId n = buf_->n();
    const auto matches = [&](const Message& m) {
        return m.kind == kind && m.phase == phase && (!require_flag || m.flag != 0);
    };
    // A pattern side counts when it reaches at least one receiver.
    const auto side_matches = [&](const RoundBuffer::RowPattern& p, int side) {
        const bool reaches = side == 0 ? p.boundary > 0 : p.boundary < n;
        return p.present[side] && reaches && matches(p.msg[side]);
    };

    // A selector template counts when its side reaches a receiver.
    const auto template_matches = [&](const RoundBuffer::RowSelect& s, int bit) {
        const bool reaches = bit == 0 ? s.ones < n : s.ones > 0;
        return reaches && matches(s.msg[bit]);
    };

    // Does any Byzantine delivery match? Pattern sides and selector
    // templates answer in O(1); a dense slot is read up to its first
    // matching cell. With no match there is nothing to build: the plane
    // would be all zeros.
    bool any_pattern = false, any_select = false;
    for (std::size_t r = 0; r < rows; ++r) {
        const std::uint8_t mode = buf_->row_mode(r);
        if (mode == RoundBuffer::kRowPattern && !any_pattern) {
            const RoundBuffer::RowPattern& p = buf_->row_pattern(r);
            any_pattern = side_matches(p, 0) || side_matches(p, 1);
        } else if (mode == RoundBuffer::kRowSelect && !any_select) {
            const RoundBuffer::RowSelect& s = buf_->select(buf_->row_select(r));
            any_select = template_matches(s, 0) || template_matches(s, 1);
        }
    }
    vc.any = any_pattern || any_select;
    if (!vc.any) {
        for_each_dense_slot(0, n, [&](const Message* msgs, const std::uint8_t* present) {
            for (NodeId v = 0; v < n && !vc.any; ++v)
                vc.any = present[v] != 0 && matches(msgs[v]);
        });
    }
    if (!vc.any) return nullptr;

    // Build the per-receiver delta array once for this query signature:
    // pattern rows contribute piecewise-constant runs as a DIFFERENCE SWEEP
    // (+1 at the run start, -1 past its end, prefix-summed once at the end)
    // so k pattern rows cost O(n + k), not O(n * k) — with t split-voting
    // Byzantine senders the latter was the dominant large-n term. Dense
    // rows are then swept once each, over their own slot.
    vc.delta.assign(n, {Count{0}, Count{0}});
    if (any_pattern) {
        for (std::size_t r = 0; r < rows; ++r) {
            if (buf_->row_mode(r) != RoundBuffer::kRowPattern) continue;
            const RoundBuffer::RowPattern& p = buf_->row_pattern(r);
            for (int side = 0; side < 2; ++side) {
                if (!side_matches(p, side)) continue;
                const NodeId lo = side == 0 ? 0 : p.boundary;
                const NodeId hi = side == 0 ? p.boundary : n;
                const int idx = p.msg[side].val & 1;
                // Unsigned wraparound in the -1 marker is intentional: the
                // prefix sum below restores the true (non-negative) counts.
                ++vc.delta[lo][idx];
                if (hi < n) --vc.delta[hi][idx];
            }
        }
        for (NodeId v = 1; v < n; ++v) {
            vc.delta[v][0] += vc.delta[v - 1][0];
            vc.delta[v][1] += vc.delta[v - 1][1];
        }
    }
    for_each_dense_slot(0, n, [&](const Message* msgs, const std::uint8_t* present) {
        for (NodeId v = 0; v < n; ++v)
            if (present[v] != 0 && matches(msgs[v])) ++vc.delta[v][msgs[v].val & 1];
    });
    if (any_select) {
        for_each_weighted_select(0, n, [&](const RoundBuffer::RowSelect& s,
                                           const std::uint64_t* bits, Count w) {
            const bool hit[2] = {template_matches(s, 0), template_matches(s, 1)};
            if (!hit[0] && !hit[1]) return;
            const int idx[2] = {s.msg[0].val & 1, s.msg[1].val & 1};
            for (NodeId v = 0; v < n; ++v) {
                const unsigned bit = kern::bit_at(bits, v);
                if (hit[bit]) vc.delta[v][idx[bit]] += w;
            }
        });
    }
    return vc.delta.data();
}

const std::array<Count, 2>* RoundTally::val_deltas(MsgKind kind, Phase phase,
                                                   bool require_flag,
                                                   NodeId receiver) const {
    const auto* plane = val_delta_plane(kind, phase, require_flag);
    return plane == nullptr ? nullptr : plane + receiver;
}

const std::int64_t* RoundTally::coin_delta_plane(MsgKind kind, Phase phase,
                                                 bool check_phase, NodeId first,
                                                 NodeId last) const {
    const std::size_t rows = buf_->rows_in_use();
    if (rows == 0) return nullptr;
    for (std::size_t c = 0; c < coin_caches_in_use_; ++c) {
        const CoinCache& cc = coin_caches_[c];
        if (cc.kind == kind && cc.phase == phase && cc.check_phase == check_phase &&
            cc.first == first && cc.last == last)
            return cc.any ? cc.delta.data() : nullptr;
    }
    if (coin_caches_.size() <= coin_caches_in_use_)
        coin_caches_.resize(coin_caches_in_use_ + 1);
    CoinCache& cc = coin_caches_[coin_caches_in_use_++];
    cc.kind = kind;
    cc.phase = phase;
    cc.check_phase = check_phase;
    cc.first = first;
    cc.last = last;
    const NodeId n = buf_->n();
    // The plane is built on the first Byzantine coin that reaches a
    // receiver; with none it stays unbuilt and the query answers nullptr.
    cc.any = false;
    const auto touch = [&] { if (!std::exchange(cc.any, true)) cc.delta.assign(n, 0); };
    const auto sign_of = [&](const Message& m) -> std::int64_t {
        if (m.kind != kind || (check_phase && m.phase != phase)) return 0;
        if (m.coin > 0) return 1;
        if (m.coin < 0) return -1;
        return 0;
    };
    // Pattern rows as a difference sweep (O(1) per side, one prefix pass),
    // dense rows swept once each — same shape as val_delta_plane.
    bool any_pattern = false;
    for (std::size_t r = 0; r < rows; ++r) {
        const NodeId u = buf_->row_sender(r);
        if (u < first || u >= last) continue;
        if (buf_->row_mode(r) != RoundBuffer::kRowPattern) continue;
        const RoundBuffer::RowPattern& p = buf_->row_pattern(r);
        for (int side = 0; side < 2; ++side) {
            if (!p.present[side]) continue;
            const std::int64_t d = sign_of(p.msg[side]);
            if (d == 0) continue;
            const NodeId lo = side == 0 ? 0 : p.boundary;
            const NodeId hi = side == 0 ? p.boundary : n;
            if (lo >= hi) continue;
            touch();
            cc.delta[lo] += d;
            if (hi < n) cc.delta[hi] -= d;
            any_pattern = true;
        }
    }
    if (any_pattern)
        for (NodeId v = 1; v < n; ++v) cc.delta[v] += cc.delta[v - 1];
    for_each_dense_slot(first, last, [&](const Message* msgs, const std::uint8_t* present) {
        for (NodeId v = 0; v < n; ++v) {
            const std::int64_t d = present[v] != 0 ? sign_of(msgs[v]) : 0;
            if (d == 0) continue;
            touch();
            cc.delta[v] += d;
        }
    });
    // Selectors fold from their bits: each receiver gets one of two
    // weighted template signs, and no Message is read per receiver.
    for_each_weighted_select(first, last, [&](const RoundBuffer::RowSelect& s,
                                              const std::uint64_t* bits, Count w) {
        const auto weight = static_cast<std::int64_t>(w);
        const std::int64_t d0 = s.ones < n ? weight * sign_of(s.msg[0]) : 0;
        const std::int64_t d1 = s.ones > 0 ? weight * sign_of(s.msg[1]) : 0;
        if (d0 == 0 && d1 == 0) return;
        touch();
        std::int64_t* delta = cc.delta.data();
        for (std::size_t wi = 0; wi < kern::word_count(n); ++wi) {
            const std::uint64_t word = bits[wi];
            const NodeId v0 = static_cast<NodeId>(wi * kern::kWordBits);
            const NodeId v1 = std::min<NodeId>(n, v0 + static_cast<NodeId>(kern::kWordBits));
            for (NodeId v = v0; v < v1; ++v)
                delta[v] += ((word >> (v - v0)) & 1) != 0 ? d1 : d0;
        }
    });
    return cc.any ? cc.delta.data() : nullptr;
}

std::optional<RoundTally::CoinSelect> RoundTally::coin_delta_select(
    MsgKind kind, Phase phase, bool check_phase, NodeId first, NodeId last) const {
    const NodeId n = buf_->n();
    const auto sign_of = [&](const Message& m) -> std::int64_t {
        if (m.kind != kind || (check_phase && m.phase != phase)) return 0;
        return m.coin > 0 ? 1 : m.coin < 0 ? -1 : 0;
    };
    CoinSelect out;
    std::int64_t weight = 0;
    std::size_t chosen = 0;
    for (std::size_t r = 0; r < buf_->rows_in_use(); ++r) {
        const NodeId u = buf_->row_sender(r);
        if (u < first || u >= last) continue;
        const std::uint8_t mode = buf_->row_mode(r);
        if (mode == RoundBuffer::kRowDense) return std::nullopt;
        if (mode == RoundBuffer::kRowPattern) {
            const RoundBuffer::RowPattern& p = buf_->row_pattern(r);
            const bool low = p.present[0] && p.boundary > 0 && sign_of(p.msg[0]) != 0;
            const bool high = p.present[1] && p.boundary < n && sign_of(p.msg[1]) != 0;
            if (low || high) return std::nullopt;
            continue;
        }
        const std::size_t s = buf_->row_select(r);
        const RoundBuffer::RowSelect& sel = buf_->select(s);
        const std::int64_t d0 = sel.ones < n ? sign_of(sel.msg[0]) : 0;
        const std::int64_t d1 = sel.ones > 0 ? sign_of(sel.msg[1]) : 0;
        if (d0 == 0 && d1 == 0) continue;
        if (weight > 0 && s != chosen) return std::nullopt;
        chosen = s;
        ++weight;
        out.select = buf_->select_words(s);
        out.delta[0] = weight * d0;
        out.delta[1] = weight * d1;
    }
    return out;
}

std::int64_t RoundTally::coin_delta(MsgKind kind, Phase phase, bool check_phase,
                                    NodeId first, NodeId last,
                                    NodeId receiver) const {
    const std::int64_t* plane = coin_delta_plane(kind, phase, check_phase, first, last);
    return plane == nullptr ? 0 : plane[receiver];
}

const WordHistogram& RoundTally::byz_word_deltas(MsgKind kind, bool require_flag,
                                                 NodeId receiver) const {
    WordHistogram& out = byz_words_scratch_;
    out.clear();  // capacity survives: no per-query allocation once warm
    const std::size_t rows = buf_->rows_in_use();
    for (std::size_t r = 0; r < rows; ++r) {
        const Message* m = buf_->row_delivery(r, receiver);
        if (m != nullptr && m->kind == kind && (!require_flag || m->flag != 0))
            out.emplace_back(m->word, Count{1});
    }
    sort_aggregate(out);
    return out;
}

// -------------------------------------------------------------- ReceiveView

std::array<Count, 2> ReceiveView::val_counts(MsgKind kind, Phase phase,
                                             bool require_flag) const {
    if (buf_ == nullptr) {
        // Adapter backend: the executable spec — a plain per-sender loop.
        std::array<Count, 2> cnt{0, 0};
        for (NodeId u = 0; u < n_; ++u) {
            const Message* m = from(u);
            if (m != nullptr && m->kind == kind && m->phase == phase &&
                (!require_flag || m->flag != 0))
                ++cnt[m->val & 1];
        }
        return cnt;
    }
    std::array<Count, 2> cnt{0, 0};
    if (const TallyBucket* b = tally_->find(kind, phase))
        cnt = require_flag ? b->val_flag_cnt : b->val_cnt;
    if (const auto* d = tally_->val_deltas(kind, phase, require_flag, recv_)) {
        cnt[0] += (*d)[0];
        cnt[1] += (*d)[1];
    }
    return cnt;
}

std::int64_t ReceiveView::coin_sum(MsgKind kind, Phase phase, bool check_phase,
                                   NodeId first, NodeId last) const {
    ADBA_EXPECTS(first <= last && last <= n_);
    if (buf_ == nullptr) {
        std::int64_t sum = 0;
        for (NodeId u = first; u < last; ++u) {
            const Message* m = from(u);
            if (m == nullptr || m->kind != kind ||
                (check_phase && m->phase != phase))
                continue;
            if (m->coin > 0)
                ++sum;
            else if (m->coin < 0)
                --sum;
        }
        return sum;
    }
    std::int64_t sum = 0;
    for (std::size_t i = 0; i < tally_->bucket_count(); ++i) {
        const TallyBucket& b = tally_->bucket(i);
        if (b.kind != kind || (check_phase && b.phase != phase)) continue;
        sum += tally_->coin_range_sum(b, first, last);
    }
    sum += tally_->coin_delta(kind, phase, check_phase, first, last, recv_);
    return sum;
}

namespace {

/// Shared word-query walk: invokes consider(word, count) over the combined
/// (honest + Byzantine-delta) histogram in ascending word order. Both inputs
/// are sorted unique-word vectors (WordHistogram invariant).
template <typename Fn>
void walk_word_histogram(const WordHistogram& honest, const WordHistogram& byz,
                         Fn&& consider) {
    auto hit = honest.begin();
    auto bit = byz.begin();
    while (hit != honest.end() || bit != byz.end()) {
        if (bit == byz.end() || (hit != honest.end() && hit->first < bit->first)) {
            consider(hit->first, hit->second);
            ++hit;
        } else if (hit == honest.end() || bit->first < hit->first) {
            consider(bit->first, bit->second);
            ++bit;
        } else {
            consider(hit->first, hit->second + bit->second);
            ++hit;
            ++bit;
        }
    }
}

const WordHistogram kEmptyWords;

}  // namespace

template <typename Fn>
void ReceiveView::walk_words(MsgKind kind, bool require_flag, Fn&& consider) const {
    if (buf_ == nullptr) {
        // Adapter backend: the executable spec — a plain per-sender tally
        // (test/oracle path only; it may allocate).
        WordHistogram tally;
        for (NodeId u = 0; u < n_; ++u) {
            const Message* m = from(u);
            if (m != nullptr && m->kind == kind && (!require_flag || m->flag != 0))
                tally.emplace_back(m->word, Count{1});
        }
        sort_aggregate(tally);
        walk_word_histogram(tally, kEmptyWords, consider);
        return;
    }
    // Honest messages of one kind share one (kind, phase) bucket in any real
    // round (nodes move in lockstep); merge buckets defensively anyway.
    const WordHistogram* honest = &kEmptyWords;
    WordHistogram merged;
    bool first_bucket = true;
    for (std::size_t i = 0; i < tally_->bucket_count(); ++i) {
        const TallyBucket& b = tally_->bucket(i);
        if (b.kind != kind) continue;
        const auto& counts = tally_->word_counts(b, require_flag);
        if (first_bucket) {
            honest = &counts;
            first_bucket = false;
        } else {
            // Defensive multi-bucket merge; never hit by lockstep protocols.
            if (honest != &merged)
                merged.insert(merged.end(), honest->begin(), honest->end());
            merged.insert(merged.end(), counts.begin(), counts.end());
            sort_aggregate(merged);
            honest = &merged;
        }
    }
    walk_word_histogram(*honest, tally_->byz_word_deltas(kind, require_flag, recv_),
                        consider);
}

std::optional<Word> ReceiveView::quorum_word(MsgKind kind, bool require_flag,
                                             Count quorum) const {
    ADBA_EXPECTS(quorum >= 1);
    std::optional<Word> found;
    walk_words(kind, require_flag, [&](Word w, Count cnt) {
        if (cnt < quorum) return;
        // Two quorums cannot coexist (they would intersect in an honest
        // double-voter).
        ADBA_ENSURES_MSG(!found.has_value(), "two word quorums");
        found = w;
    });
    return found;
}

std::optional<std::pair<Word, Count>> ReceiveView::plurality_word(
    MsgKind kind, bool require_flag) const {
    std::optional<std::pair<Word, Count>> best;
    walk_words(kind, require_flag, [&](Word w, Count cnt) {
        // Strict > on an ascending walk: ties break to the smallest word.
        if (cnt > 0 && (!best || cnt > best->second)) best = {w, cnt};
    });
    return best;
}

}  // namespace adba::net
