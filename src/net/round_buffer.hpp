// Flat per-round delivery state: the simulator's hot data plane.
//
// Every protocol here is a full-broadcast-per-round protocol on a complete
// network (paper §1.1), so the inner loop of every experiment is
// rounds × n receivers × n senders. This header keeps that loop cache-flat:
//
//  * RoundBuffer — one contiguous `Message[]` for the round's honest
//    broadcasts plus a `uint8_t` presence/honesty plane (never `vector<bool>`
//    on the hot path), and Byzantine delivery rows allocated on demand. The
//    per-(receiver, sender) probe is a byte load plus at most one
//    bounds-checked array load — no virtual dispatch, no optional unwrap.
//    A row is either Dense (n per-receiver cells) or a Pattern (threshold
//    equivocation: one message below a receiver boundary, another above),
//    so the classic split/broadcast attacks cost O(1) per sender per round
//    instead of O(n), or a Select row (two template messages and an n-bit
//    selector plane: receiver `to` gets the second template where bit `to`
//    is set, the first elsewhere). A dense row owns one dense *slot* (n
//    cells). The selector is the one form shared between senders:
//    deliver_select stores one selector and points every fresh listed
//    sender at it, so k senders equivocating with one bit per receiver
//    (the worst-case coin split) cost O(n/64 + k) and write no Message per
//    receiver. A later deliver, apply_pattern or deliver_select merge into
//    a pattern or select row first materializes that row into a private
//    dense slot — copy-on-write for the shared selector.
//
//    Honest sends arrive in one of two forms. set_broadcast writes one
//    sender's Message (per-node writers: the PerNodeBatch adapter, Ben-Or,
//    Phase-King, the multi-valued prelude). set_word hands over 64 senders
//    at once as bit masks (present / val / flag / coin sign) under one
//    (kind, phase) signature — the skeleton batch's form. The buffer still
//    writes the 64 Messages, because observers, corrupt(), from(),
//    transcripts and word histograms read them, and it keeps the words as
//    packed planes. corrupt() clears the sender's present bit and sets its
//    bit in the Byzantine word plane, so the words stay current through the
//    adversary beat. When every word of a round arrived through set_word
//    under one signature (word_round()), the tally adopts the words instead
//    of re-packing n Messages; one set_broadcast anywhere in the round
//    sends it down the pack pass.
//
//  * RoundTally — the engine-level shared tally service. Honest broadcasts
//    are receiver-independent, so their (kind, phase) histogram is computed
//    ONCE per round in O(n); Byzantine-row deltas are aggregated once per
//    query signature into per-receiver arrays (O(n + rows) for pattern
//    rows, O(n) per dense row, O(n) per distinct selector weighted by the
//    number of in-range rows that reference it; a selector folds bits and
//    reads no Message, and one whose templates miss the query costs O(1)),
//    dropping honest-path receives from O(n²) per round to O(n). A
//    committee coin whose Byzantine part comes from one selector is also
//    answered in two-valued form (coin_delta_select), with no plane.
//
//  * ReceiveView — the receiver's window onto one round, now a concrete
//    `final` class (non-virtual `from()`, bulk `for_each_delivery`, and the
//    tally queries). Polymorphism survives only behind DeliverySource, a thin
//    virtual adapter used by scripted tests and by the engine's reference
//    delivery path, which the equivalence suite pins the flat plane against.
//
//  The tally has two equivalent build modes (engine toggle
//  EngineConfig::simd_tally, scenario key `simd=`): the scalar byte-plane
//  sweep above (the reference oracle) and a word-packed mode
//  (net/tally_kernels.hpp) where presence/val/flag/coin collapse to
//  uint64_t bit planes and counts become popcounts-over-words. The packed
//  planes come from the send words in a word-sent round and from the pack
//  pass otherwise; the pack pass shards across an IntraDispatcher's
//  word-aligned node ranges and stays the reference the words are pinned
//  against. All builds produce bit-identical query results.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "net/message.hpp"
#include "net/tally_kernels.hpp"
#include "support/contracts.hpp"
#include "support/types.hpp"

namespace adba::net {

/// Thin virtual adapter for delivery lookups. Only scripted tests and the
/// reference (oracle) engine path pay this vtable; the flat path never does.
class DeliverySource {
public:
    virtual ~DeliverySource() = default;

    /// Message delivered from `sender` to `receiver` this round, or nullptr.
    virtual const Message* delivery(NodeId receiver, NodeId sender) const = 0;
    virtual NodeId n() const = 0;
};

/// Contiguous storage for one round of deliveries (reused across rounds and,
/// via Engine::reset, across trials — no per-round allocation once warm).
class RoundBuffer {
public:
    /// Per-sender state byte: bit 0 = broadcast present, bit 1 = Byzantine.
    static constexpr std::uint8_t kPresent = 1;
    static constexpr std::uint8_t kByzantine = 2;

    /// Byzantine row representations.
    static constexpr std::uint8_t kRowDense = 0;    ///< n per-receiver cells
    static constexpr std::uint8_t kRowPattern = 1;  ///< threshold split
    static constexpr std::uint8_t kRowSelect = 2;   ///< two templates + selector bits

    /// Threshold-equivocation row: msg[0] to receivers < boundary, msg[1]
    /// to the rest; present[side] == 0 means silence for that side.
    struct RowPattern {
        Message msg[2];
        std::uint8_t present[2] = {0, 0};
        NodeId boundary = 0;
    };
    /// Selector payload shared by the rows of one deliver_select call:
    /// msg[bit] to each receiver, bit = its selector bit. `ones` counts the
    /// set selector bits (bits past n are cleared).
    struct RowSelect {
        Message msg[2];
        NodeId ones = 0;
    };

    /// Sizes for a run of n nodes; everyone honest, no rows, nothing present.
    void reset(NodeId n);
    /// Clears the presence plane and the word send records and recycles the
    /// Byzantine rows; corruption marks survive (corruption is permanent,
    /// §1.1).
    void begin_round();

    NodeId n() const { return n_; }
    bool is_honest(NodeId v) const { return (state_[v] & kByzantine) == 0; }

    // ---- beat 1: honest sends ----
    /// Per-node send: honest v broadcasts m. Any call takes the round off
    /// the word path (see word_round()).
    void set_broadcast(NodeId v, const Message& m) {
        honest_[v] = m;
        state_[v] = kPresent;
        word_sig_[v / kern::kWordBits].sent = 0;
    }

    /// One word of honest sends: bit i stands for sender 64·w + i. Bits of
    /// senders that are not present are ignored by every reader (the
    /// attribute masks are unmasked, like kern::PackedPlanes).
    struct SendWord {
        std::uint64_t present = 0;   ///< honest senders that broadcast
        std::uint64_t val = 0;       ///< val & 1
        std::uint64_t flag = 0;      ///< flag != 0
        std::uint64_t coin_pos = 0;  ///< coin > 0
        std::uint64_t coin_neg = 0;  ///< coin < 0
    };
    /// Word send: senders [64·w, 64·w + 64) ∩ [0, n) broadcast
    /// Message{kind, val, flag, coin, phase, word = 0} where `present` is
    /// set. Writes the 64 Messages and the presence bytes as set_broadcast
    /// would, and keeps the masks as the round's packed planes. Present
    /// senders must be honest. Shards calling this on disjoint words never
    /// share a write.
    void set_word(std::size_t w, MsgKind kind, Phase phase, const SendWord& sw);

    /// The common signature of a word-sent round.
    struct WordRound {
        MsgKind kind{};
        Phase phase = 0;
    };
    /// Set iff every word of this round arrived through set_word under one
    /// (kind, phase) and no set_broadcast followed: then every present
    /// sender broadcast that signature, present_words() is the exact
    /// presence plane (corruptions included) and word_planes() holds the
    /// sent attributes. O(n/64).
    std::optional<WordRound> word_round() const;
    /// Presence plane of the set_word words (exact in a word-sent round).
    const std::uint64_t* present_words() const { return present_.data(); }
    /// The set_word attribute words (unmasked, valid in a word-sent round)
    /// plus the Byzantine plane, which is exact in every round.
    const kern::PackedPlanes& word_planes() const { return words_; }
    /// Honest sender v's broadcast this round (nullptr = silent/halted).
    const Message* broadcast(NodeId v) const {
        return state_[v] == kPresent ? &honest_[v] : nullptr;
    }

    // ---- beat 2: adversary actions ----
    /// Moves v to the Byzantine set forever; returns the discarded broadcast.
    /// Clears v's present word bit and sets its Byzantine word bit (O(1)),
    /// so the send words stay exact after the adversary beat.
    std::optional<Message> corrupt(NodeId v);
    /// Records m as (byz_from -> to); returns true when the cell was empty.
    bool deliver(NodeId byz_from, NodeId to, const Message& m);
    /// O(1) threshold equivocation: `low` (if non-null) to receivers below
    /// `boundary`, `high` (if non-null) to the rest. Returns the number of
    /// previously-empty slots now covered (for message accounting). Falls
    /// back to a dense merge when the sender already delivered this round.
    Count apply_pattern(NodeId byz_from, const Message* low, const Message* high,
                        NodeId boundary);
    /// `one` where bit `to` of `select` is set and `zero` elsewhere, from
    /// every sender in `byz_from` to every receiver `to`
    /// (select.size() == kern::word_count(n); bits past n are ignored): the
    /// same deliveries as the per-pair deliver() loop, in O(n/64 +
    /// |byz_from|) when the senders have no row yet — one selector is
    /// stored and shared by all of them. Senders that already delivered
    /// this round merge cellwise. Returns the number of previously-empty
    /// (sender, receiver) slots now covered.
    std::uint64_t deliver_select(std::span<const NodeId> byz_from, const Message& zero,
                                 const Message& one, std::span<const std::uint64_t> select);

    // ---- beat 3: receiver probes (the hot path) ----
    const Message* from(NodeId receiver, NodeId sender) const {
        const std::uint8_t st = state_[sender];
        if (st == kPresent) return &honest_[sender];
        if (st == 0) return nullptr;
        const std::int32_t row = byz_row_of_[sender];
        if (row < 0) return nullptr;
        return row_delivery(static_cast<std::size_t>(row), receiver);
    }

    // ---- tally-building access ----
    std::size_t rows_in_use() const { return rows_in_use_; }
    NodeId row_sender(std::size_t row) const { return row_sender_[row]; }
    std::uint8_t row_mode(std::size_t row) const { return row_mode_[row]; }
    const RowPattern& row_pattern(std::size_t row) const { return row_pattern_[row]; }
    /// Dense slot backing a dense row (each slot belongs to one row).
    std::size_t row_slot(std::size_t row) const {
        return static_cast<std::size_t>(row_slot_[row]);
    }
    /// Selector backing a select row (several rows may share one).
    std::size_t row_select(std::size_t row) const {
        return static_cast<std::size_t>(row_slot_[row]);
    }
    std::size_t selects_in_use() const { return selects_in_use_; }
    const RowSelect& select(std::size_t s) const { return selects_[s]; }
    /// A selector's kern::word_count(n) bit words, indexed by receiver.
    const std::uint64_t* select_words(std::size_t s) const {
        return select_words_.data() + s * words_n_;
    }
    std::size_t slots_in_use() const { return slots_in_use_; }
    /// A dense slot's n cells and presence bytes, indexed by receiver.
    const Message* slot_messages(std::size_t slot) const {
        return byz_msgs_.data() + slot * n_;
    }
    const std::uint8_t* slot_presence(std::size_t slot) const {
        return byz_present_.data() + slot * n_;
    }
    const Message* row_delivery(std::size_t row, NodeId receiver) const {
        // Pattern rows go first: their probe keeps its single mode test.
        const std::uint8_t mode = row_mode_[row];
        if (mode == kRowPattern) {
            const RowPattern& p = row_pattern_[row];
            const int side = receiver < p.boundary ? 0 : 1;
            return p.present[side] ? &p.msg[side] : nullptr;
        }
        const auto idx = static_cast<std::size_t>(row_slot_[row]);
        if (mode == kRowDense) {
            const std::size_t off = idx * n_ + receiver;
            return byz_present_[off] ? &byz_msgs_[off] : nullptr;
        }
        return &selects_[idx].msg[kern::bit_at(select_words_.data() + idx * words_n_, receiver)];
    }
    const std::uint8_t* state_plane() const { return state_.data(); }
    const Message* honest_plane() const { return honest_.data(); }

private:
    std::int32_t ensure_row(NodeId v);
    /// Appends a dense slot with no referencing rows; its cells are stale.
    std::size_t new_slot();
    /// Assigns (and clears) a dense cell block for `row`. Dense storage is
    /// allocated per *densified* row, not per row: a round of t pattern
    /// rows (every split/broadcast attack) costs O(t) bookkeeping, not an
    /// O(t * n) cell arena.
    void assign_dense_slot(std::size_t row);
    /// Makes an existing row's cells safe to write in place: a pattern or
    /// select row is materialized into its own dense slot; a dense row
    /// already owns its slot.
    void make_writable(std::size_t row);
    /// Merges into an existing row: make_writable, then cell(to) (a
    /// Message pointer, nullptr = leave the cell) into every receiver's
    /// cell. Returns the number of previously-empty cells now covered.
    template <typename CellFn>
    std::uint64_t merge_cells(std::size_t row, CellFn&& cell);

    NodeId n_ = 0;
    std::vector<Message> honest_;        ///< [n] honest broadcasts
    std::vector<std::uint8_t> state_;    ///< [n] presence/honesty plane
    /// Per-word send record: `sent` = set_word this round and no
    /// set_broadcast since; kind/phase = the word's signature.
    struct WordSig {
        MsgKind kind{};
        std::uint8_t sent = 0;
        Phase phase = 0;
    };
    std::vector<WordSig> word_sig_;        ///< [n/64]
    std::vector<std::uint64_t> present_;   ///< [n/64] set_word presence
    kern::PackedPlanes words_;             ///< [n/64] set_word masks + byz
    std::vector<std::int32_t> byz_row_of_;  ///< [n] sender -> row, or -1
    std::vector<NodeId> row_sender_;     ///< [rows] row -> sender
    std::vector<std::uint8_t> row_mode_; ///< [rows] kRowDense / kRowPattern / kRowSelect
    /// [rows] dense slot (dense rows), selector (select rows), or -1
    std::vector<std::int32_t> row_slot_;
    std::vector<RowPattern> row_pattern_;  ///< [rows] pattern payloads
    std::vector<Message> byz_msgs_;      ///< [slots * n] dense delivery cells
    std::vector<std::uint8_t> byz_present_;  ///< [slots * n]
    std::vector<RowSelect> selects_;           ///< [selects] select row payloads
    std::vector<std::uint64_t> select_words_;  ///< [selects * words_n_]
    std::size_t words_n_ = 0;                  ///< kern::word_count(n)
    std::size_t rows_in_use_ = 0;
    std::size_t slots_in_use_ = 0;
    std::size_t selects_in_use_ = 0;
};

/// Adapts a RoundBuffer behind the virtual DeliverySource interface — the
/// engine's reference delivery path (per-probe vtable dispatch, per-sender
/// tally loops) that the flat path must match bit for bit.
class RoundBufferSource final : public DeliverySource {
public:
    explicit RoundBufferSource(const RoundBuffer& buf) : buf_(buf) {}
    const Message* delivery(NodeId receiver, NodeId sender) const override {
        return buf_.from(receiver, sender);
    }
    NodeId n() const override { return buf_.n(); }

private:
    const RoundBuffer& buf_;
};

/// Sorted (word, count) histogram — the recycled flat replacement for the
/// old std::map word tallies. Entries are unique words in ascending order;
/// clear() keeps capacity, so a warm engine builds these with zero
/// allocation per round.
using WordHistogram = std::vector<std::pair<Word, Count>>;

/// One (kind, phase) bucket of the round's honest-broadcast histogram.
/// val/flag counts are filled eagerly; coin prefix sums and word histograms
/// are built lazily on the round's first query that needs them.
struct TallyBucket {
    MsgKind kind{};
    Phase phase = 0;
    std::array<Count, 2> val_cnt{};       ///< by val & 1
    std::array<Count, 2> val_flag_cnt{};  ///< by val & 1, flag != 0 only
    Count total = 0;

    /// Packed-mode match plane: bit v set iff present sender v's broadcast
    /// landed in this bucket. Filled eagerly by the packed rebuild (unused
    /// and unsized in scalar mode); every packed query ANDs against it.
    std::vector<std::uint64_t> match;

    mutable bool have_coin_prefix = false;
    /// coin_prefix[u] = sum of sanitized ±1 coins of honest senders < u
    /// whose broadcast matched this bucket; size n+1.
    mutable std::vector<std::int64_t> coin_prefix;
    mutable bool have_words = false;
    mutable WordHistogram words;       ///< all matching messages
    mutable WordHistogram words_flag;  ///< flag != 0 only
};

/// Engine-level shared tallies over one round. rebuild() runs once per round
/// in O(n); buckets and the per-receiver Byzantine delta caches are shared
/// by every receiver's ReceiveView for that round, so each receive query is
/// O(1) after the first receiver pays the O(n + rows) aggregation.
class RoundTally {
public:
    /// Scalar rebuild — the byte-plane reference oracle.
    void rebuild(const RoundBuffer& buf) { rebuild(buf, false, nullptr); }
    /// Full form: `packed` selects the word-packed popcount build
    /// (tally_kernels.hpp); `intra` shards the pack pass over word-aligned
    /// node ranges (packed mode only; ignored when scalar). A packed build
    /// of a word-sent round (RoundBuffer::word_round) adopts the send words
    /// and runs no pack pass: one bucket whose match plane is the presence
    /// plane, or none when no sender is present. Query results are
    /// bit-identical across all (packed, intra, words) combinations.
    void rebuild(const RoundBuffer& buf, bool packed, IntraDispatcher* intra);
    /// True when the current round was built in packed mode.
    bool packed() const { return packed_; }
    /// True when the current packed round adopted the buffer's send words.
    bool words_adopted() const { return adopted_; }
    /// The round's shared word-packed attribute planes (packed mode only).
    /// UNMASKED — consumers must gate every bit through a bucket's match
    /// plane (tally_kernels.hpp contract). The sparse delivery plane reads
    /// these directly for its per-edge honest-sender probes.
    const kern::PackedPlanes& packed_planes() const {
        ADBA_EXPECTS_MSG(packed_, "packed_planes requires a packed rebuild");
        return planes();
    }

    const TallyBucket* find(MsgKind kind, Phase phase) const;
    /// Live buckets for the current round, in discovery order. Bucket
    /// storage (coin prefixes, word maps) is recycled across rounds, so a
    /// warm engine's tally service allocates nothing per round.
    std::size_t bucket_count() const { return buckets_in_use_; }
    const TallyBucket& bucket(std::size_t i) const { return buckets_[i]; }

    /// Lazy builders (per round, shared across receivers).
    const std::vector<std::int64_t>& coin_prefix(const TallyBucket& b) const;
    const WordHistogram& word_counts(const TallyBucket& b, bool require_flag) const;

    /// Sanitized ±1 coin sum of bucket-matching honest senders in
    /// [first, last): masked popcounts over the packed coin planes, or the
    /// lazy prefix difference in scalar mode — one query API, two builds,
    /// identical integers.
    std::int64_t coin_range_sum(const TallyBucket& b, NodeId first,
                                NodeId last) const;

    /// Whole per-receiver Byzantine val-count delta plane for one query
    /// signature (array of size n, indexed by receiver); nullptr when no
    /// Byzantine delivery matches the query — every receiver then sees
    /// exactly the bucket's counts, and callers read nullptr as all-zero
    /// deltas. Built once per signature with a difference sweep over
    /// pattern rows — O(n + rows), not O(n * rows). Batch protocols hoist
    /// this out of their receive loop.
    const std::array<Count, 2>* val_delta_plane(MsgKind kind, Phase phase,
                                                bool require_flag) const;
    /// Per-receiver Byzantine val-count deltas for one query signature;
    /// nullptr when no Byzantine delivery matches it.
    const std::array<Count, 2>* val_deltas(MsgKind kind, Phase phase,
                                           bool require_flag, NodeId receiver) const;
    /// Whole per-receiver Byzantine coin-sum delta plane over senders in
    /// [first, last); nullptr when no Byzantine coin from that range
    /// reaches a receiver (callers read nullptr as all-zero deltas).
    const std::int64_t* coin_delta_plane(MsgKind kind, Phase phase, bool check_phase,
                                         NodeId first, NodeId last) const;
    /// coin_delta_plane in two-valued form: receiver v's delta is
    /// delta[bit v of `select`] (select == nullptr: delta[0] everywhere).
    struct CoinSelect {
        const std::uint64_t* select = nullptr;
        std::int64_t delta[2] = {0, 0};
    };
    /// The same deltas as coin_delta_plane, in O(rows) and with no n-entry
    /// plane, when every in-range Byzantine coin that reaches a receiver
    /// comes from select rows on one selector (or none comes at all);
    /// nullopt otherwise — then read coin_delta_plane. Dense rows in range
    /// always answer nullopt (their cells are not read here).
    std::optional<CoinSelect> coin_delta_select(MsgKind kind, Phase phase, bool check_phase,
                                                NodeId first, NodeId last) const;
    /// Per-receiver Byzantine coin-sum delta over senders in [first, last).
    std::int64_t coin_delta(MsgKind kind, Phase phase, bool check_phase,
                            NodeId first, NodeId last, NodeId receiver) const;

    /// Byzantine-row word deltas delivered to `receiver` for `kind` (any
    /// phase), as a sorted histogram in recycled scratch storage — valid
    /// until the next call. No per-query allocation once warm.
    const WordHistogram& byz_word_deltas(MsgKind kind, bool require_flag,
                                         NodeId receiver) const;

private:
    struct ValCache {
        MsgKind kind{};
        Phase phase = 0;
        bool flag = false;
        bool any = false;  ///< some Byzantine delivery matched
        std::vector<std::array<Count, 2>> delta;  ///< [n]
    };
    struct CoinCache {
        MsgKind kind{};
        Phase phase = 0;
        bool check_phase = false;
        NodeId first = 0;
        NodeId last = 0;
        bool any = false;  ///< some Byzantine coin reaches a receiver
        std::vector<std::int64_t> delta;  ///< [n]
    };

    /// The round's packed planes: the buffer's send words when adopted,
    /// else the pack pass's output.
    const kern::PackedPlanes& planes() const {
        return adopted_ ? buf_->word_planes() : planes_;
    }
    void rebuild_scalar(const RoundBuffer& buf);
    void rebuild_packed(const RoundBuffer& buf, IntraDispatcher* intra);
    /// Packs the round's Messages into planes_ and the buckets' match
    /// planes (kern::pack_shard per shard, merged in shard order).
    void pack_pass(const RoundBuffer& buf, IntraDispatcher* intra);
    TallyBucket& bucket_for(MsgKind kind, Phase phase, std::size_t words);
    /// Calls sweep(msgs, presence) over the slot of each dense row whose
    /// sender lies in [first, last).
    template <typename Fn>
    void for_each_dense_slot(NodeId first, NodeId last, Fn&& sweep) const;
    /// Calls fold(select, words, weight) once per selector referenced by a
    /// select row whose sender lies in [first, last); weight = the number
    /// of such rows on that selector. A selector shared by k senders is
    /// folded once instead of k times.
    template <typename Fn>
    void for_each_weighted_select(NodeId first, NodeId last, Fn&& fold) const;

    const RoundBuffer* buf_ = nullptr;
    bool packed_ = false;
    bool adopted_ = false;                 ///< packed from the send words
    kern::PackedPlanes planes_;            ///< pack pass output; recycled
    std::vector<kern::PackShard> pack_shards_;  ///< per-shard pack scratch
    // Buckets and query caches: entries are reused across rounds (vectors
    // and maps keep their storage); *_in_use_ marks how many are live for
    // the current round.
    std::vector<TallyBucket> buckets_;
    std::size_t buckets_in_use_ = 0;
    mutable std::vector<ValCache> val_caches_;
    mutable std::size_t val_caches_in_use_ = 0;
    mutable std::vector<CoinCache> coin_caches_;
    mutable std::size_t coin_caches_in_use_ = 0;
    mutable WordHistogram byz_words_scratch_;  ///< recycled by byz_word_deltas
    mutable std::vector<Count> select_weight_; ///< for_each_weighted_select scratch
};

/// Receiver-specific view of one round's deliveries — concrete and final so
/// the per-(receiver, sender) probe devirtualizes and inlines.
///
/// Two backends share exactly one semantics:
///  * flat     — RoundBuffer probe + RoundTally-backed O(1) queries;
///  * adapter  — a DeliverySource (scripted test or the engine's reference
///               path); every tally query falls back to the plain per-sender
///               loop over from(), which doubles as the executable spec the
///               flat implementations are tested against.
class ReceiveView final {
public:
    ReceiveView(const RoundBuffer& buf, const RoundTally& tally, NodeId receiver)
        : buf_(&buf), tally_(&tally), n_(buf.n()), recv_(receiver) {}
    ReceiveView(const DeliverySource& src, NodeId receiver)
        : src_(&src), n_(src.n()), recv_(receiver) {}

    /// Message delivered from `sender` to this receiver this round, or
    /// nullptr for silence (halted, crashed, or adversarially withheld).
    /// `from(self)` returns the node's own broadcast (a node counts its own
    /// value in the paper's tallies).
    const Message* from(NodeId sender) const {
        ADBA_EXPECTS(sender < n_);
        if (buf_) return buf_->from(recv_, sender);
        return src_->delivery(recv_, sender);
    }

    /// Network size; senders are 0..n()-1.
    NodeId n() const { return n_; }
    /// The receiving node's own id.
    NodeId receiver() const { return recv_; }

    /// Span-style bulk iteration: invokes fn(sender, const Message&) for
    /// every non-silent delivery to this receiver, in sender order.
    template <typename Fn>
    void for_each_delivery(Fn&& fn) const {
        if (buf_ == nullptr) {
            for (NodeId u = 0; u < n_; ++u)
                if (const Message* m = src_->delivery(recv_, u)) fn(u, *m);
            return;
        }
        const std::uint8_t* state = buf_->state_plane();
        const Message* honest = buf_->honest_plane();
        for (NodeId u = 0; u < n_; ++u) {
            const std::uint8_t st = state[u];
            if (st == RoundBuffer::kPresent) {
                fn(u, honest[u]);
            } else if (st != 0) {
                if (const Message* m = buf_->from(recv_, u)) fn(u, *m);
            }
        }
    }

    // ---- tally service (shared honest histogram + per-receiver deltas) ----

    /// Counts, by val & 1, of deliveries matching (kind, phase) and, when
    /// `require_flag`, flag != 0 — the quorum probe every voting protocol
    /// reduces its receive step to.
    std::array<Count, 2> val_counts(MsgKind kind, Phase phase,
                                    bool require_flag) const;

    /// Sum of sanitized ±1 coin fields over deliveries from senders in
    /// [first, last) matching `kind` (and `phase`, when `check_phase`).
    /// Byzantine coin fields are clamped to ±1 (paper §3.2).
    std::int64_t coin_sum(MsgKind kind, Phase phase, bool check_phase,
                          NodeId first, NodeId last) const;

    /// The word (if any) whose delivery tally reaches `quorum` among
    /// messages of `kind` (flag != 0 when `require_flag`). Enforces the
    /// n-t uniqueness contract: two distinct quorum words throw.
    std::optional<Word> quorum_word(MsgKind kind, bool require_flag,
                                    Count quorum) const;

    /// The most frequent word among messages of `kind` (flag != 0 when
    /// `require_flag`) with its multiplicity; ties break to the smallest
    /// word; nullopt when no message matches.
    std::optional<std::pair<Word, Count>> plurality_word(MsgKind kind,
                                                         bool require_flag) const;

private:
    /// Shared walk behind quorum_word/plurality_word: invokes
    /// consider(word, count) over the combined delivery histogram in
    /// ascending word order (defined in round_buffer.cpp).
    template <typename Fn>
    void walk_words(MsgKind kind, bool require_flag, Fn&& consider) const;

    const RoundBuffer* buf_ = nullptr;
    const RoundTally* tally_ = nullptr;
    const DeliverySource* src_ = nullptr;
    NodeId n_ = 0;
    NodeId recv_ = 0;
};

}  // namespace adba::net
