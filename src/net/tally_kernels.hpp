// Word-packed tally kernels + the intra-trial shard seam.
//
// The scalar RoundTally build walks the round's uint8_t state plane and
// Message[] once per round — a byte-granular sweep whose throughput is
// bounded by issue width, not memory bandwidth. This header packs the
// binary per-sender attributes of a round (presence-in-bucket, val bit,
// decided flag, coin sign) into uint64_t bit planes so that every
// histogram / coin-sum query collapses to popcount-over-words: 64 senders
// per instruction, streaming through (n/8)-byte planes instead of
// 16-byte Messages. The scalar byte-plane code in round_buffer.cpp stays
// as the reference oracle (scenario key `simd=off`); the equivalence
// tests pin the two bit-identical — every count here is an exact integer,
// so "vectorized" never means "approximate".
//
// Two pieces live here:
//
//  * IntraDispatcher — the engine-side seam for intra-trial parallelism.
//    An implementation (sim::ShardPool) runs fn(shard, lo, hi) over
//    word-aligned node ranges covering [0, n). Ranges depend only on
//    (n, shards()), NEVER on how many OS threads execute them, so results
//    are invariant to the worker count — the same bit-exactness discipline
//    the cross-trial executor enforces. Word alignment makes concurrent
//    packed-plane writes race-free: two shards never touch the same word.
//
//  * kern::* — the packing pass (shardable: each shard packs its own word
//    span and discovers its own (kind, phase) buckets; RoundTally merges
//    shard-local buckets in shard order, which preserves the serial
//    ascending-first-occurrence bucket order) and the popcount reduction
//    kernels RoundTally and ReceiveView call.
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <functional>
#include <utility>
#include <vector>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

#include "net/message.hpp"
#include "support/types.hpp"

namespace adba::net {

class RoundBuffer;

/// Runs a beat callback over word-aligned node ranges. The engine uses one
/// dispatcher per trial for the send beat, the tally pack and the receive
/// beat (EngineConfig::intra); a null dispatcher means serial beats.
///
/// Contract: run_shards(n, fn) invokes fn(s, lo, hi) exactly once for each
/// shard s in [0, shards()) with the ranges of kern::shard_node_range, and
/// returns only after every invocation completed (barrier per beat). The
/// callback must confine its writes to [lo, hi) state (node ranges are
/// 64-aligned, so per-word packed writes are disjoint too).
class IntraDispatcher {
public:
    virtual ~IntraDispatcher() = default;

    /// Logical shard count per dispatch. Results must not depend on it
    /// (tests pin shard-count invariance); only wall-clock should.
    virtual unsigned shards() const = 0;
    virtual void run_shards(
        NodeId n, const std::function<void(unsigned, NodeId, NodeId)>& fn) = 0;
};

namespace kern {

inline constexpr NodeId kWordBits = 64;

/// Bit v of a one-bit-per-node plane (bit v % 64 of word v / 64), as 0/1.
inline unsigned bit_at(const std::uint64_t* words, NodeId v) {
    return static_cast<unsigned>((words[v / kWordBits] >> (v % kWordBits)) & 1);
}

/// Number of uint64_t words covering n one-bit-per-sender lanes.
inline std::size_t word_count(NodeId n) {
    return (static_cast<std::size_t>(n) + kWordBits - 1) / kWordBits;
}

/// Node range [lo, hi) of shard s of `shards` over n nodes. Ranges tile
/// [0, n), are 64-aligned at every interior boundary, and depend only on
/// (n, s, shards) — the determinism contract of IntraDispatcher.
inline std::pair<NodeId, NodeId> shard_node_range(NodeId n, unsigned s,
                                                  unsigned shards) {
    const std::size_t words = word_count(n);
    const std::size_t w_lo = words * s / shards;
    const std::size_t w_hi = words * (s + 1) / shards;
    const auto clamp = [n](std::size_t w) {
        const std::size_t v = w * kWordBits;
        return v < n ? static_cast<NodeId>(v) : n;
    };
    return {clamp(w_lo), clamp(w_hi)};
}

/// Runs fn(shard, lo, hi) through `intra` when present, else serially as
/// one full-range shard — the single-call form every sharded beat uses.
template <typename Fn>
void run_sharded(IntraDispatcher* intra, NodeId n, Fn&& fn) {
    if (intra != nullptr) {
        intra->run_shards(n, fn);
    } else {
        fn(0u, NodeId{0}, n);
    }
}

/// Round-wide packed attribute planes over senders (bit v of word v/64).
/// The attribute planes are UNMASKED: pack_shard fills them branchlessly
/// for every sender slot, including absent/Byzantine ones, so they carry
/// garbage bits from stale cells. Only a bucket's match plane encodes
/// presence — every consumer must AND an attribute plane with a match
/// plane before popcounting; never popcount an attribute plane alone.
/// Storage is recycled across rounds.
struct PackedPlanes {
    std::vector<std::uint64_t> val;       ///< broadcast present and (val & 1)
    std::vector<std::uint64_t> flag;      ///< present and flag != 0
    std::vector<std::uint64_t> coin_pos;  ///< present and coin > 0
    std::vector<std::uint64_t> coin_neg;  ///< present and coin < 0
    /// Honesty membership: bit set iff the sender is Byzantine. Unlike the
    /// attribute planes above this one is EXACT (state-derived, not payload-
    /// derived) — the sparse probe kernels read it alone, with no match
    /// gating, to split sampled edges into honest vs Byzantine at one bit
    /// per sender (8x denser than the uint8_t state plane).
    std::vector<std::uint64_t> byz;

    void ensure(std::size_t words) {
        if (val.size() < words) {
            val.resize(words);
            flag.resize(words);
            coin_pos.resize(words);
            coin_neg.resize(words);
            byz.resize(words);
        }
    }
};

/// One shard's locally-discovered (kind, phase) bucket: match bits over the
/// shard's own word span only (offset by PackShard::word_lo).
struct PackShardBucket {
    MsgKind kind{};
    Phase phase = 0;
    std::vector<std::uint64_t> match;
};

/// Recycled per-shard pack scratch; filled by pack_shard, merged serially
/// by RoundTally::rebuild in shard-index order.
struct PackShard {
    std::size_t word_lo = 0;
    std::size_t word_hi = 0;
    std::vector<PackShardBucket> buckets;
    std::size_t buckets_in_use = 0;
};

/// Packs senders [lo, hi) of `buf` into the global attribute planes (this
/// shard's word span only — disjoint from every other shard's writes) and
/// the shard-local bucket match planes. [lo, hi) must come from
/// shard_node_range.
void pack_shard(const RoundBuffer& buf, NodeId lo, NodeId hi,
                PackedPlanes& planes, PackShard& shard);

// ---- byte plane -> bit plane ---------------------------------------------

/// Bit 0 of each byte of a 0/1 byte plane, eight bytes per step.
inline constexpr std::uint64_t kByteLowBits = 0x0101010101010101ULL;

/// Eight consecutive plane bytes as one integer: byte i of the plane is
/// bits [8i, 8i + 8) on a little-endian host, so shifts and masks act on
/// every byte at once.
inline std::uint64_t load_bytes8(const std::uint8_t* p) {
    std::uint64_t x = 0;
    std::memcpy(&x, p, sizeof x);
    return x;
}
inline void store_bytes8(std::uint8_t* p, std::uint64_t x) { std::memcpy(p, &x, sizeof x); }

/// Bit 0 of each byte set iff that byte of `x` is nonzero: the 0/1 form
/// of a "nonzero = true" byte plane, eight bytes per step. Each shift
/// folds bits of the same byte down to its bit 0 before the mask.
inline std::uint64_t nonzero_bytes8(std::uint64_t x) {
    x |= x >> 4;
    x |= x >> 2;
    x |= x >> 1;
    return x & kByteLowBits;
}

/// Packs bit 0 of each of the eight bytes in `x` (as load_bytes8 read
/// them; the other bits must be clear) into bits 0..7, byte i -> bit i.
/// One multiply gathers them: every byte's bit meets a distinct power of
/// two, so no partial product carries into the top byte.
inline std::uint64_t gather_low_bits8(std::uint64_t x) {
    if constexpr (std::endian::native == std::endian::little) {
        return (x * 0x0102040810204080ULL) >> 56;
    } else {
        std::uint64_t bits = 0;
        for (unsigned i = 0; i < 8; ++i) bits |= ((x >> (56 - 8 * i)) & 1) << i;
        return bits;
    }
}

/// The inverse of gather_low_bits8: bit i of `bits` (i < 8) becomes bit 0
/// of byte i, as load_bytes8 reads the bytes. The multiply copies the low
/// byte into every byte (no carries), the mask keeps bit i of byte i.
inline std::uint64_t scatter_low_bits8(std::uint64_t bits) {
    const std::uint64_t copies = (bits & 0xFF) * kByteLowBits;
    if constexpr (std::endian::native == std::endian::little) {
        return nonzero_bytes8(copies & 0x8040201008040201ULL);
    } else {
        return nonzero_bytes8(copies & 0x0102040810204080ULL);
    }
}

/// Bit i set iff (a[i] & amask) == 0 and b[i] == 0, over the 64 bytes
/// from a and from b: a whole-word byte-plane scan (the adversary
/// observer's liveness test: no kByzantine bit in the state plane, not
/// halted), eight bytes per step. Every build compiles this form: it is
/// clear_bytes64 without SSE2, and the reference its SSE2 form is tested
/// against.
inline std::uint64_t clear_bytes64_portable(const std::uint8_t* a, std::uint8_t amask,
                                            const std::uint8_t* b) {
    std::uint64_t bits = 0;
    for (unsigned i = 0; i < 64; i += 8) {
        const std::uint64_t set = nonzero_bytes8((load_bytes8(a + i) & (amask * kByteLowBits)) |
                                                 load_bytes8(b + i));
        bits |= gather_low_bits8(set ^ kByteLowBits) << i;
    }
    return bits;
}

/// clear_bytes64_portable, 16 bytes per SSE2 compare where the target has
/// SSE2 (every x86-64 build). The worst-case adversary's word scans run
/// on it three times over n per phase; the SSE2 form raised
/// thm2-worstcase-flat's trials_per_s by 7% (10 alternating runs per form,
/// 4-vCPU x86-64 VM).
inline std::uint64_t clear_bytes64(const std::uint8_t* a, std::uint8_t amask,
                                   const std::uint8_t* b) {
#if defined(__SSE2__)
    std::uint64_t bits = 0;
    const __m128i mask = _mm_set1_epi8(static_cast<char>(amask));
    const __m128i zero = _mm_setzero_si128();
    for (unsigned i = 0; i < 64; i += 16) {
        const __m128i x = _mm_loadu_si128(reinterpret_cast<const __m128i*>(a + i));
        const __m128i y = _mm_loadu_si128(reinterpret_cast<const __m128i*>(b + i));
        const __m128i set = _mm_or_si128(_mm_and_si128(x, mask), y);
        bits |= static_cast<std::uint64_t>(static_cast<std::uint16_t>(
                    _mm_movemask_epi8(_mm_cmpeq_epi8(set, zero))))
                << i;
    }
    return bits;
#else
    return clear_bytes64_portable(a, amask, b);
#endif
}

/// Bit i set iff p[i] != 0, over the 64 bytes from p.
inline std::uint64_t nonzero_bytes64(const std::uint8_t* p) {
    return ~clear_bytes64(p, 0xFF, p);
}

// ---- popcount reduction kernels -----------------------------------------

inline Count popcount_words(const std::uint64_t* a, std::size_t words) {
    Count c = 0;
    for (std::size_t w = 0; w < words; ++w) c += static_cast<Count>(std::popcount(a[w]));
    return c;
}

inline Count popcount_and(const std::uint64_t* a, const std::uint64_t* b,
                          std::size_t words) {
    Count c = 0;
    for (std::size_t w = 0; w < words; ++w)
        c += static_cast<Count>(std::popcount(a[w] & b[w]));
    return c;
}

inline Count popcount_and3(const std::uint64_t* a, const std::uint64_t* b,
                           const std::uint64_t* c3, std::size_t words) {
    Count c = 0;
    for (std::size_t w = 0; w < words; ++w)
        c += static_cast<Count>(std::popcount(a[w] & b[w] & c3[w]));
    return c;
}

/// Sanitized ±1 coin sum over bucket-matching senders in [first, last):
/// masked popcounts over the (coin_pos, coin_neg) planes — the packed
/// equivalent of TallyBucket::coin_prefix[last] - coin_prefix[first].
inline std::int64_t coin_sum_range(const std::uint64_t* pos,
                                   const std::uint64_t* neg,
                                   const std::uint64_t* match, NodeId first,
                                   NodeId last) {
    if (first >= last) return 0;
    const std::size_t w0 = first / kWordBits;
    const std::size_t w1 = (static_cast<std::size_t>(last) - 1) / kWordBits;
    std::int64_t sum = 0;
    for (std::size_t w = w0; w <= w1; ++w) {
        std::uint64_t m = match[w];
        if (w == w0) m &= ~std::uint64_t{0} << (first % kWordBits);
        if (w == w1) {
            const unsigned r = last - static_cast<NodeId>(w * kWordBits);
            if (r < kWordBits) m &= (std::uint64_t{1} << r) - 1;
        }
        sum += std::popcount(pos[w] & m);
        sum -= std::popcount(neg[w] & m);
    }
    return sum;
}

/// Invokes fn(sender) for every set bit in `words`, ascending — the
/// word-sliced iteration behind the packed mv word histograms (ctz per
/// live sender instead of a byte-plane branch per sender).
template <typename Fn>
void for_each_set_bit(const std::uint64_t* words, std::size_t word_count, Fn&& fn) {
    for (std::size_t w = 0; w < word_count; ++w) {
        std::uint64_t bits = words[w];
        while (bits != 0) {
            const unsigned i = static_cast<unsigned>(std::countr_zero(bits));
            fn(static_cast<NodeId>(w * kWordBits + i));
            bits &= bits - 1;
        }
    }
}

/// Bit-sliced 64-lane column accumulator — the carry-save adder tree of
/// the fused trial plane (net/fused_plane.hpp). The popcount kernels above
/// count bits ACROSS a word (64 senders of ONE trial); the fused plane
/// needs the transpose: 64 independent per-lane counts where lane j of
/// every added word belongs to trial j. LaneAdder keeps the running counts
/// bit-sliced — planes_[k] holds bit k of all 64 lane counts — so add(x)
/// is a ripple-carry over at most log2(count) words (amortized ~2 word ops
/// per add: the carry chain terminates as soon as a plane has no carry),
/// never 64 scalar increments.
class LaneAdder {
public:
    /// log2 ceiling of the largest supported addend count (2^32 adds).
    static constexpr unsigned kMaxPlanes = 32;

    /// Adds 1 to lane j's count for every set bit j of x.
    void add(std::uint64_t x) {
        for (unsigned k = 0; k < used_; ++k) {
            const std::uint64_t carry = planes_[k] & x;
            planes_[k] ^= x;
            x = carry;
            if (x == 0) return;
        }
        planes_[used_++] = x;
    }

    /// Lane j's accumulated count.
    Count lane(unsigned j) const {
        Count c = 0;
        for (unsigned k = 0; k < used_; ++k)
            c |= static_cast<Count>((planes_[k] >> j) & 1) << k;
        return c;
    }

    /// Writes all 64 lane counts to out[0..63].
    void counts(Count* out) const {
        for (unsigned j = 0; j < 64; ++j) out[j] = 0;
        for (unsigned k = 0; k < used_; ++k) {
            std::uint64_t bits = planes_[k];
            while (bits != 0) {
                const unsigned j = static_cast<unsigned>(std::countr_zero(bits));
                out[j] |= Count{1} << k;
                bits &= bits - 1;
            }
        }
    }

    /// O(1): forget the counts without touching the plane array.
    void reset() { used_ = 0; }

private:
    std::uint64_t planes_[kMaxPlanes] = {};
    unsigned used_ = 0;
};

}  // namespace kern
}  // namespace adba::net
