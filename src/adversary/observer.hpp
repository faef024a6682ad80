// Full-information observation for adversaries that scan all n nodes per
// round: one idiom over both forms of RoundControl's observation surface.
//
// RoundControl offers every observation twice: per-node virtual calls (the
// semantic contract, implemented by every execution plane) and, where the
// plane keeps them, live byte planes (RoundControl::planes(); the flat
// engine over a SoA batch). At n=2^16 a worst-case round makes 4-8 virtual
// calls per node, so an adversary that scans the population should read
// planes when it can. Observer picks the form once per act() and answers
// identically either way — same values, same preconditions and messages as
// Engine::Ctl — so strategies are written once against it. The word scans
// (live_word, live_decided_word) read whole words of plane bytes; in a
// word-sent round send_words() also hands out the round's presence and val
// bit planes, so a quorum count is a popcount.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>

#include "net/engine.hpp"
#include "net/round_buffer.hpp"
#include "net/tally_kernels.hpp"
#include "support/contracts.hpp"
#include "support/types.hpp"

namespace adba::adv {

/// Construct inside Adversary::act and drop before it returns. The planes
/// are live, so corruptions made through the same control show at once.
class Observer {
public:
    explicit Observer(const net::RoundControl& ctl)
        : ctl_(ctl), p_(ctl.planes()), n_(ctl.n()) {}

    NodeId n() const { return n_; }

    /// True iff v has never been corrupted.
    bool honest(NodeId v) const {
        if (!p_) return ctl_.is_honest(v);
        ADBA_EXPECTS(v < n_);
        return honest_bit(v);
    }
    /// True iff v is honest and terminated.
    bool halted(NodeId v) const {
        if (!p_) return ctl_.is_halted(v);
        ADBA_EXPECTS(v < n_);
        return honest_bit(v) && p_.halted[v] != 0;
    }
    /// True iff v is honest and still running the protocol.
    bool live(NodeId v) const {
        if (!p_) return ctl_.is_honest(v) && !ctl_.is_halted(v);
        ADBA_EXPECTS(v < n_);
        return honest_bit(v) && p_.halted[v] == 0;
    }
    /// Honest v's intended broadcast this round (nullptr = silent).
    const net::Message* broadcast(NodeId v) const {
        if (!p_) return ctl_.intended_broadcast(v);
        ADBA_EXPECTS(v < n_);
        ADBA_EXPECTS_MSG(honest_bit(v), "only honest nodes have intended broadcasts");
        return p_.state[v] == net::RoundBuffer::kPresent ? &p_.broadcasts[v] : nullptr;
    }
    /// Honest v's current agreement value and "decided" flag.
    Bit value(NodeId v) const {
        if (!p_) return ctl_.current_value(v);
        ADBA_EXPECTS(v < n_);
        ADBA_EXPECTS_MSG(honest_bit(v), "introspection is defined for honest nodes");
        return p_.value[v];
    }
    bool decided(NodeId v) const {
        if (!p_) return ctl_.current_decided(v);
        ADBA_EXPECTS(v < n_);
        ADBA_EXPECTS_MSG(honest_bit(v), "introspection is defined for honest nodes");
        return p_.decided[v] != 0;
    }

    /// Live nodes among [64·w, 64·w + 64) ∩ [0, n), bit i for node 64·w + i.
    std::uint64_t live_word(std::size_t w) const {
        return scan_word(w, [&](NodeId v) { return live(v); },
                         [&](NodeId v) { return live_bytes64(v); });
    }
    /// Live and decided nodes of word w, as live_word.
    std::uint64_t live_decided_word(std::size_t w) const {
        return scan_word(w, [&](NodeId v) { return live(v) && decided(v); },
                         [&](NodeId v) {
                             return live_bytes64(v) & net::kern::nonzero_bytes64(p_.decided + v);
                         });
    }
    /// The round's send words (ObservationPlanes::present_words, val_words,
    /// word_kind, word_phase), or nullptr when the control offers none:
    /// a control without planes, or a round with a per-node send.
    const net::ObservationPlanes* send_words() const {
        return p_.present_words != nullptr ? &p_ : nullptr;
    }

private:
    bool honest_bit(NodeId v) const {
        return (p_.state[v] & net::RoundBuffer::kByzantine) == 0;
    }
    /// Bit i set iff node v + i is live, for 64 nodes (planes only).
    std::uint64_t live_bytes64(NodeId v) const {
        return net::kern::clear_bytes64(p_.state + v, net::RoundBuffer::kByzantine,
                                        p_.halted + v);
    }
    /// One word of a per-node predicate: `bytes64(v)` answers a whole word
    /// of nodes from v at once over planes, `one(v)` answers a node (the
    /// per-node fallback, and the last word when n % 64 != 0).
    template <typename One, typename Bytes64>
    std::uint64_t scan_word(std::size_t w, One&& one, Bytes64&& bytes64) const {
        const auto v0 = static_cast<NodeId>(w * net::kern::kWordBits);
        ADBA_EXPECTS(v0 < n_);
        const NodeId v1 = std::min<NodeId>(n_, v0 + static_cast<NodeId>(net::kern::kWordBits));
        if (p_ && v1 - v0 == net::kern::kWordBits) return bytes64(v0);
        std::uint64_t bits = 0;
        for (NodeId v = v0; v < v1; ++v) bits |= std::uint64_t{one(v)} << (v - v0);
        return bits;
    }

    const net::RoundControl& ctl_;
    net::ObservationPlanes p_;
    NodeId n_;
};

}  // namespace adba::adv
