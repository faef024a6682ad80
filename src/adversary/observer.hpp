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
// Engine::Ctl — so strategies are written once against it.
#pragma once

#include "net/engine.hpp"
#include "net/round_buffer.hpp"
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

private:
    bool honest_bit(NodeId v) const {
        return (p_.state[v] & net::RoundBuffer::kByzantine) == 0;
    }

    const net::RoundControl& ctl_;
    net::ObservationPlanes p_;
    NodeId n_;
};

}  // namespace adba::adv
