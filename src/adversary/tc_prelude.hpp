// Attack on the Turpin-Coan prelude (core/multivalued.hpp): corrupt a slice
// of the budget immediately and equivocate word values and echoes, trying
// to drive different honest nodes to different x* candidates or to split
// the derived binary inputs. Compose with WorstCaseAdversary (offset 2) via
// SwitchAdversary to attack the full multi-valued stack.
#pragma once

#include <cstdint>
#include <vector>

#include "net/engine.hpp"
#include "support/types.hpp"

namespace adba::adv {

class TcPreludeAdversary final : public net::Adversary {
public:
    /// Corrupts q nodes in round 0 (before any delivery) and equivocates
    /// through the two prelude rounds; silent afterwards.
    explicit TcPreludeAdversary(Count q) : q_(q) {}

    void on_start(NodeId, Count budget) override { budget_ = budget; }
    void act(net::RoundControl& ctl) override;

    /// True when round 0 found the quorum-boundary band and armed the
    /// binary-input split (exposed for tests/benches).
    bool split_armed() const { return split_armed_; }

private:
    Count q_;
    Count budget_ = 0;  ///< engine budget t (fixes the n-t quorum)
    std::vector<NodeId> corrupted_;
    std::vector<std::uint64_t> select_;  ///< round 1's pushed receivers (scratch)
    net::Word plurality_ = 0;  ///< honest plurality word observed in round 0
    bool split_armed_ = false;
};

}  // namespace adba::adv
