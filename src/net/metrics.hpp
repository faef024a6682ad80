// Communication accounting for the simulator.
//
// The paper reports message complexity O(min(n t^2 log n, n^2 t / log n))
// (§1.2, §4); experiment E6 regenerates that comparison from these counters.
// Only honest traffic is charged to the protocol (Byzantine nodes may send
// arbitrarily much; that is the adversary's budget, not the algorithm's).
#pragma once

#include <algorithm>
#include <cstdint>

namespace adba::net {

struct Metrics {
    /// Point-to-point messages sent by honest nodes (a broadcast to n-1
    /// neighbors counts n-1; self-delivery is local and free).
    std::uint64_t honest_messages = 0;
    /// Total bits of honest traffic under CONGEST encoding (wire_bits).
    std::uint64_t honest_bits = 0;
    /// Messages delivered on behalf of Byzantine senders.
    std::uint64_t byzantine_messages = 0;
    /// Rounds actually executed.
    std::uint64_t rounds = 0;
    /// Nodes corrupted over the run.
    std::uint64_t corruptions = 0;
};

/// No sparse sub-dense cap: every live receiver takes every broadcast.
inline constexpr std::uint64_t kNoFanoutCap = UINT64_MAX;

/// Point-to-point messages of one round's honest broadcasts, in closed
/// form — the engine and the fused plane charge through this one formula.
/// Every count is read after the adversary acted (a node corrupted this
/// round never got its broadcast onto the wire):
///   senders  S  — live honest broadcasts;
///   flushed  SH — those whose sender halted during this round's send (a
///                 finish-flushing protocol's last broadcast);
///   halted   H  — honest halted nodes, which have left the protocol and
///                 take no delivery (Byzantine receivers stay on the wire:
///                 a sender cannot know them).
/// A broadcast reaches n-1 receivers minus the halted ones. A flushed
/// sender is itself among the H, and its own exclusion is already the
/// "-1", so it reaches one more:
///   sum = (S - SH) * min(n-1-H, cap) + SH * min(n-H, cap)
/// which is S*(n-1-H) + SH when nothing caps. `cap` is the sparse plane's
/// sub-dense degree: delivery there is receiver-driven, each live receiver
/// pulling `degree` sampled sender edges, so a broadcast is charged for at
/// most that many receivers. Unsigned wrap-safe: n-1-H wraps only when
/// H = n, and then S - SH = 0 and n-H = 0, so both terms are 0.
constexpr std::uint64_t honest_fanout(std::uint64_t senders, std::uint64_t flushed,
                                      std::uint64_t halted, std::uint64_t n,
                                      std::uint64_t cap = kNoFanoutCap) {
    const std::uint64_t reach = n - 1 - halted;
    return (senders - flushed) * std::min(reach, cap) + flushed * std::min(reach + 1, cap);
}

}  // namespace adba::net
