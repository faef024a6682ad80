// Initial input assignment patterns for agreement trials.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "rand/seed_tree.hpp"
#include "support/spec.hpp"
#include "support/types.hpp"

namespace adba::sim {

enum class InputPattern : std::uint8_t {
    AllZero,  ///< validity probe: every node starts 0
    AllOne,   ///< validity probe: every node starts 1
    Split,    ///< worst case: alternating by ID (maximally balanced)
    Random,   ///< i.i.d. fair bits from the trial's input stream
};

std::vector<Bit> make_inputs(InputPattern pattern, NodeId n, const SeedTree& seeds);

/// In-place variant for pooled trial loops: fills `out` (resized to n) with
/// exactly the same values the allocating overload returns.
void make_inputs(InputPattern pattern, NodeId n, const SeedTree& seeds,
                 std::vector<Bit>& out);

/// True iff every node holds the same input (validity clause applies).
bool unanimous(const std::vector<Bit>& inputs);

/// The names a spec accepts (key `inputs`); each pattern's first name is
/// its canonical one, which to_string returns.
const spec::Choice<InputPattern>& input_pattern_names();

std::string to_string(InputPattern pattern);

}  // namespace adba::sim
