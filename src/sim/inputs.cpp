#include "sim/inputs.hpp"

#include "support/contracts.hpp"

namespace adba::sim {

void make_inputs(InputPattern pattern, NodeId n, const SeedTree& seeds,
                 std::vector<Bit>& out) {
    ADBA_EXPECTS(n > 0);
    out.assign(n, 0);
    switch (pattern) {
        case InputPattern::AllZero:
            break;
        case InputPattern::AllOne:
            out.assign(n, 1);
            break;
        case InputPattern::Split:
            for (NodeId v = 0; v < n; ++v) out[v] = static_cast<Bit>(v & 1);
            break;
        case InputPattern::Random: {
            auto rng = seeds.stream(StreamPurpose::InputAssignment);
            for (NodeId v = 0; v < n; ++v) out[v] = rng.bit();
            break;
        }
    }
}

std::vector<Bit> make_inputs(InputPattern pattern, NodeId n, const SeedTree& seeds) {
    std::vector<Bit> inputs;
    make_inputs(pattern, n, seeds, inputs);
    return inputs;
}

bool unanimous(const std::vector<Bit>& inputs) {
    for (Bit b : inputs)
        if (b != inputs.front()) return false;
    return true;
}

const spec::Choice<InputPattern>& input_pattern_names() {
    using P = InputPattern;
    static const spec::Choice<P> names{{{"all-zero", P::AllZero}, {"zeros", P::AllZero},
                                        {"all-one", P::AllOne}, {"ones", P::AllOne},
                                        {"split", P::Split}, {"random", P::Random}}};
    return names;
}

std::string to_string(InputPattern pattern) { return input_pattern_names().print(pattern); }

}  // namespace adba::sim
