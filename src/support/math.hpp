// Small integer/real math helpers used by committee sizing and the
// closed-form bound curves. Header-only; all constexpr-friendly.
#pragma once

#include <bit>
#include <cmath>
#include <cstdint>

#include "support/contracts.hpp"

namespace adba {

/// ceil(a / b) for positive integers.
constexpr std::uint64_t ceil_div(std::uint64_t a, std::uint64_t b) {
    return (a + b - 1) / b;
}

/// ceil(log2(x)) for x >= 1; returns 0 for x == 0 and x == 1. O(1) over
/// the whole uint64 range (x > 2^63 gives 64).
constexpr std::uint32_t ceil_log2(std::uint64_t x) {
    return x <= 1 ? 0 : static_cast<std::uint32_t>(std::bit_width(x - 1));
}

/// floor(log2(x)) for x >= 1.
constexpr std::uint32_t floor_log2(std::uint64_t x) {
    std::uint32_t r = 0;
    while (x >>= 1) ++r;
    return r;
}

/// Integer square root: floor(sqrt(x)).
constexpr std::uint64_t isqrt(std::uint64_t x) {
    if (x < 2) return x;
    std::uint64_t lo = 1, hi = x;
    while (lo < hi) {
        const std::uint64_t mid = lo + (hi - lo + 1) / 2;
        if (mid <= x / mid)
            lo = mid;
        else
            hi = mid - 1;
    }
    return lo;
}

/// log2 of a real quantity, guarded for the n=1 edge (log2(1)=0 would divide
/// by zero in the t/log n bound); clamps to >= 1.
inline double safe_log2(double x) {
    ADBA_EXPECTS(x >= 1.0);
    const double l = std::log2(x);
    return l < 1.0 ? 1.0 : l;
}

}  // namespace adba
