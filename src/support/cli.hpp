// Minimal command-line flag parsing for examples and bench binaries.
//
// Supports `--name=value` and `--name value` forms plus `--flag` booleans.
// Unrecognized google-benchmark flags (--benchmark_*) are passed through
// untouched so bench binaries can share argv with benchmark::Initialize.
//
// Strict mode: every accessor records which key it was asked for; a binary
// calls `check_unused()` after its last read and gets a loud failure for any
// flag nothing ever queried — so a typo like `--trails=50` aborts the run
// instead of silently proceeding with defaults.
#pragma once

#include <cstdint>
#include <limits>
#include <map>
#include <set>
#include <string>
#include <vector>

namespace adba {

/// The closest candidate within edit distance 2 of `key`, or empty when
/// nothing is close — the "did you mean ...?" helper behind Cli strict mode,
/// also used for registry/workload name errors.
std::string closest_match(const std::string& key,
                          const std::vector<std::string>& candidates);

/// Parsed command-line options with typed, defaulted accessors.
class Cli {
public:
    /// Parses argv, consuming recognized `--key[=value]` pairs.
    /// Arguments beginning with `--benchmark` are left for google-benchmark.
    Cli(int argc, char** argv);

    bool has(const std::string& key) const;
    std::string get(const std::string& key, const std::string& fallback) const;
    /// The typed getters parse strictly (support/spec.hpp: the whole value
    /// must parse) and throw ContractViolation naming the flag otherwise.
    std::int64_t get_int(const std::string& key, std::int64_t fallback) const;
    /// A count or seed of type U: digits only and at most U's maximum, so a
    /// negative or too-wide value fails naming the flag instead of wrapping.
    template <typename U>
    U get_uint(const std::string& key, U fallback) const {
        return static_cast<U>(get_uint_max(key, fallback, std::numeric_limits<U>::max()));
    }
    double get_double(const std::string& key, double fallback) const;
    /// true/false, yes/no, on/off or 1/0, so `--batch=on|off` style toggles
    /// work; a bare `--flag` reads true.
    bool get_bool(const std::string& key, bool fallback) const;

    /// Comma-separated integer list, e.g. `--t=4,8,16`.
    std::vector<std::int64_t> get_int_list(const std::string& key,
                                           std::vector<std::int64_t> fallback) const;

    /// Every key an accessor has asked for so far, sorted. Once a binary
    /// has read all its flags, these are exactly the flags it recognizes
    /// (`adba_sim --help` prints them).
    std::vector<std::string> queried() const {
        return {queried_.begin(), queried_.end()};
    }

    /// Remaining untouched arguments (argv[0] + benchmark flags + positionals).
    const std::vector<std::string>& passthrough() const { return passthrough_; }

    /// Throws ContractViolation when any parsed `--flag` was never queried by
    /// an accessor, naming the offenders and suggesting the closest known
    /// key. Call after the last flag read (benches do this inside
    /// benchutil::run_benchmark_tail).
    void check_unused() const;

private:
    std::uint64_t get_uint_max(const std::string& key, std::uint64_t fallback,
                               std::uint64_t max) const;

    std::map<std::string, std::string> kv_;
    std::vector<std::string> passthrough_;
    mutable std::set<std::string> queried_;
};

}  // namespace adba
