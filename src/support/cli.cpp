#include "support/cli.hpp"

#include <algorithm>

#include "support/contracts.hpp"
#include "support/spec.hpp"

namespace adba {

namespace {

// Edit distance for "--trails -> did you mean --trials?" suggestions.
std::size_t levenshtein(const std::string& a, const std::string& b) {
    std::vector<std::size_t> prev(b.size() + 1), cur(b.size() + 1);
    for (std::size_t j = 0; j <= b.size(); ++j) prev[j] = j;
    for (std::size_t i = 1; i <= a.size(); ++i) {
        cur[0] = i;
        for (std::size_t j = 1; j <= b.size(); ++j) {
            const std::size_t sub = prev[j - 1] + (a[i - 1] == b[j - 1] ? 0 : 1);
            cur[j] = std::min({prev[j] + 1, cur[j - 1] + 1, sub});
        }
        std::swap(prev, cur);
    }
    return prev[b.size()];
}

}  // namespace

std::string closest_match(const std::string& key,
                          const std::vector<std::string>& candidates) {
    std::string best;
    std::size_t best_dist = 3;  // only suggest close matches
    for (const auto& candidate : candidates) {
        const std::size_t d = levenshtein(key, candidate);
        if (d < best_dist) {
            best_dist = d;
            best = candidate;
        }
    }
    return best;
}

Cli::Cli(int argc, char** argv) {
    if (argc > 0) passthrough_.emplace_back(argv[0]);
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg.rfind("--benchmark", 0) == 0 || arg.rfind("--", 0) != 0) {
            passthrough_.push_back(std::move(arg));
            continue;
        }
        std::string body = arg.substr(2);
        const auto eq = body.find('=');
        if (eq != std::string::npos) {
            kv_[body.substr(0, eq)] = body.substr(eq + 1);
        } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
            kv_[body] = argv[++i];
        } else {
            kv_[body] = "true";  // bare boolean flag
        }
    }
}

bool Cli::has(const std::string& key) const {
    queried_.insert(key);
    return kv_.count(key) > 0;
}

std::string Cli::get(const std::string& key, const std::string& fallback) const {
    queried_.insert(key);
    const auto it = kv_.find(key);
    return it == kv_.end() ? fallback : it->second;
}

std::int64_t Cli::get_int(const std::string& key, std::int64_t fallback) const {
    queried_.insert(key);
    const auto it = kv_.find(key);
    if (it == kv_.end()) return fallback;
    return spec::parse_int("--" + key, it->second);
}

std::uint64_t Cli::get_uint_max(const std::string& key, std::uint64_t fallback,
                                std::uint64_t max) const {
    queried_.insert(key);
    const auto it = kv_.find(key);
    if (it == kv_.end()) return fallback;
    return spec::parse_uint("--" + key, it->second, max);
}

double Cli::get_double(const std::string& key, double fallback) const {
    queried_.insert(key);
    const auto it = kv_.find(key);
    if (it == kv_.end()) return fallback;
    return spec::parse_double("--" + key, it->second);
}

bool Cli::get_bool(const std::string& key, bool fallback) const {
    queried_.insert(key);
    const auto it = kv_.find(key);
    if (it == kv_.end()) return fallback;
    return spec::parse_bool("--" + key, it->second);
}

std::vector<std::int64_t> Cli::get_int_list(const std::string& key,
                                            std::vector<std::int64_t> fallback) const {
    queried_.insert(key);
    const auto it = kv_.find(key);
    if (it == kv_.end()) return fallback;
    std::vector<std::int64_t> out;
    const std::string& s = it->second;
    std::size_t pos = 0;
    while (pos < s.size()) {
        auto comma = s.find(',', pos);
        if (comma == std::string::npos) comma = s.size();
        out.push_back(spec::parse_int("--" + key, s.substr(pos, comma - pos)));
        pos = comma + 1;
    }
    ADBA_ENSURES_MSG(!out.empty(), "empty list for --" + key);
    return out;
}

void Cli::check_unused() const {
    std::string msg;
    for (const auto& [key, value] : kv_) {
        if (queried_.count(key)) continue;
        if (!msg.empty()) msg += "; ";
        msg += "unrecognized flag --" + key;
        const std::string best = closest_match(
            key, std::vector<std::string>(queried_.begin(), queried_.end()));
        if (!best.empty()) msg += " (did you mean --" + best + "?)";
    }
    if (msg.empty()) return;
    std::string known;
    for (const auto& key : queried_) known += (known.empty() ? "--" : ", --") + key;
    throw ContractViolation(msg + ". Recognized flags: " +
                            (known.empty() ? "(none)" : known));
}

}  // namespace adba
