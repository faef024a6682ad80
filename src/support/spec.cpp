#include "support/spec.hpp"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cstdio>

namespace adba::spec {

std::string lower(std::string s) {
    std::transform(s.begin(), s.end(), s.begin(),
                   [](unsigned char c) { return static_cast<char>(std::tolower(c)); });
    return s;
}

namespace {

std::string did_you_mean(const std::string& text, const std::vector<std::string>& names) {
    const std::string best = closest_match(text, names);
    return best.empty() ? "" : " (did you mean '" + best + "'?)";
}

std::string join(const std::vector<std::string>& names) {
    std::string out;
    for (const std::string& name : names) out += (out.empty() ? "" : ", ") + name;
    return out;
}

}  // namespace

bool parse_bool(const std::string& what, const std::string& text) {
    // "off" before "on": the likelier intent of "of".
    static const std::vector<std::string> names = {"true", "false", "yes", "no",
                                                   "off",  "on",    "1",   "0"};
    static const bool values[] = {true, false, true, false, false, true, true, false};
    return values[parse_choice(what, text, names)];
}

std::int64_t parse_int(const std::string& what, const std::string& text) {
    std::int64_t v = 0;
    const char* end = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(text.data(), end, v);
    if (ec != std::errc() || ptr != end)
        throw ContractViolation(what + " expects an integer, got '" + text + "'");
    return v;
}

std::uint64_t parse_uint(const std::string& what, const std::string& text,
                         std::uint64_t max) {
    std::uint64_t v = 0;
    const char* end = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(text.data(), end, v);
    if (ec == std::errc::invalid_argument || ptr != end)
        throw ContractViolation(what + " expects a non-negative integer, got '" + text +
                                "'");
    if (ec != std::errc() || v > max)
        throw ContractViolation(what + " expects an integer in [0, " +
                                std::to_string(max) + "], got '" + text + "'");
    return v;
}

double parse_double(const std::string& what, const std::string& text) {
    try {
        std::size_t pos = 0;
        const double v = std::stod(text, &pos);
        if (pos == text.size()) return v;
    } catch (const std::exception&) {
    }
    throw ContractViolation(what + " expects a number, got '" + text + "'");
}

std::string format_double(double v) {
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

std::size_t parse_choice(const std::string& what, const std::string& text,
                         const std::vector<std::string>& names) {
    const std::string k = lower(text);
    for (std::size_t i = 0; i < names.size(); ++i)
        if (names[i] == k) return i;
    throw ContractViolation(what + " expects one of " + join(names) + ", got '" + text +
                            "'" + did_you_mean(k, names));
}

double Real::parse(const std::string& what, const std::string& text) const {
    const double v = parse_double(what, text);
    if (!(v >= lo && v <= hi))
        throw ContractViolation(what + " expects a number in [" + format_double(lo) +
                                ", " + format_double(hi) + "], got '" + text + "'");
    return v;
}

void for_each_token(const std::string& what, const std::string& spec,
                    const std::function<void(const std::string& key,
                                             const std::string& value)>& apply) {
    std::string token;
    const auto flush = [&] {
        if (token.empty()) return;
        const auto eq = token.find('=');
        if (eq == std::string::npos || eq == 0)
            throw ContractViolation(what + " token '" + token +
                                    "' is not of the form key=value");
        apply(lower(token.substr(0, eq)), token.substr(eq + 1));
        token.clear();
    };
    for (const char c : spec) {
        if (std::isspace(static_cast<unsigned char>(c)) || c == ',' || c == ';')
            flush();
        else
            token.push_back(c);
    }
    flush();
}

std::string unknown_key(const std::string& what, const std::string& name,
                        const std::vector<std::string>& names) {
    return "unknown " + what + " key '" + name + "'" + did_you_mean(name, names) +
           "; valid keys: " + join(names);
}

}  // namespace adba::spec
