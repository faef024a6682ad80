// Declarative key tables for `key=value ...` spec strings. A spec type
// (sim::Scenario, sim::MvScenario, sim::FaultConfig) declares each key once,
// as a row: name, one-line help, a codec that reads and prints the value,
// and a print rule. Parse, describe, the did-you-mean on unknown keys, a
// driver's `--key` flag overlay and its `--help` lines derive from the rows.
// The value parsers are strict (the whole text must parse) and also back
// Cli's typed getters.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <optional>
#include <set>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "support/cli.hpp"
#include "support/contracts.hpp"

namespace adba::spec {

// ------------------------------------------------------------ value parsers
// `what` names the value's source in the error, e.g. "scenario key 'n'" or
// "--trials". Each throws ContractViolation on text that does not parse.

/// true/false, yes/no, on/off, 1/0 (any case); anything else throws with a
/// did-you-mean.
bool parse_bool(const std::string& what, const std::string& text);
/// A decimal int64 spanning the whole text.
std::int64_t parse_int(const std::string& what, const std::string& text);
/// Digits only (no sign), at most `max`.
std::uint64_t parse_uint(const std::string& what, const std::string& text,
                         std::uint64_t max);
/// A floating-point number spanning the whole text.
double parse_double(const std::string& what, const std::string& text);
/// "%.17g": parse_double reads it back to the same double.
std::string format_double(double v);
/// ASCII lowercase: spec keys, choice names and registry names match
/// case-insensitively.
std::string lower(std::string s);
/// The member of `names` that `text` names (case-insensitive); throws with
/// the accepted names and a did-you-mean otherwise.
std::size_t parse_choice(const std::string& what, const std::string& text,
                         const std::vector<std::string>& names);

/// THE spec tokenizer: splits on whitespace, ',' and ';' and hands each
/// `key=value` token to `apply` with the key lowercased.
void for_each_token(const std::string& what, const std::string& spec,
                    const std::function<void(const std::string& key,
                                             const std::string& value)>& apply);

// ------------------------------------------------------------------- codecs
// A codec reads one value (`parse(what, text)`) and prints it (`print(v)`)
// so that parse reads the printed text back to an equal value.

struct Bool {
    bool parse(const std::string& what, const std::string& text) const {
        return parse_bool(what, text);
    }
    std::string print(bool v) const { return v ? "true" : "false"; }
};

/// An integer within V's range (and >= min); unsigned V admits no sign.
template <typename V>
struct Int {
    V min = std::numeric_limits<V>::min();
    V parse(const std::string& what, const std::string& text) const {
        V v{};
        if constexpr (std::is_signed_v<V>)
            v = static_cast<V>(parse_int(what, text));
        else
            v = static_cast<V>(parse_uint(what, text, std::numeric_limits<V>::max()));
        ADBA_EXPECTS_MSG(v >= min, what + " must be >= " + std::to_string(min) +
                                       ", got '" + text + "'");
        return v;
    }
    std::string print(V v) const { return std::to_string(v); }
};

struct Real {
    double lo = -std::numeric_limits<double>::infinity();
    double hi = std::numeric_limits<double>::infinity();
    double parse(const std::string& what, const std::string& text) const;
    std::string print(double v) const { return format_double(v); }
};

/// Unset prints nothing, which a print-when-changed row elides.
template <typename Codec>
struct Optional {
    Codec inner;
    std::string print(const auto& v) const { return v ? inner.print(*v) : std::string(); }
    auto parse(const std::string& what, const std::string& text) const {
        return std::optional(inner.parse(what, text));
    }
};

/// A closed set of names; the first name listed for a value is the one
/// printed, later ones are aliases.
template <typename V>
struct Choice {
    std::vector<std::pair<std::string, V>> names;
    V parse(const std::string& what, const std::string& text) const {
        std::vector<std::string> keys;
        for (const auto& [name, value] : names) keys.push_back(name);
        return names[parse_choice(what, text, keys)].second;
    }
    std::string print(V v) const {
        for (const auto& [name, value] : names)
            if (value == v) return name;
        return "?";
    }
};

// ------------------------------------------------------------------- tables

/// "unknown <what> key '<name>' (did you mean ...?); valid keys: ...".
std::string unknown_key(const std::string& what, const std::string& name,
                        const std::vector<std::string>& names);

enum class Print { Always, IfChanged };  ///< IfChanged: when it differs from T{}

template <typename T>
struct Key {
    std::string name;
    std::string help;  ///< one line, for `--help`
    Print when = Print::IfChanged;
    std::function<void(T&, const std::string& what, const std::string& text)> read;
    std::function<std::string(const T&)> write;
};

/// One row: `field` is a member pointer or a `[](auto& s) -> auto& {...}`
/// accessor for a nested field.
template <typename T, typename Field, typename Codec>
Key<T> key(std::string name, std::string help, Field field, Codec codec,
           Print when = Print::IfChanged) {
    return {std::move(name), std::move(help), when,
            [field, codec](T& s, const std::string& what, const std::string& text) {
                std::invoke(field, s) = codec.parse(what, text);
            },
            [field, codec](const T& s) { return codec.print(std::invoke(field, s)); }};
}

template <typename T>
class Table {
public:
    /// `what` names the spec in messages: "scenario", "fault", ...
    Table(std::string what, std::vector<Key<T>> keys)
        : what_(std::move(what)), keys_(std::move(keys)) {}

    /// Reads `spec` over T{}. Unknown keys throw with the valid keys and a
    /// did-you-mean; values throw through their codec.
    T parse(const std::string& spec) const {
        T s{};
        for_each_token(what_, spec, [&](const std::string& name, const std::string& text) {
            find(name).read(s, what_ + " key '" + name + "'", text);
        });
        return s;
    }

    /// The canonical spec, keys in table order: `parse(describe(s)) == s`.
    std::string describe(const T& s) const {
        static const T defaults{};
        std::string out;
        for (const Key<T>& k : keys_) {
            const std::string value = k.write(s);
            if (k.when == Print::IfChanged && value == k.write(defaults)) continue;
            out += (out.empty() ? "" : " ") + k.name + '=' + value;
        }
        return out;
    }

    /// Applies every present `--key` flag (keys in `skip` excluded) on top
    /// of `s` and returns the names it applied.
    std::set<std::string> overlay(const Cli& cli, T& s,
                                  const std::set<std::string>& skip = {}) const {
        std::set<std::string> applied;
        for (const Key<T>& k : keys_) {
            if (skip.count(k.name) || !cli.has(k.name)) continue;
            k.read(s, "--" + k.name, cli.get(k.name, ""));
            applied.insert(k.name);
        }
        return applied;
    }

    const std::vector<Key<T>>& keys() const { return keys_; }

private:
    const Key<T>& find(const std::string& name) const {
        for (const Key<T>& k : keys_)
            if (k.name == name) return k;
        std::vector<std::string> names;
        for (const Key<T>& k : keys_) names.push_back(k.name);
        throw ContractViolation(unknown_key(what_, name, names));
    }

    std::string what_;
    std::vector<Key<T>> keys_;
};

}  // namespace adba::spec
