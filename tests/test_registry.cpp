// Registry tests: every name and alias resolves to the right entry,
// Scenario::parse/describe round-trips through the registries, and unknown
// or incompatible selections fail with actionable messages.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <utility>

#include "sim/faults.hpp"
#include "sim/inputs.hpp"
#include "sim/registry.hpp"
#include "sim/sweep.hpp"
#include "support/contracts.hpp"
#include "support/spec.hpp"

namespace adba::sim {
namespace {

std::string thrown_message(const std::function<void()>& f) {
    try {
        f();
    } catch (const ContractViolation& e) {
        return e.what();
    }
    return "";
}

// --------------------------------------------------------------- resolution

TEST(Registry, EveryProtocolKindRegistered) {
    const auto& reg = ProtocolRegistry::instance();
    EXPECT_EQ(reg.list().size(), 9u);
    for (const auto kind :
         {ProtocolKind::Ours, ProtocolKind::OursLasVegas, ProtocolKind::ChorCoanRushing,
          ProtocolKind::ChorCoanClassic, ProtocolKind::RabinDealer,
          ProtocolKind::LocalCoin, ProtocolKind::BenOr, ProtocolKind::PhaseKing,
          ProtocolKind::SamplingMajority}) {
        const ProtocolEntry& e = reg.at(kind);
        EXPECT_EQ(e.kind, kind);
        EXPECT_TRUE(e.supports) << e.name;
        EXPECT_TRUE(e.make_nodes) << e.name;
        EXPECT_TRUE(e.budgets) << e.name;
        EXPECT_FALSE(e.resilience.empty()) << e.name;
    }
}

TEST(Registry, EveryAdversaryKindRegistered) {
    const auto& reg = AdversaryRegistry::instance();
    EXPECT_EQ(reg.list().size(), 9u);
    for (const auto kind :
         {AdversaryKind::None, AdversaryKind::Static, AdversaryKind::SplitVote,
          AdversaryKind::Chaos, AdversaryKind::CrashRandom,
          AdversaryKind::CrashTargetedCoin, AdversaryKind::WorstCase,
          AdversaryKind::KingKiller, AdversaryKind::Balancer}) {
        const AdversaryEntry& e = reg.at(kind);
        EXPECT_EQ(e.kind, kind);
        EXPECT_TRUE(e.make_adversary) << e.name;
    }
}

TEST(Registry, NamesAndAliasesResolveToSameEntry) {
    const auto& reg = ProtocolRegistry::instance();
    for (const ProtocolEntry* e : reg.list()) {
        EXPECT_EQ(&reg.at(e->name), e);
        for (const auto& alias : e->aliases)
            EXPECT_EQ(&reg.at(alias), e) << alias;
    }
    const auto& areg = AdversaryRegistry::instance();
    for (const AdversaryEntry* e : areg.list()) {
        EXPECT_EQ(&areg.at(e->name), e);
        for (const auto& alias : e->aliases)
            EXPECT_EQ(&areg.at(alias), e) << alias;
    }
    const auto& mreg = MvAdversaryRegistry::instance();
    for (const MvAdversaryEntry* e : mreg.list()) {
        EXPECT_EQ(&mreg.at(e->name), e);
        for (const auto& alias : e->aliases)
            EXPECT_EQ(&mreg.at(alias), e) << alias;
    }
}

TEST(Registry, LookupIsCaseInsensitive) {
    EXPECT_EQ(ProtocolRegistry::instance().at("OURS").kind, ProtocolKind::Ours);
    EXPECT_EQ(AdversaryRegistry::instance().at("Worst-Case").kind,
              AdversaryKind::WorstCase);
}

TEST(Registry, DisplayNamesMatchToString) {
    for (const ProtocolEntry* e : ProtocolRegistry::instance().list())
        EXPECT_EQ(to_string(e->kind), e->display);
    for (const AdversaryEntry* e : AdversaryRegistry::instance().list())
        EXPECT_EQ(to_string(e->kind), e->display);
    for (const MvAdversaryEntry* e : MvAdversaryRegistry::instance().list())
        EXPECT_EQ(to_string(e->kind), e->display);
}

TEST(Registry, UnknownNameThrowsWithKnownList) {
    const std::string msg = thrown_message(
        [] { ProtocolRegistry::instance().at("paxos"); });
    EXPECT_NE(msg.find("unknown protocol 'paxos'"), std::string::npos) << msg;
    EXPECT_NE(msg.find("ours"), std::string::npos) << msg;
    EXPECT_NE(msg.find("phase-king"), std::string::npos) << msg;
    EXPECT_EQ(AdversaryRegistry::instance().find("paxos"), nullptr);
}

TEST(Registry, StrongestAdversaryComesFromMetadata) {
    for (const ProtocolEntry* e : ProtocolRegistry::instance().list())
        EXPECT_EQ(strongest_adversary(e->kind), e->strongest) << e->name;
    // The pairing itself must be compatible at a feasible (n, t).
    for (const ProtocolEntry* e : ProtocolRegistry::instance().list()) {
        Scenario s;
        s.n = 64;
        s.t = 12;  // feasible for every registered resilience class
        s.protocol = e->kind;
        s.adversary = e->strongest;
        EXPECT_TRUE(compatible(s)) << e->name;
    }
}

// ------------------------------------------------------------- feasibility

TEST(Registry, SupportsMatchesResilienceBounds) {
    const auto& reg = ProtocolRegistry::instance();
    EXPECT_TRUE(reg.at("phase-king").supports(17, 4));
    EXPECT_FALSE(reg.at("phase-king").supports(16, 4));
    EXPECT_TRUE(reg.at("ben-or").supports(16, 3));
    EXPECT_FALSE(reg.at("ben-or").supports(15, 3));
    EXPECT_TRUE(reg.at("ours").supports(10, 3));
    EXPECT_FALSE(reg.at("ours").supports(9, 3));
}

TEST(Registry, IncompatiblePairsThrowActionably) {
    Scenario s;
    s.n = 64;
    s.t = 12;
    s.protocol = ProtocolKind::Ours;
    s.adversary = AdversaryKind::KingKiller;
    const std::string msg = thrown_message([&] { validate(s); });
    EXPECT_NE(msg.find("king-killer"), std::string::npos) << msg;
    EXPECT_NE(msg.find("phase-king"), std::string::npos) << msg;
    EXPECT_FALSE(compatible(s));

    s.protocol = ProtocolKind::PhaseKing;
    s.adversary = AdversaryKind::WorstCase;
    const std::string msg2 = thrown_message([&] { validate(s); });
    EXPECT_NE(msg2.find("committee-schedule"), std::string::npos) << msg2;
    EXPECT_NE(msg2.find("ours"), std::string::npos) << msg2;  // names the fix
    EXPECT_FALSE(compatible(s));
}

TEST(Registry, ResilienceViolationThrowsActionably) {
    Scenario s;
    s.n = 20;
    s.t = 5;  // 4t = n: outside phase-king's bound
    s.protocol = ProtocolKind::PhaseKing;
    s.adversary = AdversaryKind::KingKiller;
    const std::string msg = thrown_message([&] { validate(s); });
    EXPECT_NE(msg.find("t < n/4"), std::string::npos) << msg;
    EXPECT_NE(msg.find("n=20"), std::string::npos) << msg;
    s.t = 4;
    EXPECT_TRUE(compatible(s));
}

TEST(Registry, QExceedingTIsIncompatible) {
    Scenario s;
    s.n = 16;
    s.t = 5;
    s.q = 6;
    EXPECT_FALSE(compatible(s));
    EXPECT_THROW(validate(s), ContractViolation);
}

// ------------------------------------------------------- parse / describe

TEST(ScenarioSpec, ParseDescribeRoundTripsEveryCompatiblePair) {
    for (const ProtocolEntry* p : ProtocolRegistry::instance().list()) {
        for (const AdversaryEntry* a : AdversaryRegistry::instance().list()) {
            Scenario s;
            s.n = 64;
            s.t = 12;
            s.protocol = p->kind;
            s.adversary = a->kind;
            if (!compatible(s)) continue;
            EXPECT_EQ(Scenario::parse(s.describe()), s)
                << p->name << " vs " << a->name << ": " << s.describe();
        }
    }
}

/// The table-driven round trip: sets each key of `table` to its entry in
/// `values` (which must name every key with a non-default value), one key at
/// a time and then all together, and checks `parse(describe(s)) == s`.
template <typename T>
void expect_every_key_round_trips(const spec::Table<T>& table,
                                  const std::map<std::string, std::string>& values) {
    EXPECT_EQ(values.size(), table.keys().size()) << "one test value per key";
    T all{};
    for (const spec::Key<T>& k : table.keys()) {
        const auto it = values.find(k.name);
        ASSERT_NE(it, values.end()) << "no test value for key " << k.name;
        T one{};
        k.read(one, k.name, it->second);
        EXPECT_NE(table.describe(one), table.describe(T{}))
            << k.name << "=" << it->second << " is the default";
        EXPECT_EQ(table.parse(table.describe(one)), one) << table.describe(one);
        k.read(all, k.name, it->second);
    }
    EXPECT_EQ(table.parse(table.describe(all)), all) << table.describe(all);
}

TEST(ScenarioSpec, EveryKeyRoundTripsThroughDescribe) {
    expect_every_key_round_trips(
        Scenario::keys(),
        {{"protocol", "ben-or"},     {"adversary", "split-vote"},
         {"inputs", "random"},       {"n", "96"},
         {"t", "18"},                {"q", "7"},
         {"alpha", "2.5"},           {"gamma", "1.25"},
         {"beta", "0.1"},            {"phases", "17"},
         {"kappa", "3.75"},          {"max_rounds", "99"},
         {"transcript", "true"},     {"reference", "on"},
         {"batch", "off"},           {"shard", "no"},
         {"simd", "0"},              {"intra_threads", "3"},
         {"plane", "sparse"},        {"sample_degree", "48"},
         {"sparse_seed", "18446744073709551615"},
         {"sparse_stream", "chain"}, {"fused", "yes"},
         {"watchdog_ms", "250"}});
    expect_every_key_round_trips(
        MvScenario::keys(),
        {{"adversary", "prelude+worst-case"}, {"inputs", "near-quorum"},
         {"n", "96"},                         {"t", "31"},
         {"q", "10"},                         {"alpha", "7.5"},
         {"gamma", "2.25"},                   {"beta", "1.125"},
         {"fallback", "4294967295"},          {"las_vegas", "true"},
         {"reference", "true"},               {"simd", "false"},
         {"watchdog_ms", "100"}});
    expect_every_key_round_trips(
        FaultConfig::keys(),
        {{"seed", "42"},             {"shard_death", "0.25"},
         {"shard_death_shard", "2"}, {"stall_rate", "0.125"},
         {"stall_ms", "3"},          {"alloc_rate", "0.5"},
         {"trial_rate", "0.0625"},   {"beat_delay_rate", "1"},
         {"beat_delay_ms", "7"},     {"max_attempts", "5"}});
}

TEST(ScenarioSpec, DescribeMatchesPinnedCorpus) {
    // describe() is the checkpoint scope and the CSV row label: these
    // canonical strings are frozen (a change orphans every journal).
    const std::pair<const char*, const char*> binary[] = {
        {"n=64 t=21", "protocol=ours adversary=worst-case inputs=split n=64 t=21"},
        {"protocol=ben-or adversary=split-vote inputs=random n=96 t=18 q=7 alpha=2.5 "
         "gamma=1.25 beta=0.5 phases=17 kappa=3.75 max_rounds=99 transcript=true "
         "reference=true batch=false shard=false simd=false intra_threads=3 "
         "plane=sparse sample_degree=48 sparse_seed=123456789012 sparse_stream=chain "
         "fused=true watchdog_ms=250",
         "protocol=ben-or adversary=split-vote inputs=random n=96 t=18 q=7 alpha=2.5 "
         "gamma=1.25 beta=0.5 phases=17 kappa=3.75 max_rounds=99 transcript=true "
         "reference=true batch=false shard=false simd=false intra_threads=3 "
         "plane=sparse sample_degree=48 sparse_seed=123456789012 sparse_stream=chain "
         "fused=true watchdog_ms=250"},
        {"protocol=phase-king adversary=king-killer inputs=all-one n=33 t=8 q=0 "
         "alpha=0.1 gamma=1e-9 beta=3",
         "protocol=phase-king adversary=king-killer inputs=all-one n=33 t=8 q=0 "
         "alpha=0.10000000000000001 gamma=1.0000000000000001e-09 beta=3"},
        {"protocol=sampling-majority adversary=balancer inputs=all-zero n=4294967295 "
         "t=4294967295 kappa=0.3333333333333333 max_rounds=4294967295 "
         "sparse_seed=18446744073709551615 sparse_stream=counter intra_threads=0",
         "protocol=sampling-majority adversary=balancer inputs=all-zero n=4294967295 "
         "t=4294967295 kappa=0.33333333333333331 max_rounds=4294967295 "
         "sparse_seed=18446744073709551615"},
        {"protocol=chor-coan-rushing adversary=crash-targeted-coin n=512 t=16 "
         "sample_degree=7",
         "protocol=chor-coan-rushing adversary=crash-targeted-coin inputs=split n=512 "
         "t=16 sample_degree=7"},
    };
    for (const auto& [spec, want] : binary)
        EXPECT_EQ(Scenario::parse(spec).describe(), want) << spec;

    const std::pair<const char*, const char*> mv[] = {
        {"n=32 t=9", "adversary=worst-case-inner inputs=two-blocks n=32 t=9"},
        {"adversary=prelude+worst-case inputs=near-quorum n=96 t=31 q=10 alpha=7.5 "
         "gamma=2.25 beta=1.125 fallback=48879 las_vegas=true reference=true "
         "simd=false watchdog_ms=100",
         "adversary=prelude+worst-case inputs=near-quorum(60%) n=96 t=31 q=10 "
         "alpha=7.5 gamma=2.25 beta=1.125 fallback=48879 las_vegas=true "
         "reference=true simd=false watchdog_ms=100"},
        {"adversary=chaos inputs=random n=33 t=10 q=0 alpha=0.1 fallback=4294967295",
         "adversary=chaos inputs=random(4) n=33 t=10 q=0 alpha=0.10000000000000001 "
         "fallback=4294967295"},
        {"adversary=none inputs=all-distinct n=7 t=2",
         "adversary=none inputs=all-distinct n=7 t=2"},
        {"inputs=all-same n=7 t=2 las_vegas=false",
         "adversary=worst-case-inner inputs=all-same n=7 t=2"},
    };
    for (const auto& [spec, want] : mv)
        EXPECT_EQ(MvScenario::parse(spec).describe(), want) << spec;

    EXPECT_EQ(FaultConfig::parse("").describe(), "seed=1");
    EXPECT_EQ(FaultConfig::parse("seed=5 shard_death=1 shard_death_shard=2 "
                                 "stall_rate=0.5 stall_ms=3 alloc_rate=0.1 "
                                 "trial_rate=0.3 beat_delay_rate=1 beat_delay_ms=1 "
                                 "max_attempts=2")
                  .describe(),
              "seed=5 shard_death=1 shard_death_shard=2 stall_rate=0.5 stall_ms=3 "
              "alloc_rate=0.10000000000000001 trial_rate=0.29999999999999999 "
              "beat_delay_rate=1 beat_delay_ms=1 max_attempts=2");
}

TEST(ScenarioSpec, ValuesParseStrictly) {
    const std::string ture =
        thrown_message([] { Scenario::parse("protocol=ours n=32 t=9 fused=ture"); });
    EXPECT_NE(ture.find("scenario key 'fused'"), std::string::npos) << ture;
    EXPECT_NE(ture.find("did you mean 'true'"), std::string::npos) << ture;
    // Wider than the uint32 field, negative, or not a whole number: rejected
    // instead of wrapping or truncating.
    const std::string wide = thrown_message([] { Scenario::parse("n=4294967360"); });
    EXPECT_NE(wide.find("[0, 4294967295]"), std::string::npos) << wide;
    EXPECT_THROW(Scenario::parse("t=-1"), ContractViolation);
    EXPECT_THROW(Scenario::parse("n=3abc"), ContractViolation);
    EXPECT_THROW(Scenario::parse("alpha=2x"), ContractViolation);
    EXPECT_THROW(MvScenario::parse("fallback=4294967296"), ContractViolation);
    EXPECT_EQ(Scenario::parse("n=4294967295").n, 4294967295u);
    EXPECT_TRUE(Scenario::parse("fused=ON").use_fused);
    // Per-key checks: rates lie in [0, 1], max_attempts >= 1.
    EXPECT_THROW(FaultConfig::parse("stall_rate=-0.5"), ContractViolation);
    EXPECT_THROW(FaultConfig::parse("max_attempts=0"), ContractViolation);
}

TEST(ScenarioSpec, OneTokenizerServesEverySpec) {
    // Whitespace, ',' and ';' all separate tokens, in every spec type.
    const Scenario s = Scenario::parse("protocol=ours,adversary=static,n=32,t=9");
    EXPECT_EQ(s.adversary, AdversaryKind::Static);
    EXPECT_EQ(s.n, 32u);
    EXPECT_EQ(s.t, 9u);
    EXPECT_EQ(MvScenario::parse("n=32;t=9").t, 9u);
    const FaultConfig f = FaultConfig::parse("seed=1,stall_rate=0.125; stall_ms=2");
    EXPECT_EQ(f.stall_rate, 0.125);
    EXPECT_EQ(f.stall_ms, 2u);
}

TEST(ScenarioSpec, ParseResolvesAliasesAndSeparators) {
    const Scenario s =
        Scenario::parse("protocol=alg3, adversary=rushing; inputs=all-one n=32 t=5");
    EXPECT_EQ(s.protocol, ProtocolKind::Ours);
    EXPECT_EQ(s.adversary, AdversaryKind::WorstCase);
    EXPECT_EQ(s.inputs, InputPattern::AllOne);
    EXPECT_EQ(s.n, 32u);
    EXPECT_EQ(s.t, 5u);
}

TEST(ScenarioSpec, UnknownKeysAndValuesThrowActionably) {
    const std::string msg =
        thrown_message([] { Scenario::parse("protcol=ours n=8"); });
    EXPECT_NE(msg.find("unknown scenario key 'protcol'"), std::string::npos) << msg;
    EXPECT_NE(msg.find("did you mean 'protocol'"), std::string::npos) << msg;
    const std::string mv = thrown_message([] { MvScenario::parse("las_vegs=true"); });
    EXPECT_NE(mv.find("unknown multi-valued scenario key 'las_vegs'"), std::string::npos)
        << mv;
    EXPECT_NE(mv.find("did you mean 'las_vegas'"), std::string::npos) << mv;
    const std::string fault = thrown_message([] { FaultConfig::parse("shard_deth=1"); });
    EXPECT_NE(fault.find("did you mean 'shard_death'"), std::string::npos) << fault;

    EXPECT_THROW(Scenario::parse("protocol=raft n=8"), ContractViolation);
    EXPECT_THROW(Scenario::parse("n=eight"), ContractViolation);
    EXPECT_THROW(Scenario::parse("inputs=zebra"), ContractViolation);
    EXPECT_THROW(Scenario::parse("just-a-token"), ContractViolation);
}

TEST(ScenarioSpec, ParsedScenarioRunsByName) {
    const Scenario s = Scenario::parse(
        "protocol=phase-king adversary=king-killer n=17 t=4 inputs=split");
    const TrialResult r = run_trial(s, 7);
    EXPECT_TRUE(r.agreement);
    EXPECT_TRUE(r.validity_ok);
}

TEST(ScenarioSpec, MvInputPatternsParse) {
    EXPECT_EQ(MvScenario::parse("inputs=near-quorum").inputs, MvInputPattern::NearQuorum);
    EXPECT_EQ(MvScenario::parse("inputs=all-same").inputs, MvInputPattern::AllSame);
    EXPECT_THROW(MvScenario::parse("inputs=nope"), ContractViolation);
    EXPECT_EQ(Scenario::parse("inputs=split").inputs, InputPattern::Split);
    EXPECT_EQ(Scenario::parse("inputs=ZEROS").inputs, InputPattern::AllZero);
    EXPECT_THROW(Scenario::parse("inputs=nope"), ContractViolation);
}

// ---------------------------------------------------------------- plug-ins

TEST(Registry, DuplicateRegistrationThrows) {
    // A plug-in must not silently shadow an existing name or alias.
    AdversaryEntry dup;
    dup.kind = AdversaryKind::Chaos;
    dup.name = "chaos";
    dup.display = "chaos";
    dup.make_adversary = [](const Scenario&, const ProtocolBundle&, const SeedTree&)
        -> std::unique_ptr<net::Adversary> {
        return std::make_unique<net::NullAdversary>();
    };
    EXPECT_THROW(AdversaryRegistry::instance().add(std::move(dup)), ContractViolation);
}

TEST(Registry, ProtocolAddEnforcesTheFormContract) {
    // A plug-in copied from a built-in, renamed, then broken one way at a
    // time: each is rejected before the registry changes.
    auto& reg = ProtocolRegistry::instance();
    const auto plugin = [&] {
        ProtocolEntry e = reg.at(ProtocolKind::Ours);
        e.name = "plugin-proto";
        e.aliases.clear();
        return e;
    };
    std::vector<std::pair<std::string, ProtocolEntry>> broken;
    broken.emplace_back("sparse without batch", plugin());
    broken.back().second.make_batch = nullptr;
    broken.back().second.reinit_batch = nullptr;
    broken.emplace_back("batch without re-arm", plugin());
    broken.back().second.reinit_batch = nullptr;
    broken.emplace_back("re-arm without batch", plugin());
    broken.back().second.supports_sparse = false;
    broken.back().second.make_batch = nullptr;
    broken.emplace_back("nodes without re-arm", plugin());
    broken.back().second.reinit_nodes = nullptr;
    broken.emplace_back("no budgets", plugin());
    broken.back().second.budgets = nullptr;
    for (auto& [why, entry] : broken) {
        const std::string msg = thrown_message([&] { reg.add(std::move(entry)); });
        EXPECT_NE(msg.find("plugin-proto"), std::string::npos) << why << ": " << msg;
        EXPECT_EQ(reg.find("plugin-proto"), nullptr) << why;
        EXPECT_EQ(reg.list().size(), 9u) << why;
    }
}

TEST(Registry, EveryFormCarriesTheDeclaredBudgetsAndSchedule) {
    // The fused arena and the binary arena read budgets() + schedule_of();
    // perfbench's traced arena reads the bundle make_batch returns. Both
    // must agree for every protocol, at each one's resilience edge too.
    const auto same_schedule = [](const std::optional<core::BlockSchedule>& a,
                                  const std::optional<core::BlockSchedule>& b) {
        if (a.has_value() != b.has_value()) return false;
        return !a || (a->n == b->n && a->block == b->block && a->num_blocks == b->num_blocks);
    };
    for (const ProtocolEntry* p : ProtocolRegistry::instance().list()) {
        for (const NodeId n : {NodeId{16}, NodeId{64}, NodeId{97}}) {
            Count edge = n;
            while (edge > 0 && !p->supports(n, edge)) --edge;
            for (const Count t : {Count{1}, edge / 2, edge}) {
                Scenario s;
                s.protocol = p->kind;
                s.n = n;
                s.t = t;
                const BudgetHint hint = p->budgets(s);
                const std::optional<core::BlockSchedule> sched =
                    p->schedule_of ? std::optional(p->schedule_of(s)) : std::nullopt;
                const ProtocolBundle meta = bundle_metadata(*p, s);
                EXPECT_EQ(meta.phases, hint.phases);
                EXPECT_EQ(meta.default_max_rounds, hint.max_rounds);
                EXPECT_TRUE(same_schedule(meta.schedule, sched));
                for (const std::uint64_t seed : {1ull, 2ull}) {
                    const SeedTree seeds(seed);
                    const auto inputs = make_inputs(InputPattern::Random, n, seeds);
                    std::vector<ProtocolBundle> bundles;
                    bundles.push_back(p->make_nodes(s, inputs, seeds));
                    if (p->make_batch) bundles.push_back(p->make_batch(s, inputs, seeds));
                    for (const ProtocolBundle& b : bundles) {
                        const std::string at = p->name + " n=" + std::to_string(n) +
                                               " t=" + std::to_string(t) +
                                               " seed=" + std::to_string(seed);
                        EXPECT_EQ(b.phases, hint.phases) << at;
                        EXPECT_EQ(b.default_max_rounds, hint.max_rounds) << at;
                        EXPECT_TRUE(same_schedule(b.schedule, sched)) << at;
                        EXPECT_TRUE(b.batch != nullptr || b.nodes.size() == n) << at;
                    }
                }
            }
        }
    }
}

TEST(Registry, BudgetsMatchTrialConfiguration) {
    Scenario s;
    s.n = 64;
    s.t = 12;
    s.protocol = ProtocolKind::Ours;
    s.adversary = AdversaryKind::None;
    const BudgetHint hint = ProtocolRegistry::instance().at(s.protocol).budgets(s);
    const TrialResult r = run_trial(s, 3);
    EXPECT_EQ(hint.phases, r.phases_configured);
    EXPECT_GE(hint.max_rounds, r.rounds);
}

}  // namespace
}  // namespace adba::sim
