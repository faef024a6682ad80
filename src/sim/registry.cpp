#include "sim/registry.hpp"

#include "adversary/balancer.hpp"
#include "adversary/chaos.hpp"
#include "adversary/composite.hpp"
#include "adversary/crash.hpp"
#include "adversary/king_killer.hpp"
#include "adversary/split_vote.hpp"
#include "adversary/static_adversary.hpp"
#include "adversary/tc_prelude.hpp"
#include "adversary/worst_case.hpp"
#include "baselines/ben_or.hpp"
#include "baselines/chor_coan.hpp"
#include "baselines/local_coin.hpp"
#include "baselines/phase_king.hpp"
#include "baselines/rabin_dealer.hpp"
#include "baselines/sampling_majority.hpp"
#include "core/agreement.hpp"
#include "core/skeleton_fused.hpp"
#include "sim/faults.hpp"
#include "support/contracts.hpp"
#include "support/spec.hpp"

namespace adba::sim {

namespace {

bool third_resilient(NodeId n, Count t) { return 3 * static_cast<std::uint64_t>(t) < n; }

}  // namespace

// --------------------------------------------------------- registry machinery

namespace detail {

template <typename Entry, typename Kind>
const Entry& RegistryBase<Entry, Kind>::add(Entry entry) {
    // Validate every key BEFORE mutating, so a rejected plug-in leaves the
    // registry exactly as it was.
    auto check = [&](const std::string& key) {
        const auto it = by_name_.find(spec::lower(key));
        if (it != by_name_.end())
            throw ContractViolation("duplicate " + what_ + " name '" + key +
                                    "' (already registered as '" + it->second->name +
                                    "')");
    };
    check(entry.name);
    for (const auto& alias : entry.aliases) check(alias);

    entries_.push_back(std::move(entry));
    const Entry& stored = entries_.back();
    by_name_[spec::lower(stored.name)] = &stored;
    for (const auto& alias : stored.aliases) by_name_[spec::lower(alias)] = &stored;
    return stored;
}

template <typename Entry, typename Kind>
const Entry& RegistryBase<Entry, Kind>::at(Kind kind) const {
    for (const Entry& e : entries_)
        if (e.kind == kind) return e;
    throw ContractViolation("unregistered " + what_ + " kind #" +
                            std::to_string(static_cast<int>(kind)) +
                            "; known: " + known_names());
}

template <typename Entry, typename Kind>
const Entry* RegistryBase<Entry, Kind>::find(const std::string& name_or_alias) const {
    const auto it = by_name_.find(spec::lower(name_or_alias));
    return it == by_name_.end() ? nullptr : it->second;
}

template <typename Entry, typename Kind>
const Entry& RegistryBase<Entry, Kind>::at(const std::string& name_or_alias) const {
    if (const Entry* e = find(name_or_alias)) return *e;
    throw ContractViolation("unknown " + what_ + " '" + name_or_alias +
                            "'; known " + what_ + "s: " + known_names() +
                            " (aliases accepted; see `adba_sim --list`)");
}

template <typename Entry, typename Kind>
std::vector<const Entry*> RegistryBase<Entry, Kind>::list() const {
    std::vector<const Entry*> out;
    out.reserve(entries_.size());
    for (const Entry& e : entries_) out.push_back(&e);
    return out;
}

template <typename Entry, typename Kind>
std::string RegistryBase<Entry, Kind>::known_names() const {
    std::string out;
    for (const Entry& e : entries_) {
        if (!out.empty()) out += ", ";
        out += e.name;
    }
    return out;
}

template class RegistryBase<ProtocolEntry, ProtocolKind>;
template class RegistryBase<AdversaryEntry, AdversaryKind>;
template class RegistryBase<MvAdversaryEntry, MvAdversaryKind>;

}  // namespace detail

// ---------------------------------------------------------- built-in protocols

namespace {

using Inputs = std::vector<Bit>;
using BatchSlot = std::unique_ptr<net::BatchProtocol>;
using core::AgreementMode;

/// One protocol's declaration. Its params come from the scenario alone, and
/// everything else — phases, round cap, committee schedule, each form's arm
/// — reads those params, so every form and every capability listing makes
/// the same decision. An arm function builds its form on first use and
/// re-arms it in place after that.
template <typename P>
struct ProtocolDecl {
    P (*params)(const Scenario&);
    BudgetHint (*budget)(const P&);
    core::BlockSchedule (*schedule)(const P&) = nullptr;  ///< null: no committees
    void (*arm_nodes)(const P&, const Inputs&, const SeedTree&, net::NodePool&);
    void (*arm_batch)(const P&, const Inputs&, const SeedTree&, BatchSlot&) = nullptr;
    bool sparse = false;  ///< the batch also answers sparse receive beats
    /// The 64-lane form, built once per arena; FusedProtocol::rearm re-arms
    /// it per block. Null: no fused form.
    std::unique_ptr<net::FusedProtocol> (*fused)(const P&) = nullptr;
};

/// A bundle with no form armed: the one place its metadata is filled.
ProtocolBundle unarmed_bundle(const BudgetHint& hint,
                              std::optional<core::BlockSchedule> schedule) {
    ProtocolBundle b;
    b.phases = hint.phases;
    b.default_max_rounds = hint.max_rounds;
    b.schedule = std::move(schedule);
    return b;
}

/// `e` (names, resilience, strongest adversary) with every factory and hook
/// field derived from `d`.
template <typename P>
ProtocolEntry declare(ProtocolEntry e, const ProtocolDecl<P> d) {
    const auto metadata = [d](const P& p) {
        return unarmed_bundle(d.budget(p), d.schedule ? std::optional(d.schedule(p))
                                                      : std::nullopt);
    };
    const auto form = [&](auto arm, auto slot, auto& make, auto& reinit) {
        make = [d, metadata, arm, slot](const Scenario& s, const Inputs& in,
                                        const SeedTree& seeds) {
            const P p = d.params(s);
            ProtocolBundle b = metadata(p);
            arm(p, in, seeds, b.*slot);
            return b;
        };
        reinit = [d, arm, slot](const Scenario& s, const Inputs& in, const SeedTree& seeds,
                                ProtocolBundle& b) { arm(d.params(s), in, seeds, b.*slot); };
    };
    form(d.arm_nodes, &ProtocolBundle::nodes, e.make_nodes, e.reinit_nodes);
    if (d.arm_batch) form(d.arm_batch, &ProtocolBundle::batch, e.make_batch, e.reinit_batch);
    e.supports_sparse = d.sparse;
    e.budgets = [d](const Scenario& s) { return d.budget(d.params(s)); };
    if (d.schedule) e.schedule_of = [d](const Scenario& s) { return d.schedule(d.params(s)); };
    if (d.fused) e.make_fused = [d](const Scenario& s) { return d.fused(d.params(s)); };
    return e;
}

std::unique_ptr<net::FusedProtocol> fused_skeleton(NodeId n, Count t, Count phases,
                                                   AgreementMode mode,
                                                   core::FusedCoinSpec coin) {
    return std::make_unique<core::FusedSkeleton>(core::SkeletonConfig{n, t, phases, mode},
                                                 std::move(coin));
}

/// The arms of a committee-coin protocol (core::CommitteeCoinNode and its
/// batch) whose params P carry n, t, phases and a block schedule, in kMode.
template <typename P, AgreementMode kMode>
void arm_committee_nodes(const P& p, const Inputs& in, const SeedTree& seeds,
                         net::NodePool& pool) {
    core::arm_committee_nodes({p.n, p.t, p.phases, kMode}, p.schedule, in, seeds, pool);
}
template <typename P, AgreementMode kMode>
void arm_committee_batch(const P& p, const Inputs& in, const SeedTree& seeds, BatchSlot& slot) {
    core::arm_committee_batch({p.n, p.t, p.phases, kMode}, p.schedule, in, seeds, slot);
}
template <typename P, AgreementMode kMode>
std::unique_ptr<net::FusedProtocol> committee_fused(const P& p) {
    return fused_skeleton(p.n, p.t, p.phases, kMode,
                          {core::FusedCoinSpec::Kind::Committee, p.schedule, nullptr});
}

/// Algorithm 3 (the paper) in `kMode`.
template <AgreementMode kMode>
ProtocolDecl<core::AgreementParams> algorithm3() {
    using P = core::AgreementParams;
    return {.params = [](const Scenario& s) { return P::compute(s.n, s.t, s.tuning); },
            .budget =
                [](const P& p) {
                    return BudgetHint{p.phases, core::round_cap(core::max_rounds_whp(p), kMode)};
                },
            .schedule = [](const P& p) { return p.schedule; },
            .arm_nodes = arm_committee_nodes<P, kMode>,
            .arm_batch = arm_committee_batch<P, kMode>,
            .sparse = true,
            .fused = committee_fused<P, kMode>};
}

/// Chor-Coan with the committee sizing `compute` picks (rushing or classic).
template <base::ChorCoanParams (*compute)(NodeId, Count, const core::Tuning&)>
ProtocolDecl<base::ChorCoanParams> chor_coan() {
    using P = base::ChorCoanParams;
    constexpr AgreementMode kWhp = AgreementMode::WhpFixedPhases;
    return {.params = [](const Scenario& s) { return compute(s.n, s.t, s.tuning); },
            .budget = [](const P& p) { return BudgetHint{p.phases, base::max_rounds_whp(p)}; },
            .schedule = [](const P& p) { return p.schedule; },
            .arm_nodes = arm_committee_nodes<P, kWhp>,
            .arm_batch = arm_committee_batch<P, kWhp>,
            .sparse = true,
            .fused = committee_fused<P, kWhp>};
}

ProtocolDecl<base::RabinDealerParams> rabin_dealer() {
    using P = base::RabinDealerParams;
    constexpr AgreementMode kWhp = AgreementMode::WhpFixedPhases;
    return {.params = [](const Scenario& s) { return P::compute(s.n, s.t, s.tuning.gamma); },
            .budget = [](const P& p) { return BudgetHint{p.phases, base::max_rounds_whp(p)}; },
            .arm_nodes =
                [](const P& p, const Inputs& in, const SeedTree& seeds, net::NodePool& pool) {
                    base::arm_rabin_dealer_nodes(p, kWhp, in, seeds, pool);
                },
            .arm_batch =
                [](const P& p, const Inputs& in, const SeedTree& seeds, BatchSlot& slot) {
                    base::arm_rabin_dealer_batch(p, kWhp, in, seeds, slot);
                },
            .sparse = true,
            // Per-lane dealer seeds come from each lane's DealerCoin stream
            // at rearm time (skeleton_fused.cpp).
            .fused = [](const P& p) {
                return fused_skeleton(p.n, p.t, p.phases, kWhp,
                                      {core::FusedCoinSpec::Kind::Dealer, {},
                                       &base::RabinDealerNode::dealer_coin});
            }};
}

ProtocolDecl<base::LocalCoinParams> local_coin() {
    using P = base::LocalCoinParams;
    constexpr AgreementMode kWhp = AgreementMode::WhpFixedPhases;
    return {.params = [](const Scenario& s) { return P{s.n, s.t, s.local_coin_phases}; },
            .budget =
                [](const P& p) { return BudgetHint{p.phases, static_cast<Round>(2 * (p.phases + 2))}; },
            .arm_nodes =
                [](const P& p, const Inputs& in, const SeedTree& seeds, net::NodePool& pool) {
                    base::arm_local_coin_nodes(p, kWhp, in, seeds, pool);
                },
            .arm_batch =
                [](const P& p, const Inputs& in, const SeedTree& seeds, BatchSlot& slot) {
                    base::arm_local_coin_batch(p, kWhp, in, seeds, slot);
                },
            .sparse = true,
            .fused = [](const P& p) {
                return fused_skeleton(p.n, p.t, p.phases, kWhp,
                                      {core::FusedCoinSpec::Kind::Local, {}, nullptr});
            }};
}

ProtocolDecl<base::BenOrParams> ben_or() {
    using P = base::BenOrParams;
    return {.params = [](const Scenario& s) { return P{s.n, s.t, s.local_coin_phases}; },
            .budget =
                [](const P& p) { return BudgetHint{p.phases, static_cast<Round>(2 * (p.phases + 2))}; },
            .arm_nodes = &base::arm_ben_or_nodes,
            .arm_batch = &base::arm_ben_or_batch,
            .sparse = true,
            .fused = [](const P& p) -> std::unique_ptr<net::FusedProtocol> {
                return std::make_unique<base::FusedBenOr>(p);
            }};
}

ProtocolDecl<base::PhaseKingParams> phase_king() {
    using P = base::PhaseKingParams;
    return {.params = [](const Scenario& s) { return P{s.n, s.t}; },
            .budget =
                [](const P& p) {
                    return BudgetHint{p.phases(), static_cast<Round>(p.total_rounds() + 2)};
                },
            .arm_nodes =
                [](const P& p, const Inputs& in, const SeedTree&, net::NodePool& pool) {
                    base::arm_phase_king_nodes(p, in, pool);
                },
            .arm_batch =
                [](const P& p, const Inputs& in, const SeedTree&, BatchSlot& slot) {
                    base::arm_phase_king_batch(p, in, slot);
                },
            .sparse = true,
            .fused = [](const P& p) -> std::unique_ptr<net::FusedProtocol> {
                return std::make_unique<base::FusedPhaseKing>(p);
            }};
}

ProtocolDecl<base::SamplingMajorityParams> sampling_majority() {
    using P = base::SamplingMajorityParams;
    // No native batch: sampling-majority's receive is per-receiver
    // randomized (two random senders per node), so batching would only save
    // the dispatch; it rides the PerNodeBatch adapter.
    return {.params = [](const Scenario& s) { return P::compute(s.n, s.t, s.sampling_kappa); },
            .budget = [](const P& p) { return BudgetHint{p.rounds, static_cast<Round>(p.rounds + 1)}; },
            .arm_nodes = &base::arm_sampling_majority_nodes};
}

}  // namespace

ProtocolRegistry& ProtocolRegistry::instance() {
    static ProtocolRegistry reg;
    return reg;
}

const ProtocolEntry& ProtocolRegistry::add(ProtocolEntry entry) {
    // Checked before RegistryBase::add mutates anything, so a rejected
    // plug-in leaves the registry exactly as it was.
    const auto require = [&](bool ok, const char* what) {
        if (!ok) throw ContractViolation("protocol '" + entry.name + "' " + what);
    };
    require(entry.supports && entry.budgets, "needs a supports predicate and budgets");
    require(entry.make_nodes && entry.reinit_nodes,
            "needs a per-node form: make_nodes together with reinit_nodes");
    require(!entry.make_batch == !entry.reinit_batch,
            "must pair make_batch with reinit_batch (a native batch form needs both)");
    require(!entry.supports_sparse || entry.make_batch,
            "sets supports_sparse without a native batch form (make_batch)");
    return RegistryBase::add(std::move(entry));
}

ProtocolRegistry::ProtocolRegistry() : RegistryBase("protocol") {
    add(declare({.kind = ProtocolKind::Ours,
                 .name = "ours",
                 .display = "ours(alg3)",
                 .aliases = {"alg3", "ours(alg3)", "dufoulon-pandurangan"},
                 .summary = "Algorithm 3, w.h.p. fixed phases (Theorem 2)",
                 .resilience = "t < n/3",
                 .supports = third_resilient,
                 .strongest = AdversaryKind::WorstCase},
                algorithm3<AgreementMode::WhpFixedPhases>()));
    add(declare({.kind = ProtocolKind::OursLasVegas,
                 .name = "ours-las-vegas",
                 .display = "ours(las-vegas)",
                 .aliases = {"ours(las-vegas)", "las-vegas", "alg3-lv"},
                 .summary = "Algorithm 3, Las Vegas variant (paper §3.2)",
                 .resilience = "t < n/3",
                 .supports = third_resilient,
                 .strongest = AdversaryKind::WorstCase},
                algorithm3<AgreementMode::LasVegas>()));
    add(declare({.kind = ProtocolKind::ChorCoanRushing,
                 .name = "chor-coan-rushing",
                 .display = "chor-coan(rushing)",
                 .aliases = {"chor-coan(rushing)", "cc-rushing"},
                 .summary = "rushing-hardened Chor-Coan (footnote-3 comparator)",
                 .resilience = "t < n/3",
                 .supports = third_resilient,
                 .strongest = AdversaryKind::WorstCase},
                chor_coan<&base::ChorCoanParams::compute_rushing>()));
    add(declare({.kind = ProtocolKind::ChorCoanClassic,
                 .name = "chor-coan-classic",
                 .display = "chor-coan(classic)",
                 .aliases = {"chor-coan(classic)", "cc-classic", "chor-coan"},
                 .summary = "historic Chor-Coan 1985, Θ(log n)-size groups",
                 .resilience = "t < n/3",
                 .supports = third_resilient,
                 .strongest = AdversaryKind::WorstCase},
                chor_coan<&base::ChorCoanParams::compute_classic>()));
    add(declare({.kind = ProtocolKind::RabinDealer,
                 .name = "rabin-dealer",
                 .display = "rabin(dealer)",
                 .aliases = {"rabin(dealer)", "rabin"},
                 .summary = "Rabin 1983, trusted-dealer shared coin (ideal reference)",
                 .resilience = "t < n/3",
                 .supports = third_resilient,
                 .strongest = AdversaryKind::SplitVote},
                rabin_dealer()));
    add(declare({.kind = ProtocolKind::LocalCoin,
                 .name = "local-coin",
                 .display = "local-coin",
                 .aliases = {},
                 .summary = "skeleton with private coins (ablation; exponential rounds)",
                 .resilience = "t < n/3",
                 .supports = third_resilient,
                 .strongest = AdversaryKind::SplitVote},
                local_coin()));
    add(declare({.kind = ProtocolKind::BenOr,
                 .name = "ben-or",
                 .display = "ben-or(1983)",
                 .aliases = {"ben-or(1983)", "benor"},
                 .summary = "Ben-Or 1983 proper, private coins",
                 .resilience = "t < n/5",
                 .supports = [](NodeId n, Count t) { return 5 * std::uint64_t{t} < n; },
                 .strongest = AdversaryKind::SplitVote},
                ben_or()));
    add(declare({.kind = ProtocolKind::PhaseKing,
                 .name = "phase-king",
                 .display = "phase-king",
                 .aliases = {"phaseking", "king"},
                 .summary = "deterministic 2(t+1)-round baseline",
                 .resilience = "t < n/4",
                 .supports = [](NodeId n, Count t) { return 4 * std::uint64_t{t} < n; },
                 .strongest = AdversaryKind::KingKiller},
                phase_king()));
    add(declare({.kind = ProtocolKind::SamplingMajority,
                 .name = "sampling-majority",
                 .display = "sampling-majority",
                 .aliases = {"sampling", "apr"},
                 .summary = "APR 2013 sampling-majority drift protocol (paper §1.3)",
                 .resilience = "t < n/3, n >= 2",
                 .supports = [](NodeId n, Count t) { return n >= 2 && third_resilient(n, t); },
                 .strongest = AdversaryKind::Balancer},
                sampling_majority()));
}

ProtocolBundle bundle_metadata(const ProtocolEntry& p, const Scenario& s) {
    return unarmed_bundle(p.budgets(s),
                          p.schedule_of ? std::optional(p.schedule_of(s)) : std::nullopt);
}

// --------------------------------------------------------- built-in adversaries

AdversaryRegistry& AdversaryRegistry::instance() {
    static AdversaryRegistry reg;
    return reg;
}

AdversaryRegistry::AdversaryRegistry() : RegistryBase("adversary") {
    const auto q_of = [](const Scenario& s) { return s.q.value_or(s.t); };

    add({AdversaryKind::None,
         "none",
         "none",
         {"null"},
         "no corruptions (honest baseline)",
         "-",
         "-",
         false,
         std::nullopt,
         [](const Scenario&, const ProtocolBundle&, const SeedTree&) {
             return std::make_unique<net::NullAdversary>();
         },
         /*supports_fused=*/true});

    add({AdversaryKind::Static,
         "static",
         "static",
         {},
         "static random corrupt set, split-vote behaviour",
         "no",
         "no",
         false,
         std::nullopt,
         [q_of](const Scenario& s, const ProtocolBundle&, const SeedTree& seeds)
             -> std::unique_ptr<net::Adversary> {
             return std::make_unique<adv::StaticAdversary>(
                 q_of(s), adv::StaticBehavior::SplitVotes,
                 seeds.stream(StreamPurpose::Adversary));
         },
         /*supports_fused=*/true});

    add({AdversaryKind::SplitVote,
         "split-vote",
         "split-vote",
         {"splitvote"},
         "static set, threshold-straddling equivocation",
         "no",
         "no",
         false,
         std::nullopt,
         [q_of](const Scenario& s, const ProtocolBundle&, const SeedTree& seeds)
             -> std::unique_ptr<net::Adversary> {
             return std::make_unique<adv::SplitVoteAdversary>(
                 q_of(s), seeds.stream(StreamPurpose::Adversary));
         },
         /*supports_fused=*/true});

    add({AdversaryKind::Chaos,
         "chaos",
         "chaos",
         {},
         "random adaptive corruptions, fuzzed messages",
         "yes",
         "no",
         false,
         std::nullopt,
         [q_of](const Scenario& s, const ProtocolBundle&, const SeedTree& seeds)
             -> std::unique_ptr<net::Adversary> {
             return std::make_unique<adv::ChaosAdversary>(
                 adv::ChaosConfig{q_of(s), 0.25, 0.7},
                 seeds.stream(StreamPurpose::Adversary));
         }});

    add({AdversaryKind::CrashRandom,
         "crash-random",
         "crash(random)",
         {"crash(random)", "crash"},
         "adaptive random crash faults",
         "yes",
         "yes",
         false,
         std::nullopt,
         [q_of](const Scenario& s, const ProtocolBundle&, const SeedTree& seeds)
             -> std::unique_ptr<net::Adversary> {
             return std::make_unique<adv::CrashAdversary>(
                 adv::CrashConfig{q_of(s), adv::CrashMode::Random, 0.15, std::nullopt},
                 seeds.stream(StreamPurpose::Adversary));
         },
         /*supports_fused=*/true});

    add({AdversaryKind::CrashTargetedCoin,
         "crash-targeted-coin",
         "crash(targeted)",
         {"crash(targeted)", "crash-targeted"},
         "BJBO-style adaptive crash attack on the committee coin",
         "yes",
         "yes",
         true,
         std::nullopt,
         [q_of](const Scenario& s, const ProtocolBundle& bundle, const SeedTree& seeds)
             -> std::unique_ptr<net::Adversary> {
             return std::make_unique<adv::CrashAdversary>(
                 adv::CrashConfig{q_of(s), adv::CrashMode::TargetedCoin, 0.0,
                                  bundle.schedule},
                 seeds.stream(StreamPurpose::Adversary));
         },
         /*supports_fused=*/true});

    add({AdversaryKind::WorstCase,
         "worst-case",
         "worst-case",
         {"worstcase", "rushing"},
         "schedule-aware rushing attack (the paper's model)",
         "yes",
         "yes",
         true,
         std::nullopt,
         [q_of](const Scenario& s, const ProtocolBundle& bundle, const SeedTree&)
             -> std::unique_ptr<net::Adversary> {
             return std::make_unique<adv::WorstCaseAdversary>(
                 adv::WorstCaseConfig{s.t, q_of(s), *bundle.schedule, true});
         }});

    add({AdversaryKind::KingKiller,
         "king-killer",
         "king-killer",
         {"kingkiller"},
         "adaptive king corruption (Phase-King only)",
         "yes",
         "no",
         false,
         ProtocolKind::PhaseKing,
         [q_of](const Scenario& s, const ProtocolBundle&, const SeedTree&)
             -> std::unique_ptr<net::Adversary> {
             return std::make_unique<adv::KingKillerAdversary>(
                 base::PhaseKingParams{s.n, s.t}, q_of(s));
         }});

    add({AdversaryKind::Balancer,
         "balancer",
         "balancer",
         {"majority-balancer"},
         "drift-cancelling attack on sampling/majority protocols (E11)",
         "yes",
         "yes",
         false,
         std::nullopt,
         [q_of](const Scenario& s, const ProtocolBundle&, const SeedTree&)
             -> std::unique_ptr<net::Adversary> {
             return std::make_unique<adv::MajorityBalancerAdversary>(
                 adv::BalancerConfig{q_of(s), 0});
         }});
}

// ------------------------------------------------- built-in mv adversaries

MvAdversaryRegistry& MvAdversaryRegistry::instance() {
    static MvAdversaryRegistry reg;
    return reg;
}

MvAdversaryRegistry::MvAdversaryRegistry() : RegistryBase("mv-adversary") {
    // Actual corruption cap: like the binary stack, `q` (default t) bounds
    // what the adversary spends while the engine budget stays t.
    const auto q_of = [](const MvScenario& s) { return s.q.value_or(s.t); };

    add({MvAdversaryKind::None,
         "none",
         "none",
         {"null"},
         "no corruptions",
         [](const MvScenario&, const core::MultiValuedParams&, const SeedTree&) {
             return std::make_unique<net::NullAdversary>();
         }});

    add({MvAdversaryKind::Chaos,
         "chaos",
         "chaos",
         {},
         "fuzzed garbage incl. Turpin-Coan message kinds",
         [q_of](const MvScenario& s, const core::MultiValuedParams&,
                const SeedTree& seeds) -> std::unique_ptr<net::Adversary> {
             return std::make_unique<adv::ChaosAdversary>(
                 adv::ChaosConfig{q_of(s), 0.3, 0.7},
                 seeds.stream(StreamPurpose::Adversary));
         }});

    add({MvAdversaryKind::WorstCaseInner,
         "worst-case-inner",
         "worst-case(inner)",
         {"worst-case(inner)", "inner"},
         "full budget on the embedded Algorithm 3",
         [q_of](const MvScenario& s, const core::MultiValuedParams& params,
                const SeedTree&) -> std::unique_ptr<net::Adversary> {
             return std::make_unique<adv::WorstCaseAdversary>(adv::WorstCaseConfig{
                 s.t, q_of(s), params.binary.schedule, true, /*round_offset=*/2});
         }});

    add({MvAdversaryKind::PreludePlusWorstCase,
         "prelude+worst-case",
         "prelude+worst-case",
         {"prelude-plus-worst-case", "prelude"},
         "half budget equivocating the prelude, half on the inner protocol",
         [q_of](const MvScenario& s, const core::MultiValuedParams& params,
                const SeedTree&) -> std::unique_ptr<net::Adversary> {
             const Count half = q_of(s) / 2;
             auto prelude = std::make_unique<adv::TcPreludeAdversary>(half);
             auto inner = std::make_unique<adv::WorstCaseAdversary>(adv::WorstCaseConfig{
                 s.t, q_of(s) - half, params.binary.schedule, true, /*round_offset=*/2});
             return std::make_unique<adv::SwitchAdversary>(std::move(prelude),
                                                           std::move(inner), 2);
         }});
}

// ------------------------------------------------------ compatibility checks

std::optional<std::string> why_incompatible(const Scenario& s) {
    const ProtocolEntry& p = ProtocolRegistry::instance().at(s.protocol);
    const AdversaryEntry& a = AdversaryRegistry::instance().at(s.adversary);

    if (!p.supports(s.n, s.t))
        return "protocol '" + p.name + "' requires " + p.resilience + " (got n=" +
               std::to_string(s.n) + ", t=" + std::to_string(s.t) +
               "); lower t or pick another protocol (see `adba_sim --list`)";

    const Count q = s.q.value_or(s.t);
    if (q > s.t)
        return "actual corruptions q must not exceed the budget t (q=" +
               std::to_string(q) + ", t=" + std::to_string(s.t) + ")";

    if (a.needs_schedule && !p.schedule_of) {
        std::string with;
        for (const ProtocolEntry* e : ProtocolRegistry::instance().list())
            if (e->schedule_of) with += (with.empty() ? "" : ", ") + e->name;
        return "adversary '" + a.name + "' needs a committee-schedule protocol; '" +
               p.name + "' has none (compatible protocols: " + with + ")";
    }

    if (a.requires_protocol && *a.requires_protocol != p.kind) {
        const std::string target =
            ProtocolRegistry::instance().at(*a.requires_protocol).name;
        return "adversary '" + a.name + "' targets protocol '" + target +
               "' only (scenario has '" + p.name + "')";
    }

    if (s.sparse_plane) {
        if (!p.supports_sparse) {
            std::string with;
            for (const ProtocolEntry* e : ProtocolRegistry::instance().list())
                if (e->supports_sparse) with += (with.empty() ? "" : ", ") + e->name;
            return "plane=sparse needs a sparse-capable native batch; protocol '" +
                   p.name + "' has none (sparse-capable protocols: " + with + ")";
        }
        if (!s.use_batch)
            return "plane=sparse answers receive beats through the native batch "
                   "plane and cannot combine with batch=false; drop one of the two";
        if (s.reference_delivery)
            return "plane=sparse has no reference-delivery form; drop "
                   "reference=true (use plane=flat for oracle comparisons)";
        if (!s.use_simd)
            return "plane=sparse reads the word-packed tally planes and cannot "
                   "combine with simd=false; drop one of the two";
    }

    if (s.use_fused) {
        if (!p.make_fused) {
            std::string with;
            for (const ProtocolEntry* e : ProtocolRegistry::instance().list())
                if (e->make_fused) with += (with.empty() ? "" : ", ") + e->name;
            return "fused=true needs a fused-capable protocol; '" + p.name +
                   "' has no 64-lane form (fused-capable protocols: " + with + ")";
        }
        if (!a.supports_fused) {
            std::string with;
            for (const AdversaryEntry* e : AdversaryRegistry::instance().list())
                if (e->supports_fused) with += (with.empty() ? "" : ", ") + e->name;
            return "adversary '" + a.name +
                   "' does not act through the fused plane's lane-masked "
                   "split_as bridge; drop fused=true or pick one of: " +
                   with;
        }
        if (s.sparse_plane)
            return "fused=true co-executes 64 trials on the flat bit planes and "
                   "cannot combine with plane=sparse; drop one of the two";
        if (s.reference_delivery)
            return "fused=true has no reference-delivery form; drop "
                   "reference=true (use fused=false for oracle comparisons)";
        if (s.record_transcript)
            return "fused=true does not record per-trial transcripts (64 trials "
                   "share each beat); drop transcript=true or fused=true";
        if (!s.use_batch)
            return "fused=true is the word-parallel form of the native batch "
                   "plane and cannot combine with batch=false; drop one of the "
                   "two";
        if (s.watchdog_ms != 0)
            return "fused=true shares wall-clock across 64 co-executing trials, "
                   "so a per-trial watchdog is undefined; drop watchdog_ms or "
                   "fused=true";
    }

    return std::nullopt;
}

bool compatible(const Scenario& s) { return !why_incompatible(s).has_value(); }

ScenarioPlan validate(const Scenario& s) {
    if (const auto why = why_incompatible(s)) throw ContractViolation(*why);
    return {s, &ProtocolRegistry::instance().at(s.protocol),
            &AdversaryRegistry::instance().at(s.adversary)};
}

std::optional<std::string> why_incompatible(const MvScenario& s) {
    if (s.n == 0) return "multi-valued scenario needs n > 0";
    if (3 * static_cast<std::uint64_t>(s.t) >= s.n)
        return "the Turpin-Coan reduction requires t < n/3 (got n=" +
               std::to_string(s.n) + ", t=" + std::to_string(s.t) + ")";
    const Count q = s.q.value_or(s.t);
    if (q > s.t)
        return "actual corruptions q must not exceed the budget t (q=" +
               std::to_string(q) + ", t=" + std::to_string(s.t) + ")";
    return std::nullopt;
}

bool compatible(const MvScenario& s) { return !why_incompatible(s).has_value(); }

MvScenarioPlan validate(const MvScenario& s) {
    if (const auto why = why_incompatible(s)) throw ContractViolation(*why);
    MvScenarioPlan plan;
    plan.scenario = s;
    const auto mode = s.las_vegas ? core::AgreementMode::LasVegas
                                  : core::AgreementMode::WhpFixedPhases;
    plan.params = core::MultiValuedParams::compute(s.n, s.t, s.tuning, s.fallback, mode);
    plan.cap = core::round_cap(core::max_rounds_whp(plan.params), mode);
    plan.adversary = &MvAdversaryRegistry::instance().at(s.adversary);
    return plan;
}

// ------------------------------------------------------ scenario key tables

namespace {

using spec::Print;

/// A registry's names as a codec: any alias in, the canonical name out.
template <typename Registry>
struct RegistryName {
    const Registry& registry = Registry::instance();
    auto parse(const std::string&, const std::string& text) const {
        return registry.at(text).kind;
    }
    template <typename Kind>
    std::string print(Kind kind) const { return registry.at(kind).name; }
};

/// `head`, then the size, budget and tuning rows both scenario types share,
/// then `tail`.
template <typename S>
std::vector<spec::Key<S>> around_budget_keys(std::vector<spec::Key<S>> head,
                                             std::vector<spec::Key<S>> tail) {
    head.insert(
        head.end(),
        {spec::key<S>("n", "node count", &S::n, spec::Int<NodeId>{}, Print::Always),
         spec::key<S>("t", "fault budget the protocol is built for", &S::t,
                      spec::Int<Count>{}, Print::Always),
         spec::key<S>("q", "corruptions the adversary may make (default: t)", &S::q,
                      spec::Optional<spec::Int<Count>>{}),
         spec::key<S>("alpha", "committee count multiplier (the paper's alpha)",
                      [](auto& s) -> auto& { return s.tuning.alpha; }, spec::Real{}),
         spec::key<S>("gamma", "w.h.p. phase floor multiplier",
                      [](auto& s) -> auto& { return s.tuning.gamma; }, spec::Real{}),
         spec::key<S>("beta", "Chor-Coan classic group size multiplier",
                      [](auto& s) -> auto& { return s.tuning.beta; }, spec::Real{})});
    head.insert(head.end(), tail.begin(), tail.end());
    return head;
}

constexpr const char* kReferenceHelp = "per-sender reference delivery (the oracle path)";
constexpr const char* kSimdHelp = "word-packed tally kernels (off: scalar oracle)";
constexpr const char* kWatchdogHelp = "per-trial wall-clock watchdog, 0 = off";

}  // namespace

const spec::Table<Scenario>& Scenario::keys() {
    using S = Scenario;
    using spec::key;
    static const spec::Table<S> table(
        "scenario",
        around_budget_keys<S>(
            {key<S>("protocol", "agreement protocol (see --list)", &S::protocol,
                    RegistryName<ProtocolRegistry>{}, Print::Always),
             key<S>("adversary", "adversary strategy (see --list)", &S::adversary,
                    RegistryName<AdversaryRegistry>{}, Print::Always),
             key<S>("inputs", "input pattern: all-zero, all-one, split or random",
                    &S::inputs, input_pattern_names(), Print::Always)},
            {key<S>("phases", "phase budget for local-coin and ben-or",
                    &S::local_coin_phases, spec::Int<Count>{}),
             key<S>("kappa", "sampling-majority round budget knob", &S::sampling_kappa,
                    spec::Real{}),
             key<S>("max_rounds", "round cap, 0 = protocol default",
                    &S::max_rounds_override, spec::Int<Round>{}),
             key<S>("transcript", "record a per-round transcript", &S::record_transcript,
                    spec::Bool{}),
             key<S>("reference", kReferenceHelp, &S::reference_delivery, spec::Bool{}),
             key<S>("batch", "native SoA batch (off: per-node adapter)", &S::use_batch,
                    spec::Bool{}),
             key<S>("shard", "allow intra-trial sharding of engine beats", &S::use_shard,
                    spec::Bool{}),
             key<S>("simd", kSimdHelp, &S::use_simd, spec::Bool{}),
             key<S>("intra_threads", "intra-trial shards, 0 = process default",
                    &S::intra_threads, spec::Int<Count>{}),
             key<S>("plane", "delivery plane: flat or sparse", &S::sparse_plane,
                    spec::Choice<bool>{{{"flat", false}, {"sparse", true}}}),
             key<S>("sample_degree",
                    "sampled senders per receiver under plane=sparse, 0 = default",
                    &S::sample_degree, spec::Int<Count>{}),
             key<S>("sparse_seed", "sparse topology stream index", &S::sparse_seed,
                    spec::Int<std::uint64_t>{}),
             key<S>("sparse_stream", "sparse sample derivation: chain or counter",
                    &S::sparse_stream,
                    spec::Choice<net::SparseStream>{
                        {{"chain", net::SparseStream::Chain},
                         {"counter", net::SparseStream::Counter}}}),
             key<S>("fused", "64 trials per machine word (fused plane)", &S::use_fused,
                    spec::Bool{}),
             key<S>("watchdog_ms", kWatchdogHelp, &S::watchdog_ms,
                    spec::Int<std::uint32_t>{})}));
    return table;
}

const spec::Table<MvScenario>& MvScenario::keys() {
    using S = MvScenario;
    using spec::key;
    static const spec::Table<S> table(
        "multi-valued scenario",
        around_budget_keys<S>(
            {key<S>("adversary", "multi-valued adversary (see --list)", &S::adversary,
                    RegistryName<MvAdversaryRegistry>{}, Print::Always),
             key<S>("inputs",
                    "input pattern: all-same, two-blocks, all-distinct, random or "
                    "near-quorum",
                    &S::inputs, mv_input_pattern_names(), Print::Always)},
            {key<S>("fallback", "word output when the binary protocol decides 0",
                    &S::fallback, spec::Int<net::Word>{}),
             key<S>("las_vegas", "inner protocol in Las Vegas mode", &S::las_vegas,
                    spec::Bool{}),
             key<S>("reference", kReferenceHelp, &S::reference_delivery, spec::Bool{}),
             key<S>("simd", kSimdHelp, &S::use_simd, spec::Bool{}),
             key<S>("watchdog_ms", kWatchdogHelp, &S::watchdog_ms,
                    spec::Int<std::uint32_t>{})}));
    return table;
}

// ----------------------------------------------------------- memory budget

namespace {

std::string mb_string(std::uint64_t bytes) {
    // Ceiling in MiB so "needs ~X MiB" never understates.
    return std::to_string((bytes + (1ULL << 20) - 1) >> 20) + " MiB";
}

}  // namespace

std::optional<std::string> apply_memory_budget(Scenario& s) {
    const std::uint64_t budget_mb = default_mem_budget_mb();
    if (budget_mb == 0) return std::nullopt;
    const std::uint64_t budget = budget_mb << 20;

    const std::uint64_t flat = estimate_trial_arena_bytes(s.n, s.sparse_plane);
    if (flat <= budget) return std::nullopt;

    const ProtocolEntry& p = ProtocolRegistry::instance().at(s.protocol);
    const bool can_fall_back = !s.sparse_plane && p.supports_sparse && s.use_batch &&
                               s.use_simd && !s.reference_delivery && !s.use_fused;
    if (can_fall_back) {
        const std::uint64_t sparse = estimate_trial_arena_bytes(s.n, true);
        if (sparse <= budget) {
            s.sparse_plane = true;
            return "[adba] memory budget: flat plane at n=" + std::to_string(s.n) +
                   " needs ~" + mb_string(flat) + " > budget " +
                   std::to_string(budget_mb) +
                   " MiB; falling back to plane=sparse (~" + mb_string(sparse) +
                   "); results are sampled estimates, not exact tallies";
        }
    }

    throw ContractViolation(
        "scenario at n=" + std::to_string(s.n) + " needs ~" + mb_string(flat) +
        " per trial arena, over the memory budget of " + std::to_string(budget_mb) +
        " MiB" +
        (can_fall_back ? " (even the sparse plane would not fit)"
         : s.sparse_plane
             ? ""
             : " and cannot fall back to the sparse plane under this "
               "configuration (needs a sparse-capable protocol with batch=on, "
               "simd=on, reference=off)") +
        "; raise --mem_budget_mb / ADBA_MEM_BUDGET_MB, lower n, or pick a "
        "sparse-capable protocol");
}

void enforce_memory_budget(const MvScenario& s) {
    const std::uint64_t budget_mb = default_mem_budget_mb();
    if (budget_mb == 0) return;
    const std::uint64_t need = estimate_trial_arena_bytes(s.n, false);
    if (need <= (budget_mb << 20)) return;
    throw ContractViolation(
        "multi-valued scenario at n=" + std::to_string(s.n) + " needs ~" +
        mb_string(need) + " per trial arena, over the memory budget of " +
        std::to_string(budget_mb) +
        " MiB; the Turpin-Coan stack has no sparse fallback — raise "
        "--mem_budget_mb / ADBA_MEM_BUDGET_MB or lower n");
}

}  // namespace adba::sim
