#include "sim/workload.hpp"

#include "support/cli.hpp"
#include "support/contracts.hpp"
#include "support/spec.hpp"

namespace adba::sim {

const std::vector<WorkloadInfo>& workloads() {
    static const std::vector<WorkloadInfo> table = {
        {"binary",
         {"bin", "engine"},
         "Scenario",
         "SweepGrid",
         "full-fidelity engine trials: any registered protocol x adversary"},
        {"coin",
         {"common-coin"},
         "CoinScenario",
         "CoinSweepGrid",
         "standalone common-coin trials (Algorithm 1/2 vs coin-ruin)"},
        {"mv",
         {"multivalued", "multi-valued", "turpin-coan"},
         "MvScenario",
         "MvSweepGrid",
         "multi-valued agreement (Turpin-Coan reduction over Algorithm 3)"},
        {"macro",
         {"asymptotic"},
         "MacroScenario",
         "-",
         "macro asymptotic simulator, O(committee) per phase up to n=2^20"},
    };
    return table;
}

const WorkloadInfo* find_workload(const std::string& name_or_alias) {
    const std::string key = spec::lower(name_or_alias);
    for (const WorkloadInfo& w : workloads()) {
        if (w.name == key) return &w;
        for (const auto& alias : w.aliases)
            if (spec::lower(alias) == key) return &w;
    }
    return nullptr;
}

const WorkloadInfo& workload_at(const std::string& name_or_alias) {
    if (const WorkloadInfo* w = find_workload(name_or_alias)) return *w;
    std::string known;
    std::vector<std::string> candidates;
    for (const WorkloadInfo& w : workloads()) {
        known += (known.empty() ? "" : ", ") + w.name;
        candidates.push_back(w.name);
        candidates.insert(candidates.end(), w.aliases.begin(), w.aliases.end());
    }
    std::string msg = "unknown workload '" + name_or_alias + "'";
    const std::string best = closest_match(spec::lower(name_or_alias), candidates);
    if (!best.empty()) msg += " (did you mean '" + best + "'?)";
    throw ContractViolation(msg + "; known workloads: " + known +
                            " (aliases accepted; see `adba_sim --list`)");
}

}  // namespace adba::sim
