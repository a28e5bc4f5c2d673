// Fleet workloads: whole simulated fleets built with ScenarioBuilder and
// advanced with Scenario::run_until in fixed simulated-time steps.
#pragma once

#include <optional>

#include "bench.hpp"
#include "report.hpp"

namespace perfbench {

/// Run fleet_sleepy or fleet_wur_listen; nullopt for any other
/// workload name.
std::optional<RunResult> run_fleet(const RunArgs& args);

}  // namespace perfbench
