/**
 * @file
 * Record / verify / bisect CLI for the replay subsystem.
 *
 *   replay_cli record --out run.journal [--spec spec.txt]
 *       [--scenario mixed-faults] [--duration-s 180] [--cycle-ms 3000]
 *       [--checkpoint-every 10] [--check]
 *   replay_cli verify --journal run.journal [--from-checkpoint N]
 *       [--spec modified-spec.txt]
 *   replay_cli bisect --journal run.journal --spec modified-spec.txt
 *   replay_cli info --journal run.journal
 *   replay_cli diff A.journal B.journal
 *
 * `record --check` arms the chaos invariant checker; the moment any
 * invariant fails, the journal recorded so far is flushed to
 * `<out>.violation` — a ready-to-run reproduction of the failure.
 * `verify --spec` / `bisect --spec` replay the journal under a
 * different spec (the "modified binary" workflow) and report the first
 * divergent cycle. `diff` compares two journals field class by field
 * class (window times, kernel and RPC hashes, spans, faults,
 * reconfigs, checkpoint bytes) and exits 1 when any class differs.
 */
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "chaos/campaign.h"
#include "chaos/invariants.h"
#include "fleet/fleet.h"
#include "fleet/spec_parser.h"
#include "policy/capping_policy.h"
#include "replay/bisect.h"
#include "replay/journal.h"
#include "replay/journal_diff.h"
#include "replay/recorder.h"
#include "replay/replayer.h"
#include "replay/scenario.h"

namespace {

using namespace dynamo;

struct Options
{
    std::string command;
    std::string journal_path;
    std::vector<std::string> positional;  ///< diff's two journal paths.
    std::string out_path;
    std::string spec_path;
    std::string scenario = "mixed-faults";
    bool scenario_set = false;  ///< --scenario given (beats the spec file).
    double duration_s = 180.0;
    SimTime cycle_ms = 3000;
    std::uint64_t checkpoint_every = 10;
    std::optional<std::size_t> from_checkpoint;
    bool check_invariants = false;
    bool audit_qos = false;  ///< --audit-qos: opt-in shed-order audit.
    std::optional<policy::PolicyKind> policy;
};

[[noreturn]] void
Usage(const char* argv0)
{
    std::cerr
        << "usage: " << argv0
        << " <record|verify|bisect|info|diff|list> [options]\n"
        << "  record --out PATH [--spec FILE] [--scenario NAME[(k=v,...)]]\n"
        << "         [--duration-s N] [--cycle-ms N] [--checkpoint-every N]\n"
        << "         [--check] [--audit-qos] [--policy NAME]\n"
        << "  verify --journal PATH [--from-checkpoint N] [--spec FILE]\n"
        << "  bisect --journal PATH --spec FILE\n"
        << "  info   --journal PATH\n"
        << "  diff   A.journal B.journal\n"
        << "  list   (print the scenario catalog)\n"
        << "scenarios:";
    for (const auto& name : replay::ScenarioNames()) std::cerr << " " << name;
    std::cerr << "\n";
    std::exit(2);
}

Options
Parse(int argc, char** argv)
{
    if (argc < 2) Usage(argv[0]);
    Options opt;
    opt.command = argv[1];
    for (int i = 2; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto value = [&]() -> std::string {
            if (i + 1 >= argc) Usage(argv[0]);
            return argv[++i];
        };
        if (arg == "--journal") {
            opt.journal_path = value();
        } else if (arg == "--out") {
            opt.out_path = value();
        } else if (arg == "--spec") {
            opt.spec_path = value();
        } else if (arg == "--scenario") {
            opt.scenario = value();
            opt.scenario_set = true;
        } else if (arg == "--duration-s") {
            opt.duration_s = std::stod(value());
        } else if (arg == "--cycle-ms") {
            opt.cycle_ms = static_cast<SimTime>(std::stoll(value()));
        } else if (arg == "--checkpoint-every") {
            opt.checkpoint_every = std::stoull(value());
        } else if (arg == "--from-checkpoint") {
            opt.from_checkpoint = std::stoull(value());
        } else if (arg == "--check") {
            opt.check_invariants = true;
        } else if (arg == "--audit-qos") {
            opt.audit_qos = true;
        } else if (arg == "--policy") {
            policy::PolicyKind kind = policy::PolicyKind::kThreeBand;
            const std::string name = value();
            if (!policy::ParsePolicyKind(name, &kind)) {
                std::cerr << "--policy must be three_band|predictive|"
                             "waterfill|fairshare; got '"
                          << name << "'\n";
                std::exit(2);
            }
            opt.policy = kind;
        } else if (opt.command == "diff" && arg.rfind("--", 0) != 0) {
            opt.positional.push_back(arg);
        } else {
            Usage(argv[0]);
        }
    }
    return opt;
}

/** Default spec when --spec is omitted: a small SB slice, seeded. */
fleet::FleetSpec
DefaultSpec()
{
    fleet::FleetSpec spec;
    spec.scope = fleet::FleetScope::kSb;
    spec.servers_per_rpp = 48;
    spec.topology.rpps_per_sb = 4;
    spec.seed = 20260807;
    return spec;
}

int
Record(const Options& opt)
{
    if (opt.out_path.empty()) {
        std::cerr << "record: --out is required\n";
        return 2;
    }
    fleet::FleetSpec spec = opt.spec_path.empty()
                                ? DefaultSpec()
                                : fleet::LoadFleetSpec(opt.spec_path);
    // --scenario beats the spec file's `scenario=` default, which beats
    // the CLI's built-in default.
    const std::string scenario_text =
        !opt.scenario_set && !spec.scenario.empty() ? spec.scenario
                                                    : opt.scenario;
    replay::ScenarioSpec scenario;
    try {
        scenario = replay::ParseScenarioSpec(scenario_text);
    } catch (const std::invalid_argument& e) {
        std::cerr << "record: " << e.what() << "\n";
        return 2;
    }
    if (opt.policy) {
        // Overrides any capping_policy in the spec file; the journal's
        // canonical spec text records the override, so verify replays
        // under the same brain.
        spec.deployment.leaf.capping_policy = *opt.policy;
        spec.deployment.upper.capping_policy = *opt.policy;
    }
    fleet::Fleet fleet(spec);
    chaos::CampaignEngine campaign(fleet.sim(), fleet.transport(),
                                   fleet.event_log());
    scenario.Apply(fleet, campaign);

    replay::RecorderConfig config;
    config.cycle_period = opt.cycle_ms;
    config.checkpoint_every = opt.checkpoint_every;
    // Canonical text (defaults elided) — the replayer re-parses this.
    config.scenario = replay::FormatScenarioSpec(scenario);
    config.invariants_checked = opt.check_invariants;
    replay::Recorder recorder(fleet, config);
    campaign.set_fault_observer(
        [&recorder](SimTime t, const std::string& description) {
            recorder.RecordFault(t, description);
        });

    std::optional<chaos::InvariantChecker> checker;
    if (opt.check_invariants) {
        chaos::InvariantChecker::Config checker_config;
        checker_config.audit_qos_shed_order = opt.audit_qos;
        checker.emplace(fleet, checker_config);
        checker->set_violation_hook(
            [&recorder, &opt](const std::string& description) {
                const std::string path = opt.out_path + ".violation";
                replay::WriteJournalFile(path, recorder.Finish());
                std::cerr << "invariant violated: " << description << "\n"
                          << "reproduction journal: " << path << "\n";
            });
    }

    fleet.RunFor(Seconds(opt.duration_s));
    const replay::Journal journal = recorder.Finish();
    replay::WriteJournalFile(opt.out_path, journal);
    std::cout << "recorded " << journal.cycles.size() << " cycles, "
              << journal.checkpoints.size() << " checkpoints, "
              << journal.faults.size() << " faults ("
              << fleet.servers().size() << " servers, scenario "
              << config.scenario << ") -> " << opt.out_path << "\n";
    if (checker && !checker->ok()) {
        std::cerr << "run had " << checker->violation_count()
                  << " invariant violations\n";
        return 1;
    }
    return 0;
}

int
Verify(const Options& opt)
{
    if (opt.journal_path.empty()) {
        std::cerr << "verify: --journal is required\n";
        return 2;
    }
    const replay::Journal journal = replay::ReadJournalFile(opt.journal_path);
    replay::Replayer replayer(journal);
    if (!opt.spec_path.empty()) {
        replayer.set_spec_override(
            fleet::SerializeFleetSpec(fleet::LoadFleetSpec(opt.spec_path)));
    }
    const replay::ReplayResult result =
        opt.from_checkpoint ? replayer.ReplayFromCheckpoint(*opt.from_checkpoint)
                            : replayer.ReplayFromStart();
    if (result.ok) {
        std::cout << "replay matched: " << result.cycles_compared
                  << " cycles bit-exact";
        if (opt.from_checkpoint) {
            std::cout << " (checkpoint " << *opt.from_checkpoint
                      << " state verified bit-identical)";
        }
        std::cout << "\n";
        return 0;
    }
    std::cerr << "replay DIVERGED";
    if (result.first_divergent_cycle != replay::ReplayResult::kNoDivergence) {
        std::cerr << " at cycle " << result.first_divergent_cycle;
    }
    std::cerr << "\n" << result.detail << "\n";
    return 1;
}

int
Bisect(const Options& opt)
{
    if (opt.journal_path.empty() || opt.spec_path.empty()) {
        std::cerr << "bisect: --journal and --spec are required\n";
        return 2;
    }
    const replay::Journal journal = replay::ReadJournalFile(opt.journal_path);
    replay::Replayer replayer(journal);
    replayer.set_spec_override(
        fleet::SerializeFleetSpec(fleet::LoadFleetSpec(opt.spec_path)));
    replayer.ReplayFromStart();
    const replay::BisectReport report =
        replay::BisectDivergence(journal, replayer.replayed());
    std::cout << replay::FormatBisectReport(report);
    return report.diverged ? 1 : 0;
}

int
Info(const Options& opt)
{
    if (opt.journal_path.empty()) {
        std::cerr << "info: --journal is required\n";
        return 2;
    }
    const replay::Journal journal = replay::ReadJournalFile(opt.journal_path);
    std::cout << "version: " << journal.version << "\n"
              << "scenario: " << journal.scenario << "\n"
              << "cycle_period_ms: " << journal.cycle_period << "\n"
              << "checkpoint_every: " << journal.checkpoint_every << "\n"
              << "cycles: " << journal.cycles.size() << "\n"
              << "checkpoints: " << journal.checkpoints.size() << "\n"
              << "faults: " << journal.faults.size() << "\n"
              << "reconfigs: " << journal.reconfigs.size() << "\n";
    for (const replay::ReconfigRecord& r : journal.reconfigs) {
        std::cout << "  epoch " << r.epoch << " t=" << r.time << "ms "
                  << r.description << "\n";
    }
    std::cout << "spec:\n" << journal.spec_text;
    return 0;
}

int
Diff(const Options& opt)
{
    if (opt.positional.size() != 2) {
        std::cerr << "diff: needs exactly two journal paths\n";
        return 2;
    }
    const replay::JournalDiff diff =
        replay::DiffJournals(replay::ReadJournalFile(opt.positional[0]),
                             replay::ReadJournalFile(opt.positional[1]));
    std::cout << replay::FormatJournalDiff(diff);
    return diff.identical() ? 0 : 1;
}

int
List()
{
    for (const replay::Scenario& scenario : replay::ScenarioCatalog()) {
        std::cout << scenario.name << "\n    " << scenario.description
                  << "\n";
        for (const replay::ScenarioParam& param : scenario.params) {
            std::cout << "      " << param.key << " = "
                      << param.def << "  (" << param.description << ")\n";
        }
    }
    return 0;
}

}  // namespace

int
main(int argc, char** argv)
{
    try {
        const Options opt = Parse(argc, argv);
        if (opt.command == "record") return Record(opt);
        if (opt.command == "verify") return Verify(opt);
        if (opt.command == "bisect") return Bisect(opt);
        if (opt.command == "info") return Info(opt);
        if (opt.command == "diff") return Diff(opt);
        if (opt.command == "list") return List();
        Usage(argv[0]);
    } catch (const std::exception& e) {
        std::cerr << "error: " << e.what() << "\n";
        return 1;
    }
}
