/**
 * @file
 * In-process deployment-mode daemon tests.
 *
 * The layout contract: a deployment-mode daemon and the serial Fleet,
 * built from the same spec text, must derive the same servers, server
 * by server, and the same leaf rosters. Daemons have no discovery
 * protocol, so any drift here means an agent daemon serves servers a
 * leaf daemon's roster does not expect. The test runs over every
 * committed `.spec` file in tests/data.
 *
 * The step count: Daemon::Step() returns the frames a loop pass
 * dispatched, and requests served over sockets count.
 */
#include <unistd.h>

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/api.h"
#include "core/deployment.h"
#include "daemon/daemon.h"
#include "fleet/fleet.h"
#include "fleet/spec_parser.h"
#include "rpc/socket_transport.h"

namespace dynamo {
namespace {

namespace fs = std::filesystem;

/** A private directory for unix sockets, removed on destruction. */
class SocketDir
{
  public:
    SocketDir()
    {
        char tmpl[] = "/tmp/dynamo_layout_XXXXXX";
        if (::mkdtemp(tmpl) != nullptr) path_ = tmpl;
    }
    ~SocketDir()
    {
        if (!path_.empty()) fs::remove_all(path_);
    }

    std::string Address(const std::string& tag) const
    {
        return "unix:" + path_ + "/" + tag + ".sock";
    }

  private:
    std::string path_;
};

std::string
ReadFile(const fs::path& path)
{
    std::ifstream in(path);
    std::ostringstream text;
    text << in.rdbuf();
    return text.str();
}

/** Every committed spec, sorted so test names are stable. */
std::vector<std::string>
CommittedSpecs()
{
    std::vector<std::string> names;
    for (const auto& entry : fs::directory_iterator(DYNAMO_TEST_DATA_DIR)) {
        if (entry.path().extension() == ".spec") {
            names.push_back(entry.path().filename().string());
        }
    }
    std::sort(names.begin(), names.end());
    return names;
}

class LayoutContract : public ::testing::TestWithParam<std::string>
{
};

TEST_P(LayoutContract, DaemonAndFleetDeriveTheSameServersAndRosters)
{
    const std::string text =
        ReadFile(fs::path(DYNAMO_TEST_DATA_DIR) / GetParam());
    fleet::Fleet fleet(fleet::ParseFleetSpecString(text));
    const std::string root = fleet.root().name();

    SocketDir dir;
    daemon::Daemon::Options options;
    options.role = daemon::Daemon::Role::kAgent;
    options.spec_text = text;
    options.device = root;
    options.listen = dir.Address("agentd");
    daemon::Daemon daemon(options);

    const std::vector<server::SimServer*> want = fleet.ServersUnder(root);
    const std::vector<server::SimServer*> got =
        daemon.layout().ServersUnder(root);
    ASSERT_EQ(got.size(), want.size());
    ASSERT_FALSE(want.empty());
    // Count every difference but print only the first few.
    std::size_t mismatched = 0;
    for (std::size_t i = 0; i < want.size(); ++i) {
        const server::SimServer::Config& a = want[i]->config();
        const server::SimServer::Config& b = got[i]->config();
        if (a.name == b.name && a.service == b.service &&
            a.generation == b.generation && a.has_sensor == b.has_sensor &&
            a.seed == b.seed) {
            continue;
        }
        if (++mismatched <= 3) {
            ADD_FAILURE() << "server " << i << " (" << a.name << ") differs";
        }
    }
    EXPECT_EQ(mismatched, 0u) << "of " << want.size() << " servers";

    const core::Deployment* plane = fleet.dynamo();
    ASSERT_NE(plane, nullptr);
    ASSERT_FALSE(plane->leaf_controllers().empty());
    std::size_t roster_mismatched = 0;
    for (const auto& leaf : plane->leaf_controllers()) {
        const std::string device = leaf->device().name();
        const std::vector<server::SimServer*> fleet_servers =
            fleet.ServersUnder(device);
        const std::vector<server::SimServer*> daemon_servers =
            daemon.layout().ServersUnder(device);
        EXPECT_EQ(leaf->agent_count(), fleet_servers.size()) << device;
        ASSERT_EQ(daemon_servers.size(), fleet_servers.size()) << device;
        for (std::size_t i = 0; i < fleet_servers.size(); ++i) {
            const core::AgentInfo a = core::AgentInfoFor(*fleet_servers[i]);
            const core::AgentInfo b = core::AgentInfoFor(*daemon_servers[i]);
            if (a.endpoint == b.endpoint && a.service == b.service &&
                a.priority_group == b.priority_group &&
                a.sla_min_cap == b.sla_min_cap &&
                a.nominal_power == b.nominal_power) {
                continue;
            }
            if (++roster_mismatched <= 3) {
                ADD_FAILURE() << device << " roster entry " << i << " ("
                              << a.endpoint << ") differs";
            }
        }
    }
    EXPECT_EQ(roster_mismatched, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    CommittedSpecs, LayoutContract, ::testing::ValuesIn(CommittedSpecs()),
    [](const ::testing::TestParamInfo<std::string>& info) {
        return fs::path(info.param).stem().string();
    });

TEST(LayoutContractSpecs, EveryCommittedSpecIsCovered)
{
    // A directory listing that silently came back empty would make the
    // contract vacuous.
    EXPECT_GE(CommittedSpecs().size(), 5u);
}

TEST(DaemonStep, CountsSocketReadsServed)
{
    constexpr const char* kSpec = R"(
scope = rpp
servers_per_rpp = 8
seed = 7
)";
    SocketDir dir;
    daemon::Daemon::Options options;
    options.role = daemon::Daemon::Role::kAgent;
    options.spec_text = kSpec;
    options.device = "rpp0";
    options.listen = dir.Address("agentd");
    options.poll_budget_ms = 0;
    daemon::Daemon daemon(options);

    rpc::SocketTransport client;
    const rpc::SocketAddress address = rpc::SocketAddress::Parse(options.listen);
    std::vector<std::string> agents;
    for (server::SimServer* srv : daemon.layout().ServersUnder("rpp0")) {
        agents.push_back(core::Deployment::AgentEndpoint(srv->name()));
        client.AddRoute(agents.back(), address);
    }
    ASSERT_EQ(agents.size(), 8u);

    std::size_t replies = 0;
    std::size_t failures = 0;
    for (const std::string& agent : agents) {
        client.Call(
            client.Resolve(agent), api::PowerReadRequest{},
            [&](const rpc::Payload&) { ++replies; },
            [&](const std::string&) { ++failures; }, /*timeout_ms=*/5000);
    }

    std::size_t dispatched = 0;
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (replies + failures < agents.size() &&
           std::chrono::steady_clock::now() < deadline) {
        client.PollOnce(1);
        dispatched += daemon.Step();
    }
    ASSERT_EQ(replies, agents.size());
    EXPECT_EQ(failures, 0u);
    // The daemon answered every read over its socket, so its loop
    // passes dispatched at least that many frames.
    EXPECT_GE(dispatched, agents.size());
}

}  // namespace
}  // namespace dynamo
