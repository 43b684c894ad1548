/**
 * @file
 * Unit tests for `rpc::SocketTransport` over real Unix-domain sockets.
 *
 * A client transport calls server transports (or a scripted raw-socket
 * peer) in the same process; the test pumps every side's PollOnce
 * itself, so no threads or child processes are involved. The sockets
 * live in a temporary directory that TearDown removes.
 *
 * Covered: each reply reaching its own callback exactly once in a
 * large burst; calls in the middle of the pending set timing out while
 * later calls complete; a connection torn down mid-fan-out failing
 * every call still pending on it exactly once; route changes
 * (RemoveRoute, AddRoute to a new address, Deregister plus id reuse)
 * taking effect on the very next call; and the rpc.* counters summing.
 */
#include <fcntl.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <any>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/api.h"
#include "rpc/socket_transport.h"
#include "rpc/wire.h"
#include "telemetry/metrics.h"

namespace dynamo::rpc {
namespace {

using Clock = std::chrono::steady_clock;

/**
 * What every test server answers: a PowerReadResult whose source names
 * the server, the endpoint and the call (the CapRequest limit carries
 * the caller's call index), so a reply delivered to the wrong callback
 * cannot pass.
 */
Payload Reply(const std::string& server, const std::string& endpoint,
              const Payload& request)
{
    const auto& cap = std::any_cast<const api::CapRequest&>(request);
    api::PowerReadResult read;
    read.source = server + "/" + endpoint + "#" +
                  std::to_string(static_cast<long long>(cap.limit.value()));
    return read;
}

std::string ExpectedSource(const std::string& server,
                           const std::string& endpoint, std::size_t index)
{
    return server + "/" + endpoint + "#" + std::to_string(index);
}

const std::vector<std::string> kEndpoints = {"agent:e0", "agent:e1",
                                             "agent:e2", "agent:e3"};

/**
 * A raw-socket peer speaking the wire protocol, for failure shapes a
 * SocketTransport server cannot be made to produce: it answers only
 * the requests `answer(i)` selects (i counts requests in arrival
 * order) and can drop its connection on command.
 */
class ScriptedPeer
{
  public:
    ScriptedPeer(const std::string& path,
                 std::function<bool(std::size_t)> answer)
        : answer_(std::move(answer))
    {
        listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
        sockaddr_un sun{};
        sun.sun_family = AF_UNIX;
        std::strncpy(sun.sun_path, path.c_str(), sizeof sun.sun_path - 1);
        if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&sun),
                   sizeof sun) != 0 ||
            ::listen(listen_fd_, 4) != 0) {
            ADD_FAILURE() << "peer bind/listen: " << std::strerror(errno);
        }
        ::fcntl(listen_fd_, F_SETFL, O_NONBLOCK);
    }

    ~ScriptedPeer()
    {
        CloseConnection();
        ::close(listen_fd_);
    }

    /** Accept, read what has arrived, answer the selected requests. */
    void Pump()
    {
        if (fd_ < 0) {
            fd_ = ::accept(listen_fd_, nullptr, nullptr);  // blocking fd
            if (fd_ < 0) return;
        }
        char buffer[4096];
        ssize_t n;
        while ((n = ::recv(fd_, buffer, sizeof buffer, MSG_DONTWAIT)) > 0) {
            reader_.Feed(std::string_view(buffer, static_cast<std::size_t>(n)));
        }
        while (reader_.HasFrame()) {
            const wire::Frame request = reader_.Next();
            if (!answer_(requests_++)) continue;
            const Payload response =
                Reply("peer", request.target,
                      wire::DecodeBody(request.type, request.payload));
            wire::Frame reply;
            reply.kind = wire::FrameKind::kResponse;
            reply.type = wire::TypeOf(response);
            reply.call_id = request.call_id;
            reply.payload = wire::EncodeBody(response);
            const std::string bytes = wire::EncodeFrame(reply);
            std::size_t off = 0;
            while (off < bytes.size()) {
                const ssize_t w = ::send(fd_, bytes.data() + off,
                                         bytes.size() - off, MSG_NOSIGNAL);
                if (w > 0) {
                    off += static_cast<std::size_t>(w);
                } else if (errno != EINTR) {
                    ADD_FAILURE() << "peer write: " << std::strerror(errno);
                    return;
                }
            }
        }
    }

    void CloseConnection()
    {
        if (fd_ >= 0) ::close(fd_);
        fd_ = -1;
    }

    std::size_t requests() const { return requests_; }

  private:
    std::function<bool(std::size_t)> answer_;
    int listen_fd_ = -1;
    int fd_ = -1;
    wire::FrameReader reader_;
    std::size_t requests_ = 0;
};

class SocketTransportTest : public ::testing::Test
{
  protected:
    /** How one call ended; ok + err must come to exactly 1. */
    struct Outcome
    {
        int ok = 0;
        int err = 0;
        std::string source;
        std::string reason;
    };

    void SetUp() override
    {
        char tmpl[] = "/tmp/dynamo_socktest_XXXXXX";
        ASSERT_NE(::mkdtemp(tmpl), nullptr);
        dir_ = tmpl;
        client_.AttachMetrics(&metrics_);
    }

    void TearDown() override
    {
        client_.AttachMetrics(nullptr);
        servers_.clear();
        peer_.reset();
        std::error_code ec;
        std::filesystem::remove_all(dir_, ec);
    }

    SocketAddress Addr(const std::string& tag) const
    {
        return SocketAddress::Parse("unix:" + dir_ + "/" + tag + ".sock");
    }

    /** A server transport listening on `tag`, serving `endpoints`. */
    SocketTransport& AddServer(const std::string& tag,
                               const std::vector<std::string>& endpoints)
    {
        auto server = std::make_unique<SocketTransport>();
        server->Listen(Addr(tag));
        for (const std::string& name : endpoints) {
            server->Register(name, [tag, name](const Payload& request) {
                return Reply(tag, name, request);
            });
        }
        servers_.push_back(std::move(server));
        return *servers_.back();
    }

    /** Issue one call whose outcome lands in outcomes_[returned index]. */
    std::size_t Issue(EndpointId id, SimTime timeout_ms = 5000)
    {
        const std::size_t index = outcomes_.size();
        outcomes_.emplace_back();
        api::CapRequest request;
        request.limit = static_cast<double>(index);
        client_.Call(
            id, request,
            [this, index](const Payload& response) {
                ++outcomes_[index].ok;
                outcomes_[index].source =
                    std::any_cast<const api::PowerReadResult&>(response).source;
            },
            [this, index](const std::string& reason) {
                ++outcomes_[index].err;
                outcomes_[index].reason = reason;
            },
            timeout_ms);
        return index;
    }

    std::size_t Issue(const std::string& endpoint, SimTime timeout_ms = 5000)
    {
        return Issue(client_.Resolve(endpoint), timeout_ms);
    }

    bool Finished(std::size_t index) const
    {
        return outcomes_[index].ok + outcomes_[index].err > 0;
    }

    bool AllFinished() const
    {
        for (std::size_t i = 0; i < outcomes_.size(); ++i) {
            if (!Finished(i)) return false;
        }
        return true;
    }

    /** Pump the client (and, unless `client_only`, every server and the
     *  peer) until `done` holds; false on a 10 s wall-clock timeout. */
    bool PumpUntil(const std::function<bool()>& done, bool client_only = false)
    {
        const auto deadline = Clock::now() + std::chrono::seconds(10);
        while (!done()) {
            if (Clock::now() > deadline) return false;
            client_.PollOnce(1);
            if (client_only) continue;
            for (auto& server : servers_) server->PollOnce(0);
            if (peer_) peer_->Pump();
        }
        return true;
    }

    /** The scripted peer answered the even calls below 80 and the
     *  connection then closed: those succeed, every other call fails
     *  once with "connection failed". */
    void ExpectAnsweredOkRestFailed(std::size_t calls)
    {
        for (std::size_t i = 0; i < calls; ++i) {
            if (i < 80 && i % 2 == 0) {
                EXPECT_EQ(outcomes_[i].ok, 1) << "call " << i;
                EXPECT_EQ(outcomes_[i].source,
                          ExpectedSource("peer", kEndpoints[i % 4], i));
            } else {
                EXPECT_EQ(outcomes_[i].err, 1) << "call " << i;
                EXPECT_EQ(outcomes_[i].reason, "connection failed")
                    << "call " << i;
            }
        }
        EXPECT_EQ(client_.calls_succeeded(), 40u);
        EXPECT_EQ(client_.calls_errored(), calls - 40);
        EXPECT_EQ(client_.calls_timed_out(), 0u);
        ExpectExactlyOnceAndBalanced();
    }

    /** Calls ended exactly once each, and every rpc.* count adds up. */
    void ExpectExactlyOnceAndBalanced()
    {
        for (std::size_t i = 0; i < outcomes_.size(); ++i) {
            EXPECT_EQ(outcomes_[i].ok + outcomes_[i].err, 1) << "call " << i;
        }
        EXPECT_EQ(client_.pending_calls(), 0u);
        EXPECT_EQ(client_.calls_issued(), outcomes_.size());
        EXPECT_EQ(client_.calls_issued(),
                  client_.calls_succeeded() + client_.calls_errored() +
                      client_.calls_timed_out());
        EXPECT_EQ(client_.calls_failed(),
                  client_.calls_errored() + client_.calls_timed_out());
        EXPECT_EQ(metrics_.GetCounter("rpc.calls")->value(),
                  client_.calls_issued());
        EXPECT_EQ(metrics_.GetCounter("rpc.ok")->value(),
                  client_.calls_succeeded());
        EXPECT_EQ(metrics_.GetCounter("rpc.errors")->value(),
                  client_.calls_errored());
        EXPECT_EQ(metrics_.GetCounter("rpc.timeouts")->value(),
                  client_.calls_timed_out());
        EXPECT_EQ(metrics_.GetCounter("rpc.failed")->value(),
                  client_.calls_failed());
    }

    std::string dir_;
    telemetry::MetricsRegistry metrics_;
    SocketTransport client_;
    std::vector<std::unique_ptr<SocketTransport>> servers_;
    std::unique_ptr<ScriptedPeer> peer_;
    std::vector<Outcome> outcomes_;
};

TEST_F(SocketTransportTest, BurstOfCallsEachReplyReachesItsOwnCallbackOnce)
{
    AddServer("a", kEndpoints);
    for (const std::string& name : kEndpoints) client_.AddRoute(name, Addr("a"));

    constexpr std::size_t kCalls = 1000;
    for (std::size_t i = 0; i < kCalls; ++i) Issue(kEndpoints[i % 4]);
    EXPECT_EQ(client_.pending_calls(), kCalls);
    ASSERT_TRUE(PumpUntil([&] { return AllFinished(); }));

    for (std::size_t i = 0; i < kCalls; ++i) {
        ASSERT_EQ(outcomes_[i].ok, 1) << "call " << i << ": "
                                      << outcomes_[i].reason;
        EXPECT_EQ(outcomes_[i].source,
                  ExpectedSource("a", kEndpoints[i % 4], i));
    }
    EXPECT_EQ(client_.calls_succeeded(), kCalls);
    EXPECT_EQ(client_.calls_failed(), 0u);
    ExpectExactlyOnceAndBalanced();
}

TEST_F(SocketTransportTest, MiddleCallsTimeOutWhileLaterCallsComplete)
{
    AddServer("a", kEndpoints);
    for (const std::string& name : kEndpoints) client_.AddRoute(name, Addr("a"));

    // Three blocks in issue order: long, short, long timeouts. The
    // short block sits in the middle of the pending set.
    constexpr std::size_t kBlock = 100;
    for (std::size_t i = 0; i < 3 * kBlock; ++i) {
        const bool short_timeout = i >= kBlock && i < 2 * kBlock;
        Issue(kEndpoints[i % 4], short_timeout ? 30 : 10000);
    }

    // The server is not pumped, so nothing is answered yet: exactly
    // the middle block expires.
    ASSERT_TRUE(PumpUntil(
        [&] {
            for (std::size_t i = kBlock; i < 2 * kBlock; ++i) {
                if (!Finished(i)) return false;
            }
            return true;
        },
        /*client_only=*/true));
    for (std::size_t i = 0; i < kBlock; ++i) {
        EXPECT_FALSE(Finished(i)) << "call " << i;
        EXPECT_FALSE(Finished(2 * kBlock + i)) << "call " << 2 * kBlock + i;
    }
    EXPECT_EQ(client_.pending_calls(), 2 * kBlock);

    // Now serve everything: the late replies to the expired calls are
    // dropped, the rest complete.
    ASSERT_TRUE(PumpUntil([&] { return AllFinished(); }));
    for (std::size_t i = 0; i < 3 * kBlock; ++i) {
        if (i >= kBlock && i < 2 * kBlock) {
            EXPECT_EQ(outcomes_[i].err, 1) << "call " << i;
            EXPECT_EQ(outcomes_[i].reason, "timeout") << "call " << i;
        } else {
            EXPECT_EQ(outcomes_[i].ok, 1) << "call " << i;
            EXPECT_EQ(outcomes_[i].source,
                      ExpectedSource("a", kEndpoints[i % 4], i));
        }
    }
    // Give any straggling replies a chance to (wrongly) fire twice.
    for (int pass = 0; pass < 20; ++pass) {
        client_.PollOnce(1);
        servers_.front()->PollOnce(0);
    }
    EXPECT_EQ(client_.calls_timed_out(), kBlock);
    EXPECT_EQ(client_.calls_errored(), 0u);
    EXPECT_EQ(client_.calls_succeeded(), 2 * kBlock);
    ExpectExactlyOnceAndBalanced();
}

TEST_F(SocketTransportTest, ConnectionClosedMidFanOutFailsEachPendingCallOnce)
{
    // The peer answers every other one of the first 80 requests, so the
    // finished and pending calls interleave when the connection drops.
    peer_ = std::make_unique<ScriptedPeer>(
        dir_ + "/peer.sock", [](std::size_t i) { return i < 80 && i % 2 == 0; });
    for (const std::string& name : kEndpoints) {
        client_.AddRoute(name, Addr("peer"));
    }

    constexpr std::size_t kCalls = 100;
    for (std::size_t i = 0; i < kCalls; ++i) Issue(kEndpoints[i % 4]);
    ASSERT_TRUE(PumpUntil([&] {
        return peer_->requests() == kCalls && client_.calls_succeeded() == 40;
    }));
    EXPECT_EQ(client_.pending_calls(), kCalls - 40);

    peer_->CloseConnection();
    ASSERT_TRUE(PumpUntil([&] { return AllFinished(); }));
    ExpectAnsweredOkRestFailed(kCalls);
}

TEST_F(SocketTransportTest, RepliesWrittenJustBeforeCloseStillComplete)
{
    // The peer answers 40 of 100 requests and closes at once, so the
    // client reads those replies and the end of the stream in one pass.
    peer_ = std::make_unique<ScriptedPeer>(
        dir_ + "/peer.sock", [](std::size_t i) { return i < 80 && i % 2 == 0; });
    for (const std::string& name : kEndpoints) {
        client_.AddRoute(name, Addr("peer"));
    }

    constexpr std::size_t kCalls = 100;
    for (std::size_t i = 0; i < kCalls; ++i) Issue(kEndpoints[i % 4]);
    // The client flushes all requests in one write and the peer answers
    // in the pump that reads them, so no reply has been read yet.
    ASSERT_TRUE(PumpUntil([&] { return peer_->requests() == kCalls; }));
    peer_->CloseConnection();
    EXPECT_EQ(client_.calls_succeeded(), 0u);

    ASSERT_TRUE(PumpUntil([&] { return AllFinished(); }, /*client_only=*/true));
    ExpectAnsweredOkRestFailed(kCalls);
}

TEST_F(SocketTransportTest, RemoveRouteAndAddRouteRedirectTheNextCall)
{
    // Both servers serve the endpoint, so a stale cached route would
    // still succeed, at the wrong server.
    AddServer("a", {"agent:e0"});
    AddServer("b", {"agent:e0"});
    client_.AddRoute("agent:e0", Addr("a"));

    const std::size_t first = Issue("agent:e0");
    ASSERT_TRUE(PumpUntil([&] { return Finished(first); }));
    EXPECT_EQ(outcomes_[first].source, ExpectedSource("a", "agent:e0", first));

    client_.RemoveRoute("agent:e0");
    const std::size_t unrouted = Issue("agent:e0");
    ASSERT_TRUE(PumpUntil([&] { return Finished(unrouted); }));
    EXPECT_EQ(outcomes_[unrouted].err, 1);
    EXPECT_EQ(outcomes_[unrouted].reason, "connection failed");

    client_.AddRoute("agent:e0", Addr("b"));
    const std::size_t to_b = Issue("agent:e0");
    ASSERT_TRUE(PumpUntil([&] { return Finished(to_b); }));
    EXPECT_EQ(outcomes_[to_b].source, ExpectedSource("b", "agent:e0", to_b));

    // Re-pointing a live route (no RemoveRoute in between) also takes
    // effect on the next call.
    client_.AddRoute("agent:e0", Addr("a"));
    const std::size_t back_to_a = Issue("agent:e0");
    ASSERT_TRUE(PumpUntil([&] { return Finished(back_to_a); }));
    EXPECT_EQ(outcomes_[back_to_a].source,
              ExpectedSource("a", "agent:e0", back_to_a));

    EXPECT_EQ(client_.calls_succeeded(), 3u);
    EXPECT_EQ(client_.calls_errored(), 1u);
    ExpectExactlyOnceAndBalanced();
}

TEST_F(SocketTransportTest, DeregisteredIdReusedForAnotherNameGetsItsRoute)
{
    // Server a serves both names, so a call for the recycled id that
    // kept x's cached route would still succeed, at the wrong server.
    AddServer("a", {"agent:x", "agent:y"});
    AddServer("b", {"agent:y"});
    client_.AddRoute("agent:x", Addr("a"));

    const EndpointId x = client_.Resolve("agent:x");
    const std::size_t first = Issue(x);
    ASSERT_TRUE(PumpUntil([&] { return Finished(first); }));
    EXPECT_EQ(outcomes_[first].source, ExpectedSource("a", "agent:x", first));

    client_.Deregister(x);
    const EndpointId y = client_.Resolve("agent:y");
    ASSERT_EQ(y, x) << "the released id is reused (LIFO)";

    // agent:y has no route yet.
    const std::size_t unrouted = Issue(y);
    ASSERT_TRUE(PumpUntil([&] { return Finished(unrouted); }));
    EXPECT_EQ(outcomes_[unrouted].err, 1);
    EXPECT_EQ(outcomes_[unrouted].reason, "connection failed");

    client_.AddRoute("agent:y", Addr("b"));
    const std::size_t to_b = Issue(y);
    ASSERT_TRUE(PumpUntil([&] { return Finished(to_b); }));
    EXPECT_EQ(outcomes_[to_b].source, ExpectedSource("b", "agent:y", to_b));

    EXPECT_EQ(client_.calls_succeeded(), 2u);
    EXPECT_EQ(client_.calls_errored(), 1u);
    ExpectExactlyOnceAndBalanced();
}

TEST_F(SocketTransportTest, UnservedEndpointFailsPromptlyNotByTimeout)
{
    AddServer("a", {"agent:e0"});
    client_.AddRoute("agent:e0", Addr("a"));
    client_.AddRoute("agent:gone", Addr("a"));

    const std::size_t served = Issue("agent:e0");
    const std::size_t unserved = Issue("agent:gone", /*timeout_ms=*/10000);
    const std::size_t no_route = Issue("agent:nowhere");
    ASSERT_TRUE(PumpUntil([&] { return AllFinished(); }));

    EXPECT_EQ(outcomes_[served].ok, 1);
    EXPECT_EQ(outcomes_[unserved].reason, "connection failed");
    EXPECT_EQ(outcomes_[no_route].reason, "connection failed");
    EXPECT_EQ(client_.calls_errored(), 2u);
    EXPECT_EQ(client_.calls_timed_out(), 0u);
    ExpectExactlyOnceAndBalanced();
}

}  // namespace
}  // namespace dynamo::rpc
