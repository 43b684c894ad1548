#include "rpc/socket_transport.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <stdexcept>
#include <utility>

namespace dynamo::rpc {

namespace {

/** The two failure reasons shared with SimTransport (parity contract). */
constexpr const char* kConnectionFailed = "connection failed";
constexpr const char* kTimeout = "timeout";

void SetNonBlocking(int fd)
{
    const int flags = ::fcntl(fd, F_GETFL, 0);
    if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
        throw std::runtime_error(std::string("fcntl(O_NONBLOCK): ") +
                                 std::strerror(errno));
    }
}

/** Build the sockaddr for an address; returns the length used. */
socklen_t FillSockaddr(const SocketAddress& address, sockaddr_storage* out)
{
    std::memset(out, 0, sizeof *out);
    if (address.family == SocketAddress::Family::kUnix) {
        auto* sun = reinterpret_cast<sockaddr_un*>(out);
        sun->sun_family = AF_UNIX;
        if (address.path.size() >= sizeof sun->sun_path) {
            throw std::invalid_argument("unix socket path too long: " +
                                        address.path);
        }
        std::memcpy(sun->sun_path, address.path.c_str(),
                    address.path.size() + 1);
        return static_cast<socklen_t>(offsetof(sockaddr_un, sun_path) +
                                      address.path.size() + 1);
    }
    auto* sin = reinterpret_cast<sockaddr_in*>(out);
    sin->sin_family = AF_INET;
    sin->sin_port = htons(address.port);
    if (::inet_pton(AF_INET, address.host.c_str(), &sin->sin_addr) != 1) {
        throw std::invalid_argument("bad IPv4 address: " + address.host);
    }
    return sizeof(sockaddr_in);
}

int DomainOf(const SocketAddress& address)
{
    return address.family == SocketAddress::Family::kUnix ? AF_UNIX : AF_INET;
}

}  // namespace

// ---------------------------------------------------------------------------
// SocketAddress
// ---------------------------------------------------------------------------

SocketAddress
SocketAddress::Parse(const std::string& text)
{
    SocketAddress a;
    if (text.rfind("unix:", 0) == 0) {
        a.family = Family::kUnix;
        a.path = text.substr(5);
        if (a.path.empty()) {
            throw std::invalid_argument("empty unix socket path in \"" + text +
                                        "\"");
        }
        return a;
    }
    if (text.rfind("tcp:", 0) == 0) {
        a.family = Family::kTcp;
        const std::string rest = text.substr(4);
        const std::size_t colon = rest.rfind(':');
        if (colon == std::string::npos || colon == 0 ||
            colon + 1 == rest.size()) {
            throw std::invalid_argument("expected tcp:host:port, got \"" +
                                        text + "\"");
        }
        a.host = rest.substr(0, colon);
        const std::string port_text = rest.substr(colon + 1);
        std::size_t used = 0;
        unsigned long port = 0;
        try {
            port = std::stoul(port_text, &used);
        } catch (const std::exception&) {
            throw std::invalid_argument("bad port \"" + port_text + "\" in \"" +
                                        text + "\"");
        }
        if (used != port_text.size() || port > 65535) {
            throw std::invalid_argument("bad port \"" + port_text + "\" in \"" +
                                        text + "\"");
        }
        a.port = static_cast<std::uint16_t>(port);
        return a;
    }
    throw std::invalid_argument(
        "address must start with unix: or tcp:, got \"" + text + "\"");
}

std::string
SocketAddress::ToString() const
{
    if (family == Family::kUnix) return "unix:" + path;
    return "tcp:" + host + ":" + std::to_string(port);
}

// ---------------------------------------------------------------------------
// SocketTransport
// ---------------------------------------------------------------------------

SocketTransport::SocketTransport() : SocketTransport(Options{}) {}

SocketTransport::SocketTransport(Options options) : options_(options) {}

SocketTransport::~SocketTransport()
{
    if (listen_fd_ >= 0) ::close(listen_fd_);
    for (Connection& conn : connections_) {
        if (conn.fd >= 0) ::close(conn.fd);
    }
}

void
SocketTransport::Listen(const SocketAddress& address)
{
    if (listen_fd_ >= 0) {
        throw std::logic_error("SocketTransport::Listen: already listening on " +
                               listen_address_.ToString());
    }
    const int fd = ::socket(DomainOf(address), SOCK_STREAM, 0);
    if (fd < 0) {
        throw std::runtime_error(std::string("socket(): ") +
                                 std::strerror(errno));
    }
    const int one = 1;
    if (address.family == SocketAddress::Family::kTcp) {
        ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
    } else {
        // A crashed predecessor leaves its socket file behind; a
        // restarted daemon must be able to rebind the same path.
        ::unlink(address.path.c_str());
    }
    sockaddr_storage ss;
    const socklen_t len = FillSockaddr(address, &ss);
    if (::bind(fd, reinterpret_cast<sockaddr*>(&ss), len) < 0) {
        const int err = errno;
        ::close(fd);
        throw std::runtime_error("bind(" + address.ToString() +
                                 "): " + std::strerror(err));
    }
    if (::listen(fd, 64) < 0) {
        const int err = errno;
        ::close(fd);
        throw std::runtime_error("listen(" + address.ToString() +
                                 "): " + std::strerror(err));
    }
    SetNonBlocking(fd);
    listen_fd_ = fd;
    listen_address_ = address;
    if (address.family == SocketAddress::Family::kTcp && address.port == 0) {
        sockaddr_in bound;
        socklen_t bound_len = sizeof bound;
        if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound),
                          &bound_len) == 0) {
            listen_address_.port = ntohs(bound.sin_port);
        }
    }
}

void
SocketTransport::AddRoute(const std::string& endpoint,
                          const SocketAddress& address)
{
    routes_[endpoint] = address;
    InvalidateRoute(endpoint);
}

void
SocketTransport::RemoveRoute(const std::string& endpoint)
{
    InvalidateRoute(endpoint);
    routes_.erase(endpoint);
}

void
SocketTransport::Deregister(EndpointId id)
{
    if (id < route_cache_.size()) route_cache_[id] = CachedRoute{};
    Transport::Deregister(id);
}

void
SocketTransport::InvalidateRoute(const std::string& endpoint)
{
    const EndpointId id = endpoints_.Find(endpoint);
    if (id != kInvalidEndpoint && id < route_cache_.size()) {
        route_cache_[id] = CachedRoute{};
    }
}

const SocketAddress*
SocketTransport::RouteFor(EndpointId id)
{
    if (id >= route_cache_.size()) route_cache_.resize(endpoints_.size());
    CachedRoute& cached = route_cache_[id];
    if (!cached.resolved) {
        const auto it = routes_.find(endpoints_.Name(id));
        cached.address = it == routes_.end() ? nullptr : &it->second;
        cached.resolved = true;
    }
    return cached.address;
}

SocketTransport::Connection*
SocketTransport::ConnectionFor(const SocketAddress& address)
{
    for (Connection& conn : connections_) {
        if (conn.fd >= 0 && !conn.inbound && conn.peer == address) {
            return &conn;
        }
    }
    const int fd = ::socket(DomainOf(address), SOCK_STREAM, 0);
    if (fd < 0) return nullptr;
    SetNonBlocking(fd);
    if (address.family == SocketAddress::Family::kTcp) {
        const int one = 1;
        ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    }
    sockaddr_storage ss;
    socklen_t len = 0;
    try {
        len = FillSockaddr(address, &ss);
    } catch (const std::invalid_argument&) {
        ::close(fd);
        return nullptr;
    }
    Connection conn;
    conn.fd = fd;
    conn.serial = next_conn_serial_++;
    conn.peer = address;
    const int rc = ::connect(fd, reinterpret_cast<sockaddr*>(&ss), len);
    if (rc < 0 && errno != EINPROGRESS) {
        // Prompt refusal (common for unix sockets with no listener):
        // keep the connection object so the caller's pending entry has
        // somewhere to live; the next poll pass fails it cleanly.
        conn.connecting = true;
        conn.connect_deadline = Clock::now();
    } else if (rc < 0) {
        conn.connecting = true;
        conn.connect_deadline =
            Clock::now() + options_.connect_timeout;
    }
    connections_.push_back(std::move(conn));
    return &connections_.back();
}

void
SocketTransport::QueueFrame(Connection& conn, const wire::FrameHeader& header,
                            std::string_view target, std::string_view payload)
{
    wire::AppendFrame(conn.write_buffer, header, target, payload);
}

void
SocketTransport::Call(EndpointId id, Payload request, ResponseCallback on_ok,
                      ErrorCallback on_err, SimTime timeout_ms)
{
    CountIssued();

    // Loopback: locally registered endpoints are served in-process,
    // exactly as SimTransport serves co-simulated components.
    if (IsRegistered(id)) {
        local_calls_.push_back(LocalCall{id, std::move(request),
                                         std::move(on_ok), std::move(on_err)});
        return;
    }

    const SocketAddress* route = RouteFor(id);
    Connection* conn = route == nullptr ? nullptr : ConnectionFor(*route);
    if (conn == nullptr) {
        // No route / no socket: prompt failure at the next poll pass
        // (never re-entrant from Call).
        local_calls_.push_back(LocalCall{kInvalidEndpoint, Payload{},
                                         std::move(on_ok), std::move(on_err)});
        return;
    }

    const std::uint64_t call_id = pending_base_ + pending_.size();
    QueueFrame(*conn,
               wire::FrameHeader{wire::FrameKind::kRequest,
                                 wire::TypeOf(request), options_.epoch,
                                 call_id},
               endpoints_.Name(id), wire::EncodeBody(request));
    pending_.push_back(
        PendingCall{conn->serial, std::move(on_ok), std::move(on_err)});
    ++pending_live_;
    deadlines_.push(Deadline{
        Clock::now() + std::chrono::milliseconds(timeout_ms), call_id});
}

std::size_t
SocketTransport::pending_calls() const
{
    return local_calls_.size() + pending_live_;
}

SocketTransport::PendingCall*
SocketTransport::FindPending(std::uint64_t call_id)
{
    if (call_id < pending_base_ || call_id - pending_base_ >= pending_.size()) {
        return nullptr;
    }
    PendingCall& slot = pending_[call_id - pending_base_];
    return slot.conn == 0 ? nullptr : &slot;
}

SocketTransport::Completion
SocketTransport::TakePending(PendingCall& slot)
{
    Completion completion;
    completion.on_ok = std::move(slot.on_ok);
    completion.on_err = std::move(slot.on_err);
    slot = PendingCall{};
    --pending_live_;
    return completion;
}

void
SocketTransport::TrimPending()
{
    while (!pending_.empty() && pending_.front().conn == 0) {
        pending_.pop_front();
        ++pending_base_;
    }
}

void
SocketTransport::ServeRequest(Connection& conn, const wire::Frame& frame)
{
    wire::FrameHeader error{wire::FrameKind::kError, wire::MessageType::kNone,
                            options_.epoch, frame.call_id};

    const EndpointId id = endpoints_.Find(frame.target);
    const RequestHandler* handler =
        id == kInvalidEndpoint ? nullptr : HandlerFor(id);
    if (handler == nullptr) {
        if (frame.call_id == 0) return;  // A peer's frame asking no reply.
        // Same reason an unregistered SimTransport endpoint produces.
        QueueFrame(conn, error, kConnectionFailed, {});
        return;
    }

    Payload request;
    try {
        request = wire::DecodeBody(frame.type, frame.payload);
    } catch (const wire::WireError& e) {
        if (frame.call_id == 0) return;
        QueueFrame(conn, error, e.what(), {});
        return;
    }

    Payload response = (*handler)(request);
    if (frame.call_id == 0) return;
    wire::FrameHeader reply{wire::FrameKind::kResponse,
                            wire::MessageType::kNone, options_.epoch,
                            frame.call_id};
    std::string payload;
    try {
        reply.type = wire::TypeOf(response);
        payload = wire::EncodeBody(response);
    } catch (const wire::WireError& e) {
        QueueFrame(conn, error, e.what(), {});
        return;
    }
    QueueFrame(conn, reply, {}, payload);
}

void
SocketTransport::HandleReply(Connection& conn, const wire::Frame& frame,
                             std::vector<Completion>& done)
{
    PendingCall* slot = FindPending(frame.call_id);
    // Raced its own timeout, or not a call sent on this connection: drop.
    if (slot == nullptr || slot->conn != conn.serial) return;

    Completion completion = TakePending(*slot);

    if (frame.kind == wire::FrameKind::kError) {
        completion.ok = false;
        completion.reason = frame.target.empty() ? kConnectionFailed
                                                 : frame.target;
        completion.timed_out = false;
        done.push_back(std::move(completion));
        return;
    }
    try {
        completion.response = wire::DecodeBody(frame.type, frame.payload);
        completion.ok = true;
    } catch (const wire::WireError&) {
        completion.ok = false;
        completion.reason = kConnectionFailed;
        completion.timed_out = false;
    }
    done.push_back(std::move(completion));
}

bool
SocketTransport::ReadAndDispatch(Connection& conn,
                                 std::vector<Completion>& done,
                                 std::size_t& served)
{
    char buffer[65536];
    // A peer may answer and close at once: the frames read before the
    // close are dispatched first, and only then is the close reported.
    bool open = true;
    for (;;) {
        const ssize_t n = ::read(conn.fd, buffer, sizeof buffer);
        if (n > 0) {
            try {
                conn.reader.Feed(std::string_view(buffer,
                                                  static_cast<std::size_t>(n)));
            } catch (const wire::WireError&) {
                return false;  // poisoned stream: drop the connection
            }
            continue;
        }
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
        if (n < 0 && errno == EINTR) continue;
        open = false;  // peer closed, reset or other hard error
        break;
    }
    while (conn.reader.HasFrame()) {
        wire::Frame frame;
        try {
            frame = conn.reader.Next();
        } catch (const wire::WireError&) {
            return false;
        }
        if (frame.kind == wire::FrameKind::kRequest) {
            ServeRequest(conn, frame);
            ++served;
        } else {
            HandleReply(conn, frame, done);
        }
    }
    return open;
}

void
SocketTransport::FailConnection(std::size_t index,
                                std::vector<Completion>& done)
{
    Connection& conn = connections_[index];
    if (conn.fd >= 0) ::close(conn.fd);
    conn.fd = -1;
    // A rare event, so a scan of the table beats per-connection
    // bookkeeping on every call; calls fail in issue order.
    for (PendingCall& slot : pending_) {
        if (slot.conn != conn.serial) continue;
        Completion completion = TakePending(slot);
        completion.reason = kConnectionFailed;
        done.push_back(std::move(completion));
    }
}

std::size_t
SocketTransport::FireCompletions(std::vector<Completion>& done)
{
    for (Completion& completion : done) {
        if (completion.ok) {
            CountOk();
            if (completion.on_ok) completion.on_ok(completion.response);
        } else {
            if (completion.timed_out) {
                CountTimeout();
            } else {
                CountError();
            }
            if (completion.on_err) completion.on_err(completion.reason);
        }
    }
    const std::size_t n = done.size();
    done.clear();
    return n;
}

std::size_t
SocketTransport::PollOnce(int budget_ms)
{
    std::vector<Completion> done;

    // 1. Loopback calls queued since the last pass.
    std::size_t dispatched = 0;
    while (!local_calls_.empty()) {
        LocalCall call = std::move(local_calls_.front());
        local_calls_.pop_front();
        ++dispatched;
        if (call.target == kInvalidEndpoint) {
            // Unroutable Call captured for prompt failure.
            Completion completion;
            completion.ok = false;
            completion.reason = kConnectionFailed;
            completion.on_ok = std::move(call.on_ok);
            completion.on_err = std::move(call.on_err);
            done.push_back(std::move(completion));
            continue;
        }
        const RequestHandler* handler = HandlerFor(call.target);
        if (handler == nullptr) {
            Completion completion;
            completion.ok = false;
            completion.reason = kConnectionFailed;
            completion.on_ok = std::move(call.on_ok);
            completion.on_err = std::move(call.on_err);
            done.push_back(std::move(completion));
            continue;
        }
        Payload response = (*handler)(call.request);
        Completion completion;
        completion.ok = true;
        completion.response = std::move(response);
        completion.on_ok = std::move(call.on_ok);
        completion.on_err = std::move(call.on_err);
        done.push_back(std::move(completion));
    }

    // 2. Build the poll set.
    std::vector<pollfd> fds;
    std::vector<std::size_t> conn_of_fd;  // parallel: index into connections_
    if (listen_fd_ >= 0) {
        fds.push_back(pollfd{listen_fd_, POLLIN, 0});
        conn_of_fd.push_back(static_cast<std::size_t>(-1));
    }
    for (std::size_t i = 0; i < connections_.size(); ++i) {
        Connection& conn = connections_[i];
        if (conn.fd < 0) continue;
        short events = POLLIN;
        if (conn.connecting || !conn.write_buffer.empty()) events |= POLLOUT;
        fds.push_back(pollfd{conn.fd, events, 0});
        conn_of_fd.push_back(i);
    }

    // 3. Don't sleep past the earliest deadline (or at all, if
    // completions are already captured).
    int timeout_ms = done.empty() ? budget_ms : 0;
    const auto now = Clock::now();
    auto consider = [&](Clock::time_point deadline) {
        const auto delta =
            std::chrono::duration_cast<std::chrono::milliseconds>(deadline -
                                                                  now)
                .count();
        const int clamped = delta <= 0 ? 0 : static_cast<int>(
                                                 std::min<long long>(
                                                     delta, budget_ms));
        timeout_ms = std::min(timeout_ms, clamped);
    };
    for (const Connection& conn : connections_) {
        if (conn.fd >= 0 && conn.connecting) consider(conn.connect_deadline);
    }
    while (!deadlines_.empty() &&
           FindPending(deadlines_.top().call_id) == nullptr) {
        deadlines_.pop();
    }
    if (!deadlines_.empty()) consider(deadlines_.top().at);

    const int rc = ::poll(fds.data(), fds.size(),
                          fds.empty() ? std::min(timeout_ms, budget_ms)
                                      : timeout_ms);
    if (rc < 0 && errno != EINTR) {
        throw std::runtime_error(std::string("poll(): ") +
                                 std::strerror(errno));
    }

    // 4. Accept new inbound connections.
    if (listen_fd_ >= 0 && !fds.empty() && (fds[0].revents & POLLIN) != 0) {
        for (;;) {
            const int fd = ::accept(listen_fd_, nullptr, nullptr);
            if (fd < 0) break;
            SetNonBlocking(fd);
            Connection conn;
            conn.fd = fd;
            conn.serial = next_conn_serial_++;
            conn.inbound = true;
            connections_.push_back(std::move(conn));
        }
    }

    // 5. Service every ready connection. connections_ may have grown
    // via accept (those fds are not in this poll set yet — next pass).
    for (std::size_t pi = 0; pi < fds.size(); ++pi) {
        const std::size_t ci = conn_of_fd[pi];
        if (ci == static_cast<std::size_t>(-1)) continue;
        Connection& conn = connections_[ci];
        if (conn.fd < 0) continue;

        if (conn.connecting && (fds[pi].revents & (POLLOUT | POLLERR | POLLHUP))
                                   != 0) {
            int err = 0;
            socklen_t err_len = sizeof err;
            ::getsockopt(conn.fd, SOL_SOCKET, SO_ERROR, &err, &err_len);
            if (err != 0) {
                FailConnection(ci, done);
                continue;
            }
            conn.connecting = false;
        }

        if ((fds[pi].revents & (POLLERR | POLLHUP)) != 0 &&
            (fds[pi].revents & POLLIN) == 0) {
            FailConnection(ci, done);
            continue;
        }

        if ((fds[pi].revents & POLLIN) != 0) {
            if (!ReadAndDispatch(conn, done, dispatched)) {
                FailConnection(ci, done);
                continue;
            }
        }

        if (!conn.connecting && !conn.write_buffer.empty() &&
            (fds[pi].revents & POLLOUT) != 0) {
            // MSG_NOSIGNAL: a peer that vanished is an EPIPE to fail
            // the connection on, not a SIGPIPE that kills the process.
            const ssize_t n = ::send(conn.fd, conn.write_buffer.data(),
                                     conn.write_buffer.size(), MSG_NOSIGNAL);
            if (n > 0) {
                conn.write_buffer.erase(0, static_cast<std::size_t>(n));
            } else if (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK &&
                       errno != EINTR) {
                FailConnection(ci, done);
                continue;
            }
        }
    }

    // 6. Expire deadlines (connects and calls).
    // A connect that timed out fails its calls as "connection failed"
    // before any of them can expire as "timeout".
    const auto after = Clock::now();
    for (std::size_t i = 0; i < connections_.size(); ++i) {
        const Connection& conn = connections_[i];
        if (conn.fd >= 0 && conn.connecting && after >= conn.connect_deadline) {
            FailConnection(i, done);
        }
    }
    while (!deadlines_.empty() && deadlines_.top().at <= after) {
        PendingCall* slot = FindPending(deadlines_.top().call_id);
        deadlines_.pop();
        if (slot == nullptr) continue;  // finished before its deadline
        Completion completion = TakePending(*slot);
        completion.reason = kTimeout;
        completion.timed_out = true;
        done.push_back(std::move(completion));
    }
    TrimPending();

    // 7. Sweep closed connections (safe now: no iteration in flight;
    // FailConnection already ended their calls).
    connections_.erase(
        std::remove_if(connections_.begin(), connections_.end(),
                       [](const Connection& conn) { return conn.fd < 0; }),
        connections_.end());

    // 8. Fire captured completions last, so callbacks (which may issue
    // new Calls) see a consistent transport.
    return dispatched + FireCompletions(done);
}

}  // namespace dynamo::rpc
