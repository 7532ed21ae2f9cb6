/**
 * @file
 * Serve-daemon implementation.
 */

#include "server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <exception>
#include <thread>
#include <utility>

#include "core/parallel.h"
#include "core/query_ops.h"
#include "obs/metrics.h"

namespace speclens {
namespace serve {

namespace {

/** Close @p fd, retrying on EINTR. */
void
closeFd(int fd)
{
    while (::close(fd) < 0 && errno == EINTR) {
    }
}

/** Bump @p counter and the obs counter of the same meaning. */
void
count(std::atomic<std::size_t> &counter, const char *metric)
{
    counter.fetch_add(1, std::memory_order_relaxed);
    obs::Registry::global().counter(metric).add(1);
}

/** TCP_NODELAY, and SO_RCVTIMEO/SO_SNDTIMEO of @p timeout_ms. */
void
configureConnection(int fd, std::uint32_t timeout_ms)
{
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    timeval timeout{};
    timeout.tv_sec = static_cast<time_t>(timeout_ms / 1000);
    timeout.tv_usec = static_cast<suseconds_t>(timeout_ms % 1000) * 1000;
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
    ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &timeout, sizeof(timeout));
}

/**
 * End a refused connection's writes after its one reply: send FIN, then
 * discard what the peer has already sent.  Closing with unread data
 * makes the kernel answer RST, which can cut the reply off; a request
 * that arrives after the close still draws an RST, and the reply then
 * reaches the client only because it was delivered first.
 */
void
finishRefusal(int fd)
{
    ::shutdown(fd, SHUT_WR);
    char discard[4096];
    while (::recv(fd, discard, sizeof(discard), MSG_DONTWAIT) > 0) {
    }
}

} // namespace

Server::Server(ServerConfig config)
    : config_(std::move(config)),
      context_(std::make_shared<core::ServiceContext>(config_.service))
{
    config_.max_connections =
        std::max<std::size_t>(config_.max_connections, 1);
}

Server::~Server()
{
    if (listen_fd_ >= 0)
        closeFd(listen_fd_);
}

bool
Server::start(std::string *error)
{
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(config_.port);
    if (::inet_pton(AF_INET, config_.host.c_str(), &addr.sin_addr) !=
        1) {
        if (error)
            *error = "invalid listen address: " + config_.host;
        return false;
    }

    listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (listen_fd_ < 0) {
        if (error)
            *error = std::string("socket: ") + std::strerror(errno);
        return false;
    }
    int one = 1;
    ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one,
                 sizeof(one));
    if (::bind(listen_fd_, reinterpret_cast<sockaddr *>(&addr),
               sizeof(addr)) < 0) {
        if (error)
            *error = std::string("bind: ") + std::strerror(errno);
        closeFd(listen_fd_);
        listen_fd_ = -1;
        return false;
    }
    if (::listen(listen_fd_, 64) < 0) {
        if (error)
            *error = std::string("listen: ") + std::strerror(errno);
        closeFd(listen_fd_);
        listen_fd_ = -1;
        return false;
    }

    sockaddr_in bound{};
    socklen_t bound_len = sizeof(bound);
    if (::getsockname(listen_fd_,
                      reinterpret_cast<sockaddr *>(&bound),
                      &bound_len) == 0)
        port_ = ntohs(bound.sin_port);
    else
        port_ = config_.port;
    return true;
}

void
Server::requestDrain()
{
    // Only async-signal-safe operations here: this runs in SIGTERM /
    // SIGINT handlers.  shutdown() on the listening socket makes the
    // blocked accept() in serveForever() fail immediately (EINVAL on
    // Linux), which is the wake-up.
    draining_.store(true, std::memory_order_release);
    if (listen_fd_ >= 0)
        ::shutdown(listen_fd_, SHUT_RDWR);
}

void
Server::serveForever()
{
    core::ThreadPool pool(config_.max_connections, "serve.pool");
    constexpr std::chrono::milliseconds kMaxBackoff{100};
    std::chrono::milliseconds backoff{0};
    while (!draining()) {
        int fd = ::accept(listen_fd_, nullptr, nullptr);
        if (fd < 0) {
            // EINVAL/EBADF after requestDrain() shut the socket down.
            if (draining())
                break;
            if (errno == EINTR || errno == ECONNABORTED || errno == EPROTO)
                continue;
            // Out of fds or memory (EMFILE, ENFILE, ENOBUFS, ENOMEM), or
            // an error accept(2) leaves unlisted: wait and retry.
            count(accept_retries_, "serve.accept_retries");
            backoff = backoff.count() == 0
                          ? std::chrono::milliseconds{1}
                          : std::min(backoff * 2, kMaxBackoff);
            std::this_thread::sleep_for(backoff);
            continue;
        }
        backoff = std::chrono::milliseconds{0};
        if (!admit(fd)) {
            refuse(fd);
            continue;
        }
        pool.submit([this, fd]() { handleConnection(fd); });
    }

    // Drain: half-close every live connection so idle workers see EOF;
    // in-flight requests still write their response (the write side
    // stays open).  Then wait for the pool.
    {
        std::lock_guard<std::mutex> lock(mutex_);
        for (int fd : live_fds_)
            ::shutdown(fd, SHUT_RD);
    }
    pool.wait();
}

bool
Server::admit(int fd)
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (live_fds_.size() >= config_.max_connections)
            return false;
        live_fds_.insert(fd);
    }
    configureConnection(fd, config_.idle_timeout_ms);
    return true;
}

void
Server::refuse(int fd)
{
    count(busy_, "serve.busy");
    Response response;
    response.error = "server busy: " +
                     std::to_string(config_.max_connections) +
                     " connections open, retry later";
    writeFrame(fd, encodeResponse(response));
    finishRefusal(fd);
    closeFd(fd);
}

std::size_t
Server::liveConnections() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return live_fds_.size();
}

Response
Server::dispatch(const Request &request)
{
    obs::Span span(obs::Registry::global().timing(
        "serve.request." + opName(request.op)));
    obs::Registry::global().counter("serve.requests").add(1);
    requests_.fetch_add(1, std::memory_order_relaxed);

    Response response;
    core::QueryOutcome outcome;
    switch (request.op) {
    case Op::Characterize:
        outcome = core::runCharacterizeQuery(*context_,
                                             request.benchmarks);
        break;
    case Op::Memory:
        outcome = core::runMemoryQuery(*context_, request.benchmarks);
        break;
    case Op::Subset:
        outcome = core::runSubsetQuery(*context_, request.category,
                                       request.k);
        break;
    case Op::Sensitivity:
        outcome = core::runSensitivityQuery(*context_, request.metric);
        break;
    case Op::Stats: {
        core::ServiceContext &context = *context_;
        outcome.output =
            "requests=" +
            std::to_string(requests_.load(std::memory_order_relaxed)) +
            " errors=" +
            std::to_string(errors_.load(std::memory_order_relaxed)) +
            " dropped=" +
            std::to_string(dropped_.load(std::memory_order_relaxed)) +
            "\n" + context.summary() + "\nsimulations=" +
            std::to_string(context.simulationsRun()) +
            "\nconnections: live=" + std::to_string(liveConnections()) +
            " busy=" +
            std::to_string(busy_.load(std::memory_order_relaxed)) +
            " idle_closed=" +
            std::to_string(idle_closed_.load(std::memory_order_relaxed)) +
            "\n";
        if (core::CampaignStore *store = context.store()) {
            core::StoreCounters c = store->counters();
            outcome.output +=
                "lru: size=" + std::to_string(store->lruSize()) +
                " capacity=" + std::to_string(store->lruCapacity()) +
                " hits=" + std::to_string(c.lru_hits) +
                " evictions=" + std::to_string(c.lru_evictions) + "\n";
        }
        break;
    }
    case Op::Shutdown:
        outcome.output = "draining\n";
        break;
    }

    response.ok = outcome.ok;
    response.output = std::move(outcome.output);
    response.error = std::move(outcome.error);
    if (!response.ok)
        count(errors_, "serve.errors");
    return response;
}

void
Server::serveFrames(int fd)
{
    std::string payload;
    while (true) {
        FrameStatus status =
            readFrame(fd, payload, config_.max_frame_bytes);
        if (status == FrameStatus::Eof)
            break;
        if (status == FrameStatus::Timeout) {
            count(idle_closed_, "serve.idle_closed");
            break;
        }
        if (status == FrameStatus::Error) {
            count(dropped_, "serve.dropped");
            break;
        }
        Response response;
        if (status == FrameStatus::TooLarge) {
            response.error = "request frame too large";
            count(errors_, "serve.errors");
            writeFrame(fd, encodeResponse(response));
            finishRefusal(fd);
            break; // framing is lost after an unread oversize payload
        }
        Request request;
        std::string decode_error;
        if (!decodeRequest(payload, request, decode_error)) {
            response.error = decode_error;
            count(errors_, "serve.errors");
            if (!writeFrame(fd, encodeResponse(response)))
                break;
            continue;
        }
        response = dispatch(request);
        bool sent = writeFrame(fd, encodeResponse(response));
        if (request.op == Op::Shutdown) {
            requestDrain();
            break;
        }
        if (!sent) {
            count(dropped_, "serve.dropped");
            break;
        }
    }
}

void
Server::handleConnection(int fd)
{
    // A request that throws (out of memory, say) loses its connection,
    // not the worker or the fd.
    try {
        serveFrames(fd);
    } catch (const std::exception &) {
        count(dropped_, "serve.dropped");
    }
    {
        std::lock_guard<std::mutex> lock(mutex_);
        live_fds_.erase(fd);
    }
    closeFd(fd);
}

ServerStats
Server::stats() const
{
    ServerStats stats;
    stats.requests = requests_.load(std::memory_order_relaxed);
    stats.errors = errors_.load(std::memory_order_relaxed);
    stats.dropped = dropped_.load(std::memory_order_relaxed);
    stats.busy = busy_.load(std::memory_order_relaxed);
    stats.idle_closed = idle_closed_.load(std::memory_order_relaxed);
    stats.accept_retries = accept_retries_.load(std::memory_order_relaxed);
    stats.live = liveConnections();
    return stats;
}

} // namespace serve
} // namespace speclens
