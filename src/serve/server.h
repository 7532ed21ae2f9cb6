/**
 * @file
 * The speclens serve daemon: a loopback TCP server answering analysis
 * queries over the length-prefixed JSON protocol (protocol.h).
 *
 * Architecture: one blocking accept loop feeding a fixed pool of
 * ServerConfig::max_connections workers (a core::ThreadPool whose
 * metrics are `serve.pool.*`); each worker serves one connection until
 * it closes.  Every request is dispatched against a single shared
 * ServiceContext — so every query shares the immutable model registry,
 * the sharded artifact store (with its result LRU), the analysis worker
 * pool and the per-machine-set Characterizers.  Two concurrent requests
 * that need the same (benchmark, machine) cell share one simulation
 * through the Characterizer's in-flight dedup map; a warm store makes
 * a query run zero simulations.
 *
 * Bounded resources: threads are the pool's, whatever the connection
 * count.  When max_connections connections are live, the accept loop
 * answers a new one with one error Response ("server busy: ..."), sends
 * FIN and closes it.
 * Each connection gets SO_RCVTIMEO/SO_SNDTIMEO of idle_timeout_ms: a
 * timeout between frames closes it as idle, a timeout inside a frame
 * drops it.  A transient accept() failure (EMFILE, ENFILE, ENOBUFS,
 * ENOMEM, or anything unexpected) backs off from 1 ms, doubling up to
 * 100 ms, and retries; ECONNABORTED and EPROTO retry at once.  Only a
 * drain ends the loop.  Sockets set TCP_NODELAY, and writeFrame sends a
 * frame in one write, so a request waits on its work, not on TCP timers.
 *
 * Graceful drain: requestDrain() is async-signal-safe (an atomic flag
 * plus shutdown() on the listening socket — both fine in a SIGTERM
 * handler).  serveForever() then stops accepting, half-closes live
 * connections (SHUT_RD: in-flight responses still go out), waits for
 * the pool and returns.  No in-flight request is dropped.
 *
 * Observability (--metrics): per-request latency spans
 * `serve.request.<op>`, counters `serve.requests`, `serve.errors`,
 * `serve.dropped`, `serve.busy`, `serve.idle_closed` and
 * `serve.accept_retries` — on top of the core store/characterizer
 * metrics.
 */

#ifndef SPECLENS_SERVE_SERVER_H
#define SPECLENS_SERVE_SERVER_H

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <set>
#include <string>

#include "core/service_context.h"
#include "serve/protocol.h"

namespace speclens {
namespace serve {

/** Everything a Server is built from. */
struct ServerConfig
{
    /** Listen address; loopback by default (no remote exposure). */
    std::string host = "127.0.0.1";

    /** TCP port; 0 picks an ephemeral port (see Server::port()). */
    std::uint16_t port = 0;

    /** Shared analysis state (store dir, window, jobs, LRU size). */
    core::ServiceConfig service;

    /** Cap on a request frame; responses may be kMaxFrameBytes. */
    std::size_t max_frame_bytes = kMaxRequestBytes;

    /** Live connections served at once, and the pool's size (>= 1). */
    std::size_t max_connections = 32;

    /** Per-connection receive/send timeout. */
    std::uint32_t idle_timeout_ms = 60'000;
};

/** Request and connection counters (also exported as obs counters). */
struct ServerStats
{
    std::size_t requests = 0;       //!< Frames dispatched (all ops).
    std::size_t errors = 0;         //!< Malformed/rejected requests.
    std::size_t dropped = 0;        //!< Connections cut mid-request.
    std::size_t busy = 0;           //!< Connections refused at the cap.
    std::size_t idle_closed = 0;    //!< Connections closed when idle.
    std::size_t accept_retries = 0; //!< accept() failures retried.
    std::size_t live = 0;           //!< Connections open now.
};

/** The daemon (see file comment). */
class Server
{
  public:
    explicit Server(ServerConfig config);

    Server(const Server &) = delete;
    Server &operator=(const Server &) = delete;

    /** Closes the listening socket; the context dies with the server. */
    ~Server();

    /**
     * Bind + listen.  False (with @p error set) on failure; on success
     * port() returns the actual port (resolves ephemeral port 0).
     */
    bool start(std::string *error);

    /** The bound port; 0 before start(). */
    std::uint16_t port() const { return port_; }

    /**
     * Accept/serve until a drain is requested (shutdown op, or
     * requestDrain() from a signal handler), then finish in-flight
     * requests and return.
     */
    void serveForever();

    /**
     * Begin a graceful drain.  Async-signal-safe: callable from a
     * SIGTERM/SIGINT handler.
     */
    void requestDrain();

    /** True once a drain was requested. */
    bool draining() const
    {
        return draining_.load(std::memory_order_acquire);
    }

    ServerStats stats() const;

    /** The shared analysis state all requests dispatch against. */
    const std::shared_ptr<core::ServiceContext> &context() const
    {
        return context_;
    }

    /** Dispatch one request against the shared context (no socket). */
    Response dispatch(const Request &request);

  private:
    /** Register @p fd as live; false when max_connections are. */
    bool admit(int fd);

    /** Answer @p fd with the busy error and close it. */
    void refuse(int fd);

    /** Serve @p fd, then unregister and close it. */
    void handleConnection(int fd);

    /** Read, dispatch and answer frames until the connection ends. */
    void serveFrames(int fd);

    std::size_t liveConnections() const;

    ServerConfig config_;
    std::shared_ptr<core::ServiceContext> context_;

    int listen_fd_ = -1;
    std::uint16_t port_ = 0;
    std::atomic<bool> draining_{false};

    mutable std::mutex mutex_; //!< Guards live_fds_.
    std::set<int> live_fds_;   //!< Connections a worker is serving.

    std::atomic<std::size_t> requests_{0};
    std::atomic<std::size_t> errors_{0};
    std::atomic<std::size_t> dropped_{0};
    std::atomic<std::size_t> busy_{0};
    std::atomic<std::size_t> idle_closed_{0};
    std::atomic<std::size_t> accept_retries_{0};
};

} // namespace serve
} // namespace speclens

#endif // SPECLENS_SERVE_SERVER_H
