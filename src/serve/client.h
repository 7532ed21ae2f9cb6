/**
 * @file
 * Blocking client for the speclens serve protocol.
 *
 * Used by `speclens query`, the serve load-test harness and the
 * end-to-end tests.  One Client is one connection; call() frames the
 * request, sends it and blocks for the response frame.  Not
 * thread-safe — use one Client per thread.
 */

#ifndef SPECLENS_SERVE_CLIENT_H
#define SPECLENS_SERVE_CLIENT_H

#include <cstdint>
#include <string>

#include "serve/protocol.h"

namespace speclens {
namespace serve {

/** One connection to a serve daemon (see file comment). */
class Client
{
  public:
    Client() = default;

    Client(const Client &) = delete;
    Client &operator=(const Client &) = delete;

    ~Client();

    /**
     * Connect to @p host:@p port.  False (with @p error set) on
     * failure.  @p host must be a numeric IPv4 address.
     */
    bool connect(const std::string &host, std::uint16_t port,
                 std::string *error);

    /** True between a successful connect() and close()/failure. */
    bool connected() const { return fd_ >= 0; }

    /**
     * Send @p request and block for the response.  False (with
     * @p error set) on transport failure — the connection is closed
     * and must be re-established.  A rejected query is NOT a
     * transport failure: call() returns true with response.ok false.
     * That includes the daemon's refusals (busy, request too large),
     * which arrive even when sending the request failed.
     */
    bool call(const Request &request, Response *response,
              std::string *error);

    void close();

  private:
    int fd_ = -1;
};

} // namespace serve
} // namespace speclens

#endif // SPECLENS_SERVE_CLIENT_H
