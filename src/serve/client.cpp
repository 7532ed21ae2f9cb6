/**
 * @file
 * Serve-client implementation.
 */

#include "client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

namespace speclens {
namespace serve {

Client::~Client()
{
    close();
}

bool
Client::connect(const std::string &host, std::uint16_t port,
                std::string *error)
{
    close();
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
        if (error)
            *error = "invalid server address: " + host;
        return false;
    }
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) {
        if (error)
            *error = std::string("socket: ") + std::strerror(errno);
        return false;
    }
    if (::connect(fd_, reinterpret_cast<sockaddr *>(&addr),
                  sizeof(addr)) < 0) {
        if (error)
            *error = std::string("connect: ") + std::strerror(errno);
        close();
        return false;
    }
    // Each request is one small write followed by a wait for the reply;
    // Nagle would only add delay.
    int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    return true;
}

bool
Client::call(const Request &request, Response *response,
             std::string *error)
{
    if (fd_ < 0) {
        if (error)
            *error = "not connected";
        return false;
    }
    const std::string frame = encodeRequest(request);
    if (frame.size() > kMaxFrameBytes) {
        if (error)
            *error = "request too large";
        close();
        return false;
    }
    // The daemon answers a refusal (busy, oversize request) and closes
    // without reading the whole request, which can fail the send; the
    // reply is still waiting to be read.
    const bool sent = writeFrame(fd_, frame);
    std::string payload;
    FrameStatus status = readFrame(fd_, payload);
    if (status != FrameStatus::Ok) {
        if (error)
            *error = !sent ? "send failed"
                     : status == FrameStatus::Eof
                         ? "server closed the connection"
                         : "receive failed";
        close();
        return false;
    }
    Response decoded;
    std::string decode_error;
    if (!decodeResponse(payload, decoded, decode_error)) {
        if (error)
            *error = decode_error;
        close();
        return false;
    }
    if (response)
        *response = std::move(decoded);
    return true;
}

void
Client::close()
{
    if (fd_ < 0)
        return;
    while (::close(fd_) < 0 && errno == EINTR) {
    }
    fd_ = -1;
}

} // namespace serve
} // namespace speclens
