/**
 * @file
 * Wire-protocol implementation: JSON codec and frame I/O.
 */

#include "protocol.h"

#include <sys/socket.h>
#include <sys/types.h>
#include <sys/uio.h>

#include <cerrno>

#include "obs/json.h"

namespace speclens {
namespace serve {

namespace {

// ----- Socket helpers --------------------------------------------------

/**
 * recv() exactly @p count bytes.  Eof and Timeout only when nothing
 * arrived; a close or timeout after the first byte is an Error.
 */
FrameStatus
recvAll(int fd, void *buffer, std::size_t count)
{
    char *out = static_cast<char *>(buffer);
    std::size_t done = 0;
    while (done < count) {
        ssize_t n = ::recv(fd, out + done, count - done, 0);
        if (n == 0)
            return done == 0 ? FrameStatus::Eof : FrameStatus::Error;
        if (n < 0) {
            if (errno == EINTR)
                continue;
            if (done == 0 && (errno == EAGAIN || errno == EWOULDBLOCK))
                return FrameStatus::Timeout;
            return FrameStatus::Error;
        }
        done += static_cast<std::size_t>(n);
    }
    return FrameStatus::Ok;
}

} // namespace

std::string
opName(Op op)
{
    switch (op) {
    case Op::Characterize: return "characterize";
    case Op::Memory: return "memory";
    case Op::Subset: return "subset";
    case Op::Sensitivity: return "sensitivity";
    case Op::Stats: return "stats";
    case Op::Shutdown: return "shutdown";
    }
    return "stats";
}

bool
opFromName(const std::string &name, Op &op)
{
    if (name == "characterize")
        op = Op::Characterize;
    else if (name == "memory")
        op = Op::Memory;
    else if (name == "subset")
        op = Op::Subset;
    else if (name == "sensitivity")
        op = Op::Sensitivity;
    else if (name == "stats")
        op = Op::Stats;
    else if (name == "shutdown")
        op = Op::Shutdown;
    else
        return false;
    return true;
}

std::string
encodeRequest(const Request &request)
{
    std::string out = "{\"op\": " + jsonQuote(opName(request.op));
    if (!request.benchmarks.empty()) {
        out += ", \"benchmarks\": [";
        const char *sep = "";
        for (const std::string &name : request.benchmarks) {
            out += sep;
            out += jsonQuote(name);
            sep = ", ";
        }
        out += "]";
    }
    if (!request.category.empty())
        out += ", \"category\": " + jsonQuote(request.category);
    if (request.op == Op::Subset)
        out += ", \"k\": " + std::to_string(request.k);
    if (!request.metric.empty())
        out += ", \"metric\": " + jsonQuote(request.metric);
    out += "}";
    return out;
}

std::string
encodeResponse(const Response &response)
{
    return std::string("{\"ok\": ") +
           (response.ok ? "true" : "false") +
           ", \"output\": " + jsonQuote(response.output) +
           ", \"error\": " + jsonQuote(response.error) + "}";
}

bool
decodeRequest(const std::string &payload, Request &request,
              std::string &error)
{
    request = Request();
    obs::JsonValue doc;
    if (!obs::parseJson(payload, doc) || !doc.isObject()) {
        error = "malformed request frame";
        return false;
    }
    std::string op;
    if (!doc["op"].getString(op) || !opFromName(op, request.op)) {
        error = "unknown op";
        return false;
    }
    if (const obs::JsonValue *benchmarks = doc.find("benchmarks")) {
        bool strings = benchmarks->isArray();
        for (const obs::JsonValue &item : benchmarks->items())
            strings = strings &&
                      item.getString(request.benchmarks.emplace_back());
        if (!strings) {
            error = "benchmarks must be an array of strings";
            return false;
        }
    }
    if (const obs::JsonValue *category = doc.find("category");
        category && !category->getString(request.category)) {
        error = "category must be a string";
        return false;
    }
    // encodeRequest writes k for subset only, so only subset may carry
    // it: a decoded request always re-encodes to the same request.
    if (const obs::JsonValue *k = doc.find("k")) {
        std::uint64_t value = 0;
        if (request.op != Op::Subset || !k->getU64(value)) {
            error = "k must be an unsigned integer on a subset request";
            return false;
        }
        request.k = static_cast<std::size_t>(value);
    }
    if (const obs::JsonValue *metric = doc.find("metric");
        metric && !metric->getString(request.metric)) {
        error = "metric must be a string";
        return false;
    }
    return true;
}

bool
decodeResponse(const std::string &payload, Response &response,
               std::string &error)
{
    response = Response();
    obs::JsonValue doc;
    if (!obs::parseJson(payload, doc) || !doc.isObject()) {
        error = "malformed response frame";
        return false;
    }
    if (!doc["ok"].getBool(response.ok)) {
        error = "response missing ok";
        return false;
    }
    const obs::JsonValue *output = doc.find("output");
    const obs::JsonValue *err = doc.find("error");
    if ((output && !output->getString(response.output)) ||
        (err && !err->getString(response.error))) {
        error = "response output and error must be strings";
        return false;
    }
    return true;
}

FrameStatus
readFrame(int fd, std::string &payload, std::size_t max_bytes)
{
    unsigned char header[4];
    FrameStatus status = recvAll(fd, header, sizeof(header));
    if (status != FrameStatus::Ok)
        return status;
    std::uint32_t length = (static_cast<std::uint32_t>(header[0]) << 24) |
                           (static_cast<std::uint32_t>(header[1]) << 16) |
                           (static_cast<std::uint32_t>(header[2]) << 8) |
                           static_cast<std::uint32_t>(header[3]);
    if (length > max_bytes)
        return FrameStatus::TooLarge;
    payload.resize(length);
    if (length == 0)
        return FrameStatus::Ok;
    status = recvAll(fd, payload.data(), length);
    return status == FrameStatus::Ok ? FrameStatus::Ok
                                     : FrameStatus::Error;
}

bool
writeFrame(int fd, const std::string &payload)
{
    if (payload.size() > kMaxFrameBytes)
        return false;
    std::uint32_t length = static_cast<std::uint32_t>(payload.size());
    unsigned char header[4] = {
        static_cast<unsigned char>((length >> 24) & 0xff),
        static_cast<unsigned char>((length >> 16) & 0xff),
        static_cast<unsigned char>((length >> 8) & 0xff),
        static_cast<unsigned char>(length & 0xff),
    };
    iovec parts[2] = {
        {header, sizeof(header)},
        {const_cast<char *>(payload.data()), payload.size()},
    };
    msghdr message{};
    message.msg_iov = parts;
    message.msg_iovlen = 2;
    // writev() cannot take MSG_NOSIGNAL; a peer that went away must
    // fail the write, not raise SIGPIPE in the daemon.
    while (message.msg_iovlen > 0) {
        ssize_t n = ::sendmsg(fd, &message, MSG_NOSIGNAL);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        auto sent = static_cast<std::size_t>(n);
        while (message.msg_iovlen > 0 &&
               sent >= message.msg_iov->iov_len) {
            sent -= message.msg_iov->iov_len;
            ++message.msg_iov;
            --message.msg_iovlen;
        }
        if (message.msg_iovlen > 0) {
            message.msg_iov->iov_base =
                static_cast<char *>(message.msg_iov->iov_base) + sent;
            message.msg_iov->iov_len -= sent;
        }
    }
    return true;
}

} // namespace serve
} // namespace speclens
