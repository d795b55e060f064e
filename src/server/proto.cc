#include "proto.h"

#include <cerrno>
#include <cstdio>
#include <cstring>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

namespace cmtl {
namespace server {

namespace {

/** Recursive-descent parser over a bounds-checked cursor. */
class JsonParser
{
  public:
    explicit JsonParser(const std::string &text)
        : p_(text.data()), end_(text.data() + text.size())
    {
    }

    Json
    parse()
    {
        Json v = value();
        skipWs();
        if (p_ != end_)
            fail("trailing bytes after JSON value");
        return v;
    }

  private:
    [[noreturn]] void
    fail(const std::string &why)
    {
        throw ProtoError("bad json: " + why);
    }

    void
    skipWs()
    {
        while (p_ != end_ && (*p_ == ' ' || *p_ == '\t' || *p_ == '\n' ||
                              *p_ == '\r'))
            ++p_;
    }

    char
    peek()
    {
        skipWs();
        if (p_ == end_)
            fail("unexpected end of input");
        return *p_;
    }

    void
    expect(char c)
    {
        if (peek() != c)
            fail(std::string("expected '") + c + "', got '" + *p_ + "'");
        ++p_;
    }

    bool
    consume(const char *lit)
    {
        size_t n = std::strlen(lit);
        if (static_cast<size_t>(end_ - p_) < n ||
            std::strncmp(p_, lit, n) != 0)
            return false;
        p_ += n;
        return true;
    }

    Json
    value()
    {
        switch (peek()) {
          case '{': return object();
          case '[': return array();
          case '"': return Json::string(string());
          case 't':
            if (!consume("true"))
                fail("bad literal");
            return Json::boolean(true);
          case 'f':
            if (!consume("false"))
                fail("bad literal");
            return Json::boolean(false);
          case 'n':
            if (!consume("null"))
                fail("bad literal");
            return Json{};
          default: return number();
        }
    }

    Json
    object()
    {
        expect('{');
        Json out = Json::object();
        if (peek() == '}') {
            ++p_;
            return out;
        }
        for (;;) {
            if (peek() != '"')
                fail("expected object key string");
            std::string key = string();
            expect(':');
            out.obj.emplace_back(std::move(key), value());
            char c = peek();
            ++p_;
            if (c == '}')
                return out;
            if (c != ',')
                fail("expected ',' or '}' in object");
        }
    }

    Json
    array()
    {
        expect('[');
        Json out = Json::array();
        if (peek() == ']') {
            ++p_;
            return out;
        }
        for (;;) {
            out.arr.push_back(value());
            char c = peek();
            ++p_;
            if (c == ']')
                return out;
            if (c != ',')
                fail("expected ',' or ']' in array");
        }
    }

    std::string
    string()
    {
        expect('"');
        std::string out;
        while (p_ != end_ && *p_ != '"') {
            char c = *p_++;
            if (c != '\\') {
                out += c;
                continue;
            }
            if (p_ == end_)
                fail("unterminated escape");
            char e = *p_++;
            switch (e) {
              case '"': out += '"'; break;
              case '\\': out += '\\'; break;
              case '/': out += '/'; break;
              case 'n': out += '\n'; break;
              case 'r': out += '\r'; break;
              case 't': out += '\t'; break;
              case 'b': out += '\b'; break;
              case 'f': out += '\f'; break;
              case 'u': {
                if (end_ - p_ < 4)
                    fail("short \\u escape");
                unsigned code = 0;
                for (int i = 0; i < 4; ++i) {
                    char h = *p_++;
                    code <<= 4;
                    if (h >= '0' && h <= '9')
                        code |= static_cast<unsigned>(h - '0');
                    else if (h >= 'a' && h <= 'f')
                        code |= static_cast<unsigned>(h - 'a' + 10);
                    else if (h >= 'A' && h <= 'F')
                        code |= static_cast<unsigned>(h - 'A' + 10);
                    else
                        fail("bad \\u escape digit");
                }
                // Only the escapes our encoder emits (< 0x20) plus
                // plain BMP characters are expected; encode as UTF-8.
                if (code < 0x80) {
                    out += static_cast<char>(code);
                } else if (code < 0x800) {
                    out += static_cast<char>(0xC0 | (code >> 6));
                    out += static_cast<char>(0x80 | (code & 0x3F));
                } else {
                    out += static_cast<char>(0xE0 | (code >> 12));
                    out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
                    out += static_cast<char>(0x80 | (code & 0x3F));
                }
                break;
              }
              default: fail("unknown escape");
            }
        }
        if (p_ == end_)
            fail("unterminated string");
        ++p_; // closing quote
        return out;
    }

    Json
    number()
    {
        const char *start = p_;
        if (p_ != end_ && *p_ == '-') // JSON has no leading '+'
            ++p_;
        // ... and no leading zeros ("01" is two values, not a number).
        if (p_ != end_ && *p_ == '0' && p_ + 1 != end_ &&
            p_[1] >= '0' && p_[1] <= '9')
            fail("malformed number (leading zero)");
        bool digits = false;
        while (p_ != end_ && ((*p_ >= '0' && *p_ <= '9') || *p_ == '.' ||
                              *p_ == 'e' || *p_ == 'E' || *p_ == '-' ||
                              *p_ == '+')) {
            digits = digits || (*p_ >= '0' && *p_ <= '9');
            ++p_;
        }
        if (!digits)
            fail("expected a value");
        std::string text(start, p_);
        char *endp = nullptr;
        double v = std::strtod(text.c_str(), &endp);
        if (endp != text.c_str() + text.size())
            fail("malformed number '" + text + "'");
        return Json::number(v);
    }

    const char *p_;
    const char *end_;
};

} // namespace

Json
jsonParse(const std::string &text)
{
    return JsonParser(text).parse();
}

std::string
hexU64(uint64_t v)
{
    char buf[20];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

uint64_t
parseHexU64(const std::string &s)
{
    if (s.size() != 16 ||
        s.find_first_not_of("0123456789abcdef") != std::string::npos)
        throw ProtoError("malformed hex digest '" + s + "'");
    return std::strtoull(s.c_str(), nullptr, 16);
}

// ---------------------------------------------------------- framing

namespace {

/** Read exactly @p n bytes; returns bytes read (< n only at EOF). */
size_t
readFull(int fd, void *buf, size_t n)
{
    size_t got = 0;
    while (got < n) {
        ssize_t r = ::read(fd, static_cast<char *>(buf) + got, n - got);
        if (r == 0)
            return got;
        if (r < 0) {
            if (errno == EINTR)
                continue;
            throw ProtoError(std::string("read failed: ") +
                             std::strerror(errno));
        }
        got += static_cast<size_t>(r);
    }
    return got;
}

} // namespace

bool
readFrame(int fd, std::string &payload)
{
    uint8_t hdr[4];
    size_t got = readFull(fd, hdr, sizeof(hdr));
    if (got == 0)
        return false; // clean EOF between frames
    if (got < sizeof(hdr))
        throw ProtoError("truncated frame: EOF inside length prefix");
    uint32_t len = static_cast<uint32_t>(hdr[0]) |
                   (static_cast<uint32_t>(hdr[1]) << 8) |
                   (static_cast<uint32_t>(hdr[2]) << 16) |
                   (static_cast<uint32_t>(hdr[3]) << 24);
    if (len > kMaxFrameBytes)
        throw ProtoError("oversized frame: length prefix " +
                         std::to_string(len) + " exceeds limit " +
                         std::to_string(kMaxFrameBytes));
    payload.resize(len);
    if (len && readFull(fd, payload.data(), len) < len)
        throw ProtoError("truncated frame: EOF inside payload");
    return true;
}

void
writeFrame(int fd, const std::string &payload)
{
    if (payload.size() > kMaxFrameBytes)
        throw ProtoError("refusing to send oversized frame");
    uint32_t len = static_cast<uint32_t>(payload.size());
    uint8_t hdr[4] = {static_cast<uint8_t>(len),
                      static_cast<uint8_t>(len >> 8),
                      static_cast<uint8_t>(len >> 16),
                      static_cast<uint8_t>(len >> 24)};
    std::string frame(reinterpret_cast<char *>(hdr), sizeof(hdr));
    frame += payload;
    size_t sent = 0;
    while (sent < frame.size()) {
        // MSG_NOSIGNAL: a peer that disconnected mid-job must surface
        // as an error on this connection, not kill the daemon.
        ssize_t w = ::send(fd, frame.data() + sent, frame.size() - sent,
                           MSG_NOSIGNAL);
        if (w < 0) {
            if (errno == EINTR)
                continue;
            throw ProtoError(std::string("write failed: ") +
                             std::strerror(errno));
        }
        sent += static_cast<size_t>(w);
    }
}

// ------------------------------------------------------ ProtoClient

ProtoClient::~ProtoClient()
{
    close();
}

void
ProtoClient::connect(const std::string &socket_path)
{
    close();
    if (socket_path.size() >= sizeof(sockaddr_un{}.sun_path))
        throw ProtoError("socket path too long: " + socket_path);
    int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0)
        throw ProtoError(std::string("socket: ") + std::strerror(errno));
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, socket_path.c_str(),
                 sizeof(addr.sun_path) - 1);
    if (::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                  sizeof(addr)) != 0) {
        int err = errno;
        ::close(fd);
        throw ProtoError("cannot connect to '" + socket_path +
                         "': " + std::strerror(err));
    }
    fd_ = fd;

    Json hello = Json::object();
    hello.set("verb", Json::string("hello"));
    hello.set("version", Json::number(static_cast<uint64_t>(kProtoVersion)));
    Json reply = call(hello);
    const Json *ok = reply.find("ok");
    if (!ok || !ok->b) {
        std::string why =
            reply.find("error") ? reply.find("error")->asStr() : "refused";
        close();
        throw ProtoError("handshake failed: " + why);
    }
}

void
ProtoClient::close()
{
    if (fd_ >= 0) {
        ::close(fd_);
        fd_ = -1;
    }
}

void
ProtoClient::send(const Json &request)
{
    if (fd_ < 0)
        throw ProtoError("not connected");
    writeFrame(fd_, request.encode());
}

Json
ProtoClient::readReply()
{
    if (fd_ < 0)
        throw ProtoError("not connected");
    std::string payload;
    if (!readFrame(fd_, payload))
        throw ProtoError("server closed the connection");
    return jsonParse(payload);
}

Json
ProtoClient::call(const Json &request)
{
    send(request);
    return readReply();
}

} // namespace server
} // namespace cmtl
