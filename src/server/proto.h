/**
 * @file
 * SimServer wire protocol: length-prefixed JSON frames over a local
 * Unix-domain stream socket.
 *
 * Every message — request or reply — is one frame:
 *
 *   u32 little-endian payload length | payload bytes (UTF-8 JSON)
 *
 * A frame whose length prefix exceeds kMaxFrameBytes is rejected
 * without reading the payload (a stream desynchronization or a hostile
 * peer; the connection is beyond repair and must be closed). A frame
 * that ends early — the peer closed mid-length or mid-payload — is a
 * truncation error, distinct from the clean EOF between frames.
 *
 * The first frame on a connection must be the version handshake:
 *
 *   client  {"verb":"hello","version":1}
 *   server  {"ok":true,"version":1,"server":"cmtl-simserver"}
 *
 * A version mismatch is answered with {"ok":false,"error":...} and the
 * connection is closed — newer clients never silently talk past an
 * older daemon. After the handshake the client sends one request frame
 * per verb (submit / status / result / cancel / sweep / shutdown) and
 * reads replies; every reply carries "ok" plus either result fields or
 * "error". The sweep verb is the one streaming reply: per-point result
 * frames as jobs complete, terminated by a {"sweep_done":true} frame.
 *
 * Frames are built and encoded with the tool layer's one JSON type,
 * Json (core/json.h, which holds the encoder). The decoder lives here:
 * jsonParse() is the one reader of outside JSON, and it rejects
 * anything malformed with a ProtoError rather than guessing.
 */

#ifndef CMTL_SERVER_PROTO_H
#define CMTL_SERVER_PROTO_H

#include <cstdint>
#include <stdexcept>
#include <string>

#include "core/json.h"

namespace cmtl {
namespace server {

/** Thrown on malformed frames, bad JSON, and connection errors. */
class ProtoError : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

/** Wire protocol version; bump on any incompatible frame change. */
constexpr uint32_t kProtoVersion = 1;

/** Hard ceiling on one frame's payload (sanity, not a quota). */
constexpr uint32_t kMaxFrameBytes = 1u << 20;

/** The tool layer's one JSON value type and encoder (core/json.h). */
using cmtl::Json;

/** Parse @p text; throws ProtoError on any malformed input. */
Json jsonParse(const std::string &text);

/** 16-hex-digit encoding of a 64-bit digest (JSON-number safe). */
std::string hexU64(uint64_t v);
/** Parse hexU64 output; throws ProtoError on malformed input. */
uint64_t parseHexU64(const std::string &s);

/**
 * Read one frame from @p fd into @p payload. Returns false on a clean
 * EOF between frames; throws ProtoError on a truncated frame, an
 * oversized length prefix, or a read error.
 */
bool readFrame(int fd, std::string &payload);

/** Write one frame; throws ProtoError on a short write or error. */
void writeFrame(int fd, const std::string &payload);

/**
 * Client-side connection helper: connect + version handshake + one
 * call() per request. Used by sim_client, the throughput bench and the
 * protocol tests; the server side frames directly on its accepted fd.
 */
class ProtoClient
{
  public:
    ProtoClient() = default;
    ~ProtoClient();
    ProtoClient(const ProtoClient &) = delete;
    ProtoClient &operator=(const ProtoClient &) = delete;

    /**
     * Connect to the daemon at @p socket_path and run the version
     * handshake; throws ProtoError on refusal or mismatch.
     */
    void connect(const std::string &socket_path);
    bool connected() const { return fd_ >= 0; }
    void close();
    int fd() const { return fd_; }

    /** Send a request frame (no reply read). */
    void send(const Json &request);
    /** Read the next reply frame; throws ProtoError on EOF. */
    Json readReply();
    /** send() + readReply(). */
    Json call(const Json &request);

  private:
    int fd_ = -1;
};

} // namespace server
} // namespace cmtl

#endif // CMTL_SERVER_PROTO_H
