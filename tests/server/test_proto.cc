/**
 * SimServer wire protocol, attacked from below: the JSON codec
 * round-trips and rejects malformed text with diagnostics; the frame
 * layer distinguishes a clean EOF from a truncated frame and refuses
 * an oversized length prefix without reading the payload; and a live
 * daemon enforces the session rules — version-matched hello first,
 * unknown verbs answered (not dropped), malformed JSON answered with
 * the connection kept, and a mid-job client disconnect reaping the
 * orphaned job so its scheduler slot frees up.
 */

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cstring>
#include <string>

#include "server/proto.h"
#include "server/server.h"

namespace cmtl {
namespace server {
namespace {

// ------------------------------------------------------------- JSON

TEST(Json, RoundTripObject)
{
    Json obj = Json::object();
    obj.set("verb", Json::string("submit"));
    obj.set("cycles", Json::number(uint64_t{12345}));
    obj.set("injection", Json::number(0.25));
    obj.set("detach", Json::boolean(true));
    obj.set("nothing", Json());
    Json arr = Json::array();
    arr.push(Json::number(1));
    arr.push(Json::string("two"));
    obj.set("list", std::move(arr));

    Json back = jsonParse(obj.encode());
    EXPECT_EQ(back.find("verb")->asStr(), "submit");
    EXPECT_EQ(back.find("cycles")->asU64(), 12345u);
    EXPECT_DOUBLE_EQ(back.find("injection")->asNum(), 0.25);
    EXPECT_TRUE(back.find("detach")->asBool());
    EXPECT_EQ(back.find("nothing")->kind, Json::Kind::Null);
    ASSERT_EQ(back.find("list")->arr.size(), 2u);
    EXPECT_EQ(back.find("list")->arr[1].asStr(), "two");
    EXPECT_EQ(back.find("absent"), nullptr);
}

TEST(Json, StringEscapes)
{
    Json v = Json::string("a\"b\\c\n\t\x01z");
    Json back = jsonParse(v.encode());
    EXPECT_EQ(back.asStr(), "a\"b\\c\n\t\x01z");
    // Unicode escapes decode to UTF-8.
    EXPECT_EQ(jsonParse("\"\\u0041\\u00e9\"").asStr(), "A\xc3\xa9");
}

TEST(Json, SetOverwritesKey)
{
    Json obj = Json::object();
    obj.set("k", Json::number(1));
    obj.set("k", Json::number(2));
    EXPECT_EQ(obj.obj.size(), 1u);
    EXPECT_EQ(obj.find("k")->asInt(), 2);
}

TEST(Json, AsIntRejectsNonIntegralAndOutOfRange)
{
    EXPECT_EQ(jsonParse("3").asInt(-1), 3);
    EXPECT_EQ(jsonParse("-5.0").asInt(-1), -5);
    EXPECT_EQ(jsonParse("2147483647").asInt(-1), 2147483647);
    EXPECT_EQ(jsonParse("-2147483648").asInt(-1), -2147483647 - 1);
    for (const char *text : {"2.7", "-0.5", "2147483648", "-2147483649",
                             "1e20", "1e999", "\"3\"", "null"})
        EXPECT_EQ(jsonParse(text).asInt(-1), -1) << text;
}

TEST(Json, AsU64RejectsNonIntegralAndOutOfRange)
{
    EXPECT_EQ(jsonParse("0").asU64(7), 0u);
    EXPECT_EQ(jsonParse("2.0").asU64(7), 2u);
    EXPECT_EQ(jsonParse("1e19").asU64(7), 10000000000000000000ull);
    // The largest double below 2^64.
    EXPECT_EQ(jsonParse("18446744073709549568").asU64(7),
              18446744073709549568ull);
    for (const char *text : {"2.5", "-1", "-0.5", "1e20",
                             "18446744073709551616", "1e999", "\"3\"",
                             "null"})
        EXPECT_EQ(jsonParse(text).asU64(7), 7u) << text;
}

TEST(Json, MalformedInputsThrow)
{
    const char *bad[] = {
        "",           "{",          "[1,2",      "{\"a\":}",
        "{\"a\" 1}",  "tru",        "\"unterminated",
        "{\"a\":1} trailing",       "01",        "1e",
        "{\"a\":\"\\q\"}",          "nul",       "[1,]",
    };
    for (const char *text : bad)
        EXPECT_THROW(jsonParse(text), ProtoError) << text;
}

TEST(Json, HexDigests)
{
    EXPECT_EQ(hexU64(0), "0000000000000000");
    EXPECT_EQ(hexU64(0xdeadbeefcafe1234ull), "deadbeefcafe1234");
    EXPECT_EQ(parseHexU64("deadbeefcafe1234"), 0xdeadbeefcafe1234ull);
    EXPECT_THROW(parseHexU64(""), ProtoError);
    EXPECT_THROW(parseHexU64("xyz"), ProtoError);
    EXPECT_THROW(parseHexU64("deadbeefcafe123"), ProtoError);   // short
    EXPECT_THROW(parseHexU64("deadbeefcafe12345"), ProtoError); // long
}

// ---------------------------------------------------------- framing

struct SocketPair
{
    int a = -1, b = -1;
    SocketPair()
    {
        int fds[2];
        EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
        a = fds[0];
        b = fds[1];
    }
    ~SocketPair()
    {
        if (a >= 0)
            ::close(a);
        if (b >= 0)
            ::close(b);
    }
};

TEST(Framing, RoundTrip)
{
    SocketPair sp;
    writeFrame(sp.a, "{\"x\":1}");
    writeFrame(sp.a, ""); // empty payload is a legal frame
    std::string payload;
    ASSERT_TRUE(readFrame(sp.b, payload));
    EXPECT_EQ(payload, "{\"x\":1}");
    ASSERT_TRUE(readFrame(sp.b, payload));
    EXPECT_EQ(payload, "");
}

TEST(Framing, CleanEofBetweenFrames)
{
    SocketPair sp;
    writeFrame(sp.a, "last");
    ::close(sp.a);
    sp.a = -1;
    std::string payload;
    ASSERT_TRUE(readFrame(sp.b, payload));
    EXPECT_FALSE(readFrame(sp.b, payload)); // EOF, not an error
}

TEST(Framing, TruncatedLengthPrefix)
{
    SocketPair sp;
    const char two[] = {0x10, 0x00};
    ASSERT_EQ(::send(sp.a, two, 2, 0), 2);
    ::close(sp.a);
    sp.a = -1;
    std::string payload;
    EXPECT_THROW(readFrame(sp.b, payload), ProtoError);
}

TEST(Framing, TruncatedPayload)
{
    SocketPair sp;
    uint32_t len = 10;
    ASSERT_EQ(::send(sp.a, &len, 4, 0), 4);
    ASSERT_EQ(::send(sp.a, "abc", 3, 0), 3);
    ::close(sp.a);
    sp.a = -1;
    std::string payload;
    EXPECT_THROW(readFrame(sp.b, payload), ProtoError);
}

TEST(Framing, OversizedLengthPrefixRejected)
{
    SocketPair sp;
    uint32_t len = kMaxFrameBytes + 1;
    ASSERT_EQ(::send(sp.a, &len, 4, 0), 4);
    std::string payload;
    // Rejected from the prefix alone -- no payload was ever sent, so
    // a blocking read of it would hang here.
    EXPECT_THROW(readFrame(sp.b, payload), ProtoError);
}

// --------------------------------------------- daemon session rules

class ProtoServerTest : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        static int counter = 0;
        cfg_.socket_path = "/tmp/cmtl-proto-test-" +
                           std::to_string(::getpid()) + "-" +
                           std::to_string(counter++) + ".sock";
        cfg_.jobs = 1;
        cfg_.queue_cap = 8;
        server_ = std::make_unique<SimServer>(cfg_);
        server_->registerDefaultCorpus();
        std::string error;
        ASSERT_TRUE(server_->start(&error)) << error;
    }
    void TearDown() override { server_->stop(); }

    int rawConnect()
    {
        int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
        EXPECT_GE(fd, 0);
        struct sockaddr_un addr;
        std::memset(&addr, 0, sizeof(addr));
        addr.sun_family = AF_UNIX;
        std::strncpy(addr.sun_path, cfg_.socket_path.c_str(),
                     sizeof(addr.sun_path) - 1);
        EXPECT_EQ(::connect(fd,
                            reinterpret_cast<struct sockaddr *>(&addr),
                            sizeof(addr)),
                  0);
        return fd;
    }

    ServerConfig cfg_;
    std::unique_ptr<SimServer> server_;
};

TEST_F(ProtoServerTest, VersionMismatchRefusedAndClosed)
{
    int fd = rawConnect();
    Json hello = Json::object();
    hello.set("verb", Json::string("hello"));
    hello.set("version", Json::number(99));
    writeFrame(fd, hello.encode());
    std::string payload;
    ASSERT_TRUE(readFrame(fd, payload));
    Json reply = jsonParse(payload);
    EXPECT_FALSE(reply.find("ok")->asBool());
    EXPECT_NE(reply.find("error")->asStr().find("version"),
              std::string::npos);
    // The daemon hangs up after a refused handshake.
    EXPECT_FALSE(readFrame(fd, payload));
    ::close(fd);
}

TEST_F(ProtoServerTest, FirstFrameMustBeHello)
{
    int fd = rawConnect();
    Json req = Json::object();
    req.set("verb", Json::string("status"));
    writeFrame(fd, req.encode());
    std::string payload;
    ASSERT_TRUE(readFrame(fd, payload));
    Json reply = jsonParse(payload);
    EXPECT_FALSE(reply.find("ok")->asBool());
    EXPECT_NE(reply.find("error")->asStr().find("hello"),
              std::string::npos);
    EXPECT_FALSE(readFrame(fd, payload));
    ::close(fd);
}

TEST_F(ProtoServerTest, UnknownVerbAnswered)
{
    ProtoClient client;
    client.connect(cfg_.socket_path);
    Json req = Json::object();
    req.set("verb", Json::string("frobnicate"));
    Json reply = client.call(req);
    EXPECT_FALSE(reply.find("ok")->asBool());
    EXPECT_NE(reply.find("error")->asStr().find("unknown verb"),
              std::string::npos);
}

TEST_F(ProtoServerTest, MalformedJsonAnsweredConnectionKept)
{
    ProtoClient client;
    client.connect(cfg_.socket_path);
    writeFrame(client.fd(), "{this is not json");
    Json reply = client.readReply();
    EXPECT_FALSE(reply.find("ok")->asBool());
    // The frame boundary is intact, so the session continues.
    Json req = Json::object();
    req.set("verb", Json::string("status"));
    Json ok = client.call(req);
    EXPECT_TRUE(ok.find("ok")->asBool());
}

TEST_F(ProtoServerTest, DisconnectMidJobReapsIt)
{
    // Submit a job far too long to finish, then vanish.
    int victim_id;
    {
        ProtoClient client;
        client.connect(cfg_.socket_path);
        Json req = Json::object();
        req.set("verb", Json::string("submit"));
        req.set("level", Json::string("cl"));
        req.set("cycles", Json::number(uint64_t{50000000}));
        Json reply = client.call(req);
        ASSERT_TRUE(reply.find("ok")->asBool())
            << reply.find("error")->asStr();
        victim_id = reply.find("job")->asInt();
        client.close(); // abrupt: no cancel, no shutdown
    }

    // A second client sees the orphan reach a terminal state and the
    // single scheduler slot come free for its own job.
    ProtoClient client;
    client.connect(cfg_.socket_path);
    Json res_req = Json::object();
    res_req.set("verb", Json::string("result"));
    res_req.set("job", Json::number(victim_id));
    Json res = client.call(res_req);
    EXPECT_EQ(res.find("state")->asStr(), "cancelled");

    Json req = Json::object();
    req.set("verb", Json::string("submit"));
    req.set("level", Json::string("cl"));
    req.set("cycles", Json::number(uint64_t{50}));
    Json reply = client.call(req);
    ASSERT_TRUE(reply.find("ok")->asBool());
    res_req.set("job", *reply.find("job"));
    res = client.call(res_req);
    EXPECT_EQ(res.find("state")->asStr(), "done");
}

TEST_F(ProtoServerTest, DetachedJobSurvivesDisconnect)
{
    int job_id;
    {
        ProtoClient client;
        client.connect(cfg_.socket_path);
        Json req = Json::object();
        req.set("verb", Json::string("submit"));
        req.set("level", Json::string("cl"));
        req.set("cycles", Json::number(uint64_t{200}));
        req.set("detach", Json::boolean(true));
        Json reply = client.call(req);
        ASSERT_TRUE(reply.find("ok")->asBool());
        job_id = reply.find("job")->asInt();
    }
    ProtoClient client;
    client.connect(cfg_.socket_path);
    Json res_req = Json::object();
    res_req.set("verb", Json::string("result"));
    res_req.set("job", Json::number(job_id));
    Json res = client.call(res_req);
    EXPECT_EQ(res.find("state")->asStr(), "done");
}

} // namespace
} // namespace server
} // namespace cmtl
