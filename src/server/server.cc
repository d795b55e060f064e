#include "server.h"

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstdint>
#include <cstring>
#include <stdexcept>

#include "net/traffic.h"

namespace cmtl {
namespace server {

DesignFactory
defaultCorpusFactory()
{
    return [](const JobSpec &spec) -> std::unique_ptr<Model> {
        net::NetLevel level;
        if (spec.level == "fl")
            level = net::NetLevel::FL;
        else if (spec.level == "cl")
            level = net::NetLevel::CL;
        else if (spec.level == "clspec")
            level = net::NetLevel::CLSpec;
        else if (spec.level == "rtl")
            level = net::NetLevel::RTL;
        else
            throw std::invalid_argument("unknown level '" + spec.level +
                                        "' (fl|cl|clspec|rtl)");
        return std::make_unique<net::MeshTrafficTop>(
            "top", level, spec.nrouters, 4, spec.injection, spec.seed);
    };
}

bool
specFromJson(const Json &req, JobSpec *spec, std::string *error)
{
    JobSpec out;
    // An optional count must be an integer in [0, 2^64). No double
    // converts to 2^64 - 1, so asU64 yields it only for a bad value.
    auto readCount = [&](const char *key, uint64_t &field) {
        const Json *v = req.find(key);
        if (!v || (field = v->asU64(UINT64_MAX)) != UINT64_MAX)
            return true;
        *error = std::string(key) + " wants a non-negative integer";
        return false;
    };
    if (const Json *v = req.find("design"))
        out.design = v->asStr(out.design);
    if (const Json *v = req.find("level"))
        out.level = v->asStr(out.level);
    if (out.level != "fl" && out.level != "cl" && out.level != "clspec" &&
        out.level != "rtl") {
        *error = "unknown level '" + out.level + "' (fl|cl|clspec|rtl)";
        return false;
    }
    if (const Json *v = req.find("backend")) {
        try {
            out.cfg.backend = SimConfig::fromString(v->asStr()).backend;
        } catch (const std::invalid_argument &e) {
            *error = e.what();
            return false;
        }
    }
    if (const Json *v = req.find("threads")) {
        out.cfg.threads = v->asInt(0);
        if (out.cfg.threads < 1) {
            *error = "threads wants a positive integer";
            return false;
        }
    }
    if (!readCount("cycles", out.cycles))
        return false;
    if (const Json *v = req.find("injection")) {
        out.injection = v->asNum(out.injection);
        if (out.injection < 0.0 || out.injection > 1.0) {
            *error = "injection wants a rate in [0, 1]";
            return false;
        }
    }
    if (!readCount("seed", out.seed))
        return false;
    if (const Json *v = req.find("nrouters")) {
        out.nrouters = v->asInt(0);
        if (out.nrouters < 1) {
            *error = "nrouters wants a positive integer";
            return false;
        }
    }
    if (const Json *v = req.find("profile"))
        out.profile = v->asBool();
    if (const Json *v = req.find("vcd"))
        out.vcd = v->asStr();
    if (const Json *v = req.find("checkpoint"))
        out.checkpoint = v->asStr();
    if (!readCount("checkpoint_every", out.checkpoint_every))
        return false;
    *spec = std::move(out);
    return true;
}

// ---------------------------------------------------------- SimServer

SimServer::SimServer(ServerConfig cfg) : cfg_(std::move(cfg)) {}

SimServer::~SimServer()
{
    stop();
}

void
SimServer::registerDesign(const std::string &name, DesignFactory factory)
{
    std::lock_guard<std::mutex> lock(designs_mu_);
    designs_[name] = std::move(factory);
}

void
SimServer::registerDefaultCorpus()
{
    registerDesign("mesh", defaultCorpusFactory());
}

std::vector<std::string>
SimServer::designNames() const
{
    std::lock_guard<std::mutex> lock(designs_mu_);
    std::vector<std::string> out;
    for (const auto &kv : designs_)
        out.push_back(kv.first);
    return out;
}

bool
SimServer::start(std::string *error)
{
    if (running_.load()) {
        if (error)
            *error = "server already running";
        return false;
    }
    scheduler_ = std::make_unique<JobScheduler>(
        cfg_.jobs, cfg_.queue_cap, [this](const JobSpec &spec) {
            DesignFactory factory;
            {
                std::lock_guard<std::mutex> lock(designs_mu_);
                auto it = designs_.find(spec.design);
                if (it == designs_.end())
                    throw std::invalid_argument("unknown design '" +
                                                spec.design + "'");
                factory = it->second;
            }
            return factory(spec);
        });

    struct sockaddr_un addr;
    std::memset(&addr, 0, sizeof(addr));
    addr.sun_family = AF_UNIX;
    if (cfg_.socket_path.size() >= sizeof(addr.sun_path)) {
        if (error)
            *error = "socket path too long: " + cfg_.socket_path;
        return false;
    }
    std::strncpy(addr.sun_path, cfg_.socket_path.c_str(),
                 sizeof(addr.sun_path) - 1);

    listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (listen_fd_ < 0) {
        if (error)
            *error = std::string("socket: ") + std::strerror(errno);
        return false;
    }
    if (::bind(listen_fd_, reinterpret_cast<struct sockaddr *>(&addr),
               sizeof(addr)) < 0) {
        if (errno != EADDRINUSE) {
            if (error)
                *error = std::string("bind: ") + std::strerror(errno);
            ::close(listen_fd_);
            listen_fd_ = -1;
            return false;
        }
        // The path exists. A live daemon answers a connect; a stale
        // socket from a crashed one does not and is safe to replace.
        int probe = ::socket(AF_UNIX, SOCK_STREAM, 0);
        bool live = probe >= 0 &&
                    ::connect(probe,
                              reinterpret_cast<struct sockaddr *>(&addr),
                              sizeof(addr)) == 0;
        if (probe >= 0)
            ::close(probe);
        if (live) {
            if (error)
                *error = "a daemon is already listening on " +
                         cfg_.socket_path;
            ::close(listen_fd_);
            listen_fd_ = -1;
            return false;
        }
        ::unlink(cfg_.socket_path.c_str());
        if (::bind(listen_fd_,
                   reinterpret_cast<struct sockaddr *>(&addr),
                   sizeof(addr)) < 0) {
            if (error)
                *error = std::string("bind: ") + std::strerror(errno);
            ::close(listen_fd_);
            listen_fd_ = -1;
            return false;
        }
    }
    if (::listen(listen_fd_, 16) < 0) {
        if (error)
            *error = std::string("listen: ") + std::strerror(errno);
        ::close(listen_fd_);
        listen_fd_ = -1;
        return false;
    }

    running_.store(true);
    stop_requested_.store(false);
    prewarm();
    accept_thread_ = std::thread([this] { acceptLoop(); });
    return true;
}

void
SimServer::prewarm()
{
    if (cfg_.prewarm_backend.empty())
        return;
    // One tiny detached job per registered design: the JIT cache key
    // is the generated source, so a 1-cycle run leaves the cache warm
    // for every later job at this backend (whatever its traffic
    // parameters).
    for (const std::string &name : designNames()) {
        JobSpec spec;
        spec.design = name;
        spec.cycles = 1;
        try {
            spec.cfg.backend =
                SimConfig::fromString(cfg_.prewarm_backend).backend;
        } catch (const std::invalid_argument &) {
            return;
        }
        scheduler_->submit(std::move(spec), 0, nullptr);
    }
}

void
SimServer::acceptLoop()
{
    for (;;) {
        int cfd = ::accept(listen_fd_, nullptr, nullptr);
        if (cfd < 0) {
            if (errno == EINTR)
                continue;
            return; // listener closed by stop()
        }
        if (stop_requested_.load()) {
            ::close(cfd);
            return;
        }
        std::lock_guard<std::mutex> lock(conns_mu_);
        uint64_t conn_id = next_conn_id_++;
        conn_fds_[conn_id] = cfd;
        conn_threads_.emplace_back(
            [this, cfd, conn_id] { handleConnection(cfd, conn_id); });
    }
}

void
SimServer::handleConnection(int fd, uint64_t conn_id)
{
    try {
        std::string payload;
        // Handshake: the first frame must be a version-matched hello.
        if (readFrame(fd, payload)) {
            bool ok = false;
            std::string why;
            try {
                Json req = jsonParse(payload);
                const Json *verb = req.find("verb");
                const Json *ver = req.find("version");
                if (!verb || verb->asStr() != "hello")
                    why = "expected hello as the first frame";
                else if (!ver ||
                         ver->asU64() != static_cast<uint64_t>(
                                             kProtoVersion))
                    why = "protocol version mismatch: server speaks " +
                          std::to_string(kProtoVersion);
                else
                    ok = true;
            } catch (const ProtoError &e) {
                why = e.what();
            }
            Json reply = Json::object();
            reply.set("ok", Json::boolean(ok));
            reply.set("version", Json::number(static_cast<uint64_t>(kProtoVersion)));
            if (ok)
                reply.set("server", Json::string("cmtl-simserver"));
            else
                reply.set("error", Json::string(why));
            writeFrame(fd, reply.encode());
            if (ok) {
                while (readFrame(fd, payload)) {
                    Json req;
                    try {
                        req = jsonParse(payload);
                    } catch (const ProtoError &e) {
                        Json err = Json::object();
                        err.set("ok", Json::boolean(false));
                        err.set("error", Json::string(e.what()));
                        writeFrame(fd, err.encode());
                        continue;
                    }
                    if (!dispatch(fd, conn_id, req))
                        break;
                }
            }
        }
    } catch (const ProtoError &) {
        // Truncated/oversized frame or peer gone mid-write: drop the
        // connection; reaping below cancels any attached jobs.
    }
    if (scheduler_)
        scheduler_->reapOwner(conn_id);
    ::close(fd);
    std::lock_guard<std::mutex> lock(conns_mu_);
    conn_fds_.erase(conn_id);
}

Json
SimServer::jobReply(const JobInfo &info) const
{
    Json out = Json::object();
    out.set("job", Json::number(info.id));
    out.set("state", Json::string(jobStateName(info.state)));
    out.set("design", Json::string(info.spec.design));
    out.set("injection", Json::number(info.spec.injection));
    out.set("backend", Json::string(info.result.backend.empty()
                                        ? info.spec.cfg.toString()
                                        : info.result.backend));
    out.set("threads", Json::number(info.spec.cfg.threads));
    out.set("cycle", Json::number(info.cycle));
    out.set("preemptions", Json::number(info.preemptions));
    if (info.state == JobState::Done) {
        out.set("cycles", Json::number(info.result.cycles));
        out.set("digest", Json::string(hexU64(info.result.digest)));
        out.set("wall_ms", Json::number(info.result.wall_ms));
        if (!info.result.metrics_json.empty())
            out.set("metrics", Json::string(info.result.metrics_json));
    } else if (!info.result.error.empty()) {
        out.set("error", Json::string(info.result.error));
    }
    return out;
}

bool
SimServer::dispatch(int fd, uint64_t conn_id, const Json &req)
{
    const Json *verb_v = req.find("verb");
    std::string verb = verb_v ? verb_v->asStr() : "";
    Json reply = Json::object();

    if (verb == "hello") {
        reply.set("ok", Json::boolean(true));
        reply.set("version", Json::number(static_cast<uint64_t>(kProtoVersion)));
        reply.set("server", Json::string("cmtl-simserver"));
    } else if (verb == "submit") {
        JobSpec spec;
        std::string error;
        if (!specFromJson(req, &spec, &error)) {
            reply.set("ok", Json::boolean(false));
            reply.set("error", Json::string(error));
        } else {
            bool known;
            {
                std::lock_guard<std::mutex> lock(designs_mu_);
                known = designs_.count(spec.design) != 0;
            }
            if (!known) {
                reply.set("ok", Json::boolean(false));
                reply.set("error", Json::string("unknown design '" +
                                                spec.design + "'"));
            } else {
                const Json *detach = req.find("detach");
                uint64_t owner =
                    detach && detach->asBool() ? 0 : conn_id;
                int id =
                    scheduler_->submit(std::move(spec), owner, &error);
                if (id < 0) {
                    reply.set("ok", Json::boolean(false));
                    reply.set("error", Json::string(error));
                } else {
                    reply.set("ok", Json::boolean(true));
                    reply.set("job", Json::number(id));
                }
            }
        }
    } else if (verb == "status") {
        const Json *jv = req.find("job");
        int id = jv ? jv->asInt(-1) : -1;
        std::vector<JobInfo> infos = scheduler_->status(id);
        if (id >= 0 && infos.empty()) {
            reply.set("ok", Json::boolean(false));
            reply.set("error", Json::string("unknown job " +
                                            std::to_string(id)));
        } else {
            reply.set("ok", Json::boolean(true));
            Json arr = Json::array();
            for (const JobInfo &info : infos)
                arr.push(jobReply(info));
            reply.set("jobs", std::move(arr));
        }
    } else if (verb == "result") {
        const Json *jv = req.find("job");
        int id = jv ? jv->asInt(-1) : -1;
        if (!scheduler_->exists(id)) {
            reply.set("ok", Json::boolean(false));
            reply.set("error", Json::string("unknown job " +
                                            std::to_string(id)));
        } else {
            JobInfo info = scheduler_->awaitResult(id);
            reply = jobReply(info);
            reply.set("ok",
                      Json::boolean(info.state == JobState::Done));
        }
    } else if (verb == "cancel") {
        const Json *jv = req.find("job");
        int id = jv ? jv->asInt(-1) : -1;
        bool ok = scheduler_->cancel(id);
        reply.set("ok", Json::boolean(ok));
        if (!ok)
            reply.set("error",
                      Json::string("job is terminal or unknown"));
    } else if (verb == "sweep") {
        handleSweep(fd, conn_id, req);
        return true;
    } else if (verb == "shutdown") {
        reply.set("ok", Json::boolean(true));
        reply.set("stopping", Json::boolean(true));
        writeFrame(fd, reply.encode());
        stop_requested_.store(true);
        shutdown_cv_.notify_all();
        return false;
    } else {
        reply.set("ok", Json::boolean(false));
        reply.set("error",
                  Json::string("unknown verb '" + verb + "'"));
    }
    writeFrame(fd, reply.encode());
    return true;
}

void
SimServer::handleSweep(int fd, uint64_t conn_id, const Json &req)
{
    // Base spec carries the shared fields; the grid is the cross
    // product of the "injections" and "backends" arrays (each
    // defaulting to the base spec's single value).
    JobSpec base;
    std::string error;
    if (!specFromJson(req, &base, &error)) {
        Json err = Json::object();
        err.set("ok", Json::boolean(false));
        err.set("error", Json::string(error));
        writeFrame(fd, err.encode());
        return;
    }
    std::vector<double> injections;
    if (const Json *v = req.find("injections"))
        for (const Json &e : v->arr)
            injections.push_back(e.asNum());
    if (injections.empty())
        injections.push_back(base.injection);
    std::vector<std::string> backends;
    if (const Json *v = req.find("backends"))
        for (const Json &e : v->arr)
            backends.push_back(e.asStr());
    if (backends.empty())
        backends.push_back(base.cfg.toString());

    struct Point
    {
        size_t index;
        JobSpec spec;
        int id = -1;
    };
    std::vector<Point> points;
    for (const std::string &backend : backends) {
        SimConfig cfg;
        try {
            cfg = base.cfg;
            cfg.backend = SimConfig::fromString(backend).backend;
        } catch (const std::invalid_argument &e) {
            Json err = Json::object();
            err.set("ok", Json::boolean(false));
            err.set("error", Json::string(e.what()));
            writeFrame(fd, err.encode());
            return;
        }
        for (double injection : injections) {
            if (injection < 0.0 || injection > 1.0) {
                Json err = Json::object();
                err.set("ok", Json::boolean(false));
                err.set("error",
                        Json::string("injection wants a rate in "
                                     "[0, 1]"));
                writeFrame(fd, err.encode());
                return;
            }
            Point p;
            p.index = points.size();
            p.spec = base;
            p.spec.cfg = cfg;
            p.spec.injection = injection;
            // Server-side artifact paths would collide across the
            // grid; sweeps run digest-only.
            p.spec.vcd.clear();
            p.spec.checkpoint.clear();
            points.push_back(std::move(p));
        }
    }

    Json head = Json::object();
    head.set("ok", Json::boolean(true));
    head.set("sweep", Json::boolean(true));
    head.set("points", Json::number(points.size()));
    writeFrame(fd, head.encode());

    // Submit in waves bounded by the queue cap and stream results in
    // completion order: a 100-point sweep never needs a 100-deep
    // queue, and fast points aren't stuck behind slow ones.
    size_t next = 0, streamed = 0;
    std::vector<int> ids;
    while (streamed < points.size()) {
        while (next < points.size()) {
            int id = scheduler_->submit(points[next].spec, conn_id,
                                        &error);
            if (id < 0)
                break; // queue full (or stopping): drain first
            points[next].id = id;
            ids.push_back(id);
            ++next;
        }
        if (ids.empty()) {
            Json err = Json::object();
            err.set("ok", Json::boolean(false));
            err.set("error", Json::string(error));
            writeFrame(fd, err.encode());
            return;
        }
        int done_id = scheduler_->awaitAny(ids);
        if (done_id < 0) {
            if (next < points.size())
                continue;
            break; // every submitted id claimed, nothing left
        }
        std::vector<JobInfo> infos = scheduler_->status(done_id);
        if (infos.empty())
            continue;
        Json frame = jobReply(infos[0]);
        frame.set("ok",
                  Json::boolean(infos[0].state == JobState::Done));
        for (const Point &p : points)
            if (p.id == done_id) {
                frame.set("index",
                          Json::number(static_cast<uint64_t>(p.index)));
                break;
            }
        writeFrame(fd, frame.encode());
        ++streamed;
    }

    Json tail = Json::object();
    tail.set("ok", Json::boolean(true));
    tail.set("sweep_done", Json::boolean(true));
    tail.set("points", Json::number(points.size()));
    tail.set("preemptions",
             Json::number(scheduler_->preemptionCount()));
    writeFrame(fd, tail.encode());
}

void
SimServer::wait()
{
    std::unique_lock<std::mutex> lock(conns_mu_);
    shutdown_cv_.wait(lock, [&] { return stop_requested_.load(); });
}

void
SimServer::stop()
{
    stop_requested_.store(true);
    shutdown_cv_.notify_all();
    if (!running_.exchange(false))
        return;
    // Unblock accept(), then make every job terminal so handler
    // threads parked in awaitResult/awaitAny return, then kick any
    // reader still parked on a socket.
    ::shutdown(listen_fd_, SHUT_RDWR);
    ::close(listen_fd_);
    listen_fd_ = -1;
    if (accept_thread_.joinable())
        accept_thread_.join();
    if (scheduler_)
        scheduler_->stop();
    std::vector<std::thread> threads;
    {
        std::lock_guard<std::mutex> lock(conns_mu_);
        for (auto &kv : conn_fds_)
            ::shutdown(kv.second, SHUT_RDWR);
        threads.swap(conn_threads_);
    }
    for (std::thread &t : threads)
        if (t.joinable())
            t.join();
    ::unlink(cfg_.socket_path.c_str());
}

} // namespace server
} // namespace cmtl
