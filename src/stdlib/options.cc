#include "options.h"

#include <cerrno>
#include <climits>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <thread>

namespace cmtl {
namespace stdlib {

namespace {

/** "--name=value" / "--name value" accessor; empty when absent. */
bool
optionValue(const char *name, int argc, char **argv, int &i,
            std::string &out)
{
    const char *arg = argv[i];
    size_t n = std::strlen(name);
    if (std::strncmp(arg, name, n) != 0)
        return false;
    if (arg[n] == '=') {
        out = arg + n + 1;
        return true;
    }
    if (arg[n] == '\0' && i + 1 < argc) {
        out = argv[++i];
        return true;
    }
    return false;
}

bool
isLevelToken(const char *arg)
{
    return !std::strcmp(arg, "fl") || !std::strcmp(arg, "cl") ||
           !std::strcmp(arg, "clspec") || !std::strcmp(arg, "rtl");
}

/** Decimal digits only, no sign or blanks, and within @p max. */
bool
parseDigits(const std::string &text, unsigned long long max,
            unsigned long long &out)
{
    if (text.empty() ||
        text.find_first_not_of("0123456789") != std::string::npos)
        return false;
    errno = 0;
    out = std::strtoull(text.c_str(), nullptr, 10);
    return errno != ERANGE && out <= max;
}

/** Parse an unsigned cycle/interval count; exits(2) on garbage. */
uint64_t
parseCount(const char *prog, const char *flag, const std::string &text)
{
    unsigned long long v = 0;
    if (!parseDigits(text, UINT64_MAX, v)) {
        std::fprintf(stderr, "%s: %s wants a non-negative integer, "
                             "got '%s'\n",
                     prog, flag, text.c_str());
        std::exit(2);
    }
    return static_cast<uint64_t>(v);
}

/** Parse a positive int count (--threads, --jobs); exits(2) on garbage. */
int
parsePositive(const char *prog, const char *flag, const std::string &text)
{
    unsigned long long v = 0;
    if (!parseDigits(text, INT_MAX, v) || v == 0) {
        std::fprintf(stderr, "%s: %s wants a positive integer, got '%s'\n",
                     prog, flag, text.c_str());
        std::exit(2);
    }
    return static_cast<int>(v);
}

} // namespace

const char *
SimOptions::usage()
{
    return "[--backend=interp|optinterp|bytecode|cpp-block|cpp-design]"
           " [--threads=N] [--profile[=json]]"
           " [--level=fl|cl|clspec|rtl]"
           " [--cycles=N] [--seed=N] [--traffic=pattern]"
           " [--vcd=path] [--checkpoint=path[:N]]"
           " [--resume=path] [--listen=socket] [--jobs=N] [--audit]"
           " [--full] [--help]";
}

const char *
SimOptions::helpTable()
{
    return
        "Common options:\n"
        "  --backend=<name>    execution backend: interp | optinterp |\n"
        "                      bytecode | cpp-block | cpp-design |\n"
        "                      interp+bytecode | interp+cpp-block\n"
        "  --threads=<n>       host threads; >1 runs the parallel\n"
        "                      ParSim kernel (clamped to the hardware\n"
        "                      thread count with a warning)\n"
        "  --level=<l>         abstraction level: fl | cl | clspec |\n"
        "                      rtl (the bare token works too)\n"
        "  --profile[=json]    attach SimScope; =json emits the\n"
        "                      machine-readable snapshot on stdout\n"
        "  --cycles=<n>        simulate n cycles (each binary defines\n"
        "                      its own default)\n"
        "  --seed=<n>          RNG seed for traffic/stimulus\n"
        "                      generators (each binary defines its own\n"
        "                      default)\n"
        "  --traffic=<p>       NoC traffic pattern: uniform | tornado |\n"
        "                      hotspot | bit-complement | bursty\n"
        "  --vcd=<path>        write a VCD waveform dump to <path>\n"
        "  --checkpoint=<path[:n]>\n"
        "                      write a checkpoint to <path> every n\n"
        "                      cycles (default 1000) with atomic\n"
        "                      rename and keep-last-3 rotation\n"
        "  --resume=<path>     restore simulator state from a\n"
        "                      checkpoint file before running\n"
        "  --listen=<path>     Unix-domain socket path a SimServer\n"
        "                      daemon binds and serves jobs on\n"
        "  --jobs=<n>          SimServer concurrent-job thread budget\n"
        "                      (ParSim jobs draw their --threads worth)\n"
        "  --audit             run the static ParSim race auditor on\n"
        "                      the active partition and report the\n"
        "                      verdict (n/a on sequential runs)\n"
        "  --full              paper-scale bench parameters (also\n"
        "                      CMTL_BENCH_FULL=1)\n"
        "  --help              print this table and exit\n";
}

SimOptions
SimOptions::parse(int argc, char **argv)
{
    SimOptions opts;
    for (int i = 1; i < argc; ++i) {
        std::string value;
        if (optionValue("--backend", argc, argv, i, value)) {
            try {
                opts.cfg.backend = SimConfig::fromString(value).backend;
                opts.backend_set = true;
            } catch (const std::invalid_argument &e) {
                std::fprintf(stderr, "%s: %s\n", argv[0], e.what());
                std::exit(2);
            }
        } else if (optionValue("--threads", argc, argv, i, value)) {
            opts.threads = parsePositive(argv[0], "--threads", value);
            // Oversubscribing ParSim's spin-barrier workers is strictly
            // counterproductive (spinners time-slice against each
            // other), so the CLI clamps to the hardware. Programmatic
            // SimConfig::threads is left alone: tests and benches set
            // it deliberately.
            unsigned hw = std::thread::hardware_concurrency();
            if (hw > 0 && opts.threads > static_cast<int>(hw)) {
                std::fprintf(stderr,
                             "%s: --threads %d exceeds the %u hardware "
                             "threads; clamping to %u\n",
                             argv[0], opts.threads, hw, hw);
                opts.threads = static_cast<int>(hw);
            }
            opts.cfg.threads = opts.threads;
        } else if (!std::strcmp(argv[i], "--profile")) {
            opts.profile = true;
        } else if (!std::strcmp(argv[i], "--profile=json")) {
            opts.profile = opts.profile_json = true;
        } else if (optionValue("--level", argc, argv, i, value)) {
            opts.level = value;
        } else if (isLevelToken(argv[i])) {
            opts.level = argv[i];
        } else if (!std::strcmp(argv[i], "--full")) {
            opts.full = true;
        } else if (!std::strcmp(argv[i], "--audit")) {
            opts.audit = true;
        } else if (optionValue("--cycles", argc, argv, i, value)) {
            opts.cycles = parseCount(argv[0], "--cycles", value);
        } else if (optionValue("--seed", argc, argv, i, value)) {
            opts.seed = parseCount(argv[0], "--seed", value);
            opts.seed_set = true;
        } else if (optionValue("--traffic", argc, argv, i, value)) {
            if (value.empty()) {
                std::fprintf(stderr,
                             "%s: --traffic wants a pattern name\n",
                             argv[0]);
                std::exit(2);
            }
            opts.traffic = value;
        } else if (optionValue("--vcd", argc, argv, i, value)) {
            opts.vcd = value;
        } else if (optionValue("--checkpoint", argc, argv, i, value)) {
            // path[:every_n_cycles]; the suffix must be all digits so
            // paths with colons elsewhere still work.
            opts.checkpoint_path = value;
            opts.checkpoint_every = 1000;
            size_t colon = value.rfind(':');
            if (colon != std::string::npos && colon + 1 < value.size() &&
                value.find_first_not_of("0123456789", colon + 1) ==
                    std::string::npos) {
                opts.checkpoint_path = value.substr(0, colon);
                opts.checkpoint_every = parseCount(
                    argv[0], "--checkpoint", value.substr(colon + 1));
            }
            if (opts.checkpoint_path.empty()) {
                std::fprintf(stderr,
                             "%s: --checkpoint wants a file path\n",
                             argv[0]);
                std::exit(2);
            }
        } else if (optionValue("--resume", argc, argv, i, value)) {
            opts.resume = value;
        } else if (optionValue("--listen", argc, argv, i, value)) {
            if (value.empty()) {
                std::fprintf(stderr,
                             "%s: --listen wants a socket path\n",
                             argv[0]);
                std::exit(2);
            }
            opts.listen = value;
        } else if (optionValue("--jobs", argc, argv, i, value)) {
            opts.jobs = parsePositive(argv[0], "--jobs", value);
        } else if (!std::strcmp(argv[i], "--help")) {
            std::printf("usage: %s [options]\n%s", argv[0],
                        helpTable());
            std::exit(0);
        } else if (!std::strncmp(argv[i], "--", 2)) {
            std::fprintf(stderr,
                         "%s: unknown option '%s' (see --help)\n",
                         argv[0], argv[i]);
            std::exit(2);
        } else {
            opts.positional.emplace_back(argv[i]);
        }
    }
    if (!opts.full) {
        const char *env = std::getenv("CMTL_BENCH_FULL");
        opts.full = env && env[0] == '1';
    }
    return opts;
}

int
SimOptions::intArg(int dflt) const
{
    for (const std::string &arg : positional) {
        int v = std::atoi(arg.c_str());
        if (v > 0)
            return v;
    }
    return dflt;
}

} // namespace stdlib
} // namespace cmtl
