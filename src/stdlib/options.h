/**
 * @file
 * SimOptions: the shared command-line front door of the examples and
 * benches.
 *
 * Every runnable binary used to hand-roll the same strcmp chains for
 * --threads/--profile/--level; this helper parses the common options
 * once and — the point of the exercise — adds `--backend=<str>` with
 * the canonical SimConfig::fromString() names everywhere:
 *
 *   --backend=<b>     interp | optinterp | bytecode | cpp-block |
 *                     cpp-design | interp+bytecode | interp+cpp-block
 *   --threads=<n>     >1 selects the parallel ParSim kernel
 *   --profile[=json]  attach SimScope (json = machine-readable)
 *   --level=<l>       abstraction level (fl|cl|clspec|rtl); the bare
 *                     token spelling is accepted too
 *   --full            paper-scale bench parameters (or CMTL_BENCH_FULL=1)
 *
 * Checkpoint/restore (snap.h) and waveform options ride along:
 *
 *   --cycles=<n>      simulate n cycles (binaries define the default)
 *   --seed=<n>        seed for traffic/stimulus generators, so every
 *                     run is reproducible from its command line
 *   --traffic=<p>     NoC traffic pattern (uniform | tornado |
 *                     hotspot | bit-complement | bursty); stored as a
 *                     string here, validated by the consumer so the
 *                     stdlib layer stays independent of cmtl_net
 *   --vcd=<path>      write a waveform dump to <path>
 *   --checkpoint=<path[:n]>  periodic checkpoints into <path> every n
 *                     cycles (atomic rename + rotation; default 1000)
 *   --resume=<path>   restore simulator state from a checkpoint
 *   --help            print the full option table and exit
 *
 * Static-analysis options (race_audit.h):
 *
 *   --audit           run the static ParSim race auditor on the active
 *                     partition and fold a pass/fail line into
 *                     simulatorReport(); sequential runs report n/a
 *
 * SimServer daemon options (src/server/server.h):
 *
 *   --listen=<path>   Unix-domain socket the sim_server daemon binds
 *   --jobs=<n>        concurrent-job thread budget of the daemon's
 *                     scheduler (ParSim jobs draw cfg.threads units)
 *
 * `--threads N` / `--backend b` (separate argument) spellings are
 * accepted as well. Plain arguments are collected in `positional` for
 * the binary's own use (e.g. a problem size), but an unknown `--flag`
 * is an error: silent ignores mask typos like `--thread=4`, so parse()
 * prints a diagnostic pointing at --help and exits(2) — callers never
 * see a throw.
 */

#ifndef CMTL_STDLIB_OPTIONS_H
#define CMTL_STDLIB_OPTIONS_H

#include <string>
#include <vector>

#include "core/sim.h"

namespace cmtl {
namespace stdlib {

struct SimOptions
{
    /** Ready-to-use config: backend and threads already applied. */
    SimConfig cfg;
    bool backend_set = false; //!< --backend was given explicitly
    int threads = 1;
    bool profile = false;
    bool profile_json = false;
    bool full = false;        //!< --full or CMTL_BENCH_FULL=1
    bool audit = false;       //!< --audit: static race audit (ParSim)
    std::string level;        //!< "" when absent
    uint64_t seed = 0;        //!< --seed, 0 when absent
    bool seed_set = false;    //!< --seed was given explicitly
    std::string traffic;      //!< --traffic pattern name, "" when absent
    uint64_t cycles = 0;      //!< --cycles, 0 when absent
    std::string vcd;          //!< --vcd path, "" when absent
    std::string checkpoint_path;    //!< --checkpoint path, "" = off
    uint64_t checkpoint_every = 0;  //!< cycles between checkpoints
    std::string resume;             //!< --resume path, "" when absent
    std::string listen;             //!< --listen socket path, "" absent
    int jobs = 0;                   //!< --jobs budget, 0 when absent
    std::vector<std::string> positional;

    /** Parse argv (argv[0] is skipped); see the file comment. */
    static SimOptions parse(int argc, char **argv);

    /** First positional that parses as a positive integer, or @p dflt. */
    int intArg(int dflt) const;

    /** One-line usage fragment for the common options. */
    static const char *usage();

    /** The full option table --help prints. */
    static const char *helpTable();
};

} // namespace stdlib
} // namespace cmtl

#endif // CMTL_STDLIB_OPTIONS_H
