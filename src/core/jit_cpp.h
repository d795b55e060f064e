/**
 * @file
 * The SimJIT compile/wrap stage: turn emitted C++ into callable code.
 *
 * Mirrors PyMTL's SimJIT pipeline: the generated source is compiled
 * with the system C++ compiler into a shared library, loaded with
 * dlopen, and its kernels (ir_cpp.h) bound as function pointers.
 * Compiled libraries are cached on disk, the analog of SimJIT-RTL's
 * translation cache: a warm cache converts the (dominant) compile
 * overhead into a one-time cost. The source holds only per-type
 * kernels, so every simulator with the same program set (cpp-block
 * or cpp-design, sequential or ParSim) hits one cache entry.
 *
 * Cache key: FNV-1a over a cache-format version tag, the compiler
 * version (g++ -dumpfullversion -dumpversion), the exact flag string
 * and the source text. Hashing only the source would silently reuse a
 * stale .so after a toolchain upgrade or a flag change; folding all
 * four in makes every such change miss cleanly. The format version is
 * also part of the file name (cmtl_v2_<hash>.so), so entries written
 * under an older scheme are never consulted again.
 */

#ifndef CMTL_CORE_JIT_CPP_H
#define CMTL_CORE_JIT_CPP_H

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace cmtl {

/** A loaded specialized library. Owns the dlopen handle (move-only). */
class CppJitLibrary
{
  public:
    /** `cmtl_k<p>(w, rows, consts, n)`: program p over n rows. */
    using KernelFn = void (*)(uint64_t *, const int32_t *,
                              const uint64_t *, int);

    bool loaded() const { return handle_ != nullptr; }
    KernelFn kernel(int p) const { return kernels_[p]; }

    bool cacheHit() const { return cache_hit_; }
    double compileSeconds() const { return compile_seconds_; }
    double wrapSeconds() const { return wrap_seconds_; }

  private:
    friend class CppJit;
    struct Close
    {
        void operator()(void *handle) const;
    };
    std::unique_ptr<void, Close> handle_;
    std::vector<KernelFn> kernels_;
    bool cache_hit_ = false;
    double compile_seconds_ = 0.0;
    double wrap_seconds_ = 0.0;
};

/** Compiles and loads emitted specializer source. */
class CppJit
{
  public:
    /**
     * Extra flags perfbench records as its cpp-design flags. Empty:
     * every backend compiles one translation unit with the base flags,
     * so that cpp-block and cpp-design share one library.
     */
    static constexpr const char *kWholeDesignFlags = "";
    /**
     * @param cache_dir directory for generated sources and cached .so
     *                  files; created (with parents) if missing.
     *                  Throws std::runtime_error when it cannot be
     *                  created.
     * @param use_cache reuse a previously compiled library when the
     *                  cache key matches
     * @param extra_flags appended to the base compile flags; part of
     *                  the cache key
     */
    explicit CppJit(std::string cache_dir = defaultCacheDir(),
                    bool use_cache = true, std::string extra_flags = "");

    /** True if a working C++ compiler is available on this host. */
    static bool compilerAvailable();

    /** Directory honouring $CMTL_JIT_CACHE, else /tmp/cmtl-jit-<uid>. */
    static std::string defaultCacheDir();

    /** Compiler version string folded into the cache key. */
    static std::string compilerVersion();

    /** The full flag string used for compiles (base + extra). */
    std::string flagString() const;

    /** Cache file this source would hit (for tests/diagnostics). */
    std::string cachePathFor(const std::string &source) const;

    /**
     * Cache size cap in bytes: $CMTL_JIT_CACHE_MAX_MB, default 256
     * MiB. The variable must be plain decimal digits whose MiB fit in
     * 64 bits; any other value prints a warning and keeps the
     * default. After every publish the cache is trimmed back under
     * the cap by deleting the least-recently-used entries (cache hits
     * refresh an entry's mtime).
     */
    static uint64_t cacheMaxBytes();

    /**
     * Delete least-recently-used cmtl_*.so entries from @p dir until
     * the total size fits @p max_bytes; @p keep is never deleted.
     * Exposed for the regression test.
     */
    static void evictCache(const std::string &dir, uint64_t max_bytes,
                           const std::string &keep);

    /**
     * Compile @p source (with @p nkernels kernels cmtl_k<p>) and bind
     * the kernel symbols. Throws std::runtime_error on compiler
     * failure or a missing symbol.
     */
    CppJitLibrary compile(const std::string &source, int nkernels);

  private:
    std::string cache_dir_;
    bool use_cache_;
    std::string extra_flags_;
};

} // namespace cmtl

#endif // CMTL_CORE_JIT_CPP_H
