/**
 * @file
 * SimFuzz shrinker: greedy delta-debugging over a diverging FuzzSpec.
 *
 * Works because of the generator's per-entity stream discipline
 * (fuzz.h): disabling entity j never changes the structure of any
 * surviving entity, so each trial run differs from the last only by
 * the removed logic. The loop is O(entities x passes) comparePair
 * runs, each at the (truncated) cycle budget.
 */

#include "fuzz.h"

#include <algorithm>
#include <stdexcept>

namespace cmtl {
namespace fuzz {

FuzzShrinkResult
FuzzShrinker::shrink(FuzzSpec spec)
{
    const DivergenceReport orig = runner_.comparePair(spec);
    if (!orig.diverged)
        throw std::runtime_error(
            "fuzz shrink: seed " + std::to_string(spec.seed) +
            " does not diverge under the given sides");

    FuzzShrinkResult res;
    res.first_cycle = orig.first_divergent_cycle;
    // A trial reproduces when it diverges the same way: by state, or
    // by a side throwing the same message.
    auto tryKeep = [&](FuzzSpec t) {
        ++res.tried;
        DivergenceReport rep = runner_.comparePair(t);
        if (!rep.diverged || rep.error != orig.error)
            return false;
        res.first_cycle = rep.first_divergent_cycle;
        spec = std::move(t);
        ++res.removed;
        return true;
    };

    // Phase 1: truncate the cycle budget to the first divergent cycle
    // — every later trial gets cheaper. A repro runs at least one
    // cycle, even when the sides differ before any.
    const uint64_t keep = std::max<uint64_t>(res.first_cycle, 1);
    if (keep < spec.cycles) {
        FuzzSpec t = spec;
        t.cycles = keep;
        tryKeep(std::move(t));
    }

    // Phase 2: greedy entity removal to a fixed point. A removal is
    // kept when the divergence still reproduces without the entity.
    FuzzCounts counts = fuzzCounts(spec.seed);
    auto tryOff = [&](std::vector<int> FuzzSpec::*mask, int id) {
        FuzzSpec t = spec;
        (t.*mask).push_back(id);
        return tryKeep(std::move(t));
    };
    bool changed = true;
    while (changed) {
        changed = false;
        for (int i = 0; i < counts.comb; ++i)
            if (!spec.combOff(i))
                changed |= tryOff(&FuzzSpec::comb_off, i);
        for (int i = 0; i < counts.tick; ++i)
            if (!spec.tickOff(i))
                changed |= tryOff(&FuzzSpec::tick_off, i);
        for (int i = 0; i < counts.stim; ++i)
            if (!spec.stimOff(i))
                changed |= tryOff(&FuzzSpec::stim_off, i);
    }

    // The minimized case is a detector regression by construction.
    spec.expect = 1;
    res.spec = std::move(spec);
    return res;
}

} // namespace fuzz
} // namespace cmtl
