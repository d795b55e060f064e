/**
 * @file
 * NetAccessor: the one net access helper behind the Simulator
 * snap/poke hooks.
 *
 * Both execution kernels used to duplicate the SimSnap state-capture
 * plumbing — readNetNext / pokeNet / pokeNetNext / dynamicFlopNets —
 * each against its own storage shape (sequential: arena and/or boxed
 * hybrid ownership; ParSim: owner-replica reads, all-replica writes).
 * The kernels now bind a NetAccessor to their storage once and
 * delegate, so SimSnap (snap.h), which drives these hooks through the
 * Simulator interface, sees one code path regardless of kernel,
 * or backend. All value movement goes through the store accessors.
 *
 * Threading: poke/readNext are coordinator-side snapshot operations —
 * the accessor is not for worker-thread use (ParSim reads route by
 * token owner, not by the calling worker's replica).
 */

#ifndef CMTL_CORE_ACCESSOR_H
#define CMTL_CORE_ACCESSOR_H

#include <functional>
#include <memory>
#include <vector>

#include "model.h"
#include "store.h"

namespace cmtl {

struct PartitionPlan;

class NetAccessor
{
  public:
    NetAccessor() = default;

    /**
     * Sequential-kernel binding: @p arena and/or @p boxed (either may
     * be null), with @p in_arena deciding hybrid ownership per token.
     */
    void bind(ArenaStore *arena, BoxedStore *boxed,
              std::function<bool(int)> in_arena);

    /**
     * ParSim binding: reads come from the token's home replica
     * (PartitionPlan::homeReplica), pokes keep every replica coherent.
     */
    void bindReplicas(std::vector<std::unique_ptr<ArenaStore>> *replicas,
                      const PartitionPlan *plan);

    /** Hook invoked when pokeNet actually changed a stored value (the
     *  kernel marks dirt / wakes readers there). */
    void onPokeChanged(std::function<void(int)> fn);

    /** Next-phase (flop shadow) value of a net. */
    Bits readNetNext(int net) const;
    /** Restore a net's current value (blocking-write semantics). */
    void pokeNet(int net, const Bits &value);
    /** Restore a net's next-phase value without flop registration. */
    void pokeNetNext(int net, const Bits &value);

    /** The dynamically registered subset of @p flop_nets: nets flopped
     *  at run time that elaboration did not mark static. */
    static std::vector<int> dynamicFlops(const Elaboration &elab,
                                         const std::vector<int> &flop_nets);

  private:
    ArenaStore *arena_ = nullptr;
    BoxedStore *boxed_ = nullptr;
    std::function<bool(int)> in_arena_;
    std::vector<std::unique_ptr<ArenaStore>> *replicas_ = nullptr;
    const PartitionPlan *plan_ = nullptr;
    std::function<void(int)> on_changed_;
};

} // namespace cmtl

#endif // CMTL_CORE_ACCESSOR_H
