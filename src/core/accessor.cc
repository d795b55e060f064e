#include "accessor.h"

#include "partition.h"

namespace cmtl {

void
NetAccessor::bind(ArenaStore *arena, BoxedStore *boxed,
                  std::function<bool(int)> in_arena)
{
    arena_ = arena;
    boxed_ = boxed;
    in_arena_ = std::move(in_arena);
    replicas_ = nullptr;
    plan_ = nullptr;
}

void
NetAccessor::bindReplicas(
    std::vector<std::unique_ptr<ArenaStore>> *replicas,
    const PartitionPlan *plan)
{
    replicas_ = replicas;
    plan_ = plan;
    arena_ = nullptr;
    boxed_ = nullptr;
    in_arena_ = nullptr;
}

void
NetAccessor::onPokeChanged(std::function<void(int)> fn)
{
    on_changed_ = std::move(fn);
}

Bits
NetAccessor::readNetNext(int net) const
{
    if (replicas_)
        return (*replicas_)[plan_->homeReplica(net)]->readNext(net);
    return in_arena_(net) ? arena_->readNext(net)
                          : boxed_->readNext(net);
}

void
NetAccessor::pokeNet(int net, const Bits &value)
{
    bool changed;
    if (replicas_) {
        // Keep every replica coherent so any reader island sees the
        // restored value next phase; change detection runs against the
        // home (authoritative) copy.
        changed = (*replicas_)[plan_->homeReplica(net)]->write(net, value);
        for (auto &replica : *replicas_)
            replica->write(net, value);
    } else {
        changed = in_arena_(net) ? arena_->write(net, value)
                                 : boxed_->write(net, value);
    }
    if (changed && on_changed_)
        on_changed_(net);
}

void
NetAccessor::pokeNetNext(int net, const Bits &value)
{
    if (replicas_) {
        for (auto &replica : *replicas_)
            replica->writeNext(net, value);
        return;
    }
    if (in_arena_(net))
        arena_->writeNext(net, value);
    else
        boxed_->writeNext(net, value);
}

std::vector<int>
NetAccessor::dynamicFlops(const Elaboration &elab,
                          const std::vector<int> &flop_nets)
{
    std::vector<int> out;
    for (int net : flop_nets)
        if (!elab.nets[net].floppedStatic)
            out.push_back(net);
    return out;
}

} // namespace cmtl
