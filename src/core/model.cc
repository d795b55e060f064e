#include "model.h"

#include <algorithm>
#include <numeric>
#include <stdexcept>
#include <string_view>

namespace cmtl {

// ---------------------------------------------------------------- Signal

Signal::Signal(Model *owner, std::string name, int nbits, SignalDir dir)
    : owner_(owner), name_(std::move(name)), nbits_(nbits), dir_(dir)
{
    if (nbits < 1)
        throw std::invalid_argument("signal '" + name_ + "': width < 1");
    if (owner_)
        owner_->registerSignal(this);
}

std::string
Signal::fullName() const
{
    return owner_ ? owner_->fullName() + "." + name_ : name_;
}

Bits
Signal::read() const
{
    if (!access_)
        throw std::logic_error("read of '" + fullName() +
                               "' outside a simulation");
    return access_->read(*this);
}

void
Signal::setValue(const Bits &v)
{
    if (!access_)
        throw std::logic_error("write of '" + fullName() +
                               "' outside a simulation");
    access_->write(*this, v);
}

void
Signal::setValue(uint64_t v)
{
    setValue(Bits(nbits_, v));
}

void
Signal::writeNext(const Bits &v)
{
    if (!access_)
        throw std::logic_error("write of '" + fullName() +
                               "' outside a simulation");
    access_->writeNext(*this, v);
}

// -------------------------------------------------------------- MemArray

MemArray::MemArray(Model *owner, std::string name, int nbits, int depth)
    : owner_(owner), name_(std::move(name)), nbits_(nbits), depth_(depth)
{
    if (nbits < 1 || nbits > 64)
        throw std::invalid_argument("array '" + name_ +
                                    "': element width must be 1..64");
    if (depth < 2 || (depth & (depth - 1)) != 0)
        throw std::invalid_argument(
            "array '" + name_ + "': depth must be a power of two >= 2");
    if (owner_)
        owner_->registerArray(this);
}

std::string
MemArray::fullName() const
{
    return owner_ ? owner_->fullName() + "." + name_ : name_;
}

// ----------------------------------------------------------------- Model

Model::Model(Model *parent, std::string name)
    : parent_(parent), name_(std::move(name)),
      own_tree_(parent ? nullptr : std::make_unique<Tree>()),
      tree_(parent ? parent->tree_ : own_tree_.get()),
      reset(this, "reset", 1)
{
    if (parent_)
        parent_->children_.push_back(this);
}

std::string
Model::fullName() const
{
    return parent_ ? parent_->fullName() + "." + name_ : name_;
}

void
Model::connect(Signal &a, Signal &b)
{
    if (a.nbits() != b.nbits()) {
        throw std::invalid_argument(
            "connect width mismatch: " + a.fullName() + " (" +
            std::to_string(a.nbits()) + "b) vs " + b.fullName() + " (" +
            std::to_string(b.nbits()) + "b)");
    }
    connections_.emplace_back(&a, &b);
}

void
Model::tickFl(const std::string &name, std::function<void()> fn,
              std::vector<Signal *> writes)
{
    lambda_blocks_.push_back(LambdaDecl{BlockKind::TickFl, name,
                                        std::move(fn), {},
                                        std::move(writes)});
}

void
Model::tickCl(const std::string &name, std::function<void()> fn,
              std::vector<Signal *> writes)
{
    lambda_blocks_.push_back(LambdaDecl{BlockKind::TickCl, name,
                                        std::move(fn), {},
                                        std::move(writes)});
}

BlockBuilder &
Model::addIrBlock(const std::string &name, bool sequential)
{
    IrBlock &block = tree_->irBlocks.emplace_back(
        IrBlock{name, sequential, &tree_->arena, {}, {}});
    ir_blocks_.push_back(&block);
    return tree_->builders.emplace_back(&block, &tree_->arena);
}

BlockBuilder &
Model::tickRtl(const std::string &name)
{
    return addIrBlock(name, /*sequential=*/true);
}

BlockBuilder &
Model::combinational(const std::string &name)
{
    return addIrBlock(name, /*sequential=*/false);
}

void
Model::combLambda(const std::string &name, std::function<void()> fn,
                  std::vector<Signal *> reads, std::vector<Signal *> writes)
{
    lambda_blocks_.push_back(LambdaDecl{BlockKind::CombLambda, name,
                                        std::move(fn), std::move(reads),
                                        std::move(writes)});
}

// ------------------------------------------------------------ Elaborator

namespace {

/** Union-find over dense signal indices. */
class UnionFind
{
  public:
    explicit UnionFind(size_t n) : parent_(n)
    {
        std::iota(parent_.begin(), parent_.end(), 0);
    }

    int
    find(int x)
    {
        while (parent_[x] != x) {
            parent_[x] = parent_[parent_[x]];
            x = parent_[x];
        }
        return x;
    }

    void unite(int a, int b) { parent_[find(a)] = find(b); }

  private:
    std::vector<int> parent_;
};

} // namespace

/** Performs elaboration of a model hierarchy (framework internal). */
class Elaborator
{
  public:
    std::shared_ptr<Elaboration>
    run(Model *top)
    {
        auto elab = std::make_shared<Elaboration>();
        elab->top = top;
        collectModels(top, elab->models);

        // Each model's full name and depth, once, parents first.
        const size_t nmodels = elab->models.size();
        names_.resize(nmodels);
        std::vector<int> depth(nmodels, 0);
        for (size_t i = 0; i < nmodels; ++i) {
            Model *m = elab->models[i];
            m->preorder_ = static_cast<int>(i);
            if (const Model *p = m->parent()) {
                names_[i] = names_[p->preorder_] + "." + m->instName();
                depth[i] = depth[p->preorder_] + 1;
            } else {
                names_[i] = m->instName();
            }
        }

        // Collect signals and assign dense ids, which each signal
        // holds in its net id until the nets are numbered.
        for (Model *m : elab->models) {
            for (Signal *sig : m->ownSignals()) {
                sig->setNetId(static_cast<int>(elab->signals.size()));
                elab->signals.push_back(sig);
            }
        }
        auto index = [&](const Signal *sig) {
            const int i = sig->netId();
            if (i < 0 || i >= static_cast<int>(elab->signals.size()) ||
                elab->signals[i] != sig)
                throw std::logic_error("connection to '" + sig->fullName() +
                                       "', which is outside the design");
            return i;
        };

        // Resolve connectivity (including implicit reset chaining).
        UnionFind uf(elab->signals.size());
        for (Model *m : elab->models) {
            for (const auto &[a, b] : m->ownConnections())
                uf.unite(index(a), index(b));
            if (m->parent())
                uf.unite(index(&m->reset), index(&m->parent()->reset));
        }

        // Build nets from union-find roots. Each is named after its
        // first shallowest member signal.
        std::vector<int> root_to_net(elab->signals.size(), -1);
        std::vector<const Signal *> named;
        for (size_t i = 0; i < elab->signals.size(); ++i) {
            Signal *sig = elab->signals[i];
            int &id = root_to_net[uf.find(static_cast<int>(i))];
            if (id < 0) {
                id = static_cast<int>(elab->nets.size());
                Net net;
                net.id = id;
                net.nbits = sig->nbits();
                elab->nets.push_back(std::move(net));
                named.push_back(sig);
            }
            Net &net = elab->nets[id];
            if (net.nbits != sig->nbits())
                throw std::logic_error("net width mismatch at " +
                                       sig->fullName());
            net.signals.push_back(sig);
            sig->setNetId(id);
            if (depth[sig->owner()->preorder_] <
                depth[named[id]->owner()->preorder_])
                named[id] = sig;
        }
        for (Net &net : elab->nets) {
            const Signal *sig = named[net.id];
            net.name = names_[sig->owner()->preorder_] + "." + sig->name();
        }

        // Collect memory arrays.
        for (Model *m : elab->models) {
            for (MemArray *array : m->ownArrays()) {
                array->setArrayId(static_cast<int>(elab->arrays.size()));
                elab->arrays.push_back(array);
            }
        }

        collectBlocks(elab.get());
        scheduleBlocks(elab.get());
        return elab;
    }

  private:
    void
    collectModels(Model *m, std::vector<Model *> &out)
    {
        out.push_back(m);
        for (Model *c : m->children())
            collectModels(c, out);
    }

    void
    collectBlocks(Elaboration *elab)
    {
        // Shapes are interned by their words: the hash finds the
        // candidates, and a full compare decides. A shape's first block
        // gives its base literals.
        IrShape shape;
        std::vector<std::vector<int32_t>> codes;
        std::unordered_multimap<size_t, int> shape_of;
        auto internShape = [&] {
            const size_t h = std::hash<std::string_view>{}(std::string_view(
                reinterpret_cast<const char *>(shape.code.data()),
                shape.code.size() * sizeof(int32_t)));
            auto [lo, hi] = shape_of.equal_range(h);
            for (auto it = lo; it != hi; ++it) {
                if (codes[it->second] == shape.code)
                    return it->second;
            }
            const int id = static_cast<int>(codes.size());
            shape_of.emplace(h, id);
            codes.push_back(shape.code);
            elab->irShapes.push_back(
                {static_cast<int>(shape.operands.size()),
                 static_cast<int>(shape.literals.size()),
                 static_cast<int>(elab->irLiterals.size())});
            elab->irLiterals.insert(elab->irLiterals.end(),
                                    shape.literals.begin(),
                                    shape.literals.end());
            return id;
        };
        for (Model *m : elab->models) {
            for (const auto &decl : m->lambda_blocks_) {
                ElabBlock blk;
                blk.kind = decl.kind;
                blk.name = names_[m->preorder_] + "." + decl.name;
                blk.model = m;
                blk.fn = decl.fn;
                for (Signal *sig : decl.reads)
                    blk.reads.push_back(sig->netId());
                for (Signal *sig : decl.writes)
                    blk.writes.push_back(sig->netId());
                dedupNets(blk.reads);
                dedupNets(blk.writes);
                elab->blocks.push_back(std::move(blk));
            }
            for (const IrBlock *ir : m->ownIrBlocks()) {
                ElabBlock blk;
                blk.kind =
                    ir->sequential ? BlockKind::TickIr : BlockKind::CombIr;
                blk.name = names_[m->preorder_] + "." + ir->name;
                blk.model = m;
                blk.ir = ir;
                const IrBlockSummary sum = irSummarize(*ir, &shape);
                blk.weight = std::max<long>(1, sum.nodes);
                blk.widest = sum.widest;
                blk.shape = internShape();
                blk.operandsAt = static_cast<int>(elab->irOperands.size());
                elab->irOperands.insert(elab->irOperands.end(),
                                        shape.operands.begin(),
                                        shape.operands.end());
                const uint64_t *base =
                    elab->irLiterals.data() +
                    elab->irShapes[blk.shape].literalsAt;
                blk.patchesAt =
                    static_cast<int>(elab->irLiteralPatches.size());
                for (size_t i = 0; i < shape.literals.size(); ++i) {
                    if (shape.literals[i] != base[i])
                        elab->irLiteralPatches.push_back(
                            {static_cast<int32_t>(i), shape.literals[i]});
                }
                blk.patches = static_cast<int>(
                    elab->irLiteralPatches.size() - blk.patchesAt);
                for (Signal *sig : sum.reads)
                    blk.reads.push_back(sig->netId());
                for (Signal *sig : sum.writes) {
                    blk.writes.push_back(sig->netId());
                    if (ir->sequential)
                        elab->nets[sig->netId()].floppedStatic = true;
                }
                for (MemArray *array : sum.arrayReads)
                    blk.reads.push_back(
                        elab->arrayToken(array->arrayId()));
                for (MemArray *array : sum.arrayWrites)
                    blk.writes.push_back(
                        elab->arrayToken(array->arrayId()));
                dedupNets(blk.reads);
                dedupNets(blk.writes);
                elab->blocks.push_back(std::move(blk));
            }
        }
        elab->irOperands.shrink_to_fit();
        elab->irLiterals.shrink_to_fit();
        elab->irLiteralPatches.shrink_to_fit();
    }

    static void
    dedupNets(std::vector<int> &v)
    {
        std::sort(v.begin(), v.end());
        v.erase(std::unique(v.begin(), v.end()), v.end());
    }

    void
    scheduleBlocks(Elaboration *elab)
    {
        const int nblocks = static_cast<int>(elab->blocks.size());
        std::vector<int> comb_blocks;
        for (int i = 0; i < nblocks; ++i) {
            const ElabBlock &blk = elab->blocks[i];
            if (isTick(blk.kind))
                elab->tickOrder.push_back(i);
            else
                comb_blocks.push_back(i);
        }

        // net -> comb blocks reading it (event-driven sensitivity).
        // Array tokens share the id space above nets.size().
        elab->netReaders.assign(elab->nets.size() + elab->arrays.size(),
                                {});
        for (int i : comb_blocks) {
            for (int net : elab->blocks[i].reads)
                elab->netReaders[net].push_back(i);
        }

        // Topological order of comb blocks: edge writer -> reader.
        const auto &blocks = elab->blocks;
        const FlatLists writers(
            static_cast<int>(elab->netReaders.size()), [&](auto add) {
                for (int i : comb_blocks) {
                    for (int net : blocks[i].writes)
                        add(net, i);
                }
            });
        const FlatLists edges(nblocks, [&](auto add) {
            for (int i : comb_blocks) {
                for (int net : blocks[i].reads) {
                    for (int w : writers[net]) {
                        if (w != i)
                            add(w, i);
                    }
                }
            }
        });
        std::vector<int> indeg(nblocks, 0);
        for (int i : edges.items())
            ++indeg[i];
        std::vector<int> ready;
        for (int i : comb_blocks) {
            if (indeg[i] == 0)
                ready.push_back(i);
        }
        while (!ready.empty()) {
            int blk = ready.back();
            ready.pop_back();
            elab->combOrder.push_back(blk);
            for (int next : edges[blk]) {
                if (--indeg[next] == 0)
                    ready.push_back(next);
            }
        }
        if (elab->combOrder.size() != comb_blocks.size())
            elab->hasCombCycle = true;
    }

    /** Each model's full name, by pre-order index. */
    std::vector<std::string> names_;
};

std::shared_ptr<Elaboration>
Model::elaborate()
{
    if (parent_)
        throw std::logic_error("elaborate() must be called on the top model");
    return Elaborator().run(this);
}

} // namespace cmtl
