#include "core/lut_gemm.h"

#include <algorithm>
#include <optional>

#include "common/logging.h"
#include "core/execution_context.h"
#include "core/parallel.h"
#include "core/simd.h"

namespace figlut {

namespace {

/**
 * Rows per Simd work item (M-tile). Outputs do not depend on the tile
 * height, so it is a constant rather than an option.
 */
constexpr std::size_t kBlockRows = 64;

/** Span-walk kernel types of the SimdKernels table (core/simd.h). */
using FpSpanKernel = decltype(SimdKernels::accumFpSpanFp32);
using IntSpanKernel = decltype(SimdKernels::accumIntSpan);

/** Column range, chunk count, and flat chunk base of one scale group. */
struct GroupGeom
{
    std::size_t c0 = 0;       ///< first column
    std::size_t c1 = 0;       ///< one past last column
    std::size_t chunks = 0;   ///< mu-chunks in the group (tail padded)
    std::size_t chunkBase = 0;///< first global chunk index
};

/**
 * Flat LUT arena: contiguous chunk slabs with a fixed 2^mu stride.
 * Every slab stores the *decoded* full table — in half-LUT mode the
 * hFFLUT sign decode is applied once per entry at build time — so the
 * hot loop's read is a single branch-free index. The buffer is grown
 * once and reused across (batch, group) iterations instead of
 * reallocating per group.
 */
template <typename T>
struct LutArena
{
    std::vector<T> values;
    std::size_t stride = 0;

    void
    ensure(std::size_t chunks, std::size_t entryStride)
    {
        stride = entryStride;
        if (values.size() < chunks * entryStride)
            values.resize(chunks * entryStride);
    }

    T *chunk(std::size_t ch) { return values.data() + ch * stride; }
    const T *
    chunk(std::size_t ch) const
    {
        return values.data() + ch * stride;
    }
};

/**
 * Reusable per-worker scratch: LUT arenas, the mu-element chunk
 * staging slots, and the Simd backend's tile accumulators. One
 * Scratch lives per worker thread (or per Reference call) so nothing
 * here is shared; reuse keeps the hot loops allocation-free.
 */
struct Scratch
{
    LutArena<double> fp;           ///< FP group arena
    LutArena<int64_t> ig;          ///< integer group arena
    std::vector<double> xs;        ///< mu activation slots of one chunk
    std::vector<int64_t> ms;       ///< mu mantissa slots of one chunk
    std::vector<double> groupVals; ///< group activations for preAlign
    std::vector<double> fpPsum;    ///< packed tile: per-row plane sums
    std::vector<int64_t> intPsum;  ///< packed tile: integer plane sums
    std::vector<double> rowAcc;    ///< packed tile: per-row group accum
    double sumx = 0.0;             ///< group sum(x) for the offset term
    int64_t sumMant = 0;           ///< integer-path mantissa sum
    double scale = 1.0;            ///< integer-path shared scale
};

/**
 * Simd-backend per-column tables: the LUT arenas of every chunk of
 * one activation column (indexed by global chunk), plus the per-group
 * VPU-side terms. Built exactly once per (batch column) and then read
 * by every row tile.
 */
struct FpColumnTables
{
    LutArena<double> arena;
    std::vector<double> sumx; ///< per group
};

struct IntColumnTables
{
    LutArena<int64_t> arena;
    std::vector<int64_t> sumMant; ///< per group
    std::vector<double> scale;    ///< per group
};

/**
 * Everything one lutGemm call reuses across its (batch, group) and
 * column iterations: the submitting thread's scratch plus the Simd
 * backend's column tables. Owned per call by default, or across calls
 * by an ExecutionContext so the arenas stop being reallocated under
 * repeated traffic.
 */
struct CallWorkspace
{
    Scratch scratch;
    FpColumnTables fp;
    IntColumnTables ig;
};

/** Key for (row, plane) over the chunk starting at c0 (tail padded 1). */
uint32_t
chunkKey(const BcqTensor &w, int plane, std::size_t r, std::size_t c0,
         std::size_t c_end, int mu)
{
    uint32_t key = 0;
    for (int j = 0; j < mu; ++j) {
        const std::size_t c = c0 + static_cast<std::size_t>(j);
        // Padding columns pair a zero activation with weight +1, which
        // contributes exactly zero in both FP and integer domains.
        const uint32_t bit =
            c < c_end
                ? w.planes[static_cast<std::size_t>(plane)](r, c)
                : 1u;
        key = (key << 1) | bit;
    }
    return key;
}

/**
 * Shared kernel state for both backends. Reference executes
 * processRows(): per (column, group) it builds the LUT arena and
 * gathers each row's key bits from the bit planes. Simd instead builds
 * each column's arenas once and reads pre-packed [plane][chunk][row]
 * key arrays, via accumulateTile*().
 *
 * Bit-identity across backends holds because each output element
 * y(r, b) is touched only by the work item owning row r, and its
 * accumulation order (columns, then groups, then planes/chunks) and
 * every intermediate value are independent of the traversal: LUT
 * arena entries equal the (half-)LUT decoded reads of the Reference
 * tables entry for entry.
 *
 * Counting is per backend: the Reference traversal increments the
 * counters per operation (per LUT read, per build), while the Simd
 * traversal never touches them inside the loops — the caller adds the
 * closed-form totals afterwards. The differential tests prove the two
 * independent tallies equal.
 */
class LutGemmKernel
{
  public:
    LutGemmKernel(const BcqTensor &weights, const MatrixD &xq,
                  const LutGemmConfig &config)
        : w_(weights), xq_(xq), config_(config)
    {
        if (config_.useGeneratorTree && config_.mu >= 2)
            generator_.emplace(config_.mu, config_.arith);
        addsPerGeneration_ =
            generator_
                ? generator_->stats().treeAdds
                : static_cast<uint64_t>(lutEntries(config_.mu)) *
                      static_cast<uint64_t>(config_.mu - 1);

        // Group geometry, hoisted out of every per-(batch, group) and
        // per-row loop: computed once per kernel.
        const std::size_t groups = w_.groupsPerRow();
        geom_.reserve(groups);
        std::size_t base = 0;
        for (std::size_t g = 0; g < groups; ++g) {
            GroupGeom gg;
            gg.c0 = g * w_.groupSize;
            gg.c1 = std::min(w_.cols, gg.c0 + w_.groupSize);
            gg.chunks = (gg.c1 - gg.c0 +
                         static_cast<std::size_t>(config_.mu) - 1) /
                        static_cast<std::size_t>(config_.mu);
            gg.chunkBase = base;
            base += gg.chunks;
            geom_.push_back(gg);
        }
        totalChunks_ = base;
    }

    std::size_t groups() const { return geom_.size(); }
    std::size_t totalChunks() const { return totalChunks_; }
    uint64_t addsPerGeneration() const { return addsPerGeneration_; }

    void
    processRows(BlockRange rows, MatrixD &y, LutGemmCounters &cnt,
                Scratch &s) const
    {
        const std::size_t batch = xq_.cols();
        for (std::size_t b = 0; b < batch; ++b) {
            for (std::size_t g = 0; g < geom_.size(); ++g) {
                const GroupGeom &gg = geom_[g];
                if (!config_.preAligned) {
                    buildFpGroup(b, gg, s, cnt);
                    accumulateFp(rows, b, g, gg, s, y, cnt);
                } else {
                    buildIntGroup(b, gg, s, cnt);
                    accumulateInt(rows, b, g, gg, s, y, cnt);
                }
            }
        }
    }

    /** Build all LUT arenas + VPU terms of activation column b. */
    void
    buildFpColumn(std::size_t b, FpColumnTables &t, Scratch &s) const
    {
        t.arena.ensure(totalChunks_, lutEntries(config_.mu));
        t.sumx.assign(geom_.size(), 0.0);
        for (std::size_t g = 0; g < geom_.size(); ++g) {
            const GroupGeom &gg = geom_[g];
            for (std::size_t ch = 0; ch < gg.chunks; ++ch) {
                loadChunkValues(b, gg, ch, s.xs);
                fillFpChunk(s.xs.data(), t.arena.chunk(gg.chunkBase + ch));
            }
            if (w_.hasOffset) {
                double sx = 0.0;
                for (std::size_t c = gg.c0; c < gg.c1; ++c)
                    sx = fpAdd(sx, xq_(c, b), config_.arith);
                t.sumx[g] = sx;
            }
        }
    }

    void
    buildIntColumn(std::size_t b, IntColumnTables &t, Scratch &s) const
    {
        t.arena.ensure(totalChunks_, lutEntries(config_.mu));
        t.sumMant.assign(geom_.size(), 0);
        t.scale.assign(geom_.size(), 1.0);
        for (std::size_t g = 0; g < geom_.size(); ++g) {
            const GroupGeom &gg = geom_[g];
            const AlignedBlock block = alignGroup(b, gg, s);
            for (std::size_t ch = 0; ch < gg.chunks; ++ch) {
                loadChunkMantissas(block, ch, s.ms);
                fillIntChunk(s.ms.data(),
                             t.arena.chunk(gg.chunkBase + ch));
            }
            if (w_.hasOffset) {
                int64_t sm = 0;
                for (const auto mv : block.mantissas)
                    sm += mv;
                t.sumMant[g] = sm;
            }
            t.scale[g] = block.scale();
        }
    }

    /**
     * Accumulate one row tile of activation column b, per (group,
     * plane): the RAC walk over the group's chunks, the alpha scale,
     * then the offset term and the y fold. With a `span` kernel
     * (core/simd.h) one call walks every chunk of the group: the
     * group's arena slabs are contiguous (stride t.arena.stride) and
     * one plane's per-chunk key arrays are pk.rows apart (packing.h
     * layout note). Without one — the Fp16/Bf16 accumulate formats,
     * whose per-add rounding has no hardware vector equivalent — the
     * scalar loop does one branch-free arena read per pre-packed key.
     * Rows are independent lanes and each row's
     * operation order (chunks, then planes, then offset, then the y
     * fold) is the Reference one, so outputs are bit-identical either
     * way.
     */
    void
    accumulateTileFp(BlockRange rows, std::size_t b,
                     const PackedLutKeys &pk, const FpColumnTables &t,
                     FpSpanKernel span, MatrixD &y, Scratch &s) const
    {
        const int q = w_.bits;
        const FpArith arith = config_.arith;
        const std::size_t tile = rows.size();
        s.fpPsum.resize(tile);
        s.rowAcc.resize(tile);
        double *psum = s.fpPsum.data();
        double *acc = s.rowAcc.data();
        for (std::size_t g = 0; g < geom_.size(); ++g) {
            const GroupGeom &gg = geom_[g];
            std::fill(acc, acc + tile, 0.0);
            for (int i = 0; i < q; ++i) {
                std::fill(psum, psum + tile, 0.0);
                if (span != nullptr) {
                    span(psum, t.arena.chunk(gg.chunkBase),
                         t.arena.stride,
                         pk.chunkKeys(i, gg.chunkBase) + rows.begin,
                         pk.rows, gg.chunks, tile);
                } else {
                    for (std::size_t ch = 0; ch < gg.chunks; ++ch) {
                        const std::size_t chunk = gg.chunkBase + ch;
                        const uint32_t *keys =
                            pk.chunkKeys(i, chunk) + rows.begin;
                        const double *lut = t.arena.chunk(chunk);
                        for (std::size_t r = 0; r < tile; ++r)
                            psum[r] = fpAdd(psum[r], lut[keys[r]], arith);
                    }
                }
                const auto &alpha =
                    w_.alphas[static_cast<std::size_t>(i)];
                for (std::size_t r = 0; r < tile; ++r) {
                    acc[r] = fpAdd(acc[r],
                                   fpRound(alpha(rows.begin + r, g) *
                                               psum[r],
                                           arith),
                                   arith);
                }
            }
            if (w_.hasOffset) {
                for (std::size_t r = 0; r < tile; ++r) {
                    acc[r] = fpAdd(
                        acc[r],
                        fpRound(w_.offsets(rows.begin + r, g) * t.sumx[g],
                                arith),
                        arith);
                }
            }
            for (std::size_t r = 0; r < tile; ++r)
                y(rows.begin + r, b) =
                    fpAdd(y(rows.begin + r, b), acc[r], arith);
        }
    }

    /**
     * The integer-path (FIGLUT-I) twin of accumulateTileFp(). Integer
     * sums are exact, so every ISA's span kernel applies and there is
     * no scalar fallback.
     */
    void
    accumulateTileInt(BlockRange rows, std::size_t b,
                      const PackedLutKeys &pk, const IntColumnTables &t,
                      IntSpanKernel span, MatrixD &y, Scratch &s) const
    {
        const int q = w_.bits;
        const FpArith arith = config_.arith;
        const std::size_t tile = rows.size();
        s.intPsum.resize(tile);
        s.rowAcc.resize(tile);
        int64_t *psum = s.intPsum.data();
        double *acc = s.rowAcc.data();
        for (std::size_t g = 0; g < geom_.size(); ++g) {
            const GroupGeom &gg = geom_[g];
            const double scale = t.scale[g];
            std::fill(acc, acc + tile, 0.0);
            for (int i = 0; i < q; ++i) {
                std::fill(psum, psum + tile, int64_t{0});
                span(psum, t.arena.chunk(gg.chunkBase), t.arena.stride,
                     pk.chunkKeys(i, gg.chunkBase) + rows.begin, pk.rows,
                     gg.chunks, tile);
                const auto &alpha =
                    w_.alphas[static_cast<std::size_t>(i)];
                for (std::size_t r = 0; r < tile; ++r) {
                    acc[r] = fpAdd(
                        acc[r],
                        fpRound(alpha(rows.begin + r, g) *
                                    (static_cast<double>(psum[r]) *
                                     scale),
                                arith),
                        arith);
                }
            }
            if (w_.hasOffset) {
                const double sumx =
                    static_cast<double>(t.sumMant[g]) * scale;
                for (std::size_t r = 0; r < tile; ++r) {
                    acc[r] = fpAdd(
                        acc[r],
                        fpRound(w_.offsets(rows.begin + r, g) * sumx,
                                arith),
                        arith);
                }
            }
            for (std::size_t r = 0; r < tile; ++r)
                y(rows.begin + r, b) =
                    fpAdd(y(rows.begin + r, b), acc[r], arith);
        }
    }

  private:
    /** Stage the padded mu-chunk of activations into s (reused). */
    void
    loadChunkValues(std::size_t b, const GroupGeom &gg, std::size_t ch,
                    std::vector<double> &xs) const
    {
        const int mu = config_.mu;
        xs.resize(static_cast<std::size_t>(mu));
        const std::size_t cBase =
            gg.c0 + ch * static_cast<std::size_t>(mu);
        for (int j = 0; j < mu; ++j) {
            const std::size_t c = cBase + static_cast<std::size_t>(j);
            xs[static_cast<std::size_t>(j)] =
                c < gg.c1 ? xq_(c, b) : 0.0;
        }
    }

    /** Stage the padded mu-chunk of aligned mantissas into s (reused). */
    void
    loadChunkMantissas(const AlignedBlock &block, std::size_t ch,
                       std::vector<int64_t> &ms) const
    {
        const int mu = config_.mu;
        ms.resize(static_cast<std::size_t>(mu));
        for (int j = 0; j < mu; ++j) {
            const std::size_t c = ch * static_cast<std::size_t>(mu) +
                                  static_cast<std::size_t>(j);
            ms[static_cast<std::size_t>(j)] =
                c < block.mantissas.size() ? block.mantissas[c] : 0;
        }
    }

    /** Pre-align one group's activations (integer path). */
    AlignedBlock
    alignGroup(std::size_t b, const GroupGeom &gg, Scratch &s) const
    {
        s.groupVals.resize(gg.c1 - gg.c0);
        for (std::size_t c = gg.c0; c < gg.c1; ++c)
            s.groupVals[c - gg.c0] = xq_(c, b);
        return preAlign(s.groupVals, config_.actFormat,
                        config_.alignFracBits);
    }

    /**
     * Fill one arena slab with the decoded full table for the chunk:
     * generator tree order when enabled, else direct enumeration with
     * the hFFLUT decode applied at build time in half-LUT mode. The
     * slab is bit-identical to the corresponding (half-)LUT reads.
     */
    void
    fillFpChunk(const double *xs, double *out) const
    {
        if (generator_) {
            generator_->generateFullInto(xs, out);
            return;
        }
        LutD::buildDirectInto(xs, config_.mu, config_.arith, out);
        if (config_.useHalfLut)
            expandHalfDecodeInPlace(out, config_.mu);
    }

    void
    fillIntChunk(const int64_t *ms, int64_t *out) const
    {
        if (generator_) {
            generator_->generateFullIntInto(ms, out);
            return;
        }
        LutI::buildDirectInto(ms, config_.mu, out);
        if (config_.useHalfLut)
            expandHalfDecodeInPlace(out, config_.mu);
    }

    void
    buildFpGroup(std::size_t b, const GroupGeom &gg, Scratch &s,
                 LutGemmCounters &cnt) const
    {
        s.fp.ensure(gg.chunks, lutEntries(config_.mu));
        for (std::size_t ch = 0; ch < gg.chunks; ++ch) {
            loadChunkValues(b, gg, ch, s.xs);
            fillFpChunk(s.xs.data(), s.fp.chunk(ch));
            // Accumulated after the generation it accounts for: the
            // counters always reflect completed builds.
            ++cnt.lutGenerations;
            cnt.generatorAdds += addsPerGeneration_;
        }
        // Offset needs sum(x) over the group (VPU side).
        s.sumx = 0.0;
        if (w_.hasOffset) {
            for (std::size_t c = gg.c0; c < gg.c1; ++c)
                s.sumx = fpAdd(s.sumx, xq_(c, b), config_.arith);
        }
    }

    void
    buildIntGroup(std::size_t b, const GroupGeom &gg, Scratch &s,
                  LutGemmCounters &cnt) const
    {
        const AlignedBlock block = alignGroup(b, gg, s);
        s.ig.ensure(gg.chunks, lutEntries(config_.mu));
        for (std::size_t ch = 0; ch < gg.chunks; ++ch) {
            loadChunkMantissas(block, ch, s.ms);
            fillIntChunk(s.ms.data(), s.ig.chunk(ch));
            ++cnt.lutGenerations;
            cnt.generatorAdds += addsPerGeneration_;
        }
        s.sumMant = 0;
        if (w_.hasOffset) {
            for (const auto mv : block.mantissas)
                s.sumMant += mv;
        }
        s.scale = block.scale();
    }

    void
    accumulateFp(BlockRange rows, std::size_t b, std::size_t g,
                 const GroupGeom &gg, const Scratch &s, MatrixD &y,
                 LutGemmCounters &cnt) const
    {
        const int mu = config_.mu;
        const int q = w_.bits;
        for (std::size_t r = rows.begin; r < rows.end; ++r) {
            double row_acc = 0.0;
            for (int i = 0; i < q; ++i) {
                double psum = 0.0;
                for (std::size_t ch = 0; ch < gg.chunks; ++ch) {
                    const uint32_t key =
                        chunkKey(w_, i, r, gg.c0 + ch * mu, gg.c1, mu);
                    psum = fpAdd(psum, s.fp.chunk(ch)[key],
                                 config_.arith);
                    ++cnt.lutReads;
                    ++cnt.racAccumulates;
                }
                const double alpha =
                    w_.alphas[static_cast<std::size_t>(i)](r, g);
                row_acc = fpAdd(row_acc,
                                fpRound(alpha * psum, config_.arith),
                                config_.arith);
                ++cnt.scaleMuls;
            }
            if (w_.hasOffset) {
                row_acc = fpAdd(
                    row_acc,
                    fpRound(w_.offsets(r, g) * s.sumx, config_.arith),
                    config_.arith);
                ++cnt.offsetOps;
            }
            y(r, b) = fpAdd(y(r, b), row_acc, config_.arith);
        }
    }

    void
    accumulateInt(BlockRange rows, std::size_t b, std::size_t g,
                  const GroupGeom &gg, const Scratch &s, MatrixD &y,
                  LutGemmCounters &cnt) const
    {
        const int mu = config_.mu;
        const int q = w_.bits;
        for (std::size_t r = rows.begin; r < rows.end; ++r) {
            double row_acc = 0.0;
            for (int i = 0; i < q; ++i) {
                int64_t psum = 0;
                for (std::size_t ch = 0; ch < gg.chunks; ++ch) {
                    const uint32_t key =
                        chunkKey(w_, i, r, gg.c0 + ch * mu, gg.c1, mu);
                    psum += s.ig.chunk(ch)[key];
                    ++cnt.lutReads;
                    ++cnt.racAccumulates;
                }
                const double alpha =
                    w_.alphas[static_cast<std::size_t>(i)](r, g);
                row_acc = fpAdd(
                    row_acc,
                    fpRound(alpha * (static_cast<double>(psum) *
                                     s.scale),
                            config_.arith),
                    config_.arith);
                ++cnt.scaleMuls;
            }
            if (w_.hasOffset) {
                const double sumx =
                    static_cast<double>(s.sumMant) * s.scale;
                row_acc = fpAdd(
                    row_acc,
                    fpRound(w_.offsets(r, g) * sumx, config_.arith),
                    config_.arith);
                ++cnt.offsetOps;
            }
            y(r, b) = fpAdd(y(r, b), row_acc, config_.arith);
        }
    }

    const BcqTensor &w_;
    const MatrixD &xq_;
    const LutGemmConfig &config_;
    std::optional<LutGenerator> generator_;
    uint64_t addsPerGeneration_ = 0;
    std::vector<GroupGeom> geom_;
    std::size_t totalChunks_ = 0;
};

/** Resolve the worker count, clamped to the number of row blocks. */
int
resolveWorkers(const LutGemmConfig &config, std::size_t m)
{
    const std::size_t blocks = (m + kBlockRows - 1) / kBlockRows;
    return static_cast<int>(std::min<std::size_t>(
        static_cast<std::size_t>(resolveThreadCount(config.threads)),
        std::max<std::size_t>(blocks, 1)));
}

/**
 * The pool of one Simd call: the context's persistent pool
 * when one is supplied, else a per-call pool in `local`. The per-call
 * default is deliberate for context-free callers: wait() and the
 * captured first exception are pool-global, so sharing a static pool
 * between concurrent lutGemm callers would entangle their completion
 * and error states (an ExecutionContext makes that single-client
 * contract explicit). The per-call pool clamps workers to the block
 * count — surplus threads would only idle-spin their spawn cost away —
 * while the context pool is sized by the thread knob alone so its size
 * stays stable across calls of different heights.
 */
ThreadPool &
acquirePool(ExecutionContext *ctx, const LutGemmConfig &config,
            std::size_t m, std::optional<ThreadPool> &local)
{
    if (ctx)
        return ctx->pool(config.threads);
    local.emplace(resolveWorkers(config, m));
    return *local;
}

/** Per-call workspace, or the context's persistent one. */
CallWorkspace &
acquireWorkspace(ExecutionContext *ctx,
                 std::optional<CallWorkspace> &local)
{
    if (ctx)
        return ctx->workspace<CallWorkspace>();
    local.emplace();
    return *local;
}

/**
 * The Simd backend: each activation column's LUT arenas are built
 * exactly once, on the submitting thread, and the column's row tiles
 * then stream through the pool, only reading them. The keys are
 * walked with the span kernels of the active ISA, resolved once and
 * shared read-only by the workers (tiles partition the rows, so y
 * needs no lock). Counters are not touched here: the caller adds the
 * closed-form totals.
 */
void
runSimdBackend(const LutGemmKernel &kernel, const PackedLutKeys &pk,
               const LutGemmConfig &config, std::size_t m,
               std::size_t batch, MatrixD &y, ExecutionContext *ctx)
{
    const SimdKernels &simd = simdKernels();
    const IntSpanKernel intSpan = simd.accumIntSpan;
    FpSpanKernel fpSpan = nullptr;
    if (config.arith == FpArith::Fp32)
        fpSpan = simd.accumFpSpanFp32;
    else if (config.arith == FpArith::Exact)
        fpSpan = simd.accumFpSpanExact;
    std::optional<ThreadPool> localPool;
    ThreadPool &pool = acquirePool(ctx, config, m, localPool);
    std::optional<CallWorkspace> localWs;
    CallWorkspace &ws = acquireWorkspace(ctx, localWs);
    for (std::size_t b = 0; b < batch; ++b) {
        if (!config.preAligned)
            kernel.buildFpColumn(b, ws.fp, ws.scratch);
        else
            kernel.buildIntColumn(b, ws.ig, ws.scratch);
        pool.parallelForBlocked(m, kBlockRows, [&, b](BlockRange rows) {
            static thread_local Scratch s;
            if (!config.preAligned)
                kernel.accumulateTileFp(rows, b, pk, ws.fp, fpSpan, y, s);
            else
                kernel.accumulateTileInt(rows, b, pk, ws.ig, intSpan, y,
                                         s);
        });
    }
}

/**
 * Closed-form operation counts: every counter is an exact function of
 * the tensor shape and the kernel's group/chunk geometry — both
 * backends build each (column, group) LUT set exactly once — so the
 * Simd backend derives them after the loops instead of paying per-read
 * increments. The differential tests prove these equal the Reference
 * backend's per-read counts.
 */
void
addClosedFormCounters(const BcqTensor &w, const LutGemmKernel &kernel,
                      std::size_t batch, LutGemmCounters &cnt)
{
    const auto rows64 = static_cast<uint64_t>(w.rows);
    const auto batch64 = static_cast<uint64_t>(batch);
    const auto chunks64 = static_cast<uint64_t>(kernel.totalChunks());
    const auto groups64 = static_cast<uint64_t>(kernel.groups());
    const auto bits64 = static_cast<uint64_t>(w.bits);

    const uint64_t builds = batch64 * chunks64;
    cnt.lutGenerations += builds;
    cnt.generatorAdds += builds * kernel.addsPerGeneration();

    const uint64_t reads = rows64 * bits64 * chunks64 * batch64;
    cnt.lutReads += reads;
    cnt.racAccumulates += reads;
    cnt.scaleMuls += rows64 * bits64 * groups64 * batch64;
    if (w.hasOffset)
        cnt.offsetOps += rows64 * groups64 * batch64;
}

MatrixD
lutGemmImpl(const BcqTensor &weights, const MatrixD &x,
            const LutGemmConfig &config, const PackedLutKeys *prepacked,
            LutGemmCounters *counters, ExecutionContext *ctx)
{
    if (const Status s = validateLutGemmConfig(config); !s.ok())
        fatal(s.message());
    if (x.rows() != weights.cols)
        fatal("LUT-GEMM shape mismatch: weights are ", weights.rows, "x",
              weights.cols, " but activations have ", x.rows(), " rows");
    if (prepacked) {
        if (config.backend != LutGemmBackend::Simd)
            fatal("pre-packed LUT keys require the Simd backend");
        if (prepacked->mu != config.mu ||
            prepacked->rows != weights.rows ||
            prepacked->cols != weights.cols ||
            prepacked->bits != weights.bits ||
            prepacked->groupSize != weights.groupSize)
            fatal("pre-packed LUT keys do not match the weights/config: ",
                  "packed (mu=", prepacked->mu, ", ", prepacked->rows,
                  "x", prepacked->cols, ", q=", prepacked->bits,
                  ", group=", prepacked->groupSize, ") vs (mu=",
                  config.mu, ", ", weights.rows, "x", weights.cols,
                  ", q=", weights.bits, ", group=", weights.groupSize,
                  ")");
    }

    const std::size_t m = weights.rows;
    const std::size_t n = weights.cols;
    const std::size_t batch = x.cols();

    LutGemmCounters local;
    LutGemmCounters &cnt = counters ? *counters : local;

    // Activations in their storage format, shared by every work item.
    MatrixD xq(n, batch);
    for (std::size_t i = 0; i < xq.size(); ++i)
        xq.at(i) = quantizeToFormat(x.at(i), config.actFormat);

    const LutGemmKernel kernel(weights, xq, config);
    MatrixD y(m, batch, 0.0);

    // Geometry cross-check: the packing pass derives the chunk layout
    // independently of the kernel, and a divergence would silently
    // misindex the arenas — fail loudly instead.
    if (prepacked && (prepacked->totalChunks != kernel.totalChunks() ||
                      prepacked->groups != kernel.groups()))
        fatal("pre-packed LUT keys disagree with the kernel chunk ",
              "geometry: packed ", prepacked->groups, " groups / ",
              prepacked->totalChunks, " chunks vs kernel ",
              kernel.groups(), " groups / ", kernel.totalChunks());

    switch (config.backend) {
      case LutGemmBackend::Reference: {
          std::optional<CallWorkspace> localWs;
          Scratch &s = acquireWorkspace(ctx, localWs).scratch;
          kernel.processRows(BlockRange{0, m}, y, cnt, s);
          break;
      }
      case LutGemmBackend::Simd: {
          PackedLutKeys localPack;
          const PackedLutKeys *pk = prepacked;
          if (!pk) {
              localPack = packLutKeys(weights, config.mu);
              pk = &localPack;
          }
          runSimdBackend(kernel, *pk, config, m, batch, y, ctx);
          addClosedFormCounters(weights, kernel, batch, cnt);
          break;
      }
    }
    return y;
}

} // namespace

int
lutGemmBackendCode(LutGemmBackend backend)
{
    // Codes 1 and 2 are retired; Simd keeps 3 so recorded JSON stays
    // comparable across versions.
    switch (backend) {
      case LutGemmBackend::Reference: return 0;
      case LutGemmBackend::Simd: return 3;
    }
    return 0;
}

const char *
lutGemmBackendName(LutGemmBackend backend)
{
    switch (backend) {
      case LutGemmBackend::Reference: return "reference";
      case LutGemmBackend::Simd: return "simd";
    }
    return "reference";
}

bool
parseLutGemmBackend(const std::string &name, LutGemmBackend *out)
{
    if (name == "reference")
        *out = LutGemmBackend::Reference;
    else if (name == "simd")
        *out = LutGemmBackend::Simd;
    else
        return false;
    return true;
}

Status
validateLutGemmConfig(const LutGemmConfig &config)
{
    if (config.mu < 1 || config.mu > kMaxMu)
        return Status::invalidArgument("LUT-GEMM mu must be in [1, ",
                                       kMaxMu, "], got ", config.mu);
    if (config.useHalfLut && config.mu < 2)
        return Status::invalidArgument(
            "hFFLUT requires mu >= 2 (mu=1 tables have no half); ",
            "raise mu or set useHalfLut = false");
    if (config.preAligned && (config.alignFracBits < kMinAlignFracBits ||
                              config.alignFracBits > kMaxAlignFracBits))
        return Status::invalidArgument(
            "LUT-GEMM alignFracBits must be in [", kMinAlignFracBits, ", ",
            kMaxAlignFracBits, "] on the pre-aligned path, got ",
            config.alignFracBits);
    if (config.threads > kMaxLutGemmThreads)
        return Status::invalidArgument(
            "LUT-GEMM threads must be <= ", kMaxLutGemmThreads,
            ", got ", config.threads, " (<= 0 selects the hardware ",
            "concurrency)");
    return Status::okStatus();
}

MatrixD
lutGemm(const BcqTensor &weights, const MatrixD &x,
        const LutGemmConfig &config, LutGemmCounters *counters,
        ExecutionContext *ctx)
{
    return lutGemmImpl(weights, x, config, nullptr, counters, ctx);
}

MatrixD
lutGemm(const BcqTensor &weights, const MatrixD &x,
        const LutGemmConfig &config, const PackedLutKeys &packed,
        LutGemmCounters *counters, ExecutionContext *ctx)
{
    return lutGemmImpl(weights, x, config, &packed, counters, ctx);
}

} // namespace figlut
