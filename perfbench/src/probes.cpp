/**
 * Per-layer probes of a traced run. Each probe calls one module's
 * public functions from outside, on the shapes the served round used,
 * and prices the round step by step: GEMMs at every fused width the
 * round ran, attention at the causal contexts of a sample of its
 * steps, vector ops at every width. What the probes do not cover of
 * the measured step time is reported as serve overhead.
 */

#include <algorithm>
#include <map>

#include "bench.h"
#include "common/rng.h"
#include "model/synthetic.h"
#include "model/workload.h"
#include "quant/bcq.h"
#include "quant/packing.h"
#include "runtime/exec_options.h"
#include "runtime/reference_ops.h"

namespace perfbench {

namespace {

constexpr double kMiB = 1024.0 * 1024.0;
/** Attention is probed on at most this many steps of the round. */
constexpr std::size_t kAttentionSteps = 96;

/** Median seconds of reps calls of fn, after one warm-up call. */
template <typename Fn>
double
timeMedian(std::size_t reps, Fn &&fn)
{
    fn();
    std::vector<double> t;
    for (std::size_t i = 0; i < reps; ++i) {
        const double s = cpuS();
        fn();
        t.push_back(cpuS() - s);
    }
    return median(t);
}

void
probeQuant(const Spec &spec, const serve::Engine &engine, std::uint64_t seed,
           std::vector<Metric> &out)
{
    const QuantizedModelOptions &mo = engine.model().options();
    const std::size_t h = spec.model.hidden, f = spec.model.ffn;
    const std::size_t shapes[4][2] = {{3 * h, h}, {h, h}, {f, h}, {h, f}};
    BcqConfig qcfg;
    qcfg.bits = mo.weightBits;
    qcfg.groupSize = mo.groupSize;
    qcfg.useOffset = mo.useOffset;
    qcfg.iterations = mo.bcqIterations;
    std::vector<double> quant, pack;
    for (int rep = 0; rep < 3; ++rep) {
        double q = 0.0, p = 0.0;
        Rng rng(seed + static_cast<std::uint64_t>(rep));
        for (std::size_t l = 0; l < spec.model.layers; ++l) {
            for (const auto &s : shapes) {
                const MatrixD w = syntheticWeights(s[0], s[1], rng);
                const double t0 = cpuS();
                const BcqTensor t = quantizeBcq(w, qcfg);
                const double t1 = cpuS();
                const PackedLutKeys keys = packLutKeys(t, mo.mu);
                p += cpuS() - t1;
                q += t1 - t0;
            }
        }
        quant.push_back(q);
        pack.push_back(p);
    }
    out.push_back({"quant.quantize_s", median(quant), "s"});
    out.push_back({"quant.pack_s", median(pack), "s"});
    out.push_back({"quant.model_mb",
                   static_cast<double>(engine.model().storageBytes() +
                                       engine.model().packedKeyBytes()) /
                       kMiB,
                   "MiB"});
}

} // namespace

std::vector<Metric>
probeLayers(const Spec &spec, const Round &round, const Sweep &sweep,
            std::uint64_t seed)
{
    std::vector<Metric> out;
    serve::Engine &engine = *round.engine;
    probeQuant(spec, engine, seed, out);

    const std::size_t h = spec.model.hidden, f = spec.model.ffn;
    const std::size_t layers = engine.model().layers();
    const double steps = static_cast<double>(round.steps.size());
    std::map<std::size_t, std::size_t> widths;
    for (const StepRecord &s : round.steps)
        ++widths[s.width];

    // core: each GEMM operand at every width, on the engine's context.
    const serve::EngineOptions &opts = engine.options();
    const LutGemmConfig cfg = makeGemmConfig(opts.exec, opts.model.mu);
    const LayerOp ops[4] = {LayerOp::QkvProj, LayerOp::OutProj,
                            LayerOp::Fc1, LayerOp::Fc2};
    const char *names[4] = {"core.qkv_ms", "core.out_proj_ms",
                            "core.fc1_ms", "core.fc2_ms"};
    double opS[4] = {0, 0, 0, 0};
    std::uint64_t reads = 0;
    Rng rng(seed ^ 0x7E57ULL);
    for (const auto &[w, count] : widths) {
        for (std::size_t l = 0; l < layers; ++l) {
            const QuantizedLayer &layer = engine.model().layer(l);
            for (int o = 0; o < 4; ++o) {
                const BcqTensor &wt = layer.weights(ops[o]);
                const MatrixD x = syntheticActivations(wt.cols, w, rng);
                LutGemmCounters c;
                const double t = timeMedian(3, [&] {
                    c = LutGemmCounters{};
                    lutGemm(wt, x, cfg, layer.keys(ops[o]), &c,
                            &engine.context());
                });
                opS[o] += t * static_cast<double>(count);
                reads += c.lutReads * count;
            }
        }
    }
    double gemmS = 0.0;
    for (int o = 0; o < 4; ++o) {
        out.push_back({names[o], 1e3 * opS[o] / steps, "ms"});
        gemmS += opS[o];
    }
    out.push_back({"core.gemm_ms_per_step", 1e3 * gemmS / steps, "ms"});
    out.push_back({"core.lut_reads_per_s",
                   static_cast<double>(reads) / gemmS, "1/s"});
    out.push_back({"core.lut_reads", static_cast<double>(reads), "count"});

    // runtime: attention on a sample of steps, vector ops per width.
    std::size_t maxContext = 1;
    for (const StepRecord &s : round.steps)
        for (const std::size_t c : s.contexts)
            maxContext = std::max(maxContext, c);
    const MatrixD kv = syntheticActivations(2 * h, maxContext, rng);
    std::vector<double> slab(2 * h * maxContext);
    for (std::size_t t = 0; t < maxContext; ++t)
        for (std::size_t r = 0; r < 2 * h; ++r)
            slab[t * 2 * h + r] = kv(r, t);
    const std::size_t stride =
        std::max<std::size_t>(1, round.steps.size() / kAttentionSteps);
    double attnS = 0.0;
    std::size_t attnSteps = 0;
    for (std::size_t i = 0; i < round.steps.size(); i += stride) {
        const StepRecord &s = round.steps[i];
        std::vector<std::vector<KvTokenRef>> views(s.contexts.size());
        for (std::size_t c = 0; c < s.contexts.size(); ++c)
            for (std::size_t t = 0; t < s.contexts[c]; ++t)
                views[c].push_back(
                    {&slab[t * 2 * h], &slab[t * 2 * h + h], 1});
        const MatrixD q = syntheticActivations(h, s.width, rng);
        attnS += static_cast<double>(layers) * timeMedian(1, [&] {
                     referenceDecodeAttention(q, views, spec.model.heads);
                 });
        ++attnSteps;
    }
    out.push_back({"runtime.attention_ms_per_step",
                   1e3 * attnS / static_cast<double>(attnSteps), "ms"});
    double vecS = 0.0;
    for (const auto &[w, count] : widths) {
        const MatrixD a = syntheticActivations(h, w, rng);
        const MatrixD b = syntheticActivations(h, w, rng);
        const MatrixD g = syntheticActivations(f, w, rng);
        const double t =
            2.0 * timeMedian(3, [&] { referenceLayerNorm(a); }) +
            2.0 * timeMedian(3, [&] { referenceResidualAdd(a, b); }) +
            timeMedian(3, [&] {
                opts.exec.lutGelu ? referenceGeluLut(g) : referenceGelu(g);
            });
        vecS += t * static_cast<double>(layers * count);
    }
    const double vecPerStep = vecS / steps;
    const double attnPerStep = attnS / static_cast<double>(attnSteps);
    out.push_back({"runtime.vector_ms_per_step", 1e3 * vecPerStep, "ms"});
    out.push_back({"runtime.kv_peak_mb",
                   static_cast<double>(round.kvPeakBytes) / kMiB, "MiB"});

    // serve: the measured steps against what the probes cover.
    std::vector<double> engineS, callS;
    double width = 0.0;
    for (const StepRecord &s : round.steps) {
        engineS.push_back(s.engineS);
        callS.push_back(s.callS);
        width += static_cast<double>(s.width);
    }
    double callMean = 0.0;
    for (const double w : callS)
        callMean += w;
    callMean /= steps;
    out.push_back({"serve.step_ms_p50", 1e3 * median(engineS), "ms"});
    out.push_back(
        {"serve.overhead_ms_per_step",
         1e3 * (callMean - gemmS / steps - attnPerStep - vecPerStep), "ms"});
    out.push_back({"serve.batch_width_mean", width / steps, "columns"});
    out.push_back(
        {"serve.queue_wait_ms_p50", 1e3 * median(round.queueS), "ms"});
    out.push_back({"serve.evictions", static_cast<double>(round.evictions),
                   "count"});
    out.push_back({"serve.recomputed_prompt_tokens",
                   static_cast<double>(round.recomputed), "count"});
    out.push_back({"serve.prefill_useful_frac",
                   static_cast<double>(round.promptTokens) /
                       static_cast<double>(round.prefillTokens),
                   "ratio"});
    out.push_back({"serve.steps", steps, "count"});

    // sim: host cost of the replays and of one workload pricing.
    out.push_back({"sim.us_per_step",
                   1e6 * sweep.hostS / static_cast<double>(sweep.totalSteps),
                   "us"});
    HwConfig hw;
    hw.engine = EngineKind::FIGLUT_I;
    const Accelerator acc(hw);
    WorkloadOptions wo;
    wo.batch = spec.maxBatch;
    wo.weightBits = spec.bits;
    wo.contextLen = (spec.promptMax + spec.outMax) / 2;
    const auto tasks = decodeStepWorkload(spec.model, wo);
    out.push_back({"sim.run_workload_us",
                   1e6 * timeMedian(200, [&] { acc.runWorkload(tasks); }),
                   "us"});
    out.push_back({"sim.steps", static_cast<double>(sweep.stepsPerSweep),
                   "count"});
    return out;
}

} // namespace perfbench
