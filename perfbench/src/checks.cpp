#include <cmath>

#include "bench.h"
#include "common/rng.h"
#include "model/synthetic.h"
#include "numerics/fp_format.h"
#include "runtime/exec_options.h"

namespace perfbench {

namespace {

/** Relative error bound of one GEMM output against the double product
 *  of the dequantized weights and the FP16-rounded activations, as a
 *  share of sum_k |w x| (the pre-aligned FP32 path stays far inside). */
constexpr double kGemmTolerance = 1e-5;

constexpr LayerOp kGemmOps[] = {LayerOp::QkvProj, LayerOp::OutProj,
                                LayerOp::Fc1, LayerOp::Fc2};

const char *
opName(LayerOp op)
{
    switch (op) {
      case LayerOp::QkvProj: return "qkv";
      case LayerOp::OutProj: return "out_proj";
      case LayerOp::Fc1: return "fc1";
      default: return "fc2";
    }
}

} // namespace

void
checkCore(const Spec &spec, const serve::Engine &engine, std::uint64_t seed,
          Perturb perturb, Checks &checks)
{
    const serve::EngineOptions &opts = engine.options();
    const LutGemmConfig cfg = makeGemmConfig(opts.exec, opts.model.mu);
    Rng rng(seed ^ 0xC0FFEEULL);
    for (std::size_t l = 0; l < engine.model().layers(); ++l) {
        const QuantizedLayer &layer = engine.model().layer(l);
        for (const LayerOp op : kGemmOps) {
            const BcqTensor &w = layer.weights(op);
            const MatrixD x =
                syntheticActivations(w.cols, spec.maxBatch, rng);
            const MatrixD y = lutGemm(w, x, cfg, layer.keys(op));
            MatrixD d = w.dequantAll();
            if (perturb == Perturb::CoreReference) {
                double mass = 0.0;
                for (std::size_t k = 0; k < w.cols; ++k)
                    mass += std::fabs(d(0, k));
                d(0, 0) += 10.0 * mass / static_cast<double>(w.cols);
            }
            double worst = 0.0;
            for (std::size_t m = 0; m < w.rows; ++m) {
                for (std::size_t b = 0; b < x.cols(); ++b) {
                    double ref = 0.0, scale = 0.0;
                    for (std::size_t k = 0; k < w.cols; ++k) {
                        const double xv =
                            quantizeToFormat(x(k, b), opts.exec.actFormat);
                        ref += d(m, k) * xv;
                        scale += std::fabs(d(m, k) * xv);
                    }
                    worst = std::max(worst,
                                     std::fabs(y(m, b) - ref) / scale);
                }
            }
            checks.expect(worst <= kGemmTolerance,
                          "layer " + std::to_string(l) + " " + opName(op) +
                              " lutGemm relative error " +
                              std::to_string(worst));
        }
    }
}

void
checkSolo(const Spec &spec, const Round &round, std::uint64_t seed,
          Perturb perturb, Checks &checks)
{
    constexpr std::size_t kSamples = 3;
    if (round.engine == nullptr || round.done.empty()) {
        checks.expect(false, "no completed requests to re-serve");
        return;
    }
    serve::EngineOptions opts = engineOptions(spec, seed);
    opts.maxBatch = 1;
    opts.maxQueue = kSamples;
    opts.prefillChunkTokens = 0;
    opts.kvBudgetBytes = 0;
    opts.policy = serve::DegradationPolicy::ShedNewest;
    auto solo = serve::Engine::create(spec.model, opts);
    checks.expect(solo.ok(), "solo engine create");
    if (!solo.ok())
        return;

    Rng rng(seed ^ 0x5A5A5A5AULL);
    std::vector<Completed> picks;
    std::vector<serve::RequestId> ids;
    for (std::size_t i = 0; i < kSamples; ++i) {
        const Completed &c = round.done[static_cast<std::size_t>(
            rng.uniformInt(0,
                           static_cast<std::int64_t>(round.done.size()) - 1))];
        serve::RequestOptions req;
        req.maxTokens = c.plan.output;
        req.promptTokens = c.plan.prompt;
        req.seed = c.plan.seed + (perturb == Perturb::SoloSeed ? 1 : 0);
        auto id = solo.value()->submit(req);
        checks.expect(id.ok(), "solo submit");
        if (!id.ok())
            return;
        picks.push_back(c);
        ids.push_back(id.value());
    }
    while (solo.value()->liveRequests() + solo.value()->queuedRequests() > 0)
        if (!solo.value()->step().ok())
            break;
    for (std::size_t i = 0; i < picks.size(); ++i) {
        const auto alone = solo.value()->poll(ids[i]);
        const auto served = round.engine->poll(picks[i].id);
        const auto kvAlone = solo.value()->kvHistory(ids[i]);
        const auto kvServed = round.engine->kvHistory(picks[i].id);
        const bool same =
            alone.ok() && served.ok() && kvAlone.ok() && kvServed.ok() &&
            alone.value().state == serve::RequestState::Finished &&
            alone.value().hidden == served.value().hidden &&
            kvAlone.value() == kvServed.value() &&
            kvServed.value().length() ==
                picks[i].plan.prompt + picks[i].plan.output;
        checks.expect(same, "request " + std::to_string(picks[i].id) +
                                " differs from its solo re-serve");
    }
}

} // namespace perfbench
