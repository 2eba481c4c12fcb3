#include "model/workload.h"

#include "common/logging.h"

namespace figlut {

std::vector<LayerStepSpec>
layerSpecs(const OptConfig &model, const WorkloadOptions &options)
{
    return layerSpecs(
        model, options,
        std::vector<std::size_t>(options.batch, options.contextLen));
}

std::vector<LayerStepSpec>
layerSpecs(const OptConfig &model, const WorkloadOptions &options,
           const std::vector<std::size_t> &contextLens)
{
    if (contextLens.size() != options.batch)
        fatal("ragged layerSpecs needs one context length per batch ",
              "column: got ", contextLens.size(), " for batch ",
              options.batch);
    const auto gemms = layerGemms(model, options.batch,
                                  options.weightBits, options.groupSize,
                                  options.hasOffset);
    const std::size_t b = options.batch;
    const std::size_t h = model.hidden;
    const std::size_t f = model.ffn;

    std::vector<LayerStepSpec> steps;
    auto vec = [&](LayerOp op, const char *name, VpuOpCounts ops) {
        steps.push_back({op, KernelTask::makeVector(name, ops)});
    };
    auto gemm = [&](LayerOp op, const char *name, std::size_t idx) {
        steps.push_back({op, KernelTask::makeGemm(name, gemms[idx])});
    };

    vec(LayerOp::LayerNorm1, "ln1", layerNormOps(b, h));
    gemm(LayerOp::QkvProj, "qkv", 0);
    // Decode-phase attention: per batch column, scores over that
    // column's KV cache (h dot products of length ctx are act-act work
    // on the VPU here). Summing per-column costs keeps the uniform
    // case exact: the op counts are small-integer products.
    {
        VpuOpCounts attn;
        for (const std::size_t ctx : contextLens) {
            attn.adds += static_cast<double>(ctx) * h;  // QK^T
            attn.muls += static_cast<double>(ctx) * h;
            attn.merge(softmaxOps(model.heads, ctx));
            attn.adds += static_cast<double>(ctx) * h;  // AV
            attn.muls += static_cast<double>(ctx) * h;
        }
        vec(LayerOp::Attention, "attention", attn);
    }
    gemm(LayerOp::OutProj, "attn_out", 1);
    vec(LayerOp::Residual1, "residual1", residualOps(b * h));
    vec(LayerOp::LayerNorm2, "ln2", layerNormOps(b, h));
    gemm(LayerOp::Fc1, "fc1", 2);
    vec(LayerOp::Gelu, "gelu", geluOps(b * f));
    gemm(LayerOp::Fc2, "fc2", 3);
    vec(LayerOp::Residual2, "residual2", residualOps(b * h));
    return steps;
}

namespace {

std::vector<KernelTask>
specTasks(const std::vector<LayerStepSpec> &specs, bool includeVector)
{
    std::vector<KernelTask> tasks;
    for (const auto &step : specs) {
        if (!step.isGemm() && !includeVector)
            continue;
        tasks.push_back(step.task);
    }
    return tasks;
}

std::vector<KernelTask>
tileLayers(const std::vector<KernelTask> &layer, std::size_t layers)
{
    std::vector<KernelTask> all;
    all.reserve(layers * layer.size());
    for (std::size_t l = 0; l < layers; ++l)
        all.insert(all.end(), layer.begin(), layer.end());
    return all;
}

} // namespace

std::vector<KernelTask>
layerWorkload(const OptConfig &model, const WorkloadOptions &options)
{
    return specTasks(layerSpecs(model, options), options.includeVector);
}

std::vector<KernelTask>
decodeStepWorkload(const OptConfig &model, const WorkloadOptions &options)
{
    return tileLayers(layerWorkload(model, options), model.layers);
}

std::vector<KernelTask>
decodeStepWorkload(const OptConfig &model, const WorkloadOptions &options,
                   const std::vector<std::size_t> &contextLens)
{
    return tileLayers(specTasks(layerSpecs(model, options, contextLens),
                                options.includeVector),
                      model.layers);
}

} // namespace figlut
