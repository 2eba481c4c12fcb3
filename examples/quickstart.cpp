/**
 * @file
 * Quickstart: the short path from an OPT-style architecture to real
 * numeric decode steps — build a serve::Engine (quantize + pack
 * once), submit a few requests, step them, and score the identical
 * layer graph on the modeled accelerator.
 *
 * Build & run:  ./build/examples/quickstart
 */

#include <iostream>

#include "figlut/figlut.h"

using namespace figlut;

int
main()
{
    std::cout << "FIGLUT quickstart\n=================\n\n";

    // 1. A small OPT-style decoder, quantized to 3-bit BCQ with an
    //    offset term and LUT-key-packed — all one-time work done by
    //    Engine::create.
    OptConfig tiny;
    tiny.name = "OPT-tiny";
    tiny.hidden = 128;
    tiny.layers = 2;
    tiny.heads = 4;
    tiny.ffn = 512;

    constexpr std::size_t kRequests = 4;
    constexpr std::size_t kSteps = 3;
    serve::EngineOptions opts;
    opts.maxBatch = kRequests;
    opts.model.weightBits = 3;
    opts.model.useOffset = true;
    auto created = serve::Engine::create(tiny, opts);
    if (!created.ok()) {
        std::cerr << created.status().toString() << "\n";
        return 1;
    }
    serve::Engine &engine = *created.value();

    const double fp16Bytes = engine.model().config().layers *
                             (4.0 * tiny.hidden * tiny.hidden +
                              2.0 * tiny.hidden * tiny.ffn) *
                             2.0;
    std::cout << "built " << tiny.name << " (" << tiny.layers
              << " layers, hidden " << tiny.hidden << "): "
              << engine.model().storageBytes() << " bytes quantized vs "
              << static_cast<std::size_t>(fp16Bytes) << " bytes FP16 ("
              << TextTable::ratio(fp16Bytes /
                                  engine.model().storageBytes())
              << " compression)\n\n";

    // 2. Submit requests with a kSteps-token budget, each seeded with
    //    its own synthetic input, and run fused decode steps for real:
    //    every layer GEMM runs once over the whole batch through the
    //    packed LUT kernel on the engine's persistent
    //    ExecutionContext, vector ops as reference kernels, KV growing
    //    per step.
    serve::RequestId first = 0;
    for (std::size_t i = 0; i < kRequests; ++i) {
        const auto id = engine.submit({kSteps, Rng::kDefaultSeed + i});
        if (!id.ok()) {
            std::cerr << id.status().toString() << "\n";
            return 1;
        }
        if (i == 0)
            first = id.value();
    }
    // Price each step before running it: once the last step retires
    // the requests, the engine is drained and has nothing left to
    // score.
    std::vector<KernelTask> lastTasks;
    for (std::size_t step = 0; step < kSteps; ++step) {
        lastTasks = engine.workloadTasks();
        const auto r = engine.step();
        if (!r.ok()) {
            std::cerr << r.status().toString() << "\n";
            return 1;
        }
        std::cout << "step " << step << ": " << r.value().gemmCalls
                  << " weight GEMMs over " << r.value().decodeTokens
                  << " requests, " << r.value().counters.lutReads
                  << " LUT reads (each retiring mu="
                  << engine.model().options().mu
                  << " binary MACs), KV length "
                  << engine.poll(first).value().kvLength << "\n";
    }

    // 3. What did the step we just executed cost on the modeled
    //    hardware? Its KernelTask list is the same layer graph the
    //    engine ran, scored by the analytic accelerator model.
    HwConfig hw;
    hw.engine = EngineKind::FIGLUT_I;
    const auto sim = Accelerator(hw).runWorkload(lastTasks);
    std::cout << "\nsimulated on " << hw.describe() << ": "
              << TextTable::num(sim.seconds * 1e3, 3) << " ms/step, "
              << TextTable::num(sim.energy.totalJoules() * 1e3, 3)
              << " mJ, " << TextTable::num(sim.topsPerWatt, 2)
              << " TOPS/W\n";
    return 0;
}
