#include "runtime/session.h"

#include "common/logging.h"
#include "model/synthetic.h"
#include "serve/engine.h"

namespace figlut {

Session::Session(const OptConfig &model, const SessionOptions &options)
    : options_(options)
{
    if (options_.batch == 0)
        fatal("Session batch must be positive");
    serve::EngineOptions engineOptions;
    engineOptions.model = options_.quant;
    engineOptions.exec = options_.exec;
    engineOptions.maxBatch = options_.batch;
    engineOptions.maxQueue = 0;
    engineOptions.includeVector = options_.includeVector;
    auto engine = serve::Engine::create(model, engineOptions);
    if (!engine.ok())
        fatal(engine.status().message());
    engine_ = std::move(engine).value();

    // One unbounded request per lock-step sequence; the caller drives
    // every step's input, so the submit-time seed never decodes.
    ids_.reserve(options_.batch);
    for (std::size_t b = 0; b < options_.batch; ++b) {
        serve::RequestOptions req;
        req.maxTokens = 0;
        auto id = engine_->submit(req);
        FIGLUT_ASSERT(id.ok(), "session request ", b, " rejected: ",
                      id.status().toString());
        ids_.push_back(id.value());
    }
}

Session::~Session() = default;

const QuantizedModel &
Session::model() const
{
    return engine_->model();
}

ExecutionContext &
Session::context()
{
    return engine_->context();
}

MatrixD
Session::makeInput(Rng &rng) const
{
    return syntheticActivations(model().config().hidden, options_.batch,
                                rng);
}

DecodeStepResult
Session::runDecodeStep(const MatrixD &hidden_in)
{
    const std::size_t h = model().config().hidden;
    const std::size_t batch = options_.batch;
    if (hidden_in.rows() != h || hidden_in.cols() != batch)
        fatal("decode-step input must be ", h, "x", batch, ", got ",
              hidden_in.rows(), "x", hidden_in.cols());

    MatrixD column(h, 1);
    for (std::size_t b = 0; b < batch; ++b) {
        for (std::size_t r = 0; r < h; ++r)
            column(r, 0) = hidden_in(r, b);
        // Shape is checked above, so a rejection here is a NaN/inf
        // element: a caller error, reported like the shape check.
        // Every call re-injects all columns, so an early return leaves
        // no stale input behind.
        if (const Status s = engine_->provideInput(ids_[b], column);
            !s.ok())
            fatal("decode-step input column ", b, " rejected: ",
                  s.message());
    }

    auto step = engine_->step();
    FIGLUT_ASSERT(step.ok(), "session step failed: ",
                  step.status().toString());

    DecodeStepResult result;
    result.counters = step.value().counters;
    result.gemmCalls = step.value().gemmCalls;
    result.hidden = MatrixD(h, batch);
    for (std::size_t b = 0; b < batch; ++b) {
        auto snap = engine_->poll(ids_[b]);
        FIGLUT_ASSERT(snap.ok(), "session poll failed: ",
                      snap.status().toString());
        for (std::size_t r = 0; r < h; ++r)
            result.hidden(r, b) = snap.value().hidden(r, 0);
    }
    return result;
}

WorkloadOptions
Session::workloadOptions() const
{
    WorkloadOptions opts;
    opts.batch = options_.batch;
    opts.weightBits = options_.quant.weightBits;
    opts.contextLen = options_.contextLen;
    opts.includeVector = options_.includeVector;
    opts.groupSize = options_.quant.groupSize;
    opts.hasOffset = options_.quant.useOffset;
    return opts;
}

std::vector<KernelTask>
Session::workloadTasks() const
{
    return decodeStepWorkload(model().config(), workloadOptions());
}

WorkloadResult
Session::simulate(const HwConfig &hw) const
{
    const Accelerator acc(hw);
    return acc.runWorkload(workloadTasks());
}

std::size_t
Session::kvLength() const
{
    auto snap = engine_->poll(ids_.front());
    FIGLUT_ASSERT(snap.ok(), "session poll failed: ",
                  snap.status().toString());
    return snap.value().kvLength;
}

KvCache
Session::kv(std::size_t seq) const
{
    if (seq >= ids_.size())
        fatal("session sequence ", seq, " out of ", ids_.size());
    auto history = engine_->kvHistory(ids_[seq]);
    FIGLUT_ASSERT(history.ok(), "session kv history failed: ",
                  history.status().toString());
    return std::move(history).value();
}

void
Session::resetKv()
{
    for (const serve::RequestId id : ids_) {
        const Status s = engine_->resetKv(id);
        FIGLUT_ASSERT(s.ok(), "session kv reset failed: ", s.toString());
    }
}

} // namespace figlut
