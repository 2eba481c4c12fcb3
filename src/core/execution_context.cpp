#include "core/execution_context.h"

namespace figlut {

ThreadPool &
ExecutionContext::pool(int workers)
{
    const int want = resolveThreadCount(workers);
    if (!pool_ || pool_->threadCount() < want) {
        // Join the old workers before spawning the replacements so
        // thread_local worker scratch is released, not leaked.
        pool_.reset();
        pool_ = std::make_unique<ThreadPool>(want);
        ++poolSpawns_;
    }
    return *pool_;
}

} // namespace figlut
