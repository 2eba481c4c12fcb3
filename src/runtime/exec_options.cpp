#include "runtime/exec_options.h"

namespace figlut {

LutGemmConfig
makeGemmConfig(const ExecOptions &exec, int mu)
{
    LutGemmConfig cfg;
    cfg.mu = mu;
    cfg.actFormat = exec.actFormat;
    cfg.arith = exec.arith;
    cfg.preAligned = exec.preAligned;
    cfg.alignFracBits = exec.alignFracBits;
    cfg.useHalfLut = exec.useHalfLut;
    cfg.useGeneratorTree = exec.useGeneratorTree;
    cfg.backend = exec.backend;
    cfg.threads = exec.threads;
    return cfg;
}

Status
validateExecOptions(const ExecOptions &exec, int mu)
{
    return validateLutGemmConfig(makeGemmConfig(exec, mu));
}

} // namespace figlut
