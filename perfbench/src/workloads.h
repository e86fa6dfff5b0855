#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <vector>

#include "harness.h"

namespace perfbench {

/// er_search and ppi_clique (inproc.cc).
RunOutcome RunInProcess(const Args& args);
/// server_rw (server_rw.cc).
RunOutcome RunServer(const Args& args);

/// Writes the traced run's spans as a Chrome trace next to the run's
/// other outputs (run.py validates it with tools/check_trace.py).
void WriteTrace(const Args& args, const std::vector<Span>& spans,
                RunOutcome* out);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
