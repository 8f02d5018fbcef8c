/// \file perfbench/serve_run.h
/// \brief The serving half of the repository benchmark: loads a
/// prepared input directory and measures one workload against the
/// public APIs of serve/, cluster/ and persist/.
///
/// Untraced (`trace` false): set-up is timed several times, then a
/// closed loop of kClients clients runs for `seconds`; every answer is
/// compared byte for byte with its template's reference. Traced: one
/// client replays a fixed prefix of the stream, untraced once and
/// traced twice, timing each layer's public calls from outside; the
/// two traced passes must produce identical work counters. On two-way
/// workloads the prefix also goes once through a ClusterCoordinator to
/// forked workers.
///
/// Raw measurements go to <dir>/result.json; perfbench/run.py derives
/// the metrics.

#ifndef DHTJOIN_PERFBENCH_SERVE_RUN_H_
#define DHTJOIN_PERFBENCH_SERVE_RUN_H_

#include "inputs.h"
#include "util/status.h"

namespace dhtjoin::perfbench {

Status Serve(const WorkloadSpec& spec, const InputPaths& paths,
             double seconds, bool trace);

}  // namespace dhtjoin::perfbench

#endif  // DHTJOIN_PERFBENCH_SERVE_RUN_H_
