// The three benchmark workloads (see perfbench/README.md for why each
// exists and which layers it stresses).

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common.h"
#include "measure/records.h"

namespace perfbench {

// RON2003 on the 30-site testbed: full-mesh probing, six probe sets,
// ProbeDriver + streaming Aggregator, one thread.
[[nodiscard]] std::unique_ptr<Workload> make_ron2003(std::uint64_t seed);
// One link-flap fault-matrix cell through SimWorld on 1000 synthetic
// sites: hybrid scheme, fanout 16, 8 landmarks, lazy underlay.
[[nodiscard]] std::unique_ptr<Workload> make_capped_scale(std::uint64_t seed);
// The reference WorkloadSpec through every canonical scenario under the
// three redundancy policies, via run_workload_matrix on `workers` threads.
[[nodiscard]] std::unique_ptr<Workload> make_traffic_matrix(std::uint64_t seed, int workers);

// A bounded sample of RON2003 probe records captured via the driver's
// record_tee on a short run: the measure drills' input for workloads
// that run no ProbeDriver themselves.
[[nodiscard]] std::vector<ronpath::ProbeRecord> capture_ron2003_records(std::uint64_t seed,
                                                                       std::size_t limit);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
