// The traced run's per-layer measurements. The program carries no
// request-scoped spans yet, so each layer is timed from outside: the
// benchmark calls the layer's public functions on the workload's own
// inputs, one call per timing, and reads counters through public
// accessors. Each timing is reported as p50 and p99 over its samples.
#pragma once

#include <string>
#include <vector>

#include "drive.hpp"
#include "report.hpp"
#include "stack.hpp"

namespace perfbench {

/// net.* counters of every replica's reactor, read after the traffic.
void report_net_counters(Stack& stack, Report& report);

/// server.* and search.* timings: replays the traced closed loop's
/// requests through parse_request / Router::try_fast / Router::handle on
/// the live router, and its search queries through parse_query and
/// SearchIndex::search. net.self_us is each traced request's end-to-end
/// time minus its replayed server time.
void report_request_layers(Stack& stack,
                           const std::vector<loadgen::ScheduledRequest>& requests,
                           const Phase& traced, Report& report);

/// cluster.* timings: FrontTier::proxy on the workload's requests, and the
/// closed-loop p50 through a front minus the direct p50. Workloads without
/// a front tier get a one-replica front over their server for this.
/// Returns false when that front failed to start or a request failed.
bool report_cluster_layer(Stack& stack,
                          const std::vector<loadgen::ScheduledRequest>& requests,
                          const Phase& traced, unsigned connections,
                          double seconds, Report& report);

/// core/site/search/server build timings from `edits` publish cycles on
/// the workload's content: wall.publish_p50_ms is the write-to-visible
/// time, server.reload_ms is ReloadManager::check_once, the rest time each
/// step of a reload separately on the same edit.
/// Returns false when an edit was lost.
bool report_build_layers(Stack& stack, const std::string& slug,
                         const std::string& marker_prefix, int edits,
                         Report& report);

}  // namespace perfbench
