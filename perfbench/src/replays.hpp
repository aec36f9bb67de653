// Module replays of the traced run: the workload's own inputs fed
// through the public functions of engine, ingest, net, server and core,
// each timed from the benchmark. Every cost comes with its operations
// per timed record, so cost x ops sits beside the end-to-end ns/record.
#pragma once

#include <vector>

#include "planes.hpp"

namespace perfbench {

/// Runs every replay over `recs` (stamped records in arrival order; the
/// router logs and frames each record once). `client_appends`: records
/// arrive as client appends, through admission and AppendMsg decode.
/// Key selection runs on a key-load snapshot of `didi`.
Layers replay_modules(const std::vector<Record>& recs, const Shape& shape,
                      bool client_appends, const std::vector<Record>& didi);

}  // namespace perfbench
