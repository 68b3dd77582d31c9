#pragma once
// Shared envelope for the *_perf.json records emitted by bench_micro_perf:
// every record opens with the same schema_version plus a host-metadata
// block (the host's hardware threads as the OS reports them, the lane
// count the default ExecContext resolves to — NSDC_THREADS can set it
// apart — and the resolved scheduling grain), so downstream tooling can
// key on one layout across records, machines, and NSDC_GRAIN settings.

#include <ostream>
#include <string>
#include <thread>

#include "util/exec.hpp"

namespace nsdc::perfjson {

/// Version of the shared record envelope. Bump when the envelope itself
/// (not an individual bench's payload) changes incompatibly.
inline constexpr int kSchemaVersion = 1;

/// Opens a record: `{` + schema_version + bench name + host block. The
/// caller appends its own fields (each prefixed with ",\n  ") and writes
/// the closing "\n}\n" itself.
inline void open_envelope(std::ostream& json, const std::string& bench) {
  const ExecContext exec;
  json << "{\n  \"schema_version\": " << kSchemaVersion << ",\n"
       << "  \"bench\": \"" << bench << "\",\n"
       << "  \"host\": {\"hardware_threads\": "
       << std::thread::hardware_concurrency()
       << ", \"resolved_threads\": " << exec.resolved_threads()
       << ", \"grain\": " << exec.resolved_grain(1) << "}";
}

}  // namespace nsdc::perfjson
