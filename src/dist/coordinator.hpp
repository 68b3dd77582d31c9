#pragma once
// Fault-tolerant multi-process shard coordinator (DESIGN.md §14).
//
// run_coordinator fork/execs N worker processes (`worker_binary --worker`,
// normally the nsdc_dist tool itself), partitions the run into shard work
// units — contiguous accumulation-block ranges for Monte Carlo, contiguous
// sorted-PO slices for levelized STA — and supervises the fleet over the
// net/ServerLoop control socket:
//
//   - workers stream Heartbeat frames; a shard whose worker misses beats
//     past `heartbeat_timeout_s`, or overruns `shard_deadline_s`, is
//     reclaimed (the worker is SIGKILLed and reaped via waitpid);
//   - crashed workers (any waitpid-observed death) fail their running
//     shard; failed shards retry on the RetryPolicy's deterministic
//     exponential backoff, on whichever healthy worker frees up first,
//     and dead workers are respawned within a bounded spawn budget;
//   - MC shard results are NSDCMC01 checkpoints: a retried shard resumes
//     from the longest valid record prefix, and the coordinator validates
//     each completed shard's header and block coverage before absorbing
//     its blocks — after it has sent the freed worker its next Assign, so
//     the checkpoint load is off the hand-off path;
//   - the final merge unions the shard blocks in block-index order and
//     feeds them through NetlistMonteCarlo::partial_result — the same
//     deterministic MomentAccumulator merge a single-process run performs
//     — so the merged statistics are byte-identical to an uninterrupted
//     single-process run for ANY worker count, kill schedule, or retry
//     history.
//
// Graceful degradation: when a shard exhausts its retries (or the fleet
// runs out of spawn budget) the coordinator never aborts — it finishes
// every other shard, merges what it has, and returns complete=false with
// per-shard diagnostics; the nsdc_dist tool maps that to kExitPartial.
//
// Coordinator-side fault sites (worker-side ones live in worker.hpp):
//   dist.worker.spawn      index = spawn sequence; throw => the spawn
//                          fails (counts against the budget)
//   dist.shard.checkpoint  index = shard*100 + load attempt, fired when a
//                          completed MC shard's checkpoint is validated;
//                          truncate:N tears N bytes off the shard file
//                          before loading, throw => load failure — either
//                          way the shard retries and must still merge
//                          byte-identically.

#include <cstdint>
#include <string>
#include <vector>

#include "dist/bundle.hpp"
#include "dist/protocol.hpp"
#include "sta/netmc.hpp"
#include "util/diag.hpp"
#include "util/retry.hpp"

namespace nsdc::dist {

struct DistOptions {
  std::string mode = "mc";  ///< "mc" | "sta"
  unsigned workers = 2;
  /// Work units per run; clamped to [1, units] (32 accumulation blocks
  /// for MC, the PO count for STA).
  std::size_t shards = 8;
  int samples = 1024;          ///< MC samples (full-run count)
  std::uint64_t seed = 4242;   ///< MC base seed
  BundleSpec bundle;
  /// Scratch directory: control socket + per-shard checkpoints. Must be
  /// short enough for a unix socket path; created if missing.
  std::string workdir;
  /// Worker executable (the nsdc_dist tool passes /proc/self/exe).
  std::string worker_binary;
  unsigned worker_threads = 1;
  /// Shard retry schedule (deterministic exponential backoff).
  RetryPolicy retry{};
  double shard_deadline_s = 30.0;   ///< per-assignment compute budget
  int heartbeat_ms = 25;            ///< worker beat interval
  double heartbeat_timeout_s = 5.0; ///< silence => worker reclaimed
  /// Total process spawns allowed, initial fleet included.
  /// 0 = workers * (max_retries + 2).
  std::size_t spawn_budget = 0;
  bool verbose = false;             ///< per-event stderr trace
};

enum class ShardState : int {
  kPending = 0,
  kWaitingRetry,
  kRunning,
  kDone,
  kExhausted,
};

const char* shard_state_name(ShardState s);

/// Per-shard outcome diagnostics (DistResult::shards, shard-id order).
struct ShardStatus {
  std::uint64_t id = 0;
  std::uint64_t lo = 0;         ///< first work unit (block / PO index)
  std::uint64_t hi = 0;         ///< one past the last work unit
  ShardState state = ShardState::kPending;
  int attempts = 0;             ///< assignments consumed (1 = clean)
  std::string detail;           ///< last failure reason, empty when clean
};

struct DistResult {
  /// True when every shard completed; false = partial (degraded) result.
  bool complete = false;
  /// MC mode: the merged statistics (partial_result over the union of
  /// shard checkpoints; byte-identical to a single-process run when
  /// complete).
  NetlistMonteCarlo::Result mc;
  /// STA mode: per-PO timing, parallel arrays over po_nets (ascending).
  /// POs of exhausted shards keep reachable=false.
  std::vector<int> po_nets;
  std::vector<std::uint8_t> po_reachable;
  std::vector<std::array<double, 2>> po_arrival;
  std::vector<std::array<double, 2>> po_slew;
  double max_arrival = 0.0;  ///< complete STA runs only
  int critical_net = -1;
  int critical_edge = 0;
  /// Shard-id-ordered outcomes.
  std::vector<ShardStatus> shards;
  /// Supervision events (worker deaths, retries, torn checkpoints),
  /// deterministic order (sort_diagnostics).
  std::vector<Diagnostic> diagnostics;
  std::uint64_t workers_spawned = 0;
  std::uint64_t workers_lost = 0;   ///< deaths observed via waitpid
  std::uint64_t spawn_failures = 0;
  std::uint64_t shard_retries = 0;  ///< failed assignments that re-queued
  double runtime_seconds = 0.0;
};

/// Runs the distributed flow to completion. Throws UsageError on invalid
/// options and IoError when the control socket cannot be bound; shard and
/// worker failures degrade (complete=false), they never throw.
DistResult run_coordinator(const DistOptions& options);

}  // namespace nsdc::dist
