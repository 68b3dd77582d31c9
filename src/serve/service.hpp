#pragma once
// Request router and session registry of the nsdc_serve daemon: owns the
// per-design baseline results (one StaEngine run + one AnalyticSsta run,
// computed at construction so every query after that is a cache read) and
// executes decoded requests against the loaded design.
//
// Threading contract: handle() is called concurrently for requests of
// DIFFERENT connections (the daemon batches at most one in-flight request
// per connection), so everything a handler touches is either immutable
// (the refs, the baselines), connection-private (an edit session — the
// per-connection serialization makes its netlist/IncrementalSta
// single-threaded), or guarded (the session registry map itself, and the
// kNetMc plan, which the first kNetMc request prepares under a lock and
// every later one shares read-only). Session
// ids are derived from (connection, per-connection counter), never from a
// shared counter, so the id a client sees does not depend on how requests
// of other connections interleave — part of the per-session
// byte-determinism contract.
//
// Error mapping: handle() never throws. Typed errors become protocol
// statuses exactly the way handle_tool_exception maps them to exit codes —
// UsageError (validation) -> 3, CancelledError (deadline) -> 10,
// ParseError -> 11, IoError -> 12, everything else -> 13 — so a client and
// a shell script read the same numbers for the same failure.
//
// Validation: every numeric field decoded from the wire goes through the
// same check_*_range helpers (util/argparse) the CLI flags use; a
// violation message becomes the kBadRequest error string. Name-based net
// queries refuse ambiguous names (GateNetlist::net_name_ambiguous) instead
// of silently answering about the first-created net.

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>

#include "core/path.hpp"
#include "liberty/charlib.hpp"
#include "netlist/netlist.hpp"
#include "parasitics/spef.hpp"
#include "pdk/cells.hpp"
#include "serve/protocol.hpp"
#include "sta/engine.hpp"
#include "sta/incremental.hpp"
#include "sta/netmc.hpp"
#include "sta/ssta_analytic.hpp"

namespace nsdc::serve {

/// Everything the service reads, all caller-owned (the CellLibrary /
/// charlib lifetime note of netlist.hpp applies: CellInst holds CellType
/// pointers into `cell_library`, so every ref must outlive the Service and
/// every session opened through it). `charlib` is optional — without it
/// the lint request runs the structural/parasitic layers only.
struct ServiceRefs {
  const GateNetlist* netlist = nullptr;
  const ParasiticDb* parasitics = nullptr;
  const CellLibrary* cell_library = nullptr;
  const NSigmaCellModel* cell_model = nullptr;
  const NSigmaWireModel* wire_model = nullptr;
  const TechParams* tech = nullptr;
  const CharLib* charlib = nullptr;
};

struct ServiceOptions {
  /// Per-request Monte-Carlo sample cap (the request's `samples` field is
  /// validated into [1, this]).
  std::uint32_t max_mc_samples = 1'000'000;
  /// Open edit sessions across all connections.
  std::uint32_t max_sessions = 64;
  /// Largest accepted request deadline.
  double max_deadline_s = 3600.0;
  /// Engine policy for baseline/session/lint runs.
  StaConfig sta{};
};

class Service {
 public:
  /// Computes the baseline STA + analytic-SSTA results (the expensive
  /// load-once step). Throws what the engines throw on a broken design.
  Service(const ServiceRefs& refs, ServiceOptions options = {});

  struct HandleResult {
    std::string response;    ///< complete response payload (unframed)
    bool shutdown = false;   ///< request asked the daemon to stop
  };

  /// Decodes and executes one request. `conn` identifies the issuing
  /// connection (session ownership), `seq` is the daemon's deterministic
  /// request sequence number (the serve.request fault-site index). Never
  /// throws: every failure becomes an error response.
  HandleResult handle(int conn, std::uint64_t seq, std::string_view payload);

  /// Releases every session owned by `conn` (called when it disconnects).
  void drop_owner(int conn);

  std::uint64_t requests_handled() const {
    return handled_.load(std::memory_order_relaxed);
  }
  std::size_t open_sessions() const;
  const StaEngine::Result& baseline() const { return baseline_; }

 private:
  struct Session {
    int owner = -1;
    std::unique_ptr<GateNetlist> netlist;
    std::unique_ptr<IncrementalSta> incr;
  };

  HandleResult dispatch(int conn, const RequestHeader& h, net::WireReader& r,
                        CancellationToken& token);
  std::string do_ping(const RequestHeader& h);
  std::string do_arrival(const RequestHeader& h, net::WireReader& r);
  std::string do_critical(const RequestHeader& h);
  std::string do_ssta_moments(const RequestHeader& h, net::WireReader& r);
  std::string do_lint(const RequestHeader& h, CancellationToken& token);
  std::string do_netmc(const RequestHeader& h, net::WireReader& r,
                       CancellationToken& token);
  std::string do_session_open(int conn, const RequestHeader& h);
  std::string do_session_edit(int conn, const RequestHeader& h,
                              net::WireReader& r, CancellationToken& token);
  std::string do_session_query(int conn, const RequestHeader& h,
                               net::WireReader& r);
  std::string do_session_close(int conn, const RequestHeader& h,
                               net::WireReader& r);

  /// Looks up a session and checks `conn` owns it (UsageError otherwise).
  Session& checked_session(int conn, std::uint32_t id);

  /// Resolves a net name on `nl`, rejecting unknown and ambiguous names
  /// with UsageError.
  static int resolve_net(const GateNetlist& nl, const std::string& name);

  ServiceRefs refs_;
  ServiceOptions options_;
  StaEngine::Result baseline_;
  PathDescription baseline_critical_;
  AnalyticSsta::Result ssta_;

  /// kNetMc's sample-independent half, built by the first kNetMc request
  /// (so start-up does not pay for it) and shared read-only afterwards.
  std::mutex mc_plan_mu_;
  std::optional<NetlistMonteCarlo::Plan> mc_plan_;

  mutable std::mutex sessions_mu_;
  std::map<std::uint32_t, Session> sessions_;
  std::map<int, std::uint32_t> session_seq_;  ///< per-conn id counter

  std::atomic<std::uint64_t> handled_{0};
};

}  // namespace nsdc::serve
