#include "serve/service.hpp"

#include <exception>
#include <utility>
#include <vector>

#include "core/mcconfig.hpp"
#include "lint/lint.hpp"
#include "util/argparse.hpp"
#include "util/cancel.hpp"
#include "util/errors.hpp"
#include "util/faultinject.hpp"

namespace nsdc::serve {

namespace {

/// Opens an OK response for `id`; the caller appends the body.
net::WireWriter ok_response(std::uint32_t id) {
  net::WireWriter w;
  w.u8(static_cast<std::uint8_t>(Status::kOk));
  w.u32(id);
  return w;
}

std::string error_response(Status status, std::uint32_t id,
                           std::string_view message) {
  net::WireWriter w;
  w.u8(static_cast<std::uint8_t>(status));
  w.u32(id);
  w.str(message);
  return w.take();
}

/// Every handler decodes its full body then calls this: a request with
/// missing fields or trailing junk is rejected before any work runs.
void require_clean_body(const net::WireReader& r, const char* what) {
  if (!r.ok()) {
    throw UsageError(std::string("truncated ") + what + " request body");
  }
  if (!r.at_end()) {
    throw UsageError(std::string("trailing bytes after ") + what +
                     " request body");
  }
}

void check_range(const char* field, long long value, long long min,
                 long long max) {
  if (const std::string err = check_integer_range(value, min, max);
      !err.empty()) {
    throw UsageError(std::string(field) + ": " + err);
  }
}

void write_net_time(net::WireWriter& w, const StaEngine::NetTime& t) {
  w.u8(t.reachable ? 1 : 0);
  w.f64(t.arrival[0]);
  w.f64(t.arrival[1]);
  w.f64(t.slew[0]);
  w.f64(t.slew[1]);
}

}  // namespace

Service::Service(const ServiceRefs& refs, ServiceOptions options)
    : refs_(refs), options_(options) {
  const StaEngine engine(*refs_.cell_model, *refs_.tech, options_.sta);
  baseline_ = engine.run(*refs_.netlist, *refs_.parasitics);
  baseline_critical_ = engine.extract_critical_path(*refs_.netlist, baseline_);
  AnalyticSstaOptions sopt;
  sopt.sta = options_.sta;
  const AnalyticSsta ssta(*refs_.cell_model, *refs_.wire_model, *refs_.tech,
                          sopt);
  ssta_ = ssta.run(*refs_.netlist, *refs_.parasitics);
}

Service::HandleResult Service::handle(int conn, std::uint64_t seq,
                                      std::string_view payload) {
  handled_.fetch_add(1, std::memory_order_relaxed);
  net::WireReader r(payload);
  const RequestHeader h = read_request_header(r);
  if (!r.ok()) {
    // Too short to even carry a request id; echo id 0.
    return {error_response(Status::kBadRequest, 0,
                           "truncated request header"),
            false};
  }
  try {
    CancellationToken token;
    if (h.deadline_s != 0.0) {
      if (const std::string err =
              check_real_range(h.deadline_s, 0.0, options_.max_deadline_s);
          !err.empty()) {
        throw UsageError("deadline_s: " + err);
      }
      token.set_timeout(h.deadline_s);
    }
    // The robustness matrix's per-request preemption point: an injected
    // throw must become an error response, an injected cancel a kCancelled
    // response — never a dead daemon.
    fault_fire("serve.request", seq, &token);
    token.throw_if_cancelled();
    return dispatch(conn, h, r, token);
  } catch (const UsageError& e) {
    return {error_response(Status::kBadRequest, h.request_id, e.what()),
            false};
  } catch (const CancelledError& e) {
    return {error_response(Status::kCancelled, h.request_id, e.what()),
            false};
  } catch (const ParseError& e) {
    return {error_response(Status::kParse, h.request_id, e.what()), false};
  } catch (const IoError& e) {
    return {error_response(Status::kIo, h.request_id, e.what()), false};
  } catch (const std::exception& e) {
    return {error_response(Status::kInternal, h.request_id, e.what()), false};
  }
}

Service::HandleResult Service::dispatch(int conn, const RequestHeader& h,
                                        net::WireReader& r,
                                        CancellationToken& token) {
  switch (h.type) {
    case ReqType::kPing:
      require_clean_body(r, "ping");
      return {do_ping(h), false};
    case ReqType::kArrival:
      return {do_arrival(h, r), false};
    case ReqType::kCritical:
      require_clean_body(r, "critical");
      return {do_critical(h), false};
    case ReqType::kSstaMoments:
      return {do_ssta_moments(h, r), false};
    case ReqType::kLint:
      require_clean_body(r, "lint");
      return {do_lint(h, token), false};
    case ReqType::kNetMc:
      return {do_netmc(h, r, token), false};
    case ReqType::kSessionOpen:
      require_clean_body(r, "session-open");
      return {do_session_open(conn, h), false};
    case ReqType::kSessionEdit:
      return {do_session_edit(conn, h, r, token), false};
    case ReqType::kSessionQuery:
      return {do_session_query(conn, h, r), false};
    case ReqType::kSessionClose:
      return {do_session_close(conn, h, r), false};
    case ReqType::kShutdown:
      require_clean_body(r, "shutdown");
      return {ok_response(h.request_id).take(), true};
  }
  throw UsageError("unknown request type " +
                   std::to_string(static_cast<int>(h.type)));
}

int Service::resolve_net(const GateNetlist& nl, const std::string& name) {
  if (nl.net_name_ambiguous(name)) {
    throw UsageError("net name '" + name +
                     "' is held by more than one net (netlist.duplicate_name)"
                     "; query by a unique name");
  }
  const int net = nl.find_net(name);
  if (net < 0) throw UsageError("unknown net '" + name + "'");
  return net;
}

std::string Service::do_ping(const RequestHeader& h) {
  net::WireWriter w = ok_response(h.request_id);
  w.u32(kProtocolVersion);
  w.str(refs_.netlist->name());
  w.u32(static_cast<std::uint32_t>(refs_.netlist->num_cells()));
  w.u32(static_cast<std::uint32_t>(refs_.netlist->num_nets()));
  w.u32(static_cast<std::uint32_t>(refs_.netlist->primary_outputs().size()));
  return w.take();
}

std::string Service::do_arrival(const RequestHeader& h, net::WireReader& r) {
  const std::string name = r.str();
  require_clean_body(r, "arrival");
  const int net = resolve_net(*refs_.netlist, name);
  net::WireWriter w = ok_response(h.request_id);
  w.u32(static_cast<std::uint32_t>(net));
  write_net_time(w, baseline_.nets[static_cast<std::size_t>(net)]);
  return w.take();
}

std::string Service::do_critical(const RequestHeader& h) {
  net::WireWriter w = ok_response(h.request_id);
  w.f64(baseline_.max_arrival);
  w.u32(static_cast<std::uint32_t>(baseline_.critical_net));
  w.str(refs_.netlist->net(baseline_.critical_net).name);
  w.u8(static_cast<std::uint8_t>(baseline_.critical_edge));
  w.u32(static_cast<std::uint32_t>(baseline_critical_.num_stages()));
  return w.take();
}

std::string Service::do_ssta_moments(const RequestHeader& h,
                                     net::WireReader& r) {
  const std::string name = r.str();
  require_clean_body(r, "ssta-moments");
  const int net = resolve_net(*refs_.netlist, name);
  net::WireWriter w = ok_response(h.request_id);
  w.u32(static_cast<std::uint32_t>(net));
  for (int edge = 0; edge < 2; ++edge) {
    const auto& es =
        ssta_.nets[static_cast<std::size_t>(net)][static_cast<std::size_t>(edge)];
    w.u8(es.reachable ? 1 : 0);
    w.f64(es.moments.mu);
    w.f64(es.moments.sigma);
    w.f64(es.moments.gamma);
    w.f64(es.moments.kappa);
  }
  return w.take();
}

std::string Service::do_lint(const RequestHeader& h,
                             CancellationToken& token) {
  LintInput in;
  in.netlist = refs_.netlist;
  in.parasitics = refs_.parasitics;
  in.charlib = refs_.charlib;
  in.cell_model = refs_.cell_model;
  in.tech = refs_.tech;
  LintOptions opt;
  opt.exec.cancel = &token;
  const LintReport report = run_lint(in, opt);
  net::WireWriter w = ok_response(h.request_id);
  w.u32(static_cast<std::uint32_t>(report.count(Severity::kError)));
  w.u32(static_cast<std::uint32_t>(report.count(Severity::kWarn)));
  w.u32(static_cast<std::uint32_t>(report.rules_run()));
  w.str(report.to_text());
  return w.take();
}

std::string Service::do_netmc(const RequestHeader& h, net::WireReader& r,
                              CancellationToken& token) {
  const std::uint32_t samples = r.u32();
  const std::uint64_t seed = r.u64();
  require_clean_body(r, "netmc");
  // The wire carries an arbitrary u32; the per-request sample budget is
  // enforced by the same range discipline as the --netmc CLI flag.
  check_range("samples", static_cast<long long>(samples), 1,
              static_cast<long long>(options_.max_mc_samples));
  const NetlistMonteCarlo mc(*refs_.cell_model, *refs_.wire_model,
                             *refs_.tech);
  // The design is fixed, so the first request prepares the plan (nominal
  // pre-pass, graph compile, arc flatten) and every request samples it. A
  // prepare that throws leaves no plan; the next request retries.
  NetlistMonteCarlo::Plan plan;
  {
    std::lock_guard<std::mutex> lock(mc_plan_mu_);
    if (!mc_plan_) mc_plan_ = mc.prepare(*refs_.netlist, *refs_.parasitics);
    plan = *mc_plan_;
  }
  McConfig cfg;
  cfg.samples = static_cast<int>(samples);
  cfg.seed = seed;
  cfg.exec.cancel = &token;
  const auto res = mc.run(plan, cfg);
  net::WireWriter w = ok_response(h.request_id);
  w.u64(res.samples_done);
  w.u32(static_cast<std::uint32_t>(res.po_nets.size()));
  w.u32(static_cast<std::uint32_t>(res.worst_po));
  w.f64(res.worst_po_moments.mu);
  w.f64(res.worst_po_moments.sigma);
  w.f64(res.worst_po_moments.gamma);
  w.f64(res.worst_po_moments.kappa);
  for (double q : res.worst_po_quantiles) w.f64(q);
  w.f64(res.circuit_moments.mu);
  w.f64(res.circuit_moments.sigma);
  return w.take();
}

std::string Service::do_session_open(int conn, const RequestHeader& h) {
  Session session;
  session.owner = conn;
  session.netlist = std::make_unique<GateNetlist>(*refs_.netlist);
  session.incr = std::make_unique<IncrementalSta>(*refs_.cell_model,
                                                  *refs_.tech, options_.sta);
  const StaEngine::Result& base =
      session.incr->bind(*session.netlist, *refs_.parasitics);
  const double max_arrival = base.max_arrival;

  std::uint32_t id = 0;
  {
    std::lock_guard<std::mutex> lock(sessions_mu_);
    if (sessions_.size() >= options_.max_sessions) {
      throw UsageError("session limit reached (" +
                       std::to_string(options_.max_sessions) + " open)");
    }
    // Ids are (connection, per-connection counter): deterministic for a
    // given client no matter how other connections' requests interleave.
    std::uint32_t& local = session_seq_[conn];
    check_range("sessions_per_connection", static_cast<long long>(local), 0,
                255);
    id = static_cast<std::uint32_t>(conn) * 256u + local;
    ++local;
    sessions_.emplace(id, std::move(session));
  }
  net::WireWriter w = ok_response(h.request_id);
  w.u32(id);
  w.f64(max_arrival);
  return w.take();
}

Service::Session& Service::checked_session(int conn, std::uint32_t id) {
  std::lock_guard<std::mutex> lock(sessions_mu_);
  const auto it = sessions_.find(id);
  if (it == sessions_.end()) {
    throw UsageError("unknown session " + std::to_string(id));
  }
  if (it->second.owner != conn) {
    throw UsageError("session " + std::to_string(id) +
                     " is owned by another connection");
  }
  // The reference stays valid after the lock drops: only the owning
  // connection can close it, and its requests are serialized.
  return it->second;
}

std::string Service::do_session_edit(int conn, const RequestHeader& h,
                                     net::WireReader& r,
                                     CancellationToken& token) {
  const std::uint32_t session_id = r.u32();
  const std::uint32_t count = r.u32();
  if (!r.ok()) throw UsageError("truncated session-edit request body");
  check_range("edit_count", static_cast<long long>(count), 1, 65536);
  Session& session = checked_session(conn, session_id);
  GateNetlist& nl = *session.netlist;

  // Decode and validate the whole batch against the pre-edit state before
  // mutating anything, so a rejected batch leaves the session untouched.
  // (Valid-op-by-op would be wrong anyway only if an op could change a
  // cell's arity or the net count — neither retype nor rewire can.)
  struct Edit {
    EditOp op;
    std::uint32_t cell = 0, pin = 0, net = 0;
    const CellType* type = nullptr;
  };
  std::vector<Edit> edits;
  edits.reserve(count);
  const long long max_cell = static_cast<long long>(nl.num_cells()) - 1;
  const long long max_net = static_cast<long long>(nl.num_nets()) - 1;
  for (std::uint32_t i = 0; i < count; ++i) {
    Edit e;
    e.op = static_cast<EditOp>(r.u8());
    switch (e.op) {
      case EditOp::kSetCellType: {
        e.cell = r.u32();
        const std::string type_name = r.str();
        if (!r.ok()) throw UsageError("truncated session-edit request body");
        check_range("cell", e.cell, 0, max_cell);
        if (!refs_.cell_library->contains(type_name)) {
          throw UsageError("unknown cell type '" + type_name + "'");
        }
        e.type = &refs_.cell_library->by_name(type_name);
        const auto& inst = nl.cell(static_cast<int>(e.cell));
        if (static_cast<std::size_t>(e.type->num_inputs()) !=
            inst.fanin_nets.size()) {
          throw UsageError("cell type '" + type_name + "' has " +
                           std::to_string(e.type->num_inputs()) +
                           " inputs, cell " + std::to_string(e.cell) +
                           " has " + std::to_string(inst.fanin_nets.size()));
        }
        break;
      }
      case EditOp::kRewireFanin: {
        e.cell = r.u32();
        e.pin = r.u32();
        e.net = r.u32();
        if (!r.ok()) throw UsageError("truncated session-edit request body");
        check_range("cell", e.cell, 0, max_cell);
        const auto& inst = nl.cell(static_cast<int>(e.cell));
        check_range("pin", e.pin, 0,
                    static_cast<long long>(inst.fanin_nets.size()) - 1);
        check_range("net", e.net, 0, max_net);
        break;
      }
      default:
        throw UsageError("unknown edit op " +
                         std::to_string(static_cast<int>(e.op)));
    }
    edits.push_back(e);
  }
  require_clean_body(r, "session-edit");

  for (const Edit& e : edits) {
    token.throw_if_cancelled();
    if (e.op == EditOp::kSetCellType) {
      nl.set_cell_type(static_cast<int>(e.cell), *e.type);
    } else {
      nl.rewire_fanin(static_cast<int>(e.cell), static_cast<int>(e.pin),
                      static_cast<int>(e.net));
    }
  }
  token.throw_if_cancelled();
  const StaEngine::Result& res = session.incr->update();
  const auto& stats = session.incr->last_stats();

  net::WireWriter w = ok_response(h.request_id);
  w.u64(stats.edits);
  w.u64(stats.nets_reannotated);
  w.u64(stats.cells_recomputed);
  w.u64(stats.cells_converged);
  w.u8(stats.full_rerun ? 1 : 0);
  w.f64(res.max_arrival);
  w.u32(static_cast<std::uint32_t>(res.critical_net));
  w.u8(static_cast<std::uint8_t>(res.critical_edge));
  w.u64(nl.generation());
  return w.take();
}

std::string Service::do_session_query(int conn, const RequestHeader& h,
                                      net::WireReader& r) {
  const std::uint32_t session_id = r.u32();
  const std::string name = r.str();
  require_clean_body(r, "session-query");
  Session& session = checked_session(conn, session_id);
  const int net = resolve_net(*session.netlist, name);
  const StaEngine::Result& res = session.incr->result();
  net::WireWriter w = ok_response(h.request_id);
  w.u32(static_cast<std::uint32_t>(net));
  write_net_time(w, res.nets[static_cast<std::size_t>(net)]);
  w.f64(res.max_arrival);
  return w.take();
}

std::string Service::do_session_close(int conn, const RequestHeader& h,
                                      net::WireReader& r) {
  const std::uint32_t session_id = r.u32();
  require_clean_body(r, "session-close");
  {
    std::lock_guard<std::mutex> lock(sessions_mu_);
    const auto it = sessions_.find(session_id);
    if (it == sessions_.end()) {
      throw UsageError("unknown session " + std::to_string(session_id));
    }
    if (it->second.owner != conn) {
      throw UsageError("session " + std::to_string(session_id) +
                       " is owned by another connection");
    }
    sessions_.erase(it);
  }
  return ok_response(h.request_id).take();
}

void Service::drop_owner(int conn) {
  std::lock_guard<std::mutex> lock(sessions_mu_);
  for (auto it = sessions_.begin(); it != sessions_.end();) {
    if (it->second.owner == conn) {
      it = sessions_.erase(it);
    } else {
      ++it;
    }
  }
  session_seq_.erase(conn);
}

std::size_t Service::open_sessions() const {
  std::lock_guard<std::mutex> lock(sessions_mu_);
  return sessions_.size();
}

}  // namespace nsdc::serve
