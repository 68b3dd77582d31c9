// serve_mixed: a closed loop of three connections from this process
// against an in-process serve::Service + serve::Daemon on a unix socket,
// serving the signoff_stat design of the same seed.
//
//   - Two reader connections send arrival, ssta-moments and critical
//     queries on seeded net names, with every kMcEvery-th request a
//     small-budget Monte-Carlo request. The daemon runs each batch to
//     completion, so a read batched with an MC request waits for it, and
//     the read p99 measures that stall.
//   - One ECO connection opens an edit session and streams 1-4 same-arity
//     retypes per edit on seeded cells drawn level by level (so large and
//     small fanout cones both occur), each edit followed by a session
//     query. It closes and reopens the session every kEditsPerSession
//     edits, so session open (a full netlist copy and STA today) is
//     exercised.
//
// Every connection sends its next request as soon as the previous one is
// answered. The answer is the median edit round trip, which IncrementalSta
// drives: the ECO connection sends many requests between two MC batches,
// so only a few of its edits wait behind one. About half the reads share
// a batch with an edit and wait for it, so the read median sits between
// the two modes; read latencies, session open and MC are printed.
//
// Checks: every response is kOk; arrival answers are bit-equal to an
// in-process StaEngine run; edit and session-query answers are bit-equal
// to an offline IncrementalSta replay of the same edit stream; the
// daemon's frame counters equal the requests sent.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <exception>
#include <iterator>
#include <map>
#include <mutex>
#include <thread>

#include "bench.hpp"
#include "net/client.hpp"
#include "serve/daemon.hpp"
#include "serve/protocol.hpp"
#include "serve/service.hpp"
#include "sta/engine.hpp"
#include "sta/incremental.hpp"
#include "sta/ssta_analytic.hpp"

namespace perfbench {

using namespace nsdc;

namespace {

constexpr int kCells = 4000;
constexpr int kSetups = 3;
constexpr int kReaders = 2;
constexpr std::uint32_t kMcSamples = 32;
/// Every kMcEvery-th request of a reader is an MC request (at a seeded
/// phase): a fixed cadence, so the stall count does not vary by chance.
constexpr std::uint64_t kMcEvery = 50;
constexpr int kEditsPerSession = 40;
/// The service numbers sessions per connection and allows 256; the ECO
/// client reconnects before that.
constexpr int kMaxSessionsPerConnection = 250;
constexpr std::size_t kReplayPerType = 200;     ///< handle() replay sample
constexpr int kPings = 200;
constexpr int kDirectConn = 4096;  ///< conn id of direct handle() calls

enum Kind {
  kArrival, kSsta, kCritical, kNetMc, kEdit, kQuery, kOpen, kClose, kPing,
  kNumKinds
};
const char* const kKindName[kNumKinds] = {
    "arrival",      "ssta_moments",  "critical",      "netmc", "session_edit",
    "session_query", "session_open", "session_close", "ping"};

bool same_double(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

/// Bit-equality of a wire NetTime (u8 reachable + 4 f64) with an engine's.
bool read_net_time_equals(net::WireReader& r, const StaEngine::NetTime& t) {
  const bool reachable = r.u8() != 0;
  const double a0 = r.f64(), a1 = r.f64(), s0 = r.f64(), s1 = r.f64();
  return r.ok() && reachable == t.reachable && same_double(a0, t.arrival[0]) &&
         same_double(a1, t.arrival[1]) && same_double(s0, t.slew[0]) &&
         same_double(s1, t.slew[1]);
}

/// One edit batch of the ECO stream and the answers the daemon gave.
struct EcoEdit {
  std::vector<std::pair<int, const CellType*>> retypes;
  std::string edit_response;
  std::string query_net;
  std::string query_response;
};

struct EcoSession {
  std::vector<EcoEdit> edits;
};

/// Latencies (seconds) and send times per request kind, plus the replay
/// sample of payloads.
struct ClientLog {
  std::vector<double> latency[kNumKinds];
  std::vector<double> sent_at[kNumKinds];
  std::vector<std::string> payloads[kNumKinds];
  std::uint64_t sent = 0;
  void record(Kind k, double start, double seconds, const std::string& payload) {
    latency[k].push_back(seconds);
    sent_at[k].push_back(start);
    if (payloads[k].size() < kReplayPerType) payloads[k].push_back(payload);
  }
};

class Fixture {
 public:
  Fixture(const Design& d, const Args& args, Tracer& tracer, Outcome& out)
      : d_(d), args_(args), tracer_(tracer), out_(out) {
    const GateNetlist& nl = d_.netlist;
    for (std::size_t n = 0; n < nl.num_nets(); ++n) {
      const std::string& name = nl.net(static_cast<int>(n)).name;
      if (!nl.net_name_ambiguous(name)) net_names_.push_back(name);
    }
    for (const CellType& t : d_.models->cells.cells()) {
      by_arity_[t.num_inputs()].push_back(&t);
    }
  }

  const std::vector<std::string>& net_names() const { return net_names_; }

  /// Request id shared by the spans of one request.
  std::uint64_t next_request() { return request_seq_.fetch_add(1) + 1; }

  /// One timed round trip; counts a non-kOk status as a failed operation.
  /// The full response payload is left in `response`; returns kOk.
  bool call(net::Client& client, Kind kind, const std::string& payload,
            ClientLog& log, std::string& response) {
    const std::uint64_t id = next_request();
    const double t0 = now_s();
    {
      Tracer::Scope s(tracer_, kKindName[kind], id);
      response = client.call(payload);
    }
    log.record(kind, t0, now_s() - t0, payload);
    ++log.sent;
    net::WireReader r(response);
    const serve::ResponseHead head = serve::read_response_head(r);
    const bool ok = r.ok() && head.status == serve::Status::kOk;
    std::lock_guard<std::mutex> lock(out_mu_);
    out_.check(ok, std::string(kKindName[kind]) + " request answered " +
                       serve::status_name(head.status) + ": " + head.error);
    return ok;
  }

  void note_failure(const std::string& what) {
    std::lock_guard<std::mutex> lock(out_mu_);
    out_.fail(what);
  }
  void note_check(bool ok, const std::string& what) {
    std::lock_guard<std::mutex> lock(out_mu_);
    out_.check(ok, what);
  }

  void reader(int index, const net::Endpoint& ep, double deadline,
              const StaEngine::Result& reference, ClientLog& log) {
    std::uint64_t state = derive_seed(args_.seed, 70 + static_cast<std::uint64_t>(index), 0);
    const std::uint64_t mc_phase = state % kMcEvery;
    net::Client client(ep, RetryPolicy{});
    std::string response;
    std::uint32_t id = 0;
    while (now_s() < deadline) {
      state = mix64(state);
      const std::uint64_t roll = state % 1000;
      const std::string& name = net_names_[(state >> 20) % net_names_.size()];
      if (id++ % kMcEvery == mc_phase) {
        call(client, kNetMc,
             serve::make_netmc(id, kMcSamples, (state >> 12) % 1'000'000'000ULL),
             log, response);
      } else if (roll < 500) {
        if (!call(client, kArrival, serve::make_arrival(id, name), log, response)) {
          continue;
        }
        net::WireReader r(response);
        serve::read_response_head(r);
        const std::uint32_t net = r.u32();
        note_check(net < reference.nets.size() &&
                       read_net_time_equals(r, reference.nets[net]),
                   "arrival of " + name + " differs from the in-process STA");
      } else if (roll < 850) {
        call(client, kSsta, serve::make_ssta_moments(id, name), log, response);
      } else {
        if (!call(client, kCritical, serve::make_critical(id), log, response)) {
          continue;
        }
        net::WireReader r(response);
        serve::read_response_head(r);
        const double max_arrival = r.f64();
        const std::uint32_t net = r.u32();
        note_check(r.ok() && same_double(max_arrival, reference.max_arrival) &&
                       static_cast<int>(net) == reference.critical_net,
                   "critical answer differs from the in-process STA");
      }
    }
  }

  /// Draws one edit: 1-4 retypes on cells picked level by level.
  EcoEdit draw_edit(std::uint64_t& state) const {
    const auto& levels = d_.netlist.levelization().levels;
    EcoEdit e;
    state = mix64(state);
    const int count = 1 + static_cast<int>(state % 4);
    for (int k = 0; k < count; ++k) {
      state = mix64(state);
      const auto& level = levels[state % levels.size()];
      if (level.empty()) continue;
      state = mix64(state);
      const int cell = level[state % level.size()];
      const CellType* now = d_.netlist.cell(cell).type;
      const auto& peers = by_arity_.at(now->num_inputs());
      state = mix64(state);
      const CellType* pick = peers[state % peers.size()];
      if (pick == now) pick = peers[(state / 7 + 1) % peers.size()];
      e.retypes.emplace_back(cell, pick);
    }
    state = mix64(state);
    e.query_net = net_names_[state % net_names_.size()];
    return e;
  }

  void eco(const net::Endpoint& ep, double deadline, ClientLog& log,
           std::vector<EcoSession>& sessions) {
    std::uint64_t state = derive_seed(args_.seed, 80, 0);
    std::unique_ptr<net::Client> client;
    int on_connection = 0;
    std::string response;
    std::uint32_t id = 0;
    while (now_s() < deadline) {
      if (!client || on_connection == kMaxSessionsPerConnection) {
        client = std::make_unique<net::Client>(ep, RetryPolicy{});
        on_connection = 0;
      }
      ++on_connection;
      if (!call(*client, kOpen, serve::make_session_open(++id), log, response)) {
        return;
      }
      net::WireReader r(response);
      serve::read_response_head(r);
      const std::uint32_t session = r.u32();
      sessions.emplace_back();
      EcoSession& s = sessions.back();
      for (int k = 0; k < kEditsPerSession && now_s() < deadline; ++k) {
        EcoEdit e = draw_edit(state);
        serve::SessionEditRequest req(++id, session);
        for (const auto& [cell, type] : e.retypes) {
          req.set_cell_type(static_cast<std::uint32_t>(cell), type->name());
        }
        if (!call(*client, kEdit, req.take(), log, e.edit_response)) return;
        if (!call(*client, kQuery,
                  serve::make_session_query(++id, session, e.query_net), log,
                  e.query_response)) {
          return;
        }
        s.edits.push_back(std::move(e));
      }
      call(*client, kClose, serve::make_session_close(++id, session), log,
           response);
    }
  }

 private:
  const Design& d_;
  const Args& args_;
  Tracer& tracer_;
  Outcome& out_;
  std::mutex out_mu_;
  std::vector<std::string> net_names_;
  std::map<int, std::vector<const CellType*>> by_arity_;
  std::atomic<std::uint64_t> request_seq_{0};
};

/// Offline IncrementalSta replay of the ECO stream: every edit and query
/// answer the daemon gave must be bit-equal. Returns the per-update times.
std::vector<double> replay_eco(const Design& d,
                               const std::vector<EcoSession>& sessions,
                               Tracer& tracer, Outcome& out,
                               std::size_t& cone_cells,
                               std::size_t& full_reruns) {
  const Models& m = *d.models;
  std::vector<double> update_s;
  for (const EcoSession& s : sessions) {
    GateNetlist nl = d.netlist;
    IncrementalSta incr(m.cell_model, m.tech);
    incr.bind(nl, d.parasitics);
    for (const EcoEdit& e : s.edits) {
      for (const auto& [cell, type] : e.retypes) nl.set_cell_type(cell, *type);
      const double t0 = now_s();
      const StaEngine::Result* res = nullptr;
      {
        Tracer::Scope span(tracer, "sta.incremental_update", 0);
        res = &incr.update();
      }
      update_s.push_back(now_s() - t0);
      cone_cells += incr.last_stats().cells_recomputed;
      full_reruns += incr.last_stats().full_rerun ? 1 : 0;

      net::WireReader er(e.edit_response);
      serve::read_response_head(er);
      for (int k = 0; k < 4; ++k) er.u64();  // UpdateStats counters
      er.u8();                                 // full_rerun
      const double max_arrival = er.f64();
      const std::uint32_t critical = er.u32();
      out.check(er.ok() && same_double(max_arrival, res->max_arrival) &&
                    static_cast<int>(critical) == res->critical_net,
                "session edit answer differs from the offline replay");

      net::WireReader qr(e.query_response);
      serve::read_response_head(qr);
      const std::uint32_t net = qr.u32();
      const bool same_time = net < res->nets.size() &&
                             read_net_time_equals(qr, res->nets[net]);
      const double query_max = qr.f64();
      out.check(qr.ok() && same_time && same_double(query_max, res->max_arrival),
                "session query of " + e.query_net +
                    " differs from the offline replay");
    }
  }
  return update_s;
}

/// Service::handle called directly with recorded payloads (no socket).
void replay_handle(serve::Service& service, const ClientLog& log,
                   const std::vector<EcoSession>& sessions, Outcome& out) {
  std::uint64_t seq = 1u << 30;
  const auto timed = [&](std::string_view payload) {
    const double t0 = now_s();
    const serve::Service::HandleResult r = service.handle(kDirectConn, seq++, payload);
    const double dt = now_s() - t0;
    net::WireReader rd(r.response);
    const serve::ResponseHead head = serve::read_response_head(rd);
    out.check(head.status == serve::Status::kOk,
              std::string("direct handle answered ") +
                  serve::status_name(head.status) + ": " + head.error);
    return std::make_pair(dt, r.response);
  };
  for (const Kind k : {kArrival, kSsta, kCritical, kNetMc}) {
    std::vector<double> t;
    const std::size_t cap = k == kNetMc ? 5 : kReplayPerType;
    for (std::size_t i = 0; i < log.payloads[k].size() && i < cap; ++i) {
      t.push_back(timed(log.payloads[k][i]).first);
    }
    const double p50 = median(t);
    if (k == kNetMc) {
      out.layer["serve.handle_ms.netmc"] = p50 * 1e3;
    } else {
      out.layer[std::string("serve.handle_us.") + kKindName[k]] = p50 * 1e6;
    }
  }
  // Session traffic: replay the first recorded sessions' edit streams into
  // fresh sessions of the direct connection.
  std::vector<double> open_t, edit_t, query_t;
  std::uint32_t id = 1;
  for (const EcoSession& s : sessions) {
    if (open_t.size() >= 8) break;
    const auto [dt, resp] = timed(serve::make_session_open(id++));
    open_t.push_back(dt);
    net::WireReader r(resp);
    serve::read_response_head(r);
    const std::uint32_t session = r.u32();
    for (const EcoEdit& e : s.edits) {
      serve::SessionEditRequest req(id++, session);
      for (const auto& [cell, type] : e.retypes) {
        req.set_cell_type(static_cast<std::uint32_t>(cell), type->name());
      }
      edit_t.push_back(timed(req.take()).first);
      query_t.push_back(
          timed(serve::make_session_query(id++, session, e.query_net)).first);
    }
    timed(serve::make_session_close(id++, session));
  }
  out.layer["serve.handle_ms.session_open"] = median(open_t) * 1e3;
  out.layer["serve.handle_us.session_edit"] = median(edit_t) * 1e6;
  out.layer["serve.handle_us.session_query"] = median(query_t) * 1e6;
}

using Interval = std::pair<double, double>;

/// Union of the round trips of the MC requests in `logs`, as sorted
/// disjoint intervals.
std::vector<Interval> mc_intervals(const std::vector<const ClientLog*>& logs) {
  std::vector<Interval> all;
  for (const ClientLog* log : logs) {
    for (std::size_t i = 0; i < log->sent_at[kNetMc].size(); ++i) {
      const double t0 = log->sent_at[kNetMc][i];
      all.emplace_back(t0, t0 + log->latency[kNetMc][i]);
    }
  }
  std::sort(all.begin(), all.end());
  std::vector<Interval> merged;
  for (const Interval& iv : all) {
    if (!merged.empty() && iv.first <= merged.back().second) {
      merged.back().second = std::max(merged.back().second, iv.second);
    } else {
      merged.push_back(iv);
    }
  }
  return merged;
}

bool overlaps(const std::vector<Interval>& busy, double t0, double t1) {
  // The last busy interval that starts before t1.
  const auto it = std::upper_bound(busy.begin(), busy.end(), Interval(t1, t1));
  return it != busy.begin() && std::prev(it)->second >= t0;
}

}  // namespace

void run_serve_mixed(const Args& args, Tracer& tracer, Outcome& out) {
  const double run_start = now_s();
  DesignSpec spec;
  spec.kind = DesignSpec::Kind::kRandomFinalized;
  spec.size = kCells;
  spec.design_seed = derive_seed(args.seed, 10, 0);  // signoff_stat's design
  spec.parasitic_seed = derive_seed(args.seed, 11, 0);
  spec.name = "signoff_" + std::to_string(spec.design_seed);

  // Set-up, repeated: design + parasitics + Service (baseline STA and
  // analytic SSTA). The last one serves.
  std::unique_ptr<Design> design;
  std::unique_ptr<serve::Service> service;
  for (int i = 0; i < kSetups; ++i) {
    service.reset();
    const double s0 = now_s();
    Tracer::Scope setup_span(tracer, "setup", 0);
    design = set_up(spec, tracer, out);
    if (!design) return;
    try {
      serve::ServiceRefs refs;
      refs.netlist = &design->netlist;
      refs.parasitics = &design->parasitics;
      refs.cell_library = &design->models->cells;
      refs.cell_model = &design->models->cell_model;
      refs.wire_model = &design->models->wire_model;
      refs.tech = &design->models->tech;
      refs.charlib = &design->models->charlib;
      Tracer::Scope s(tracer, "serve.init", 0);
      service = std::make_unique<serve::Service>(refs);
    } catch (const std::exception& e) {
      out.fail(std::string("Service construction threw: ") + e.what());
      return;
    }
    ++out.attempted;
    out.setup_s.push_back(now_s() - s0);
  }
  const Design& d = *design;
  const Models& m = *d.models;

  StaEngine::Result reference;
  {
    Tracer::Scope s(tracer, "sta.nominal", 0);
    reference = StaEngine(m.cell_model, m.tech).run(d.netlist, d.parasitics);
  }

  Fixture fx(d, args, tracer, out);
  if (fx.net_names().empty()) {
    out.fail("design has no unambiguous net name to query");
    return;
  }
  const net::Endpoint ep = net::Endpoint::unix_path(args.work_dir + "/serve.sock");
  serve::Daemon daemon(ep, *service);
  std::thread server([&] { daemon.run(); });

  ClientLog reader_logs[kReaders];
  ClientLog eco_log;
  ClientLog ping_log;
  std::vector<EcoSession> sessions;
  // A traced run keeps spans off for the first half of the loop and on
  // for the second, so the two halves give the tracing overhead.
  const bool traced = tracer.enabled();
  const double window = std::max(2.0, args.seconds - (now_s() - run_start));
  const double loop_start = now_s();
  const double deadline = loop_start + window;
  const double traced_from = loop_start + window / 2;
  if (traced) tracer.set_enabled(false);
  {
    std::vector<std::thread> clients;
    for (int r = 0; r < kReaders; ++r) {
      clients.emplace_back([&, r] {
        try {
          fx.reader(r, ep, deadline, reference, reader_logs[r]);
        } catch (const std::exception& e) {
          fx.note_failure(std::string("reader threw: ") + e.what());
        }
      });
    }
    clients.emplace_back([&] {
      try {
        fx.eco(ep, deadline, eco_log, sessions);
      } catch (const std::exception& e) {
        fx.note_failure(std::string("ECO client threw: ") + e.what());
      }
    });
    if (traced) {
      std::this_thread::sleep_for(
          std::chrono::duration<double>(traced_from - now_s()));
      tracer.set_enabled(true);
    }
    for (std::thread& t : clients) t.join();
  }
  const double loop_s = now_s() - loop_start;

  // Idle transport floor: pings on a quiet daemon.
  try {
    net::Client client(ep, RetryPolicy{});
    std::string response;
    for (int i = 0; i < kPings; ++i) {
      fx.call(client, kPing, serve::make_ping(static_cast<std::uint32_t>(i)),
              ping_log, response);
    }
  } catch (const std::exception& e) {
    out.fail(std::string("ping client threw: ") + e.what());
  }
  daemon.request_graceful_stop();
  server.join();

  // Latencies per class.
  std::vector<double> reads, mc, edits, queries, opens;
  std::uint64_t sent = eco_log.sent + ping_log.sent;
  for (const ClientLog& log : reader_logs) {
    for (const Kind k : {kArrival, kSsta, kCritical}) {
      reads.insert(reads.end(), log.latency[k].begin(), log.latency[k].end());
    }
    mc.insert(mc.end(), log.latency[kNetMc].begin(), log.latency[kNetMc].end());
    sent += log.sent;
  }
  edits = eco_log.latency[kEdit];
  out.answer_s = edits;
  if (traced) {
    for (std::size_t i = 0; i < edits.size(); ++i) {
      (eco_log.sent_at[kEdit][i] >= traced_from ? out.traced_answer_s
                                                : out.untraced_answer_s)
          .push_back(edits[i]);
    }
  }
  queries = eco_log.latency[kQuery];
  opens = eco_log.latency[kOpen];

  const net::ServerLoop::Stats& ns = daemon.net_stats();
  out.check(ns.frames_in == sent && ns.frames_out == sent,
            "daemon frames in/out " + std::to_string(ns.frames_in) + "/" +
                std::to_string(ns.frames_out) + " != requests sent " +
                std::to_string(sent));

  std::size_t cone_cells = 0, full_reruns = 0;
  const std::vector<double> update_s =
      replay_eco(d, sessions, tracer, out, cone_cells, full_reruns);

  const std::uint64_t loop_requests = sent - ping_log.sent;
  std::printf("serve_mixed: %zu cells, %d readers + 1 ECO connection, %.2f s "
              "loop, %llu requests (%zu reads, %zu MC, %zu edits in %zu "
              "sessions)\n",
              d.netlist.num_cells(), kReaders, loop_s,
              static_cast<unsigned long long>(loop_requests), reads.size(),
              mc.size(), edits.size(), sessions.size());
  report("serve_rps", static_cast<double>(loop_requests) / loop_s, "req/s");
  report("read_p50_ms", percentile(reads, 50) * 1e3, "ms");
  report("read_p99_ms", percentile(reads, 99) * 1e3, "ms");
  report("edit_p50_ms", percentile(edits, 50) * 1e3, "ms");
  report("edit_p99_ms", percentile(edits, 99) * 1e3, "ms");
  report("session_query_p50_ms", percentile(queries, 50) * 1e3, "ms");
  report("session_open_p50_ms", percentile(opens, 50) * 1e3, "ms");
  report("netmc_p50_ms", percentile(mc, 50) * 1e3, "ms");
  // The daemon runs a batch to completion, so a read whose round trip
  // overlaps another reader's MC request may have waited for it. About
  // half the reads share a batch with an ECO edit, which the read
  // quartiles show.
  std::size_t beside_mc = 0;
  for (int r = 0; r < kReaders; ++r) {
    std::vector<const ClientLog*> others;
    for (int o = 0; o < kReaders; ++o) {
      if (o != r) others.push_back(&reader_logs[o]);
    }
    const std::vector<Interval> mc_busy = mc_intervals(others);
    for (const Kind k : {kArrival, kSsta, kCritical}) {
      for (std::size_t i = 0; i < reader_logs[r].latency[k].size(); ++i) {
        const double t0 = reader_logs[r].sent_at[k][i];
        beside_mc += overlaps(mc_busy, t0, t0 + reader_logs[r].latency[k][i]);
      }
    }
  }
  report("reads_beside_mc_pct",
         reads.empty() ? 0.0
                       : 100.0 * static_cast<double>(beside_mc) /
                             static_cast<double>(reads.size()),
         "%");
  report("read_p25_ms", percentile(reads, 25) * 1e3, "ms");
  report("read_p75_ms", percentile(reads, 75) * 1e3, "ms");

  if (traced) {
    out.layer["serve.init_s"] = span_median(tracer, "serve.init");
    out.layer["sta.nominal_s"] = span_median(tracer, "sta.nominal");
    {
      AnalyticSsta::Result ssta;
      Tracer::Scope s(tracer, "sta.ssta", 0);
      ssta = AnalyticSsta(m.cell_model, m.wire_model, m.tech)
                 .run(d.netlist, d.parasitics);
    }
    out.layer["sta.ssta_s"] = span_median(tracer, "sta.ssta");
    out.layer["sta.incremental_update_us_p50"] = percentile(update_s, 50) * 1e6;
    out.layer["sta.incremental_update_us_p99"] = percentile(update_s, 99) * 1e6;
    out.layer["sta.incremental_cone_cells"] = static_cast<double>(cone_cells);
    out.layer["sta.incremental_full_reruns"] = static_cast<double>(full_reruns);
    out.layer["net.roundtrip_us"] = percentile(ping_log.latency[kPing], 50) * 1e6;
    out.layer["net.frames_in"] = static_cast<double>(ns.frames_in);
    out.layer["net.frames_out"] = static_cast<double>(ns.frames_out);
    ClientLog all;
    for (const ClientLog& log : reader_logs) {
      for (int k = 0; k < kNumKinds; ++k) {
        for (const std::string& p : log.payloads[k]) {
          if (all.payloads[k].size() < kReplayPerType) all.payloads[k].push_back(p);
        }
      }
    }
    replay_handle(*service, all, sessions, out);
    probe_graph_layers(d.netlist, d.parasitics, m.cell_model, m.tech, tracer,
                       out);
  }
}

}  // namespace perfbench
