#include "dist/worker.hpp"

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <csignal>
#include <mutex>
#include <optional>
#include <thread>

#include "core/mcconfig.hpp"
#include "dist/protocol.hpp"
#include "net/client.hpp"
#include "sta/engine.hpp"
#include "sta/netmc.hpp"
#include "util/errors.hpp"
#include "util/faultinject.hpp"

namespace nsdc::dist {

namespace {

/// Crash without stack unwinding — the faulted worker must look exactly
/// like a process the OS killed mid-shard.
[[noreturn]] void die_by_sigkill() {
  ::raise(SIGKILL);
  for (;;) ::pause();  // unreachable; SIGKILL cannot be handled
}

/// Wedge the calling thread forever (a hung worker: alive, not working).
[[noreturn]] void hang_forever() {
  for (;;) std::this_thread::sleep_for(std::chrono::milliseconds(50));
}

/// The dist.worker.kill site: fired after work unit `unit` of attempt
/// `attempt` is durable, so a kill here never loses the unit it reports.
void fire_kill_site(std::uint64_t attempt, std::uint64_t unit) {
  switch (fault_at("dist.worker.kill", attempt * 10000 + unit)) {
    case FaultAction::kThrow:
      die_by_sigkill();
    case FaultAction::kCancel:
      // Hang mid-shard with the heartbeat thread still beating: only the
      // per-shard deadline watchdog can reclaim this worker.
      hang_forever();
    default:
      break;
  }
}

/// MC shard: blocks [lo, hi) into the assignment's checkpoint file.
/// resume=true picks up whatever valid prefix an earlier attempt left.
/// The plan (nominal pre-pass, compile, arc flatten) is prepared on the
/// worker's first MC assignment and reused by every later one.
void run_mc_shard(const WorkerConfig& cfg, const DesignBundle& bundle,
                  std::optional<NetlistMonteCarlo::Plan>& plan,
                  const AssignMsg& a, std::atomic<std::uint64_t>& units) {
  NetMcOptions opt;
  opt.block_begin = static_cast<std::size_t>(a.lo);
  opt.block_end = static_cast<std::size_t>(a.hi);
  opt.checkpoint_path = a.checkpoint_path;
  opt.resume = true;
  opt.on_block_done = [&](std::size_t b) {
    units.fetch_add(1, std::memory_order_relaxed);
    fire_kill_site(a.attempt, static_cast<std::uint64_t>(b));
  };
  const NetlistMonteCarlo mc(bundle.cell_model, bundle.wire_model,
                             bundle.tech, opt);
  if (!plan) plan = mc.prepare(bundle.netlist, bundle.parasitics);
  McConfig mcc;
  mcc.samples = cfg.samples;
  mcc.seed = cfg.seed;
  mcc.threads = cfg.threads;
  (void)mc.run(*plan, mcc);
}

/// STA shard: propagate only the fanin cones of sorted-PO indices
/// [lo, hi), level by level, through the exact sta_kernel functions the
/// full engine runs. A PO's NetTime depends only on its fanin cone, so
/// every returned value is byte-identical to the full-netlist run.
std::vector<PoTime> run_sta_shard(const WorkerConfig& cfg,
                                  const DesignBundle& bundle,
                                  const AssignMsg& a,
                                  std::atomic<std::uint64_t>& units) {
  const GateNetlist& nl = bundle.netlist;
  const auto& pos = nl.primary_outputs();  // ascending net ids
  const std::size_t lo = std::min(static_cast<std::size_t>(a.lo), pos.size());
  const std::size_t hi = std::min(static_cast<std::size_t>(a.hi), pos.size());

  // Reverse BFS: the cells whose outputs feed the assigned POs.
  std::vector<char> net_seen(nl.num_nets(), 0);
  std::vector<char> cell_seen(nl.num_cells(), 0);
  std::vector<int> stack;
  for (std::size_t i = lo; i < hi; ++i) {
    stack.push_back(pos[i]);
    net_seen[static_cast<std::size_t>(pos[i])] = 1;
  }
  while (!stack.empty()) {
    const int n = stack.back();
    stack.pop_back();
    const int d = nl.net(n).driver_cell;
    if (d < 0 || cell_seen[static_cast<std::size_t>(d)]) continue;
    cell_seen[static_cast<std::size_t>(d)] = 1;
    for (const int f : nl.cell(d).fanin_nets) {
      if (f >= 0 && !net_seen[static_cast<std::size_t>(f)]) {
        net_seen[static_cast<std::size_t>(f)] = 1;
        stack.push_back(f);
      }
    }
  }

  StaEngine::Result res;
  res.nets.resize(nl.num_nets());
  res.annotated.resize(nl.num_nets());
  res.net_load.assign(nl.num_nets(), 0.0);
  const ExecContext exec = ExecContext{}.with_threads(cfg.threads);
  // Annotation is net-local; annotating every net (not just the cone)
  // keeps this loop branch-free and every value matches the full run.
  exec.parallel_for_autotuned(nl.num_nets(), [&](std::size_t n) {
    sta_kernel::annotate_net(nl, bundle.parasitics, bundle.tech, n, res);
  });
  for (const int pi : nl.primary_inputs()) {
    auto& nt = res.nets[static_cast<std::size_t>(pi)];
    nt.reachable = true;
    nt.arrival = {0.0, 0.0};
    nt.slew = {10e-12, 10e-12};
  }
  const auto& lev = nl.levelization();
  for (std::size_t li = 0; li < lev.levels.size(); ++li) {
    std::vector<int> mine;
    for (const int c : lev.levels[li]) {
      if (cell_seen[static_cast<std::size_t>(c)]) mine.push_back(c);
    }
    if (!mine.empty()) {
      exec.parallel_for_autotuned(mine.size(), [&](std::size_t i) {
        sta_kernel::propagate_cell(nl, bundle.cell_model, mine[i], res);
      });
    }
    units.fetch_add(1, std::memory_order_relaxed);
    fire_kill_site(a.attempt, li);
  }

  std::vector<PoTime> out;
  out.reserve(hi - lo);
  for (std::size_t i = lo; i < hi; ++i) {
    const auto& nt = res.nets[static_cast<std::size_t>(pos[i])];
    PoTime p;
    p.net = pos[i];
    p.reachable = nt.reachable ? 1 : 0;
    p.arrival = nt.arrival;
    p.slew = nt.slew;
    out.push_back(p);
  }
  return out;
}

}  // namespace

int run_worker(const WorkerConfig& cfg) {
  const DesignBundle bundle = make_bundle(cfg.bundle);

  // The coordinator may still be binding its socket when we come up;
  // bounded deterministic backoff instead of a first-connect failure.
  RetryPolicy connect_retry;
  connect_retry.max_retries = 8;
  connect_retry.base_delay_s = 0.02;
  connect_retry.multiplier = 2.0;
  connect_retry.max_delay_s = 0.25;
  net::Client client(cfg.endpoint, connect_retry);

  std::mutex send_mu;  // heartbeat thread and main thread share the socket
  const auto send = [&](const std::string& payload) {
    const std::lock_guard<std::mutex> lock(send_mu);
    client.send_frame(payload);
  };
  send(encode_hello(HelloMsg{cfg.worker_id}));

  std::uint64_t hb_seq = 0;         // process-lifetime beat counter
  std::atomic<bool> wedged{false};  // dist.heartbeat fired: permanent silence
  std::optional<NetlistMonteCarlo::Plan> mc_plan;

  for (;;) {
    std::string payload;
    try {
      if (!client.try_recv_frame(&payload)) return 0;  // coordinator gone
    } catch (const IoError&) {
      return 0;
    }
    const MsgType type = peek_type(payload);
    if (type == MsgType::kStop) return 0;
    if (type != MsgType::kAssign) continue;  // unknown frames are ignored
    AssignMsg a;
    if (!decode_assign(payload, &a)) continue;

    std::atomic<std::uint64_t> units{0};
    std::mutex hb_mu;
    std::condition_variable hb_cv;
    bool hb_stop = false;  // guarded by hb_mu
    std::thread beat([&] {
      std::unique_lock<std::mutex> lock(hb_mu);
      // One beat per elapsed period. The wait ends early only when the
      // shard is over, so its ShardDone goes out at once instead of after
      // the rest of a beat period.
      while (!hb_cv.wait_for(lock, std::chrono::milliseconds(cfg.heartbeat_ms),
                             [&] { return hb_stop; })) {
        const std::uint64_t seq = ++hb_seq;
        if (wedged.load(std::memory_order_acquire)) continue;
        // Query-only (fault_at, not fault_fire): a throw from this thread
        // would terminate the process, but the site's contract is
        // silence-while-alive.
        if (fault_at("dist.heartbeat", cfg.worker_id * 1000 + seq) !=
            FaultAction::kNone) {
          wedged.store(true, std::memory_order_release);
          continue;
        }
        HeartbeatMsg hb{cfg.worker_id, a.shard, a.attempt,
                        units.load(std::memory_order_relaxed)};
        try {
          send(encode_heartbeat(hb));
        } catch (const IoError&) {
          break;  // coordinator went away; main loop will see EOF too
        }
      }
    });

    ShardDoneMsg done;
    done.worker_id = cfg.worker_id;
    done.shard = a.shard;
    done.attempt = a.attempt;
    try {
      if (cfg.mode == "sta") {
        done.po_times = run_sta_shard(cfg, bundle, a, units);
      } else {
        run_mc_shard(cfg, bundle, mc_plan, a, units);
      }
      done.ok = true;
    } catch (const std::exception& e) {
      done.ok = false;
      done.detail = e.what();
    }
    {
      const std::lock_guard<std::mutex> lock(hb_mu);
      hb_stop = true;
    }
    hb_cv.notify_one();
    beat.join();
    if (wedged.load(std::memory_order_acquire)) {
      // Silent-worker semantics: the shard finished but the result is
      // never reported — the missed-heartbeat watchdog must reclaim us.
      hang_forever();
    }
    try {
      send(encode_shard_done(done));
    } catch (const IoError&) {
      return 0;
    }
  }
}

}  // namespace nsdc::dist
