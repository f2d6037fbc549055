// Live trials: drive a deployment through its public runtime API, record
// what every server's user sees, and gate the run on its outputs.
#include <algorithm>
#include <condition_variable>
#include <deque>
#include <functional>
#include <mutex>
#include <set>
#include <thread>

#include "harness.h"
#include "protocols/brb.h"
#include "protocols/fifo_brb.h"
#include "rt/threaded_runtime.h"
#include "runtime/cluster.h"
#include "util/rng.h"

namespace perf {

namespace {

using namespace blockdag;
using Clock = std::chrono::steady_clock;

constexpr std::size_t kLemma42Sample = 16;   // blocks checked per trial
constexpr std::int64_t kProbeEveryNs = 5'000'000;

Bytes payload(std::uint64_t seed, std::uint64_t index, std::size_t size) {
  Bytes out(size);
  std::uint64_t word = 0;
  for (std::size_t b = 0; b < size; ++b) {
    if (b % 8 == 0) word = mix(mix(seed, index), b);
    out[b] = static_cast<std::uint8_t>(word >> (8 * (b % 8)));
  }
  return out;
}

Bytes make_request(Proto proto, const Bytes& value) {
  return proto == Proto::kBrb ? brb::make_broadcast(value)
                              : fifo::make_broadcast(value);
}

const ProtocolFactory& factory_for(Proto proto) {
  static const brb::BrbFactory brb_factory;
  static const fifo::FifoBrbFactory fifo_factory;
  if (proto == Proto::kBrb) return brb_factory;
  return fifo_factory;
}

// Every indication the servers' users see, and the moment each request
// became indicated at every server. Written from server threads (threaded
// runtime) or the event loop (sim); `now_ns` is the runtime's clock.
class Recorder {
 public:
  Recorder(Proto proto, std::uint32_t n, std::function<std::int64_t()> now_ns)
      : n_(n), now_ns_(std::move(now_ns)), logs_(n) {
    expected_.proto = proto;
  }

  // Registers request i before it is submitted; `start_ns` is its due time
  // (open loop) or send time (closed loop).
  std::size_t add(Label label, Bytes value, ServerId origin, std::uint64_t seq,
                  std::int64_t start_ns) {
    std::lock_guard<std::mutex> lock(mu_);
    const std::size_t i = expected_.label.size();
    expected_.label.push_back(label);
    expected_.value.push_back(std::move(value));
    expected_.origin.push_back(origin);
    expected_.seq.push_back(seq);
    start_ns_.push_back(start_ns);
    commit_ns_.push_back(-1);
    hits_.push_back(0);
    if (expected_.proto == Proto::kFifo) fifo_index_[{origin, seq}] = i;
    return i;
  }

  void on_indication(ServerId server, Label label, const Bytes& indication) {
    std::lock_guard<std::mutex> lock(mu_);
    logs_[server].push_back(IndicationRecord{label, indication});
    std::size_t i = SIZE_MAX;
    if (expected_.proto == Proto::kBrb) {
      if (label >= 1 && label <= expected_.label.size()) i = label - 1;
    } else if (const auto d = fifo::parse_deliver(indication)) {
      const auto it = fifo_index_.find({d->origin, d->seq});
      if (it != fifo_index_.end()) i = it->second;
    }
    if (i == SIZE_MAX || ++hits_[i] != n_) return;
    commit_ns_[i] = now_ns_();
    ++committed_;
    ready_.push_back(i);
    cv_.notify_one();
  }

  // Waits until a request commits, `deadline_ns` passes, or (all = true)
  // every registered request has committed. Returns newly committed ones.
  std::vector<std::size_t> wait(std::int64_t deadline_ns, bool all) {
    std::unique_lock<std::mutex> lock(mu_);
    const auto until = origin_ + std::chrono::nanoseconds(deadline_ns);
    cv_.wait_until(lock, until, [&] {
      return all ? committed_ == expected_.label.size() : !ready_.empty();
    });
    std::vector<std::size_t> out(ready_.begin(), ready_.end());
    ready_.clear();
    return out;
  }

  bool all_committed() {
    std::lock_guard<std::mutex> lock(mu_);
    return committed_ == expected_.label.size();
  }

  // Wall-clock origin used by wait() (threaded runtime only).
  void set_origin(Clock::time_point origin) { origin_ = origin; }

  // Only the harness thread writes these; the logs are read after the run
  // has stopped.
  const Expected& expected() const { return expected_; }
  std::vector<std::vector<IndicationRecord>>& logs() { return logs_; }

  // Commits so far (later ones count as failed): attempts, committed count,
  // latencies and the load window up to the last commit.
  void fill(TrialResult& r, std::int64_t load0_ns) {
    std::lock_guard<std::mutex> lock(mu_);
    r.attempted = expected_.label.size();
    r.committed = committed_;
    std::int64_t last = load0_ns;
    for (std::size_t i = 0; i < commit_ns_.size(); ++i) {
      if (commit_ns_[i] < 0) continue;
      r.latency_ms.push_back(static_cast<double>(commit_ns_[i] - start_ns_[i]) / 1e6);
      last = std::max(last, commit_ns_[i]);
    }
    r.window_s = static_cast<double>(last - load0_ns) / 1e9;
  }

 private:
  const std::uint32_t n_;
  std::function<std::int64_t()> now_ns_;
  Clock::time_point origin_{};
  std::mutex mu_;
  std::condition_variable cv_;
  Expected expected_;
  std::vector<std::int64_t> start_ns_;
  std::vector<std::int64_t> commit_ns_;
  std::vector<std::uint32_t> hits_;
  std::map<std::pair<ServerId, std::uint64_t>, std::size_t> fifo_index_;
  std::vector<std::vector<IndicationRecord>> logs_;
  std::deque<std::size_t> ready_;
  std::uint64_t committed_ = 0;
};

double ratio(double num, double den) { return den > 0 ? num / den : 0; }

// Share of the host's CPU time stolen by the hypervisor since `from`.
double steal_since(const HostTicks& from) {
  const HostTicks now = host_ticks();
  return ratio(static_cast<double>(now.steal - from.steal),
               static_cast<double>(now.total - from.total));
}

// Counters every workload reports from its live run (the (L) metrics).
void live_layers(Metrics& m, double committed, const InterpreterStats& is,
                 const GossipStats& gs, const WireMetrics& wm) {
  m["net.wire_bytes_per_req"] = ratio(static_cast<double>(wm.total_bytes()), committed);
  m["gossip.blocks_per_req"] = ratio(static_cast<double>(gs.blocks_built), committed);
  m["gossip.fwd_per_kblock"] =
      1000.0 * ratio(static_cast<double>(gs.fwd_requests_sent),
                     static_cast<double>(gs.blocks_built));
  m["interpret.clones_per_block"] =
      ratio(static_cast<double>(is.instance_clones),
            static_cast<double>(is.blocks_interpreted));
  m["interpret.msgs_delivered_per_req"] =
      ratio(static_cast<double>(is.messages_delivered), committed);
  m["interpret.parallel_batch_frac"] =
      ratio(static_cast<double>(is.parallel_batches),
            static_cast<double>(is.parallel_batches + is.serial_batches));
}

void add_gossip(GossipStats& sum, const GossipStats& s) {
  sum.blocks_built += s.blocks_built;
  sum.fwd_requests_sent += s.fwd_requests_sent;
}

// Seeded sample of block refs for the Lemma 4.2 check.
std::vector<Hash256> sample_refs(const std::vector<BlockPtr>& blocks,
                                 std::uint64_t seed) {
  std::vector<Hash256> out;
  if (blocks.empty()) return out;
  Rng rng(mix(seed, 3));
  for (std::size_t i = 0; i < kLemma42Sample; ++i) {
    out.push_back(blocks[rng.below(blocks.size())]->ref());
  }
  return out;
}

bool has_every_builder(const BlockDag& dag, std::uint32_t n) {
  std::set<ServerId> builders;
  for (const BlockPtr& b : dag.topological_order()) builders.insert(b->n());
  return builders.size() == n;
}

// Shared tail of a trial: indication gate, then the traced replay.
// `dag_cpu_s` is the process CPU over the DAG's whole life (setup through
// convergence), the base of the ledger's unattributed share.
void finish_gate(const Options& opt, TrialResult& r, Recorder& rec,
                 const std::vector<std::size_t>& user_log_sizes,
                 ReplayInput replay_in, double dag_cpu_s) {
  auto& logs = rec.logs();
  for (std::size_t s = 0; s < logs.size() && r.gate_error.empty(); ++s) {
    if (user_log_sizes[s] != logs[s].size()) {
      r.gate_error = "indication handler and user log disagree at server " +
                     std::to_string(s);
    }
  }
  plant_fault(opt.plant, logs);
  if (r.gate_error.empty()) r.gate_error = check_indications(rec.expected(), logs);
  if (opt.plant == "digest" && !replay_in.live_digest.empty()) {
    replay_in.live_digest[0].back() ^= 0x01;
  }
  if (r.gate_error.empty() && opt.traced) {
    const ReplayResult rep = replay(replay_in, opt.trace_out);
    r.gate_error = rep.error;
    for (const auto& [k, v] : rep.layers) r.layers[k] = v;
    r.layers["ledger.unattributed_frac"] = 1.0 - ratio(rep.layer_cpu_s, dag_cpu_s);
  }
  r.gate_ok = r.gate_error.empty();
}

}  // namespace

TrialResult run_threaded(const Options& opt) {
  const Workload& w = *opt.workload;
  const ProtocolFactory& factory = factory_for(w.proto);
  rt::ThreadedConfig cfg;
  cfg.n_servers = w.n;
  cfg.seed = mix(opt.seed, 1);
  cfg.pacing.interval = sim_ms(w.beat_ms);
  cfg.sig_scheme = w.sig;
  if (w.backend == Backend::kTcp) {
    cfg.backend = rt::TransportBackend::kTcp;
  } else {
    cfg.backend = rt::TransportBackend::kUdp;
    cfg.udp.fault_seed = mix(opt.seed, 2);
  }

  TrialResult r;
  const double cpu_start = cpu_seconds();
  const auto origin = Clock::now();
  auto now_ns = [origin] {
    return static_cast<std::int64_t>((Clock::now() - origin).count());
  };
  Recorder rec(w.proto, w.n, now_ns);
  rec.set_origin(origin);
  // Mailbox probes run on server threads: declared before the runtime so
  // they outlive every queued probe task.
  std::mutex probe_mu;
  std::vector<double> probe_us;

  // ---- Setup: construction → every server holds every server's block.
  rt::ThreadedRuntime runtime(factory, cfg);
  if (!runtime.transport_ok()) {
    r.gate_error = "transport failed to bind";
    return r;
  }
  for (ServerId s = 0; s < w.n; ++s) {
    runtime.call(s, [&rec, s](Shim& shim) {
      shim.set_indication_handler(
          [&rec, s](Label label, const Bytes& ind) { rec.on_indication(s, label, ind); });
    });
  }
  runtime.start();
  for (;;) {
    bool ready = true;
    for (ServerId s = 0; s < w.n && ready; ++s) {
      ready = runtime.call(s, [&w](Shim& shim) { return has_every_builder(shim.dag(), w.n); });
    }
    if (ready) break;
    if (now_ns() > 10'000'000'000) {
      r.gate_error = "setup did not complete within 10 s";
      return r;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  r.setup_s = static_cast<double>(now_ns()) / 1e9;
  // Loss starts with the load: a lost first datagram would otherwise make
  // set-up time a lottery between one and two retransmission timeouts.
  if (runtime.udp() != nullptr) {
    rt::LinkFault loss;
    loss.drop = w.drop;
    runtime.udp()->set_default_fault(loss);
  }
  r.interpret_workers = runtime.interpret_workers();
  r.verifier_workers = w.sig != SigScheme::kIdeal ? cfg.verifier_pool.workers : 0;

  // ---- Load from this (single) harness thread.
  std::int64_t next_probe = 0;
  auto maybe_probe = [&] {
    if (!opt.traced || now_ns() < next_probe) return;
    next_probe = now_ns() + kProbeEveryNs;
    for (ServerId s = 0; s < w.n; ++s) {
      const auto posted = Clock::now();
      runtime.post(s, [&probe_mu, &probe_us, posted] {
        const double us =
            std::chrono::duration<double, std::micro>(Clock::now() - posted).count();
        std::lock_guard<std::mutex> lock(probe_mu);
        probe_us.push_back(us);
      });
    }
  };
  auto sleep_until_ns = [&](std::int64_t t) {
    for (;;) {
      maybe_probe();
      const std::int64_t now = now_ns();
      if (now >= t) return;
      const std::int64_t wake = opt.traced ? std::min(t, next_probe) : t;
      std::this_thread::sleep_for(std::chrono::nanoseconds(std::max<std::int64_t>(wake - now, 0)));
    }
  };
  std::vector<double> late_ms;
  std::vector<std::uint64_t> next_seq(w.n, 0);
  auto submit = [&](ServerId server, Label label, std::int64_t start_ns) {
    const std::uint64_t seq = w.proto == Proto::kFifo ? next_seq[server]++ : 0;
    const std::uint64_t key = w.proto == Proto::kFifo ? (std::uint64_t{server} << 40) | seq
                                                      : label;
    Bytes value = payload(opt.seed, key, w.payload_bytes);
    Bytes request = make_request(w.proto, value);
    rec.add(label, std::move(value), server, seq, start_ns);
    runtime.request(server, label, std::move(request));
  };

  const auto window_ns =
      static_cast<std::int64_t>(static_cast<double>(w.load_ms) * 1e6 * opt.load_scale);
  const std::int64_t load0 = now_ns() + 1'000'000;
  const std::int64_t load_end = load0 + window_ns;
  sleep_until_ns(load0);
  const double cpu0 = cpu_seconds();
  const HostTicks ticks0 = host_ticks();
  if (w.loop == Loop::kOpen) {
    const auto requests = static_cast<std::uint64_t>(
        w.rate * static_cast<double>(window_ns) / 1e9);
    const double period_ns = 1e9 / w.rate;
    for (std::uint64_t i = 0; i < requests; ++i) {
      const std::int64_t due = load0 + static_cast<std::int64_t>(static_cast<double>(i) * period_ns);
      sleep_until_ns(due);
      late_ms.push_back(static_cast<double>(now_ns() - due) / 1e6);
      submit(static_cast<ServerId>(i % w.n), i + 1, due);
    }
  } else {
    // One client per server, each streaming on its own label.
    for (ServerId c = 0; c < w.n; ++c) {
      for (std::uint32_t j = 0; j < w.outstanding; ++j) submit(c, c + 1, now_ns());
    }
    while (now_ns() < load_end) {
      maybe_probe();
      const std::int64_t wake = opt.traced ? std::min(load_end, next_probe) : load_end;
      for (const std::size_t i : rec.wait(wake, false)) {
        if (now_ns() >= load_end) break;
        const ServerId c = rec.expected().origin[i];
        submit(c, c + 1, now_ns());
      }
    }
  }
  // ---- Drain: wait for every request to commit everywhere.
  rec.wait(load_end + static_cast<std::int64_t>(w.drain_ms) * 1'000'000, true);
  r.cpu_s = cpu_seconds() - cpu0;
  r.steal_frac = steal_since(ticks0);
  r.peak_rss_mb = peak_rss_mb();
  rec.fill(r, load0);
  r.gen_late_p99_ms = percentile(late_ms, 0.99);

  // ---- Live counters (L).
  GossipStats gossip;
  for (ServerId s = 0; s < w.n; ++s) {
    add_gossip(gossip, runtime.call(s, [](Shim& shim) { return shim.gossip().stats(); }));
  }
  const double committed = static_cast<double>(r.committed);
  live_layers(r.layers, committed, runtime.interpreter_stats(), gossip,
              runtime.wire_metrics());
  const VerifierPoolStats vp = runtime.verifier_stats();
  r.layers["crypto.pool_cache_hit_frac"] =
      ratio(static_cast<double>(vp.cache_hits), static_cast<double>(vp.cache_hits + vp.submitted));
  r.layers["crypto.pool_tasks_per_batch"] =
      ratio(static_cast<double>(vp.verified), static_cast<double>(vp.batches));
  if (runtime.tcp() != nullptr) {
    const rt::TcpStats ts = runtime.tcp()->stats();
    const double envelopes = static_cast<double>(ts.frames_sent - ts.batches_sent +
                                                 ts.batched_envelopes);
    r.layers["rt.tcp_envelopes_per_frame"] = ratio(envelopes, static_cast<double>(ts.frames_sent));
    r.layers["rt.tcp_writev_per_kreq"] = 1000.0 * ratio(static_cast<double>(ts.writev_calls), committed);
  }
  if (runtime.udp() != nullptr) {
    const rt::UdpStats us = runtime.udp()->stats();
    r.layers["rt.udp_retransmit_frac"] =
        ratio(static_cast<double>(us.retransmits), static_cast<double>(us.datagrams_sent));
    r.layers["rt.udp_datagrams_per_req"] = ratio(static_cast<double>(us.datagrams_sent), committed);
  }
  {
    std::lock_guard<std::mutex> lock(probe_mu);
    r.layers["rt.mailbox_wait_p50_us"] = percentile(probe_us, 0.50);
    r.layers["rt.mailbox_wait_p99_us"] = percentile(probe_us, 0.99);
  }
  r.layers["load.gen_late_p99_ms"] = r.gen_late_p99_ms;

  // ---- Correctness gate.
  if (!runtime.quiesce_and_converge()) {
    r.gate_error = "servers did not converge";
    return r;
  }
  const double dag_cpu_s = cpu_seconds() - cpu_start;
  const Bytes dag0 = runtime.dag_digest(0);
  for (ServerId s = 1; s < w.n && r.gate_error.empty(); ++s) {
    if (runtime.dag_digest(s) != dag0) r.gate_error = "dag_digest differs at server " + std::to_string(s);
  }
  std::vector<std::size_t> user_log_sizes;
  for (ServerId s = 0; s < w.n; ++s) {
    user_log_sizes.push_back(
        runtime.call(s, [](Shim& shim) { return shim.indications().size(); }));
  }
  ReplayInput in;
  in.blocks = runtime.call(0, [](Shim& shim) { return shim.dag().topological_order(); });
  in.factory = &factory;
  in.n = w.n;
  in.sig = w.sig;
  in.sig_seed = cfg.seed;
  in.parallel_workers = runtime.interpret_workers();
  in.sample = sample_refs(in.blocks, opt.seed);
  for (const Hash256& ref : in.sample) {
    const Bytes d0 = runtime.call(0, [&ref](Shim& shim) { return shim.interpreter().digest_of(ref); });
    for (ServerId s = 1; s < w.n && r.gate_error.empty(); ++s) {
      if (runtime.call(s, [&ref](Shim& shim) { return shim.interpreter().digest_of(ref); }) != d0) {
        r.gate_error = "Lemma 4.2: digest_of differs at server " + std::to_string(s);
      }
    }
    in.live_digest.push_back(d0);
  }
  runtime.shutdown();
  if (r.gate_error.empty()) finish_gate(opt, r, rec, user_log_sizes, std::move(in), dag_cpu_s);
  return r;
}

TrialResult run_sim(const Options& opt) {
  const Workload& w = *opt.workload;
  const ProtocolFactory& factory = factory_for(w.proto);
  ClusterConfig cfg;
  cfg.n_servers = w.n;
  cfg.seed = mix(opt.seed, 1);
  cfg.pacing.interval = sim_ms(w.beat_ms);
  cfg.sig_scheme = w.sig;

  TrialResult r;
  const double cpu_start = cpu_seconds();
  const auto wall0 = Clock::now();
  auto wall_s = [] (Clock::time_point from) {
    return std::chrono::duration<double>(Clock::now() - from).count();
  };

  // ---- Setup: construction → every server holds every server's block.
  Cluster cluster(factory, cfg);
  Scheduler& sched = cluster.scheduler();
  Recorder rec(w.proto, w.n, [&sched] { return static_cast<std::int64_t>(sched.now()); });
  for (ServerId s = 0; s < w.n; ++s) {
    cluster.shim(s).set_indication_handler(
        [&rec, s](Label label, const Bytes& ind) { rec.on_indication(s, label, ind); });
  }
  cluster.start();
  for (bool ready = false; !ready;) {
    cluster.run_for(sim_ms(1));
    ready = true;
    for (ServerId s = 0; s < w.n && ready; ++s) {
      ready = has_every_builder(cluster.shim(s).dag(), w.n);
    }
  }
  r.setup_s = wall_s(wall0);

  // ---- Open-loop load on the virtual clock: a fixed number of requests at
  // seeded uniform-random times in the window (Poisson arrivals conditioned
  // on their count). With evenly spaced arrivals every request would meet
  // the same beat phase and the virtual latency would take one or two
  // values; a fixed count keeps the per-trial history the same size.
  const auto load0 = static_cast<std::int64_t>(sched.now() + sim_ms(1));
  const auto window_ns =
      static_cast<std::int64_t>(static_cast<double>(w.load_ms) * 1e6 * opt.load_scale);
  const auto requests =
      static_cast<std::uint64_t>(w.rate * static_cast<double>(window_ns) / 1e9);
  Rng arrivals(mix(opt.seed, 4));
  std::vector<std::int64_t> offsets;
  for (std::uint64_t i = 0; i < requests; ++i) {
    offsets.push_back(static_cast<std::int64_t>(arrivals.below(static_cast<std::uint64_t>(window_ns))));
  }
  std::sort(offsets.begin(), offsets.end());
  for (std::uint64_t i = 0; i < requests; ++i) {
    const std::int64_t due = load0 + offsets[i];
    sched.at(static_cast<SimTime>(due), [&, i, due] {
      Bytes value = payload(opt.seed, i + 1, w.payload_bytes);
      Bytes request = make_request(w.proto, value);
      rec.add(i + 1, std::move(value), static_cast<ServerId>(i % w.n), 0, due);
      cluster.request(static_cast<ServerId>(i % w.n), i + 1, std::move(request));
    });
  }
  const auto load_started = Clock::now();
  const double cpu0 = cpu_seconds();
  const HostTicks ticks0 = host_ticks();
  cluster.run_until(static_cast<SimTime>(load0 + window_ns));
  const auto deadline = static_cast<SimTime>(load0 + window_ns) + sim_ms(w.drain_ms);
  while (!rec.all_committed() && sched.now() < deadline) cluster.run_for(sim_ms(5));
  r.cpu_s = cpu_seconds() - cpu0;
  r.steal_frac = steal_since(ticks0);
  const double load_wall_s = wall_s(load_started);
  r.peak_rss_mb = peak_rss_mb();
  rec.fill(r, load0);
  r.window_s = load_wall_s;  // the simulator's user waits wall time

  // ---- Live counters (L).
  InterpreterStats is;
  GossipStats gossip;
  for (ServerId s = 0; s < w.n; ++s) {
    const InterpreterStats& one = cluster.shim(s).interpreter().stats();
    is.blocks_interpreted += one.blocks_interpreted;
    is.messages_delivered += one.messages_delivered;
    is.instance_clones += one.instance_clones;
    add_gossip(gossip, cluster.shim(s).gossip().stats());
  }
  live_layers(r.layers, static_cast<double>(r.committed), is, gossip,
              cluster.network().wire_metrics());
  r.layers["sim.events_per_block"] = ratio(static_cast<double>(sched.events_executed()),
                                           static_cast<double>(gossip.blocks_built));

  // ---- Correctness gate.
  if (!cluster.quiesce_and_converge()) {
    r.gate_error = "servers did not converge";
    return r;
  }
  const double dag_cpu_s = cpu_seconds() - cpu_start;
  const Bytes dag0 = rt::dag_digest(cluster.shim(0).dag());
  for (ServerId s = 1; s < w.n && r.gate_error.empty(); ++s) {
    if (rt::dag_digest(cluster.shim(s).dag()) != dag0) {
      r.gate_error = "dag_digest differs at server " + std::to_string(s);
    }
  }
  std::vector<std::size_t> user_log_sizes;
  for (ServerId s = 0; s < w.n; ++s) {
    user_log_sizes.push_back(cluster.shim(s).indications().size());
  }
  ReplayInput in;
  in.blocks = cluster.shim(0).dag().topological_order();
  in.factory = &factory;
  in.n = w.n;
  in.sig = w.sig;
  in.sig_seed = cfg.seed;
  in.parallel_workers = std::thread::hardware_concurrency();
  in.sample = sample_refs(in.blocks, opt.seed);
  for (const Hash256& ref : in.sample) {
    const Bytes d0 = cluster.shim(0).interpreter().digest_of(ref);
    for (ServerId s = 1; s < w.n && r.gate_error.empty(); ++s) {
      if (cluster.shim(s).interpreter().digest_of(ref) != d0) {
        r.gate_error = "Lemma 4.2: digest_of differs at server " + std::to_string(s);
      }
    }
    in.live_digest.push_back(d0);
  }
  if (r.gate_error.empty()) finish_gate(opt, r, rec, user_log_sizes, std::move(in), dag_cpu_s);
  return r;
}

}  // namespace perf
