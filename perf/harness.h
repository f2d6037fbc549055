// Benchmark-of-record harness: shared types.
//
// One process runs ONE trial of one workload: set up a deployment through
// the public runtime API (rt::ThreadedRuntime over sockets, or the
// simulator's Cluster), drive generated requests from a single harness
// thread, wait for commits, check the outputs (the correctness gate) and,
// on traced trials, replay server 0's final DAG through each layer's public
// functions to price the layers from outside. The result is one JSON line
// on stdout; perf/run.py repeats trials, pools and aggregates them.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "crypto/signature.h"
#include "dag/block.h"
#include "protocol/protocol.h"
#include "util/types.h"

namespace perf {

using blockdag::Bytes;
using blockdag::Label;
using blockdag::ServerId;
using blockdag::SigScheme;

enum class Proto { kBrb, kFifo };
enum class Backend { kTcp, kUdp, kSim };
enum class Loop { kOpen, kClosed };

// A fixed workload. Rates and windows are per trial; a run repeats trials.
struct Workload {
  const char* name;
  Proto proto;
  Backend backend;
  Loop loop;
  SigScheme sig;
  std::uint32_t n;
  std::uint64_t beat_ms;        // dissemination interval (real or virtual)
  std::size_t payload_bytes;    // request value size
  double rate;                  // open loop: requests per (virtual) second
  std::uint32_t outstanding;    // closed loop: in flight per client
  double drop;                  // injected UDP loss per datagram
  std::uint64_t load_ms;        // load window of one trial
  std::uint64_t drain_ms;       // commit deadline after the window
};

const Workload* find_workload(std::string_view name);

// Deterministic seed derivation: every input of a trial (payloads, runtime
// seed, fault seed, sample choice) is mix(seed, tag).
std::uint64_t mix(std::uint64_t seed, std::uint64_t tag);

struct Options {
  const Workload* workload = nullptr;
  std::uint64_t seed = 1;
  bool traced = false;
  std::string trace_out;        // Chrome trace file (traced trials)
  double load_scale = 1.0;      // self-test shortens the window
  std::string plant;            // planted gate fault (self-test), "" = none
};

// Per-layer values keyed by the BENCHMARK.json per_layer names.
using Metrics = std::map<std::string, double>;

struct TrialResult {
  std::uint64_t attempted = 0;
  std::uint64_t committed = 0;  // indicated at every correct server in time
  std::vector<double> latency_ms;
  double setup_s = 0;
  double cpu_s = 0;             // process user+sys over load + drain
  double window_s = 0;          // load start → last commit (sim: wall)
  double peak_rss_mb = 0;
  double gen_late_p99_ms = 0;
  double steal_frac = 0;        // host CPU stolen by the hypervisor, load + drain
  bool gate_ok = false;
  std::string gate_error;
  Metrics layers;               // live counters; replay prices on traced trials
  // Host/configuration stamp.
  std::size_t interpret_workers = 0;
  std::size_t verifier_workers = 0;
};

TrialResult run_threaded(const Options& opt);
TrialResult run_sim(const Options& opt);

// ---- Correctness gate over what the user saw ----

struct IndicationRecord {
  Label label = 0;
  Bytes indication;
};

// Expected outputs of one trial: request i was submitted on `label[i]` with
// `value[i]`; for FIFO, `origin[i]`/`seq[i]` are its stream position.
struct Expected {
  Proto proto = Proto::kBrb;
  std::vector<Label> label;
  std::vector<Bytes> value;
  std::vector<ServerId> origin;
  std::vector<std::uint64_t> seq;
};

// Checks that every request was indicated exactly once at every server with
// its submitted value (FIFO: also in per-origin order). Returns "" when the
// gate holds, otherwise the first violation.
std::string check_indications(const Expected& expected,
                              const std::vector<std::vector<IndicationRecord>>& logs);

// Applies a planted fault to the recorded logs (self-test).
void plant_fault(const std::string& plant,
                 std::vector<std::vector<IndicationRecord>>& logs);

// ---- Traced replay (the outside-in per-layer ledger) ----

struct ReplayInput {
  std::vector<blockdag::BlockPtr> blocks;    // server 0's topological order
  const blockdag::ProtocolFactory* factory = nullptr;
  std::uint32_t n = 0;
  SigScheme sig = SigScheme::kIdeal;
  std::uint64_t sig_seed = 0;
  std::size_t parallel_workers = 0;
  // Sampled blocks and their live digest_of() (Lemma 4.2 cross-check).
  std::vector<blockdag::Hash256> sample;
  std::vector<Bytes> live_digest;
};

struct ReplayResult {
  Metrics layers;
  double layer_cpu_s = 0;       // whole-cluster layer time (ledger)
  std::string error;            // "" when the replay agreed with the run
};

ReplayResult replay(const ReplayInput& in, const std::string& trace_out);

// Process peak resident set, in MiB.
double peak_rss_mb();
// Process user+sys CPU seconds.
double cpu_seconds();

// Host-wide CPU clock ticks (all CPUs): stolen by the hypervisor, and total.
// Zero when /proc/stat is unavailable.
struct HostTicks {
  std::uint64_t steal = 0;
  std::uint64_t total = 0;
};
HostTicks host_ticks();

// p in [0, 1] over an unsorted sample (linear interpolation); 0 if empty.
double percentile(std::vector<double> values, double p);

}  // namespace perf
