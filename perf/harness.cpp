// perf_harness: runs one trial of one benchmark workload and prints its
// result as one JSON line. perf/run.py repeats trials and aggregates them.
//
//   perf_harness --workload NAME --seed N [--trace-out FILE]
//                [--load-scale X] [--plant tamper|drop|duplicate|reorder|digest]
//
// --plant corrupts what the gate checks (self-test): an indication record
// (tamper, drop, duplicate, reorder) or a live Lemma 4.2 digest (digest,
// caught by the traced replay).
//
// --trace-out turns the trial into a traced one (mailbox probes on, DAG
// replay through every layer, Chrome trace written to FILE). A trial whose
// resident set crosses kRssLimitMb is stopped by a watchdog: it prints
// {"rss_exceeded": true, ...} and exits with code 3.
#include "harness.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <thread>

#include "protocols/brb.h"
#include "protocols/fifo_brb.h"

namespace perf {

namespace {

// Memory ceiling of one trial: far above every workload's peak, far below
// the host's memory, so a regression fails the run instead of the host.
constexpr std::size_t kRssLimitMb = 3072;

// name, proto, backend, loop, sig, n, beat, payload, rate, outstanding,
// drop, load_ms, drain_ms
const Workload kWorkloads[] = {
    {"brb-tcp-open", Proto::kBrb, Backend::kTcp, Loop::kOpen, SigScheme::kIdeal,
     4, 10, 64, 1000.0, 0, 0.0, 1200, 3000},
    {"fifo-udp-wots-closed", Proto::kFifo, Backend::kUdp, Loop::kClosed,
     SigScheme::kWots, 4, 10, 64, 0.0, 4, 0.02, 1500, 5000},
    {"brb-sim-n16", Proto::kBrb, Backend::kSim, Loop::kOpen, SigScheme::kIdeal,
     16, 10, 64, 40.0, 0, 0.0, 1250, 2000},
};

// Kills the trial once its resident set crosses the ceiling, so that a
// regression cannot take the host's memory down with it.
class RssWatchdog {
 public:
  RssWatchdog(std::size_t limit_mb, std::uint64_t attempted_hint)
      : thread_([this, limit_mb, attempted_hint] {
          while (!stop_.load()) {
            const double rss = peak_rss_mb();
            if (rss > static_cast<double>(limit_mb)) {
              std::printf(
                  "{\"rss_exceeded\": true, \"rss_mb\": %.1f, \"limit_mb\": %zu, "
                  "\"attempted\": %llu}\n",
                  rss, limit_mb, static_cast<unsigned long long>(attempted_hint));
              std::fflush(stdout);
              std::_Exit(3);
            }
            std::this_thread::sleep_for(std::chrono::milliseconds(20));
          }
        }) {}
  ~RssWatchdog() {
    stop_.store(true);
    thread_.join();
  }
  RssWatchdog(const RssWatchdog&) = delete;
  RssWatchdog& operator=(const RssWatchdog&) = delete;

 private:
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

void print_result(const Options& opt, const TrialResult& r) {
  std::ostringstream o;
  o.precision(9);
  o << "{\"workload\": \"" << opt.workload->name << "\", \"seed\": " << opt.seed
    << ", \"attempted\": " << r.attempted << ", \"committed\": " << r.committed
    << ", \"setup_s\": " << r.setup_s << ", \"cpu_s\": " << r.cpu_s
    << ", \"window_s\": " << r.window_s << ", \"peak_rss_mb\": " << r.peak_rss_mb
    << ", \"gen_late_p99_ms\": " << r.gen_late_p99_ms
    << ", \"steal_frac\": " << r.steal_frac
    << ", \"gate_ok\": " << (r.gate_ok ? "true" : "false")
    << ", \"gate_error\": \"" << json_escape(r.gate_error) << "\""
    << ", \"nproc\": " << sysconf(_SC_NPROCESSORS_ONLN)
    << ", \"hardware_concurrency\": " << std::thread::hardware_concurrency()
    << ", \"interpret_workers\": " << r.interpret_workers
    << ", \"verifier_workers\": " << r.verifier_workers
    << ", \"compiler\": \"" << json_escape(__VERSION__) << "\""
    << ", \"build_type\": \"" << PERF_BUILD_TYPE << "\""
    << ", \"layers\": {";
  bool first = true;
  for (const auto& [name, value] : r.layers) {
    o << (first ? "" : ", ") << "\"" << name << "\": " << value;
    first = false;
  }
  o << "}, \"latency_ms\": [";
  for (std::size_t i = 0; i < r.latency_ms.size(); ++i) {
    o << (i ? ", " : "") << r.latency_ms[i];
  }
  o << "]}";
  std::printf("%s\n", o.str().c_str());
}

int usage() {
  std::fprintf(stderr,
               "usage: perf_harness --workload NAME --seed N [--trace-out FILE]\n"
               "       [--load-scale X] [--plant tamper|drop|duplicate|reorder|digest]\n");
  return 2;
}

}  // namespace

const Workload* find_workload(std::string_view name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

std::uint64_t mix(std::uint64_t seed, std::uint64_t tag) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (tag + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

double peak_rss_mb() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return static_cast<double>(u.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

double cpu_seconds() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return static_cast<double>(u.ru_utime.tv_sec + u.ru_stime.tv_sec) +
         static_cast<double>(u.ru_utime.tv_usec + u.ru_stime.tv_usec) * 1e-6;
}

HostTicks host_ticks() {
  // First line of /proc/stat: "cpu user nice system idle iowait irq softirq
  // steal ...", in clock ticks summed over every CPU of the host.
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;
  HostTicks t;
  for (int field = 0; field < 8; ++field) {
    std::uint64_t v = 0;
    if (!(in >> v)) return HostTicks{};
    t.total += v;
    if (field == 7) t.steal = v;
  }
  return t;
}

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double pos = p * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

std::string check_indications(const Expected& expected,
                              const std::vector<std::vector<IndicationRecord>>& logs) {
  const std::size_t requests = expected.label.size();
  // Request index by label (BRB) or by (origin, seq) (FIFO).
  std::map<std::pair<std::uint64_t, std::uint64_t>, std::size_t> index;
  for (std::size_t i = 0; i < requests; ++i) {
    const auto key = expected.proto == Proto::kBrb
                         ? std::make_pair(expected.label[i], std::uint64_t{0})
                         : std::make_pair(std::uint64_t{expected.origin[i]},
                                          expected.seq[i]);
    index.emplace(key, i);
  }
  for (std::size_t s = 0; s < logs.size(); ++s) {
    std::vector<char> seen(requests, 0);
    std::map<ServerId, std::uint64_t> next_seq;
    const std::string at = " at server " + std::to_string(s);
    for (const IndicationRecord& rec : logs[s]) {
      std::size_t i = 0;
      Bytes value;
      if (expected.proto == Proto::kBrb) {
        const auto v = blockdag::brb::parse_deliver(rec.indication);
        const auto it = index.find({rec.label, 0});
        if (!v || it == index.end()) {
          return "unexpected indication on label " + std::to_string(rec.label) + at;
        }
        i = it->second;
        value = *v;
      } else {
        const auto d = blockdag::fifo::parse_deliver(rec.indication);
        if (!d) return "malformed FIFO indication" + at;
        const auto it = index.find({d->origin, d->seq});
        if (it == index.end() || expected.label[it->second] != rec.label) {
          return "unexpected FIFO delivery (" + std::to_string(d->origin) + "," +
                 std::to_string(d->seq) + ")" + at;
        }
        if (d->seq != next_seq[d->origin]) {
          return "FIFO order violated for origin " + std::to_string(d->origin) +
                 ": got seq " + std::to_string(d->seq) + ", expected " +
                 std::to_string(next_seq[d->origin]) + at;
        }
        ++next_seq[d->origin];
        i = it->second;
        value = d->value;
      }
      if (seen[i]) return "request " + std::to_string(i) + " indicated twice" + at;
      seen[i] = 1;
      if (value != expected.value[i]) {
        return "request " + std::to_string(i) + " indicated with a wrong value" + at;
      }
    }
    for (std::size_t i = 0; i < requests; ++i) {
      if (!seen[i]) return "request " + std::to_string(i) + " never indicated" + at;
    }
  }
  return "";
}

void plant_fault(const std::string& plant,
                 std::vector<std::vector<IndicationRecord>>& logs) {
  if (plant.empty() || logs.empty() || logs.back().size() < 2) return;
  auto& log = logs.back();
  if (plant == "tamper") {
    log[log.size() / 2].indication.back() ^= 0x01;
  } else if (plant == "drop") {
    log.erase(log.begin() + static_cast<std::ptrdiff_t>(log.size() / 2));
  } else if (plant == "duplicate") {
    log.push_back(log.front());
  } else if (plant == "reorder") {
    std::swap(log[0], log[1]);
  }
}

}  // namespace perf

int main(int argc, char** argv) {
  using namespace perf;
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage();
    const std::string value = argv[++i];
    if (flag == "--workload") {
      opt.workload = find_workload(value);
      if (opt.workload == nullptr) {
        std::fprintf(stderr, "unknown workload '%s'\n", value.c_str());
        return 2;
      }
    } else if (flag == "--seed") {
      opt.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--trace-out") {
      opt.traced = true;
      opt.trace_out = value;
    } else if (flag == "--load-scale") {
      opt.load_scale = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--plant") {
      if (value != "tamper" && value != "drop" && value != "duplicate" &&
          value != "reorder" && value != "digest") {
        return usage();
      }
      opt.plant = value;
    } else {
      return usage();
    }
  }
  if (opt.workload == nullptr || opt.load_scale <= 0) return usage();

  const Workload& w = *opt.workload;
  const auto attempted_hint = static_cast<std::uint64_t>(
      w.rate * static_cast<double>(w.load_ms) * opt.load_scale / 1000.0);
  TrialResult result;
  {
    RssWatchdog watchdog(kRssLimitMb, attempted_hint);
    result = w.backend == Backend::kSim ? run_sim(opt) : run_threaded(opt);
  }
  print_result(opt, result);
  return 0;
}
