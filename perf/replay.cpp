// Traced replay: prices each layer from outside by replaying server 0's
// final DAG, block by block in topological order, through that layer's
// public functions on one thread. Every call is one span whose id is the
// block ref; protocol calls are child spans of their block's interpret
// span, so interpret self time excludes them. Spans stay in memory and are
// written at the end as a Chrome trace-event file.
#include <chrono>
#include <fstream>
#include <memory>

#include "dag/dag.h"
#include "dag/validity.h"
#include "harness.h"
#include "interpret/interpreter.h"
#include "interpret/parallel_interpreter.h"

namespace perf {

namespace {

using namespace blockdag;
using Clock = std::chrono::steady_clock;

constexpr std::size_t kMaxSpans = 200'000;  // trace file cap; timing continues

// Signature provider that accepts everything, so dag.validate_insert
// excludes signature cost (that is priced in crypto.verify).
class AcceptAllSignatures final : public SignatureProvider {
 public:
  Bytes sign(ServerId, std::span<const std::uint8_t>) override { return {}; }
  bool verify(ServerId, std::span<const std::uint8_t>,
              std::span<const std::uint8_t>) override {
    return true;
  }
};

struct Span {
  const char* name;
  std::int64_t start_ns;
  std::int64_t dur_ns;
  std::uint32_t block;  // index into the replayed order
  bool child;           // protocol call inside the block's interpret span
};

class Tracer {
 public:
  std::int64_t now() const {
    return static_cast<std::int64_t>((Clock::now() - origin_).count());
  }
  void add(const char* name, std::int64_t start, std::int64_t end,
           std::uint32_t block, bool child = false) {
    if (spans_.size() < kMaxSpans) spans_.push_back({name, start, end - start, block, child});
  }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
};

// Time spent in protocol calls (children of the interpret.serial spans).
struct ProtocolClock {
  Tracer* tracer = nullptr;
  std::uint32_t block = 0;
  std::int64_t step_ns = 0;
  std::uint64_t steps = 0;
  std::int64_t clone_ns = 0;
  std::uint64_t clones = 0;

  template <typename F>
  auto timed(const char* name, std::int64_t& total, std::uint64_t& count, F&& fn) {
    const std::int64_t t0 = tracer->now();
    auto out = fn();
    const std::int64_t t1 = tracer->now();
    tracer->add(name, t0, t1, block, true);
    total += t1 - t0;
    ++count;
    return out;
  }
};

// Forwards to the real process, timing every step and clone.
class TimedProcess final : public Process {
 public:
  TimedProcess(std::unique_ptr<Process> inner, ProtocolClock& clock)
      : inner_(std::move(inner)), clock_(clock) {}

  ServerId self() const override { return inner_->self(); }
  std::unique_ptr<Process> clone() const override {
    auto copy = clock_.timed("protocols.clone", clock_.clone_ns, clock_.clones,
                             [&] { return inner_->clone(); });
    return std::make_unique<TimedProcess>(std::move(copy), clock_);
  }
  StepResult on_request(const Bytes& request) override {
    return clock_.timed("protocols.on_request", clock_.step_ns, clock_.steps,
                        [&] { return inner_->on_request(request); });
  }
  StepResult on_message(const Message& message) override {
    return clock_.timed("protocols.on_message", clock_.step_ns, clock_.steps,
                        [&] { return inner_->on_message(message); });
  }
  Bytes state_digest() const override { return inner_->state_digest(); }
  Bytes serialize() const override { return inner_->serialize(); }

 private:
  std::unique_ptr<Process> inner_;
  ProtocolClock& clock_;
};

class TimedFactory final : public ProtocolFactory {
 public:
  TimedFactory(const ProtocolFactory& inner, ProtocolClock& clock)
      : inner_(inner), clock_(clock) {}
  std::unique_ptr<Process> create(Label label, ServerId self,
                                  std::uint32_t n_servers) const override {
    return std::make_unique<TimedProcess>(inner_.create(label, self, n_servers), clock_);
  }
  const char* name() const override { return inner_.name(); }

 private:
  const ProtocolFactory& inner_;
  ProtocolClock& clock_;
};

void write_trace(const std::string& path, const Tracer& tracer,
                 const std::vector<BlockPtr>& blocks) {
  std::ofstream out(path);
  if (!out) return;
  out << "{\"displayTimeUnit\": \"ns\", \"traceEvents\": [\n";
  bool first = true;
  for (const Span& s : tracer.spans()) {
    const std::string id = blocks[s.block]->ref().short_hex();
    const std::string name = s.name;
    out << (first ? "" : ",\n") << "{\"name\": \"" << name
        << "\", \"cat\": \"" << name.substr(0, name.find('.'))
        << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": "
        << static_cast<double>(s.start_ns) / 1e3
        << ", \"dur\": " << static_cast<double>(s.dur_ns) / 1e3
        << ", \"args\": {\"id\": \"" << id << "\""
        << (s.child ? ", \"parent\": \"interpret.serial:" + id + "\"" : std::string())
        << "}}";
    first = false;
  }
  out << "\n]}\n";
}

}  // namespace

ReplayResult replay(const ReplayInput& in, const std::string& trace_out) {
  ReplayResult res;
  Tracer tracer;
  ProtocolClock clock;
  clock.tracer = &tracer;
  TimedFactory timed_factory(*in.factory, clock);

  AcceptAllSignatures accept_all;
  // Separate signer and verifier: a verifier never sees the signer's key
  // cache, as on the live runtime (pool workers own their providers).
  auto signer = make_signature_provider(in.sig, in.n, in.sig_seed);
  auto verifier = make_signature_provider(in.sig, in.n, in.sig_seed);
  BlockDag dag;
  Validator validator(accept_all);
  Interpreter serial(dag, timed_factory, in.n);
  Interpreter parallel(dag, *in.factory, in.n);
  ParallelInterpretConfig pcfg;
  pcfg.workers = in.parallel_workers;
  ParallelInterpreter engine(pcfg);
  if (in.parallel_workers > 0) engine.start();

  std::int64_t codec = 0, ref_hash = 0, sign = 0, verify = 0, insert = 0;
  std::int64_t interp_serial = 0, interp_parallel = 0;
  std::size_t empty = 0;
  auto span = [&](const char* name, std::uint32_t block, std::int64_t& total, auto&& fn) {
    const std::int64_t t0 = tracer.now();
    const bool ok = fn();
    const std::int64_t t1 = tracer.now();
    tracer.add(name, t0, t1, block);
    total += t1 - t0;
    if (!ok && res.error.empty()) {
      res.error = std::string("replay: ") + name + " disagreed with the live run";
    }
  };

  for (std::uint32_t b = 0; b < in.blocks.size(); ++b) {
    const Block& block = *in.blocks[b];
    if (block.rs().empty()) ++empty;
    span("net.block_codec", b, codec, [&] {
      const Bytes wire = block.encode();
      const auto back = Block::decode(wire);
      return back && *back == block;
    });
    span("crypto.ref_hash", b, ref_hash, [&] {
      return Block::compute_ref(block.n(), block.k(), block.preds(), block.rs()) == block.ref();
    });
    span("crypto.sign", b, sign, [&] {
      return !signer->sign(block.n(), block.ref().span()).empty();
    });
    span("crypto.verify", b, verify, [&] {
      return verifier->verify(block.n(), block.ref().span(), block.sigma());
    });
    span("dag.validate_insert", b, insert, [&] {
      return validator.check(block, dag) == ValidityError::kOk && dag.insert(in.blocks[b]);
    });
    clock.block = b;
    const std::int64_t t0 = tracer.now();
    const std::size_t done = serial.run();
    const std::int64_t t1 = tracer.now();
    tracer.add("interpret.serial", t0, t1, b);
    interp_serial += t1 - t0;
    span("interpret.parallel", b, interp_parallel, [&] {
      return (in.parallel_workers > 0 ? engine.run(parallel) : parallel.run()) == done;
    });
  }
  engine.stop();

  // Lemma 4.2: the replay interprets the sampled blocks exactly as the live
  // servers did, on both interpretation paths.
  for (std::size_t i = 0; i < in.sample.size() && res.error.empty(); ++i) {
    if (serial.digest_of(in.sample[i]) != in.live_digest[i] ||
        parallel.digest_of(in.sample[i]) != in.live_digest[i]) {
      res.error = "Lemma 4.2: replayed digest_of differs from the live run";
    }
  }

  // Labels carried per block, and instance state size at every builder's
  // final block.
  double labels = 0;
  std::vector<BlockPtr> tips(in.n);
  for (const BlockPtr& block : in.blocks) {
    if (const BlockInterpretation* st = serial.state_of(block->ref())) {
      labels += static_cast<double>(st->pis.size());
    }
    if (block->n() < in.n) tips[block->n()] = block;
  }
  double state_bytes = 0;
  std::size_t states = 0;
  for (const BlockPtr& tip : tips) {
    const BlockInterpretation* st = tip ? serial.state_of(tip->ref()) : nullptr;
    if (st == nullptr) continue;
    for (const auto& [label, process] : st->pis) {
      (void)label;
      state_bytes += static_cast<double>(process->serialize().size());
      ++states;
    }
  }

  const double blocks = static_cast<double>(std::max<std::size_t>(in.blocks.size(), 1));
  const double protocol_ns = static_cast<double>(clock.step_ns + clock.clone_ns);
  Metrics& m = res.layers;
  m["net.block_codec_ns"] = static_cast<double>(codec) / blocks;
  m["crypto.ref_hash_ns"] = static_cast<double>(ref_hash) / blocks;
  m["crypto.sign_ns"] = static_cast<double>(sign) / blocks;
  m["crypto.verify_ns"] = static_cast<double>(verify) / blocks;
  m["dag.validate_insert_ns"] = static_cast<double>(insert) / blocks;
  m["interpret.serial_ns_per_block"] = (static_cast<double>(interp_serial) - protocol_ns) / blocks;
  m["interpret.parallel_ns_per_block"] = static_cast<double>(interp_parallel) / blocks;
  m["interpret.labels_per_block"] = labels / blocks;
  m["gossip.empty_block_frac"] = static_cast<double>(empty) / blocks;
  m["protocols.step_ns"] =
      clock.steps ? static_cast<double>(clock.step_ns) / static_cast<double>(clock.steps) : 0;
  m["protocols.clone_ns"] =
      clock.clones ? static_cast<double>(clock.clone_ns) / static_cast<double>(clock.clones) : 0;
  m["protocols.state_bytes"] = states ? state_bytes / static_cast<double>(states) : 0;

  // Whole-cluster layer time: every block is hashed and signed once at its
  // builder, crosses the codec (decode re-hashes it) and is verified at the
  // n-1 other servers, and is validated, inserted and interpreted (protocol
  // calls included) at all n.
  const double n = in.n;
  res.layer_cpu_s = (static_cast<double>(ref_hash + sign) +
                     (n - 1) * static_cast<double>(codec + verify) +
                     n * static_cast<double>(insert + interp_serial)) / 1e9;
  if (!trace_out.empty()) write_trace(trace_out, tracer, in.blocks);
  return res;
}

}  // namespace perf
