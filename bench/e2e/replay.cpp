// The in-process half of `vcf_bench --trace`: replays a round's request
// stream single-threaded through the public functions each layer exposes
// (net codec, FrameBuffer, the filter the factory builds for vcfd's flags,
// and the bare leaf kernel), timing every stage of every request. Being
// single-threaded, its operation counts are exact.
#include <algorithm>
#include <chrono>

#include "bench.hpp"
#include "harness/filter_factory.hpp"
#include "harness/flags.hpp"
#include "net/proto.hpp"

namespace vcf::bench {

namespace {

using Clock = std::chrono::steady_clock;

double Ns(Clock::time_point a, Clock::time_point b) {
  return static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count());
}

FilterSpec SpecFor(const WorkloadSpec& w) {
  std::vector<std::string> args = {"vcf_bench"};
  for (const std::string& a : w.FilterFlags()) args.push_back(a);
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  return SpecFromFlags(Flags(static_cast<int>(argv.size()), argv.data()));
}

/// Both clients' requests of one phase, alternating client 0 and client 1
/// (the live interleaving is up to the scheduler).
class Interleaved {
 public:
  Interleaved(const KeySpace& ks, const PhaseSpec& p, unsigned pi, bool selftest)
      : gen0_(ks, p, pi, 0, selftest), gen1_(ks, p, pi, 1, selftest) {}
  /// Next request and the live id it mirrors; false when both are done.
  bool Next(Request* r, unsigned* client, std::uint64_t* n) {
    for (int tries = 0; tries < 2; ++tries) {
      const unsigned c = turn_;
      turn_ ^= 1;
      RequestGen& g = c == 0 ? gen0_ : gen1_;
      if (g.Next(r)) {
        *client = c;
        *n = issued_[c]++;
        return true;
      }
    }
    return false;
  }

 private:
  RequestGen gen0_, gen1_;
  unsigned turn_ = 0;
  std::uint64_t issued_[2] = {0, 0};
};

}  // namespace

ReplayResult Replay(const WorkloadSpec& w, const RunOptions& opt,
                    Tracer* tracer) {
  static_assert(kClients == 2, "Interleaved walks exactly two clients");
  const FilterSpec spec = SpecFor(w);
  std::uint64_t fill_keys = 0;
  std::uint32_t max_request = 1;
  for (const PhaseSpec& p : w.phases) {
    if (p.fill) fill_keys = p.keys;
    max_request = std::max(max_request, p.request_keys);
  }
  const KeySpace ks(opt.seed, fill_keys);
  ReplayResult out;
  const auto filter = MakeFilter(spec);
  const auto results = std::make_unique<bool[]>(max_request);
  std::vector<std::uint8_t> req_buf, resp_buf;
  net::FrameBuffer server_in, client_in;
  net::Request decoded_req;
  net::Response decoded_resp;
  std::vector<std::uint64_t> run;
  std::vector<Span> spans;
  std::uint32_t next_id = 1;

  for (unsigned pi = 0; pi < w.phases.size(); ++pi) {
    const PhaseSpec& phase = w.phases[pi];
    ReplayResult::Stage st;
    filter->ResetCounters();
    Interleaved reqs(ks, phase, pi, opt.selftest);
    Request r;
    unsigned client = 0;
    std::uint64_t n = 0;
    while (reqs.Next(&r, &client, &n)) {
      const bool single = phase.shape != Shape::kBatch;
      const net::Opcode op =
          single ? (r.insert ? net::Opcode::kInsert : net::Opcode::kLookup)
                 : (r.insert ? net::Opcode::kInsertBatch
                             : net::Opcode::kLookupBatch);
      const std::uint32_t first_id = next_id;
      req_buf.clear();
      resp_buf.clear();
      const auto t0 = Clock::now();
      // Client: encode the request frame(s).
      if (single) {
        for (std::uint64_t key : r.keys) {
          net::EncodeKeyRequest(req_buf, op, next_id++, key);
        }
      } else {
        net::EncodeBatchRequest(req_buf, op, next_id++, r.keys);
      }
      const auto t1 = Clock::now();
      // Server: reassemble and decode, coalescing the frames into one key
      // run as vcfd's coalescer does.
      run.clear();
      std::size_t frames = 0;
      server_in.Append(req_buf);
      std::span<const std::uint8_t> payload;
      while (server_in.Next(payload)) {
        net::DecodeRequest(payload, decoded_req);
        if (single) {
          run.push_back(decoded_req.key);
        } else {
          run.insert(run.end(), decoded_req.keys.begin(),
                     decoded_req.keys.end());
        }
        server_in.Pop();
        ++frames;
      }
      const auto t2 = Clock::now();
      // Core: the filter vcfd would call.
      std::size_t accepted = 0;
      if (phase.shape == Shape::kSync) {
        results[0] = r.insert ? filter->Insert(run[0]) : filter->Contains(run[0]);
        accepted = results[0] ? 1 : 0;
      } else if (r.insert) {
        accepted = filter->InsertBatch(run, results.get());
      } else {
        filter->ContainsBatch(run, results.get());
      }
      const auto t3 = Clock::now();
      // Server: encode the response frame(s).
      if (single) {
        for (std::size_t i = 0; i < run.size(); ++i) {
          net::EncodeFlagResponse(resp_buf, first_id + static_cast<std::uint32_t>(i),
                                  results[i]);
        }
      } else {
        net::EncodeBatchResponse(
            resp_buf, op, first_id,
            std::span<const bool>(results.get(), run.size()),
            static_cast<std::uint32_t>(accepted));
      }
      const auto t4 = Clock::now();
      // Client: reassemble and decode the answers.
      client_in.Append(resp_buf);
      while (client_in.Next(payload)) {
        net::DecodeResponse(payload, op, decoded_resp);
        client_in.Pop();
      }
      const auto t5 = Clock::now();

      const double stage[5] = {Ns(t0, t1), Ns(t1, t2), Ns(t2, t3), Ns(t3, t4),
                               Ns(t4, t5)};
      st.encode_req_ns += stage[0];
      st.decode_req_ns += stage[1];
      st.encode_resp_ns += stage[3];
      st.decode_resp_ns += stage[4];
      (r.insert ? st.insert_core_ns : st.lookup_core_ns) += stage[2];
      (r.insert ? st.insert_keys : st.lookup_keys) += run.size();
      if (r.insert) st.insert_max_ms = std::max(st.insert_max_ms, stage[2] / 1e6);
      st.frames += frames;
      st.keys += run.size();
      st.wire_bytes += req_buf.size() + resp_buf.size();
      st.request_ns.push_back(stage[0] + stage[1] + stage[2] + stage[3] +
                              stage[4]);
      if (tracer != nullptr && n < kTracedRequests) {
        static constexpr const char* kNames[5] = {
            "net.encode_req", "net.decode_req", "core.filter",
            "net.encode_resp", "net.decode_resp"};
        const std::uint64_t base = tracer->Now() - static_cast<std::uint64_t>(
                                                       Ns(t0, Clock::now()));
        double at = 0;
        for (int s = 0; s < 5; ++s) {
          spans.push_back({kNames[s], 0, RequestId(pi, client, n),
                           base + static_cast<std::uint64_t>(at),
                           static_cast<std::uint64_t>(stage[s]), 10});
          at += stage[s];
        }
      }
    }
    const OpCounters& c = filter->counters();
    if (phase.fill) {
      out.evictions_per_insert = c.EvictionsPerInsert();
      out.insert_failures = c.insert_failures;
    } else if (phase.name == "read") {
      out.probes_per_lookup = c.ProbesPerLookup();
    }
    out.phases.push_back(std::move(st));
  }
  if (filter->ItemCount() > 0) {
    out.bits_per_key = static_cast<double>(filter->MemoryBytes()) * 8.0 /
                       static_cast<double>(filter->ItemCount());
  }
  if (tracer != nullptr) tracer->Add(std::move(spans));

  // Kernel arm: the bare leaf filter at one leaf's size, fed every
  // `leaves`-th key so it reaches the leaf's load, at the phase's batch
  // sizes. The wrapper's cost is the difference to the arms above.
  FilterSpec leaf;
  leaf.kind = spec.kind;
  leaf.variant = spec.variant;
  leaf.params = spec.params;
  unsigned leaves = 1;
  if (spec.shards > 0) {
    leaves = spec.shards;
    leaf.params.bucket_count = spec.params.bucket_count / spec.shards;
  } else if (spec.elastic) {
    leaves = static_cast<unsigned>(std::max<std::size_t>(
        1, filter->SlotCount() / spec.params.slot_count()));
  }
  const auto kernel = MakeFilter(leaf);
  for (unsigned pi = 0; pi < w.phases.size(); ++pi) {
    const PhaseSpec& phase = w.phases[pi];
    if (!phase.fill && phase.name != "read") continue;
    Interleaved reqs(ks, phase, pi, opt.selftest);
    Request r;
    unsigned client = 0;
    std::uint64_t n = 0, seen = 0, keys = 0;
    double ns = 0;
    run.clear();
    auto flush = [&] {
      const auto t0 = Clock::now();
      if (phase.fill) {
        kernel->InsertBatch(run, results.get());
      } else {
        kernel->ContainsBatch(run, results.get());
      }
      ns += Ns(t0, Clock::now());
      keys += run.size();
      run.clear();
    };
    while (reqs.Next(&r, &client, &n)) {
      if (r.insert != phase.fill) continue;
      for (std::uint64_t key : r.keys) {
        if (seen++ % leaves == 0) run.push_back(key);
        if (run.size() == phase.request_keys) flush();
      }
    }
    if (!run.empty()) flush();
    const double per_key = keys == 0 ? 0 : ns / static_cast<double>(keys);
    (phase.fill ? out.kernel_insert_ns_per_key : out.kernel_lookup_ns_per_key) =
        per_key;
  }
  return out;
}

}  // namespace vcf::bench
