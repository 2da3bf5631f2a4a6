// Span tracer: per-request lifecycle spans in Chrome trace_event JSON.
//
// Each blocking memory operation becomes one parent span on the issuing
// core's track (pid 1, tid = core id) with three children — net.req
// (issue -> bank arrival), bank (arrival -> response send, which includes
// the port wait and any reservation-queue wait), net.resp (response send
// -> delivery) — plus a mirrored service span on the bank's track (pid 2,
// tid = bank id). Posted stores are instant events; wgen phase visits are
// spans that nest around the ops they contain.
//
// Matching needs no request ids: the modeled pipeline is single-issue, so
// at any simulated moment a core has at most one blocking op in flight and
// every bank-side hook for that core refers to it (a bank touches the
// per-core in-flight record strictly between the issue and the completion
// of the same op).
//
// Determinism: all timestamps are simulated cycles, the 1/K sampling
// decision counts each core's ops in program order, and the writer sorts
// events canonically — so the emitted file is bit-identical across reruns
// and sweep-thread counts.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string_view>
#include <vector>

#include "sim/types.hpp"

namespace colibri::obs {

class Tracer {
 public:
  /// Record every K-th op per core (1 = everything).
  explicit Tracer(std::uint32_t sampleEvery = 1)
      : every_(sampleEvery == 0 ? 1 : sampleEvery) {}

  /// Size the per-core/per-bank state; called once by the System.
  void bind(std::uint32_t numCores, std::uint32_t numBanks);

  // --- Hooks (hot paths; all names must point at static storage) ----------
  void onIssue(std::uint32_t core, std::string_view kind, sim::Cycle departs);
  void onPosted(std::uint32_t core, std::string_view kind, sim::Cycle departs);
  void onBankArrive(std::uint32_t core, std::uint32_t bank, sim::Cycle arrive,
                    sim::Cycle grant);
  void onRespond(std::uint32_t core, sim::Cycle at);
  void onComplete(std::uint32_t core, sim::Cycle at);
  void onPhase(std::uint32_t core, std::string_view name, sim::Cycle begin,
               sim::Cycle end);
  /// Fault-injection instants (never sampled — injections are rare and
  /// each one is diagnostic). The caller picks the track of the endpoint
  /// that made the decision.
  void onFaultCore(std::uint32_t core, std::string_view kind, sim::Cycle at);
  void onFaultBank(std::uint32_t bank, std::string_view kind, sim::Cycle at);

  // --- Output --------------------------------------------------------------
  void writeChromeTrace(std::ostream& os) const;
  [[nodiscard]] std::size_t spanCount() const;

 private:
  struct ReqSpan {
    sim::Cycle issue = 0;
    sim::Cycle arrive = 0;
    sim::Cycle grant = 0;
    sim::Cycle respond = 0;
    sim::Cycle complete = 0;
    std::uint32_t bank = 0;
    std::string_view kind;
  };
  struct InFlight {
    ReqSpan rec;
    bool active = false;
    bool sampled = false;
  };
  struct Instant {
    sim::Cycle at = 0;
    std::string_view kind;
  };
  struct Phase {
    sim::Cycle begin = 0;
    sim::Cycle end = 0;
    std::string_view name;
  };

  std::uint32_t every_;
  std::uint32_t numBanks_ = 0;
  std::vector<InFlight> cur_;
  std::vector<std::uint64_t> opCount_;
  std::vector<std::uint64_t> postCount_;
  std::vector<std::uint64_t> visitCount_;
  std::vector<std::vector<ReqSpan>> done_;
  std::vector<std::vector<Instant>> posted_;
  std::vector<std::vector<Phase>> phases_;
  std::vector<std::vector<Instant>> coreFaults_;
  std::vector<std::vector<Instant>> bankFaults_;
};

}  // namespace colibri::obs
