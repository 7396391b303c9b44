// No caller in src/; kept because perfbench/ overrides or reads it.
//
// Typed simulation event queue: a binary min-heap ordered by (time, push
// sequence) with O(log n) push/pop.
//
// Ordering contract: events pop in exactly nondecreasing time order, with
// FIFO order among equal timestamps (the push sequence number breaks ties).
// Timestamps are compared EXACTLY — two events kTimeEpsMs apart are distinct
// and pop in timestamp order, so a driver that drains everything due within
// `now + kTimeEpsMs` observes epsilon-close events in a deterministic order.
// Pop() enforces the monotonicity invariant with a fatal check, so a
// corrupted heap can never silently reorder simulated time.
//
// Invalidation is lazy and driver-owned: events carry an opaque payload (a
// job uid for deadlines, a generation counter for policy timers) and the
// driver discards stale entries when they surface at the top. The queue
// itself never rescans.
#ifndef SRC_ENGINE_EVENT_QUEUE_H_
#define SRC_ENGINE_EVENT_QUEUE_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/util/check.h"
#include "src/util/profiler.h"

namespace rtdvs {

// The event classes a simulation driver schedules. Completion and
// switch-halt-end times depend on the mutable processor state (current
// frequency, pending transition), so drivers typically derive those two
// analytically per step and queue the rest; both kinds still flow through
// the same (time, seq) ordering when queued.
enum class EngineEventType {
  kRelease,        // a task's next periodic release
  kCompletion,     // the running job exhausts its remaining work
  kDeadline,       // a live job's absolute deadline
  kPolicyTimer,    // DvsPolicy::NextWakeupMs expiry
  kSwitchHaltEnd,  // the mandatory stop interval of a speed switch ends
  kHorizon,        // end of the simulated horizon
};

struct EngineEvent {
  double time_ms = 0;
  EngineEventType type = EngineEventType::kRelease;
  // Task the event concerns (kRelease/kDeadline), -1 otherwise.
  int task_id = -1;
  // Driver-defined validity token: job uid for kDeadline, timer generation
  // for kPolicyTimer. Stale events are discarded by the driver at pop time.
  uint64_t payload = 0;
  // Assigned by Push; breaks ties among equal timestamps (FIFO).
  uint64_t seq = 0;
};

class EventQueue {
 public:
  // Push/Top/Pop are defined inline: they sit on the per-step hot path of
  // both hosts, and the comparator must inline into the std heap algorithms.
  void Push(double time_ms, EngineEventType type, int task_id = -1,
            uint64_t payload = 0) {
    RTDVS_PROF_SCOPE("engine/event_queue/push");
    EngineEvent event;
    event.time_ms = time_ms;
    event.type = type;
    event.task_id = task_id;
    event.payload = payload;
    event.seq = next_seq_++;
    heap_.push_back(event);
    std::push_heap(heap_.begin(), heap_.end(), Later{});
  }

  bool Empty() const { return heap_.empty(); }
  size_t Size() const { return heap_.size(); }

  // The earliest event; fatal when Empty().
  const EngineEvent& Top() const {
    RTDVS_CHECK(!heap_.empty()) << "Top() on an empty event queue";
    return heap_.front();
  }

  // Removes and returns the earliest event. Fatal when Empty() or when the
  // popped event outranks an event still queued (heap corruption).
  EngineEvent Pop() {
    RTDVS_PROF_SCOPE("engine/event_queue/pop");
    RTDVS_CHECK(!heap_.empty()) << "Pop() on an empty event queue";
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    EngineEvent event = heap_.back();
    heap_.pop_back();
    // The popped event must not outrank anything still queued. (A global
    // time watermark would be too strong: hosts lazily discard stale events
    // that lie in the future, then push nearer valid ones.)
    RTDVS_CHECK(heap_.empty() || !Later{}(event, heap_.front()))
        << "event queue popped out of time order at t=" << event.time_ms;
    return event;
  }

  // Drops all events (the sequence counter keeps running; only relative
  // order matters).
  void Clear() { heap_.clear(); }

  // True when every parent is not later than its children, i.e. the
  // structural heap property holds. O(n); meant for tests and audits.
  bool HeapInvariantHolds() const;

  // TEST ONLY: swaps two raw heap slots to inject a heap-property fault so
  // tests can prove the monotone-pop guard catches a corrupted heap.
  void TestOnlySwapSlots(size_t a, size_t b);

 private:
  // True when `a` pops after `b` — the std::push_heap comparator (max-heap
  // semantics inverted into a min-heap on (time_ms, seq)). A stateless
  // functor so the heap algorithms inline the comparison.
  struct Later {
    bool operator()(const EngineEvent& a, const EngineEvent& b) const {
      if (a.time_ms != b.time_ms) {
        return a.time_ms > b.time_ms;
      }
      return a.seq > b.seq;
    }
  };

  std::vector<EngineEvent> heap_;
  uint64_t next_seq_ = 0;
};

}  // namespace rtdvs

#endif  // SRC_ENGINE_EVENT_QUEUE_H_
