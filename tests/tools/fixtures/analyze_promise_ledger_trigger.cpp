// Deliberate promise-ledger violations: dropped, double-resolved, and
// error-path-orphaned promises — each one a way for
// submitted == completed + failed + shed + queue_depth to stop holding.

namespace aift {

struct Pending {
  std::promise<int> promise;
  int deadline = 0;
};

// Early return drops the owner value: its promise never resolves and
// the caller waits forever.
void settle(Pending pending, bool shutting_down) {
  if (shutting_down) return;
  pending.promise.set_value(pending.deadline);
}

// Straight-line double resolution: std::promise throws on the second
// set_value, and the ledger counts the request twice.
void respond(Pending& pending) {
  pending.promise.set_value(1);
  pending.promise.set_value(2);
}

// Moved-from inside a try whose error path never revisits the owner
// value: requests not yet transferred when the throw fires keep
// unresolved promises.
void forward_all(std::vector<Pending> batch) {
  try {
    for (auto& pending : batch) {
      deliver(std::move(pending));
    }
  } catch (...) {
    note_failure();
  }
}

// The error path mentions the owner value only to read its size: the
// un-moved tail still keeps its unresolved promises.
void forward_counted(std::vector<Pending> batch) {
  std::size_t sent = 0;
  try {
    for (; sent < batch.size(); ++sent) {
      deliver(std::move(batch[sent]));
    }
  } catch (...) {
    note_failure();
  }
  note_dropped(batch.size() - sent);
}

// Popping from an owner container with no adjacent move-out or
// resolution: the dequeued request simply vanishes.
class Queue {
 public:
  void shed_front() {
    queue_.pop_front();
  }

 private:
  std::deque<Pending> queue_;
};

}  // namespace aift
