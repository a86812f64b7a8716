#include "net/loopback.h"

#include <sys/eventfd.h>
#include <unistd.h>

#include <atomic>
#include <cstdint>

#include "common/check.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace lmerge::net {

namespace {

// Signals an eventfd (saturating add; a full counter still polls readable).
void SignalEvent(int fd) {
  const uint64_t one = 1;
  (void)!::write(fd, &one, sizeof(one));
}

// One direction of a loopback pair: a byte queue with its own lock.  The
// eventfd mirrors "bytes or close pending" so an epoll loop can multiplex
// loopback connections exactly like sockets (readers clear it FIRST, then
// drain bytes, so a write between the two steps re-signals and is never
// lost).
struct Pipe {
  Mutex mutex;
  CondVar readable;
  std::string bytes LM_GUARDED_BY(mutex);
  bool closed LM_GUARDED_BY(mutex) = false;  // no further writes will arrive
  int event_fd = -1;

  Pipe() {
    event_fd = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
    LM_CHECK(event_fd >= 0);
  }
  ~Pipe() { ::close(event_fd); }

  void Write(const char* data, size_t size) LM_EXCLUDES(mutex) {
    {
      MutexLock lock(mutex);
      bytes.append(data, size);
    }
    readable.NotifyAll();
    SignalEvent(event_fd);
  }

  void Close() LM_EXCLUDES(mutex) {
    {
      MutexLock lock(mutex);
      closed = true;
    }
    readable.NotifyAll();
    SignalEvent(event_fd);
  }

  // Clears the eventfd; call before draining bytes under the lock.
  void ClearEvent() {
    uint64_t drained;
    (void)!::read(event_fd, &drained, sizeof(drained));
  }
};

// Shared state of one connected pair: pipe[0] carries first->second bytes,
// pipe[1] second->first.
struct PairState {
  Pipe pipe[2];
};

class LoopbackConnection : public Connection {
 public:
  LoopbackConnection(std::shared_ptr<PairState> state, int side,
                     std::string name)
      : state_(std::move(state)), side_(side), name_(std::move(name)) {}

  ~LoopbackConnection() override { Close(); }

  Status Send(const char* data, size_t size) override {
    Pipe& out = state_->pipe[side_];
    {
      MutexLock lock(out.mutex);
      if (out.closed) {
        return Status::FailedPrecondition("loopback connection closed");
      }
      out.bytes.append(data, size);
    }
    out.readable.NotifyAll();
    SignalEvent(out.event_fd);
    return Status::Ok();
  }

  Status Receive(char* buffer, size_t capacity, size_t* received) override {
    Pipe& in = state_->pipe[1 - side_];
    MutexLock lock(in.mutex);
    while (in.bytes.empty() && !in.closed) in.readable.Wait(lock);
    const size_t n = std::min(capacity, in.bytes.size());
    std::copy(in.bytes.begin(),
              in.bytes.begin() + static_cast<ptrdiff_t>(n), buffer);
    in.bytes.erase(0, n);
    *received = n;  // 0 only when closed with nothing buffered: clean EOF
    return Status::Ok();
  }

  Status TryReceive(std::string* out) override {
    Pipe& in = state_->pipe[1 - side_];
    // Clear-then-drain: a Write landing between the two steps re-signals
    // the eventfd, so the next epoll round still sees it.
    in.ClearEvent();
    MutexLock lock(in.mutex);
    out->append(in.bytes);
    in.bytes.clear();
    if (in.closed) closed_.store(true, std::memory_order_relaxed);
    return Status::Ok();
  }

  int readable_fd() const override {
    return state_->pipe[1 - side_].event_fd;
  }

  void Close() override {
    closed_.store(true, std::memory_order_relaxed);
    // Half-close both directions: the peer sees EOF, and our own blocked
    // Receive (if any) wakes.
    state_->pipe[0].Close();
    state_->pipe[1].Close();
  }

  bool closed() const override {
    return closed_.load(std::memory_order_relaxed);
  }

  std::string peer() const override { return name_; }

 private:
  std::shared_ptr<PairState> state_;
  int side_;
  std::string name_;
  // Atomic: the server tears a session down (Close) from its own thread
  // while the peer's transport thread polls closed()/TryReceive.
  std::atomic<bool> closed_{false};
};

}  // namespace

std::pair<std::unique_ptr<Connection>, std::unique_ptr<Connection>>
CreateLoopbackPair(const std::string& first_name,
                   const std::string& second_name) {
  auto state = std::make_shared<PairState>();
  // Each endpoint's peer() reports the *other* side's name.
  auto first =
      std::make_unique<LoopbackConnection>(state, 0, second_name);
  auto second =
      std::make_unique<LoopbackConnection>(state, 1, first_name);
  return {std::move(first), std::move(second)};
}

struct LoopbackListener::State {
  Mutex mutex;
  std::deque<std::unique_ptr<Connection>> pending LM_GUARDED_BY(mutex);
  bool closed LM_GUARDED_BY(mutex) = false;
  int event_fd = -1;  // signalled on Connect and Close, cleared in TryAccept

  State() {
    event_fd = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
    LM_CHECK(event_fd >= 0);
  }
  ~State() { ::close(event_fd); }
};

LoopbackListener::LoopbackListener() : state_(std::make_shared<State>()) {}

LoopbackListener::~LoopbackListener() { Close(); }

std::unique_ptr<Connection> LoopbackListener::Connect(
    const std::string& client_name) {
  auto pair = CreateLoopbackPair(client_name, "loopback:server");
  {
    MutexLock lock(state_->mutex);
    if (state_->closed) return nullptr;
    state_->pending.push_back(std::move(pair.second));
  }
  SignalEvent(state_->event_fd);
  return std::move(pair.first);
}

Status LoopbackListener::TryAccept(std::unique_ptr<Connection>* connection) {
  connection->reset();
  // Clear-then-drain, mirroring LoopbackConnection::TryReceive.
  uint64_t drained;
  (void)!::read(state_->event_fd, &drained, sizeof(drained));
  MutexLock lock(state_->mutex);
  if (!state_->pending.empty()) {
    *connection = std::move(state_->pending.front());
    state_->pending.pop_front();
    // More pending: keep the fd readable for the next round.
    if (!state_->pending.empty()) SignalEvent(state_->event_fd);
    return Status::Ok();
  }
  if (state_->closed) return Status::FailedPrecondition("listener closed");
  return Status::Ok();
}

int LoopbackListener::pollable_fd() const { return state_->event_fd; }

void LoopbackListener::Close() {
  {
    MutexLock lock(state_->mutex);
    state_->closed = true;
  }
  SignalEvent(state_->event_fd);
}

}  // namespace lmerge::net
