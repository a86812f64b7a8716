// Byte transport abstraction under the LMerge wire protocol.
//
// Two implementations ship with the library:
//   * net/tcp.h      — real POSIX sockets (the deployment path);
//   * net/loopback.h — in-process byte queues, so every session behaviour of
//     the server is deterministically unit-testable without sockets, timing,
//     or port allocation (tests/net/server_loopback_test.cc).
//
// Connections carry opaque bytes; framing is layered on top (net/frame.h).
// All errors are Status — a transport failure tears down one session, never
// the process.

#ifndef LMERGE_NET_TRANSPORT_H_
#define LMERGE_NET_TRANSPORT_H_

#include <memory>
#include <string>
#include <utility>

#include "common/status.h"

namespace lmerge::net {

// A bidirectional byte pipe.  Send/Receive may be called from different
// threads; concurrent Sends from multiple threads must be externally
// serialized (the MergeServer sends under its session lock).
class Connection {
 public:
  virtual ~Connection() = default;

  // Writes all of `size` bytes (handling partial writes internally).
  virtual Status Send(const char* data, size_t size) = 0;
  Status Send(const std::string& bytes) {
    return Send(bytes.data(), bytes.size());
  }

  // Blocks until at least one byte arrives, the peer closes, or an error
  // occurs.  On success `*received` holds the byte count; 0 means a clean
  // end-of-stream.
  virtual Status Receive(char* buffer, size_t capacity, size_t* received) = 0;

  // Appends whatever bytes are immediately available to `*out` without
  // blocking (possibly none).  A peer close observed here marks the
  // connection closed() but still returns Ok with the final bytes.
  virtual Status TryReceive(std::string* out) = 0;

  // Sends a refcounted immutable frame buffer.  The default copies through
  // the blocking Send; the event-loop connection (net/server.cc) overrides
  // it to enqueue the shared buffer on a bounded outbound queue instead —
  // the serialize-once fan-out path, where one encoded batch is pinned by
  // every subscriber's queue rather than copied per subscriber.  A
  // non-blocking overrider returns an error (and closes) when the bound is
  // exceeded: the slow-consumer policy.
  virtual Status SendShared(std::shared_ptr<const std::string> frame) {
    return Send(frame->data(), frame->size());
  }

  // Writes as many of `size` bytes as the transport accepts right now
  // without blocking; `*sent` may be 0 when the peer's receive window is
  // full.  The default forwards to the blocking Send — transports that can
  // really short-write (TCP) override it; the event loop re-arms on
  // writability for the remainder.
  virtual Status TrySend(const char* data, size_t size, size_t* sent) {
    const Status status = Send(data, size);
    *sent = status.ok() ? size : 0;
    return status;
  }

  // A file descriptor that polls readable (epoll/poll) whenever Receive
  // or TryReceive would make progress — the socket itself for TCP, an
  // eventfd signalled on writes for loopback.
  virtual int readable_fd() const = 0;

  // Half-close for shutdown: wakes any blocked Receive on either end.
  // Idempotent.
  virtual void Close() = 0;
  virtual bool closed() const = 0;

  // Human-readable peer identity for logs ("127.0.0.1:52114", "loopback:a").
  virtual std::string peer() const = 0;
};

// Accepts inbound connections.
class Listener {
 public:
  virtual ~Listener() = default;

  // Non-blocking accept: on Ok, `*connection` holds the new connection or
  // stays null when none is pending right now.  An error means the
  // listener is closed.  Callers wait on pollable_fd() between calls.
  virtual Status TryAccept(std::unique_ptr<Connection>* connection) = 0;

  // Polls readable whenever TryAccept would yield a connection (or the
  // listener closed).
  virtual int pollable_fd() const = 0;

  // Makes pollable_fd() readable and every later TryAccept fail.
  // Idempotent.
  virtual void Close() = 0;

  // Bound port for TCP listeners (useful with ephemeral port 0); -1 when
  // the transport has no port concept.
  virtual int port() const { return -1; }
};

}  // namespace lmerge::net

#endif  // LMERGE_NET_TRANSPORT_H_
