// In-process loopback transport: a pair of Connections joined by two
// in-memory byte queues.
//
// Exists so that every server session behaviour — handshakes, join/leave,
// feedback, error teardown — can be unit-tested deterministically, with the
// test driving bytes into MergeServer::OnBytes by hand and reading the
// server's responses out of the client end.  Queues are mutex+condvar
// protected, so the same transport also works across real threads (the
// throughput bench drives it from publisher threads).

#ifndef LMERGE_NET_LOOPBACK_H_
#define LMERGE_NET_LOOPBACK_H_

#include <deque>
#include <memory>
#include <string>
#include <utility>

#include "net/transport.h"

namespace lmerge::net {

// Creates two connected endpoints; bytes sent on `.first` arrive on
// `.second` and vice versa.  The names label peer() for diagnostics.
std::pair<std::unique_ptr<Connection>, std::unique_ptr<Connection>>
CreateLoopbackPair(const std::string& first_name = "loopback:a",
                   const std::string& second_name = "loopback:b");

// A Listener over loopback pairs: Connect() returns the client endpoint and
// queues the matching server endpoint for TryAccept().
class LoopbackListener : public Listener {
 public:
  LoopbackListener();
  ~LoopbackListener() override;

  // Creates a connection to this listener; never blocks.  Returns nullptr
  // after Close().
  std::unique_ptr<Connection> Connect(const std::string& client_name);

  Status TryAccept(std::unique_ptr<Connection>* connection) override;
  int pollable_fd() const override;
  void Close() override;

 private:
  struct State;
  std::shared_ptr<State> state_;
};

}  // namespace lmerge::net

#endif  // LMERGE_NET_LOOPBACK_H_
