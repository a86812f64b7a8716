// POSIX TCP implementation of the transport abstraction.
//
// IPv4/IPv6 via getaddrinfo; TCP_NODELAY on every connection (the protocol
// frames its own writes, Nagle only adds latency).  Close() uses shutdown()
// so a blocked Receive on another thread wakes immediately; the file
// descriptor itself is released in the destructor, which keeps fd-reuse
// races out of concurrent teardown.

#ifndef LMERGE_NET_TCP_H_
#define LMERGE_NET_TCP_H_

#include <memory>
#include <string>

#include "net/transport.h"

namespace lmerge::net {

// Binds and listens on `port` (0 picks an ephemeral port; see port()).
// `bind_address` is a numeric host or name; the default stays off external
// interfaces, which is the right posture for a merge daemon behind a load
// balancer.
Status TcpListen(int port, std::unique_ptr<Listener>* listener,
                 const std::string& bind_address = "127.0.0.1");

// Connects to host:port (blocking).
Status TcpConnect(const std::string& host, int port,
                  std::unique_ptr<Connection>* connection);

// Client-side connect tuning for tools/scripts that race server startup
// (scripts/demo_net.sh): a per-attempt timeout plus retries with
// exponential backoff replaces "sleep and hope".
struct TcpConnectOptions {
  // Per-attempt connect timeout; <= 0 uses the OS default (blocking).
  int connect_timeout_ms = 0;
  // Additional attempts after a failed first one.  Backoff starts at
  // backoff_initial_ms and doubles per retry, capped at backoff_max_ms.
  int retries = 0;
  int backoff_initial_ms = 100;
  int backoff_max_ms = 2000;
};
Status TcpConnect(const std::string& host, int port,
                  const TcpConnectOptions& options,
                  std::unique_ptr<Connection>* connection);

}  // namespace lmerge::net

#endif  // LMERGE_NET_TCP_H_
