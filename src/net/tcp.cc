#include "net/tcp.h"

#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/types.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>

#include "net/errno_string.h"

namespace lmerge::net {

namespace {

std::string SockaddrToString(const sockaddr_storage& addr) {
  char host[NI_MAXHOST];
  char port[NI_MAXSERV];
  if (getnameinfo(reinterpret_cast<const sockaddr*>(&addr), sizeof(addr),
                  host, sizeof(host), port, sizeof(port),
                  NI_NUMERICHOST | NI_NUMERICSERV) != 0) {
    return "unknown";
  }
  return std::string(host) + ":" + port;
}

void SetNoDelay(int fd) {
  int one = 1;
  (void)setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

class TcpConnection : public Connection {
 public:
  TcpConnection(int fd, std::string peer)
      : fd_(fd), peer_(std::move(peer)) {}

  ~TcpConnection() override {
    Close();
    ::close(fd_);
  }

  Status Send(const char* data, size_t size) override {
    size_t sent = 0;
    while (sent < size) {
      const ssize_t n =
          ::send(fd_, data + sent, size - sent, MSG_NOSIGNAL);
      if (n < 0) {
        if (errno == EINTR) continue;
        closed_.store(true, std::memory_order_relaxed);
        return Status::Internal(ErrnoMessage("send", errno));
      }
      sent += static_cast<size_t>(n);
    }
    return Status::Ok();
  }

  Status Receive(char* buffer, size_t capacity, size_t* received) override {
    while (true) {
      const ssize_t n = ::recv(fd_, buffer, capacity, 0);
      if (n < 0) {
        if (errno == EINTR) continue;
        closed_.store(true, std::memory_order_relaxed);
        return Status::Internal(ErrnoMessage("recv", errno));
      }
      if (n == 0) closed_.store(true, std::memory_order_relaxed);
      *received = static_cast<size_t>(n);
      return Status::Ok();
    }
  }

  Status TryReceive(std::string* out) override {
    char buffer[16 * 1024];
    while (true) {
      const ssize_t n = ::recv(fd_, buffer, sizeof(buffer), MSG_DONTWAIT);
      if (n > 0) {
        out->append(buffer, static_cast<size_t>(n));
        continue;
      }
      if (n == 0) {
        closed_.store(true, std::memory_order_relaxed);
        return Status::Ok();
      }
      if (errno == EAGAIN || errno == EWOULDBLOCK) return Status::Ok();
      if (errno == EINTR) continue;
      closed_.store(true, std::memory_order_relaxed);
      return Status::Internal(ErrnoMessage("recv", errno));
    }
  }

  Status TrySend(const char* data, size_t size, size_t* sent) override {
    *sent = 0;
    while (*sent < size) {
      const ssize_t n = ::send(fd_, data + *sent, size - *sent,
                               MSG_NOSIGNAL | MSG_DONTWAIT);
      if (n < 0) {
        if (errno == EINTR) continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) return Status::Ok();
        closed_.store(true, std::memory_order_relaxed);
        return Status::Internal(ErrnoMessage("send", errno));
      }
      *sent += static_cast<size_t>(n);
    }
    return Status::Ok();
  }

  int readable_fd() const override { return fd_; }

  void Close() override {
    closed_.store(true, std::memory_order_relaxed);
    // closed_ may already be set by a Send/Receive error; the shutdown flag
    // keeps the syscall itself once-only.
    if (!shutdown_done_.exchange(true, std::memory_order_relaxed)) {
      ::shutdown(fd_, SHUT_RDWR);
    }
  }

  bool closed() const override {
    return closed_.load(std::memory_order_relaxed);
  }

  std::string peer() const override { return peer_; }

 private:
  int fd_;
  std::string peer_;
  std::atomic<bool> closed_{false};
  std::atomic<bool> shutdown_done_{false};
};

class TcpListener : public Listener {
 public:
  TcpListener(int fd, int port) : fd_(fd), port_(port) {}

  ~TcpListener() override {
    Close();
    ::close(fd_);
  }

  Status TryAccept(std::unique_ptr<Connection>* connection) override {
    connection->reset();
    sockaddr_storage addr;
    socklen_t addr_len = sizeof(addr);
    while (true) {
      const int fd =
          ::accept(fd_, reinterpret_cast<sockaddr*>(&addr), &addr_len);
      if (fd < 0) {
        if (errno == EINTR) continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) return Status::Ok();
        return Status::Internal(ErrnoMessage("accept", errno));
      }
      SetNoDelay(fd);
      *connection = std::make_unique<TcpConnection>(
          fd, SockaddrToString(addr));
      return Status::Ok();
    }
  }

  int pollable_fd() const override { return fd_; }

  void Close() override {
    if (!closed_.exchange(true, std::memory_order_relaxed)) {
      // On Linux the listen fd then polls readable and accept() fails
      // (EINVAL), which TryAccept reports as closed.
      ::shutdown(fd_, SHUT_RDWR);
    }
  }

  int port() const override { return port_; }

 private:
  int fd_;
  int port_;
  std::atomic<bool> closed_{false};
};

Status Resolve(const std::string& host, int port, bool passive,
               addrinfo** result) {
  addrinfo hints;
  std::memset(&hints, 0, sizeof(hints));
  hints.ai_family = AF_UNSPEC;
  hints.ai_socktype = SOCK_STREAM;
  hints.ai_flags = passive ? AI_PASSIVE : 0;
  const std::string service = std::to_string(port);
  const int rc = getaddrinfo(host.empty() ? nullptr : host.c_str(),
                             service.c_str(), &hints, result);
  if (rc != 0) {
    return Status::InvalidArgument("resolve " + host + ": " +
                                   gai_strerror(rc));
  }
  return Status::Ok();
}

}  // namespace

Status TcpListen(int port, std::unique_ptr<Listener>* listener,
                 const std::string& bind_address) {
  addrinfo* addrs = nullptr;
  Status status = Resolve(bind_address, port, /*passive=*/true, &addrs);
  if (!status.ok()) return status;
  status = Status::Internal("no usable address for listen");
  for (addrinfo* ai = addrs; ai != nullptr; ai = ai->ai_next) {
    // Non-blocking from the start: the listener is only ever polled and
    // drained with TryAccept.
    const int fd = ::socket(ai->ai_family, ai->ai_socktype | SOCK_NONBLOCK,
                            ai->ai_protocol);
    if (fd < 0) {
      status = Status::Internal(ErrnoMessage("socket", errno));
      continue;
    }
    int one = 1;
    (void)setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    if (::bind(fd, ai->ai_addr, ai->ai_addrlen) != 0 ||
        ::listen(fd, SOMAXCONN) != 0) {
      status = Status::Internal(ErrnoMessage("bind/listen", errno));
      ::close(fd);
      continue;
    }
    sockaddr_storage bound;
    socklen_t bound_len = sizeof(bound);
    int bound_port = port;
    if (getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &bound_len) ==
        0) {
      if (bound.ss_family == AF_INET) {
        bound_port = ntohs(
            reinterpret_cast<const sockaddr_in*>(&bound)->sin_port);
      } else if (bound.ss_family == AF_INET6) {
        bound_port = ntohs(
            reinterpret_cast<const sockaddr_in6*>(&bound)->sin6_port);
      }
    }
    *listener = std::make_unique<TcpListener>(fd, bound_port);
    status = Status::Ok();
    break;
  }
  freeaddrinfo(addrs);
  return status;
}

namespace {

// connect() with an optional per-attempt timeout: non-blocking connect,
// park on poll(POLLOUT), then read SO_ERROR for the real outcome.  The fd
// is restored to blocking mode on success.
Status ConnectFd(int fd, const sockaddr* addr, socklen_t addr_len,
                 int timeout_ms) {
  if (timeout_ms <= 0) {
    if (::connect(fd, addr, addr_len) != 0) {
      return Status::Internal(ErrnoMessage("connect", errno));
    }
    return Status::Ok();
  }
  const int flags = ::fcntl(fd, F_GETFL, 0);
  (void)::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
  if (::connect(fd, addr, addr_len) != 0) {
    if (errno != EINPROGRESS) {
      return Status::Internal(ErrnoMessage("connect", errno));
    }
    pollfd pfd{fd, POLLOUT, 0};
    const int ready = ::poll(&pfd, 1, timeout_ms);
    if (ready < 0) return Status::Internal(ErrnoMessage("poll", errno));
    if (ready == 0) {
      return Status::Internal("connect timed out after " +
                              std::to_string(timeout_ms) + " ms");
    }
    int err = 0;
    socklen_t err_len = sizeof(err);
    (void)getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &err_len);
    if (err != 0) {
      return Status::Internal(ErrnoMessage("connect", err));
    }
  }
  (void)::fcntl(fd, F_SETFL, flags);
  return Status::Ok();
}

Status TcpConnectOnce(const std::string& host, int port, int timeout_ms,
                      std::unique_ptr<Connection>* connection) {
  addrinfo* addrs = nullptr;
  Status status = Resolve(host, port, /*passive=*/false, &addrs);
  if (!status.ok()) return status;
  status = Status::Internal("no usable address for connect");
  for (addrinfo* ai = addrs; ai != nullptr; ai = ai->ai_next) {
    const int fd = ::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol);
    if (fd < 0) {
      status = Status::Internal(ErrnoMessage("socket", errno));
      continue;
    }
    status = ConnectFd(fd, ai->ai_addr, ai->ai_addrlen, timeout_ms);
    if (!status.ok()) {
      status = Status::Internal("connect " + host + ":" +
                                std::to_string(port) + ": " +
                                status.message());
      ::close(fd);
      continue;
    }
    SetNoDelay(fd);
    sockaddr_storage peer_addr;
    std::memset(&peer_addr, 0, sizeof(peer_addr));
    socklen_t peer_len = sizeof(peer_addr);
    (void)getpeername(fd, reinterpret_cast<sockaddr*>(&peer_addr),
                      &peer_len);
    *connection = std::make_unique<TcpConnection>(
        fd, SockaddrToString(peer_addr));
    status = Status::Ok();
    break;
  }
  freeaddrinfo(addrs);
  return status;
}

}  // namespace

Status TcpConnect(const std::string& host, int port,
                  std::unique_ptr<Connection>* connection) {
  return TcpConnectOnce(host, port, /*timeout_ms=*/0, connection);
}

Status TcpConnect(const std::string& host, int port,
                  const TcpConnectOptions& options,
                  std::unique_ptr<Connection>* connection) {
  Status status;
  int backoff_ms = options.backoff_initial_ms;
  for (int attempt = 0; attempt <= options.retries; ++attempt) {
    if (attempt > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(backoff_ms));
      backoff_ms = std::min(backoff_ms * 2, options.backoff_max_ms);
    }
    status = TcpConnectOnce(host, port, options.connect_timeout_ms,
                            connection);
    if (status.ok()) return status;
  }
  return status;
}

}  // namespace lmerge::net
