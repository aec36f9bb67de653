// FASTJOIN_NET_FILE — the home of every raw socket syscall in the
// tree (fastjoin-lint `net-socket` enforces this).
#include "net/socket.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <thread>

namespace fastjoin::net {
namespace {

std::string errno_str(const char* what) {
  return std::string(what) + ": " + std::strerror(errno);
}

}  // namespace

std::string Endpoint::to_string() const {
  if (kind == Kind::kUnix) return "unix:" + path;
  return "tcp:" + std::to_string(port);
}

bool Endpoint::parse(const std::string& s, Endpoint& out) {
  if (s.rfind("unix:", 0) == 0) {
    out.kind = Kind::kUnix;
    out.path = s.substr(5);
    return !out.path.empty();
  }
  if (s.rfind("tcp:", 0) == 0) {
    const std::string p = s.substr(4);
    if (p.empty()) return false;
    char* end = nullptr;
    const long v = std::strtol(p.c_str(), &end, 10);
    // Port 0 is legal for listeners: the kernel picks and
    // listen_endpoint() writes the choice back.
    if (end == nullptr || *end != '\0' || v < 0 || v > 65535 || p == "-0") {
      return false;
    }
    out.kind = Kind::kTcp;
    out.port = static_cast<std::uint16_t>(v);
    return true;
  }
  return false;
}

Socket& Socket::operator=(Socket&& o) noexcept {
  if (this != &o) {
    close();
    fd_ = o.fd_;
    o.fd_ = -1;
  }
  return *this;
}

void Socket::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

int Socket::release() {
  const int fd = fd_;
  fd_ = -1;
  return fd;
}

IoResult read_some(Socket& s, void* buf, std::size_t len) {
  IoResult r;
  for (;;) {
    const ssize_t n = ::recv(s.fd(), buf, len, 0);
    if (n > 0) {
      r.n = static_cast<std::size_t>(n);
      return r;
    }
    if (n == 0) {
      r.eof = true;
      return r;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      r.would_block = true;
      return r;
    }
    r.err = errno;
    return r;
  }
}

IoResult write_some(Socket& s, const void* buf, std::size_t len) {
  IoResult r;
  for (;;) {
    const ssize_t n = ::send(s.fd(), buf, len, MSG_NOSIGNAL);
    if (n >= 0) {
      r.n = static_cast<std::size_t>(n);
      return r;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      r.would_block = true;
      return r;
    }
    r.err = errno;
    return r;
  }
}

bool send_all(Socket& s, const void* buf, std::size_t len) {
  return send_all(s, buf, len, nullptr, 0);
}

bool send_all(Socket& s, const void* head, std::size_t head_len,
              const void* body, std::size_t body_len) {
  iovec iov[2] = {{const_cast<void*>(head), head_len},
                  {const_cast<void*>(body), body_len}};
  std::size_t i = 0;
  for (;;) {
    while (i < 2 && iov[i].iov_len == 0) ++i;
    if (i == 2) return true;
    msghdr msg{};
    msg.msg_iov = iov + i;
    msg.msg_iovlen = 2 - i;
    const ssize_t n = ::sendmsg(s.fd(), &msg, MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    // would_block on a blocking socket means misuse; treat as error.
    if (n <= 0) return false;
    // Step past what went out: whole iovecs, then into the next one.
    auto left = static_cast<std::size_t>(n);
    for (; i < 2 && left >= iov[i].iov_len; ++i) left -= iov[i].iov_len;
    if (i < 2) {
      iov[i].iov_base = static_cast<std::byte*>(iov[i].iov_base) + left;
      iov[i].iov_len -= left;
    }
  }
}

bool set_nonblocking(Socket& s, bool on) {
  const int flags = ::fcntl(s.fd(), F_GETFL, 0);
  if (flags < 0) return false;
  const int want = on ? (flags | O_NONBLOCK) : (flags & ~O_NONBLOCK);
  return ::fcntl(s.fd(), F_SETFL, want) == 0;
}

Socket listen_endpoint(Endpoint& ep, int backlog, std::string* err) {
  if (ep.kind == Endpoint::Kind::kUnix) {
    Socket s(::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0));
    if (!s.valid()) {
      *err = errno_str("socket(AF_UNIX)");
      return {};
    }
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (ep.path.size() >= sizeof(addr.sun_path)) {
      *err = "unix socket path too long: " + ep.path;
      return {};
    }
    std::memcpy(addr.sun_path, ep.path.c_str(), ep.path.size() + 1);
    ::unlink(ep.path.c_str());  // stale socket from a previous run
    if (::bind(s.fd(), reinterpret_cast<sockaddr*>(&addr),
               sizeof(addr)) != 0) {
      *err = errno_str("bind(unix)");
      return {};
    }
    if (::listen(s.fd(), backlog) != 0) {
      *err = errno_str("listen(unix)");
      return {};
    }
    return s;
  }
  Socket s(::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0));
  if (!s.valid()) {
    *err = errno_str("socket(AF_INET)");
    return {};
  }
  const int one = 1;
  ::setsockopt(s.fd(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(ep.port);
  if (::bind(s.fd(), reinterpret_cast<sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    *err = errno_str("bind(tcp)");
    return {};
  }
  if (::listen(s.fd(), backlog) != 0) {
    *err = errno_str("listen(tcp)");
    return {};
  }
  socklen_t alen = sizeof(addr);
  if (::getsockname(s.fd(), reinterpret_cast<sockaddr*>(&addr),
                    &alen) == 0) {
    ep.port = ntohs(addr.sin_port);
  }
  return s;
}

Socket accept_conn(Socket& listener, std::string* err) {
  err->clear();
  for (;;) {
    const int fd =
        ::accept4(listener.fd(), nullptr, nullptr, SOCK_CLOEXEC);
    if (fd >= 0) {
      Socket s(fd);
      const int one = 1;
      // Harmless on AF_UNIX (fails silently); batching in the
      // connection layer does the coalescing, so no Nagle on TCP.
      ::setsockopt(s.fd(), IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      return s;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return {};
    *err = errno_str("accept");
    return {};
  }
}

Socket connect_endpoint(const Endpoint& ep, std::string* err) {
  if (ep.kind == Endpoint::Kind::kUnix) {
    Socket s(::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0));
    if (!s.valid()) {
      *err = errno_str("socket(AF_UNIX)");
      return {};
    }
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (ep.path.size() >= sizeof(addr.sun_path)) {
      *err = "unix socket path too long: " + ep.path;
      return {};
    }
    std::memcpy(addr.sun_path, ep.path.c_str(), ep.path.size() + 1);
    for (;;) {
      if (::connect(s.fd(), reinterpret_cast<sockaddr*>(&addr),
                    sizeof(addr)) == 0) {
        return s;
      }
      if (errno == EINTR) continue;
      *err = errno_str("connect(unix)");
      return {};
    }
  }
  Socket s(::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0));
  if (!s.valid()) {
    *err = errno_str("socket(AF_INET)");
    return {};
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(ep.port);
  for (;;) {
    if (::connect(s.fd(), reinterpret_cast<sockaddr*>(&addr),
                  sizeof(addr)) == 0) {
      const int one = 1;
      ::setsockopt(s.fd(), IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      return s;
    }
    if (errno == EINTR) continue;
    *err = errno_str("connect(tcp)");
    return {};
  }
}

Socket connect_with_retry(const Endpoint& ep,
                          std::chrono::milliseconds timeout,
                          std::string* err) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  auto backoff = std::chrono::milliseconds(1);
  for (;;) {
    Socket s = connect_endpoint(ep, err);
    if (s.valid()) return s;
    if (std::chrono::steady_clock::now() + backoff > deadline) {
      *err = "connect retry timeout (" + *err + ")";
      return {};
    }
    std::this_thread::sleep_for(backoff);
    backoff = std::min(backoff * 2, std::chrono::milliseconds(100));
  }
}

}  // namespace fastjoin::net
