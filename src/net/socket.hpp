// FASTJOIN_NET_FILE — raw socket syscalls are confined to the net
// layer; everything else speaks frames through Connection/FrameConn.
//
// Thin RAII + error-code-free wrappers over Unix-domain and TCP
// sockets. Every call is EINTR-safe (the syscall is retried), failures
// surface as a disarmed Socket plus a human-readable reason, and the
// nonblocking/blocking mode is explicit at creation. TCP listeners
// bind 127.0.0.1 only: the transport is a local process fabric, not an
// exposed service (authentication is out of scope by design — see
// docs/architecture.md, "Process model").
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>

namespace fastjoin::net {

/// Where a router listens / a worker connects. Rendered as
/// "unix:<path>" or "tcp:<port>" on worker command lines.
struct Endpoint {
  enum class Kind : std::uint8_t { kUnix, kTcp };
  Kind kind = Kind::kUnix;
  std::string path;         ///< kUnix: filesystem socket path
  std::uint16_t port = 0;   ///< kTcp: port on 127.0.0.1

  std::string to_string() const;
  /// Parse the to_string() form; returns false on malformed input.
  static bool parse(const std::string& s, Endpoint& out);
};

/// Move-only fd owner. A default-constructed Socket is empty.
class Socket {
 public:
  Socket() = default;
  explicit Socket(int fd) : fd_(fd) {}
  ~Socket() { close(); }
  Socket(Socket&& o) noexcept : fd_(o.fd_) { o.fd_ = -1; }
  Socket& operator=(Socket&& o) noexcept;
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;

  bool valid() const { return fd_ >= 0; }
  int fd() const { return fd_; }
  /// Close now (idempotent). EINTR on close is ignored per POSIX: the
  /// fd is gone either way.
  void close();
  /// Release ownership without closing.
  int release();

 private:
  int fd_ = -1;
};

/// Outcome of one read/write attempt on a socket.
struct IoResult {
  std::size_t n = 0;        ///< bytes moved
  bool would_block = false; ///< nonblocking socket had no room/data
  bool eof = false;         ///< peer closed (reads only)
  int err = 0;              ///< errno on hard failure, else 0
  bool ok() const { return err == 0; }
};

/// One read attempt (EINTR retried). Blocking sockets park in the
/// kernel until data, EOF, or a hard error.
IoResult read_some(Socket& s, void* buf, std::size_t len);
/// One write attempt (EINTR retried, SIGPIPE suppressed).
IoResult write_some(Socket& s, const void* buf, std::size_t len);
/// Write the whole buffer on a blocking socket (EINTR/short writes
/// retried). False on hard error or closed peer.
bool send_all(Socket& s, const void* buf, std::size_t len);
/// send_all of `head` then `body` as one vectored write: a frame's
/// header and payload leave without being copied together first.
bool send_all(Socket& s, const void* head, std::size_t head_len,
              const void* body, std::size_t body_len);

bool set_nonblocking(Socket& s, bool on);

/// Create a listener for `ep`. For kTcp with port 0 the kernel picks;
/// the chosen port is written back into `ep`. For kUnix a stale socket
/// file at the path is unlinked first.
Socket listen_endpoint(Endpoint& ep, int backlog, std::string* err);
/// Accept one pending connection (nonblocking listener: would_block ->
/// empty socket with empty *err).
Socket accept_conn(Socket& listener, std::string* err);
/// Blocking connect to `ep`.
Socket connect_endpoint(const Endpoint& ep, std::string* err);
/// connect_endpoint with bounded exponential backoff until `deadline`
/// — workers come up before/while the router is binding, and a
/// respawned worker reconnects through the same path.
Socket connect_with_retry(const Endpoint& ep,
                          std::chrono::milliseconds timeout,
                          std::string* err);

}  // namespace fastjoin::net
