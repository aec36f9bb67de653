#include "net/connection.hpp"

#include <cstring>

#include "common/logging.hpp"
#include "telemetry/telemetry.hpp"

namespace fastjoin::net {
namespace {

namespace tel = fastjoin::telemetry;

struct NetMetrics {
  tel::Counter& bytes_sent;
  tel::Counter& bytes_recv;
  tel::Counter& frames_sent;
  tel::Counter& frames_recv;
  tel::Counter& accepts;
  tel::Counter& connects;
  tel::Counter& decode_errors;
};

NetMetrics& net_metrics() {
  auto& reg = tel::MetricRegistry::global();
  static NetMetrics m{
      reg.counter("net.bytes_sent"),   reg.counter("net.bytes_recv"),
      reg.counter("net.frames_sent"),  reg.counter("net.frames_recv"),
      reg.counter("net.accepts"),      reg.counter("net.connects"),
      reg.counter("net.decode_errors"),
  };
  return m;
}

constexpr std::size_t kReadChunk = 64 * 1024;
/// Coalesce at most this many queued bytes into one write syscall.
constexpr std::size_t kWriteBurst = 256 * 1024;

}  // namespace

NetCounters net_counters() {
  NetCounters c;
  c.bytes_sent = net_metrics().bytes_sent.value();
  c.bytes_recv = net_metrics().bytes_recv.value();
  c.frames_sent = net_metrics().frames_sent.value();
  c.frames_recv = net_metrics().frames_recv.value();
  c.accepts = net_metrics().accepts.value();
  c.connects = net_metrics().connects.value();
  c.decode_errors = net_metrics().decode_errors.value();
  return c;
}

void note_sent(std::size_t bytes, std::size_t frames) {
  net_metrics().bytes_sent.add(bytes);
  net_metrics().frames_sent.add(frames);
}
void note_recv(std::size_t bytes, std::size_t frames) {
  net_metrics().bytes_recv.add(bytes);
  net_metrics().frames_recv.add(frames);
}
void note_accept() { net_metrics().accepts.add(1); }
void note_connect() { net_metrics().connects.add(1); }
void note_decode_error() { net_metrics().decode_errors.add(1); }

// ---------------------------------------------------------------------------
// Connection (nonblocking, event-loop driven)
// ---------------------------------------------------------------------------

Connection::Connection(EventLoop& loop, Socket sock, Options opts)
    : loop_(loop),
      sock_(std::move(sock)),
      opts_(opts),
      decoder_(opts.max_payload),
      rdbuf_(kReadChunk) {
  set_nonblocking(sock_, true);
  loop_.add_fd(sock_.fd(), /*want_read=*/true, /*want_write=*/false,
               [this](std::uint32_t ev) { on_events(ev); });
}

Connection::~Connection() {
  if (!closed_ && sock_.valid()) {
    loop_.del_fd(sock_.fd());
  }
}

void Connection::start(FrameHandler on_frame, CloseHandler on_close) {
  on_frame_ = std::move(on_frame);
  on_close_ = std::move(on_close);
}

void Connection::close(const std::string& reason, bool clean) {
  if (closed_) return;
  closed_ = true;
  loop_.del_fd(sock_.fd());
  sock_.close();
  out_.clear();
  head_ = 0;
  if (on_close_) on_close_(reason, clean);
}

void Connection::send(std::uint16_t type, const void* payload,
                      std::size_t len) {
  if (closed_) return;
  // Compact the consumed prefix before growing (amortized O(1)).
  if (head_ > 0 && head_ >= out_.size() / 2) {
    out_.erase(out_.begin(), out_.begin() + static_cast<std::ptrdiff_t>(head_));
    head_ = 0;
  }
  // Header and payload go straight into the queue: the payload is
  // copied once, and never into a temporary frame.
  std::byte header[kFrameHeaderBytes];
  encode_frame_header(header, type, payload, len);
  out_.insert(out_.end(), header, header + kFrameHeaderBytes);
  if (len) {
    const auto* body = static_cast<const std::byte*>(payload);
    out_.insert(out_.end(), body, body + len);
  }
  note_sent(0, 1);
  flush_writes();
  if (!closed_) update_interest();
}

void Connection::on_events(std::uint32_t events) {
  in_dispatch_ = true;
  if (events & EventLoop::kError) {
    in_dispatch_ = false;
    close("socket error", /*clean=*/false);
    return;
  }
  if (events & EventLoop::kWritable) {
    flush_writes();
  }
  if (!closed_ && (events & EventLoop::kReadable)) {
    drain_reads();
  }
  in_dispatch_ = false;
  if (!closed_) update_interest();
}

void Connection::drain_reads() {
  for (;;) {
    const IoResult r = read_some(sock_, rdbuf_.data(), rdbuf_.size());
    if (r.n > 0) {
      note_recv(r.n, 0);
      std::vector<Frame> frames;
      if (!decoder_.feed(rdbuf_.data(), r.n, frames)) {
        note_decode_error();
        close("frame decode: " + decoder_.error(), /*clean=*/false);
        return;
      }
      note_recv(0, frames.size());
      for (Frame& f : frames) {
        if (on_frame_) on_frame_(f);
        if (closed_) return;  // handler closed us mid-batch
      }
      continue;
    }
    if (r.would_block) return;
    if (r.eof) {
      const bool clean =
          !decoder_.mid_frame() && head_ >= out_.size();
      if (decoder_.mid_frame()) note_decode_error();
      close(decoder_.mid_frame() ? "eof mid-frame (torn frame)" : "eof",
            clean);
      return;
    }
    close("read error", /*clean=*/false);
    return;
  }
}

void Connection::flush_writes() {
  while (head_ < out_.size()) {
    const std::size_t burst =
        std::min(out_.size() - head_, kWriteBurst);
    const IoResult r = write_some(sock_, out_.data() + head_, burst);
    if (r.n > 0) {
      note_sent(r.n, 0);
      head_ += r.n;
      continue;
    }
    if (r.would_block) break;
    close("write error", /*clean=*/false);
    return;
  }
  if (head_ >= out_.size()) {
    out_.clear();
    head_ = 0;
  }
}

void Connection::update_interest() {
  const bool want = head_ < out_.size();
  if (want != want_write_) {
    want_write_ = want;
    loop_.mod_fd(sock_.fd(), /*want_read=*/true, want_write_);
  }
}

// ---------------------------------------------------------------------------
// Acceptor
// ---------------------------------------------------------------------------

Acceptor::Acceptor(EventLoop& loop, Endpoint& ep,
                   AcceptHandler on_accept)
    : loop_(loop), on_accept_(std::move(on_accept)) {
  sock_ = listen_endpoint(ep, /*backlog=*/64, &error_);
  if (!sock_.valid()) return;
  set_nonblocking(sock_, true);
  loop_.add_fd(sock_.fd(), /*want_read=*/true, /*want_write=*/false,
               [this](std::uint32_t) {
                 for (;;) {
                   std::string err;
                   Socket peer = accept_conn(sock_, &err);
                   if (!peer.valid()) {
                     if (!err.empty()) {
                       FJ_WARN("net") << "accept failed: " << err;
                     }
                     return;  // drained (or transient failure)
                   }
                   note_accept();
                   on_accept_(std::move(peer));
                 }
               });
}

Acceptor::~Acceptor() {
  if (sock_.valid()) loop_.del_fd(sock_.fd());
}

// ---------------------------------------------------------------------------
// FrameConn (blocking, worker side)
// ---------------------------------------------------------------------------

FrameConn FrameConn::connect(const Endpoint& ep,
                             std::chrono::milliseconds timeout,
                             std::string* err) {
  Socket s = connect_with_retry(ep, timeout, err);
  if (!s.valid()) return {};
  note_connect();
  return FrameConn(std::move(s));
}

bool FrameConn::read_frame(Frame& out) {
  for (;;) {
    if (!ready_.empty()) {
      out = std::move(ready_.front());
      ready_.pop_front();
      return true;
    }
    std::byte buf[kReadChunk];
    const IoResult r = read_some(sock_, buf, sizeof(buf));
    if (r.n > 0) {
      note_recv(r.n, 0);
      std::vector<Frame> frames;
      if (!decoder_.feed(buf, r.n, frames)) {
        note_decode_error();
        error_ = decoder_.error();
        return false;
      }
      note_recv(0, frames.size());
      for (Frame& f : frames) ready_.push_back(std::move(f));
      continue;
    }
    if (r.eof) {
      if (decoder_.mid_frame()) {
        note_decode_error();
        error_ = "eof mid-frame (torn frame)";
      }
      return false;
    }
    if (!r.ok()) {
      error_ = "read error (errno " + std::to_string(r.err) + ")";
      return false;
    }
    // would_block on a blocking socket: retry (spurious wakeup).
  }
}

bool FrameConn::write_frame(std::uint16_t type, const void* payload,
                            std::size_t len) {
  // Header and payload leave in one vectored send: the payload is never
  // copied into a temporary frame.
  std::byte header[kFrameHeaderBytes];
  encode_frame_header(header, type, payload, len);
  if (!send_all(sock_, header, kFrameHeaderBytes, payload, len)) {
    error_ = "write failed (peer gone?)";
    return false;
  }
  note_sent(kFrameHeaderBytes + len, 1);
  return true;
}

}  // namespace fastjoin::net
