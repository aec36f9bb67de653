// Socket layer + connection classes over real loopback sockets:
// endpoint parsing, blocking echo, EINTR storms, nonblocking
// event-loop echo under random fragmentation, and the close
// discipline (clean EOF vs torn frame).
#include "net/socket.hpp"

#include <gtest/gtest.h>
#include <pthread.h>
#include <signal.h>
#include <unistd.h>

#include <atomic>
#include <thread>

#include "common/rng.hpp"
#include "net/connection.hpp"
#include "net/event_loop.hpp"
#include "net/frame.hpp"

namespace fastjoin::net {
namespace {

std::string temp_sock_path(const char* tag) {
  return "/tmp/fastjoin-test-" + std::string(tag) + "-" +
         std::to_string(::getpid()) + ".sock";
}

TEST(Endpoint, ParseAndRender) {
  Endpoint ep;
  ASSERT_TRUE(Endpoint::parse("unix:/tmp/x.sock", ep));
  EXPECT_EQ(ep.kind, Endpoint::Kind::kUnix);
  EXPECT_EQ(ep.path, "/tmp/x.sock");
  EXPECT_EQ(ep.to_string(), "unix:/tmp/x.sock");

  ASSERT_TRUE(Endpoint::parse("tcp:8080", ep));
  EXPECT_EQ(ep.kind, Endpoint::Kind::kTcp);
  EXPECT_EQ(ep.port, 8080);
  EXPECT_EQ(ep.to_string(), "tcp:8080");

  EXPECT_FALSE(Endpoint::parse("", ep));
  EXPECT_FALSE(Endpoint::parse("unix:", ep));
  EXPECT_FALSE(Endpoint::parse("tcp:", ep));
  EXPECT_FALSE(Endpoint::parse("tcp:notaport", ep));
  EXPECT_FALSE(Endpoint::parse("tcp:99999", ep));
  EXPECT_FALSE(Endpoint::parse("http:80", ep));
}

TEST(Socket, UnixBlockingEchoRoundtrip) {
  Endpoint ep;
  ep.kind = Endpoint::Kind::kUnix;
  ep.path = temp_sock_path("echo");
  std::string err;
  Socket listener = listen_endpoint(ep, 4, &err);
  ASSERT_TRUE(listener.valid()) << err;

  std::thread server([&] {
    std::string serr;
    Socket peer;
    // The listener is nonblocking; poll-accept until the client shows.
    for (int i = 0; i < 5000 && !peer.valid(); ++i) {
      peer = accept_conn(listener, &serr);
      if (!peer.valid()) std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    ASSERT_TRUE(peer.valid()) << serr;
    FrameConn fc(std::move(peer));
    Frame f;
    while (fc.read_frame(f)) {
      ASSERT_TRUE(fc.write_frame(f.type, f.payload));
      if (f.type == 99) break;
    }
  });

  FrameConn client = FrameConn::connect(
      ep, std::chrono::milliseconds(5000), &err);
  ASSERT_TRUE(client.valid()) << err;
  for (std::uint16_t t = 1; t <= 99; ++t) {
    std::vector<std::byte> p(t * 3);
    for (std::size_t i = 0; i < p.size(); ++i) {
      p[i] = static_cast<std::byte>(i ^ t);
    }
    ASSERT_TRUE(client.write_frame(t, p));
    Frame back;
    ASSERT_TRUE(client.read_frame(back));
    EXPECT_EQ(back.type, t);
    EXPECT_EQ(back.payload, p);
  }
  server.join();
  ::unlink(ep.path.c_str());
}

void noop_handler(int) {}

TEST(Socket, VectoredWriteFrameIsByteIdenticalToEncodeFrame) {
  // FrameConn::write_frame sends header and payload as one vectored
  // write. The bytes must be exactly encode_frame()'s, including a
  // payload far past the socket buffer read slowly while signals hit
  // the blocked writer, which forces short writes that end inside the
  // payload.
  struct sigaction sa = {};
  struct sigaction old = {};
  sa.sa_handler = noop_handler;
  sigemptyset(&sa.sa_mask);
  sa.sa_flags = 0;  // deliberately no SA_RESTART
  ASSERT_EQ(sigaction(SIGUSR1, &sa, &old), 0);
  Endpoint ep;
  ep.kind = Endpoint::Kind::kUnix;
  ep.path = temp_sock_path("writev");
  std::string err;
  Socket listener = listen_endpoint(ep, 4, &err);
  ASSERT_TRUE(listener.valid()) << err;

  std::vector<std::vector<std::byte>> payloads;
  std::vector<std::byte> expected;
  for (const std::size_t n : {std::size_t{0}, std::size_t{1},
                              std::size_t{5'000}, std::size_t{3} << 20}) {
    std::vector<std::byte> p(n);
    for (std::size_t i = 0; i < n; ++i) p[i] = static_cast<std::byte>(i * 7);
    const auto frame = encode_frame(static_cast<std::uint16_t>(n % 50), p);
    expected.insert(expected.end(), frame.begin(), frame.end());
    payloads.push_back(std::move(p));
  }

  std::vector<std::byte> got;
  std::thread reader([&] {
    std::string serr;
    Socket peer;
    for (int i = 0; i < 5000 && !peer.valid(); ++i) {
      peer = accept_conn(listener, &serr);
      if (!peer.valid()) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    }
    ASSERT_TRUE(peer.valid()) << serr;
    std::vector<std::byte> buf(16 * 1024);
    for (;;) {
      const IoResult r = read_some(peer, buf.data(), buf.size());
      if (!r.ok() || r.eof || r.n == 0) break;
      got.insert(got.end(), buf.begin(),
                 buf.begin() + static_cast<std::ptrdiff_t>(r.n));
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
  });
  std::atomic<bool> done{false};
  const pthread_t writer = pthread_self();
  std::thread pinger([&] {
    while (!done.load(std::memory_order_relaxed)) {
      pthread_kill(writer, SIGUSR1);
      std::this_thread::sleep_for(std::chrono::microseconds(300));
    }
  });
  {
    FrameConn client = FrameConn::connect(
        ep, std::chrono::milliseconds(5000), &err);
    ASSERT_TRUE(client.valid()) << err;
    for (const auto& p : payloads) {
      ASSERT_TRUE(client.write_frame(static_cast<std::uint16_t>(p.size() % 50),
                                     p))
          << client.error();
    }
  }  // closing the client ends the reader's stream
  done.store(true);
  pinger.join();
  reader.join();
  sigaction(SIGUSR1, &old, nullptr);
  EXPECT_TRUE(got == expected) << got.size() << " bytes read, "
                               << expected.size() << " expected";
  ::unlink(ep.path.c_str());
}

TEST(Socket, TcpPortZeroPicksAndConnects) {
  Endpoint ep;
  ep.kind = Endpoint::Kind::kTcp;
  ep.port = 0;
  std::string err;
  Socket listener = listen_endpoint(ep, 4, &err);
  ASSERT_TRUE(listener.valid()) << err;
  ASSERT_NE(ep.port, 0) << "kernel-chosen port must be written back";

  std::thread server([&] {
    std::string serr;
    Socket peer;
    for (int i = 0; i < 5000 && !peer.valid(); ++i) {
      peer = accept_conn(listener, &serr);
      if (!peer.valid()) std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    ASSERT_TRUE(peer.valid()) << serr;
    FrameConn fc(std::move(peer));
    Frame f;
    ASSERT_TRUE(fc.read_frame(f));
    ASSERT_TRUE(fc.write_frame(f.type, f.payload));
  });

  FrameConn client = FrameConn::connect(
      ep, std::chrono::milliseconds(5000), &err);
  ASSERT_TRUE(client.valid()) << err;
  const std::vector<std::byte> p(1000, std::byte{0x5A});
  ASSERT_TRUE(client.write_frame(42, p));
  Frame back;
  ASSERT_TRUE(client.read_frame(back));
  EXPECT_EQ(back.payload, p);
  server.join();
}

TEST(Socket, ConnectRetriesUntilListenerAppears) {
  Endpoint ep;
  ep.kind = Endpoint::Kind::kUnix;
  ep.path = temp_sock_path("late");
  ::unlink(ep.path.c_str());

  Socket listener;
  std::thread late_binder([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(150));
    std::string berr;
    listener = listen_endpoint(ep, 4, &berr);
    ASSERT_TRUE(listener.valid()) << berr;
  });
  std::string err;
  // Starts connecting before the listener exists — the worker-respawn
  // race — and must succeed via backoff.
  Socket c = connect_with_retry(ep, std::chrono::milliseconds(5000), &err);
  EXPECT_TRUE(c.valid()) << err;
  late_binder.join();
  ::unlink(ep.path.c_str());
}

// ---------------------------------------------------------------------------
// EINTR storm: a signal handler installed WITHOUT SA_RESTART makes
// every blocking syscall eligible to fail with EINTR; the io helpers
// must retry transparently.
// ---------------------------------------------------------------------------

TEST(Socket, EintrStormSurvived) {
  struct sigaction sa = {};
  struct sigaction old = {};
  sa.sa_handler = noop_handler;
  sigemptyset(&sa.sa_mask);
  sa.sa_flags = 0;  // deliberately no SA_RESTART
  ASSERT_EQ(sigaction(SIGUSR1, &sa, &old), 0);

  Endpoint ep;
  ep.kind = Endpoint::Kind::kUnix;
  ep.path = temp_sock_path("eintr");
  std::string err;
  Socket listener = listen_endpoint(ep, 4, &err);
  ASSERT_TRUE(listener.valid()) << err;

  std::atomic<bool> done{false};
  pthread_t victim = pthread_self();

  std::thread pinger([&] {
    while (!done.load(std::memory_order_relaxed)) {
      pthread_kill(victim, SIGUSR1);
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  });
  std::thread server([&] {
    std::string serr;
    Socket peer;
    for (int i = 0; i < 5000 && !peer.valid(); ++i) {
      peer = accept_conn(listener, &serr);
      if (!peer.valid()) std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    ASSERT_TRUE(peer.valid()) << serr;
    FrameConn fc(std::move(peer));
    Frame f;
    while (fc.read_frame(f)) {
      ASSERT_TRUE(fc.write_frame(f.type, f.payload));
      if (f.type == 0xFFF) break;
    }
  });

  FrameConn client = FrameConn::connect(
      ep, std::chrono::milliseconds(5000), &err);
  ASSERT_TRUE(client.valid()) << err;
  Xoshiro256 rng(0xE1);
  // Large frames force multi-chunk reads/writes, maximizing the EINTR
  // surface on this (signal-bombed) thread.
  for (int i = 0; i < 60; ++i) {
    const bool last = i == 59;
    std::vector<std::byte> p(64 * 1024 + rng.next_below(128 * 1024));
    for (auto& b : p) b = static_cast<std::byte>(rng.next_below(256));
    ASSERT_TRUE(client.write_frame(last ? 0xFFF : 7, p))
        << client.error();
    Frame back;
    ASSERT_TRUE(client.read_frame(back)) << client.error();
    ASSERT_EQ(back.payload.size(), p.size());
    EXPECT_EQ(back.payload, p);
  }
  done.store(true);
  pinger.join();
  server.join();
  sigaction(SIGUSR1, &old, nullptr);
  ::unlink(ep.path.c_str());
}

// ---------------------------------------------------------------------------
// Nonblocking Connection echo server (the router's stack) driven by a
// blocking client under random frame sizes.
// ---------------------------------------------------------------------------

TEST(Connection, EventLoopEchoSoak) {
  EventLoop loop;
  ASSERT_TRUE(loop.ok());
  Endpoint ep;
  ep.kind = Endpoint::Kind::kUnix;
  ep.path = temp_sock_path("loopecho");
  std::vector<std::unique_ptr<Connection>> conns;
  bool server_saw_clean_close = false;
  Acceptor acceptor(loop, ep, [&](Socket peer) {
    auto conn = std::make_unique<Connection>(loop, std::move(peer),
                                             Connection::Options{});
    Connection* raw = conn.get();
    conns.push_back(std::move(conn));
    raw->start([raw](Frame& f) { raw->send(f.type, f.payload); },
               [&server_saw_clean_close](const std::string&, bool clean) {
                 server_saw_clean_close = clean;
               });
  });
  ASSERT_TRUE(acceptor.ok()) << acceptor.error();

  constexpr int kFrames = 500;
  std::atomic<bool> client_ok{true};
  std::thread client([&] {
    std::string err;
    FrameConn fc = FrameConn::connect(ep, std::chrono::milliseconds(5000),
                                      &err);
    if (!fc.valid()) {
      client_ok = false;
      return;
    }
    Xoshiro256 rng(0xC0FFEE);
    for (int i = 0; i < kFrames; ++i) {
      std::vector<std::byte> p(rng.next_below(4096));
      for (auto& b : p) b = static_cast<std::byte>(rng.next_below(256));
      if (!fc.write_frame(static_cast<std::uint16_t>(i % 9), p)) {
        client_ok = false;
        return;
      }
      Frame back;
      if (!fc.read_frame(back) || back.payload != p) {
        client_ok = false;
        return;
      }
    }
    // Close at a frame boundary: the server must see clean == true.
  });

  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (!server_saw_clean_close &&
         std::chrono::steady_clock::now() < deadline) {
    loop.run_once(std::chrono::milliseconds(5));
  }
  client.join();
  EXPECT_TRUE(client_ok.load());
  EXPECT_TRUE(server_saw_clean_close);
  ::unlink(ep.path.c_str());
}

TEST(Connection, TornFrameCloseIsNotClean) {
  EventLoop loop;
  ASSERT_TRUE(loop.ok());
  Endpoint ep;
  ep.kind = Endpoint::Kind::kUnix;
  ep.path = temp_sock_path("torn");
  std::vector<std::unique_ptr<Connection>> conns;
  std::atomic<int> closes{0};
  bool close_was_clean = true;
  Acceptor acceptor(loop, ep, [&](Socket peer) {
    auto conn = std::make_unique<Connection>(loop, std::move(peer),
                                             Connection::Options{});
    Connection* raw = conn.get();
    conns.push_back(std::move(conn));
    raw->start([](Frame&) {},
               [&](const std::string&, bool clean) {
                 close_was_clean = clean;
                 closes.fetch_add(1);
               });
  });
  ASSERT_TRUE(acceptor.ok()) << acceptor.error();

  std::thread client([&] {
    std::string err;
    Socket s = connect_with_retry(ep, std::chrono::milliseconds(5000), &err);
    ASSERT_TRUE(s.valid()) << err;
    const auto buf = encode_frame(1, std::vector<std::byte>(100));
    // Half a frame, then vanish — the SIGKILL-mid-write shape.
    ASSERT_TRUE(send_all(s, buf.data(), buf.size() / 2));
  });
  client.join();

  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (closes.load() == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    loop.run_once(std::chrono::milliseconds(5));
  }
  ASSERT_EQ(closes.load(), 1);
  EXPECT_FALSE(close_was_clean);
  ::unlink(ep.path.c_str());
}

}  // namespace
}  // namespace fastjoin::net
