// Blocking-socket TCP front door for the detection service. One accept
// thread, one thread per connection, one Dispatcher per connection —
// plain threads over the same FairQueue backpressure the in-process
// path has, which is all a trusted-LAN verification daemon needs (the
// paper's workflow is an IP vendor submitting traces for verdicts, not
// a public endpoint).
//
// Lifecycle: the constructor binds (port 0 = ephemeral; port() tells
// you what the kernel picked) and starts accepting. A kShutdown frame
// from any client acknowledges, then unblocks wait(); the daemon's main
// thread then calls stop(), which closes the listener and every live
// connection and joins all threads. stop() is also safe to call first
// (Ctrl-C path) and from the destructor.
//
// A connection closes its own socket when its client goes away, and the
// accept thread joins finished connection threads before each accept, so
// a long-running daemon holds descriptors and threads only for live
// clients. When accept() runs out of descriptors (EMFILE/ENFILE) the
// accept thread reaps, backs off briefly and retries instead of giving
// up; the pending connection waits in the listen backlog.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <list>
#include <mutex>
#include <string>
#include <thread>

#include "serve/service.h"

namespace clockmark::serve {

struct HostConfig {
  std::string bind_address = "127.0.0.1";
  std::uint16_t port = 0;  ///< 0 = ephemeral, read back via port()
  int backlog = 16;
};

class ServiceHost {
 public:
  /// Binds and starts the accept loop; throws std::runtime_error when
  /// the socket can't be bound. The service must outlive the host.
  ServiceHost(DetectionService& service, HostConfig config = {});
  ~ServiceHost();

  ServiceHost(const ServiceHost&) = delete;
  ServiceHost& operator=(const ServiceHost&) = delete;

  std::uint16_t port() const noexcept { return port_; }

  /// Blocks until a client sent kShutdown or stop() was called.
  void wait_for_shutdown();

  /// Closes the listener and all connections, joins every thread.
  /// Idempotent. Does NOT shut down the DetectionService — the daemon
  /// decides whether to drain it first.
  void stop();

 private:
  /// One client: its socket (-1 once the connection closed it) and the
  /// thread serving it. List nodes never move, so the thread may hold a
  /// reference to its own entry while others are added and removed.
  struct Connection {
    int fd = -1;
    bool done = false;
    std::thread thread;
  };

  void accept_loop();
  void serve_connection(Connection& connection);
  /// Joins every finished connection thread. Accept thread only.
  void reap_finished();
  void request_shutdown();

  DetectionService& service_;
  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  std::thread accept_thread_;

  std::mutex mu_;
  std::condition_variable shutdown_cv_;
  bool shutdown_requested_ = false;
  bool stopped_ = false;
  std::list<Connection> connections_;
};

}  // namespace clockmark::serve
