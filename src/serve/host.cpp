#include "serve/host.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <iterator>
#include <stdexcept>
#include <system_error>
#include <thread>

#include "serve/dispatch.h"
#include "serve/protocol.h"

namespace clockmark::serve {

namespace {

void close_quietly(int fd) {
  if (fd >= 0) ::close(fd);
}

}  // namespace

ServiceHost::ServiceHost(DetectionService& service, HostConfig config)
    : service_(service) {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    throw std::runtime_error(std::string("ServiceHost: socket: ") +
                             std::strerror(errno));
  }
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(config.port);
  if (::inet_pton(AF_INET, config.bind_address.c_str(), &addr.sin_addr) != 1) {
    close_quietly(listen_fd_);
    throw std::runtime_error("ServiceHost: bad bind address " +
                             config.bind_address);
  }
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0 ||
      ::listen(listen_fd_, config.backlog) != 0) {
    const std::string why = std::strerror(errno);
    close_quietly(listen_fd_);
    throw std::runtime_error("ServiceHost: bind/listen on " +
                             config.bind_address + ":" +
                             std::to_string(config.port) + ": " + why);
  }
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len) !=
      0) {
    const std::string why = std::strerror(errno);
    close_quietly(listen_fd_);
    throw std::runtime_error("ServiceHost: getsockname: " + why);
  }
  port_ = ntohs(bound.sin_port);
  accept_thread_ = std::thread([this] { accept_loop(); });
}

ServiceHost::~ServiceHost() { stop(); }

void ServiceHost::accept_loop() {
  for (;;) {
    reap_finished();
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR || errno == ECONNABORTED) continue;
      if (errno == EMFILE || errno == ENFILE || errno == ENOBUFS ||
          errno == ENOMEM) {
        // Out of descriptors or buffers: the connection stays queued in
        // the backlog. Back off and retry once clients have gone away
        // (stop() shuts the listener down, which ends the loop below).
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
        continue;
      }
      return;  // listener closed by stop()
    }
    const std::lock_guard<std::mutex> lock(mu_);
    if (stopped_) {
      close_quietly(fd);
      return;
    }
    Connection& connection = connections_.emplace_back();
    connection.fd = fd;
    try {
      connection.thread =
          std::thread([this, &connection] { serve_connection(connection); });
    } catch (const std::system_error&) {
      // Out of threads: turn this client away and keep accepting.
      close_quietly(fd);
      connections_.pop_back();
    }
  }
}

void ServiceHost::reap_finished() {
  std::list<Connection> finished;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    for (auto it = connections_.begin(); it != connections_.end();) {
      const auto next = std::next(it);
      if (it->done) finished.splice(finished.end(), connections_, it);
      it = next;
    }
  }
  for (Connection& connection : finished) connection.thread.join();
}

void ServiceHost::serve_connection(Connection& connection) {
  const int fd = connection.fd;
  Dispatcher dispatcher(service_);
  try {
    while (std::optional<Frame> request = read_frame(fd)) {
      const Frame response = dispatcher.handle(*request);
      write_frame(fd, response);
      if (request->type == MsgType::kShutdown) {
        request_shutdown();
        break;
      }
    }
  } catch (const std::exception&) {
    // Torn frame or dead peer: drop the connection. The protocol has no
    // recovery point inside a frame, and per-connection state dies with
    // the Dispatcher.
  }
  // Close under the lock: stop() shuts live sockets down under it too,
  // so it never touches a descriptor number after it was released.
  const std::lock_guard<std::mutex> lock(mu_);
  close_quietly(fd);
  connection.fd = -1;
  connection.done = true;
}

void ServiceHost::request_shutdown() {
  {
    const std::lock_guard<std::mutex> lock(mu_);
    shutdown_requested_ = true;
  }
  shutdown_cv_.notify_all();
}

void ServiceHost::wait_for_shutdown() {
  std::unique_lock<std::mutex> lock(mu_);
  shutdown_cv_.wait(lock, [&] { return shutdown_requested_ || stopped_; });
}

void ServiceHost::stop() {
  std::list<Connection> connections;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    if (stopped_) return;
    stopped_ = true;
    shutdown_requested_ = true;
  }
  shutdown_cv_.notify_all();
  // Unblock accept() and join the accept thread first, so no connection
  // is added or reaped behind our back; then unblock every blocked read
  // and join the rest. Each connection closes its own socket on exit.
  ::shutdown(listen_fd_, SHUT_RDWR);
  if (accept_thread_.joinable()) accept_thread_.join();
  {
    const std::lock_guard<std::mutex> lock(mu_);
    connections.swap(connections_);
    for (const Connection& connection : connections) {
      if (connection.fd >= 0) ::shutdown(connection.fd, SHUT_RDWR);
    }
  }
  for (Connection& connection : connections) connection.thread.join();
  close_quietly(listen_fd_);
  listen_fd_ = -1;
}

}  // namespace clockmark::serve
