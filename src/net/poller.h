// Thin RAII wrappers over epoll and eventfd for the neutrald event loop.
//
// Poller is level-triggered on purpose: the server's handlers drain as
// much as they choose per wakeup and rely on the next epoll_wait to
// re-report whatever is left, which keeps the per-connection code free of
// the drain-to-EAGAIN discipline edge-triggered epoll would demand.
//
// WakeupFd is the cross-thread doorbell: the executor threads (and
// request_shutdown, from any thread) signals it to pull the loop out of
// epoll_wait — e.g. when a watched submission gains events or completes —
// so the loop never needs a polling timeout just to notice internal state.
#pragma once

#include <vector>

namespace neutral::net {

struct PollEvent {
  int fd = -1;
  bool readable = false;
  bool writable = false;
  bool error = false;  // EPOLLERR / EPOLLHUP: peer gone or socket broken
};

class Poller {
 public:
  Poller();
  ~Poller();
  Poller(const Poller&) = delete;
  Poller& operator=(const Poller&) = delete;

  /// Register `fd` for readiness notification.
  void add(int fd, bool read, bool write);
  /// Change the interest set of an already-registered fd.
  void modify(int fd, bool read, bool write);
  /// Deregister `fd`.  Must be called before the fd is closed.
  void remove(int fd);

  /// Block up to `timeout_ms` (-1 = indefinitely) and fill `out` with the
  /// ready fds.  Returns the number of events (0 on timeout); EINTR is
  /// retried internally.
  std::size_t wait(std::vector<PollEvent>& out, int timeout_ms);

 private:
  int fd_ = -1;
};

class WakeupFd {
 public:
  WakeupFd();
  ~WakeupFd();
  WakeupFd(const WakeupFd&) = delete;
  WakeupFd& operator=(const WakeupFd&) = delete;

  /// Make the poller's next (or current) wait report fd() readable.
  /// Callable from any thread; signals coalesce.
  void signal();
  /// Consume pending signals so the fd stops reporting readable.  Loop
  /// thread only.
  void drain();
  [[nodiscard]] int fd() const { return fd_; }

 private:
  int fd_ = -1;
};

}  // namespace neutral::net
