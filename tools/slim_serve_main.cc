// slim_serve: incremental linkage daemon and line-protocol client.
//
// Daemon (default):
//   slim_serve --socket /tmp/slim.sock
//              [--spatial_level N] [--window_minutes M] [--b_param X]
//              [--max_speed_kmh S] [--candidates lsh|brute|grid]
//              [--lsh_level N] [--lsh_step N] [--lsh_threshold T]
//              [--lsh_buckets N] [--matcher greedy|hungarian]
//              [--threshold gmm|otsu|two_means|none] [--threads N]
//   Serves the slim-serve-v1 protocol (docs/SERVING.md) on a Unix-domain
//   socket until SHUTDOWN or SIGINT/SIGTERM. Epoch link sets are
//   bit-identical to a from-scratch slim_link --min_records 0 run over
//   the union of all ingested records.
//
// Client:
//   slim_serve --connect /tmp/slim.sock [--listen]
//   Prints the handshake, then sends each stdin line as one request and
//   prints its reply. Exits 3 as soon as a reply is "ERR ...", and 2 when
//   it cannot connect or the server hangs up before a reply. With
//   --listen, stays connected after stdin is exhausted and prints pushed
//   EVENT lines until the server closes the connection.
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <string>

#include "common/build_info.h"
#include "flags.h"
#include "linkage_flags.h"
#include "serve/server.h"
#include "slim.h"

namespace {

std::atomic<bool> g_stop{false};

void HandleStopSignal(int) { g_stop.store(true); }

void Usage() {
  std::fprintf(
      stderr,
      "usage: slim_serve --socket PATH [pipeline options]   (daemon)\n"
      "       slim_serve --connect PATH [--listen]          (client)\n"
      "daemon options:\n"
      "  --socket PATH         Unix-domain socket to listen on\n"
      "  --spatial_level N     history leaf cell level (default 12)\n"
      "  --window_minutes M    leaf window width (default 15)\n"
      "  --b_param X           length-normalisation strength (default 0.5)\n"
      "  --max_speed_kmh S     alibi speed limit (default 120)\n"
      "  --candidates KIND     lsh|brute|grid (default lsh)\n"
      "  --lsh_level N         signature spatial level (default 10)\n"
      "  --lsh_step N          query step in leaf windows (default 8)\n"
      "  --lsh_threshold T     candidate similarity threshold (default 0.5)\n"
      "  --lsh_buckets N       buckets per band (default 4096)\n"
      "  --matcher KIND        greedy|hungarian (default greedy)\n"
      "  --threshold KIND      gmm|otsu|two_means|none (default gmm)\n"
      "  --threads N           worker threads per epoch (default: env/hw)\n"
      "client options:\n"
      "  --connect PATH        send stdin lines to a running daemon; exit\n"
      "                        2 if it cannot connect or the daemon hangs\n"
      "                        up before a reply, 3 on an ERR reply\n"
      "  --listen              after stdin, print EVENT lines until the\n"
      "                        server closes the connection\n"
      "  --version             print the build/version string and exit\n");
}

/// Connects, relays stdin as requests, prints every server line. Exit
/// codes: 0 clean, 2 connect failure or the server hung up before a
/// reply, 3 the server answered ERR.
int RunClient(const std::string& path, bool listen_after) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) {
    std::fprintf(stderr, "error: socket path too long: %s\n", path.c_str());
    return 2;
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) {
    std::fprintf(stderr, "error: socket(): %s\n", std::strerror(errno));
    return 2;
  }
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    std::fprintf(stderr, "error: connect(%s): %s\n", path.c_str(),
                 std::strerror(errno));
    ::close(fd);
    return 2;
  }

  std::string buffer;
  // Pulls one '\n'-terminated line out of the socket. Returns false on EOF.
  const auto read_line = [&](std::string* line) {
    size_t newline;
    while ((newline = buffer.find('\n')) == std::string::npos) {
      char chunk[4096];
      const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return false;
      buffer.append(chunk, static_cast<size_t>(n));
    }
    line->assign(buffer, 0, newline);
    buffer.erase(0, newline + 1);
    return true;
  };
  const auto send_line = [&](const std::string& line) {
    std::string framed = line + "\n";
    size_t off = 0;
    while (off < framed.size()) {
      const ssize_t n = ::send(fd, framed.data() + off, framed.size() - off,
                               MSG_NOSIGNAL);
      if (n < 0 && errno == EINTR) continue;
      if (n < 0) return false;
      off += static_cast<size_t>(n);
    }
    return true;
  };

  int rc = 0;
  std::string line;
  if (read_line(&line)) {
    std::printf("%s\n", line.c_str());  // HELLO handshake
  } else {
    std::fprintf(stderr, "error: no handshake from %s\n", path.c_str());
    ::close(fd);
    return 2;
  }

  std::string request;
  char* lineptr = nullptr;
  size_t cap = 0;
  ssize_t len;
  while (rc == 0 && (len = ::getline(&lineptr, &cap, stdin)) >= 0) {
    request.assign(lineptr, static_cast<size_t>(len));
    while (!request.empty() &&
           (request.back() == '\n' || request.back() == '\r')) {
      request.pop_back();
    }
    if (request.empty()) continue;
    if (!send_line(request)) {
      std::fprintf(stderr, "error: server closed the connection\n");
      rc = 2;
      break;
    }
    // EVENT lines from this client's own SUBSCRIBE may precede the
    // reply; print them in arrival order, the reply ends the exchange.
    bool replied = false;
    while (!replied && read_line(&line)) {
      std::printf("%s\n", line.c_str());
      if (line.rfind("EVENT ", 0) == 0) continue;
      if (line.rfind("ERR ", 0) == 0) rc = 3;
      replied = true;
    }
    if (!replied) {
      std::fprintf(stderr, "error: server closed the connection\n");
      rc = 2;
    }
  }
  std::free(lineptr);

  if (rc == 0 && listen_after) {
    while (read_line(&line)) std::printf("%s\n", line.c_str());
  }
  std::fflush(stdout);
  ::close(fd);
  return rc;
}

}  // namespace

int main(int argc, char** argv) {
  slim::tools::Flags flags(argc, argv);
  if (flags.GetBool("version", false)) {
    std::printf("%s\n", slim::BuildVersionString());
    return 0;
  }
  if (flags.GetBool("help", false)) {
    Usage();
    return 0;
  }

  const std::string connect_path = flags.GetString("connect", "");
  if (!connect_path.empty()) {
    return RunClient(connect_path, flags.GetBool("listen", false));
  }

  const std::string socket_path = flags.GetString("socket", "");
  if (socket_path.empty()) {
    Usage();
    return 2;
  }

  // The linkage flags and defaults slim_link uses, so a daemon session
  // and a from-scratch batch run agree byte for byte (docs/SERVING.md).
  const slim::SlimConfig config = slim::tools::ParseLinkageFlags(flags);
  const slim::Status valid = slim::ValidateSlimConfig(config);
  if (!valid.ok()) slim::tools::Flags::Fail(valid.ToString());

  std::signal(SIGINT, HandleStopSignal);
  std::signal(SIGTERM, HandleStopSignal);

  slim::LinkageService service(config);
  slim::ServeOptions options;
  options.socket_path = socket_path;
  std::fprintf(stderr, "slim_serve %s listening on %s\n",
               slim::BuildGitDescribe(), socket_path.c_str());
  const slim::Status st = slim::RunServer(options, &service, &g_stop);
  if (!st.ok()) slim::tools::Flags::Fail(st.ToString());
  std::fprintf(stderr, "slim_serve: clean shutdown after epoch %d\n",
               service.linker().epoch());
  return 0;
}
