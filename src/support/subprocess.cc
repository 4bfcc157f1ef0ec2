#include "support/subprocess.hh"

#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>

#include <elf.h>
#include <fcntl.h>
#include <link.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

namespace codecomp {

namespace {

using Clock = std::chrono::steady_clock;

double
millisSince(Clock::time_point start)
{
    return std::chrono::duration<double, std::milli>(Clock::now() - start)
        .count();
}

/** dup2 an opened-for-append file over @p fd; called between fork and
 *  exec, so only async-signal-safe calls. Returns false on failure. */
bool
redirectFd(const char *path, int fd)
{
    int file = ::open(path, O_WRONLY | O_CREAT | O_APPEND, 0644);
    if (file < 0)
        return false;
    bool ok = ::dup2(file, fd) >= 0;
    ::close(file);
    return ok;
}

/** dl_iterate_phdr callback: copy the GNU build-id note of the first
 *  object reported, which is the executable, into *out, and stop. */
int
copyBuildId(dl_phdr_info *info, size_t, void *out)
{
    auto &id = *static_cast<std::vector<uint8_t> *>(out);
    for (ElfW(Half) i = 0; i < info->dlpi_phnum && id.empty(); ++i) {
        const ElfW(Phdr) &phdr = info->dlpi_phdr[i];
        if (phdr.p_type != PT_NOTE)
            continue;
        size_t align = phdr.p_align == 8 ? 8 : 4;
        auto pad = [align](size_t n) {
            return (n + align - 1) & ~(align - 1);
        };
        const auto *at =
            reinterpret_cast<const uint8_t *>(info->dlpi_addr + phdr.p_vaddr);
        const uint8_t *end = at + phdr.p_memsz;
        while (end - at >= static_cast<ptrdiff_t>(sizeof(ElfW(Nhdr)))) {
            const auto *note = reinterpret_cast<const ElfW(Nhdr) *>(at);
            const uint8_t *name = at + sizeof(ElfW(Nhdr));
            const uint8_t *desc = name + pad(note->n_namesz);
            at = desc + pad(note->n_descsz);
            if (at > end)
                break;
            if (note->n_type == NT_GNU_BUILD_ID && note->n_namesz == 4 &&
                std::memcmp(name, "GNU", 4) == 0) {
                id.assign(desc, desc + note->n_descsz);
                break;
            }
        }
    }
    return 1;
}

} // namespace

const char *
subprocessOutcomeName(SubprocessResult::Outcome outcome)
{
    switch (outcome) {
      case SubprocessResult::Outcome::Exited:
        return "exited";
      case SubprocessResult::Outcome::Signaled:
        return "signaled";
      case SubprocessResult::Outcome::TimedOut:
        return "timed_out";
      case SubprocessResult::Outcome::SpawnFailed:
        return "spawn_failed";
    }
    return "?";
}

SubprocessResult
runSubprocess(const std::vector<std::string> &argv,
              const SubprocessOptions &options)
{
    SubprocessResult result;
    Clock::time_point start = Clock::now();
    if (argv.empty()) {
        result.error = "empty argv";
        return result;
    }

    std::vector<char *> args;
    args.reserve(argv.size() + 1);
    for (const std::string &arg : argv)
        args.push_back(const_cast<char *>(arg.c_str()));
    args.push_back(nullptr);

    pid_t parent = ::getpid();
    pid_t pid = ::fork();
    if (pid < 0) {
        result.error = std::strerror(errno);
        return result;
    }
    if (pid == 0) {
        // Child: lead a process group of its own, so the deadline
        // kills whatever it forks too. Outside the terminal's group it
        // misses a Ctrl-C, so it dies with the parent instead (checked
        // once more in case the parent died before the prctl). Then
        // redirect, exec, and on any failure exit with a code the
        // parent cannot confuse with the tool exit contract (0-3).
        ::setpgid(0, 0);
        if (::prctl(PR_SET_PDEATHSIG, SIGKILL) != 0 ||
            ::getppid() != parent)
            ::_exit(127);
        if (!options.stderrPath.empty() &&
            !redirectFd(options.stderrPath.c_str(), STDERR_FILENO))
            ::_exit(127);
        ::execv(args[0], args.data());
        ::_exit(127);
    }
    // Also from this side, so the group exists before any deadline
    // (fails harmlessly once the child has exec'd).
    ::setpgid(pid, pid);

    // Parent: poll for exit; past the deadline, SIGKILL the child's
    // process group and reap the child. The poll interval is short
    // enough that deadline overshoot is noise next to the
    // multi-millisecond jobs the farm runs.
    int status = 0;
    bool killed = false;
    for (;;) {
        pid_t waited = ::waitpid(pid, &status, WNOHANG);
        if (waited == pid)
            break;
        if (waited < 0 && errno != EINTR) {
            result.error = std::strerror(errno);
            return result;
        }
        if (!killed && options.timeoutMs > 0 &&
            millisSince(start) >= static_cast<double>(options.timeoutMs)) {
            ::kill(-pid, SIGKILL);
            killed = true;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }

    result.millis = millisSince(start);
    if (killed) {
        result.outcome = SubprocessResult::Outcome::TimedOut;
    } else if (WIFSIGNALED(status)) {
        result.outcome = SubprocessResult::Outcome::Signaled;
        result.signal = WTERMSIG(status);
    } else {
        result.outcome = SubprocessResult::Outcome::Exited;
        result.exitCode = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
    }
    return result;
}

std::string
selfExecutablePath()
{
    char buf[4096];
    ssize_t len = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
    if (len <= 0)
        return "";
    buf[len] = '\0';
    return buf;
}

const std::vector<uint8_t> &
selfBuildId()
{
    static const std::vector<uint8_t> id = [] {
        std::vector<uint8_t> found;
        ::dl_iterate_phdr(copyBuildId, &found);
        return found;
    }();
    return id;
}

} // namespace codecomp
