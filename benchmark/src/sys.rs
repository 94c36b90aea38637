//! The two things the benchmark needs from Linux that `std` does not
//! offer: waiting on a socket with a sub-millisecond timeout, and a
//! process's CPU time (its own clock) and peak memory (`/proc`).

use std::ffi::{c_int, c_long, c_short, c_ulong, c_void};
use std::io;
use std::os::fd::RawFd;
use std::time::Duration;

#[repr(C)]
struct PollFd {
    fd: c_int,
    events: c_short,
    revents: c_short,
}

#[repr(C)]
struct Timespec {
    tv_sec: c_long,
    tv_nsec: c_long,
}

const POLLIN: c_short = 0x001;
const POLLOUT: c_short = 0x004;

extern "C" {
    // `ppoll(2)`: unlike a socket read timeout (rounded to scheduler
    // ticks) its timeout is a high-resolution timer, which is what lets
    // two generator threads hold an open-loop schedule to tens of
    // microseconds without spinning on a 2-core box.
    fn ppoll(
        fds: *mut PollFd,
        nfds: c_ulong,
        timeout: *const Timespec,
        sigmask: *const c_void,
    ) -> c_int;
    fn clock_gettime(clock: c_int, ts: *mut Timespec) -> c_int;
    fn setpriority(which: c_int, who: c_int, prio: c_int) -> c_int;
}

/// Raise the calling **thread's** scheduling priority (on Linux a nice
/// value is per thread, and `who` 0 means the caller). The generator
/// threads sleep almost all the time; what they need is to run at once
/// when a request falls due, even while the server has both cores busy.
/// Returns whether it worked: it needs privilege, and without it the
/// run goes on and the reported lateness says what it cost.
pub fn prefer_this_thread() -> bool {
    const PRIO_PROCESS: c_int = 0;
    // SAFETY: plain integer arguments; no memory is passed.
    unsafe { setpriority(PRIO_PROCESS, 0, -15) == 0 }
}

/// Block until `fd` is readable (or writable, if `want_write`), has an
/// error or hang-up for the next read to report, or `timeout` passes.
pub fn wait_ready(fd: RawFd, want_write: bool, timeout: Duration) -> io::Result<()> {
    let mut pfd = PollFd {
        fd,
        events: POLLIN | if want_write { POLLOUT } else { 0 },
        revents: 0,
    };
    let ts = Timespec {
        tv_sec: c_long::try_from(timeout.as_secs()).unwrap_or(c_long::MAX),
        tv_nsec: c_long::from(timeout.subsec_nanos()),
    };
    // SAFETY: `pfd` and `ts` are live, properly initialised `repr(C)`
    // values matching the C layouts of `struct pollfd` and `struct
    // timespec`; `nfds` is 1, the number of entries behind `fds`; a null
    // signal mask is allowed and leaves the mask unchanged.
    let rc = unsafe { ppoll(&mut pfd, 1, &ts, std::ptr::null()) };
    if rc < 0 {
        let e = io::Error::last_os_error();
        if e.kind() != io::ErrorKind::Interrupted {
            return Err(e);
        }
    }
    Ok(())
}

/// `CLOCK_PROCESS_CPUTIME_ID` on Linux.
const CLOCK_PROCESS_CPUTIME_ID: c_int = 2;

/// User + system CPU seconds the **calling** process has used so far,
/// over all its threads including ones that have exited, to the
/// nanosecond. (`/proc/<pid>/stat` carries the same total in 10 ms
/// ticks, which is a tenth of what `echo_small` burns in a window; so
/// the server child reads its own clock and reports it when asked.)
pub fn process_cpu_seconds() -> io::Result<f64> {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live `repr(C)` value with `struct timespec`'s
    // layout, and the clock id is a constant the kernel defines.
    if unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) } != 0 {
        return Err(io::Error::last_os_error());
    }
    Ok(ts.tv_sec as f64 + ts.tv_nsec as f64 / 1e9)
}

/// Peak resident set (`VmHWM`) of a live process, in MiB.
pub fn peak_rss_mb(pid: u32) -> io::Result<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status"))?;
    parse_vm_hwm_kb(&status)
        .map(|kb| kb as f64 / 1024.0)
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "no VmHWM in /proc status"))
}

fn parse_vm_hwm_kb(status: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .split_ascii_whitespace()
        .next()?
        .parse()
        .ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_vm_hwm() {
        let status = "Name:\tx\nVmPeak:\t  999 kB\nVmHWM:\t   20480 kB\nVmRSS:\t 1 kB\n";
        assert_eq!(parse_vm_hwm_kb(status), Some(20480));
        assert_eq!(parse_vm_hwm_kb("Name:\tx\n"), None);
    }

    #[test]
    fn reads_this_process() {
        let before = process_cpu_seconds().unwrap();
        let mut x = 1u64;
        for i in 0..2_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(i | 1));
        }
        assert!(process_cpu_seconds().unwrap() > before, "burning CPU shows");
        assert!(peak_rss_mb(std::process::id()).unwrap() > 0.0);
    }

    #[test]
    fn wait_times_out_on_a_quiet_socket() {
        use std::os::fd::AsRawFd;
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let client = std::net::TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (_server, _) = listener.accept().unwrap();
        let t0 = std::time::Instant::now();
        wait_ready(client.as_raw_fd(), false, Duration::from_micros(500)).unwrap();
        assert!(
            t0.elapsed() >= Duration::from_micros(500),
            "nothing to read"
        );
        let t0 = std::time::Instant::now();
        wait_ready(client.as_raw_fd(), true, Duration::from_secs(5)).unwrap();
        assert!(
            t0.elapsed() < Duration::from_secs(1),
            "an idle connection is writable at once"
        );
    }
}
