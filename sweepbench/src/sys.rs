//! Process resource accounting through `getrusage(2)`: CPU seconds of this
//! process and of its waited-for children (the dist workers), and this
//! process's peak resident set from procfs.

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("sweepbench reads CPU time and peak RSS through the 64-bit Linux getrusage ABI");

use std::mem::MaybeUninit;

#[repr(C)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` of the 64-bit Linux ABI: two timevals, then 14 longs.
#[repr(C)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    _rest: [i64; 14],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

const RUSAGE_SELF: i32 = 0;
const RUSAGE_CHILDREN: i32 = -1;

fn usage(who: i32) -> Rusage {
    let mut out = MaybeUninit::<Rusage>::zeroed();
    // SAFETY: `out` points to writable memory laid out as the kernel's
    // `struct rusage` for this target (checked by the cfg above), and `who`
    // is one of the two constants getrusage accepts, so the call writes the
    // whole struct or fails without writing.
    let rc = unsafe { getrusage(who, out.as_mut_ptr()) };
    assert_eq!(rc, 0, "getrusage({who}) failed");
    // SAFETY: zero-initialised and then filled by a successful getrusage;
    // every field is a plain integer, for which any bit pattern is valid.
    unsafe { out.assume_init() }
}

fn cpu_of(u: &Rusage) -> f64 {
    let secs = |t: &Timeval| t.sec as f64 + t.usec as f64 * 1e-6;
    secs(&u.utime) + secs(&u.stime)
}

/// User plus system CPU seconds used so far by every thread of this
/// process and by every child process that has been waited for.
pub fn cpu_seconds() -> f64 {
    cpu_of(&usage(RUSAGE_SELF)) + cpu_of(&usage(RUSAGE_CHILDREN))
}

/// Peak resident memory of this process image so far, in MiB: `VmHWM`
/// from `/proc/self/status`. (`getrusage`'s `ru_maxrss` would also count the
/// image this process was exec'd from, such as a `cargo run` parent.)
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().strip_suffix("kB")?.trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".into())
}
