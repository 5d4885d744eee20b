//! Host-side measurements: process on-CPU time, peak resident memory and
//! machine-wide CPU steal. All of them read the kernel's own accounting,
//! so they cost a system call or a small `/proc` read each.

use std::os::raw::{c_int, c_long};

/// `struct timeval` as Linux lays it out on 64-bit targets.
#[repr(C)]
#[derive(Default)]
struct Timeval {
    sec: c_long,
    usec: c_long,
}

/// `struct rusage`: the two CPU times, then fourteen `long` counters
/// this module does not read.
#[repr(C)]
#[derive(Default)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    counters: [c_long; 14],
}

const RUSAGE_SELF: c_int = 0;

/// glibc's `mallopt` parameter for the size from which allocations are
/// mapped directly rather than carved from the heap.
const M_MMAP_THRESHOLD: c_int = -3;

extern "C" {
    fn getrusage(who: c_int, usage: *mut Rusage) -> c_int;
    fn mallopt(param: c_int, value: c_int) -> c_int;
}

/// Makes the allocator map every block of 4 MiB or more (the emulator's
/// 16 MiB memories) fresh from the kernel and unmap it when freed.
///
/// By default glibc raises that threshold after the first such block is
/// freed, so later simulations reuse heap blocks that stay resident and
/// must be zeroed in full: peak memory then depends on the order earlier
/// cells freed their blocks, and differs between seeds by whole 16 MiB
/// blocks. With a fixed threshold every cell starts from untouched
/// pages, as a simulation in a fresh process does, and the peak is the
/// largest demand of any one cell.
///
/// # Panics
///
/// Panics if `mallopt` rejects the setting.
pub fn map_large_allocations_fresh() {
    // SAFETY: `mallopt` only adjusts allocator tuning; it is called
    // before the benchmark starts any thread.
    let ok = unsafe { mallopt(M_MMAP_THRESHOLD, 4 << 20) };
    assert_eq!(ok, 1, "mallopt(M_MMAP_THRESHOLD) failed");
}

/// On-CPU time of the whole process (every thread), split into user
/// and system time, in seconds.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct CpuTime {
    /// User-mode seconds.
    pub user: f64,
    /// Kernel-mode seconds spent on the process's behalf.
    pub sys: f64,
}

impl CpuTime {
    /// The process's CPU time so far.
    ///
    /// # Panics
    ///
    /// Panics if `getrusage` fails, which it cannot for `RUSAGE_SELF`
    /// with a valid buffer.
    pub fn now() -> Self {
        let mut usage = Rusage::default();
        // SAFETY: `usage` is a live, writable `struct rusage` with the
        // kernel's layout, and `RUSAGE_SELF` is a valid `who`.
        let rc = unsafe { getrusage(RUSAGE_SELF, &mut usage) };
        assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) failed");
        let secs = |t: &Timeval| t.sec as f64 + t.usec as f64 * 1e-6;
        Self {
            user: secs(&usage.utime),
            sys: secs(&usage.stime),
        }
    }

    /// User plus system seconds.
    pub fn total(self) -> f64 {
        self.user + self.sys
    }

    /// The CPU time spent since `earlier`.
    pub fn since(self, earlier: CpuTime) -> CpuTime {
        CpuTime {
            user: self.user - earlier.user,
            sys: self.sys - earlier.sys,
        }
    }
}

/// Runs `f` and returns its result with the process CPU seconds it took.
pub fn cpu_timed<T>(f: impl FnOnce() -> T) -> (T, CpuTime) {
    let start = CpuTime::now();
    let out = f();
    (out, CpuTime::now().since(start))
}

/// Peak resident set size of this process (`VmHWM`), in MiB, or `None`
/// when `/proc/self/status` is unavailable.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Machine-wide CPU tick counters from the aggregate `cpu` line of
/// `/proc/stat`.
#[derive(Clone, Copy, Debug, Default)]
pub struct CpuTicks {
    /// Ticks in every state (user through steal).
    pub total: u64,
    /// Ticks the hypervisor ran something else while a vCPU wanted to run.
    pub steal: u64,
}

impl CpuTicks {
    /// Reads the counters, or `None` when `/proc/stat` is unavailable.
    pub fn now() -> Option<Self> {
        let stat = std::fs::read_to_string("/proc/stat").ok()?;
        let fields: Vec<u64> = stat
            .lines()
            .next()?
            .split_whitespace()
            .skip(1)
            .take(8)
            .map(|f| f.parse().ok())
            .collect::<Option<_>>()?;
        Some(Self {
            total: fields.iter().sum(),
            steal: *fields.get(7)?,
        })
    }

    /// Share of machine CPU time stolen between `earlier` and `self`
    /// (0 when no ticks elapsed).
    pub fn steal_ratio_since(self, earlier: CpuTicks) -> f64 {
        let total = self.total.saturating_sub(earlier.total);
        if total == 0 {
            0.0
        } else {
            self.steal.saturating_sub(earlier.steal) as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_time_grows_with_work() {
        let start = CpuTime::now();
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        std::hint::black_box(x);
        let spent = CpuTime::now().since(start);
        assert!(spent.total() > 0.0);
        assert!(spent.user >= 0.0 && spent.sys >= 0.0);
    }

    #[test]
    fn peak_rss_is_positive() {
        assert!(peak_rss_mb().expect("procfs mounted") > 0.0);
    }
}
