//! Process CPU clocks, host steal and peak memory, read from the kernel.
//!
//! CPU time comes from `clock_gettime` (nanosecond resolution), not from
//! the tick-granular `/proc/self/stat`. Steal comes from the aggregate
//! `cpu` line of `/proc/stat`: the share of all CPU time the hypervisor
//! gave to other guests while a phase ran.

use std::os::raw::c_int;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: c_int, tp: *mut Timespec) -> c_int;
}

const CLOCK_PROCESS_CPUTIME_ID: c_int = 2;
const CLOCK_THREAD_CPUTIME_ID: c_int = 3;

fn clock_ns(clock: c_int) -> u64 {
    let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `ts` is a valid, writable `timespec` (two `i64`s on the
    // 64-bit Linux targets this benchmark builds for) that outlives the
    // call, and both clock ids are defined by POSIX.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock}) failed");
    (ts.tv_sec as u64) * 1_000_000_000 + ts.tv_nsec as u64
}

/// CPU time consumed so far by every thread of this process, in ns.
#[must_use]
pub fn process_cpu_ns() -> u64 {
    clock_ns(CLOCK_PROCESS_CPUTIME_ID)
}

/// CPU time consumed so far by the calling thread, in ns.
#[must_use]
pub fn thread_cpu_ns() -> u64 {
    clock_ns(CLOCK_THREAD_CPUTIME_ID)
}

/// Aggregate CPU tick counters of the machine (`/proc/stat`, first line).
#[derive(Clone, Copy, Debug, Default)]
pub struct CpuTicks {
    /// Ticks stolen by the hypervisor.
    pub steal: u64,
    /// All ticks, steal included.
    pub total: u64,
}

impl CpuTicks {
    /// Reads the counters now; zeros when `/proc/stat` is unavailable.
    #[must_use]
    pub fn now() -> Self {
        let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
        let Some(line) = stat.lines().next().filter(|l| l.starts_with("cpu ")) else {
            return Self::default();
        };
        let fields: Vec<u64> =
            line.split_whitespace().skip(1).filter_map(|f| f.parse().ok()).collect();
        // user nice system idle iowait irq softirq steal guest guest_nice;
        // guest time is already included in user/nice.
        let total = fields.iter().take(8).sum();
        Self { steal: fields.get(7).copied().unwrap_or(0), total }
    }

    /// Ticks elapsed since `earlier`.
    #[must_use]
    pub fn since(self, earlier: Self) -> Self {
        Self {
            steal: self.steal.saturating_sub(earlier.steal),
            total: self.total.saturating_sub(earlier.total),
        }
    }

    /// Accumulates another interval.
    pub fn add(&mut self, other: Self) {
        self.steal += other.steal;
        self.total += other.total;
    }

    /// Steal as a percentage of all CPU time in the interval.
    #[must_use]
    pub fn steal_pct(self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            100.0 * self.steal as f64 / self.total as f64
        }
    }
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
#[must_use]
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Wall time, process CPU and steal across one measured phase.
pub struct Meter {
    wall: std::time::Instant,
    cpu: u64,
    ticks: CpuTicks,
}

/// What a [`Meter`] measured.
#[derive(Clone, Copy, Debug, Default)]
pub struct Measured {
    /// Wall-clock seconds.
    pub wall_s: f64,
    /// Process CPU seconds (all threads).
    pub cpu_s: f64,
    /// Machine tick counters over the phase.
    pub ticks: CpuTicks,
}

impl Measured {
    /// Wall seconds net of host steal: the wall time less the share of
    /// the machine's CPU time the hypervisor gave other guests over the
    /// interval. On a host that steals in bursts lasting minutes, this is
    /// what repeats from run to run; the raw wall time is the user's view.
    #[must_use]
    pub fn net_s(&self) -> f64 {
        self.wall_s * (1.0 - self.ticks.steal_pct() / 100.0)
    }
}

impl Meter {
    /// Starts measuring.
    #[must_use]
    pub fn start() -> Self {
        Self { ticks: CpuTicks::now(), cpu: process_cpu_ns(), wall: std::time::Instant::now() }
    }

    /// Stops measuring.
    #[must_use]
    pub fn stop(self) -> Measured {
        let wall_s = self.wall.elapsed().as_secs_f64();
        let cpu_s = (process_cpu_ns() - self.cpu) as f64 * 1e-9;
        Measured { wall_s, cpu_s, ticks: CpuTicks::now().since(self.ticks) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_clocks_advance_with_work() {
        let (p0, t0) = (process_cpu_ns(), thread_cpu_ns());
        let mut x = 0u64;
        for i in 0..2_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        assert!(process_cpu_ns() > p0 && thread_cpu_ns() > t0, "{x}");
    }

    #[test]
    fn net_time_drops_the_stolen_share() {
        let ticks = CpuTicks { steal: 25, total: 100 };
        let m = Measured { wall_s: 2.0, cpu_s: 1.0, ticks };
        assert_eq!(m.net_s(), 1.5);
        assert_eq!(Measured { ticks: CpuTicks::default(), ..m }.net_s(), 2.0);
    }

    #[test]
    fn proc_readers_parse() {
        assert!(peak_rss_mb() > 0.0);
        assert!(CpuTicks::now().total > 0);
    }
}
