//! What the host and the process report about themselves through
//! `/proc`: CPU time, hypervisor steal and peak resident memory.

use std::fs;

/// Kernel clock ticks per second for `/proc/*/stat` times (USER_HZ).
const CLK_TCK: f64 = 100.0;

/// `utime + stime` of a `/proc/.../stat` file, in microseconds.
fn stat_cpu_us(path: &str) -> Option<f64> {
    let text = fs::read_to_string(path).ok()?;
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line, so 12 and 13 after ") ".
    let rest = &text[text.rfind(')')? + 2..];
    let mut fields = rest.split_whitespace().skip(11);
    let utime: f64 = fields.next()?.parse().ok()?;
    let stime: f64 = fields.next()?.parse().ok()?;
    Some((utime + stime) / CLK_TCK * 1e6)
}

/// CPU time of the whole process so far (all threads, exited ones
/// included), in microseconds.
pub fn process_cpu_us() -> f64 {
    stat_cpu_us("/proc/self/stat").unwrap_or(0.0)
}

/// CPU time of the calling thread so far, in microseconds.
pub fn thread_cpu_us() -> f64 {
    stat_cpu_us("/proc/thread-self/stat").unwrap_or(0.0)
}

/// Peak resident set (`VmHWM`) of this process, in KiB.
pub fn peak_rss_kib() -> u64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        })
        .unwrap_or(0)
}

/// Aggregate CPU jiffies of the host: `(total, steal)` from the first
/// line of `/proc/stat`.
#[derive(Debug, Clone, Copy, Default)]
pub struct HostCpu {
    total: u64,
    steal: u64,
}

impl HostCpu {
    pub fn now() -> Self {
        let text = fs::read_to_string("/proc/stat").unwrap_or_default();
        let Some(line) = text.lines().next() else {
            return Self::default();
        };
        // user nice system idle iowait irq softirq steal
        let fields: Vec<u64> = line
            .split_whitespace()
            .skip(1)
            .take(8)
            .filter_map(|f| f.parse().ok())
            .collect();
        Self {
            total: fields.iter().sum(),
            steal: fields.get(7).copied().unwrap_or(0),
        }
    }

    /// The share of host CPU time stolen by the hypervisor since
    /// `earlier`.
    pub fn steal_share_since(&self, earlier: &HostCpu) -> f64 {
        let total = self.total.saturating_sub(earlier.total);
        if total == 0 {
            return 0.0;
        }
        self.steal.saturating_sub(earlier.steal) as f64 / total as f64
    }
}

/// Process CPU, host steal and wall time over one timed phase.
#[derive(Debug, Clone, Copy)]
pub struct Usage {
    cpu_us: f64,
    host: HostCpu,
}

impl Usage {
    pub fn start() -> Self {
        Self {
            cpu_us: process_cpu_us(),
            host: HostCpu::now(),
        }
    }

    /// `(process CPU µs, steal share)` since `start`.
    pub fn since_start(&self) -> (f64, f64) {
        (
            process_cpu_us() - self.cpu_us,
            HostCpu::now().steal_share_since(&self.host),
        )
    }
}
