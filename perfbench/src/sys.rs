//! Host and process accounting read from `/proc`: CPU time per
//! process, peak resident set, and the host's steal time.

use std::fs;

/// Kernel clock ticks per second of the `/proc/<pid>/stat` CPU fields
/// (`USER_HZ`, 100 on every Linux ABI this benchmark targets).
const USER_HZ: f64 = 100.0;

/// User plus system CPU seconds of process `pid`, its finished threads
/// included.
fn cpu_seconds(pid: u32) -> f64 {
    let stat = fs::read_to_string(format!("/proc/{pid}/stat"))
        .unwrap_or_else(|e| panic!("cannot read /proc/{pid}/stat: {e}"));
    // The command name may hold spaces: fields resume after its ')'.
    let rest = &stat[stat.rfind(')').expect("stat has a comm field") + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // utime and stime are fields 14 and 15 of the full line, that is
    // 12 and 13 counted from the state field.
    let ticks: u64 =
        fields[11].parse::<u64>().expect("utime") + fields[12].parse::<u64>().expect("stime");
    ticks as f64 / USER_HZ
}

/// CPU seconds of the calling thread, to the nanosecond. With one rayon
/// worker all work of an in-process workload runs on the thread that
/// issues it, so this is the whole process's query CPU without the
/// 10 ms granularity of [`cpu_seconds`].
pub fn thread_cpu_seconds() -> f64 {
    let stat = fs::read_to_string("/proc/thread-self/schedstat")
        .expect("read /proc/thread-self/schedstat");
    let ns: u64 = stat
        .split_whitespace()
        .next()
        .and_then(|v| v.parse().ok())
        .expect("on-CPU nanoseconds");
    ns as f64 / 1e9
}

/// CPU seconds of every process in `pids`, summed.
pub fn processes_cpu_seconds(pids: &[u32]) -> f64 {
    pids.iter().map(|&p| cpu_seconds(p)).sum()
}

/// CPUs the host has online, whatever this process may use.
pub fn online_cpus() -> usize {
    fs::read_to_string("/proc/cpuinfo")
        .map(|s| s.lines().filter(|l| l.starts_with("processor")).count())
        .unwrap_or(0)
}

/// The CPUs this process may run on (`Cpus_allowed_list`).
pub fn allowed_cpus() -> String {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))
                .map(|v| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Peak resident set (`VmHWM`) of process `pid`, in KiB.
pub fn peak_rss_kib(pid: u32) -> u64 {
    let status = fs::read_to_string(format!("/proc/{pid}/status"))
        .unwrap_or_else(|e| panic!("cannot read /proc/{pid}/status: {e}"));
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line")
}

/// Host-wide CPU jiffies: `(steal, total)` from the first line of
/// `/proc/stat`.
#[derive(Debug, Clone, Copy)]
pub struct HostCpu {
    steal: u64,
    total: u64,
}

impl HostCpu {
    pub fn now() -> Self {
        let stat = fs::read_to_string("/proc/stat").expect("read /proc/stat");
        let line = stat.lines().next().expect("cpu line");
        let values: Vec<u64> = line
            .split_whitespace()
            .skip(1)
            .map(|v| v.parse().expect("jiffy count"))
            .collect();
        // user nice system idle iowait irq softirq steal [guest...]:
        // guest time is already counted in user.
        let total = values.iter().take(8).sum();
        HostCpu {
            steal: values.get(7).copied().unwrap_or(0),
            total,
        }
    }

    /// Share of host CPU time stolen by the hypervisor since `earlier`.
    pub fn steal_since(&self, earlier: &HostCpu) -> f64 {
        let total = self.total.saturating_sub(earlier.total);
        if total == 0 {
            return 0.0;
        }
        self.steal.saturating_sub(earlier.steal) as f64 / total as f64
    }
}
