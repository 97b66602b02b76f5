//! Readers for the host counters the benchmark reports beside its wall
//! clocks: process CPU time, peak resident set, and the machine's steal
//! share. Each reader has a pure parser over the file's text, so the
//! parsing is testable without the live file.

use std::fs;
use std::io;

/// Clock ticks per second of the `/proc/<pid>/stat` time fields
/// (`USER_HZ`, 100 on every Linux architecture the benchmark targets).
const USER_HZ: f64 = 100.0;

/// User + system CPU seconds from the text of `/proc/self/stat`.
///
/// The command name (field 2) is parenthesized and may hold spaces, so
/// fields are counted from the last `)`: `utime` and `stime` are fields
/// 14 and 15 of the line.
pub fn parse_stat_cpu_seconds(text: &str) -> Option<f64> {
    let rest = &text[text.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_ascii_whitespace().collect();
    // `rest` starts at field 3 (state), so field n is fields[n - 3].
    let utime: u64 = fields.get(11)?.parse().ok()?;
    let stime: u64 = fields.get(12)?.parse().ok()?;
    Some((utime + stime) as f64 / USER_HZ)
}

/// The `VmHWM` (peak resident set) line of `/proc/self/status`, in MiB.
pub fn parse_vm_hwm_mib(text: &str) -> Option<f64> {
    let line = text.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_ascii_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Aggregate CPU ticks of the machine, from the first line of
/// `/proc/stat`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MachineTicks {
    /// Ticks the hypervisor gave to other guests while this one wanted
    /// to run.
    pub steal: u64,
    /// All ticks (user, nice, system, idle, iowait, irq, softirq, steal).
    pub total: u64,
}

/// Parses the aggregate `cpu` line of `/proc/stat`.
pub fn parse_machine_ticks(text: &str) -> Option<MachineTicks> {
    let line = text.lines().find(|l| l.starts_with("cpu "))?;
    let ticks: Vec<u64> = line
        .split_ascii_whitespace()
        .skip(1)
        .take(8)
        .map(|t| t.parse().ok())
        .collect::<Option<_>>()?;
    if ticks.len() < 8 {
        return None;
    }
    Some(MachineTicks {
        steal: ticks[7],
        total: ticks.iter().sum(),
    })
}

/// Share of the machine's ticks stolen between two readings.
pub fn steal_share(before: MachineTicks, after: MachineTicks) -> f64 {
    let total = after.total.saturating_sub(before.total);
    if total == 0 {
        return 0.0;
    }
    after.steal.saturating_sub(before.steal) as f64 / total as f64
}

/// Nanoseconds a task has run on a CPU, from the text of its
/// `/proc/<pid>/task/<tid>/schedstat` (the first field).
pub fn parse_schedstat_seconds(text: &str) -> Option<f64> {
    let ns: u64 = text.split_ascii_whitespace().next()?.parse().ok()?;
    Some(ns as f64 / 1e9)
}

/// This process's CPU seconds so far, summed over its live threads with
/// nanosecond resolution from each thread's `schedstat`, or — where the
/// kernel lacks schedstat — from the tick-resolution user + system times
/// of `/proc/self/stat`. Differences are exact across a phase in which no
/// thread exits.
pub fn cpu_seconds() -> f64 {
    let per_thread = fs::read_dir("/proc/self/task").ok().and_then(|tasks| {
        tasks
            .map(|task| {
                let path = task.ok()?.path().join("schedstat");
                parse_schedstat_seconds(&fs::read_to_string(path).ok()?)
            })
            .sum::<Option<f64>>()
    });
    per_thread
        .or_else(|| {
            fs::read_to_string("/proc/self/stat")
                .ok()
                .and_then(|t| parse_stat_cpu_seconds(&t))
        })
        .expect("/proc/self has schedstat or stat CPU times")
}

/// This process's peak resident set so far, in MiB.
pub fn peak_rss_mib() -> f64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|t| parse_vm_hwm_mib(&t))
        .expect("/proc/self/status has VmHWM")
}

/// The machine's aggregate CPU ticks now.
pub fn machine_ticks() -> MachineTicks {
    fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|t| parse_machine_ticks(&t))
        .expect("/proc/stat has an aggregate cpu line")
}

/// Cores this process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// glibc's `cpu_set_t`: a mask of 1024 CPUs.
type CpuSet = [u64; 16];

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
}

/// The lowest CPU in a mask.
fn first_cpu(mask: &CpuSet) -> Option<usize> {
    let (word, bits) = mask.iter().enumerate().find(|(_, bits)| **bits != 0)?;
    Some(word * 64 + bits.trailing_zeros() as usize)
}

/// Restricts the calling thread, and every thread it spawns from now on,
/// to the lowest CPU it may run on now; returns that CPU.
///
/// # Errors
///
/// The OS error of reading or setting the affinity mask.
pub fn pin_to_one_cpu() -> io::Result<usize> {
    let size = std::mem::size_of::<CpuSet>();
    let mut mask: CpuSet = [0; 16];
    // SAFETY: `mask` is a writable buffer of `size` bytes; pid 0 names
    // the calling thread.
    if unsafe { sched_getaffinity(0, size, &mut mask) } != 0 {
        return Err(io::Error::last_os_error());
    }
    let cpu = first_cpu(&mask).ok_or_else(|| io::Error::other("empty affinity mask"))?;
    let mut one: CpuSet = [0; 16];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a readable buffer of `size` bytes.
    if unsafe { sched_setaffinity(0, size, &one) } != 0 {
        return Err(io::Error::last_os_error());
    }
    Ok(cpu)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_cpu_counts_fields_after_the_command_name() {
        // The command name holds a space and a `)`, which must not shift
        // the fields.
        let text = "4242 (napel (pipe) bench) R 1 2 3 4 5 6 7 8 9 10 250 50 0 0 20 0 3 0";
        assert_eq!(parse_stat_cpu_seconds(text), Some(3.0));
        assert_eq!(parse_stat_cpu_seconds("4242 (short) R 1 2"), None);
    }

    #[test]
    fn schedstat_reads_the_on_cpu_nanoseconds() {
        assert_eq!(parse_schedstat_seconds("1500000000 42 7\n"), Some(1.5));
        assert_eq!(parse_schedstat_seconds(""), None);
    }

    #[test]
    fn vm_hwm_is_read_in_mib() {
        let text = "Name:\tx\nVmPeak:\t  9000 kB\nVmHWM:\t    2048 kB\nVmRSS:\t 1024 kB\n";
        assert_eq!(parse_vm_hwm_mib(text), Some(2.0));
        assert_eq!(parse_vm_hwm_mib("VmRSS:\t 1024 kB\n"), None);
    }

    #[test]
    fn steal_share_is_the_stolen_fraction_of_all_ticks() {
        let before =
            parse_machine_ticks("cpu  100 0 50 800 0 0 0 50 0 0\ncpu0 1 2 3 4 5 6 7 8\n").unwrap();
        assert_eq!(
            before,
            MachineTicks {
                steal: 50,
                total: 1000
            }
        );
        let after = parse_machine_ticks("cpu  160 0 80 890 0 0 0 70 0 0\n").unwrap();
        assert!((steal_share(before, after) - 0.1).abs() < 1e-12);
        assert_eq!(steal_share(after, after), 0.0);
        assert_eq!(parse_machine_ticks("cpu  1 2 3\n"), None);
    }

    #[test]
    fn live_readers_return_plausible_values() {
        // The process total drops when another test's thread exits, so
        // the growth check reads this thread alone.
        let own = || {
            parse_schedstat_seconds(&fs::read_to_string("/proc/thread-self/schedstat").unwrap())
                .unwrap()
        };
        let cpu = own();
        assert!(cpu_seconds() >= cpu);
        let spin: u64 = (0..20_000_000u64).fold(0, |a, b| a ^ b.wrapping_mul(31));
        std::hint::black_box(spin);
        assert!(own() > cpu);
        assert!(peak_rss_mib() > 0.5);
        let t = machine_ticks();
        assert!(t.total > 0 && t.steal <= t.total);
        assert!(nproc() >= 1);
    }

    #[test]
    fn first_cpu_finds_the_lowest_set_bit() {
        let mut mask: CpuSet = [0; 16];
        assert_eq!(first_cpu(&mask), None);
        mask[1] = 0b1100;
        mask[3] = 1;
        assert_eq!(first_cpu(&mask), Some(66));
    }

    /// The CPUs the calling thread may run on, as the kernel lists them.
    fn allowed_cpus() -> String {
        let status = fs::read_to_string("/proc/thread-self/status").unwrap();
        let list = status
            .lines()
            .find_map(|l| l.strip_prefix("Cpus_allowed_list:"));
        list.unwrap().trim().to_string()
    }

    #[test]
    fn pinning_leaves_one_allowed_cpu_inherited_by_new_threads() {
        // On a thread of its own, so the test runner's threads stay free.
        std::thread::spawn(|| {
            let cpu = pin_to_one_cpu().unwrap().to_string();
            assert_eq!(allowed_cpus(), cpu);
            assert_eq!(std::thread::spawn(allowed_cpus).join().unwrap(), cpu);
        })
        .join()
        .unwrap();
    }
}
