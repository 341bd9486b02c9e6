//! Host facts, process CPU time, and hygiene for the named regions the
//! benchmark creates.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;

use mpf_shm::region::region_path;

/// Prefix of every region this benchmark names.
pub const REGION_PREFIX: &str = "perfbench-";

static NEXT_REGION: AtomicU32 = AtomicU32::new(0);
static LIVE_REGIONS: Mutex<Vec<String>> = Mutex::new(Vec::new());

/// A fresh region name carrying this process's pid, registered so every
/// exit path (normal, error, panic, watchdog) can unlink it.
pub fn region_name() -> String {
    let n = NEXT_REGION.fetch_add(1, Ordering::Relaxed);
    let name = format!("{REGION_PREFIX}{}-{n}", std::process::id());
    live_regions().push(name.clone());
    name
}

fn live_regions() -> std::sync::MutexGuard<'static, Vec<String>> {
    // The list is only pushed to and drained; a panic mid-push cannot
    // leave it invalid, so a poisoned lock is still safe to use.
    LIVE_REGIONS.lock().unwrap_or_else(|p| p.into_inner())
}

/// Unlinks every region this process named.  The creating facility
/// unlinks its own region on drop; this catches the paths where drop
/// never runs.  Missing files are fine.
pub fn unlink_regions() {
    for name in live_regions().drain(..) {
        let _ = std::fs::remove_file(region_path(&name));
    }
}

/// Installs a panic hook that unlinks this process's regions before the
/// default hook reports the panic.
pub fn install_panic_cleanup() {
    let default = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        unlink_regions();
        default(info);
    }));
}

/// Regions with this benchmark's prefix whose creating process is gone
/// (left behind by a killed run).
pub fn stale_regions() -> Vec<PathBuf> {
    let probe = region_path("probe");
    let Some(dir) = probe.parent() else {
        return Vec::new();
    };
    let Ok(entries) = std::fs::read_dir(dir) else {
        return Vec::new();
    };
    let prefix = format!("mpf-region-{REGION_PREFIX}");
    let mut stale = Vec::new();
    for e in entries.flatten() {
        let name = e.file_name().to_string_lossy().into_owned();
        let Some(rest) = name.strip_prefix(&prefix) else {
            continue;
        };
        let pid = rest.split('-').next().and_then(|p| p.parse::<u32>().ok());
        if let Some(pid) = pid {
            if !PathBuf::from(format!("/proc/{pid}")).exists() {
                stale.push(e.path());
            }
        }
    }
    stale.sort();
    stale
}

/// Process CPU time (every live thread) in seconds: the sum of each
/// thread's on-CPU nanoseconds from `/proc/self/task/*/schedstat`,
/// falling back to the 10 ms ticks of `/proc/self/stat` where the kernel
/// keeps no schedstat.
pub fn process_cpu_s() -> f64 {
    schedstat_cpu_s().unwrap_or_else(stat_cpu_s)
}

fn schedstat_cpu_s() -> Option<f64> {
    let mut ns = 0u64;
    for task in std::fs::read_dir("/proc/self/task").ok()?.flatten() {
        let Ok(line) = std::fs::read_to_string(task.path().join("schedstat")) else {
            // A thread that exited between the listing and the read.
            continue;
        };
        ns += line.split_whitespace().next()?.parse::<u64>().ok()?;
    }
    Some(ns as f64 / 1e9)
}

fn stat_cpu_s() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // Fields after the parenthesised command name; utime and stime are
    // the 14th and 15th fields of the whole line.
    let Some(tail) = stat.rsplit_once(')').map(|(_, t)| t) else {
        return 0.0;
    };
    let f: Vec<&str> = tail.split_whitespace().collect();
    let ticks = |i: usize| f.get(i).and_then(|v| v.parse::<f64>().ok()).unwrap_or(0.0);
    (ticks(11) + ticks(12)) / CLOCK_TICKS_PER_S
}

/// `sysconf(_SC_CLK_TCK)` on Linux.
const CLOCK_TICKS_PER_S: f64 = 100.0;

/// Host fingerprint and build provenance, as a JSON object.  The
/// toolchain and source identity come from the launcher's environment
/// (`PERFBENCH_RUSTC`, `PERFBENCH_COMMIT`, `PERFBENCH_SOURCE`).
pub fn provenance_json(workload: &str, seed: u64, seconds: u64, trace: bool) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".into());
    let env = |k: &str| std::env::var(k).unwrap_or_else(|_| "unknown".into());
    format!(
        "{{\"workload\":{},\"seed\":{seed},\"seconds\":{seconds},\"trace\":{trace},\
         \"nproc\":{nproc},\"cpu\":{},\"kernel\":{},\"rustc\":{},\"commit\":{},\"source\":{}}}",
        json_str(workload),
        json_str(&cpu),
        json_str(&kernel),
        json_str(&env("PERFBENCH_RUSTC")),
        json_str(&env("PERFBENCH_COMMIT")),
        json_str(&env("PERFBENCH_SOURCE")),
    )
}

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn region_names_carry_the_pid_and_are_unique() {
        let a = region_name();
        let b = region_name();
        assert_ne!(a, b);
        assert!(a.starts_with(&format!("{REGION_PREFIX}{}-", std::process::id())));
        unlink_regions();
    }

    #[test]
    fn cpu_time_is_readable() {
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = std::hint::black_box(x.wrapping_add(i));
        }
        assert!(process_cpu_s() > 0.0);
    }

    #[test]
    fn json_strings_are_escaped() {
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
    }
}
