//! What the benchmark can say about the machine and process it ran on, read
//! from `/proc` (zeros / "unknown" where a field is missing, never an error:
//! the host block describes a run, it does not gate it) — and the two things it
//! asks of the machine: a single CPU to itself, and freed memory kept.

use std::fs;

fn proc_field(path: &str, key: &str) -> Option<String> {
    fs::read_to_string(path)
        .ok()?
        .lines()
        .find(|l| l.starts_with(key))
        .and_then(|l| l.split_once(':'))
        .map(|(_, v)| v.trim().to_string())
}

/// Peak resident set of this process so far (`VmHWM`), MiB.
pub fn peak_rss_mib() -> f64 {
    proc_field("/proc/self/status", "VmHWM")
        .and_then(|v| v.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// CPU seconds this process has run (`/proc/self/schedstat`, ns on-CPU).
pub fn cpu_seconds() -> f64 {
    fs::read_to_string("/proc/self/schedstat")
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(0.0, |ns| ns / 1e9)
}

/// Pin the calling thread — and every thread it spawns later — to one CPU,
/// the highest it is allowed on (interrupts favour the lowest); returns that
/// CPU, or `None` if the kernel refused.
///
/// Why: a run is meant to be single-threaded. With one CPU in the mask,
/// `std::thread::available_parallelism()` is 1, so the program's admission
/// sweeps and feasibility searches take their sequential path: no worker
/// threads whose allocations the per-thread counter would miss, no spawn
/// cost that depends on the host's core count, and no migration between
/// vCPUs that run at different speeds.
pub fn pin_to_one_cpu() -> Option<usize> {
    extern "C" {
        fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }
    // A `cpu_set_t` is 1024 bits.
    let mut allowed = [0u64; 16];
    let bytes = std::mem::size_of_val(&allowed);
    // SAFETY: `allowed` is a writable buffer of exactly `bytes` bytes, which
    // is what the call fills; pid 0 names the calling thread.
    if unsafe { sched_getaffinity(0, bytes, allowed.as_mut_ptr()) } != 0 {
        return None;
    }
    let (word, bits) = allowed.iter().enumerate().rev().find(|(_, w)| **w != 0)?;
    let bit = 63 - bits.leading_zeros() as usize;
    let mut one = [0u64; 16];
    one[word] = 1 << bit;
    // SAFETY: `one` is a readable buffer of exactly `bytes` bytes holding one
    // CPU taken from the mask the kernel just reported as allowed.
    if unsafe { sched_setaffinity(0, bytes, one.as_ptr()) } != 0 {
        return None;
    }
    Some(word * 64 + bit)
}

/// Tell glibc's allocator to keep freed memory in the process: no trimming
/// of the heap top, no per-request `mmap` below 32 MiB. Returns whether both
/// settings took (always `false` off glibc, where nothing is changed).
///
/// Why: with the defaults every `plan_cold` compile maps and unmaps its large
/// buffers — 46 000 minor page faults a second, 8 % of a pass — and page-fault
/// time on a virtual machine is what varies most and what the reference
/// kernel, which makes no system call, cannot cancel: over ten seeds
/// `plan_cold`'s `ref_cost` spread was 4.8 % with the defaults and 2.3 % with
/// this. What a pass allocates is gated exactly, by `allocs_per_unit` and
/// `alloc_bytes_per_unit`.
pub fn keep_freed_memory() -> bool {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn mallopt(param: i32, value: i32) -> i32;
        }
        const M_TRIM_THRESHOLD: i32 = -1;
        const M_MMAP_THRESHOLD: i32 = -3;
        // SAFETY: `mallopt` takes two integers by value and changes only
        // the allocator's own tunables; it is called before any other
        // thread exists.
        unsafe {
            mallopt(M_MMAP_THRESHOLD, 32 << 20) == 1 && mallopt(M_TRIM_THRESHOLD, i32::MAX) == 1
        }
    }
    #[cfg(not(all(target_os = "linux", target_env = "gnu")))]
    false
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

pub fn cpu_model() -> String {
    proc_field("/proc/cpuinfo", "model name").unwrap_or_else(|| "unknown".into())
}

/// The commit the benchmark was built in, when it sits in a git work tree.
pub fn git_rev() -> String {
    let git = concat!(env!("CARGO_MANIFEST_DIR"), "/../.git");
    let head = match fs::read_to_string(format!("{git}/HEAD")) {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown".into(),
    };
    let Some(r) = head.strip_prefix("ref: ") else {
        return head.chars().take(12).collect();
    };
    if let Ok(h) = fs::read_to_string(format!("{git}/{r}")) {
        return h.trim().chars().take(12).collect();
    }
    fs::read_to_string(format!("{git}/packed-refs"))
        .ok()
        .and_then(|p| {
            p.lines()
                .find(|l| l.ends_with(r))
                .map(|l| l.chars().take(12).collect())
        })
        .unwrap_or_else(|| "unknown".into())
}
