//! The host-speed reference: a fixed task, independent of the program
//! under test, sampled on the same CPU while a study runs.
//!
//! On a shared host a CPU runs in phases up to 1.5x (at times 3x) apart in
//! speed, switching every few seconds. A study lasts seconds, so its wall
//! time follows the phases. The benchmark pins itself and its children to
//! one CPU and, while a study child runs, times this task every
//! `SAMPLE_GAP` on that CPU. The samples see the phases the study sees:
//! dividing the study's time by their mean (relative to `NOMINAL_S`)
//! cancels most of them. The CPU time the samples took is subtracted from
//! the study's wall time, since the two shared the CPU.

use std::collections::{BTreeMap, HashMap};
use std::hint::black_box;
use std::time::Duration;

/// The reference task's CPU time on an uncontended CPU of the machine the
/// bounds in `BENCHMARK.json` were set on (an Intel Xeon vCPU at 2.1 GHz).
/// Normalised times are wall times scaled to a host that runs it this
/// fast.
pub const NOMINAL_S: f64 = 0.018;

/// Pause between reference samples while a study runs: the samples take
/// about a third of the shared CPU. Over five `quiet-daily` runs the
/// quartile spread of `setup_s` was 0.047 with this gap and 0.083 with a
/// 90 ms gap (and 20 set-up repetitions per study, not 30).
pub const SAMPLE_GAP: Duration = Duration::from_millis(50);

/// One timed run of the reference task.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Start and end on the monotonic clock ([`mono_s`]).
    pub start: f64,
    pub end: f64,
    /// CPU time the task took.
    pub cpu: f64,
}

impl Sample {
    /// The share of this sample that lies inside `[t0, t1]`.
    pub fn overlap(&self, t0: f64, t1: f64) -> f64 {
        let inside = self.end.min(t1) - self.start.max(t0);
        (inside / (self.end - self.start).max(f64::MIN_POSITIVE)).clamp(0.0, 1.0)
    }
}

#[repr(C)]
struct Timespec {
    sec: i64,
    nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

const CLOCK_MONOTONIC: i32 = 1;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

fn clock_s(clock: i32) -> f64 {
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a valid, writable timespec; the clock ids are
    // Linux's and always supported.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock}) failed");
    ts.sec as f64 + ts.nsec as f64 * 1e-9
}

/// The monotonic clock, in seconds. It is system-wide, so the benchmark
/// and its children can compare readings.
pub fn mono_s() -> f64 {
    clock_s(CLOCK_MONOTONIC)
}

/// Pin this process, and so every child it starts later, to the lowest
/// CPU it may run on; returns that CPU.
pub fn pin_to_one_cpu() -> Result<usize, String> {
    let mut mask = [0u64; 16];
    // SAFETY: `mask` is a writable 1024-bit cpu set of the size passed.
    if unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) } != 0 {
        return Err("sched_getaffinity failed".into());
    }
    let cpu = (0..1024)
        .find(|&c| mask[c / 64] >> (c % 64) & 1 == 1)
        .ok_or("empty CPU affinity mask")?;
    let mut one = [0u64; 16];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a readable cpu set of the size passed.
    if unsafe { sched_setaffinity(0, std::mem::size_of_val(&one), one.as_ptr()) } != 0 {
        return Err(format!("sched_setaffinity to CPU {cpu} failed"));
    }
    Ok(cpu)
}

/// Run the reference task once.
///
/// The work is the study's mix on a few megabytes: hashing, ordered-map
/// updates, allocation, string formatting and sorting.
pub fn sample() -> Sample {
    let start = mono_s();
    let cpu0 = clock_s(CLOCK_THREAD_CPUTIME_ID);
    let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut next = || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let mut map: HashMap<u64, u64> = HashMap::new();
    let mut tree: BTreeMap<u64, u32> = BTreeMap::new();
    for i in 0..100_000u64 {
        let k = next();
        *map.entry(k % 130_003).or_default() += i;
        if i % 4 == 0 {
            *tree.entry(k >> 40).or_default() += 1;
        }
    }
    let mut names: Vec<String> = (0..50_000)
        .map(|_| format!("d{:x}.ru", next() >> 20))
        .collect();
    names.sort_unstable();
    let hits = names
        .iter()
        .filter(|n| {
            let len = n.len() as u64;
            map.contains_key(&(len * 7919)) || tree.contains_key(&len)
        })
        .count();
    black_box((map.len(), tree.len(), names.len(), hits));
    Sample {
        start,
        end: mono_s(),
        cpu: clock_s(CLOCK_THREAD_CPUTIME_ID) - cpu0,
    }
}

/// A study's wall time over `[t0, t1]`, less the CPU time of the samples
/// taken meanwhile, divided by the host factor those samples show.
/// `None` if no sample overlaps the study.
pub fn normalise(t0: f64, t1: f64, samples: &[Sample]) -> Option<f64> {
    let (mut weight, mut cpu) = (0.0, 0.0);
    for s in samples {
        let w = s.overlap(t0, t1);
        weight += w;
        cpu += w * s.cpu;
    }
    if weight == 0.0 {
        return None;
    }
    let host = cpu / weight / NOMINAL_S;
    Some((t1 - t0 - cpu) / host)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalise_subtracts_and_scales() {
        let s = |start: f64, cpu: f64| Sample {
            start,
            end: start + 0.04,
            cpu,
        };
        // Two samples inside, at twice the nominal CPU time: host factor 2.
        let samples = [s(0.1, 0.036), s(0.5, 0.036), s(5.0, 1.0)];
        let t = normalise(0.0, 1.0, &samples).unwrap();
        assert!((t - (1.0 - 0.072) / 2.0).abs() < 1e-12);
        // Half a sample inside counts half.
        assert!((samples[0].overlap(0.12, 1.0) - 0.5).abs() < 1e-9);
        assert_eq!(normalise(2.0, 3.0, &samples), None);
    }
}
