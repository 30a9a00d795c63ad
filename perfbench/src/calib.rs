//! Machine-speed calibration.
//!
//! On a shared virtual machine the effective CPU speed can drift by
//! 20–40% in phases of tens of seconds (measured on a 2-vCPU one, see
//! `perfbench/README.md`), so raw wall-clock figures of identical runs
//! disagree by more than any useful regression bound. Timed work is
//! therefore interleaved with a fixed calibration kernel — sorting and
//! hashing in preallocated buffers, no oolong code — and each timing is
//! reported in *reference milliseconds*: wall time scaled by [`REF_MS`]
//! over the median kernel time of the same run. A change to oolong moves
//! the scaled figures as it moves wall time; a change of machine speed
//! moves the kernel as well and cancels out. The raw wall-clock figures
//! are printed alongside.

use std::cell::RefCell;
use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

/// The kernel's time on the reference machine, in milliseconds.
pub const REF_MS: f64 = 8.0;

/// Kernel runs per calibration probe (their median is used).
const RUNS: usize = 3;

/// The kernel's working memory, allocated once so that the kernel's time
/// does not depend on the allocator state the measured program leaves.
struct Buffers {
    v: Vec<u64>,
    m: HashMap<u64, u64>,
}

thread_local! {
    static BUFFERS: RefCell<Buffers> = RefCell::new(Buffers {
        v: Vec::with_capacity(200_000),
        m: HashMap::with_capacity(50_000),
    });
}

fn kernel(seed: u64) -> u64 {
    BUFFERS.with_borrow_mut(|Buffers { v, m }| {
        let mut x = seed | 1;
        v.clear();
        v.extend((0..200_000).map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        }));
        v.sort_unstable();
        m.clear();
        for i in 0..50_000 {
            m.insert(v[i * 3], i as u64);
        }
        v.iter()
            .step_by(7)
            .map(|k| m.get(k).copied().unwrap_or(0))
            .sum()
    })
}

/// Times the kernel a few times and returns the median, in milliseconds.
pub fn probe() -> f64 {
    let mut times: Vec<f64> = (0..RUNS)
        .map(|i| {
            let start = Instant::now();
            black_box(kernel(black_box(i as u64 + 7)));
            start.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    times.sort_by(|a, b| a.total_cmp(b));
    times[RUNS / 2]
}

/// The factor that scales wall time to reference time, from the probes
/// taken through a run: one factor per run, so within-run jitter of a
/// single probe does not leak into the figures.
pub fn scale(probes_ms: &[f64]) -> f64 {
    REF_MS / crate::stats::median(probes_ms)
}
