//! Host speed reference for the end-to-end times.
//!
//! On a shared host, other tenants move this program's speed by 20 %
//! and more within minutes (CPU steal, contention for caches and
//! memory, clock changes), past any bound a benchmark could hold. A
//! fixed reference kernel, timed right after every op and set-up, slows
//! down with the ops: it mixes a floating-point loop with hash-map
//! inserts and lookups and a sort, the kind of work the simulator's
//! pricing does, in a fresh process as the `regen` and `study` ops are.
//! Each end-to-end time is scaled by [`NOMINAL_S`] ÷ the mean reference
//! time over the latest [`WINDOW`] samples: seconds at the host speed at
//! which the kernel takes [`NOMINAL_S`]. The kernel is benchmark code,
//! so a change to the program moves the ops and not the reference.
//!
//! Each sample is a child process (`perfbench --reference-sample`), so
//! the kernel's memory counts toward no peak resident set the benchmark
//! reports.

use std::collections::hash_map::DefaultHasher;
use std::collections::{HashMap, VecDeque};
use std::hash::BuildHasherDefault;
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::time::Instant;

/// The first argument that makes `perfbench` take one sample.
pub const SAMPLE_FLAG: &str = "--reference-sample";

/// Seconds one reference sample takes at the reference speed: a round
/// figure near its time on the 2-vCPU host the bounds were set on, so
/// scaled times read near wall times there.
pub const NOMINAL_S: f64 = 1e-2;
/// Samples whose mean gives the host speed for an op.
const WINDOW: usize = 8;
/// Cells of the floating-point loop, and keys of the hash map.
const FP_CELLS: usize = 1 << 15;
const KEYS: u64 = 100_000;

fn kernel() {
    let mut fp = vec![1.0f64; FP_CELLS];
    let mut acc = 0.0;
    for pass in 0..6 {
        for (i, x) in fp.iter_mut().enumerate() {
            *x = (*x * 1.000_000_1 + (i ^ pass) as f64).sqrt();
            acc += *x;
        }
    }
    let mut map: HashMap<u64, u64, BuildHasherDefault<DefaultHasher>> = HashMap::default();
    let mut s = 1u64;
    for i in 0..KEYS {
        s = s.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
        map.insert(s >> 20, i);
    }
    let hits: u64 = (0..KEYS).filter_map(|k| map.get(&(k * 7))).sum();
    let mut keys: Vec<u64> = map.into_keys().collect();
    keys.sort_unstable();
    std::hint::black_box((acc, hits, keys));
}

/// The body of a `--reference-sample` process: time the kernel once
/// and print its seconds.
pub fn run_sample() {
    let start = Instant::now();
    kernel();
    println!("{:e}", start.elapsed().as_secs_f64());
}

pub struct Reference {
    exe: PathBuf,
    recent: VecDeque<f64>,
}

impl Reference {
    /// A reference with a full window of samples.
    pub fn new() -> Result<Reference, String> {
        let mut r = Reference {
            exe: std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?,
            recent: VecDeque::with_capacity(WINDOW),
        };
        for _ in 0..WINDOW {
            r.sample()?;
        }
        Ok(r)
    }

    fn sample(&mut self) -> Result<(), String> {
        let out = Command::new(&self.exe)
            .arg(SAMPLE_FLAG)
            .stdin(Stdio::null())
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| format!("reference sample: {e}"))?;
        let secs: f64 = String::from_utf8_lossy(&out.stdout)
            .trim()
            .parse()
            .map_err(|e| format!("reference sample ({}): {e}", out.status))?;
        if self.recent.len() == WINDOW {
            self.recent.pop_front();
        }
        self.recent.push_back(secs);
        Ok(())
    }

    /// Take one sample and return the factor that turns the wall
    /// seconds of the op or set-up that just ended into seconds at the
    /// reference speed.
    pub fn factor(&mut self) -> Result<f64, String> {
        self.sample()?;
        Ok(NOMINAL_S * self.recent.len() as f64 / self.recent.iter().sum::<f64>())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_runs() {
        let start = Instant::now();
        kernel();
        assert!(start.elapsed().as_secs_f64() > 0.0);
    }
}
