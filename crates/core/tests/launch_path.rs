//! One launch path: a recorded sequence replayed as one N-op graph
//! commits exactly what the same ops replayed as N one-op graphs do —
//! ledger, clock, comm time and residency elision — over seeded random
//! mixes of declared-write launches, dat-declared uploads/downloads,
//! anonymous transfers, exchanges and phases. Transfer counts are also
//! checked against a reference residency model, so a stage that stopped
//! applying a launch's declared writes fails here even if both replays
//! share it.

use std::collections::HashMap;
use sycl_sim::{
    AccessMode, DatAccess, GraphBuilder, Kernel, LaunchMeta, PlatformId, Session, SessionConfig,
    Toolchain, TransferStats,
};

/// Deterministic xorshift64* stream for test inputs.
struct XorShift(u64);

impl XorShift {
    fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// A non-empty random subset of the dat ids 1..=4.
    fn dats(&mut self) -> Vec<u32> {
        let mask = 1 + self.below(15) as u32;
        (1..=4).filter(|d| mask & (1 << (d - 1)) != 0).collect()
    }
}

#[derive(Debug, Clone)]
enum Op {
    Launch { kernel: usize, writes: Vec<u32> },
    Upload(Vec<u32>),
    Download(Vec<u32>),
    Transfer(f64),
    Exchange(f64, u64),
    Phase(&'static str),
    EndPhase,
}

fn kernels() -> [Kernel; 3] {
    let mut reduce = Kernel::streaming("norm", 1 << 14, 8.0 * (1 << 14) as f64, 2e4);
    reduce.footprint.reductions = 1;
    [
        Kernel::streaming("triad", 1 << 18, 3.0 * 8.0 * (1 << 18) as f64, 2e5),
        Kernel::streaming("halo", 256, 2.0 * 8.0 * 256.0, 0.0),
        reduce,
    ]
}

fn sequence(seed: u64) -> Vec<Op> {
    let mut rng = XorShift(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1);
    let mut ops = Vec::new();
    let mut depth = 0;
    for _ in 0..1 + rng.below(40) {
        let op = match rng.below(7) {
            0 | 1 => Op::Launch {
                kernel: rng.below(3) as usize,
                writes: if rng.below(3) == 0 {
                    Vec::new()
                } else {
                    rng.dats()
                },
            },
            2 => Op::Upload(rng.dats()),
            3 => Op::Download(rng.dats()),
            4 => Op::Transfer(1e4 * (1 + rng.below(100)) as f64),
            5 => Op::Exchange(1e3 * rng.below(50) as f64, rng.below(9)),
            _ if depth > 0 && rng.below(2) == 0 => {
                depth -= 1;
                Op::EndPhase
            }
            _ => {
                depth += 1;
                Op::Phase(["step", "halo", "summary"][rng.below(3) as usize])
            }
        };
        ops.push(op);
    }
    ops.extend(std::iter::repeat_n(Op::EndPhase, depth));
    ops
}

fn meta(writes: &[u32]) -> LaunchMeta {
    let accesses = writes
        .iter()
        .map(|&dat| DatAccess {
            dat,
            mode: if dat % 2 == 0 {
                AccessMode::Write
            } else {
                AccessMode::ReadWrite
            },
            radius: [0; 3],
            elem_bytes: 8.0,
        })
        .collect();
    LaunchMeta::new(accesses, [0; 3], [64, 64, 1])
}

fn dat_bytes(dats: &[u32]) -> f64 {
    dats.len() as f64 * 2.5e5
}

fn record(g: &mut GraphBuilder<'_>, op: &Op, kernels: &[Kernel; 3]) {
    match op {
        Op::Launch { kernel, writes } => {
            g.launch_with_meta(&kernels[*kernel], meta(writes), |_| {})
        }
        Op::Upload(dats) => g.upload_dats(dat_bytes(dats), dats.clone()),
        Op::Download(dats) => g.download_dats(dat_bytes(dats), dats.clone()),
        Op::Transfer(bytes) => g.transfer(*bytes),
        Op::Exchange(bytes, messages) => g.exchange(*bytes, *messages),
        Op::Phase(name) => g.phase(name),
        Op::EndPhase => g.end_phase(),
    }
}

/// Real/elided transfer counts by the residency rules, computed without
/// the session: a write leaves only the device copy valid, a real copy
/// leaves both valid, anonymous transfers are always real.
fn reference_stats(ops: &[Op]) -> TransferStats {
    #[derive(Clone, Copy, PartialEq)]
    enum Valid {
        Host,
        Device,
        Both,
    }
    let mut state: HashMap<u32, Valid> = HashMap::new();
    let mut stats = TransferStats::default();
    for op in ops {
        let (dats, stale) = match op {
            Op::Launch { writes, .. } => {
                for &d in writes {
                    state.insert(d, Valid::Device);
                }
                continue;
            }
            Op::Upload(dats) => (&dats[..], Valid::Host),
            Op::Download(dats) => (&dats[..], Valid::Device),
            Op::Transfer(_) => (&[][..], Valid::Host),
            _ => continue,
        };
        let real = dats.is_empty()
            || dats
                .iter()
                .any(|d| *state.get(d).unwrap_or(&Valid::Host) == stale);
        if real {
            stats.real += 1;
            for &d in dats {
                state.insert(d, Valid::Both);
            }
        } else {
            stats.elided += 1;
        }
    }
    stats
}

#[test]
fn one_n_op_graph_and_n_one_op_graphs_commit_bit_identically() {
    let kernels = kernels();
    let configs = [
        SessionConfig::new(PlatformId::A100, Toolchain::NativeCuda),
        SessionConfig::new(PlatformId::Xeon8360Y, Toolchain::Mpi),
        SessionConfig::new(PlatformId::A100, Toolchain::NativeCuda).eager_transfers(),
    ];
    for seed in 0..64 {
        let ops = sequence(seed);
        for cfg in &configs {
            let whole = Session::create(cfg.clone().app("prop")).unwrap();
            let per_op = Session::create(cfg.clone().app("prop")).unwrap();

            let mut g = whole.record();
            for op in &ops {
                record(&mut g, op, &kernels);
            }
            g.finish().replay(&whole);
            for op in &ops {
                let mut g = per_op.record();
                record(&mut g, op, &kernels);
                g.finish().replay(&per_op);
            }

            let label = format!("seed {seed}, {:?}: {ops:?}", cfg.platform);
            assert_eq!(whole.ledger_digest(), per_op.ledger_digest(), "{label}");
            assert_eq!(
                whole.elapsed().to_bits(),
                per_op.elapsed().to_bits(),
                "{label}"
            );
            assert_eq!(
                whole.comm_time().to_bits(),
                per_op.comm_time().to_bits(),
                "{label}"
            );
            assert_eq!(whole.transfer_stats(), per_op.transfer_stats(), "{label}");
            if cfg.transfer_pricing {
                assert_eq!(whole.transfer_stats(), reference_stats(&ops), "{label}");
            }
        }
    }
}
