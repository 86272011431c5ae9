//! Layer 4 — **commit**: apply one priced op to the session's committed
//! state — the ledger append, the residency update and comm pricing —
//! under the session's three locks, taken in the order ledger → cache →
//! residency. Observers run after release (the observe stage), on the
//! `(observer, record)` pairs the commit returns.

use crate::launch::price::{PriceCache, Priced};
use crate::launch::record::LaunchMeta;
use crate::launch::residency::ResidencyTracker;
use crate::session::{LaunchObserver, LaunchRecord, Session};
use machine_model::{Platform, TransferDir};
use parkit::sync::MutexGuard;
use std::sync::Arc;

/// Intra-node MPI message latency (shared-memory transport).
const MSG_LATENCY: f64 = 0.8e-6;

/// The session's committed state: the simulated clock and the per-launch
/// ledger. Lives behind `Session`'s ledger mutex; the pricing cache has
/// its own lock, so a commit never waits on a cold pricing walk.
pub(crate) struct Ledger {
    pub elapsed: f64,
    pub comm_time: f64,
    pub records: Vec<LaunchRecord>,
    /// Optional per-launch observer (the verifier's footprint pass).
    /// Observes only — pricing and the ledger are unaffected. Invoked
    /// by the caller *after* the ledger lock is released.
    pub observer: Option<LaunchObserver>,
}

impl Ledger {
    pub fn new() -> Ledger {
        Ledger {
            elapsed: 0.0,
            comm_time: 0.0,
            records: Vec::new(),
            observer: None,
        }
    }

    /// Append one priced launch: advance the clock, push the record.
    pub fn append(&mut self, p: &Priced) -> &LaunchRecord {
        self.elapsed += p.time.total;
        self.records.push(LaunchRecord {
            name: Arc::clone(&p.name),
            time: p.time,
            items: p.items,
            effective_bytes: p.effective_bytes,
            boundary: p.boundary,
        });
        self.records.last().expect("just pushed")
    }

    /// Charge communication time (transfers, halo exchanges).
    pub fn charge_comm(&mut self, t: f64) {
        self.elapsed += t;
        self.comm_time += t;
    }
}

/// One op as the commit stage sees it, borrowed from a recorded graph
/// node or from an eager call.
pub(crate) enum CommitOp<'o> {
    Launch {
        priced: &'o Priced,
        meta: &'o LaunchMeta,
    },
    Exchange {
        bytes: f64,
        messages: u64,
    },
    Transfer {
        bytes: f64,
        dats: &'o [u32],
        dir: TransferDir,
    },
}

/// The three locks the commit stage holds, taken in the order ledger →
/// cache → residency ([`Session::commit_locks`]). An eager call holds
/// them for one op, a graph replay for its whole sequence.
pub(crate) struct CommitLocks<'s> {
    pub session: &'s Session,
    pub led: MutexGuard<'s, Ledger>,
    pub cache: MutexGuard<'s, PriceCache>,
    pub res: MutexGuard<'s, ResidencyTracker>,
}

impl CommitLocks<'_> {
    /// Commit stage for one op. A launch appends its ledger record and
    /// applies its declared writes to the residency map; a transfer or
    /// exchange is priced (elided transfers cost nothing) and charged to
    /// the clock. Returns the launch observer and the launch's record
    /// when an observer is installed; the caller invokes it once the
    /// locks are released (observers may call back into the session).
    pub fn commit(&mut self, op: CommitOp<'_>) -> Option<(LaunchObserver, LaunchRecord)> {
        let s = self.session;
        let comm = match op {
            CommitOp::Launch { priced, meta } => {
                let observer = self.led.observer.clone();
                let record = self.led.append(priced);
                let observed = observer.map(|obs| (obs, record.clone()));
                if s.config().transfer_pricing {
                    self.res.apply_launch(meta);
                }
                return observed;
            }
            CommitOp::Exchange { bytes, messages } => {
                s.comm_exchange_time(bytes, messages, &mut self.cache)
            }
            CommitOp::Transfer { bytes, dats, dir } => {
                s.comm_transfer_time(bytes, dats, dir, &mut self.cache, &mut self.res)
            }
        };
        if let Some(t) = comm {
            self.led.charge_comm(t);
        }
        None
    }
}

/// **Legacy** host↔device transfer cost: free on CPU platforms
/// (`None`), a flat scalar bandwidth plus fixed setup latency on GPUs.
/// This is the pre-interconnect model, kept verbatim as the
/// [`SessionConfig::eager_transfers`](crate::SessionConfig::eager_transfers)
/// escape hatch so bit-identity tests can compare against the historic
/// free-transfer semantics.
pub(crate) fn transfer_cost(platform: &Platform, bytes: f64) -> Option<f64> {
    platform.interconnect_bw.map(|bw| 10.0e-6 + bytes / bw)
}

/// Interconnect-priced transfer cost: direction- and allocation-aware,
/// nonzero on every platform (CPUs pay an in-package `memcpy`). The
/// cost SYCL buffers hide behind accessor creation.
pub(crate) fn priced_transfer_cost(
    platform: &Platform,
    dir: TransferDir,
    pinned: bool,
    bytes: f64,
) -> f64 {
    platform.interconnect.transfer_time(dir, pinned, bytes)
}

/// Interconnect-aware halo-exchange cost. Multi-rank sessions keep the
/// calibrated MPI formula unchanged (message latency + a copy through
/// the memory system); a single-rank session with a nonzero halo pays
/// the on-device pack/copy/unpack instead of exchanging for free — the
/// halo still has to move through device memory even without MPI.
pub(crate) fn priced_exchange_cost(
    platform: &Platform,
    ranks: usize,
    bytes: f64,
    messages: u64,
    pinned: bool,
) -> Option<f64> {
    if ranks > 1 {
        Some(messages as f64 * MSG_LATENCY + bytes / (0.5 * platform.mem.stream_bw))
    } else if bytes > 0.0 {
        Some(priced_transfer_cost(
            platform,
            TransferDir::D2D,
            pinned,
            bytes,
        ))
    } else {
        None
    }
}

/// Halo-exchange cost between `ranks` MPI ranks: latency per message
/// plus a copy through the memory system (in + out ⇒ half of STREAM).
/// Single-rank sessions exchange nothing (`None`).
pub(crate) fn exchange_cost(
    platform: &Platform,
    ranks: usize,
    bytes: f64,
    messages: u64,
) -> Option<f64> {
    if ranks <= 1 {
        return None;
    }
    Some(messages as f64 * MSG_LATENCY + bytes / (0.5 * platform.mem.stream_bw))
}

#[cfg(test)]
mod tests {
    use super::*;
    use machine_model::{KernelTime, PlatformId};

    fn priced(name: &str, total: f64) -> Priced {
        Priced {
            time: KernelTime {
                total,
                memory: total,
                compute: 0.0,
                atomics: 0.0,
                launch: 0.0,
                reduction: 0.0,
                traffic: machine_model::MemoryTraffic {
                    dram_bytes: 0.0,
                    llc_bytes: 0.0,
                    bandwidth_efficiency: 1.0,
                },
            },
            name: Arc::from(name),
            items: 7,
            effective_bytes: 56.0,
            boundary: false,
        }
    }

    #[test]
    fn append_advances_the_clock_in_order() {
        let mut led = Ledger::new();
        led.append(&priced("a", 1.0));
        led.append(&priced("b", 2.0));
        assert_eq!(led.elapsed, 3.0);
        assert_eq!(led.records.len(), 2);
        assert_eq!(&*led.records[1].name, "b");
        assert_eq!(led.comm_time, 0.0);
    }

    #[test]
    fn comm_costs_match_the_session_formulas() {
        let gpu = Platform::get(PlatformId::A100);
        let t = transfer_cost(&gpu, 1e9).unwrap();
        assert!((t - 0.04).abs() / 0.04 < 0.01, "{t}");
        let cpu = Platform::get(PlatformId::GenoaX);
        assert!(transfer_cost(&cpu, 1e9).is_none());
        assert!(exchange_cost(&gpu, 1, 1e9, 100).is_none());
        assert!(exchange_cost(&cpu, 4, 1e9, 100).unwrap() > 0.0);
    }

    #[test]
    fn priced_transfers_are_nonzero_everywhere_and_direction_aware() {
        for p in machine_model::all_platforms() {
            for dir in [TransferDir::H2D, TransferDir::D2H, TransferDir::D2D] {
                for pinned in [false, true] {
                    let t = priced_transfer_cost(&p, dir, pinned, 1e8);
                    assert!(t > 0.0, "{} {dir:?}", p.name);
                }
            }
            let pageable = priced_transfer_cost(&p, TransferDir::H2D, false, 1e9);
            let pinned = priced_transfer_cost(&p, TransferDir::H2D, true, 1e9);
            if p.id.is_gpu() {
                assert!(pageable > 1.5 * pinned, "{}: pageable pays", p.name);
            } else {
                assert_eq!(pageable.to_bits(), pinned.to_bits());
            }
        }
    }

    #[test]
    fn priced_exchange_keeps_the_mpi_formula_and_prices_single_rank_halos() {
        let cpu = Platform::get(PlatformId::GenoaX);
        // Multi-rank: bit-identical to the legacy MPI formula.
        let legacy = exchange_cost(&cpu, 4, 1e9, 100).unwrap();
        let new = priced_exchange_cost(&cpu, 4, 1e9, 100, true).unwrap();
        assert_eq!(legacy.to_bits(), new.to_bits());
        // Single-rank with a real halo: the on-device copy is priced.
        let gpu = Platform::get(PlatformId::A100);
        let t = priced_exchange_cost(&gpu, 1, 1e9, 100, true).unwrap();
        assert!(
            t > 0.0 && t < 0.01,
            "D2D halo copy is fast but not free: {t}"
        );
        // Single-rank with no halo bytes: nothing to move.
        assert!(priced_exchange_cost(&gpu, 1, 0.0, 0, true).is_none());
    }
}
