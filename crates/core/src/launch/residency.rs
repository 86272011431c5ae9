//! Per-dat host/device residency tracking.
//!
//! The interconnect model prices a transfer node only when it actually
//! has to move bytes. This tracker holds the session's view of where
//! each dataset's valid copy lives and decides, in recorded order,
//! whether an upload/download is **real** (the destination copy is
//! stale or absent) or **elided** (the destination already holds a
//! valid copy — the SYCL runtime would skip the copy entirely).
//!
//! The rules mirror a buffer/accessor runtime:
//!
//! * every dat starts [`Residency::HostOnly`] — it was allocated and
//!   filled on the host;
//! * a real upload or download leaves both copies valid
//!   ([`Residency::Shared`]);
//! * a kernel *write* to a dat invalidates the host copy
//!   ([`Residency::DeviceOnly`]) — launch metadata drives this, so only
//!   graphs with declared access sets see writeback invalidation;
//! * transfers that declare no dats (volume-only recordings) are always
//!   real — the tracker refuses to guess;
//! * D2D copies never touch host validity and are never elided.
//!
//! Elision decisions are part of the priced timeline, so eager calls
//! and graph replays consult this tracker through the one commit stage,
//! in the same recorded order — the bit-identical-ledger invariant
//! extends to elision.

use crate::launch::record::LaunchMeta;
use machine_model::TransferDir;
use std::collections::HashMap;

/// Where the valid copy (or copies) of one dat currently live.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Residency {
    /// Only the host copy is valid (initial state; never uploaded, or
    /// host-written since the last upload).
    HostOnly,
    /// Only the device copy is valid (a kernel wrote it since the last
    /// transfer).
    DeviceOnly,
    /// Both copies are valid (the state right after a real transfer).
    Shared,
}

/// Counts of real vs elided transfers, for reports and tests.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TransferStats {
    pub real: u64,
    pub elided: u64,
}

/// The session's per-dat residency map (see module docs).
#[derive(Debug, Default)]
pub struct ResidencyTracker {
    map: HashMap<u32, Residency>,
    stats: TransferStats,
}

impl ResidencyTracker {
    pub fn new() -> ResidencyTracker {
        ResidencyTracker::default()
    }

    /// Current residency of a dat (unknown dats are host-only).
    pub fn residency(&self, dat: u32) -> Residency {
        self.map.get(&dat).copied().unwrap_or(Residency::HostOnly)
    }

    fn device_valid(&self, dat: u32) -> bool {
        matches!(
            self.residency(dat),
            Residency::DeviceOnly | Residency::Shared
        )
    }

    fn host_valid(&self, dat: u32) -> bool {
        matches!(self.residency(dat), Residency::HostOnly | Residency::Shared)
    }

    /// Decide whether a transfer moves bytes, and update the map as if
    /// it ran. Returns `true` when the transfer is real (must be
    /// priced), `false` when it is elided.
    pub fn apply_transfer(&mut self, dir: TransferDir, dats: &[u32]) -> bool {
        // Id 0 marks an anonymous dat (shadow registry off at creation):
        // distinct datasets share it, so it can never prove a transfer
        // elidable and never enters the map.
        let real = match dir {
            // Anonymous transfers (no named dats) are always real.
            _ if dats.iter().all(|&d| d == 0) => true,
            TransferDir::H2D => dats.iter().any(|&d| d == 0 || !self.device_valid(d)),
            TransferDir::D2H => dats.iter().any(|&d| d == 0 || !self.host_valid(d)),
            TransferDir::D2D => true,
        };
        if real {
            for &d in dats {
                if d == 0 {
                    continue;
                }
                // The copy leaves both sides valid. (D2D moves between
                // device buffers; the host copy's validity is untouched,
                // and the destination is device-side by definition.)
                match dir {
                    TransferDir::H2D | TransferDir::D2H => {
                        self.map.insert(d, Residency::Shared);
                    }
                    TransferDir::D2D => {}
                }
            }
            self.stats.real += 1;
        } else {
            self.stats.elided += 1;
        }
        real
    }

    /// Apply a launch's declared writes: a device kernel writing a dat
    /// invalidates the host copy. Anonymous accesses (id 0) and opaque
    /// launches declare nothing and change nothing.
    pub fn apply_launch(&mut self, meta: &LaunchMeta) {
        for a in &meta.accesses {
            if a.dat != 0 && a.writes() {
                self.map.insert(a.dat, Residency::DeviceOnly);
            }
        }
    }

    /// Real/elided transfer counts so far.
    pub fn stats(&self) -> TransferStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::launch::record::{AccessMode, DatAccess};

    fn write_meta(dat: u32) -> LaunchMeta {
        LaunchMeta::new(
            vec![DatAccess {
                dat,
                mode: AccessMode::Write,
                radius: [0; 3],
                elem_bytes: 8.0,
            }],
            [0; 3],
            [8, 1, 1],
        )
    }

    #[test]
    fn double_upload_elides_the_second_copy() {
        let mut r = ResidencyTracker::new();
        assert!(r.apply_transfer(TransferDir::H2D, &[7]), "first is real");
        assert!(
            !r.apply_transfer(TransferDir::H2D, &[7]),
            "second is elided"
        );
        assert_eq!(r.stats(), TransferStats { real: 1, elided: 1 });
        assert_eq!(r.residency(7), Residency::Shared);
    }

    #[test]
    fn download_after_writeback_is_real_then_elided() {
        let mut r = ResidencyTracker::new();
        r.apply_transfer(TransferDir::H2D, &[3]);
        // Fresh dat: host already valid, a download would move nothing.
        assert!(!r.apply_transfer(TransferDir::D2H, &[3]));
        // A kernel writes it on the device: host copy is now stale.
        r.apply_launch(&write_meta(3));
        assert_eq!(r.residency(3), Residency::DeviceOnly);
        assert!(r.apply_transfer(TransferDir::D2H, &[3]), "readback is real");
        assert_eq!(r.residency(3), Residency::Shared);
        assert!(!r.apply_transfer(TransferDir::D2H, &[3]), "re-read elided");
    }

    #[test]
    fn never_uploaded_dat_downloads_for_free_but_uploads_for_real() {
        let mut r = ResidencyTracker::new();
        assert!(
            !r.apply_transfer(TransferDir::D2H, &[1]),
            "host-only: elided"
        );
        assert!(r.apply_transfer(TransferDir::H2D, &[1]));
    }

    #[test]
    fn anonymous_and_d2d_transfers_never_elide() {
        let mut r = ResidencyTracker::new();
        assert!(r.apply_transfer(TransferDir::H2D, &[]));
        assert!(
            r.apply_transfer(TransferDir::H2D, &[]),
            "no dats, no memory"
        );
        // Id 0 is shared by every anonymous dat: never elided, never
        // remembered.
        assert!(r.apply_transfer(TransferDir::H2D, &[0]));
        assert!(
            r.apply_transfer(TransferDir::H2D, &[0]),
            "id 0 is anonymous"
        );
        assert_eq!(r.residency(0), Residency::HostOnly);
        r.apply_transfer(TransferDir::H2D, &[5]);
        assert!(r.apply_transfer(TransferDir::D2D, &[5]));
        assert!(r.apply_transfer(TransferDir::D2D, &[5]));
    }

    #[test]
    fn multi_dat_transfer_is_real_if_any_dat_needs_it() {
        let mut r = ResidencyTracker::new();
        r.apply_transfer(TransferDir::H2D, &[1]);
        // 1 is resident, 2 is not: the batch still moves.
        assert!(r.apply_transfer(TransferDir::H2D, &[1, 2]));
        // Now both are resident.
        assert!(!r.apply_transfer(TransferDir::H2D, &[1, 2]));
    }

    #[test]
    fn opaque_launches_do_not_invalidate() {
        let mut r = ResidencyTracker::new();
        r.apply_transfer(TransferDir::H2D, &[4]);
        r.apply_launch(&LaunchMeta::opaque());
        assert_eq!(r.residency(4), Residency::Shared);
    }
}
