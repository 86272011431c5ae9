//! Output checks. Each returns `Err(reason)` for an op whose output is
//! wrong; the [`Tally`] turns those into `failed`, which feeds
//! `failed_frac`. The tests at the bottom give every check a corrupted
//! input, so a clean `failed_frac` cannot be zero by construction.

use std::collections::BTreeMap;
use study::{StudyUnit, UnitRecord, UnitStatus};
use sycl_sim::{quirks, FailureKind, SyclVariant};

/// File name → bytes, as one `regenerate_all` pass wrote them.
pub type Artifacts = BTreeMap<String, Vec<u8>>;

/// Attempted and failed ops, plus the first few failure reasons.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub reasons: Vec<String>,
}

impl Tally {
    /// Count one op; an `Err` marks it failed.
    pub fn record(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = outcome {
            self.failed += 1;
            if self.reasons.len() < 8 {
                self.reasons.push(why);
            }
        }
    }
}

/// `regen`: every artifact byte-identical to the reference pass, and
/// no artifact missing or extra.
pub fn check_artifacts(reference: &Artifacts, produced: &Artifacts) -> Result<(), String> {
    for (name, want) in reference {
        match produced.get(name) {
            None => return Err(format!("artifact {name} missing")),
            Some(got) if got != want => {
                let at = got.iter().zip(want).position(|(a, b)| a != b);
                return Err(format!(
                    "artifact {name} differs (first differing byte {})",
                    at.unwrap_or(got.len().min(want.len()))
                ));
            }
            Some(_) => {}
        }
    }
    match produced.keys().find(|k| !reference.contains_key(*k)) {
        Some(extra) => Err(format!("unexpected artifact {extra}")),
        None => Ok(()),
    }
}

/// What one paper unit must come out as.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Expected {
    /// Measured: simulated seconds and efficiency, as bit patterns.
    Ok { sim_secs: u64, efficiency: u64 },
    /// A modelled hole of the quirk matrix.
    Hole(FailureKind),
}

/// The in-process reference for the 306 paper units, by unit index.
#[derive(Debug, Clone)]
pub struct StudyReference {
    pub units: Vec<StudyUnit>,
    pub expected: Vec<Expected>,
}

impl StudyReference {
    /// Measure every paper unit through `portability::measure_*`, and
    /// require each hole to be the one `sycl_sim::quirks` predicts.
    pub fn measure() -> Result<StudyReference, String> {
        let units = study::paper_units();
        let mut expected = Vec::with_capacity(units.len());
        for u in &units {
            let m = match u.scheme {
                Some(s) => portability::measure_mgcfd(u.platform, u.variant, s),
                None => {
                    let app = bench_harness::make_app(&u.app, true)
                        .ok_or_else(|| format!("unknown app {}", u.app))?;
                    portability::measure_structured(app.as_ref(), u.platform, u.variant)
                }
            };
            let quirk = quirk_of(u);
            expected.push(match (m.runtime, m.efficiency) {
                (Ok(t), Some(e)) if quirk.is_none() => Expected::Ok {
                    sim_secs: t.to_bits(),
                    efficiency: e.to_bits(),
                },
                (Err(kind), _) if quirk == Some(kind) => Expected::Hole(kind),
                (r, _) => {
                    return Err(format!(
                        "{}: measured {r:?} but the quirk matrix says {quirk:?}",
                        u.id()
                    ))
                }
            });
        }
        Ok(StudyReference { units, expected })
    }
}

/// The failure `sycl_sim::quirks` predicts for a unit, if any.
pub fn quirk_of(u: &StudyUnit) -> Option<FailureKind> {
    let variant = if u.variant.toolchain.is_sycl() && u.variant.nd_range {
        // The shape does not matter to the quirk matrix.
        SyclVariant::NdRange([1, 1, 1])
    } else {
        SyclVariant::Flat
    };
    quirks::check(&u.app, u.platform, u.variant.toolchain, variant, u.scheme).map(|f| f.kind)
}

/// `study`: every paper unit terminal exactly once, holes where the
/// quirk matrix puts them, and every ok cell bit-identical to the
/// in-process reference.
pub fn check_study(reference: &StudyReference, records: &[UnitRecord]) -> Result<(), String> {
    if records.len() != reference.units.len() {
        return Err(format!(
            "{} terminal units, want {}",
            records.len(),
            reference.units.len()
        ));
    }
    for (i, rec) in records.iter().enumerate() {
        let unit = &reference.units[i];
        if rec.unit != *unit {
            return Err(format!("record {i} is {}, want {}", rec.id(), unit.id()));
        }
        match (rec.status, reference.expected[i]) {
            (
                UnitStatus::Ok,
                Expected::Ok {
                    sim_secs,
                    efficiency,
                },
            ) => {
                let bits = |v: Option<f64>| v.map(f64::to_bits);
                if bits(rec.sim_secs) != Some(sim_secs) {
                    return Err(format!(
                        "{}: sim_secs {:?} != reference {}",
                        rec.id(),
                        rec.sim_secs,
                        f64::from_bits(sim_secs)
                    ));
                }
                if bits(rec.efficiency) != Some(efficiency) {
                    return Err(format!(
                        "{}: efficiency {:?} != reference {}",
                        rec.id(),
                        rec.efficiency,
                        f64::from_bits(efficiency)
                    ));
                }
            }
            (UnitStatus::Hole(got), Expected::Hole(want)) if got == want => {}
            (status, want) => {
                return Err(format!("{}: status {status:?}, want {want:?}", rec.id()));
            }
        }
    }
    Ok(())
}

/// Validation scalars of the seven apps at test size, pinned as bit
/// patterns. They are the same on every supported (platform,
/// toolchain, variant) cell and, for MG-CFD, under every scheme.
pub const PINNED_VALIDATION: [(&str, u64); 7] = [
    ("cloverleaf2d", 0x40a3_c200_0000_0000),
    ("cloverleaf3d", 0x40c0_0c00_0000_0002),
    ("opensbli_sa", 0x40b0_0000_0000_0000),
    ("opensbli_sn", 0x40b0_0000_0000_0000),
    ("rtm", 0x3fef_2e1a_772d_588b),
    ("acoustic", 0x4001_f32b_31ce_e70a),
    ("mgcfd", 0x40ba_4ba3_5165_57cf),
];

/// `functional`: an app's validation scalar bit-identical to its pin.
pub fn check_validation(app: &str, value: f64) -> Result<(), String> {
    let pin = PINNED_VALIDATION
        .iter()
        .find(|(name, _)| *name == app)
        .ok_or_else(|| format!("no pinned validation for {app}"))?
        .1;
    if value.to_bits() == pin {
        Ok(())
    } else {
        Err(format!(
            "{app}: validation {value:e} ({:#x}) != pinned {:e} ({pin:#x})",
            value.to_bits(),
            f64::from_bits(pin)
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tally_of(outcome: Result<(), String>) -> Tally {
        let mut t = Tally::default();
        t.record(Ok(()));
        t.record(outcome);
        t
    }

    #[test]
    fn an_artifact_one_byte_off_is_a_failed_op() {
        let mut reference = Artifacts::new();
        reference.insert(
            "table1.txt".into(),
            b"## Table 1\nA100 1000 GB/s\n".to_vec(),
        );
        reference.insert("summary_stats.txt".into(), b"PP 0.40\n".to_vec());
        assert!(check_artifacts(&reference, &reference.clone()).is_ok());

        let mut corrupt = reference.clone();
        corrupt.get_mut("table1.txt").unwrap()[12] ^= 1;
        let t = tally_of(check_artifacts(&reference, &corrupt));
        assert_eq!((t.attempted, t.failed), (2, 1));
        assert!(t.reasons[0].contains("table1.txt"), "{:?}", t.reasons);

        let mut missing = reference.clone();
        missing.remove("summary_stats.txt");
        assert!(check_artifacts(&reference, &missing).is_err());
        let mut extra = reference.clone();
        extra.insert("stray.txt".into(), vec![]);
        assert!(check_artifacts(&reference, &extra).is_err());
    }

    /// Records exactly as a correct study would write them.
    fn records_from(reference: &StudyReference) -> Vec<UnitRecord> {
        reference
            .units
            .iter()
            .zip(&reference.expected)
            .map(|(u, e)| {
                let (status, sim_secs, efficiency) = match *e {
                    Expected::Ok {
                        sim_secs,
                        efficiency,
                    } => (
                        UnitStatus::Ok,
                        Some(f64::from_bits(sim_secs)),
                        Some(f64::from_bits(efficiency)),
                    ),
                    Expected::Hole(k) => (UnitStatus::Hole(k), None, None),
                };
                UnitRecord {
                    unit: u.clone(),
                    status,
                    note: None,
                    worker: 0,
                    attempt: 1,
                    trace: 0,
                    wall_secs: 0.0,
                    samples: vec![],
                    sim_secs,
                    efficiency,
                    gbps: None,
                }
            })
            .collect()
    }

    #[test]
    fn a_study_cell_with_altered_sim_secs_is_a_failed_op() {
        let reference = StudyReference::measure().unwrap();
        assert_eq!(reference.units.len(), 306);
        let holes = reference
            .expected
            .iter()
            .filter(|e| matches!(e, Expected::Hole(_)))
            .count();
        assert_eq!(holes, 32);
        let good = records_from(&reference);
        assert!(check_study(&reference, &good).is_ok());

        let mut bad = good.clone();
        let cell = bad.iter_mut().find(|r| r.sim_secs.is_some()).unwrap();
        let t = cell.sim_secs.unwrap();
        cell.sim_secs = Some(f64::from_bits(t.to_bits() ^ 1));
        let tally = tally_of(check_study(&reference, &bad));
        assert_eq!((tally.attempted, tally.failed), (2, 1));
        assert!(tally.reasons[0].contains("sim_secs"), "{:?}", tally.reasons);

        let mut crashed = good.clone();
        crashed[0].status = UnitStatus::Crashed;
        assert!(check_study(&reference, &crashed).is_err());
        let mut wrong_hole = good.clone();
        let hole = wrong_hole
            .iter_mut()
            .find(|r| matches!(r.status, UnitStatus::Hole(_)))
            .unwrap();
        hole.status = UnitStatus::Hole(FailureKind::VerificationFailed);
        assert!(check_study(&reference, &wrong_hole).is_err());
        assert!(check_study(&reference, &good[1..]).is_err());
    }

    #[test]
    fn a_flipped_validation_bit_is_a_failed_op() {
        for (app, pin) in PINNED_VALIDATION {
            let value = f64::from_bits(pin);
            assert!(check_validation(app, value).is_ok());
            let t = tally_of(check_validation(app, f64::from_bits(pin ^ 1)));
            assert_eq!((t.attempted, t.failed), (2, 1), "{app}");
        }
        assert!(check_validation("nope", 0.0).is_err());
    }
}
