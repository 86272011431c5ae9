//! One `regenerate_all` pass measures each paper unit exactly once.
//!
//! Rendering every artifact from a sweep must launch exactly what the
//! sweep launched plus what Table 1 and the four ablation sweeps launch
//! for their own configurations. A renderer that measured units again
//! would add launches here. This file holds a single test because the
//! telemetry counters are process-wide.

use bench_harness::ablation;
use portability::Sweep;
use sycl_sim::{quirks, SyclVariant};
use telemetry::TelemetryConfig;

/// Run `f` with telemetry on; return its result and the launches it made.
fn counted<R>(f: impl FnOnce() -> R) -> (R, u64) {
    TelemetryConfig::enabled().ring_capacity(256).install();
    let before = telemetry::counters().snapshot();
    let r = f();
    let launches = telemetry::counters().snapshot().since(&before).launches;
    TelemetryConfig::disabled().install();
    drop(telemetry::flush());
    (r, launches)
}

#[test]
fn one_artifacts_pass_launches_one_sweep_plus_its_own_configurations() {
    let (sweep, sweep_launches) = counted(Sweep::measure);
    let (_, own_launches) = counted(|| {
        bench_harness::table1_text();
        ablation::workgroup_sweep_text();
        ablation::ordering_sweep_text();
        ablation::cache_sweep_text();
        ablation::block_size_sweep_text();
    });
    let (artifacts, pass_launches) = counted(|| bench_harness::artifacts(&Sweep::measure()));
    assert_eq!(artifacts.len(), 21);
    assert!(sweep_launches > 0 && own_launches > 0);
    assert_eq!(pass_launches, sweep_launches + own_launches);

    // The sweep is the paper's cross-product: 306 distinct units, with
    // a failure exactly where the quirk matrix puts one.
    let units = sweep.units();
    assert_eq!(units.len(), 306);
    let mut keys: Vec<String> = units
        .iter()
        .map(|m| {
            let (p, v, s) = (m.platform.label(), m.variant.label(), m.scheme);
            format!("{}/{p}/{v}/{s:?}", m.app)
        })
        .collect();
    keys.sort();
    keys.dedup();
    assert_eq!(keys.len(), units.len(), "duplicate unit keys");
    let mut failures = 0;
    for m in units {
        let variant = if m.variant.toolchain.is_sycl() && m.variant.nd_range {
            // The shape does not matter to the quirk matrix.
            SyclVariant::NdRange([1, 1, 1])
        } else {
            SyclVariant::Flat
        };
        let predicted = quirks::check(m.app, m.platform, m.variant.toolchain, variant, m.scheme);
        assert_eq!(
            m.runtime.err(),
            predicted.map(|f| f.kind),
            "{} on {:?} with {}",
            m.app,
            m.platform,
            m.variant.label()
        );
        failures += usize::from(m.runtime.is_err());
    }
    assert_eq!(failures, 32);
}
