//! Telemetry must observe, never perturb: a session priced with
//! telemetry disabled is bit-identical to one priced with telemetry
//! never attached at all — and to one priced with telemetry *enabled*.
//! The subsystem reads the engine; nothing in the engine reads it back.

use std::sync::{Arc, Mutex, PoisonError};
use sycl_sim::{Kernel, LaunchRecord, PlatformId, Session, SessionConfig, Toolchain};
use telemetry::TelemetryConfig;

/// Telemetry state (enabled flag, counters, flight recorder) is
/// process-global; the tests in this file must not interleave.
static SERIAL: Mutex<()> = Mutex::new(());

/// A launch mix covering the cache paths: repeated hits on two hot
/// kernels, a boundary loop, and a reduction, on both cached and
/// uncached sessions.
fn run_workload() -> (Vec<LaunchRecord>, f64, Vec<LaunchRecord>, f64) {
    let cached =
        Session::create(SessionConfig::new(PlatformId::A100, Toolchain::NativeCuda).app("equiv"))
            .unwrap();
    let uncached = Session::create(
        SessionConfig::new(PlatformId::A100, Toolchain::NativeCuda)
            .app("equiv")
            .no_pricing_cache(),
    )
    .unwrap();
    for s in [&cached, &uncached] {
        let triad = Kernel::streaming("triad", 1 << 20, 3.0 * 8.0 * (1 << 20) as f64, 2e6);
        let copy = Kernel::streaming("copy", 1 << 18, 2.0 * 8.0 * (1 << 18) as f64, 0.0);
        let halo = Kernel::streaming("halo", 256, 2.0 * 8.0 * 256.0, 0.0);
        let mut reduce = Kernel::streaming("norm", 1 << 18, 8.0 * (1 << 18) as f64, 2e5);
        reduce.footprint.reductions = 1;
        for _ in 0..7 {
            s.launch(&triad, || ());
            s.launch(&copy, || ());
            s.launch(&halo, || ());
        }
        s.launch(&reduce, || ());
        s.transfer(1e8);
        s.exchange(1e6, 8);
    }
    // One guard per statement: a `Records` guard held across `elapsed()`
    // would deadlock on the ledger lock.
    let cached_records = cached.records().to_vec();
    let uncached_records = uncached.records().to_vec();
    (
        cached_records,
        cached.elapsed(),
        uncached_records,
        uncached.elapsed(),
    )
}

fn assert_bit_identical(
    (ar, ae, aur, aue): &(Vec<LaunchRecord>, f64, Vec<LaunchRecord>, f64),
    (br, be, bur, bue): &(Vec<LaunchRecord>, f64, Vec<LaunchRecord>, f64),
    label: &str,
) {
    assert_eq!(ae.to_bits(), be.to_bits(), "{label}: cached elapsed");
    assert_eq!(aue.to_bits(), bue.to_bits(), "{label}: uncached elapsed");
    for (x, y) in [(ar, br), (aur, bur)] {
        assert_eq!(x.len(), y.len(), "{label}: record count");
        for (a, b) in x.iter().zip(y.iter()) {
            assert_eq!(a.name, b.name, "{label}");
            assert_eq!(a.items, b.items, "{label}: {}", a.name);
            assert_eq!(
                a.time.total.to_bits(),
                b.time.total.to_bits(),
                "{label}: {}",
                a.name
            );
            assert_eq!(
                a.effective_bytes.to_bits(),
                b.effective_bytes.to_bits(),
                "{label}: {}",
                a.name
            );
            assert_eq!(a.boundary, b.boundary, "{label}: {}", a.name);
        }
    }
}

#[test]
fn disabled_and_enabled_telemetry_leave_ledgers_bit_identical() {
    let _serial = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    // 1. Telemetry never attached: the process default (no install).
    let never = run_workload();

    // 2. Explicitly disabled.
    TelemetryConfig::disabled().install();
    let disabled = run_workload();

    // 3. Enabled, recording every span and counter.
    TelemetryConfig::enabled().install();
    let counters_before = telemetry::counters().snapshot();
    let enabled = run_workload();
    let delta = telemetry::counters().snapshot().since(&counters_before);
    TelemetryConfig::disabled().install();
    let events = telemetry::flush();

    assert_bit_identical(&never, &disabled, "never-attached vs disabled");
    assert_bit_identical(&never, &enabled, "never-attached vs enabled");

    // The enabled run really was observed: one launch span per ledger
    // record, cache hits for the repeat launches, and interned names.
    let per_session = never.0.len() as u64;
    assert_eq!(delta.launches, 2 * per_session);
    assert!(delta.pricing_cache_hits >= 7, "{delta:?}");
    assert_eq!(
        events
            .iter()
            .filter(|e| e.kind == telemetry::SpanKind::Launch)
            .count() as u64,
        delta.launches
    );

    // Launch records still intern names per session (telemetry holds
    // clones, it does not steal the session's Arcs).
    let triads: Vec<&Arc<str>> = enabled
        .0
        .iter()
        .filter(|r| &*r.name == "triad")
        .map(|r| &r.name)
        .collect();
    assert!(triads.windows(2).all(|w| Arc::ptr_eq(w[0], w[1])));

    // 4. Enabled with the metrics registry actively recording: the
    // histogram/counter layer above telemetry must be just as invisible
    // to the engine as the span layer itself.
    TelemetryConfig::enabled().install();
    metrics::registry().flush(); // drop anything earlier tests shed
    let with_metrics = run_workload();
    metrics::registry().record_labelled("equiv.sim_secs", "triad", with_metrics.1);
    metrics::registry().add("equiv.runs", "workload", 1);
    TelemetryConfig::disabled().install();
    let metric_events = telemetry::flush();
    metrics::ingest_events(&metric_events);
    let snap = metrics::registry().flush();

    assert_bit_identical(&never, &with_metrics, "never-attached vs metrics-enabled");

    // The registry really observed the run: per-kernel wall histograms
    // from the ingested spans plus the directly recorded series.
    let triad_wall = snap
        .hist("launch.wall_secs", "triad")
        .expect("triad launch histogram");
    assert_eq!(triad_wall.count(), 2 * 7); // two sessions × seven launches
    assert!(snap.hist("equiv.sim_secs", "triad").is_some());
    assert_eq!(snap.counter("equiv.runs", "workload"), 1);
}

#[test]
fn flight_recorder_leaves_ledgers_bit_identical() {
    let _serial = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    // Baseline: no observation of any kind.
    let never = run_workload();

    // Same workload with the flight recorder writing every launch to
    // disk (the span rings stay off — flight is an independent switch).
    let path = std::env::temp_dir().join(format!("flight-equiv-{}.bin", std::process::id()));
    telemetry::flight::start(&path, 0, "equiv").unwrap();
    telemetry::flight::span_open(telemetry::SpanKind::Unit, "equiv-unit");
    let with_flight = run_workload();
    telemetry::flight::span_close(telemetry::SpanKind::Unit, "equiv-unit");
    telemetry::flight::stop();

    assert_bit_identical(&never, &with_flight, "never-attached vs flight-recorded");

    // The recording really observed the run: one open/close pair per
    // ledger record across both sessions, nothing left open.
    let rec = telemetry::FlightRecording::read(&path).unwrap();
    assert!(!rec.torn, "clean stop must not leave a torn tail");
    let opens = rec
        .events
        .iter()
        .filter(|e| {
            matches!(
                e,
                telemetry::FlightEvent::SpanOpen {
                    kind: telemetry::SpanKind::Launch,
                    ..
                }
            )
        })
        .count();
    let per_session = never.0.len();
    assert_eq!(opens, 2 * per_session);
    assert!(rec.open_spans().is_empty());
    std::fs::remove_file(&path).ok();
}

#[test]
fn a_launch_is_open_in_the_flight_recording_while_its_body_runs() {
    let _serial = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    // Crash attribution reads the flight `Launch` open, so both entry
    // points must write it before the body runs. Stopping the recording
    // inside the body stands in for the crash: whatever is open on disk
    // at that moment is what `blackbox` would blame.
    let s =
        Session::create(SessionConfig::new(PlatformId::A100, Toolchain::NativeCuda).app("equiv"))
            .unwrap();
    let eager = Kernel::streaming("eager_kernel", 1 << 10, 8.0 * 1024.0, 0.0);
    let replayed = Kernel::streaming("replayed_kernel", 1 << 10, 8.0 * 1024.0, 0.0);
    let mut g = s.record();
    g.launch(&replayed, |_| {
        telemetry::flight::stop();
    });
    let g = g.finish();
    let runs: [(&str, &dyn Fn()); 2] = [
        ("eager_kernel", &|| {
            s.launch(&eager, || {
                telemetry::flight::stop();
            })
        }),
        ("replayed_kernel", &|| g.replay(&s)),
    ];
    for (kernel, run) in runs {
        let path =
            std::env::temp_dir().join(format!("flight-attrib-{kernel}-{}.bin", std::process::id()));
        telemetry::flight::start(&path, 0, "equiv").unwrap();
        run();
        let rec = telemetry::FlightRecording::read(&path).unwrap();
        let open = rec.open_spans();
        assert!(
            open.iter()
                .any(|&(kind, name, _)| kind == telemetry::SpanKind::Launch && name == kernel),
            "{kernel} not open when its body ran: {open:?}"
        );
        std::fs::remove_file(&path).ok();
    }
}
