//! Ring-buffer semantics: overflow/wrap, drain-on-flush, and
//! cross-thread flush ordering.
//!
//! Telemetry state (the enabled flag, the ring registry, counters) is
//! process-global, so the tests in this file serialise on one mutex and
//! tag their spans with names unique to each test.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use telemetry::{counters, flush, Name, SpanKind, SpanTimer, TelemetryConfig};

static GATE: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    GATE.lock().unwrap_or_else(PoisonError::into_inner)
}

fn record_named(name: &'static str, items: u64) {
    let t = SpanTimer::start().expect("telemetry enabled");
    t.finish(SpanKind::Launch, name, items, 0.0);
}

#[test]
fn ring_overflow_keeps_the_newest_events_and_counts_drops() {
    let _g = serial();
    const CAP: usize = 8;
    const EXTRA: usize = 5;
    TelemetryConfig::enabled().ring_capacity(CAP).install();
    let dropped_before = counters().snapshot().spans_dropped;

    // A fresh thread gets a fresh ring at the just-installed capacity.
    std::thread::spawn(|| {
        for i in 0..(CAP + EXTRA) as u64 {
            record_named("wrap_test", i);
        }
    })
    .join()
    .unwrap();

    let events: Vec<_> = flush()
        .into_iter()
        .filter(|e| e.name.as_str() == "wrap_test")
        .collect();
    TelemetryConfig::disabled().install();

    // Exactly CAP survive, and they are the *newest* CAP: the oldest
    // EXTRA items were overwritten.
    assert_eq!(events.len(), CAP);
    let items: Vec<u64> = events.iter().map(|e| e.items).collect();
    let expect: Vec<u64> = (EXTRA as u64..(CAP + EXTRA) as u64).collect();
    assert_eq!(items, expect);
    assert_eq!(
        counters().snapshot().spans_dropped - dropped_before,
        EXTRA as u64
    );
}

#[test]
fn flush_drains_and_orders_across_threads() {
    let _g = serial();
    TelemetryConfig::enabled().ring_capacity(1 << 12).install();

    // Two threads alternate strictly via a turn flag, so the real
    // finish order of their spans is known exactly: a0 b0 a1 b1 ...
    const ROUNDS: u64 = 20;
    let turn = Arc::new(AtomicBool::new(false)); // false = A's turn
    let t2 = Arc::clone(&turn);
    let a = std::thread::spawn({
        let turn = Arc::clone(&turn);
        move || {
            for i in 0..ROUNDS {
                while turn.load(Ordering::Acquire) {
                    std::hint::spin_loop();
                }
                record_named("order_a", i);
                turn.store(true, Ordering::Release);
            }
        }
    });
    let b = std::thread::spawn(move || {
        for i in 0..ROUNDS {
            while !t2.load(Ordering::Acquire) {
                std::hint::spin_loop();
            }
            record_named("order_b", i);
            t2.store(false, Ordering::Release);
        }
    });
    a.join().unwrap();
    b.join().unwrap();

    let events: Vec<_> = flush()
        .into_iter()
        .filter(|e| e.name.as_str().starts_with("order_"))
        .collect();

    // Monotone sequence numbers (strictly increasing: each ticket is
    // unique) and the exact alternation the synchronisation enforced.
    assert_eq!(events.len(), 2 * ROUNDS as usize);
    assert!(events.windows(2).all(|w| w[0].seq < w[1].seq));
    for (i, e) in events.iter().enumerate() {
        let expect = if i % 2 == 0 { "order_a" } else { "order_b" };
        assert_eq!(e.name.as_str(), expect, "position {i}");
        assert_eq!(e.items, (i / 2) as u64);
    }
    // Spans came from two distinct rings.
    assert_eq!(
        events
            .iter()
            .map(|e| e.thread)
            .collect::<std::collections::HashSet<_>>()
            .len(),
        2
    );

    // Flush drained the rings: nothing of ours is left behind.
    let leftover = flush()
        .into_iter()
        .filter(|e| e.name.as_str().starts_with("order_"))
        .count();
    TelemetryConfig::disabled().install();
    assert_eq!(leftover, 0);
}

#[test]
fn disabled_telemetry_records_nothing() {
    let _g = serial();
    TelemetryConfig::disabled().install();
    assert!(SpanTimer::start().is_none());
    let before = counters().snapshot();
    // Nothing recorded → a flush now contains no span with our tag.
    if let Some(t) = SpanTimer::start() {
        t.finish(SpanKind::Launch, Name::Static("never"), 0, 0.0);
    }
    drop(telemetry::span(SpanKind::Launch, "never").with(1, 8.0, 0.0));
    let seen = flush()
        .into_iter()
        .filter(|e| e.name.as_str() == "never")
        .count();
    assert_eq!(seen, 0);
    let after = counters().snapshot();
    assert_eq!(after.spans_dropped, before.spans_dropped);
    assert_eq!(after.launches, before.launches);
}

#[test]
fn span_guard_writes_the_ring_the_counters_and_the_flight_recording() {
    let _g = serial();
    TelemetryConfig::enabled().install();
    let path = std::env::temp_dir().join(format!("ring-guard-{}.bin", std::process::id()));
    telemetry::flight::start(&path, 0, "guard").unwrap();
    let before = counters().snapshot();
    {
        let _phase = telemetry::span(SpanKind::Phase, "guard_phase");
        let _launch = telemetry::span(SpanKind::Launch, "guard_launch").with(3, 24.0, 1e-6);
    }
    let delta = counters().snapshot().since(&before);
    telemetry::flight::stop();
    let events: Vec<_> = flush()
        .into_iter()
        .filter(|e| e.name.as_str().starts_with("guard_"))
        .collect();
    TelemetryConfig::disabled().install();

    // Ring: inner span closes first and carries its payload.
    assert_eq!(events.len(), 2);
    assert_eq!(events[0].kind, SpanKind::Launch);
    assert_eq!(
        (events[0].items, events[0].bytes, events[0].sim_secs),
        (3, 24.0, 1e-6)
    );
    assert_eq!(events[1].kind, SpanKind::Phase);
    // Counters: one launch and its bytes, nothing for the phase.
    assert_eq!((delta.launches, delta.bytes_moved), (1, 24));
    // Flight: both spans opened and closed, in nesting order.
    let rec = telemetry::FlightRecording::read(&path).unwrap();
    let names: Vec<_> = rec
        .events
        .iter()
        .filter_map(|e| match e {
            telemetry::FlightEvent::SpanOpen { name, .. } => Some(format!("+{name}")),
            telemetry::FlightEvent::SpanClose { name, .. } => Some(format!("-{name}")),
            _ => None,
        })
        .collect();
    assert_eq!(
        names,
        [
            "+guard_phase",
            "+guard_launch",
            "-guard_launch",
            "-guard_phase"
        ]
    );
    std::fs::remove_file(&path).ok();
}
