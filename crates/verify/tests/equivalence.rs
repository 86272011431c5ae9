//! Shadow-instrumented runs must be bit-identical to the fast path:
//! same validation scalar, same launch ledger (digest over kernel
//! names, priced times, item counts, and effective bytes).
//!
//! This is the verifier's "first, do no harm" guarantee — attaching it
//! may cost time, but it must never change what the session computes
//! or prices.

use miniapps::{App, CloverLeaf2d, Mgcfd};
use std::collections::HashSet;
use std::sync::Barrier;
use sycl_sim::{quirks::apps, PlatformId, Session, SessionConfig, Toolchain};
use verify::{ledger_digest, Verifier};

fn live(app: &str) -> Session {
    Session::create(SessionConfig::new(PlatformId::A100, Toolchain::NativeCuda).app(app)).unwrap()
}

#[test]
fn cloverleaf2d_shadow_run_is_bit_identical_to_the_fast_path() {
    let plain_s = live(apps::CLOVERLEAF2D);
    let plain = CloverLeaf2d::test().run(&plain_s);

    let shadow_s = live(apps::CLOVERLEAF2D);
    let verifier = Verifier::attach(&shadow_s);
    let shadow = CloverLeaf2d::test().run(&shadow_s);
    let diags = verifier.finish(&shadow_s);

    assert!(!verify::has_errors(&diags), "{diags:?}");
    assert_eq!(
        plain.validation.to_bits(),
        shadow.validation.to_bits(),
        "instrumentation changed the computed result"
    );
    assert_eq!(
        ledger_digest(&plain_s.records()),
        ledger_digest(&shadow_s.records()),
        "instrumentation changed the priced ledger"
    );
}

#[test]
fn mgcfd_shadow_run_is_bit_identical_to_the_fast_path() {
    let plain_s = live(apps::MGCFD);
    let plain = Mgcfd::test().run(&plain_s);

    let shadow_s = live(apps::MGCFD);
    let verifier = Verifier::attach(&shadow_s);
    let shadow = Mgcfd::test().run(&shadow_s);
    let diags = verifier.finish(&shadow_s);

    assert!(!verify::has_errors(&diags), "{diags:?}");
    assert_eq!(
        plain.validation.to_bits(),
        shadow.validation.to_bits(),
        "instrumentation changed the computed result"
    );
    assert_eq!(
        ledger_digest(&plain_s.records()),
        ledger_digest(&shadow_s.records()),
        "instrumentation changed the priced ledger"
    );
}

/// Shadow state is process-global, but only the attached session is
/// traced: a plain CloverLeaf 2D run on another thread, held by a
/// barrier until the verifier is attached and finished before it
/// detaches, must leave MG-CFD's findings exactly as a solo run's.
#[test]
fn a_plain_run_beside_an_attached_verifier_stays_out_of_its_trace() {
    let attached = Barrier::new(2);
    let traced_s = live(apps::MGCFD);
    let diags = std::thread::scope(|scope| {
        let plain = scope.spawn(|| {
            attached.wait();
            let plain_s = live(apps::CLOVERLEAF2D);
            CloverLeaf2d::test().run(&plain_s);
        });
        let verifier = Verifier::attach(&traced_s);
        attached.wait();
        Mgcfd::test().run(&traced_s);
        plain.join().unwrap();
        verifier.finish(&traced_s)
    });

    assert!(!verify::has_errors(&diags), "{diags:?}");
    let launched: HashSet<String> = traced_s
        .records()
        .iter()
        .map(|r| r.name.to_string())
        .collect();
    for d in &diags {
        assert!(
            launched.contains(&d.kernel),
            "finding about `{}`, which the traced session never launched: {d:?}",
            d.kernel
        );
    }
}
