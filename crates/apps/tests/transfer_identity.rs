//! Bit-identity invariants of the priced-transfer model: turning the
//! interconnect pricing on must not perturb a single kernel record —
//! only the clock (comm time) may move.

use miniapps::App;
use sycl_sim::{PlatformId, Scheme, Session, SessionConfig, Toolchain};

fn config(app: &str) -> SessionConfig {
    SessionConfig::new(PlatformId::A100, Toolchain::NativeCuda).app(app)
}

#[test]
fn cloverleaf2d_kernel_records_are_identical_with_pricing_on_or_off() {
    let app = miniapps::CloverLeaf2d::test();
    let priced = Session::create(config("cloverleaf2d")).unwrap();
    let free = Session::create(config("cloverleaf2d").eager_transfers()).unwrap();
    let a = app.run(&priced);
    let b = app.run(&free);
    // The launch digest covers every record (name, time, bytes) but not
    // the clock: transfer pricing must be invisible to kernel pricing.
    assert_eq!(priced.launch_digest(), free.launch_digest());
    assert_eq!(a.validation.to_bits(), b.validation.to_bits());
    // But the priced session's clock includes the staged uploads, the
    // readback, and the single-rank halo copies the legacy model gave
    // away for free.
    assert!(
        priced.elapsed() > free.elapsed(),
        "priced {} vs free {}",
        priced.elapsed(),
        free.elapsed()
    );
    assert!(priced.comm_time() > 0.0);
}

#[test]
fn mgcfd_kernel_records_are_identical_with_pricing_on_or_off() {
    for scheme in Scheme::all() {
        let app = miniapps::Mgcfd::test();
        let priced = Session::create(config("mgcfd").scheme(scheme)).unwrap();
        let free = Session::create(config("mgcfd").scheme(scheme).eager_transfers()).unwrap();
        let a = app.run(&priced);
        let b = app.run(&free);
        assert_eq!(
            priced.launch_digest(),
            free.launch_digest(),
            "{scheme:?}: kernel records diverge"
        );
        assert_eq!(a.validation.to_bits(), b.validation.to_bits());
        assert!(priced.elapsed() > free.elapsed(), "{scheme:?}");
    }
}

#[test]
fn transfers_and_exchanges_are_nonzero_on_every_platform() {
    // The acceptance bar for the interconnect model: no platform rides
    // for free any more — CPUs pay an in-package copy for staging.
    let toolchain_for = |p: PlatformId| match p {
        PlatformId::A100 => Toolchain::NativeCuda,
        PlatformId::Mi250x => Toolchain::NativeHip,
        PlatformId::Max1100 => Toolchain::Dpcpp,
        _ => Toolchain::OpenMp,
    };
    for p in [
        PlatformId::A100,
        PlatformId::Mi250x,
        PlatformId::Max1100,
        PlatformId::Xeon8360Y,
        PlatformId::GenoaX,
        PlatformId::Altra,
    ] {
        let s = Session::create(
            SessionConfig::new(p, toolchain_for(p))
                .app("cloverleaf2d")
                .dry_run(),
        )
        .unwrap();
        miniapps::CloverLeaf2d::paper().run(&s);
        assert!(s.comm_time() > 0.0, "{p:?}: staging/halos must be priced");
        let stats = s.transfer_stats();
        assert!(stats.real > 0, "{p:?}: no real transfer recorded");
    }
}
