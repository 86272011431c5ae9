//! Regression fixtures: seeded defects the verifier must catch, with
//! the right severity and the offending kernel named.
//!
//! Each fixture plants exactly one defect — a tampered colouring plan,
//! an under-declared stencil, an undeclared write — and asserts the
//! corresponding pass reports it as an Error naming the kernel. The
//! access fixtures run both eagerly and as a recorded graph replay and
//! must report the same diagnostics either way.

use op2_dsl::{GlobalColoring, HierColoring, Mesh, Ordering};
use ops_dsl::prelude::*;
use sycl_sim::{PlatformId, Session, SessionConfig, Toolchain};
use verify::{has_errors, Diagnostic, Pass, Severity, Verifier};

fn live(app: &str) -> Session {
    Session::create(SessionConfig::new(PlatformId::A100, Toolchain::NativeCuda).app(app)).unwrap()
}

#[test]
fn a_tampered_global_colouring_is_a_plan_error_naming_the_kernel() {
    let mesh = Mesh::grid(6, 6, 2, Ordering::Natural);
    let mut g = GlobalColoring::build(&mesh.edges);
    assert!(g.is_valid(&mesh.edges), "builder must start conflict-free");
    assert!(verify::check_global_coloring("res_calc", &g, &mesh.edges).is_empty());

    // Force a vertex-sharing edge into edge 0's colour group.
    let v = mesh.edges.row(0)[0];
    let c0 = g.color[0] as usize;
    let other = (1..mesh.n_edges())
        .find(|&e| g.color[e] as usize != c0 && mesh.edges.row(e).contains(&v))
        .expect("a grid mesh has a vertex-sharing edge of another colour");
    let c_old = g.color[other] as usize;
    g.color[other] = c0 as u32;
    g.by_color[c_old].retain(|&e| e as usize != other);
    g.by_color[c0].push(other as u32);

    let diags = verify::check_global_coloring("res_calc", &g, &mesh.edges);
    assert!(has_errors(&diags), "the tampered plan must be rejected");
    let d = &diags[0];
    assert_eq!(d.severity, Severity::Error);
    assert_eq!(d.pass, Pass::Plan);
    assert_eq!(d.kernel, "res_calc");
    assert!(d.detail.contains("share a colour"), "{}", d.detail);
}

#[test]
fn a_tampered_hierarchical_colouring_is_a_plan_error() {
    let mesh = Mesh::grid(6, 6, 2, Ordering::Natural);
    let mut h = HierColoring::build(&mesh.edges, 8);
    assert!(h.is_valid(&mesh.edges) && h.is_valid_intra(&mesh.edges));
    assert!(verify::check_hier_coloring("res_calc", &h, &mesh.edges).is_empty());

    // Within block 0, force two vertex-sharing edges onto one intra
    // colour — the block's sequential-by-colour schedule now races.
    let (lo, hi) = h.block_range(0, mesh.n_edges());
    let mut pair = None;
    'outer: for a in lo..hi {
        for b in (a + 1)..hi {
            let shares = mesh
                .edges
                .row(a)
                .iter()
                .any(|v| mesh.edges.row(b).contains(v));
            if shares && h.intra_color[a] != h.intra_color[b] {
                pair = Some((a, b));
                break 'outer;
            }
        }
    }
    let (a, b) = pair.expect("block 0 has adjacent edges on different intra colours");
    h.intra_color[b] = h.intra_color[a];

    let diags = verify::check_hier_coloring("res_calc", &h, &mesh.edges);
    assert!(has_errors(&diags), "the tampered plan must be rejected");
    assert!(
        diags.iter().any(|d| d.severity == Severity::Error
            && d.pass == Pass::Plan
            && d.kernel == "res_calc"
            && d.detail.contains("intra-block")),
        "{diags:?}"
    );
}

/// Launch `lp` eagerly or, with `replay`, as a one-launch recorded graph
/// replayed once.
fn launch(s: &Session, lp: ParLoop, replay: bool, body: impl Fn(Range3) + Sync) {
    if replay {
        let mut g = s.record();
        lp.record(&mut g, body);
        g.finish().replay(s);
    } else {
        lp.run(s, body);
    }
}

/// Run an access fixture eagerly and as a recorded graph replay. Both
/// paths open the shadow bracket inside the same launch body, so they
/// must report the same diagnostics; returns them.
fn eager_and_replayed(fixture: fn(bool) -> Vec<Diagnostic>) -> Vec<Diagnostic> {
    let eager = fixture(false);
    let replayed = fixture(true);
    assert_eq!(format!("{eager:?}"), format!("{replayed:?}"));
    eager
}

fn under_declared_stencil(replay: bool) -> Vec<Diagnostic> {
    let s = live("fixture_stencil");
    let block = Block::new_3d(8, 8, 1, 2);
    // Dats allocated before attach are invisible to the shadow pass, so
    // the fixture allocates after.
    let v = Verifier::attach(&s);
    let mut a = ops_dsl::Dat::<f64>::zeroed(&block, "a");
    let mut b = ops_dsl::Dat::<f64>::zeroed(&block, "b");
    a.fill_with(|i, j, _| (i + j) as f64);
    {
        let bm = b.meta();
        let r = a.reader();
        let w = b.writer();
        // Declared as a point read of `a`, but the body reads i+1.
        let lp = ParLoop::new("bad_stencil", block.interior())
            .read(a.meta(), Stencil::point())
            .write(bm)
            .flops(1.0);
        launch(&s, lp, replay, |tile| {
            for (i, j, k) in tile.iter() {
                w.set(i, j, k, r.at(i + 1, j, k));
            }
        });
    }
    v.finish(&s)
}

#[test]
fn an_under_declared_stencil_is_an_access_error_naming_the_kernel() {
    let diags = eager_and_replayed(under_declared_stencil);
    assert!(has_errors(&diags), "{diags:?}");
    assert!(
        diags.iter().any(|d| d.severity == Severity::Error
            && d.pass == Pass::Access
            && d.kernel == "bad_stencil"
            && d.detail.contains("declared stencil")),
        "{diags:?}"
    );
}

fn undeclared_write(replay: bool) -> Vec<Diagnostic> {
    let s = live("fixture_write");
    let block = Block::new_3d(8, 8, 1, 2);
    let v = Verifier::attach(&s);
    let mut a = ops_dsl::Dat::<f64>::zeroed(&block, "a");
    let mut b = ops_dsl::Dat::<f64>::zeroed(&block, "b");
    a.fill_with(|_, _, _| 1.0);
    {
        let r = a.reader();
        let w = b.writer();
        // `b` is written but never declared at all.
        let lp = ParLoop::new("sneaky_write", block.interior())
            .read(a.meta(), Stencil::point())
            .flops(1.0);
        launch(&s, lp, replay, |tile| {
            for (i, j, k) in tile.iter() {
                w.set(i, j, k, 2.0 * r.at(i, j, k));
            }
        });
    }
    v.finish(&s)
}

#[test]
fn an_undeclared_write_is_an_access_error_naming_the_kernel() {
    let diags = eager_and_replayed(undeclared_write);
    assert!(has_errors(&diags), "{diags:?}");
    assert!(
        diags.iter().any(|d| d.severity == Severity::Error
            && d.pass == Pass::Access
            && d.kernel == "sneaky_write"
            && d.detail.contains("`b`")),
        "{diags:?}"
    );
}

fn correctly_declared(replay: bool) -> Vec<Diagnostic> {
    let s = live("fixture_clean");
    let block = Block::new_3d(8, 8, 1, 2);
    let v = Verifier::attach(&s);
    let mut a = ops_dsl::Dat::<f64>::zeroed(&block, "a");
    let mut b = ops_dsl::Dat::<f64>::zeroed(&block, "b");
    a.fill_with(|i, j, _| (i * j) as f64);
    b.fill_with(|_, _, _| 0.0);
    {
        let bm = b.meta();
        let r = a.reader();
        let w = b.writer();
        let lp = ParLoop::new("good_stencil", block.interior())
            .read(a.meta(), Stencil::star_2d(1))
            .write(bm)
            .flops(4.0);
        launch(&s, lp, replay, |tile| {
            for (i, j, k) in tile.iter() {
                let sum =
                    r.at(i + 1, j, k) + r.at(i - 1, j, k) + r.at(i, j + 1, k) + r.at(i, j - 1, k);
                w.set(i, j, k, 0.25 * sum);
            }
        });
    }
    v.finish(&s)
}

#[test]
fn a_correctly_declared_loop_passes_clean() {
    let diags = eager_and_replayed(correctly_declared);
    assert!(
        diags.iter().all(|d| d.severity < Severity::Error),
        "a correct loop must not error: {diags:?}"
    );
}
