//! CloverLeaf 3D — the 408³ variant of the hydro benchmark.
//!
//! Structurally like [`crate::cloverleaf2d`] with 3-D stencils and six
//! boundary faces; the paper reports it spending far more time in
//! boundary loops (7.8 % on the A100, 11.1 % on the MI250X) because the
//! face-to-volume ratio is higher at 408³ than at 7680².

use crate::common::{alloc_block, read_back, stage_uploads, summarise, App, AppRun};
use ops_dsl::prelude::*;
use ops_dsl::{DatMeta, WriteView};
use sycl_sim::{quirks::apps, Session};

const GAMMA: f64 = 1.4;

/// CloverLeaf 3D instance.
#[derive(Debug, Clone, Copy)]
pub struct CloverLeaf3d {
    pub n: usize,
    pub iterations: usize,
}

impl CloverLeaf3d {
    /// Paper configuration: 408³, 50 iterations.
    pub fn paper() -> Self {
        CloverLeaf3d {
            n: 408,
            iterations: 50,
        }
    }

    /// Reduced size for functional validation.
    pub fn test() -> Self {
        CloverLeaf3d {
            n: 20,
            iterations: 5,
        }
    }

    fn logical_block(&self) -> Block {
        Block::new_3d(self.n, self.n, self.n, 2)
    }
}

struct State {
    density: ops_dsl::Dat<f64>,
    energy: ops_dsl::Dat<f64>,
    pressure: ops_dsl::Dat<f64>,
    soundspeed: ops_dsl::Dat<f64>,
    vel: [ops_dsl::Dat<f64>; 3],
    flux: [ops_dsl::Dat<f64>; 3],
}

impl State {
    fn new(b: &Block) -> State {
        let mut density = ops_dsl::Dat::zeroed(b, "density");
        let mut energy = ops_dsl::Dat::zeroed(b, "energy");
        let n = b.dims[0] as f64;
        density.fill_with(|i, j, k| {
            if (i as f64) < 0.3 * n && (j as f64) < 0.3 * n && (k as f64) < 0.3 * n {
                2.0
            } else {
                1.0
            }
        });
        energy.fill_with(|_, _, _| 1.0);
        let mut vel = [
            ops_dsl::Dat::zeroed(b, "xvel"),
            ops_dsl::Dat::zeroed(b, "yvel"),
            ops_dsl::Dat::zeroed(b, "zvel"),
        ];
        for (d, v) in vel.iter_mut().enumerate() {
            v.fill_with(|i, j, k| {
                let t = (i + 2 * j + 3 * k) as f64 / n;
                0.03 * (t * std::f64::consts::TAU + d as f64).sin()
            });
        }
        State {
            density,
            energy,
            pressure: ops_dsl::Dat::zeroed(b, "pressure"),
            soundspeed: ops_dsl::Dat::zeroed(b, "soundspeed"),
            vel,
            flux: [
                ops_dsl::Dat::zeroed(b, "flux_x"),
                ops_dsl::Dat::zeroed(b, "flux_y"),
                ops_dsl::Dat::zeroed(b, "flux_z"),
            ],
        }
    }
}

impl App for CloverLeaf3d {
    fn name(&self) -> &'static str {
        apps::CLOVERLEAF3D
    }

    fn nd_shape(&self) -> [usize; 3] {
        [64, 4, 1]
    }

    fn run(&self, session: &Session) -> AppRun {
        let _span = telemetry::span(telemetry::SpanKind::Region, self.name());
        let logical = self.logical_block();
        let ab = alloc_block(session, logical);
        let mut st = State::new(&ab);
        let interior = logical.interior();
        let n = logical.dims[0] as i64;
        let dx = 1.0 / n as f64;
        let halo = HaloPlan::for_session(&logical, session, 2, 8.0);
        let nd = self.nd_shape();

        // The CFL timestep crosses launch boundaries within a replay via
        // this bit-cell (stored by the reduction sink, loaded by flux
        // and pdv bodies).
        let dt_bits = std::sync::atomic::AtomicU64::new(0.01f64.to_bits());
        let load_dt = || f64::from_bits(dt_bits.load(std::sync::atomic::Ordering::Relaxed));

        // Stage the initial uploads of all ten fields (see the 2-D
        // variant for the rationale).
        stage_uploads(
            session,
            &logical,
            &[
                st.density.meta(),
                st.energy.meta(),
                st.pressure.meta(),
                st.soundspeed.meta(),
                st.vel[0].meta(),
                st.vel[1].meta(),
                st.vel[2].meta(),
                st.flux[0].meta(),
                st.flux[1].meta(),
                st.flux[2].meta(),
            ],
        );

        // Record one timestep, replay it `iterations` times.
        {
            let dm = st.density.meta();
            let em = st.energy.meta();
            let pm = st.pressure.meta();
            let sm = st.soundspeed.meta();
            let vms = [st.vel[0].meta(), st.vel[1].meta(), st.vel[2].meta()];
            let fms = [st.flux[0].meta(), st.flux[1].meta(), st.flux[2].meta()];
            let d = st.density.writer();
            let e = st.energy.writer();
            let p = st.pressure.writer();
            let ss = st.soundspeed.writer();
            // Velocities are never written by the 3-D step: plain readers.
            let [v0, v1, v2] = &st.vel;
            let vel = [v0.reader(), v1.reader(), v2.reader()];
            let [f0, f1, f2] = &mut st.flux;
            let flux = [f0.writer(), f1.writer(), f2.writer()];
            let dt_bits = &dt_bits;
            let load_dt = &load_dt;

            let mut g = session.record();

            // ideal_gas
            g.phase("ideal_gas");
            ParLoop::new("ideal_gas", interior)
                .read(dm, Stencil::point())
                .read(em, Stencil::point())
                .write(pm)
                .write(sm)
                .flops(8.0)
                .transcendentals(1.0)
                .nd_shape(nd)
                .record(&mut g, move |tile| {
                    for (i, j, k) in tile.iter() {
                        let rho = d.get(i, j, k).max(1e-12);
                        let pr = (GAMMA - 1.0) * rho * e.get(i, j, k).max(0.0);
                        p.set(i, j, k, pr);
                        ss.set(i, j, k, (GAMMA * pr / rho).sqrt());
                    }
                });
            g.end_phase();

            // update_halo: six faces.
            g.phase("update_halo");
            record_update_halo(&mut g, &logical, [(d, dm), (e, em), (p, pm)], nd);
            // Seven exchanged fields: the stencil-read-after-write set
            // (density + the three face fluxes) plus the state fields
            // the real CloverLeaf refreshes alongside them.
            halo.record_exchange_for(&mut g, &[dm, em, pm, sm, fms[0], fms[1], fms[2]]);
            g.end_phase();

            // calc_dt
            g.phase("calc_dt");
            let u0 = vel[0];
            ParLoop::new("calc_dt", interior)
                .read(sm, Stencil::point())
                .read(vms[0], Stencil::point())
                .flops(10.0)
                .nd_shape(nd)
                .record_reduce(
                    &mut g,
                    f64::INFINITY,
                    f64::min,
                    move |tile| {
                        let mut m = f64::INFINITY;
                        for (i, j, k) in tile.iter() {
                            let w = ss.get(i, j, k) + u0.at(i, j, k).abs();
                            m = m.min(dx / w.max(1e-12));
                        }
                        m
                    },
                    move |local| {
                        let dt = (0.2 * local).clamp(1e-9, 0.01);
                        dt_bits.store(dt.to_bits(), std::sync::atomic::Ordering::Relaxed);
                    },
                );
            g.end_phase();

            // flux_calc per direction (faces interior to the domain only
            // ⇒ wall fluxes stay zero ⇒ exact conservation).
            g.phase("flux_calc");
            for dir in 0..3 {
                let v = vel[dir];
                let f = flux[dir];
                let mut hi = [n, n, n];
                hi[dir] = n - 1;
                let face_range = Range3::new_3d(0, hi[0], 0, hi[1], 0, hi[2]);
                let off: [i64; 3] = std::array::from_fn(|a| (a == dir) as i64);
                ParLoop::new("flux_calc", face_range)
                    .read(dm, Stencil::star_3d(1))
                    .read(vms[dir], Stencil::star_3d(1))
                    .write(fms[dir])
                    .flops(8.0)
                    .nd_shape(nd)
                    .record(&mut g, move |tile| {
                        let dt = load_dt();
                        for (i, j, k) in tile.iter() {
                            let un =
                                0.5 * (v.at(i, j, k) + v.at(i + off[0], j + off[1], k + off[2]));
                            let up = if un > 0.0 {
                                d.get(i, j, k)
                            } else {
                                d.get(i + off[0], j + off[1], k + off[2])
                            };
                            f.set(i, j, k, dt * un * up / dx);
                        }
                    });
            }
            g.end_phase();

            // Post-flux halo refresh (as the real CloverLeaf does).
            g.phase("update_halo");
            record_update_halo(&mut g, &logical, [(d, dm), (e, em), (p, pm)], nd);
            g.end_phase();

            // advec_cell: conservative density update.
            g.phase("advec_cell");
            let [fx, fy, fz] = flux;
            ParLoop::new("advec_cell", interior)
                .read(fms[0], Stencil::star_3d(1))
                .read(fms[1], Stencil::star_3d(1))
                .read(fms[2], Stencil::star_3d(1))
                .read_write(dm)
                .flops(12.0)
                .nd_shape(nd)
                .record(&mut g, move |tile| {
                    for (i, j, k) in tile.iter() {
                        let div = fx.get(i - 1, j, k) - fx.get(i, j, k) + fy.get(i, j - 1, k)
                            - fy.get(i, j, k)
                            + fz.get(i, j, k - 1)
                            - fz.get(i, j, k);
                        d.set(i, j, k, d.get(i, j, k) + div);
                    }
                });
            g.end_phase();

            // pdv: compression work on energy.
            g.phase("pdv");
            let [u, v, w] = vel;
            ParLoop::new("pdv", interior)
                .read(pm, Stencil::point())
                .read(dm, Stencil::point())
                .read(vms[0], Stencil::star_3d(1))
                .read(vms[1], Stencil::star_3d(1))
                .read(vms[2], Stencil::star_3d(1))
                .read_write(em)
                .flops(22.0)
                .nd_shape(nd)
                .record(&mut g, move |tile| {
                    let dt = load_dt();
                    for (i, j, k) in tile.iter() {
                        let div = (u.at(i + 1, j, k) - u.at(i - 1, j, k) + v.at(i, j + 1, k)
                            - v.at(i, j - 1, k)
                            + w.at(i, j, k + 1)
                            - w.at(i, j, k - 1))
                            / (2.0 * dx);
                        let rho = d.get(i, j, k).max(1e-12);
                        let de = -p.get(i, j, k) * div * dt / rho;
                        e.set(i, j, k, (e.get(i, j, k) + de).max(1e-9));
                    }
                });
            g.end_phase();

            let g = g.finish();
            for _ in 0..self.iterations {
                g.replay(session);
            }
        }

        // Read the summarised field back before the host-side reduce.
        read_back(session, &logical, &[st.density.meta()]);

        let mut validation = f64::NAN;

        // field_summary
        let _p = telemetry::span(telemetry::SpanKind::Phase, "field_summary");
        if session.executes() {
            let d = st.density.reader();
            validation = ParLoop::new("field_summary", interior)
                .read(st.density.meta(), Stencil::point())
                .flops(2.0)
                .nd_shape(nd)
                .run_reduce(
                    session,
                    0.0,
                    |a, b| a + b,
                    |tile| {
                        let mut s = 0.0;
                        for (i, j, k) in tile.iter() {
                            s += d.at(i, j, k);
                        }
                        s
                    },
                );
        } else {
            ParLoop::new("field_summary", interior)
                .read(st.density.meta(), Stencil::point())
                .flops(2.0)
                .nd_shape(nd)
                .run_reduce(session, 0.0, |a, b| a + b, |_| 0.0);
        }

        summarise(session, validation)
    }
}

/// Record the six reflective boundary faces; one launch per
/// (face × field), as the real code generator emits.
fn record_update_halo<'a>(
    g: &mut sycl_sim::GraphBuilder<'a>,
    block: &Block,
    fields: [(WriteView<'a, f64>, DatMeta); 3],
    nd: [usize; 3],
) {
    let n = block.dims[0] as i64;
    for dim in 0..3usize {
        for side in [-1i64, 1] {
            let range = block.face(dim, side, 2);
            // A depth-2 reflective face reads its mirror up to 3 cells
            // past the face range in the face dimension.
            let mirror = Stencil::offset_1d(dim, 3);
            for (w, meta) in fields {
                ParLoop::new("update_halo", range)
                    .read_write_stencil(meta, mirror)
                    .nd_shape(nd)
                    .record(g, move |tile| {
                        for (i, j, k) in tile.iter() {
                            let mut m = [i, j, k];
                            m[dim] = if side < 0 {
                                -1 - m[dim]
                            } else {
                                2 * n - 1 - m[dim]
                            };
                            let inb = |x: i64| (-2..n + 2).contains(&x);
                            if inb(m[0]) && inb(m[1]) && inb(m[2]) {
                                w.set(i, j, k, w.get(m[0], m[1], m[2]));
                            }
                        }
                    });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sycl_sim::{PlatformId, SessionConfig, Toolchain};

    #[test]
    fn mass_is_conserved_in_3d() {
        let app = CloverLeaf3d::test();
        let s = Session::create(
            SessionConfig::new(PlatformId::A100, Toolchain::NativeCuda).app(apps::CLOVERLEAF3D),
        )
        .unwrap();
        let b = app.logical_block();
        let mass0 = State::new(&b).density.interior_sum(&b);
        let run = app.run(&s);
        assert!(
            (run.validation - mass0).abs() / mass0 < 1e-9,
            "mass {mass0} -> {}",
            run.validation
        );
    }

    #[test]
    fn boundary_fraction_exceeds_the_2d_case_on_gpus() {
        // §4.1: 7.8 % vs 1.5 % on the A100 — the 3-D case is boundary-
        // heavier. Compare at paper sizes via dry runs.
        let mk = |app: &str| {
            Session::create(
                SessionConfig::new(PlatformId::A100, Toolchain::NativeCuda)
                    .app(app)
                    .dry_run(),
            )
            .unwrap()
        };
        let s3 = mk(apps::CLOVERLEAF3D);
        let r3 = CloverLeaf3d::paper().run(&s3);
        let s2 = mk(apps::CLOVERLEAF2D);
        let r2 = crate::CloverLeaf2d::paper().run(&s2);
        assert!(
            r3.boundary_fraction > r2.boundary_fraction,
            "3D {} vs 2D {}",
            r3.boundary_fraction,
            r2.boundary_fraction
        );
    }
}
