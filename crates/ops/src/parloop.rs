//! `ops_par_loop`: the heart of the DSL.
//!
//! A [`ParLoop`] collects the loop's argument descriptors, builds the
//! kernel footprint with the paper's effective-bytes rule, prices the
//! launch through the session, and executes the body functionally over
//! parallel tiles.
//!
//! Every entry point runs one launch body, built by one private
//! function. The body opens and closes the shadow bracket against the
//! session it runs on, spreads the tiles over the pool, and for a
//! reduction folds the tile partials under one `Reduce` span guard and
//! hands the result to a sink. The eager `run*` calls pass that body to
//! [`Session::launch`]; an eager reduction sinks into a local cell and
//! returns it. The `record*` calls pass the same body to
//! [`GraphBuilder::launch_with_meta`]. The row-sliced variants
//! (`*_rows`, `*_rows_reduce`) are adapters that wrap a row body into a
//! tile body.

use crate::dat::DatMeta;
use crate::range::{Range3, Row};
use crate::stencil::Stencil;
use parkit::global_pool;
use std::cell::Cell;
use std::sync::Arc;
use sycl_sim::{
    AccessMode, AccessProfile, DatAccess, GraphBuilder, Kernel, KernelFootprint, KernelTraits,
    LaunchMeta, Precision, Session, StencilProfile,
};
use telemetry::{shadow, SpanKind};

/// Functional tile shape for `range` (execution only — the *modelled*
/// work-group shape comes from the toolchain, so this choice never
/// affects timing, only how the real computation is spread over host
/// threads). Tiles hold full x-rows in 8×4-row blocks, so the
/// per-point and row-sliced paths share one decomposition — and hence
/// one reduction partial order, keeping the two bit-identical. Ranges
/// with too few rows to feed the pool (wide 1-D loops) split x instead.
fn exec_tile(range: &Range3) -> [usize; 3] {
    let ext = range.extents();
    let x = if ext[1].max(1) * ext[2].max(1) >= 32 {
        ext[0].max(1)
    } else {
        ext[0].clamp(1, 1024)
    };
    [x, 8, 4]
}

/// Builder for one structured-mesh parallel loop.
#[derive(Debug, Clone)]
pub struct ParLoop {
    name: String,
    range: Range3,
    reads: Vec<(DatMeta, Stencil)>,
    writes: Vec<DatMeta>,
    rws: Vec<(DatMeta, Stencil)>,
    flops_pp: f64,
    transc_pp: f64,
    traits: KernelTraits,
    nd_shape: Option<[usize; 3]>,
}

impl ParLoop {
    /// Start a loop over `range`.
    pub fn new(name: &str, range: Range3) -> Self {
        ParLoop {
            name: name.to_owned(),
            range,
            reads: Vec::new(),
            writes: Vec::new(),
            rws: Vec::new(),
            flops_pp: 0.0,
            transc_pp: 0.0,
            traits: KernelTraits::default(),
            nd_shape: None,
        }
    }

    /// Declare a read argument with its stencil.
    pub fn read(mut self, meta: DatMeta, stencil: Stencil) -> Self {
        self.reads.push((meta, stencil));
        self
    }

    /// Declare a write-only argument.
    pub fn write(mut self, meta: DatMeta) -> Self {
        self.writes.push(meta);
        self
    }

    /// Declare a read-write argument (counted twice, per the paper).
    pub fn read_write(mut self, meta: DatMeta) -> Self {
        self.rws.push((meta, Stencil::point()));
        self
    }

    /// Declare a read-write argument whose *reads* reach beyond the own
    /// point (e.g. halo mirrors). The stencil informs the verifier only;
    /// the priced footprint stays the paper's 2× rule for rw args and
    /// the priced radius still comes from the read stencils alone.
    pub fn read_write_stencil(mut self, meta: DatMeta, stencil: Stencil) -> Self {
        self.rws.push((meta, stencil));
        self
    }

    /// Floating-point operations per loop point.
    pub fn flops(mut self, per_point: f64) -> Self {
        self.flops_pp = per_point;
        self
    }

    /// Transcendental evaluations (sqrt, exp, ...) per loop point.
    pub fn transcendentals(mut self, per_point: f64) -> Self {
        self.transc_pp = per_point;
        self
    }

    /// Codegen traits (vectorisability etc.).
    pub fn traits(mut self, traits: KernelTraits) -> Self {
        self.traits = traits;
        self
    }

    /// Kernel-specific tuned nd_range shape.
    pub fn nd_shape(mut self, shape: [usize; 3]) -> Self {
        self.nd_shape = Some(shape);
        self
    }

    /// The iteration range.
    pub fn range(&self) -> Range3 {
        self.range
    }

    /// Build the backend-independent kernel description.
    pub fn kernel(&self) -> Kernel {
        let pts = self.range.points() as f64;
        let mut bytes = 0.0;
        for a in self.accesses() {
            bytes += match a.mode {
                AccessMode::ReadWrite => 2.0 * pts * a.elem_bytes,
                _ => pts * a.elem_bytes,
            };
        }
        let radius = self
            .reads
            .iter()
            .fold(Stencil::point(), |r, (_, s)| r.merge(*s));
        let precision = if self.accesses().any(|a| a.elem_bytes >= 8.0) {
            Precision::F64
        } else {
            Precision::F32
        };
        let fp = KernelFootprint {
            name: self.name.clone(),
            items: self.range.points() as u64,
            effective_bytes: bytes,
            flops: self.flops_pp * pts,
            transcendentals: self.transc_pp * pts,
            precision,
            access: AccessProfile::Stencil(StencilProfile {
                domain: self.range.extents(),
                radius: radius.radius,
                dats_read: self.reads.len() + self.rws.len(),
                dats_written: self.writes.len() + self.rws.len(),
            }),
            atomics: None,
            reductions: 0,
        };
        let mut k = Kernel::new(fp).with_traits(self.traits);
        if let Some(s) = self.nd_shape {
            k = k.with_nd_shape(s);
        }
        k
    }

    /// Every argument in declaration order — reads, writes, then
    /// read-writes — with its access mode, radius and element size: the
    /// one walk behind [`ParLoop::loop_decl`] and [`ParLoop::launch_meta`].
    fn accesses(&self) -> impl Iterator<Item = DatAccess> + '_ {
        let reads = self
            .reads
            .iter()
            .map(|&(m, s)| (m, AccessMode::Read, s.radius));
        let writes = self.writes.iter().map(|&m| (m, AccessMode::Write, [0; 3]));
        let rws = self
            .rws
            .iter()
            .map(|&(m, s)| (m, AccessMode::ReadWrite, s.radius));
        reads
            .chain(writes)
            .chain(rws)
            .map(|(m, mode, radius)| DatAccess {
                dat: m.id,
                mode,
                radius,
                elem_bytes: m.elem_bytes,
            })
    }

    /// The declaration as the shadow-access checker sees it. Unlike the
    /// priced radius, rw stencils *do* count here — the verifier checks
    /// actual reads against what each argument individually declared.
    fn loop_decl(&self) -> shadow::LoopDecl {
        let args = self
            .accesses()
            .map(|a| shadow::ArgDecl {
                dat: a.dat,
                access: match a.mode {
                    AccessMode::Read => shadow::Access::Read,
                    AccessMode::Write => shadow::Access::Write,
                    AccessMode::ReadWrite => shadow::Access::ReadWrite,
                },
                radius: a.radius,
            })
            .collect();
        shadow::LoopDecl {
            kernel: self.name.clone(),
            structured: true,
            lo: self.range.lo,
            hi: self.range.hi,
            args,
            flops_pp: self.flops_pp,
            transc_pp: self.transc_pp,
            scheme: None,
        }
    }

    /// The declarative access metadata recorded with launch-graph nodes
    /// for static dataflow analysis (`graphlint`). Like the shadow
    /// declaration it never enters pricing.
    fn launch_meta(&self) -> LaunchMeta {
        LaunchMeta::new(self.accesses().collect(), self.range.lo, self.range.hi)
    }

    /// The kernel and the one launch body of this loop, shared by every
    /// eager and recorded entry point.
    ///
    /// The body evaluates the shadow bracket against the session it
    /// runs on, then runs `tile_body` over the loop's tiles on the pool
    /// when the session executes. With a `reduce`, the tile partials
    /// combine in the pool's fixed binary tree under one `Reduce` span,
    /// and the result (the identity on a session that does not execute)
    /// goes to the sink.
    fn launch_body<'a, A, C, S>(
        self,
        tile_body: impl Fn(Range3) -> A + Sync + 'a,
        reduce: Option<Reduce<A, C, S>>,
    ) -> (Kernel, impl Fn(&Session) + 'a)
    where
        A: Send + Clone + 'a,
        C: Fn(A, A) -> A + Sync + 'a,
        S: Fn(A) + 'a,
    {
        let mut kernel = self.kernel();
        kernel.footprint.reductions = usize::from(reduce.is_some());
        let bytes = kernel.footprint.effective_bytes;
        let shape = exec_tile(&self.range);
        let tiles = self.range.tile_count(shape);
        let reduce = reduce.map(|r| (r, Arc::<str>::from(format!("{}.reduce", self.name))));
        let body = move |session: &Session| {
            let shadowing = session.shadowed();
            if shadowing {
                shadow::begin_loop(self.loop_decl());
            }
            let range = self.range;
            let tile = |t| shadow::unit(shadowing, || tile_body(range.tile(shape, t)));
            match &reduce {
                None => {
                    if session.executes() {
                        global_pool().run_region(tiles, |_lane, t| {
                            tile(t);
                        });
                    }
                }
                Some((Reduce(identity, combine, sink), label)) => {
                    let out = if session.executes() {
                        let _span =
                            telemetry::span(SpanKind::Reduce, label).with(tiles as u64, bytes, 0.0);
                        global_pool().reduce_chunks(tiles, identity.clone(), combine, tile)
                    } else {
                        identity.clone()
                    };
                    sink(out);
                }
            }
            if shadowing {
                shadow::end_loop();
            }
        };
        (kernel, body)
    }

    /// Price the launch on `session` and run `body` over parallel tiles.
    ///
    /// `body` receives sub-ranges that partition the loop range; it must
    /// write only to its tile's points (the usual OPS contract).
    pub fn run(self, session: &Session, body: impl Fn(Range3) + Sync) {
        let (kernel, f) = self.launch_body(body, NO_REDUCE);
        session.launch(&kernel, || f(session));
    }

    /// The row-sliced fast path: price the launch and run `body` once
    /// per contiguous x-row span of each tile.
    ///
    /// Bodies pull contiguous slices out of their dats with
    /// [`ReadView::row`](crate::dat::ReadView::row) /
    /// [`WriteView::row_mut`](crate::dat::WriteView::row_mut), paying
    /// the index arithmetic once per row instead of once per point (and
    /// giving the compiler vectorisable slice loops). Tiles come from
    /// the same decomposition as [`ParLoop::run`], so both paths cover
    /// identical points in identical order.
    pub fn run_rows(self, session: &Session, body: impl Fn(Row) + Sync) {
        self.run(session, each_row(body));
    }

    /// Like [`ParLoop::run`] but the loop also produces a reduction:
    /// each tile folds into a partial, partials combine in a fixed
    /// binary tree (deterministic — and exactly the reduction structure
    /// the paper's SYCL CPU fallback used). Partials live in the pool's
    /// reusable arena, so the steady path allocates nothing.
    pub fn run_reduce<A>(
        self,
        session: &Session,
        identity: A,
        combine: impl Fn(A, A) -> A + Sync,
        body: impl Fn(Range3) -> A + Sync,
    ) -> A
    where
        A: Send + Clone,
    {
        let out = Cell::new(None);
        let sink = |a| out.set(Some(a));
        let (kernel, f) = self.launch_body(body, Some(Reduce(identity, combine, sink)));
        session.launch(&kernel, || f(session));
        out.take().expect("the launch body delivers its reduction")
    }

    /// Row-sliced reduction. `body` is a *fold*: it takes the tile's
    /// running accumulator and one row, and returns the updated
    /// accumulator — so a body that walks its row slice left-to-right
    /// performs exactly the operation sequence of a per-point
    /// [`ParLoop::run_reduce`] body, making the two paths bit-identical.
    pub fn run_rows_reduce<A>(
        self,
        session: &Session,
        identity: A,
        combine: impl Fn(A, A) -> A + Sync,
        body: impl Fn(A, Row) -> A + Sync,
    ) -> A
    where
        A: Send + Sync + Clone,
    {
        let tile_body = fold_rows(identity.clone(), body);
        self.run_reduce(session, identity, combine, tile_body)
    }

    /// Record this loop into a launch graph instead of launching it.
    ///
    /// The mirror of [`ParLoop::run`]: the same kernel descriptor is
    /// priced through the same cache, and on every
    /// [`LaunchGraph::replay`](sycl_sim::LaunchGraph::replay) the same
    /// launch body runs over the identical tile decomposition — so eager
    /// and replayed ledgers are bit-identical. Shadow bracketing is
    /// evaluated at replay time, inside the body, against the replaying
    /// session.
    pub fn record<'a>(self, g: &mut GraphBuilder<'a>, body: impl Fn(Range3) + Sync + 'a) {
        let meta = self.launch_meta();
        let (kernel, f) = self.launch_body(body, NO_REDUCE);
        g.launch_with_meta(&kernel, meta, f);
    }

    /// Record the row-sliced fast path into a launch graph; the replay
    /// mirror of [`ParLoop::run_rows`].
    pub fn record_rows<'a>(self, g: &mut GraphBuilder<'a>, body: impl Fn(Row) + Sync + 'a) {
        self.record(g, each_row(body));
    }

    /// Record a reducing loop into a launch graph; the replay mirror of
    /// [`ParLoop::run_reduce`].
    ///
    /// Recorded bodies cannot return values through the graph, so the
    /// reduction result is delivered to `sink` on every replay (the
    /// identity when the session does not execute, exactly as the eager
    /// path returns it). Sinks typically store the bits into an
    /// `AtomicU64` cell the iteration loop reads back after `replay`.
    pub fn record_reduce<'a, A>(
        self,
        g: &mut GraphBuilder<'a>,
        identity: A,
        combine: impl Fn(A, A) -> A + Sync + 'a,
        body: impl Fn(Range3) -> A + Sync + 'a,
        sink: impl Fn(A) + Sync + 'a,
    ) where
        A: Send + Sync + Clone + 'a,
    {
        let meta = self.launch_meta();
        let (kernel, f) = self.launch_body(body, Some(Reduce(identity, combine, sink)));
        g.launch_with_meta(&kernel, meta, f);
    }

    /// Record a row-sliced reducing loop into a launch graph; the replay
    /// mirror of [`ParLoop::run_rows_reduce`] (see
    /// [`ParLoop::record_reduce`] for the sink contract).
    pub fn record_rows_reduce<'a, A>(
        self,
        g: &mut GraphBuilder<'a>,
        identity: A,
        combine: impl Fn(A, A) -> A + Sync + 'a,
        body: impl Fn(A, Row) -> A + Sync + 'a,
        sink: impl Fn(A) + Sync + 'a,
    ) where
        A: Send + Sync + Clone + 'a,
    {
        let tile_body = fold_rows(identity.clone(), body);
        self.record_reduce(g, identity, combine, tile_body, sink);
    }
}

/// A loop's reduction, `(identity, combine, sink)`: tile partials fold
/// from the identity with `combine`, and the result goes to the sink.
struct Reduce<A, C, S>(A, C, S);

/// The reduction slot of a loop that does not reduce.
const NO_REDUCE: Option<NoReduce> = None;
type NoReduce = Reduce<(), fn((), ()), fn(())>;

/// Adapt a row body into a tile body that runs it on each of the tile's
/// rows in order.
fn each_row(body: impl Fn(Row)) -> impl Fn(Range3) {
    move |tile| {
        for row in tile.rows() {
            body(row);
        }
    }
}

/// Adapt a row fold into a tile body: the tile's rows fold from
/// `identity` in order, the operation sequence of a per-point body.
fn fold_rows<A: Clone>(identity: A, body: impl Fn(A, Row) -> A) -> impl Fn(Range3) -> A {
    move |tile| {
        let mut acc = identity.clone();
        for row in tile.rows() {
            acc = body(acc, row);
        }
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::Block;
    use crate::dat::{Dat, ReadView, WriteView};
    use sycl_sim::{PlatformId, SessionConfig, Toolchain};

    fn session() -> Session {
        Session::create(
            SessionConfig::new(PlatformId::A100, Toolchain::NativeCuda).app("parloop-test"),
        )
        .unwrap()
    }

    #[test]
    fn footprint_follows_the_effective_bytes_rule() {
        let b = Block::new_2d(100, 100, 1);
        let u = Dat::<f64>::zeroed(&b, "u");
        let lp = ParLoop::new("k", b.interior())
            .read(u.meta(), Stencil::star_2d(1))
            .read_write(u.meta())
            .write(u.meta())
            .flops(7.0);
        let k = lp.kernel();
        let pts = 100.0 * 100.0 * 8.0;
        // read 1× + rw 2× + write 1× = 4× dataset size.
        assert!((k.footprint.effective_bytes - 4.0 * pts).abs() < 1e-9);
        assert!((k.footprint.flops - 7.0 * 100.0 * 100.0).abs() < 1e-9);
        match &k.footprint.access {
            AccessProfile::Stencil(s) => {
                assert_eq!(s.radius, [1, 1, 0]);
                assert_eq!(s.dats_read, 2);
                assert_eq!(s.dats_written, 2);
            }
            _ => panic!("expected stencil access"),
        }
    }

    #[test]
    fn f32_args_give_f32_precision() {
        let b = Block::new_3d(8, 8, 8, 1);
        let u = Dat::<f32>::zeroed(&b, "u");
        let k = ParLoop::new("k", b.interior())
            .read(u.meta(), Stencil::point())
            .write(u.meta())
            .kernel();
        assert_eq!(k.footprint.precision, Precision::F32);
    }

    #[test]
    fn run_executes_every_point_once() {
        let s = session();
        let b = Block::new_2d(37, 23, 2);
        let mut u = Dat::<f64>::zeroed(&b, "u");
        let meta = u.meta();
        let w = u.writer();
        ParLoop::new("fill", b.interior())
            .write(meta)
            .run(&s, |tile| {
                for (i, j, k) in tile.iter() {
                    w.set(i, j, k, w.get(i, j, k) + 1.0);
                }
            });
        assert_eq!(u.interior_sum(&b), (37 * 23) as f64);
        assert_eq!(s.records().len(), 1);
    }

    #[test]
    fn stencil_body_reads_neighbours_correctly() {
        let s = session();
        let b = Block::new_2d(16, 16, 1);
        let mut src = Dat::<f64>::zeroed(&b, "src");
        src.fill_with(|i, j, _| (i + 100 * j) as f64);
        let mut dst = Dat::<f64>::zeroed(&b, "dst");
        let dst_meta = dst.meta();
        let r = src.reader();
        let w = dst.writer();
        ParLoop::new("avg", b.interior())
            .read(src.meta(), Stencil::star_2d(1))
            .write(dst_meta)
            .flops(4.0)
            .run(&s, |tile| {
                for (i, j, k) in tile.iter() {
                    let v = r.at(i - 1, j, k)
                        + r.at(i + 1, j, k)
                        + r.at(i, j - 1, k)
                        + r.at(i, j + 1, k);
                    w.set(i, j, k, 0.25 * v);
                }
            });
        // Interior of a linear field is preserved by averaging.
        assert!((dst.at(5, 5, 0) - src.at(5, 5, 0)).abs() < 1e-12);
    }

    #[test]
    fn reductions_are_deterministic_and_counted() {
        let s = session();
        let b = Block::new_2d(64, 64, 1);
        let mut u = Dat::<f64>::zeroed(&b, "u");
        u.fill_with(|i, j, _| ((i * 31 + j * 7) % 13) as f64 * 0.1);
        let r = u.reader();
        let total = ParLoop::new("sum", b.interior())
            .read(u.meta(), Stencil::point())
            .run_reduce(
                &s,
                0.0f64,
                |a, b| a + b,
                |tile| {
                    let mut t = 0.0;
                    for (i, j, k) in tile.iter() {
                        t += r.at(i, j, k);
                    }
                    t
                },
            );
        let expect = u.interior_sum(&b);
        assert!((total - expect).abs() < 1e-9);
        let rec = &s.records()[0];
        assert!(rec.time.reduction > 0.0 || rec.time.total > 0.0);
    }

    #[test]
    fn run_rows_executes_every_point_once() {
        let s = session();
        let b = Block::new_2d(37, 23, 2);
        let mut u = Dat::<f64>::zeroed(&b, "u");
        let meta = u.meta();
        let w = u.writer();
        ParLoop::new("fill_rows", b.interior())
            .write(meta)
            .run_rows(&s, |row| {
                for v in w.row_mut(row) {
                    *v += 1.0;
                }
            });
        assert_eq!(u.interior_sum(&b), (37 * 23) as f64);
        assert_eq!(s.records().len(), 1);
    }

    #[test]
    fn row_and_point_stencils_agree_bitwise() {
        let s = session();
        let b = Block::new_2d(41, 29, 1);
        let mut src = Dat::<f64>::zeroed(&b, "src");
        src.fill_with(|i, j, _| ((i * 13 + j * 7) % 31) as f64 * 0.37);
        let mut d_pt = Dat::<f64>::zeroed(&b, "d_pt");
        let mut d_row = Dat::<f64>::zeroed(&b, "d_row");
        let r = src.reader();
        {
            let meta = d_pt.meta();
            let w = d_pt.writer();
            ParLoop::new("avg", b.interior())
                .read(src.meta(), Stencil::star_2d(1))
                .write(meta)
                .run(&s, |tile| {
                    for (i, j, k) in tile.iter() {
                        let v = r.at(i - 1, j, k)
                            + r.at(i + 1, j, k)
                            + r.at(i, j - 1, k)
                            + r.at(i, j + 1, k);
                        w.set(i, j, k, 0.25 * v);
                    }
                });
        }
        {
            let meta = d_row.meta();
            let w = d_row.writer();
            ParLoop::new("avg_rows", b.interior())
                .read(src.meta(), Stencil::star_2d(1))
                .write(meta)
                .run_rows(&s, |row| {
                    let c = r.row(row.grow_x(1));
                    let south = r.row(row.shift(0, -1, 0));
                    let north = r.row(row.shift(0, 1, 0));
                    let out = w.row_mut(row);
                    for x in 0..row.len() {
                        let v = c[x] + c[x + 2] + south[x] + north[x];
                        out[x] = 0.25 * v;
                    }
                });
        }
        for (i, j, k) in b.interior().iter() {
            assert_eq!(
                d_pt.at(i, j, k).to_bits(),
                d_row.at(i, j, k).to_bits(),
                "mismatch at ({i},{j},{k})"
            );
        }
    }

    #[test]
    fn row_reduce_matches_point_reduce_bitwise() {
        let s = session();
        let b = Block::new_2d(67, 45, 1);
        let mut u = Dat::<f64>::zeroed(&b, "u");
        u.fill_with(|i, j, _| ((i * 31 + j * 7) % 13) as f64 * 0.1);
        let r = u.reader();
        let by_point = ParLoop::new("sum", b.interior())
            .read(u.meta(), Stencil::point())
            .run_reduce(
                &s,
                0.0f64,
                |a, b| a + b,
                |tile| {
                    let mut t = 0.0;
                    for (i, j, k) in tile.iter() {
                        t += r.at(i, j, k);
                    }
                    t
                },
            );
        let by_row = ParLoop::new("sum_rows", b.interior())
            .read(u.meta(), Stencil::point())
            .run_rows_reduce(
                &s,
                0.0f64,
                |a, b| a + b,
                |acc, row| {
                    let mut t = acc;
                    for &v in r.row(row) {
                        t += v;
                    }
                    t
                },
            );
        assert_eq!(by_point.to_bits(), by_row.to_bits());
    }

    #[test]
    fn exec_tile_gives_full_rows_but_splits_wide_1d_loops() {
        // Tall 2-D range: full rows.
        let r2 = Range3::new_2d(0, 500, 0, 100);
        assert_eq!(exec_tile(&r2), [500, 8, 4]);
        assert_eq!(r2.tile_count(exec_tile(&r2)), 13);
        // Wide 1-row range: x splits so the pool still has work.
        let r1 = Range3::new_2d(0, 1 << 20, 0, 1);
        assert_eq!(exec_tile(&r1), [1024, 8, 4]);
        assert_eq!(r1.tile_count(exec_tile(&r1)), 1024);
    }

    /// The bodies of one iteration of the replay test, over views of
    /// its dats: a per-point stencil write, a row-sliced update, and a
    /// per-point and a row-sliced reduction.
    #[allow(clippy::type_complexity)]
    fn iteration_bodies<'v>(
        u: ReadView<'v, f64>,
        v: WriteView<'v, f64>,
    ) -> (
        impl Fn(Range3) + Sync + 'v,
        impl Fn(Row) + Sync + 'v,
        impl Fn(Range3) -> f64 + Sync + 'v,
        impl Fn(f64, Row) -> f64 + Sync + 'v,
    ) {
        let smooth = move |tile: Range3| {
            for (i, j, k) in tile.iter() {
                let sum = u.at(i - 1, j, k) + u.at(i + 1, j, k) + u.at(i, j - 1, k);
                v.set(i, j, k, 0.25 * (sum + u.at(i, j + 1, k)));
            }
        };
        let scale = move |row: Row| {
            for x in v.row_mut(row) {
                *x *= 1.1;
            }
        };
        let sum = move |tile: Range3| {
            let mut t = 0.0;
            for (i, j, k) in tile.iter() {
                t += v.get(i, j, k);
            }
            t
        };
        let sum_rows = move |acc: f64, row: Row| {
            let mut t = acc;
            for &x in v.row(row) {
                t += x;
            }
            t
        };
        (smooth, scale, sum, sum_rows)
    }

    #[test]
    fn recorded_loops_replay_bit_identically_to_eager_runs() {
        use std::sync::atomic::{AtomicU64, Ordering};

        let b = Block::new_2d(48, 36, 1);
        let fields = || {
            let mut u = Dat::<f64>::zeroed(&b, "u");
            u.fill_with(|i, j, _| (0.37 * i as f64 + 0.11 * j as f64).sin());
            (u, Dat::<f64>::zeroed(&b, "v"))
        };
        // One declaration per entry-point pair, shared by both sides.
        let smooth = |u: DatMeta, v: DatMeta| {
            ParLoop::new("smooth", b.interior())
                .read(u, Stencil::star_2d(1))
                .write(v)
                .flops(4.0)
        };
        let scale = |v: DatMeta| ParLoop::new("scale_rows", b.interior()).read_write(v);
        let sum =
            |name: &str, v: DatMeta| ParLoop::new(name, b.interior()).read(v, Stencil::point());
        let add = |a: f64, b: f64| a + b;

        let eager = session();
        let (ue, mut ve) = fields();
        let mut eager_sums = Vec::new();
        {
            let (um, vm) = (ue.meta(), ve.meta());
            let (smooth_b, scale_b, sum_b, sum_rows_b) = iteration_bodies(ue.reader(), ve.writer());
            for _ in 0..3 {
                smooth(um, vm).run(&eager, &smooth_b);
                scale(vm).run_rows(&eager, &scale_b);
                let by_tile = sum("sum", vm).run_reduce(&eager, 0.0, add, &sum_b);
                let by_row = sum("sum_rows", vm).run_rows_reduce(&eager, 0.0, add, &sum_rows_b);
                eager_sums.push([by_tile.to_bits(), by_row.to_bits()]);
            }
        }

        let replayed = session();
        let (ur, mut vr) = fields();
        let mut replay_sums = Vec::new();
        {
            let (um, vm) = (ur.meta(), vr.meta());
            let (smooth_b, scale_b, sum_b, sum_rows_b) = iteration_bodies(ur.reader(), vr.writer());
            let (tile_cell, row_cell) = (AtomicU64::new(0), AtomicU64::new(0));
            let tile_sink = |t: f64| tile_cell.store(t.to_bits(), Ordering::Relaxed);
            let row_sink = |t: f64| row_cell.store(t.to_bits(), Ordering::Relaxed);
            let mut g = replayed.record();
            smooth(um, vm).record(&mut g, &smooth_b);
            scale(vm).record_rows(&mut g, &scale_b);
            sum("sum", vm).record_reduce(&mut g, 0.0, add, &sum_b, tile_sink);
            sum("sum_rows", vm).record_rows_reduce(&mut g, 0.0, add, &sum_rows_b, row_sink);
            let graph = g.finish();
            for _ in 0..3 {
                graph.replay(&replayed);
                let load = |c: &AtomicU64| c.load(Ordering::Relaxed);
                replay_sums.push([load(&tile_cell), load(&row_cell)]);
            }
        }

        assert_eq!(eager_sums, replay_sums, "reduction results must match");
        for (i, j, k) in b.interior().iter() {
            assert_eq!(
                ve.at(i, j, k).to_bits(),
                vr.at(i, j, k).to_bits(),
                "({i},{j},{k})"
            );
        }
        assert_eq!(
            eager.ledger_digest(),
            replayed.ledger_digest(),
            "eager and replayed ledgers must be bit-identical"
        );
    }

    #[test]
    fn a_reduction_is_open_in_the_flight_recording_while_its_tiles_run() {
        // The reduce span guard writes its flight open before the tiles
        // fold; stopping the recording inside the (single) tile stands
        // in for a crash there.
        let s = session();
        let b = Block::new_2d(4, 4, 1);
        let u = Dat::<f64>::zeroed(&b, "u");
        let path = std::env::temp_dir().join(format!("flight-reduce-{}.bin", std::process::id()));
        telemetry::flight::start(&path, 0, "parloop-test").unwrap();
        ParLoop::new("flight_sum", b.interior())
            .read(u.meta(), Stencil::point())
            .run_reduce(
                &s,
                0.0,
                |a, b| a + b,
                |_| {
                    telemetry::flight::stop();
                    0.0
                },
            );
        let rec = telemetry::FlightRecording::read(&path).unwrap();
        std::fs::remove_file(&path).ok();
        let open = rec.open_spans();
        assert!(
            open.iter()
                .any(|&(kind, name, _)| kind == SpanKind::Reduce && name == "flight_sum.reduce"),
            "{open:?}"
        );
    }

    #[test]
    fn boundary_loops_are_flagged() {
        let s = session();
        let b = Block::new_2d(512, 512, 2);
        let mut u = Dat::<f64>::zeroed(&b, "u");
        let meta = u.meta();
        let w = u.writer();
        ParLoop::new("bc_left", b.face(0, -1, 2))
            .write(meta)
            .run(&s, |tile| {
                for (i, j, k) in tile.iter() {
                    w.set(i, j, k, 1.0);
                }
            });
        assert!(s.records()[0].boundary);
    }
}
