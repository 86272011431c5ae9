//! Shadow-access recording: the data-collection half of `sycl-verify`.
//!
//! When shadow mode is on, every dataset registers itself here at
//! creation and every view access (`ReadView::at`, `WriteView::set`,
//! `Accum::add`, the row-sliced spans, the op2 gather/scatter paths)
//! records the touched linear index into a **per-thread bitmap** for
//! the execution unit (tile / chunk / block) currently running. When a
//! unit finishes, its bitmaps merge into the active loop's union
//! bitmaps under one lock; the merge simultaneously detects write–write
//! and read–write overlap *between* units — exactly the races that no
//! race-resolution scheme covers, because units of one launch may run
//! concurrently. Atomic accumulations go to their own bitmap so that
//! atomic/atomic overlap is accepted while atomic/plain overlap is not.
//!
//! This module records and unions; it renders no verdicts. The
//! `sycl-verify` crate installs a [`Sink`] and turns each finished
//! [`LoopTrace`] into diagnostics. The state is process-global, so only
//! one session's loops are traced ([`trace_session`]): the DSLs open
//! loops and units only when [`traces`] names the launching session,
//! and other sessions running meanwhile stay out of the trace. Like
//! the span/counter layer, the disabled path is one branch per access
//! (a `sid != 0` register compare in the views — datasets created while
//! shadow is off carry shadow id 0), and recording only ever *observes*
//! memory, so shadow runs are bit-identical to fast-path runs.

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;

/// Process-wide shadow-mode switch.
static SHADOW: AtomicBool = AtomicBool::new(false);

/// Id of the one session whose loops are traced (0 = none).
static TRACED: AtomicU64 = AtomicU64::new(0);

/// Is shadow recording on? One relaxed load; views additionally guard
/// on their captured shadow id, so fully-disabled runs never get here.
#[inline(always)]
pub fn shadow_on() -> bool {
    SHADOW.load(Ordering::Relaxed)
}

/// Turn shadow recording on or off. Datasets only acquire shadow ids at
/// creation time, so enable *before* the instrumented run allocates.
pub fn set_shadow(on: bool) {
    SHADOW.store(on, Ordering::Relaxed);
}

/// Trace the loops of session `id` only. Datasets still register
/// whenever shadow mode is on, but loops and units of every other
/// session run untraced.
pub fn trace_session(id: u64) {
    TRACED.store(id, Ordering::Relaxed);
}

/// Are the loops of session `id` traced? One relaxed load.
#[inline]
pub fn traces(id: u64) -> bool {
    id != 0 && TRACED.load(Ordering::Relaxed) == id
}

/// Drop all shadow state: registry, traced session, active loop, sink.
/// Called by the verifier when it detaches, so one instrumented run
/// cannot leak bitmaps or stale init-tracking into the next.
pub fn reset_shadow() {
    set_shadow(false);
    trace_session(0);
    lock(&REGISTRY).clear();
    *lock(&ACTIVE) = None;
    *lock(&SINK) = None;
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

// ---------------------------------------------------------------- bits

/// A growable bitmap over a dataset's linear cell indices.
#[derive(Debug, Clone, Default)]
pub struct Bits {
    words: Vec<u64>,
}

impl Bits {
    /// Sized for `cells` bits, all zero.
    pub fn with_cells(cells: usize) -> Bits {
        Bits {
            words: vec![0; cells.div_ceil(64)],
        }
    }

    #[inline]
    pub fn set(&mut self, i: usize) {
        self.words[i >> 6] |= 1u64 << (i & 63);
    }

    /// Set `len` consecutive bits starting at `i` (row spans).
    pub fn set_span(&mut self, i: usize, len: usize) {
        let (mut w, end) = (i, i + len);
        while w < end {
            let word = w >> 6;
            let lo = w & 63;
            let hi = (end - (w - lo)).min(64);
            let mask = if hi - lo == 64 {
                !0u64
            } else {
                ((1u64 << (hi - lo)) - 1) << lo
            };
            self.words[word] |= mask;
            w = (word + 1) << 6;
        }
    }

    #[inline]
    pub fn get(&self, i: usize) -> bool {
        self.words
            .get(i >> 6)
            .is_some_and(|w| w & (1u64 << (i & 63)) != 0)
    }

    /// Number of set bits.
    pub fn count(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    pub fn any(&self) -> bool {
        self.words.iter().any(|&w| w != 0)
    }

    /// `self |= other`.
    pub fn union(&mut self, other: &Bits) {
        if self.words.len() < other.words.len() {
            self.words.resize(other.words.len(), 0);
        }
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a |= b;
        }
    }

    /// First index set in both `a` and `b`.
    pub fn first_and(a: &Bits, b: &Bits) -> Option<usize> {
        for (i, (&x, &y)) in a.words.iter().zip(&b.words).enumerate() {
            let both = x & y;
            if both != 0 {
                return Some((i << 6) + both.trailing_zeros() as usize);
            }
        }
        None
    }

    /// Iterate set-bit indices.
    pub fn ones(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(i, &w)| {
            let mut w = w;
            std::iter::from_fn(move || {
                if w == 0 {
                    None
                } else {
                    let b = w.trailing_zeros() as usize;
                    w &= w - 1;
                    Some((i << 6) + b)
                }
            })
        })
    }

    /// Zero every word, keeping the allocation.
    pub fn clear(&mut self) {
        for w in &mut self.words {
            *w = 0;
        }
    }

    /// Grow to hold at least `cells` bits, keeping contents. Needed
    /// because per-thread unit bitmaps are cached by shadow id, and ids
    /// restart when a verifier detaches and a new one attaches — the
    /// same id may name a larger dataset in the next run.
    pub fn ensure_cells(&mut self, cells: usize) {
        let need = cells.div_ceil(64);
        if self.words.len() < need {
            self.words.resize(need, 0);
        }
    }
}

// ------------------------------------------------------------ registry

/// Where a dataset's linear indices live.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DatGeom {
    /// Halo-padded structured field, x-fastest: index =
    /// `((z+off2)*pad1 + (y+off1))*pad0 + (x+off0)`.
    Grid { pad: [usize; 3], off: [i64; 3] },
    /// Unstructured set field: index = `element*dim + component`.
    Set { size: usize, dim: usize },
}

impl DatGeom {
    /// Total addressable slots.
    pub fn cells(&self) -> usize {
        match self {
            DatGeom::Grid { pad, .. } => pad[0] * pad[1] * pad[2],
            DatGeom::Set { size, dim } => size * dim,
        }
    }

    /// Logical coordinates of a linear index, for diagnostics.
    pub fn locate(&self, idx: usize) -> String {
        match self {
            DatGeom::Grid { pad, off } => {
                let x = (idx % pad[0]) as i64 - off[0];
                let y = ((idx / pad[0]) % pad[1]) as i64 - off[1];
                let z = (idx / (pad[0] * pad[1])) as i64 - off[2];
                format!("({x}, {y}, {z})")
            }
            DatGeom::Set { dim, .. } => {
                format!("element {} component {}", idx / dim, idx % dim)
            }
        }
    }

    /// Logical grid coordinates (structured only).
    pub fn grid_coords(&self, idx: usize) -> Option<[i64; 3]> {
        match self {
            DatGeom::Grid { pad, off } => Some([
                (idx % pad[0]) as i64 - off[0],
                ((idx / pad[0]) % pad[1]) as i64 - off[1],
                (idx / (pad[0] * pad[1])) as i64 - off[2],
            ]),
            DatGeom::Set { .. } => None,
        }
    }
}

struct DatRecord {
    name: String,
    elem_bytes: f64,
    geom: DatGeom,
    /// Cells written so far (by fills, ambient setup writes, or any
    /// finished loop) — the "initialized" set for uninit-read checks.
    init: Bits,
    init_all: bool,
}

static REGISTRY: Mutex<Vec<DatRecord>> = Mutex::new(Vec::new());

/// Register a dataset and get its shadow id (ids start at 1; 0 means
/// "created while shadow was off" and is never recorded).
pub fn register_dat(name: &str, elem_bytes: f64, geom: DatGeom) -> u32 {
    if !shadow_on() {
        return 0;
    }
    let mut reg = lock(&REGISTRY);
    reg.push(DatRecord {
        name: name.to_owned(),
        elem_bytes,
        geom,
        init: Bits::with_cells(geom.cells()),
        init_all: false,
    });
    reg.len() as u32
}

/// The registered name of dat `id`, for diagnostics (`None` for the
/// anonymous id 0 or after a registry reset).
pub fn dat_name(id: u32) -> Option<String> {
    if id == 0 {
        return None;
    }
    lock(&REGISTRY).get(id as usize - 1).map(|r| r.name.clone())
}

/// Mark every cell of `id` initialized (`fill_with`, host slices).
pub fn mark_all_init(id: u32) {
    if id == 0 || !shadow_on() {
        return;
    }
    if let Some(r) = lock(&REGISTRY).get_mut(id as usize - 1) {
        r.init_all = true;
    }
}

// ------------------------------------------------------- declarations

/// How a loop argument was declared.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Access {
    Read,
    Write,
    ReadWrite,
}

/// One declared loop argument, linked to a dataset by shadow id
/// (`dat == 0` when the declaration used an anonymous meta).
#[derive(Debug, Clone)]
pub struct ArgDecl {
    pub dat: u32,
    pub access: Access,
    pub radius: [usize; 3],
}

/// The declaration side of one parallel loop, captured at launch.
#[derive(Debug, Clone)]
pub struct LoopDecl {
    pub kernel: String,
    /// Structured (OPS) loops carry a real iteration box and dat-linked
    /// args; unstructured (OP2) loops only carry races/notes/footprint.
    pub structured: bool,
    pub lo: [i64; 3],
    pub hi: [i64; 3],
    pub args: Vec<ArgDecl>,
    pub flops_pp: f64,
    pub transc_pp: f64,
    /// Race-resolution scheme label for op2 loops (`None` = structured
    /// or direct loop).
    pub scheme: Option<&'static str>,
}

/// Classes of free-form observations instrumented code can attach to
/// the active loop (plan violations from the colouring validators,
/// declaration defects from the builders).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum NoteKind {
    PlanViolation,
    DeclDefect,
}

#[derive(Debug, Clone)]
pub struct Note {
    pub kind: NoteKind,
    pub text: String,
}

// ------------------------------------------------------- active loop

/// Overlap between execution units of one launch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ConflictKind {
    /// Two units plain-wrote the same cell.
    WriteWrite,
    /// One unit read a cell another plain-wrote.
    ReadWrite,
    /// Atomic and non-atomic access to the same cell.
    AtomicPlain,
}

#[derive(Debug, Clone)]
pub struct Conflict {
    pub dat: u32,
    pub cell: usize,
    pub kind: ConflictKind,
}

/// Per-dat union bitmaps for the active loop. `phase_*` reset at every
/// [`next_phase`] (one phase per launch: colour groups of one op2 loop
/// are separate launches, so cross-colour overlap is legal).
struct LoopTouch {
    read: Bits,
    write: Bits,
    atomic: Bits,
    phase_read: Bits,
    phase_write: Bits,
    phase_atomic: Bits,
}

impl LoopTouch {
    fn new(cells: usize) -> LoopTouch {
        LoopTouch {
            read: Bits::with_cells(cells),
            write: Bits::with_cells(cells),
            atomic: Bits::with_cells(cells),
            phase_read: Bits::with_cells(cells),
            phase_write: Bits::with_cells(cells),
            phase_atomic: Bits::with_cells(cells),
        }
    }
}

/// Most conflicts kept per loop (the first few name the bug; thousands
/// of repeats add nothing).
const MAX_CONFLICTS: usize = 16;

struct ActiveLoop {
    decl: LoopDecl,
    dats: Vec<(u32, LoopTouch)>,
    conflicts: Vec<Conflict>,
    notes: Vec<Note>,
    phases: u32,
}

static ACTIVE: Mutex<Option<ActiveLoop>> = Mutex::new(None);

/// Begin recording a loop. Call only for a traced session that
/// executes bodies; a loop already active is replaced (and dropped).
pub fn begin_loop(decl: LoopDecl) {
    *lock(&ACTIVE) = Some(ActiveLoop {
        decl,
        dats: Vec::new(),
        conflicts: Vec::new(),
        notes: Vec::new(),
        phases: 1,
    });
}

/// Start the next launch phase of the active loop (op2 colour groups):
/// conflict unions reset, total unions persist.
pub fn next_phase() {
    if let Some(al) = lock(&ACTIVE).as_mut() {
        al.phases += 1;
        for (_, t) in &mut al.dats {
            t.phase_read.clear();
            t.phase_write.clear();
            t.phase_atomic.clear();
        }
    }
}

/// Attach a note to the active loop (dropped when no loop is active).
pub fn note(kind: NoteKind, text: String) {
    if let Some(al) = lock(&ACTIVE).as_mut() {
        al.notes.push(Note { kind, text });
    }
}

// ------------------------------------------------------------- traces

/// What one dat experienced over one loop.
#[derive(Debug, Clone)]
pub struct DatTrace {
    pub id: u32,
    pub name: String,
    pub elem_bytes: f64,
    pub geom: DatGeom,
    pub read: Bits,
    pub write: Bits,
    pub atomic: Bits,
    /// Reads of cells never initialized by a fill, setup write, or any
    /// earlier loop (and not written by this one).
    pub uninit_reads: usize,
    pub uninit_example: Option<usize>,
}

/// The full observation of one loop, handed to the sink.
#[derive(Debug, Clone)]
pub struct LoopTrace {
    pub decl: LoopDecl,
    pub dats: Vec<DatTrace>,
    pub conflicts: Vec<Conflict>,
    pub notes: Vec<Note>,
    pub phases: u32,
}

/// Consumer of finished loop traces (installed by `sycl-verify`).
pub type Sink = Box<dyn Fn(LoopTrace) + Send + Sync>;

static SINK: Mutex<Option<Sink>> = Mutex::new(None);

/// Install the trace consumer (replacing any previous one).
pub fn install_sink(sink: Sink) {
    *lock(&SINK) = Some(sink);
}

/// Finish the active loop: compute uninit reads, fold writes into the
/// registry's init set, and hand the trace to the sink.
pub fn end_loop() {
    let Some(al) = lock(&ACTIVE).take() else {
        return;
    };
    let mut dats = Vec::with_capacity(al.dats.len());
    {
        let mut reg = lock(&REGISTRY);
        for (id, t) in al.dats {
            let Some(rec) = reg.get_mut(id as usize - 1) else {
                continue;
            };
            let mut uninit_reads = 0;
            let mut uninit_example = None;
            if !rec.init_all {
                for i in t.read.ones() {
                    if !rec.init.get(i) && !t.write.get(i) && !t.atomic.get(i) {
                        uninit_reads += 1;
                        uninit_example.get_or_insert(i);
                    }
                }
            }
            rec.init.union(&t.write);
            rec.init.union(&t.atomic);
            dats.push(DatTrace {
                id,
                name: rec.name.clone(),
                elem_bytes: rec.elem_bytes,
                geom: rec.geom,
                read: t.read,
                write: t.write,
                atomic: t.atomic,
                uninit_reads,
                uninit_example,
            });
        }
    }
    let trace = LoopTrace {
        decl: al.decl,
        dats,
        conflicts: al.conflicts,
        notes: al.notes,
        phases: al.phases,
    };
    if let Some(sink) = lock(&SINK).as_ref() {
        sink(trace);
    }
}

// ----------------------------------------------------- unit recording

struct UnitTouch {
    id: u32,
    touched: bool,
    read: Bits,
    write: Bits,
    atomic: Bits,
}

#[derive(Default)]
struct UnitState {
    depth: u32,
    dats: Vec<UnitTouch>,
}

thread_local! {
    static UNIT: RefCell<UnitState> = RefCell::new(UnitState::default());
}

/// Run one execution unit (tile / chunk / block) of a loop, recording
/// its accesses when `traced` (the launching session's
/// `Session::shadowed`); untraced units just run `f`.
#[inline]
pub fn unit<R>(traced: bool, f: impl FnOnce() -> R) -> R {
    if !traced {
        return f();
    }
    begin_unit();
    let r = f();
    end_unit();
    r
}

/// Enter one execution unit on this thread.
fn begin_unit() {
    UNIT.with(|u| u.borrow_mut().depth += 1);
}

/// Leave the unit: merge its bitmaps into the active loop and detect
/// overlap against the units already merged in this phase.
fn end_unit() {
    UNIT.with(|cell| {
        let mut u = cell.borrow_mut();
        if u.depth == 0 {
            return;
        }
        u.depth -= 1;
        if u.depth > 0 {
            return;
        }
        let mut active = lock(&ACTIVE);
        if let Some(al) = active.as_mut() {
            for t in u.dats.iter().filter(|t| t.touched) {
                let lt = match al.dats.iter_mut().find(|(id, _)| *id == t.id) {
                    Some((_, lt)) => lt,
                    None => {
                        let cells = lock(&REGISTRY)
                            .get(t.id as usize - 1)
                            .map(|r| r.geom.cells())
                            .unwrap_or(0);
                        al.dats.push((t.id, LoopTouch::new(cells)));
                        &mut al.dats.last_mut().unwrap().1
                    }
                };
                if al.conflicts.len() < MAX_CONFLICTS {
                    let found = Bits::first_and(&t.write, &lt.phase_write)
                        .map(|c| (c, ConflictKind::WriteWrite))
                        .or_else(|| {
                            Bits::first_and(&t.write, &lt.phase_read)
                                .or_else(|| Bits::first_and(&t.read, &lt.phase_write))
                                .map(|c| (c, ConflictKind::ReadWrite))
                        })
                        .or_else(|| {
                            Bits::first_and(&t.atomic, &lt.phase_write)
                                .or_else(|| Bits::first_and(&t.atomic, &lt.phase_read))
                                .or_else(|| Bits::first_and(&t.write, &lt.phase_atomic))
                                .or_else(|| Bits::first_and(&t.read, &lt.phase_atomic))
                                .map(|c| (c, ConflictKind::AtomicPlain))
                        });
                    if let Some((cell_idx, kind)) = found {
                        al.conflicts.push(Conflict {
                            dat: t.id,
                            cell: cell_idx,
                            kind,
                        });
                    }
                }
                lt.read.union(&t.read);
                lt.write.union(&t.write);
                lt.atomic.union(&t.atomic);
                lt.phase_read.union(&t.read);
                lt.phase_write.union(&t.write);
                lt.phase_atomic.union(&t.atomic);
            }
        }
        drop(active);
        for t in &mut u.dats {
            t.read.clear();
            t.write.clear();
            t.atomic.clear();
            t.touched = false;
        }
    });
}

#[derive(Clone, Copy)]
enum Kind {
    Read,
    Write,
    Atomic,
}

fn record(id: u32, idx: usize, len: usize, cells: usize, kind: Kind) {
    UNIT.with(|cell| {
        let mut u = cell.borrow_mut();
        if u.depth == 0 {
            // Ambient access (setup/validation outside any loop):
            // writes initialize, reads are unchecked.
            if matches!(kind, Kind::Write) {
                if let Some(r) = lock(&REGISTRY).get_mut(id as usize - 1) {
                    r.init.set_span(idx, len);
                }
            }
            return;
        }
        let t = match u.dats.iter_mut().position(|t| t.id == id) {
            Some(p) => {
                let t = &mut u.dats[p];
                t.read.ensure_cells(cells);
                t.write.ensure_cells(cells);
                t.atomic.ensure_cells(cells);
                t
            }
            None => {
                u.dats.push(UnitTouch {
                    id,
                    touched: false,
                    read: Bits::with_cells(cells),
                    write: Bits::with_cells(cells),
                    atomic: Bits::with_cells(cells),
                });
                u.dats.last_mut().unwrap()
            }
        };
        t.touched = true;
        let bits = match kind {
            Kind::Read => &mut t.read,
            Kind::Write => &mut t.write,
            Kind::Atomic => &mut t.atomic,
        };
        if len == 1 {
            bits.set(idx);
        } else {
            bits.set_span(idx, len);
        }
    });
}

/// Record a single-cell read. `cells` sizes the bitmap on first touch.
#[inline]
pub fn record_read(id: u32, idx: usize, cells: usize) {
    if id != 0 && shadow_on() {
        record(id, idx, 1, cells, Kind::Read);
    }
}

/// Record a contiguous read span (row slices).
#[inline]
pub fn record_read_span(id: u32, idx: usize, len: usize, cells: usize) {
    if id != 0 && shadow_on() && len > 0 {
        record(id, idx, len, cells, Kind::Read);
    }
}

/// Record a single-cell plain write.
#[inline]
pub fn record_write(id: u32, idx: usize, cells: usize) {
    if id != 0 && shadow_on() {
        record(id, idx, 1, cells, Kind::Write);
    }
}

/// Record a contiguous write span (mutable row slices — conservatively
/// also a read span, since the body may read through the slice).
#[inline]
pub fn record_write_span(id: u32, idx: usize, len: usize, cells: usize) {
    if id != 0 && shadow_on() && len > 0 {
        record(id, idx, len, cells, Kind::Read);
        record(id, idx, len, cells, Kind::Write);
    }
}

/// Record an atomic read-modify-write.
#[inline]
pub fn record_atomic(id: u32, idx: usize, cells: usize) {
    if id != 0 && shadow_on() {
        record(id, idx, 1, cells, Kind::Atomic);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Shadow state is process-global; this module's tests share one
    // lock so they cannot interleave.
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    fn grid4() -> DatGeom {
        DatGeom::Grid {
            pad: [4, 4, 1],
            off: [0, 0, 0],
        }
    }

    fn decl(kernel: &str) -> LoopDecl {
        LoopDecl {
            kernel: kernel.to_owned(),
            structured: true,
            lo: [0, 0, 0],
            hi: [4, 4, 1],
            args: Vec::new(),
            flops_pp: 0.0,
            transc_pp: 0.0,
            scheme: None,
        }
    }

    fn capture(run: impl FnOnce()) -> Vec<LoopTrace> {
        let traces = std::sync::Arc::new(Mutex::new(Vec::new()));
        let sink_traces = std::sync::Arc::clone(&traces);
        install_sink(Box::new(move |t| sink_traces.lock().unwrap().push(t)));
        run();
        let out = traces.lock().unwrap().clone();
        reset_shadow();
        out
    }

    #[test]
    fn bits_spans_and_iteration() {
        let mut b = Bits::with_cells(200);
        b.set_span(60, 70);
        assert_eq!(b.count(), 70);
        assert!(b.get(60) && b.get(129) && !b.get(59) && !b.get(130));
        assert_eq!(b.ones().next(), Some(60));
        let mut c = Bits::with_cells(200);
        c.set(100);
        assert_eq!(Bits::first_and(&b, &c), Some(100));
    }

    #[test]
    fn units_merge_and_conflicts_are_detected() {
        let _l = lock(&TEST_LOCK);
        let traces = capture(|| {
            set_shadow(true);
            let id = register_dat("u", 8.0, grid4());
            begin_loop(decl("k"));
            begin_unit();
            record_write(id, 3, 16);
            record_read(id, 2, 16);
            end_unit();
            begin_unit();
            record_write(id, 3, 16); // same cell as unit 1: WW race
            end_unit();
            end_loop();
        });
        assert_eq!(traces.len(), 1);
        let t = &traces[0];
        assert_eq!(t.conflicts.len(), 1);
        assert_eq!(t.conflicts[0].kind, ConflictKind::WriteWrite);
        assert_eq!(t.conflicts[0].cell, 3);
        assert_eq!(t.dats[0].write.count(), 1);
        assert_eq!(t.dats[0].read.count(), 1);
    }

    #[test]
    fn atomic_overlap_is_not_a_conflict_and_phases_reset() {
        let _l = lock(&TEST_LOCK);
        let traces = capture(|| {
            set_shadow(true);
            let id = register_dat("acc", 8.0, DatGeom::Set { size: 8, dim: 1 });
            begin_loop(decl("flux"));
            for _ in 0..2 {
                begin_unit();
                record_atomic(id, 5, 8);
                end_unit();
            }
            // New phase: a plain write over the old cells is legal.
            next_phase();
            begin_unit();
            record_write(id, 5, 8);
            end_unit();
            end_loop();
        });
        assert!(traces[0].conflicts.is_empty(), "{:?}", traces[0].conflicts);
        assert_eq!(traces[0].phases, 2);
    }

    #[test]
    fn uninit_reads_are_counted_and_writes_initialize() {
        let _l = lock(&TEST_LOCK);
        let traces = capture(|| {
            set_shadow(true);
            let id = register_dat("u", 8.0, grid4());
            begin_loop(decl("first"));
            begin_unit();
            record_read(id, 7, 16); // never initialized
            record_write(id, 1, 16);
            end_unit();
            end_loop();
            begin_loop(decl("second"));
            begin_unit();
            record_read(id, 1, 16); // initialized by loop "first"
            end_unit();
            end_loop();
        });
        assert_eq!(traces[0].uninit(), (1, Some(7)));
        assert_eq!(traces[1].uninit(), (0, None));
    }

    impl LoopTrace {
        fn uninit(&self) -> (usize, Option<usize>) {
            (self.dats[0].uninit_reads, self.dats[0].uninit_example)
        }
    }

    #[test]
    fn ambient_writes_initialize_without_a_loop() {
        let _l = lock(&TEST_LOCK);
        let traces = capture(|| {
            set_shadow(true);
            let id = register_dat("u", 8.0, grid4());
            record_write(id, 9, 16); // setup outside any loop
            begin_loop(decl("k"));
            begin_unit();
            record_read(id, 9, 16);
            end_unit();
            end_loop();
        });
        assert_eq!(traces[0].dats[0].uninit_reads, 0);
    }

    #[test]
    fn only_the_named_session_is_traced_and_untraced_units_stay_out() {
        let _l = lock(&TEST_LOCK);
        trace_session(7);
        assert!(traces(7) && !traces(8) && !traces(0));
        let traces_seen = capture(|| {
            set_shadow(true);
            let id = register_dat("u", 8.0, grid4());
            begin_loop(decl("k"));
            unit(true, || record_write(id, 3, 16));
            unit(false, || record_write(id, 5, 16)); // another session's unit
            end_loop();
        });
        assert!(!traces(7), "reset clears the traced session");
        let write = &traces_seen[0].dats[0].write;
        assert!(write.get(3) && !write.get(5));
    }

    #[test]
    fn disabled_mode_records_nothing() {
        let _l = lock(&TEST_LOCK);
        assert_eq!(register_dat("u", 8.0, grid4()), 0);
        record_read(0, 3, 16);
        assert!(lock(&ACTIVE).is_none());
    }

    #[test]
    fn geometry_locates_cells() {
        let g = DatGeom::Grid {
            pad: [6, 4, 2],
            off: [1, 1, 0],
        };
        assert_eq!(g.locate(0), "(-1, -1, 0)");
        assert_eq!(g.grid_coords(6 * 4 + 7), Some([0, 0, 1]));
        let s = DatGeom::Set { size: 10, dim: 5 };
        assert_eq!(s.locate(12), "element 2 component 2");
    }
}
