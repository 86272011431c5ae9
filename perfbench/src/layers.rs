//! The traced run: timers around calls into each module's public
//! functions, plus snapshots of the existing `telemetry::counters()`.
//! Nothing here adds tracing inside the program.
//!
//! Times are taken with telemetry off. The counters only count while
//! telemetry is on, so counts come from separate, untimed passes.

use crate::checks::{self, Artifacts, StudyReference, Tally};
use crate::host::{self, Bins};
use crate::report::{Samples, APPS, SCHEMES};
use crate::workloads::{self, Job, Rng, STUDY_WORKERS};
use miniapps::App;
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::Instant;
use study::orchestrator::{run_study, StudyConfig};
use study::{Scope, StudyDoc, UnitStatus};
use sycl_sim::{
    GraphNodeInfo, GraphSummary, PlatformId, Scheme, Session, SessionConfig, Toolchain, TransferDir,
};
use telemetry::{CounterSnapshot, TelemetryConfig};

/// Repetitions of each in-process layer timing.
const REPS: usize = 5;

/// Run `f` with telemetry on and return what the counters saw.
pub fn counted<R>(f: impl FnOnce() -> R) -> (R, CounterSnapshot) {
    TelemetryConfig::enabled().ring_capacity(256).install();
    let before = telemetry::counters().snapshot();
    let r = f();
    let delta = telemetry::counters().snapshot().since(&before);
    TelemetryConfig::disabled().install();
    // Drain the span rings so they do not grow across passes.
    drop(telemetry::flush());
    (r, delta)
}

fn secs<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let start = Instant::now();
    let r = f();
    (r, start.elapsed().as_secs_f64())
}

/// The artifact groups of one `regenerate_all` pass, in its order,
/// each named after the per-layer metric that times it.
type Group = (&'static str, fn() -> Vec<(String, String)>);

const GROUPS: [Group; 6] = [
    ("bench.table1_s", table1),
    ("bench.figures_s", figures),
    ("bench.heatmaps_s", heatmaps),
    ("bench.aggregates_s", aggregates),
    ("bench.ablations_s", ablations),
    ("bench.csv_s", csv),
];

fn table1() -> Vec<(String, String)> {
    vec![("table1.txt".into(), bench_harness::table1_text())]
}

fn figures() -> Vec<(String, String)> {
    let mut out = Vec::new();
    let platforms = portability::gpu_platforms()
        .into_iter()
        .chain(portability::cpu_platforms());
    for p in platforms {
        out.push((
            format!("fig_structured_{}.txt", p.label()),
            bench_harness::figure_structured_text(p),
        ));
    }
    for (name, platforms) in [
        ("fig8_mgcfd_gpu.txt", portability::gpu_platforms()),
        ("fig9_mgcfd_cpu.txt", portability::cpu_platforms()),
    ] {
        let mut text = String::new();
        for p in platforms {
            text.push_str(&bench_harness::figure_mgcfd_text(p));
            text.push('\n');
        }
        out.push((name.into(), text));
    }
    out
}

fn heatmaps() -> Vec<(String, String)> {
    vec![
        (
            "fig10_efficiency.txt".into(),
            bench_harness::figure10_text(),
        ),
        (
            "fig11_efficiency_mgcfd.txt".into(),
            bench_harness::figure11_text(),
        ),
    ]
}

fn aggregates() -> Vec<(String, String)> {
    vec![
        ("summary_stats.txt".into(), bench_harness::summary_text()),
        ("gpu_gaps.txt".into(), bench_harness::gpu_gaps_text()),
        ("conclusions.txt".into(), bench_harness::conclusions_text()),
        (
            "boundary_fractions.txt".into(),
            bench_harness::boundary_fractions_text(),
        ),
    ]
}

fn ablations() -> Vec<(String, String)> {
    use bench_harness::ablation;
    vec![
        ("consistency_stats.txt".into(), ablation::consistency_text()),
        (
            "ablation_workgroup.txt".into(),
            ablation::workgroup_sweep_text(),
        ),
        (
            "ablation_ordering.txt".into(),
            ablation::ordering_sweep_text(),
        ),
        ("ablation_cache.txt".into(), ablation::cache_sweep_text()),
        (
            "ablation_blocksize.txt".into(),
            ablation::block_size_sweep_text(),
        ),
    ]
}

fn csv() -> Vec<(String, String)> {
    let mut all = bench_harness::all_structured();
    all.extend(bench_harness::all_mgcfd());
    vec![("measurements.csv".into(), portability::write_csv(&all))]
}

/// One in-process `regenerate_all` pass, groups in seeded order, each
/// timed into `out`. Returns the pass seconds and the artifacts.
pub fn regen_traced(rng: &mut Rng, out: &mut Samples) -> (f64, Artifacts) {
    let mut order: Vec<usize> = (0..GROUPS.len()).collect();
    rng.shuffle(&mut order);
    let mut artifacts = Artifacts::new();
    let mut total = 0.0;
    for i in order {
        let (name, group) = GROUPS[i];
        let (files, t) = secs(group);
        out.push(name, t);
        total += t;
        for (file, text) in files {
            artifacts.insert(file, text.into_bytes());
        }
    }
    (total, artifacts)
}

/// One in-process study (the `study --paper --workers 2` fleet driven
/// through `study::run_study`), its documents written into `dir`.
/// Returns the pass seconds and the study document.
pub fn study_traced(bins: &Bins, dir: &Path, out: &mut Samples) -> Result<(f64, StudyDoc), String> {
    host::reset_dir(dir)?;
    let cfg = study_config(bins, dir);
    let start = Instant::now();
    let outcome = run_study(&cfg)?;
    let walls: Vec<f64> = outcome.records.iter().map(|r| r.wall_secs * 1e6).collect();
    let s = outcome.stats;
    let (doc, report_s) = secs(|| -> Result<StudyDoc, String> {
        let doc = StudyDoc {
            scope: cfg.scope,
            shard: None,
            workers: cfg.workers as u32,
            stats: s,
            records: outcome.records,
        };
        std::fs::write(dir.join("STUDY.json"), doc.to_json()).map_err(|e| e.to_string())?;
        std::fs::write(dir.join("BENCH_study.json"), outcome.merged.to_json())
            .map_err(|e| e.to_string())?;
        Ok(doc)
    });
    let doc = doc?;
    let pass = start.elapsed().as_secs_f64();
    let workers = s.workers.max(1) as f64;
    out.push("study.elapsed_s", s.elapsed_secs);
    out.push("study.busy_s", s.busy_secs);
    out.push(
        "study.utilisation",
        s.busy_secs / (workers * s.elapsed_secs),
    );
    out.push(
        "study.fleet_overhead_s",
        s.elapsed_secs - s.busy_secs / workers,
    );
    out.extend("study.unit_wall_us.p50", walls.iter().copied());
    out.extend("study.unit_wall_us.tail", walls);
    out.push("study.report_s", report_s);
    out.push("study.bytes_written", host::dir_bytes(dir) as f64);
    out.push("study.retries", s.retries as f64);
    out.push("study.restarts", s.restarts as f64);
    out.push("study.timeouts", s.timeouts as f64);
    Ok((pass, doc))
}

/// The config `study --paper --workers 2 --out <dir>` builds.
fn study_config(bins: &Bins, dir: &Path) -> StudyConfig {
    let mut cfg = StudyConfig::new(Scope::Paper);
    cfg.workers = STUDY_WORKERS;
    cfg.worker_cmd = vec![bins.study.to_string_lossy().into_owned()];
    cfg.journal = Some(dir.join("study.journal"));
    cfg.flight_dir = Some(dir.join("flight"));
    cfg
}

/// `run_study` over a one-unit shard: spawn, handshake, one dispatch,
/// teardown and merge.
fn study_fixed_cost(bins: &Bins, dir: &Path) -> Result<f64, String> {
    host::reset_dir(dir)?;
    let mut cfg = study_config(bins, dir);
    cfg.shard = Some((1, study::paper_units().len()));
    let (outcome, t) = secs(|| run_study(&cfg));
    match outcome?.records.as_slice() {
        [rec] if rec.status != UnitStatus::Crashed => Ok(t),
        other => Err(format!("one-unit study ended with {} records", other.len())),
    }
}

/// Where a session's communication time went: per replayed graph,
/// the comm clock's advance is charged to the graph's kind. Staging
/// and readback graphs hold transfers; main-loop graphs hold halo
/// exchanges; the seven apps never mix the two in one graph.
#[derive(Default)]
struct CommSplit {
    last: f64,
    exchanging: bool,
    transfer_s: f64,
    exchange_s: f64,
    h2d_bytes: f64,
}

impl CommSplit {
    fn settle(&mut self, now: f64) {
        let dt = now - self.last;
        if self.exchanging {
            self.exchange_s += dt;
        } else {
            self.transfer_s += dt;
        }
        self.last = now;
    }

    /// Install the splitter as `session`'s graph observer.
    fn attach(session: &Arc<Session>) -> Arc<Mutex<CommSplit>> {
        let split = Arc::new(Mutex::new(CommSplit::default()));
        let (weak, state) = (Arc::downgrade(session), Arc::clone(&split));
        session.set_graph_observer(Some(Arc::new(move |g: &GraphSummary| {
            let Some(s) = weak.upgrade() else { return };
            let mut st = state.lock().expect("comm split poisoned");
            st.settle(s.comm_time());
            st.exchanging = false;
            for n in &g.nodes {
                match n {
                    GraphNodeInfo::Exchange { .. } => st.exchanging = true,
                    GraphNodeInfo::Transfer {
                        bytes,
                        dir: TransferDir::H2D,
                        ..
                    } => st.h2d_bytes += bytes,
                    _ => {}
                }
            }
        })));
        split
    }

    /// Detach and charge the comm time since the last graph.
    fn finish(session: &Arc<Session>, split: &Mutex<CommSplit>) -> (f64, f64, f64) {
        session.set_graph_observer(None);
        let mut st = split.lock().expect("comm split poisoned");
        st.settle(session.comm_time());
        (st.transfer_s, st.exchange_s, st.h2d_bytes)
    }
}

/// Bytes each app stages host→device at test size on the A100: the
/// computed working set of one `functional` run.
pub fn working_sets() -> Vec<(&'static str, f64)> {
    APPS.iter()
        .map(|&name| {
            let app = bench_harness::make_app(name, false).expect("known app");
            let session =
                Arc::new(Session::create(fixed_cell(app.as_ref())).expect("A100 runs all"));
            let split = CommSplit::attach(&session);
            app.run(&session);
            (name, CommSplit::finish(&session, &split).2)
        })
        .collect()
}

/// The fixed cell of the in-process app timings: A100, native CUDA,
/// MG-CFD with atomics.
fn fixed_cell(app: &dyn App) -> SessionConfig {
    let cfg = SessionConfig::new(PlatformId::A100, Toolchain::NativeCuda).app(app.name());
    if app.name() == "mgcfd" {
        cfg.scheme(Scheme::Atomics)
    } else {
        cfg
    }
}

/// The 306-unit paper sweep through owned sessions: session create and
/// observe timings, and the exact simulated split (`sim.*`).
fn sim_sweep(reference: &StudyReference, out: &mut Samples, tally: &mut Tally) {
    let mut sum = [0.0f64; 5]; // kernel, launch overhead, transfer, exchange, boundary
    let (mut real, mut elided, mut holes) = (0u64, 0u64, 0u64);
    let mut digest: u64 = 0xcbf2_9ce4_8422_2325;
    for (u, want) in reference.units.iter().zip(&reference.expected) {
        let app = bench_harness::make_app(&u.app, true).expect("known app");
        let cfg = workloads::cell_config(app.as_ref(), u.platform, u.variant, u.scheme).dry_run();
        let (created, create_s) = secs(|| Session::create(cfg));
        let session = match created {
            Ok(s) => Arc::new(s),
            Err(_) => {
                holes += 1;
                continue;
            }
        };
        out.push("session.create_us.p50", create_s * 1e6);
        let split = CommSplit::attach(&session);
        let run = app.run(&session);
        let (transfer, exchange, _) = CommSplit::finish(&session, &split);

        let (observed, observe_s) = secs(|| {
            (
                session.elapsed(),
                session.effective_bandwidth(),
                session.boundary_fraction(),
                session.kernel_summary().len(),
                session.ledger_digest(),
            )
        });
        out.push("session.observe_us.p50", observe_s * 1e6);
        std::hint::black_box(&observed);

        tally.record(match want {
            checks::Expected::Ok { sim_secs, .. } if run.elapsed.to_bits() == *sim_secs => Ok(()),
            _ => Err(format!(
                "{}: owned-session sweep disagrees with portability",
                u.id()
            )),
        });
        for r in session.records().iter() {
            sum[0] += r.time.total - r.time.launch;
            sum[1] += r.time.launch;
            if r.boundary {
                sum[4] += r.time.total;
            }
        }
        sum[2] += transfer;
        sum[3] += exchange;
        let ts = session.transfer_stats();
        real += ts.real;
        elided += ts.elided;
        digest = (digest ^ observed.4).wrapping_mul(0x100_0000_01b3);
    }
    for (name, v) in [
        "kernel_s",
        "launch_overhead_s",
        "transfer_s",
        "exchange_s",
        "boundary_s",
    ]
    .iter()
    .zip(sum)
    {
        out.push(&format!("sim.{name}"), v);
    }
    out.push("sim.transfers_real", real as f64);
    out.push("sim.transfers_elided", elided as f64);
    out.push("sim.holes", holes as f64);
    // 53 bits, so the digest survives as an exact JSON number.
    out.push("sim.ledger_digest", (digest >> 11) as f64);
}

/// `portability`: the 306-unit sweep, timed, and its launch count.
fn sweep_launches(out: &mut Samples) -> u64 {
    let sweep = || {
        let mut all = bench_harness::all_structured();
        all.extend(bench_harness::all_mgcfd());
        all.len()
    };
    for _ in 0..REPS {
        out.push("portability.sweep_s", secs(sweep).1);
    }
    counted(sweep).1.launches
}

/// Paper-size dry runs and test-size live runs of every app on the
/// fixed cell; execute share and per-launch costs.
fn app_runs(out: &mut Samples, tally: &mut Tally) {
    let run = |app: &dyn App, dry: bool| -> (f64, u64) {
        let cfg = fixed_cell(app);
        let session =
            Session::create(if dry { cfg.dry_run() } else { cfg }).expect("A100 runs all");
        let t = secs(|| app.run(&session)).1;
        (t, session.ledger_digest())
    };
    let median_of = |app: &dyn App, dry: bool| -> f64 {
        let mut v: Vec<f64> = (0..REPS).map(|_| run(app, dry).0).collect();
        v.sort_by(f64::total_cmp);
        v[REPS / 2]
    };
    let (mut dry_s, mut dry_launches, mut func_s, mut func_launches) = (0.0, 0u64, 0.0, 0u64);
    for name in APPS {
        let paper = bench_harness::make_app(name, true).expect("known app");
        for _ in 0..REPS {
            out.push(
                &format!("miniapps.dry_run_us.{name}"),
                run(paper.as_ref(), true).0 * 1e6,
            );
        }
        dry_s += median_of(paper.as_ref(), true);
        dry_launches += counted(|| run(paper.as_ref(), true)).1.launches;

        let test = bench_harness::make_app(name, false).expect("known app");
        let live: Vec<f64> = (0..REPS).map(|_| run(test.as_ref(), false).0).collect();
        out.extend(
            &format!("miniapps.func_run_ms.{name}"),
            live.iter().map(|t| t * 1e3),
        );
        let live_s = crate::stats::median(&live);
        func_s += live_s;
        func_launches += counted(|| run(test.as_ref(), false)).1.launches;
        if name != "mgcfd" {
            // Dry and live ledgers of a structured app are bit-identical,
            // so the difference in wall time is the execute stage.
            let dry = median_of(test.as_ref(), true);
            out.push(&format!("execute.share.{name}"), (live_s - dry) / live_s);
            let same = run(test.as_ref(), true).1 == run(test.as_ref(), false).1;
            tally.record(if same {
                Ok(())
            } else {
                Err(format!("{name}: dry and live test-size ledgers differ"))
            });
        }
    }
    out.push(
        "launch.dry_ns_per_launch",
        dry_s * 1e9 / dry_launches.max(1) as f64,
    );
    out.push(
        "launch.func_us_per_launch",
        func_s * 1e6 / func_launches.max(1) as f64,
    );
}

/// `op2`: the MG-CFD test hierarchy and its colouring plans.
fn op2_builds(out: &mut Samples) {
    let build = || op2_dsl::MgHierarchy::build(12, 12, 8, 3, op2_dsl::Ordering::Natural);
    for _ in 0..REPS {
        out.push("op2.mesh_build_us", secs(build).1 * 1e6);
    }
    let finest = build().meshes.expect("built meshes").swap_remove(0);
    for (label, scheme) in SCHEMES.iter().zip(Scheme::all()) {
        for _ in 0..REPS {
            let mesh = finest.clone();
            let t = secs(|| op2_dsl::parloop::ColoredMesh::prepare(mesh, scheme, 256)).1;
            out.push(&format!("op2.plan_build_us.{label}"), t * 1e6);
        }
    }
}

/// The references the traced run checks against.
pub struct Refs<'a> {
    pub bins: &'a Bins,
    pub regen: &'a Artifacts,
    pub study: &'a StudyReference,
    pub jobs: &'a [Job],
}

/// Every layer probe once: the per-layer metrics of any workload.
pub fn probe(
    refs: &Refs<'_>,
    scratch: &Path,
    rng: &mut Rng,
    out: &mut Samples,
    tally: &mut Tally,
) -> Result<(), String> {
    let launches_per_sweep = sweep_launches(out);
    sim_sweep(refs.study, out, tally);
    app_runs(out, tally);
    op2_builds(out);

    // The regen pass: timed, then counted.
    let (_, artifacts) = regen_traced(rng, out);
    tally.record(checks::check_artifacts(refs.regen, &artifacts));
    let (_, c) = counted(|| regen_traced(rng, &mut Samples::default()));
    out.push("launch.count", c.launches as f64);
    out.push("price.cache_hits", c.pricing_cache_hits as f64);
    out.push("price.cache_misses", c.pricing_cache_misses as f64);
    let priced = (c.pricing_cache_hits + c.pricing_cache_misses).max(1);
    out.push(
        "price.hit_ratio",
        c.pricing_cache_hits as f64 / priced as f64,
    );
    out.push(
        "portability.sweeps_per_pass",
        c.launches as f64 / launches_per_sweep.max(1) as f64,
    );
    out.push("regen.stale_artifacts", stale_artifacts(refs.regen) as f64);

    // The study fleet, and its fixed cost.
    let (_, doc) = study_traced(refs.bins, &scratch.join("study-traced"), out)?;
    tally.record(checks::check_study(refs.study, &doc.records));
    for _ in 0..3 {
        let t = study_fixed_cost(refs.bins, &scratch.join("study-fixed"))?;
        out.push("study.fixed_cost_s", t);
    }

    // The functional op, counted.
    let ((_, outcome), c) = counted(|| workloads::functional_op(refs.jobs, rng));
    tally.record(outcome);
    for (name, v) in [
        ("parkit.regions", c.regions),
        ("parkit.steals", c.steals),
        ("parkit.parks", c.parks),
        ("parkit.wakes", c.wakes),
    ] {
        out.push(name, v as f64);
    }
    out.push(
        "parkit.regions_per_launch",
        c.regions as f64 / c.launches.max(1) as f64,
    );

    let errors = crate::fidelity::pp_errors(&crate::fidelity::simulated_pp());
    for ((variant, _), e) in crate::fidelity::PAPER_PP.iter().zip(errors) {
        out.push(&format!("fidelity.pp.{variant}_err"), e);
    }
    Ok(())
}

/// Committed `results/*.txt` whose text differs from the regenerated.
pub fn stale_artifacts(regenerated: &Artifacts) -> usize {
    let Ok(entries) = std::fs::read_dir("results") else {
        return 0;
    };
    entries
        .flatten()
        .filter(|e| e.file_name().to_string_lossy().ends_with(".txt"))
        .filter(|e| {
            let name = e.file_name().to_string_lossy().into_owned();
            std::fs::read(e.path()).ok().as_ref() != regenerated.get(&name)
        })
        .count()
}
