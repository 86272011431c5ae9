//! The three workloads' ops, exactly as a user runs them, untraced.
//!
//! * `regen` — one fresh `regenerate_all` process.
//! * `study` — one fresh `study --paper --workers 2` process.
//! * `functional` — the seven apps at test size, executing, in-process.

use crate::checks::{self, Artifacts};
use crate::host;
use portability::StudyVariant;
use std::io::Read;
use std::path::Path;
use std::process::{Command, Stdio};
use std::time::Instant;
use study::StudyDoc;
use sycl_sim::{quirks, PlatformId, Scheme, Session, SessionConfig, SyclVariant};

/// Worker processes of the `study` op.
pub const STUDY_WORKERS: usize = 2;

/// SplitMix64: the benchmark's seeded source of call orders and cells.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5eed_5eed_5eed_5eed)
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

/// Wall seconds of one child process; `Err` on a spawn failure or a
/// non-zero exit.
fn run_process(cmd: &mut Command) -> Result<f64, String> {
    let start = Instant::now();
    let mut child = cmd
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .map_err(|e| format!("spawn: {e}"))?;
    let mut err = String::new();
    if let Some(mut pipe) = child.stderr.take() {
        // Reading to the end cannot fail the op; the exit status does.
        let _ = pipe.read_to_string(&mut err);
    }
    let status = host::wait_child(child)?;
    let secs = start.elapsed().as_secs_f64();
    if status.success() {
        Ok(secs)
    } else {
        let tail: String = err.lines().rev().take(3).collect::<Vec<_>>().join(" | ");
        Err(format!("exit {status}: {tail}"))
    }
}

/// Every regular file directly under `dir`.
pub fn read_artifacts(dir: &Path) -> Result<Artifacts, String> {
    let mut out = Artifacts::new();
    for e in std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))? {
        let e = e.map_err(|e| e.to_string())?;
        if e.file_type().map_err(|e| e.to_string())?.is_file() {
            let bytes = std::fs::read(e.path()).map_err(|e| e.to_string())?;
            out.insert(e.file_name().to_string_lossy().into_owned(), bytes);
        }
    }
    Ok(out)
}

/// `regen` op: one `regenerate_all` process into a fresh `dir`.
/// Returns its wall seconds and the artifacts it wrote.
pub fn regen_op(bin: &Path, dir: &Path) -> Result<(f64, Artifacts), String> {
    host::reset_dir(dir)?;
    let secs = run_process(Command::new(bin).arg(dir))?;
    Ok((secs, read_artifacts(dir)?))
}

/// `study` op: one `study --paper --workers 2` process, default reps,
/// flight recording on, writing into a fresh `dir`. Returns its wall
/// seconds and the study document it wrote.
pub fn study_op(bin: &Path, dir: &Path) -> Result<(f64, StudyDoc), String> {
    host::reset_dir(dir)?;
    let secs = run_process(
        Command::new(bin)
            .args(["--paper", "--workers", &STUDY_WORKERS.to_string(), "--out"])
            .arg(dir),
    )?;
    let text =
        std::fs::read_to_string(dir.join("STUDY.json")).map_err(|e| format!("STUDY.json: {e}"))?;
    Ok((secs, StudyDoc::parse(&text)?))
}

/// One app (and, for MG-CFD, one scheme) of the `functional` op, with
/// every (platform, toolchain, variant) cell it is supported on.
pub struct Job {
    pub app: &'static str,
    pub scheme: Option<Scheme>,
    pub cells: Vec<(PlatformId, StudyVariant)>,
}

/// The seven apps, MG-CFD once per scheme: nine app runs per op.
pub fn functional_jobs() -> Vec<Job> {
    let platforms: Vec<PlatformId> = portability::gpu_platforms()
        .into_iter()
        .chain(portability::cpu_platforms())
        .collect();
    let mut jobs = Vec::new();
    for app in bench_harness::APP_NAMES {
        let schemes: Vec<Option<Scheme>> = if app == quirks::apps::MGCFD {
            Scheme::all().into_iter().map(Some).collect()
        } else {
            vec![None]
        };
        for scheme in schemes {
            let cells = platforms
                .iter()
                .flat_map(|&p| {
                    portability::variants_for(p)
                        .into_iter()
                        .map(move |v| (p, v))
                })
                .filter(|&(p, v)| {
                    quirks::check(app, p, v.toolchain, sycl_variant(v, [1, 1, 1]), scheme).is_none()
                })
                .collect();
            jobs.push(Job { app, scheme, cells });
        }
    }
    jobs
}

/// The SYCL formulation `portability` uses for a study column.
pub fn sycl_variant(v: StudyVariant, nd_shape: [usize; 3]) -> SyclVariant {
    if v.toolchain.is_sycl() && v.nd_range {
        SyclVariant::NdRange(nd_shape)
    } else {
        SyclVariant::Flat
    }
}

/// The session config of one cell, the way `portability` builds it.
pub fn cell_config(
    app: &dyn miniapps::App,
    platform: PlatformId,
    v: StudyVariant,
    scheme: Option<Scheme>,
) -> SessionConfig {
    let cfg = SessionConfig::new(platform, v.toolchain)
        .variant(sycl_variant(v, app.nd_shape()))
        .app(app.name());
    match scheme {
        Some(s) => cfg.scheme(s),
        None => cfg,
    }
}

/// One app run of the `functional` op on a seeded cell: build,
/// execute, validate.
fn functional_run(job: &Job, rng: &mut Rng) -> Result<(), String> {
    let (platform, v) = job.cells[rng.below(job.cells.len())];
    let app = bench_harness::make_app(job.app, false).ok_or("unknown app")?;
    let session = Session::create(cell_config(app.as_ref(), platform, v, job.scheme))
        .map_err(|f| format!("{}: {f:?}", job.app))?;
    checks::check_validation(job.app, app.run(&session).validation)
}

/// `functional` op: every job once. Returns wall seconds; `Err` names
/// the first app whose validation failed.
pub fn functional_op(jobs: &[Job], rng: &mut Rng) -> (f64, Result<(), String>) {
    let start = Instant::now();
    let mut outcome = Ok(());
    for job in jobs {
        if let Err(e) = functional_run(job, rng) {
            if outcome.is_ok() {
                outcome = Err(e);
            }
        }
    }
    (start.elapsed().as_secs_f64(), outcome)
}
