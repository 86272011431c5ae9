//! `perfbench` — the repository benchmark. See README.md.
//!
//! ```text
//! bash perfbench/run.sh --workload regen|study|functional \
//!     --seed N --seconds S --trace 0|1
//! ```
//!
//! Run from the repository root. `--trace 0` times what a user runs
//! and prints the end-to-end metrics; `--trace 1` runs every layer
//! probe plus traced and untraced ops of the workload, and prints the
//! per-layer metrics. The last line of stdout is the JSON result.

mod checks;
mod fidelity;
mod host;
mod layers;
mod report;
mod speed;
mod stats;
mod workloads;

use checks::{StudyReference, Tally};
use host::Bins;
use report::Samples;
use std::path::Path;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use workloads::Rng;

/// Fewest repeats of the set-up in a run, and the share of the
/// measured loop they take: repeated between ops, `setup_s` is a median
/// over the whole run, not over its first second.
const SETUPS: usize = 3;
const SETUP_SHARE: f64 = 0.1;
/// Fewest ops per measured loop, however slow they are.
const MIN_OPS: usize = 3;

#[derive(Clone, Copy, PartialEq)]
enum Workload {
    Regen,
    Study,
    Functional,
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: Workload::Regen,
        seed: 0,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let val = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {val}: {e}");
        match flag.as_str() {
            "--workload" => {
                args.workload = match val.as_str() {
                    "regen" => Workload::Regen,
                    "study" => Workload::Study,
                    "functional" => Workload::Functional,
                    _ => return Err(format!("unknown workload {val}")),
                }
            }
            "--seed" => args.seed = val.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = val.parse().map_err(|e| bad(&e))?,
            "--trace" => args.trace = val.parse::<u8>().map_err(|e| bad(&e))? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

/// What [`closed_loop`] asks of a workload next.
#[derive(Clone, Copy, PartialEq)]
enum Step {
    Op,
    SetUp,
}

/// Run `step(Step::Op)` closed-loop until `seconds` have passed (at
/// least [`MIN_OPS`] times). With `set_ups`, repeat `step(Step::SetUp)`
/// between ops, at least [`SETUPS`] times and while the repeats have
/// taken less than [`SETUP_SHARE`] of the loop.
fn closed_loop(
    seconds: f64,
    set_ups: bool,
    mut step: impl FnMut(Step) -> Result<(), String>,
) -> Result<(), String> {
    let begin = Instant::now();
    let deadline = begin + Duration::from_secs_f64(seconds);
    let (mut ops, mut setups, mut spent) = (0, 0, 0.0);
    while ops < MIN_OPS || Instant::now() < deadline {
        step(Step::Op)?;
        ops += 1;
        if set_ups && (setups < SETUPS || spent < SETUP_SHARE * begin.elapsed().as_secs_f64()) {
            let start = Instant::now();
            step(Step::SetUp)?;
            spent += start.elapsed().as_secs_f64();
            setups += 1;
        }
    }
    Ok(())
}

/// Run a workload's set-up, timed into `setup_s`.
fn set_up<R>(
    out: &mut Samples,
    speed: &mut speed::Reference,
    f: impl FnOnce() -> Result<R, String>,
) -> Result<R, String> {
    let start = Instant::now();
    let r = f()?;
    record(out, speed, "setup_s", start.elapsed().as_secs_f64())?;
    Ok(r)
}

/// Push the wall seconds of the op or set-up that just ended at the
/// reference host speed ([`speed::Reference`]), and beside them the raw
/// seconds and the speed factor, for the report.
fn record(
    out: &mut Samples,
    speed: &mut speed::Reference,
    name: &str,
    secs: f64,
) -> Result<(), String> {
    let factor = speed.factor()?;
    out.push(name, secs * factor);
    out.push(&format!("wall.{name}"), secs);
    out.push("speed_factor", factor);
    Ok(())
}

/// `--trace 0`: the end-to-end metrics of one workload.
fn end_to_end(args: &Args, bins: &Bins, scratch: &Path) -> Result<(Samples, Tally), String> {
    let mut out = Samples::default();
    let mut tally = Tally::default();
    let mut rng = Rng::new(args.seed);
    let mut speed = speed::Reference::new()?;
    let dir = scratch.join("op");
    let mut peak_kb = 0u64;
    let pp = match args.workload {
        Workload::Regen => {
            let reference = set_up(&mut out, &mut speed, || {
                Ok(workloads::regen_op(&bins.regen, &dir)?.1)
            })?;
            closed_loop(args.seconds, true, |step| {
                let start = Instant::now();
                match (step, workloads::regen_op(&bins.regen, &dir)) {
                    (Step::SetUp, r) => {
                        r?;
                        let secs = start.elapsed().as_secs_f64();
                        record(&mut out, &mut speed, "setup_s", secs)?;
                    }
                    (Step::Op, Ok((t, artifacts))) => {
                        record(&mut out, &mut speed, "pass_s", t)?;
                        tally.record(checks::check_artifacts(&reference, &artifacts));
                    }
                    (Step::Op, Err(e)) => tally.record(Err(e)),
                }
                Ok(())
            })?;
            fidelity::pp_err(&fidelity::simulated_pp())
        }
        Workload::Study => {
            // The set-up's warm-up op counts as failed if its output is wrong.
            let prepare = |tally: &mut Tally| -> Result<StudyReference, String> {
                let reference = StudyReference::measure()?;
                let (_, doc) = workloads::study_op(&bins.study, &dir)?;
                if let Err(e) = checks::check_study(&reference, &doc.records) {
                    tally.record(Err(e));
                }
                Ok(reference)
            };
            let reference = set_up(&mut out, &mut speed, || prepare(&mut tally))?;
            let mut last = None;
            closed_loop(args.seconds, true, |step| {
                if step == Step::SetUp {
                    return set_up(&mut out, &mut speed, || prepare(&mut tally)).map(drop);
                }
                match workloads::study_op(&bins.study, &dir) {
                    Ok((t, doc)) => {
                        record(&mut out, &mut speed, "pass_s", t)?;
                        peak_kb = peak_kb.max(doc.stats.peak_rss_kb);
                        tally.record(checks::check_study(&reference, &doc.records));
                        last = Some(doc);
                    }
                    Err(e) => tally.record(Err(e)),
                }
                Ok(())
            })?;
            let doc = last.ok_or("no study op succeeded")?;
            let pp: Vec<f64> = study::report::pp_rows(&doc.records)
                .into_iter()
                .map(|(_, v)| v)
                .collect();
            fidelity::pp_err(
                &pp.try_into()
                    .map_err(|_| "the study document lacks the six PP̄ rows")?,
            )
        }
        Workload::Functional => {
            // The set-up's warm-up op counts as failed if its output is wrong.
            let prepare = |rng: &mut Rng, tally: &mut Tally| {
                parkit::global_pool();
                let jobs = workloads::functional_jobs();
                if let Err(e) = workloads::functional_op(&jobs, rng).1 {
                    tally.record(Err(e));
                }
                jobs
            };
            let jobs = set_up(&mut out, &mut speed, || Ok(prepare(&mut rng, &mut tally)))?;
            closed_loop(args.seconds, true, |step| {
                if step == Step::SetUp {
                    return set_up(&mut out, &mut speed, || Ok(prepare(&mut rng, &mut tally)))
                        .map(drop);
                }
                let (t, outcome) = workloads::functional_op(&jobs, &mut rng);
                record(&mut out, &mut speed, "pass_s", t)?;
                tally.record(outcome);
                Ok(())
            })?;
            fidelity::pp_err(&fidelity::simulated_pp())
        }
    };
    let passes = out.get("pass_s").to_vec();
    out.extend("pass_s.p50", passes.iter().copied());
    out.extend("pass_s.tail", passes);
    // The program runs in child processes for `regen` and `study`, and
    // in this process for `functional`; this process's own high-water
    // mark also holds the benchmark's.
    peak_kb = peak_kb.max(if args.workload == Workload::Functional {
        host::self_hwm_kb()
    } else {
        host::children_peak_kb()
    });
    out.push("peak_rss_mb", peak_kb as f64 / 1024.0);
    out.push(
        "failed_frac",
        stats::failed_frac(tally.failed, tally.attempted),
    );
    out.push("pp_err", pp);
    Ok((out, tally))
}

/// `--trace 1`: every layer probe, then traced and untraced ops of the
/// workload alternating for the rest of the time.
fn traced(args: &Args, bins: &Bins, scratch: &Path) -> Result<(Samples, Tally), String> {
    let mut out = Samples::default();
    let mut tally = Tally::default();
    let mut rng = Rng::new(args.seed);
    let dir = scratch.join("op");
    parkit::global_pool();
    let regen_ref = workloads::regen_op(&bins.regen, &dir)?.1;
    let study_ref = StudyReference::measure()?;
    let jobs = workloads::functional_jobs();
    let refs = layers::Refs {
        bins,
        regen: &regen_ref,
        study: &study_ref,
        jobs: &jobs,
    };

    let start = Instant::now();
    layers::probe(&refs, scratch, &mut rng, &mut out, &mut tally)?;
    let left = args.seconds - start.elapsed().as_secs_f64();
    let (mut plain, mut instrumented) = (Vec::new(), Vec::new());
    closed_loop(left, false, |_| {
        let (untraced, traced) = match args.workload {
            Workload::Regen => {
                let (t, artifacts) = workloads::regen_op(&bins.regen, &dir)?;
                tally.record(checks::check_artifacts(&regen_ref, &artifacts));
                let (tt, artifacts) = layers::regen_traced(&mut rng, &mut out);
                tally.record(checks::check_artifacts(&regen_ref, &artifacts));
                (t, tt)
            }
            Workload::Study => {
                let (t, doc) = workloads::study_op(&bins.study, &dir)?;
                tally.record(checks::check_study(&study_ref, &doc.records));
                let (tt, doc) = layers::study_traced(bins, &dir, &mut out)?;
                tally.record(checks::check_study(&study_ref, &doc.records));
                (t, tt)
            }
            Workload::Functional => {
                let (t, outcome) = workloads::functional_op(&jobs, &mut rng);
                tally.record(outcome);
                let ((tt, outcome), _) =
                    layers::counted(|| workloads::functional_op(&jobs, &mut rng));
                tally.record(outcome);
                (t, tt)
            }
        };
        plain.push(untraced);
        instrumented.push(traced);
        Ok(())
    })?;
    out.push(
        "trace.overhead_frac",
        stats::median(&instrumented) / stats::median(&plain) - 1.0,
    );
    Ok((out, tally))
}

fn run() -> Result<(), String> {
    let args = parse_args()?;
    let bins = host::locate_bins()?;
    let prov = host::Provenance::gather();
    let scratch = host::scratch_dir(if args.trace { "trace" } else { "e2e" })?;
    let result = if args.trace {
        traced(&args, &bins, &scratch)
    } else {
        end_to_end(&args, &bins, &scratch)
    };
    let cleanup = std::fs::remove_dir_all(&scratch);
    let (samples, tally) = result?;
    cleanup.map_err(|e| format!("remove {}: {e}", scratch.display()))?;

    println!(
        "# perfbench rev={} nproc={} l2={}B llc={}B seed={} seconds={} trace={}",
        prov.rev,
        prov.nproc,
        prov.l2_bytes,
        prov.llc_bytes,
        args.seed,
        args.seconds,
        args.trace as u8
    );
    let sets: Vec<String> = layers::working_sets()
        .iter()
        .map(|(app, bytes)| format!("{app}={bytes:.0}B"))
        .collect();
    println!("# functional working sets: {}", sets.join(" "));
    println!("# tail = highest of p90/p80/p75/p70/p60/p50 with >= 10 samples beyond it");
    if !args.trace {
        println!(
            "# wall, before scaling to the reference speed: pass_s.p50={:.6e} s setup_s={:.6e} s; median speed factor {:.4}",
            stats::median(samples.get("wall.pass_s")),
            stats::median(samples.get("wall.setup_s")),
            stats::median(samples.get("speed_factor"))
        );
    }
    let metrics: Vec<(String, &str)> = if args.trace {
        report::per_layer()
    } else {
        report::END_TO_END
            .iter()
            .map(|(n, u)| (n.to_string(), *u))
            .collect()
    };
    report::emit(&samples, &metrics, &tally)
}

fn main() -> ExitCode {
    if std::env::args().nth(1).as_deref() == Some(speed::SAMPLE_FLAG) {
        speed::run_sample();
        return ExitCode::SUCCESS;
    }
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
