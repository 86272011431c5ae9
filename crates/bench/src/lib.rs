//! # bench-harness — regenerates every table and figure of the paper
//!
//! Each `fig*` binary prints the rows/series of one artifact:
//!
//! | Binary | Paper artifact |
//! |--------|----------------|
//! | `table1` | Table 1 — STREAM Triad bandwidth per platform |
//! | `fig2_structured_gpu -- a100\|mi250x\|max1100` | Figures 2–4 — structured app runtimes on GPUs |
//! | `fig5_structured_cpu -- xeon8360y\|genoax\|altra` | Figures 5–7 — structured app runtimes on CPUs |
//! | `fig8_mgcfd_gpu` | Figure 8 — MG-CFD runtimes on GPUs |
//! | `fig9_mgcfd_cpu` | Figure 9 — MG-CFD runtimes on CPUs |
//! | `fig10_efficiency` | Figure 10 — structured-mesh efficiency heatmap |
//! | `fig11_efficiency_mgcfd` | Figure 11 — MG-CFD efficiency heatmap |
//! | `summary_stats` | §4.1–§4.4 in-text aggregates and PP̄ values |
//!
//! Every figure and aggregate is a view of one [`Sweep`] of the paper's
//! 306 units. Each `*_text()` entry point measures what its view needs
//! and renders it through the matching `*_of(&Sweep)` function;
//! `regenerate_all` measures one full sweep and renders [`artifacts`]
//! from it, so one pass measures each unit once.
//!
//! The same functions are exercised by the criterion benches in
//! `benches/figures.rs`, so `cargo bench` regenerates everything too.

pub mod ablation;
pub mod json;

use babelstream::BabelStream;
use portability::{
    all_platforms, cpu_platforms, format_table, gpu_platforms, mean, measure_structured, pennycook,
    std_dev, structured_measurements, unstructured_measurements, variants_for, write_csv, MeasCell,
    Measurement, StudyVariant, Sweep,
};
use sycl_sim::{quirks::apps, PlatformId, Scheme, Session, SessionConfig, Toolchain};

/// Table 1: (platform, native toolchain, simulated Triad GB/s).
pub fn table1_rows() -> Vec<(PlatformId, Toolchain, f64)> {
    let cases = [
        (PlatformId::Mi250x, Toolchain::NativeHip),
        (PlatformId::A100, Toolchain::NativeCuda),
        (PlatformId::Max1100, Toolchain::Dpcpp),
        (PlatformId::Xeon8360Y, Toolchain::MpiOpenMp),
        (PlatformId::GenoaX, Toolchain::MpiOpenMp),
        (PlatformId::Altra, Toolchain::OpenMp),
    ];
    cases
        .into_iter()
        .map(|(p, tc)| {
            let session = Session::create(SessionConfig::new(p, tc).app("babelstream").dry_run())
                .expect("the Table-1 toolchains run BabelStream everywhere");
            let n = babelstream::table1_len(session.platform());
            let bw = BabelStream::triad_bandwidth(&session, n, 20);
            (p, tc, bw / 1e9)
        })
        .collect()
}

/// Render Table 1 as text.
pub fn table1_text() -> String {
    let mut out = String::from("## Table 1: Achieved bandwidth on STREAM Triad (BabelStream)\n");
    for (p, tc, gbs) in table1_rows() {
        out.push_str(&format!(
            "{:32} {:12} {:7.0} GB/s\n",
            sycl_sim::Platform::get(p).name,
            tc.label(),
            gbs
        ));
    }
    out
}

/// Every artifact `regenerate_all` writes, as (file name, text) in
/// write order. Everything except Table 1 and the four ablation sweeps
/// is a pure rendering of `sweep`, so one pass measures each paper unit
/// once.
pub fn artifacts(sweep: &Sweep) -> Vec<(String, String)> {
    let mut out = vec![("table1.txt".to_owned(), table1_text())];
    for p in all_platforms() {
        out.push((
            format!("fig_structured_{}.txt", p.label()),
            figure_structured_text_of(sweep, p),
        ));
    }
    let rendered = [
        (
            "fig8_mgcfd_gpu.txt",
            mgcfd_panels_text(sweep, &gpu_platforms()),
        ),
        (
            "fig9_mgcfd_cpu.txt",
            mgcfd_panels_text(sweep, &cpu_platforms()),
        ),
        ("fig10_efficiency.txt", figure10_text_of(sweep)),
        ("fig11_efficiency_mgcfd.txt", figure11_text_of(sweep)),
        ("summary_stats.txt", summary_text_of(sweep)),
        ("gpu_gaps.txt", gpu_gaps_text_of(sweep)),
        ("conclusions.txt", conclusions_text_of(sweep)),
        (
            "consistency_stats.txt",
            ablation::consistency_text_of(sweep),
        ),
        ("boundary_fractions.txt", boundary_fractions_text_of(sweep)),
        ("ablation_workgroup.txt", ablation::workgroup_sweep_text()),
        ("ablation_ordering.txt", ablation::ordering_sweep_text()),
        ("ablation_cache.txt", ablation::cache_sweep_text()),
        ("ablation_blocksize.txt", ablation::block_size_sweep_text()),
        ("measurements.csv", write_csv(sweep.units())),
    ];
    out.extend(rendered.map(|(name, text)| (name.to_owned(), text)));
    out
}

/// Figures 2–7: structured-app runtime table for one platform.
pub fn figure_structured_text(platform: PlatformId) -> String {
    figure_structured_text_of(&Sweep::measure_on(&[platform], &[]), platform)
}

/// [`figure_structured_text`] rendered from `sweep`.
pub fn figure_structured_text_of(sweep: &Sweep, platform: PlatformId) -> String {
    format_table(
        &format!(
            "Structured-mesh app runtimes on {} (simulated seconds)",
            sycl_sim::Platform::get(platform).name
        ),
        &table_rows(sweep.structured_on(platform), app_key, runtime_cell),
    )
}

/// Figures 8–9: MG-CFD runtime table for one platform (rows = schemes).
pub fn figure_mgcfd_text(platform: PlatformId) -> String {
    figure_mgcfd_text_of(&Sweep::measure_on(&[], &[platform]), platform)
}

/// [`figure_mgcfd_text`] rendered from `sweep`.
pub fn figure_mgcfd_text_of(sweep: &Sweep, platform: PlatformId) -> String {
    format_table(
        &format!(
            "MG-CFD (Rotor37) runtimes on {} (simulated seconds)",
            sycl_sim::Platform::get(platform).name
        ),
        &table_rows(sweep.mgcfd_on(platform), scheme_key, runtime_cell),
    )
}

/// Figure 8: the MG-CFD runtime tables of the three GPUs.
pub fn figure8_text() -> String {
    let gpus = gpu_platforms();
    mgcfd_panels_text(&Sweep::measure_on(&[], &gpus), &gpus)
}

/// Figure 9: the MG-CFD runtime tables of the three CPUs.
pub fn figure9_text() -> String {
    let cpus = cpu_platforms();
    mgcfd_panels_text(&Sweep::measure_on(&[], &cpus), &cpus)
}

fn mgcfd_panels_text(sweep: &Sweep, platforms: &[PlatformId]) -> String {
    platforms
        .iter()
        .map(|&p| figure_mgcfd_text_of(sweep, p) + "\n")
        .collect()
}

fn app_key(m: &Measurement) -> &'static str {
    m.app
}

fn scheme_key(m: &Measurement) -> &'static str {
    m.scheme.map(|s| s.label()).unwrap_or("-")
}

fn runtime_cell(m: &Measurement) -> MeasCell {
    match m.runtime {
        Ok(t) => MeasCell::Seconds(t),
        Err(k) => MeasCell::Failed(k),
    }
}

fn efficiency_cell(m: &Measurement) -> MeasCell {
    match (m.runtime, m.efficiency) {
        (Ok(_), Some(e)) => MeasCell::Efficiency(e),
        (Err(k), _) => MeasCell::Failed(k),
        _ => MeasCell::Failed(sycl_sim::FailureKind::RuntimeCrash),
    }
}

/// Group measurements into table rows by `row_key`, one column per
/// variant, both in first-seen order.
fn table_rows<'a>(
    ms: impl Iterator<Item = &'a Measurement>,
    row_key: fn(&Measurement) -> &'static str,
    cell: fn(&Measurement) -> MeasCell,
) -> Vec<(&'static str, Vec<(String, MeasCell)>)> {
    let mut rows: Vec<(&str, Vec<(String, MeasCell)>)> = Vec::new();
    for m in ms {
        let (key, column) = (row_key(m), (m.variant.label(), cell(m)));
        match rows.iter_mut().find(|(k, _)| *k == key) {
            Some((_, cells)) => cells.push(column),
            None => rows.push((key, vec![column])),
        }
    }
    rows
}

/// Figure 10: efficiency (fraction of STREAM) per structured app ×
/// platform × variant.
pub fn figure10_text() -> String {
    figure10_text_of(&Sweep::measure_on(&all_platforms(), &[]))
}

/// [`figure10_text`] rendered from `sweep`.
pub fn figure10_text_of(sweep: &Sweep) -> String {
    let mut out = String::from("## Figure 10: achieved architectural efficiency (structured)\n");
    for p in all_platforms() {
        let rows = table_rows(sweep.structured_on(p), app_key, efficiency_cell);
        out.push_str(&format_table(p.label(), &rows));
        out.push('\n');
    }
    out
}

/// Figure 11: MG-CFD efficiency per platform × variant × scheme.
pub fn figure11_text() -> String {
    figure11_text_of(&Sweep::measure_on(&[], &all_platforms()))
}

/// [`figure11_text`] rendered from `sweep`.
pub fn figure11_text_of(sweep: &Sweep) -> String {
    let mut out = String::from("## Figure 11: achieved efficiency, MG-CFD (effective BW rule)\n");
    for p in all_platforms() {
        let rows = table_rows(sweep.mgcfd_on(p), scheme_key, efficiency_cell);
        out.push_str(&format_table(p.label(), &rows));
        out.push('\n');
    }
    out
}

/// §4.4's headline aggregates, computed exactly as the paper describes.
#[derive(Debug, Clone)]
pub struct SummaryStats {
    /// Mean/std of best-native efficiency over structured (app, platform).
    pub native_eff: (f64, f64),
    /// Mean/std for DPC++ nd_range.
    pub dpcpp_nd_eff: (f64, f64),
    /// Mean/std for OpenSYCL nd_range.
    pub opensycl_nd_eff: (f64, f64),
    /// Mean for the flat variants.
    pub dpcpp_flat_eff: (f64, f64),
    pub opensycl_flat_eff: (f64, f64),
    /// PP̄ over all six platforms, failures ignored (paper §4.4):
    /// (DPC++ nd, OpenSYCL nd, DPC++ flat, OpenSYCL flat).
    pub pp_structured: [f64; 4],
    /// MG-CFD PP̄ for OpenSYCL+atomics, and for best-per-platform.
    pub pp_mgcfd_opensycl_atomics: f64,
    pub pp_mgcfd_best: f64,
}

/// Collect every structured measurement across all platforms.
pub fn all_structured() -> Vec<Measurement> {
    all_platforms()
        .into_iter()
        .flat_map(structured_measurements)
        .collect()
}

/// Collect every MG-CFD measurement across all platforms.
pub fn all_mgcfd() -> Vec<Measurement> {
    all_platforms()
        .into_iter()
        .flat_map(unstructured_measurements)
        .collect()
}

/// The highest of some efficiencies, `None` when there are none.
fn best_of(effs: impl Iterator<Item = f64>) -> Option<f64> {
    effs.fold(None, |acc, e| Some(acc.map_or(e, |a: f64| a.max(e))))
}

/// The distinct app names among `ms`, sorted.
fn app_names<'a>(ms: impl Iterator<Item = &'a Measurement>) -> Vec<&'static str> {
    let mut v: Vec<&'static str> = ms.map(|m| m.app).collect();
    v.sort();
    v.dedup();
    v
}

/// Compute the summary statistics.
pub fn summary_stats() -> SummaryStats {
    summary_stats_of(&Sweep::measure())
}

/// [`summary_stats`] computed from `sweep`.
pub fn summary_stats_of(sweep: &Sweep) -> SummaryStats {
    let apps = app_names(sweep.structured());
    let platforms = all_platforms();

    // Best-native efficiency per (app, platform).
    let mut native = Vec::new();
    for &app in &apps {
        for &p in &platforms {
            let effs = sweep
                .structured_on(p)
                .filter(|m| m.app == app && m.variant.is_native())
                .filter_map(|m| m.efficiency);
            native.extend(best_of(effs));
        }
    }

    let sycl_effs = |tc: Toolchain, nd: bool| -> Vec<f64> {
        sweep
            .structured()
            .filter(|m| m.variant.toolchain == tc && m.variant.nd_range == nd)
            .filter_map(|m| m.efficiency)
            .collect()
    };
    let d_nd = sycl_effs(Toolchain::Dpcpp, true);
    let o_nd = sycl_effs(Toolchain::OpenSycl, true);
    let d_fl = sycl_effs(Toolchain::Dpcpp, false);
    let o_fl = sycl_effs(Toolchain::OpenSycl, false);

    // PP̄ per app, averaged over apps (failures ignored, §4.4).
    let pp_for = |toolchain: Toolchain, nd_range: bool| -> f64 {
        let variant = StudyVariant {
            toolchain,
            nd_range,
        };
        let per_app: Vec<f64> = apps
            .iter()
            .map(|&app| {
                let es: Vec<Option<f64>> = platforms
                    .iter()
                    .map(|&p| sweep.get(app, p, variant, None).and_then(|m| m.efficiency))
                    .collect();
                pennycook(&es, true)
            })
            .collect();
        mean(&per_app)
    };

    // MG-CFD PP̄s.
    let mg_best = |keep: &dyn Fn(&Measurement) -> bool| -> f64 {
        let es: Vec<Option<f64>> = platforms
            .iter()
            .map(|&p| {
                best_of(
                    sweep
                        .mgcfd_on(p)
                        .filter(|m| keep(m))
                        .filter_map(|m| m.efficiency),
                )
            })
            .collect();
        pennycook(&es, false)
    };
    let pp_osa = mg_best(&|m| {
        m.variant.toolchain == Toolchain::OpenSycl && m.scheme == Some(Scheme::Atomics)
    });
    let pp_best = mg_best(&|m| m.variant.toolchain.is_sycl());

    SummaryStats {
        native_eff: (mean(&native), std_dev(&native)),
        dpcpp_nd_eff: (mean(&d_nd), std_dev(&d_nd)),
        opensycl_nd_eff: (mean(&o_nd), std_dev(&o_nd)),
        dpcpp_flat_eff: (mean(&d_fl), std_dev(&d_fl)),
        opensycl_flat_eff: (mean(&o_fl), std_dev(&o_fl)),
        pp_structured: [
            pp_for(Toolchain::Dpcpp, true),
            pp_for(Toolchain::OpenSycl, true),
            pp_for(Toolchain::Dpcpp, false),
            pp_for(Toolchain::OpenSycl, false),
        ],
        pp_mgcfd_opensycl_atomics: pp_osa,
        pp_mgcfd_best: pp_best,
    }
}

/// Render the summary with the paper's reference values alongside.
pub fn summary_text() -> String {
    summary_text_of(&Sweep::measure())
}

/// [`summary_text`] rendered from `sweep`.
pub fn summary_text_of(sweep: &Sweep) -> String {
    let s = summary_stats_of(sweep);
    let pct = |x: f64| format!("{:.0}%", x * 100.0);
    let pair = |(m, sd): (f64, f64)| format!("{} (std {})", pct(m), pct(sd));
    format!(
        "## §4.4 summary aggregates (simulated vs paper)\n\
         native best          : {:24} paper: 59% (std 21%)\n\
         DPC++ nd_range       : {:24} paper: 54% (std 19%)\n\
         OpenSYCL nd_range    : {:24} paper: 52% (std 21%)\n\
         DPC++ flat           : {:24} paper: 47% (std 19%)\n\
         OpenSYCL flat        : {:24} paper: 41% (std 19%)\n\
         PP(DPC++ nd)         : {:<24.2} paper: 0.49\n\
         PP(OpenSYCL nd)      : {:<24.2} paper: 0.46\n\
         PP(DPC++ flat)       : {:<24.2} paper: 0.35\n\
         PP(OpenSYCL flat)    : {:<24.2} paper: 0.29\n\
         PP(MG-CFD OpenSYCL+atomics): {:<17.2} paper: 0.42\n\
         PP(MG-CFD best SYCL) : {:<24.2} paper: 0.67\n",
        pair(s.native_eff),
        pair(s.dpcpp_nd_eff),
        pair(s.opensycl_nd_eff),
        pair(s.dpcpp_flat_eff),
        pair(s.opensycl_flat_eff),
        s.pp_structured[0],
        s.pp_structured[1],
        s.pp_structured[2],
        s.pp_structured[3],
        s.pp_mgcfd_opensycl_atomics,
        s.pp_mgcfd_best,
    )
}

/// §4.1's average SYCL-vs-native runtime gaps on one GPU: the mean over
/// the structured apps of `t_sycl / t_native − 1` (positive = slower).
pub fn gpu_gap(platform: PlatformId, tc: Toolchain, nd: bool, baseline: Toolchain) -> f64 {
    let variants = [
        StudyVariant {
            toolchain: baseline,
            nd_range: false,
        },
        StudyVariant {
            toolchain: tc,
            nd_range: nd,
        },
    ];
    let units = miniapps::paper_structured_apps()
        .iter()
        .flat_map(|app| variants.map(|v| measure_structured(app.as_ref(), platform, v)))
        .collect();
    gpu_gap_of(&Sweep::from_units(units), platform, tc, nd, baseline)
}

/// [`gpu_gap`] computed from `sweep`.
pub fn gpu_gap_of(
    sweep: &Sweep,
    platform: PlatformId,
    tc: Toolchain,
    nd: bool,
    baseline: Toolchain,
) -> f64 {
    let base = StudyVariant {
        toolchain: baseline,
        nd_range: false,
    };
    let gaps: Vec<f64> = sweep
        .structured_on(platform)
        .filter(|m| m.variant.toolchain == tc && m.variant.nd_range == nd)
        .filter_map(|sycl| {
            let native = sweep.get(sycl.app, platform, base, None)?;
            match (native.runtime, sycl.runtime) {
                (Ok(tb), Ok(ts)) => Some(ts / tb - 1.0),
                _ => None,
            }
        })
        .collect();
    mean(&gaps)
}

/// The (GPU, baseline) pairs of §4.1's gap aggregates, in print order.
const GPU_GAP_BASELINES: [(PlatformId, Toolchain); 4] = [
    (PlatformId::A100, Toolchain::NativeCuda),
    (PlatformId::Mi250x, Toolchain::NativeHip),
    (PlatformId::Mi250x, Toolchain::OmpOffload),
    (PlatformId::Max1100, Toolchain::OmpOffload),
];

/// Render §4.1's gap aggregates with the paper's values alongside.
pub fn gpu_gaps_text() -> String {
    gpu_gaps_text_of(&Sweep::measure_on(&gpu_platforms(), &[]))
}

/// [`gpu_gaps_text`] rendered from `sweep`.
pub fn gpu_gaps_text_of(sweep: &Sweep) -> String {
    let g: Vec<String> = GPU_GAP_BASELINES
        .iter()
        .flat_map(|&(p, base)| {
            [Toolchain::Dpcpp, Toolchain::OpenSycl]
                .map(|tc| format!("{:+.1}%", gpu_gap_of(sweep, p, tc, true, base) * 100.0))
        })
        .collect();
    format!(
        "## §4.1 average SYCL nd_range runtime gap vs native (structured apps)
         A100    : DPC++ {:8} (paper +1.2%) | OpenSYCL {:8} (paper +5.3%)
         MI250X  : DPC++ {:8} (paper +15.9%) | OpenSYCL {:8} (paper +4.5%)
         MI250X vs Cray offload: DPC++ {:8} (paper +2.3%) | OpenSYCL {:8} (paper -9.1%)
         Max 1100 vs OMP offload: DPC++ {:8} (paper -30.2%) | OpenSYCL {:8} (paper -27.6%)
",
        g[0], g[1], g[2], g[3], g[4], g[5], g[6], g[7],
    )
}

/// §5's conclusion aggregates: best-native vs best-SYCL efficiency,
/// overall and split by GPU/CPU.
pub struct ConclusionStats {
    pub native_all: f64,
    pub sycl_all: f64,
    pub native_gpu: f64,
    pub sycl_gpu: f64,
    pub native_cpu: f64,
    pub sycl_cpu: f64,
}

/// Compute §5's numbers over all seven applications.
pub fn conclusion_stats() -> ConclusionStats {
    conclusion_stats_of(&Sweep::measure())
}

/// [`conclusion_stats`] computed from `sweep`.
pub fn conclusion_stats_of(sweep: &Sweep) -> ConclusionStats {
    let apps = app_names(sweep.units().iter());
    let best = |p: PlatformId, app: &str, native: bool| -> Option<f64> {
        best_of(
            sweep
                .units()
                .iter()
                .filter(|m| m.platform == p && m.app == app && m.variant.is_native() == native)
                .filter_map(|m| m.efficiency),
        )
    };
    let collect = |native: bool, gpus: Option<bool>| -> f64 {
        let vals: Vec<f64> = all_platforms()
            .into_iter()
            .filter(|p| gpus.is_none_or(|g| p.is_gpu() == g))
            .flat_map(|p| apps.iter().filter_map(move |&a| best(p, a, native)))
            .collect();
        mean(&vals)
    };
    ConclusionStats {
        native_all: collect(true, None),
        sycl_all: collect(false, None),
        native_gpu: collect(true, Some(true)),
        sycl_gpu: collect(false, Some(true)),
        native_cpu: collect(true, Some(false)),
        sycl_cpu: collect(false, Some(false)),
    }
}

/// Render §5's conclusions with the paper values alongside.
pub fn conclusions_text() -> String {
    conclusions_text_of(&Sweep::measure())
}

/// [`conclusions_text`] rendered from `sweep`.
pub fn conclusions_text_of(sweep: &Sweep) -> String {
    let c = conclusion_stats_of(sweep);
    let pct = |x: f64| format!("{:.1}%", x * 100.0);
    format!(
        "## §5 conclusions (best variant per app × platform)
         all platforms : native {:6} vs SYCL {:6}   paper: 62.7% vs 59.1%
         GPUs          : native {:6} vs SYCL {:6}   paper: 57.6% vs 62.7%
         CPUs          : native {:6} vs SYCL {:6}   paper: 67.8% vs 55.5%
",
        pct(c.native_all),
        pct(c.sycl_all),
        pct(c.native_gpu),
        pct(c.sycl_gpu),
        pct(c.native_cpu),
        pct(c.sycl_cpu),
    )
}

/// The apps of the boundary-loop probe.
const BOUNDARY_APPS: [&str; 2] = [apps::CLOVERLEAF2D, apps::CLOVERLEAF3D];

/// Boundary-loop time fractions (the paper's kernel-launch probe):
/// CloverLeaf 2D/3D per platform and toolchain.
pub fn boundary_fractions_text() -> String {
    let probes: [Box<dyn miniapps::App>; 2] = [
        Box::new(miniapps::CloverLeaf2d::paper()),
        Box::new(miniapps::CloverLeaf3d::paper()),
    ];
    let mut units = Vec::new();
    for p in all_platforms() {
        for variant in variants_for(p) {
            units.extend(
                probes
                    .iter()
                    .map(|app| measure_structured(app.as_ref(), p, variant)),
            );
        }
    }
    boundary_fractions_text_of(&Sweep::from_units(units))
}

/// [`boundary_fractions_text`] rendered from `sweep`.
pub fn boundary_fractions_text_of(sweep: &Sweep) -> String {
    let mut out = String::from(
        "## Boundary-loop time fractions (paper anchors: A100 1.5%/7.8%,
         ## MI250X 2.6%/11.1%, Max 0.9%/4.8%; Xeon DPC++ 5.4-8.7% vs
         ## MPI+OpenMP 0.34% and OpenSYCL 1.2-2.5%)
",
    );
    for p in all_platforms() {
        out.push_str(&format!(
            "{}:
",
            sycl_sim::Platform::get(p).name
        ));
        for variant in variants_for(p) {
            let mut row = format!("  {:18}", variant.label());
            for app in BOUNDARY_APPS {
                match sweep
                    .get(app, p, variant, None)
                    .and_then(|m| m.boundary_fraction)
                {
                    Some(f) => row.push_str(&format!(" {:>6.2}%", f * 100.0)),
                    None => row.push_str("    n/a"),
                }
            }
            out.push_str(&row);
            out.push('\n');
        }
    }
    out
}

/// Parse a platform argument for the fig binaries.
pub fn parse_platform_arg(default: PlatformId) -> PlatformId {
    std::env::args()
        .nth(1)
        .and_then(|a| PlatformId::parse(&a))
        .unwrap_or(default)
}

/// The platform's best native toolchain (the Table-1 pairing), used by
/// the `profile` and `dashboard` binaries when tracing an app.
pub fn native_toolchain(p: PlatformId) -> Toolchain {
    match p {
        PlatformId::A100 => Toolchain::NativeCuda,
        PlatformId::Mi250x => Toolchain::NativeHip,
        PlatformId::Max1100 => Toolchain::Dpcpp,
        PlatformId::Xeon8360Y | PlatformId::GenoaX => Toolchain::MpiOpenMp,
        PlatformId::Altra => Toolchain::OpenMp,
    }
}

/// All app names `make_app` accepts, in paper order.
pub const APP_NAMES: [&str; 7] = [
    "cloverleaf2d",
    "cloverleaf3d",
    "opensbli_sa",
    "opensbli_sn",
    "rtm",
    "acoustic",
    "mgcfd",
];

/// Instantiate an app by CLI name at paper or test size.
pub fn make_app(name: &str, paper: bool) -> Option<Box<dyn miniapps::App>> {
    use miniapps::{Acoustic, CloverLeaf2d, CloverLeaf3d, Mgcfd, OpenSbli, Rtm, SbliVariant};
    Some(match (name, paper) {
        ("cloverleaf2d", true) => Box::new(CloverLeaf2d::paper()),
        ("cloverleaf2d", false) => Box::new(CloverLeaf2d::test()),
        ("cloverleaf3d", true) => Box::new(CloverLeaf3d::paper()),
        ("cloverleaf3d", false) => Box::new(CloverLeaf3d::test()),
        ("opensbli_sa", true) => Box::new(OpenSbli::paper(SbliVariant::StoreAll)),
        ("opensbli_sa", false) => Box::new(OpenSbli::test(SbliVariant::StoreAll)),
        ("opensbli_sn", true) => Box::new(OpenSbli::paper(SbliVariant::StoreNone)),
        ("opensbli_sn", false) => Box::new(OpenSbli::test(SbliVariant::StoreNone)),
        ("rtm", true) => Box::new(Rtm::paper()),
        ("rtm", false) => Box::new(Rtm::test()),
        ("acoustic", true) => Box::new(Acoustic::paper()),
        ("acoustic", false) => Box::new(Acoustic::test()),
        ("mgcfd", true) => Box::new(Mgcfd::paper()),
        ("mgcfd", false) => Box::new(Mgcfd::test()),
        _ => return None,
    })
}
