//! Snapshot-style integration tests for the figure harness: every
//! table/figure generator must produce structurally complete output
//! (all apps, all variant columns, all platforms, failure markers where
//! the paper reports them).

use portability::write_csv;

#[test]
fn table1_text_lists_all_six_platforms() {
    let t = bench_harness::table1_text();
    for name in ["MI250X", "A100", "Max 1100", "Xeon", "Genoa-X", "Altra"] {
        assert!(t.contains(name), "missing {name} in:\n{t}");
    }
    assert!(t.contains("GB/s"));
}

#[test]
fn structured_figures_contain_every_app_and_variant() {
    use sycl_sim::PlatformId;
    for p in [PlatformId::A100, PlatformId::GenoaX] {
        let t = bench_harness::figure_structured_text(p);
        for app in sycl_sim::quirks::apps::STRUCTURED {
            assert!(t.contains(app), "{p:?}: missing {app}");
        }
        assert!(t.contains("DPC++ flat"));
        assert!(t.contains("OpenSYCL ndrange"));
    }
    // Genoa-X must show the "wrong" marker for CloverLeaf 2D.
    let genoa = bench_harness::figure_structured_text(sycl_sim::PlatformId::GenoaX);
    assert!(genoa.contains("wrong"), "{genoa}");
    // Altra must show n/a for DPC++.
    let altra = bench_harness::figure_structured_text(sycl_sim::PlatformId::Altra);
    assert!(altra.contains("n/a"), "{altra}");
}

#[test]
fn mgcfd_figures_contain_every_scheme_and_failures() {
    let t = bench_harness::figure_mgcfd_text(sycl_sim::PlatformId::Xeon8360Y);
    for scheme in ["atomics", "global", "hierarchical"] {
        assert!(t.contains(scheme), "missing {scheme}");
    }
    assert!(t.contains("ICE"), "OpenSYCL global must ICE on CPUs:\n{t}");
    assert!(t.contains("crash"), "DPC++ global must crash on CPUs:\n{t}");
}

#[test]
fn efficiency_figures_cover_all_platforms() {
    let f10 = bench_harness::figure10_text();
    let f11 = bench_harness::figure11_text();
    for label in ["a100", "mi250x", "max1100", "xeon8360y", "genoax", "altra"] {
        assert!(f10.contains(label), "fig10 missing {label}");
        assert!(f11.contains(label), "fig11 missing {label}");
    }
    assert!(f10.contains('%'));
}

#[test]
fn summary_text_reports_all_pp_metrics() {
    let s = bench_harness::summary_text();
    for needle in [
        "PP(DPC++ nd)",
        "PP(OpenSYCL nd)",
        "PP(DPC++ flat)",
        "PP(OpenSYCL flat)",
        "PP(MG-CFD OpenSYCL+atomics)",
        "paper: 0.49",
    ] {
        assert!(s.contains(needle), "missing {needle} in:\n{s}");
    }
}

#[test]
fn conclusions_split_gpu_and_cpu() {
    let c = bench_harness::conclusions_text();
    assert!(c.contains("GPUs"));
    assert!(c.contains("CPUs"));
    assert!(c.contains("62.7%"), "paper reference values must print");
}

#[test]
fn csv_export_covers_the_full_cross_product() {
    let mut all = bench_harness::all_structured();
    all.extend(bench_harness::all_mgcfd());
    let csv = write_csv(&all);
    let lines: Vec<&str> = csv.lines().collect();
    // 6 apps × (5+6+5+6+6+6 variants) + mgcfd × 3 schemes × variants.
    assert!(lines.len() > 250, "only {} csv rows", lines.len());
    assert!(lines[0].starts_with("app,platform,variant"));
    // Failures appear with their kinds.
    assert!(csv.contains("IncorrectResult"));
    assert!(csv.contains("Unsupported"));
    assert!(csv.contains("CompileError"));
    // Every row has the right column count.
    for l in &lines[1..] {
        assert_eq!(l.split(',').count(), 7, "bad row: {l}");
    }
}

#[test]
fn ablation_texts_are_complete() {
    let w = bench_harness::ablation::workgroup_sweep_text();
    assert!(w.contains("best") && w.contains("worst"));
    let c = bench_harness::ablation::cache_sweep_text();
    assert!(c.contains("208"), "must sweep up to the Max 1100's L2");
    let o = bench_harness::ablation::ordering_sweep_text();
    assert!(o.contains("locality 1.0") && o.contains("locality 0.1"));
    let b = bench_harness::ablation::block_size_sweep_text();
    assert!(b.contains("block    256") || b.contains("block  256") || b.contains("256"));
    let cons = bench_harness::ablation::consistency_text();
    assert!(cons.matches('%').count() >= 12);
}

/// The zero-argument entry point the `fig*` binaries and the benchmark
/// call for the artifact `name`, which measures what it renders itself.
fn entry_point(name: &str) -> String {
    use bench_harness::ablation;
    if let Some(label) = name
        .strip_prefix("fig_structured_")
        .and_then(|n| n.strip_suffix(".txt"))
    {
        let platform = sycl_sim::PlatformId::parse(label).expect("a platform label");
        return bench_harness::figure_structured_text(platform);
    }
    match name {
        "table1.txt" => bench_harness::table1_text(),
        "fig8_mgcfd_gpu.txt" => bench_harness::figure8_text(),
        "fig9_mgcfd_cpu.txt" => bench_harness::figure9_text(),
        "fig10_efficiency.txt" => bench_harness::figure10_text(),
        "fig11_efficiency_mgcfd.txt" => bench_harness::figure11_text(),
        "summary_stats.txt" => bench_harness::summary_text(),
        "gpu_gaps.txt" => bench_harness::gpu_gaps_text(),
        "conclusions.txt" => bench_harness::conclusions_text(),
        "consistency_stats.txt" => ablation::consistency_text(),
        "boundary_fractions.txt" => bench_harness::boundary_fractions_text(),
        "ablation_workgroup.txt" => ablation::workgroup_sweep_text(),
        "ablation_ordering.txt" => ablation::ordering_sweep_text(),
        "ablation_cache.txt" => ablation::cache_sweep_text(),
        "ablation_blocksize.txt" => ablation::block_size_sweep_text(),
        "measurements.csv" => {
            let mut all = bench_harness::all_structured();
            all.extend(bench_harness::all_mgcfd());
            write_csv(&all)
        }
        other => panic!("no entry point for artifact {other}"),
    }
}

#[test]
fn artifacts_from_one_sweep_match_the_entry_points() {
    let sweep = portability::Sweep::measure();
    let artifacts = bench_harness::artifacts(&sweep);
    let names: Vec<&str> = artifacts.iter().map(|(n, _)| n.as_str()).collect();
    assert_eq!(
        names,
        [
            "table1.txt",
            "fig_structured_a100.txt",
            "fig_structured_mi250x.txt",
            "fig_structured_max1100.txt",
            "fig_structured_xeon8360y.txt",
            "fig_structured_genoax.txt",
            "fig_structured_altra.txt",
            "fig8_mgcfd_gpu.txt",
            "fig9_mgcfd_cpu.txt",
            "fig10_efficiency.txt",
            "fig11_efficiency_mgcfd.txt",
            "summary_stats.txt",
            "gpu_gaps.txt",
            "conclusions.txt",
            "consistency_stats.txt",
            "boundary_fractions.txt",
            "ablation_workgroup.txt",
            "ablation_ordering.txt",
            "ablation_cache.txt",
            "ablation_blocksize.txt",
            "measurements.csv",
        ]
    );
    for (name, text) in &artifacts {
        assert!(
            *text == entry_point(name),
            "{name} drifted from its entry point"
        );
    }
    // `gpu_gap` measures only its own twelve units; the sweep must give
    // the same bits.
    use sycl_sim::{PlatformId, Toolchain};
    let args = (
        PlatformId::Mi250x,
        Toolchain::OpenSycl,
        true,
        Toolchain::OmpOffload,
    );
    assert_eq!(
        bench_harness::gpu_gap(args.0, args.1, args.2, args.3).to_bits(),
        bench_harness::gpu_gap_of(&sweep, args.0, args.1, args.2, args.3).to_bits()
    );
}
