//! `engine_bench` — wall-clock benchmark of the functional execution
//! engine itself (not the simulated clocks): row-sliced kernels vs
//! per-point bodies, the launch-pricing cache vs cold pricing, and
//! static vs dynamic pool scheduling on an indirect scatter.
//!
//! Three bandwidth-bound kernel classes are timed in both engine
//! configurations:
//!
//! * `stencil`  — repeated launches of a 2-D star-1 average
//!   (baseline: per-point body + cold pricing; fast: `run_rows` +
//!   pricing cache);
//! * `reduce`   — repeated sum reductions over a field (baseline:
//!   `run_reduce` + cold pricing; fast: `run_rows_reduce` + cache);
//! * `indirect` — colour-ordered edge scatter on an unstructured mesh,
//!   comparing the pool's two scheduling modes (dynamic chunk cursor vs
//!   static partition). Colour regions are many and small, so this one
//!   documents the *tradeoff*: dynamic wins whenever a parked lane's
//!   wake latency would serialise a static span — static exists for
//!   lane-pinned determinism and cache affinity, not raw speed here.
//!
//! Results (GB/s of bytes actually moved, launches/sec, speedup) print
//! as a table, and the run is persisted as a `sycl-metrics` manifest at
//! `results/BENCH_engine.json` — per-entry repetition samples, wall
//! summaries and the engine counter delta — which is what `bench_gate`
//! compares against the committed baseline.

use metrics::{Histogram, KernelSummary, RunManifest};
use op2_dsl::color::HierColoring;
use op2_dsl::mesh::{Mesh, Ordering};
use op2_dsl::DatU;
use ops_dsl::prelude::*;
use parkit::Schedule;
use std::time::Instant;
use sycl_sim::{PlatformId, Session, SessionConfig, Toolchain};
use telemetry::TelemetryConfig;

/// One measured engine configuration for one kernel class.
struct Entry {
    class: &'static str,
    phase: &'static str,
    /// Per-repetition wall-clock seconds of one workload pass.
    samples: Vec<f64>,
    bytes_moved: f64,
    launches: usize,
}

impl Entry {
    /// Best (minimum) repetition.
    fn seconds(&self) -> f64 {
        self.samples.iter().copied().fold(f64::INFINITY, f64::min)
    }

    fn gbps(&self) -> f64 {
        self.bytes_moved / self.seconds() / 1e9
    }

    fn launches_per_sec(&self) -> f64 {
        self.launches as f64 / self.seconds()
    }

    /// `class/phase`, the name the gate matches kernels by.
    fn key(&self) -> String {
        format!("{}/{}", self.class, self.phase)
    }
}

fn session(cached: bool) -> Session {
    let cfg = SessionConfig::new(PlatformId::A100, Toolchain::NativeCuda).app("engine-bench");
    let cfg = if cached { cfg } else { cfg.no_pricing_cache() };
    Session::create(cfg).unwrap()
}

/// Wall-clock of `samples` repetitions of `f` (one run = one pass).
fn time_samples(samples: usize, mut f: impl FnMut()) -> Vec<f64> {
    (0..samples)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_secs_f64()
        })
        .collect()
}

/// Repeated-launch star-1 stencil: the workload the pricing cache and
/// the row slices both target. Ping-pongs so every launch reads what
/// the previous one wrote.
fn stencil_class(n: usize, launches: usize, samples: usize) -> (Entry, Entry, f64) {
    let b = Block::new_2d(n, n, 1);
    let mut a = Dat::<f64>::zeroed(&b, "a");
    let mut c = Dat::<f64>::zeroed(&b, "c");
    a.fill_with(|i, j, _| ((i * 13 + j * 7) % 101) as f64 * 0.01);
    let interior = b.interior();
    // 1 dat read + 1 written per launch.
    let bytes = launches as f64 * (n * n) as f64 * 8.0 * 2.0;

    let baseline = time_samples(samples, || {
        let s = session(false);
        for it in 0..launches {
            let (src, dst) = if it % 2 == 0 {
                (&a, &mut c)
            } else {
                (&c, &mut a)
            };
            let r = src.reader();
            let meta = dst.meta();
            let w = dst.writer();
            ParLoop::new("star1", interior)
                .read(src.meta(), Stencil::star_2d(1))
                .write(meta)
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
        }
    });

    let fast = time_samples(samples, || {
        let s = session(true);
        for it in 0..launches {
            let (src, dst) = if it % 2 == 0 {
                (&a, &mut c)
            } else {
                (&c, &mut a)
            };
            let r = src.reader();
            let meta = dst.meta();
            let w = dst.writer();
            ParLoop::new("star1", interior)
                .read(src.meta(), Stencil::star_2d(1))
                .write(meta)
                .flops(4.0)
                .run_rows(&s, |row| {
                    let cen = r.row(row.grow_x(1));
                    let south = r.row(row.shift(0, -1, 0));
                    let north = r.row(row.shift(0, 1, 0));
                    let out = w.row_mut(row);
                    for x in 0..row.len() {
                        out[x] = 0.25 * (cen[x] + cen[x + 2] + south[x] + north[x]);
                    }
                });
        }
    });

    let speedup = baseline.iter().copied().fold(f64::INFINITY, f64::min)
        / fast.iter().copied().fold(f64::INFINITY, f64::min);
    (
        Entry {
            class: "stencil",
            phase: "baseline",
            samples: baseline,
            bytes_moved: bytes,
            launches,
        },
        Entry {
            class: "stencil",
            phase: "fast",
            samples: fast,
            bytes_moved: bytes,
            launches,
        },
        speedup,
    )
}

/// Repeated sum reductions (arena-backed partials on the fast path).
fn reduce_class(n: usize, launches: usize, samples: usize) -> (Entry, Entry, f64) {
    let b = Block::new_2d(n, n, 1);
    let mut u = Dat::<f64>::zeroed(&b, "u");
    u.fill_with(|i, j, _| ((i * 31 + j * 17) % 97) as f64 * 0.001);
    let interior = b.interior();
    let r = u.reader();
    let bytes = launches as f64 * (n * n) as f64 * 8.0;

    let mut sink = 0.0f64;
    let baseline = time_samples(samples, || {
        let s = session(false);
        for _ in 0..launches {
            sink += ParLoop::new("sum", interior)
                .read(u.meta(), Stencil::point())
                .run_reduce(
                    &s,
                    0.0f64,
                    |x, y| x + y,
                    |tile| {
                        let mut t = 0.0;
                        for (i, j, k) in tile.iter() {
                            t += r.at(i, j, k);
                        }
                        t
                    },
                );
        }
    });
    let mut sink2 = 0.0f64;
    let fast = time_samples(samples, || {
        let s = session(true);
        for _ in 0..launches {
            sink2 += ParLoop::new("sum", interior)
                .read(u.meta(), Stencil::point())
                .run_rows_reduce(
                    &s,
                    0.0f64,
                    |x, y| x + y,
                    |acc, row| {
                        let mut t = acc;
                        for &v in r.row(row) {
                            t += v;
                        }
                        t
                    },
                );
        }
    });
    assert_eq!(
        (sink / sink.round().max(1.0)).is_finite(),
        (sink2 / sink2.round().max(1.0)).is_finite()
    );

    let speedup = baseline.iter().copied().fold(f64::INFINITY, f64::min)
        / fast.iter().copied().fold(f64::INFINITY, f64::min);
    (
        Entry {
            class: "reduce",
            phase: "baseline",
            samples: baseline,
            bytes_moved: bytes,
            launches,
        },
        Entry {
            class: "reduce",
            phase: "fast",
            samples: fast,
            bytes_moved: bytes,
            launches,
        },
        speedup,
    )
}

/// Record-once/replay-many vs eager per-launch over the same sequence
/// of streaming kernels with trivial bodies. Neither path enters a pool
/// region, so this times the launch stages themselves: the eager loop
/// pays price lookup + commit lock set + span per launch, the replay
/// prices the whole sequence under one cache lock and commits it under
/// one lock set.
fn replay_class(launches: usize, replays: usize, samples: usize) -> (Entry, Entry, f64) {
    use sycl_sim::Kernel;
    let ks: Vec<Kernel> = (0..launches)
        .map(|i| {
            let items = 1u64 << (10 + (i % 4));
            Kernel::streaming("graph_node", items, (items * 8) as f64, 0.0)
        })
        .collect();
    // Simulated footprint bytes: what each launch prices, per replay.
    let bytes = replays as f64 * (launches as f64) * ((1u64 << 11) * 8) as f64;
    let total_launches = replays * launches;
    let sink = std::sync::atomic::AtomicU64::new(0);

    let eager = time_samples(samples, || {
        let s = session(true);
        for _ in 0..replays {
            for k in &ks {
                s.launch(k, || {
                    sink.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                });
            }
        }
    });

    let replay = time_samples(samples, || {
        let s = session(true);
        let mut g = s.record();
        for k in &ks {
            let sink = &sink;
            g.launch(k, move |on| {
                if on.executes() {
                    sink.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                }
            });
        }
        let g = g.finish();
        for _ in 0..replays {
            g.replay(&s);
        }
    });

    let speedup = eager.iter().copied().fold(f64::INFINITY, f64::min)
        / replay.iter().copied().fold(f64::INFINITY, f64::min);
    (
        Entry {
            class: "replay",
            phase: "eager",
            samples: eager,
            bytes_moved: bytes,
            launches: total_launches,
        },
        Entry {
            class: "replay",
            phase: "replayed",
            samples: replay,
            bytes_moved: bytes,
            launches: total_launches,
        },
        speedup,
    )
}

/// Colour-ordered indirect scatter: per-colour pool regions, dynamic
/// cursor vs static partition scheduling.
fn indirect_class(passes: usize, samples: usize) -> (Entry, Entry, f64) {
    let mesh = Mesh::grid(64, 64, 16, Ordering::Natural);
    let coloring = HierColoring::build(&mesh.edges, 256);
    let pool = parkit::ThreadPool::new(4);
    let n_edges = mesh.n_edges();
    // Per edge: read 2 endpoint ids (8 B) + accumulate 2 f64 (read+write).
    let bytes = (passes * n_edges) as f64 * (8.0 + 4.0 * 8.0);
    let launches: usize = passes * coloring.blocks_by_color.len();

    let run_with = |sched: Schedule| {
        let mut out = DatU::<f64>::zeroed("deg", mesh.n_vertices, 1);
        let acc = out.accum(false);
        time_samples(samples, || {
            for _ in 0..passes {
                for group in &coloring.blocks_by_color {
                    pool.run_region_sched(group.len(), sched, |_lane, gi| {
                        let (lo, hi) = coloring.block_range(group[gi] as usize, n_edges);
                        for e in lo..hi {
                            acc.add(mesh.edges.at(e, 0), 0, 1.0);
                            acc.add(mesh.edges.at(e, 1), 0, 1.0);
                        }
                    });
                }
            }
        })
    };
    let dynamic = run_with(Schedule::Dynamic);
    let static_ = run_with(Schedule::Static);

    let speedup = static_.iter().copied().fold(f64::INFINITY, f64::min)
        / dynamic.iter().copied().fold(f64::INFINITY, f64::min);
    (
        Entry {
            class: "indirect",
            phase: "dynamic",
            samples: dynamic,
            bytes_moved: bytes,
            launches,
        },
        Entry {
            class: "indirect",
            phase: "static",
            samples: static_,
            bytes_moved: bytes,
            launches,
        },
        speedup,
    )
}

/// What one observed launch costs: the same trivial streaming kernel
/// is launched `launches` times under three observation regimes —
/// telemetry off, counters+ring on, and ring plus the flight recorder
/// streaming to a file. The deltas are the per-launch telemetry cost
/// and the per-event recorder cost (each launch writes a span open +
/// close, so flight events = 2 × launches; the flight entry's
/// `launches` field holds the *event* count to keep ns/event derivable
/// from the committed manifest).
fn telemetry_class(launches: usize, samples: usize) -> (Entry, Entry, Entry, f64, f64) {
    use sycl_sim::Kernel;
    let items = 1u64 << 12;
    let k = Kernel::streaming("probe", items, (items * 8) as f64, 0.0);
    let bytes = launches as f64 * (items * 8) as f64;
    let sink = std::sync::atomic::AtomicU64::new(0);
    let body = |s: &sycl_sim::Session| {
        for _ in 0..launches {
            s.launch(&k, || {
                sink.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            });
        }
    };

    TelemetryConfig::disabled().install();
    let off = time_samples(samples, || body(&session(true)));

    TelemetryConfig::enabled().install();
    let ring = time_samples(samples, || body(&session(true)));

    let path = std::env::temp_dir().join(format!("engine-bench-flight-{}.bin", std::process::id()));
    let flight = match telemetry::flight::start(&path, 0, "engine-bench") {
        Ok(()) => {
            let t = time_samples(samples, || body(&session(true)));
            telemetry::flight::stop();
            std::fs::remove_file(&path).ok();
            t
        }
        Err(e) => {
            eprintln!("flight recorder unavailable ({e}); reusing ring times");
            ring.clone()
        }
    };
    TelemetryConfig::disabled().install();
    telemetry::flush(); // counters only; drop the probe spans

    let best = |v: &[f64]| v.iter().copied().fold(f64::INFINITY, f64::min);
    let ring_ns_per_launch = (best(&ring) - best(&off)) / launches as f64 * 1e9;
    let flight_ns_per_event = (best(&flight) - best(&ring)) / (2 * launches) as f64 * 1e9;
    let mk = |phase: &'static str, samples: Vec<f64>, launches: usize| Entry {
        class: "telemetry",
        phase,
        samples,
        bytes_moved: bytes,
        launches,
    };
    (
        mk("off", off, launches),
        mk("ring", ring, launches),
        mk("flight", flight, 2 * launches),
        ring_ns_per_launch,
        flight_ns_per_event,
    )
}

/// Persist the run as a `sycl-metrics` manifest.
fn manifest(entries: &[Entry], reps: u32, counters: telemetry::CounterSnapshot) -> RunManifest {
    let kernels = entries
        .iter()
        .map(|e| {
            let mut h = Histogram::new();
            for &s in &e.samples {
                h.record(s);
            }
            KernelSummary {
                name: e.key(),
                wall: h.summary(),
                samples: e.samples.clone(),
                sim_secs: 0.0,
                bytes: e.bytes_moved,
                gbps: e.gbps(),
                origin: None,
            }
        })
        .collect();
    RunManifest {
        name: "engine".to_owned(),
        git_rev: metrics::manifest::git_rev(),
        platform: "host-wall".to_owned(),
        threads: std::thread::available_parallelism().map_or(1, |n| n.get() as u32),
        repetitions: reps,
        created_unix_secs: std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| d.as_secs()),
        kernels,
        counters,
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let quick = args.iter().any(|a| a == "--quick");
    // --smoke: minimal sizes, one sample — a seconds-long CI sanity pass.
    let (n, launches, samples) = if smoke {
        (32, 6, 1)
    } else if quick {
        (96, 40, 2)
    } else {
        (192, 400, 3)
    };
    let passes = if smoke {
        1
    } else if quick {
        5
    } else {
        40
    };

    // Counters only bump with telemetry enabled; the overhead (one
    // relaxed add per site, one ring push per span) is identical for
    // the baseline and fast phases, so speedups are unaffected.
    TelemetryConfig::enabled().install();
    let before = telemetry::counters().snapshot();

    let (sb, sf, s_sp) = stencil_class(n, launches, samples);
    let (rb, rf, r_sp) = reduce_class(n, launches, samples);
    let (ib, if_, i_sp) = indirect_class(passes, samples);

    let delta = telemetry::counters().snapshot().delta(&before);
    TelemetryConfig::disabled().install();
    telemetry::flush(); // drop the trace; this bench keeps counters only

    // Replay runs with telemetry off: its phases differ only in the
    // launch layers, and a per-launch span (paid identically by both)
    // would dilute exactly the overhead this class measures.
    let (ge, gr, g_sp) = replay_class(launches.max(32), 4 * passes.max(8), samples);

    // Observation-cost probe: how much a launch pays for counters+ring,
    // and what each flight-recorder event costs on top.
    let probe_launches = if smoke {
        500
    } else if quick {
        5_000
    } else {
        20_000
    };
    let (to, tr, tf, ring_ns, flight_ns) = telemetry_class(probe_launches, samples);

    let entries = [sb, sf, rb, rf, ib, if_, ge, gr, to, tr, tf];
    println!(
        "{:10} {:9} {:>10} {:>9} {:>14}",
        "class", "phase", "seconds", "GB/s", "launches/s"
    );
    for e in &entries {
        println!(
            "{:10} {:9} {:>10.4} {:>9.2} {:>14.0}",
            e.class,
            e.phase,
            e.seconds(),
            e.gbps(),
            e.launches_per_sec()
        );
    }
    let speedups = [
        ("stencil", s_sp),
        ("reduce", r_sp),
        ("indirect_dynamic_over_static", i_sp),
        ("replay_over_eager", g_sp),
    ];
    for (class, sp) in &speedups {
        println!("speedup[{class}] = {sp:.2}x");
    }
    println!("overhead[ring] = {ring_ns:.1} ns/launch");
    println!("overhead[flight] = {flight_ns:.1} ns/event");
    println!(
        "counters: {} launches, cache {} hits / {} misses, {} regions, {} steals",
        delta.launches,
        delta.pricing_cache_hits,
        delta.pricing_cache_misses,
        delta.regions,
        delta.steals,
    );

    let m = manifest(&entries, samples as u32, delta);
    match bench_harness::json::write_results_file("BENCH_engine.json", &(m.to_json() + "\n")) {
        Ok(path) => println!("wrote {}", path.display()),
        Err(e) => eprintln!("could not write results/BENCH_engine.json: {e}"),
    }
}
