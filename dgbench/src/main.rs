//! `dgbench` — the dynamic graph's end-to-end benchmark.
//!
//! Four workloads, each stressing different layers (see the README in this
//! directory for why each exists and which layer metric should move which
//! end-to-end metric). The program is driven only through the public API
//! of `graph-gen`, `slabgraph`, `router`, `algos` and `gpu-sim`. Every
//! number comes from one of two clocks: *modeled* metrics are counter
//! deltas priced by `CostModel::titan_v()` and repeat exactly for a seed;
//! *host* metrics are `Instant` timings of the calls. Run length is a fixed
//! operation count derived from `--seconds`, never a timer (except the
//! serve generator's arrival schedule).
//!
//! ```text
//! dgbench --workload <churn_rmat|serve_road|mixed_rw|dynamic_tc|all> --seed <n>
//!         [--seconds <s>] [--trace <0|1>] [--repeat <n>]
//! ```
//!
//! Every run checks its outputs against host-side oracles and prints each
//! metric with its unit; the last line of standard output is one JSON
//! object with `correct`, `attempted`, `failed` and the end-to-end
//! metrics (`--trace 0`) or the per-layer metrics (`--trace 1`).

mod catalog;
mod churn;
mod mixed;
mod run;
mod serve;
mod spans;
mod stats;
mod tc;

use catalog::{Clock, Metric, END_TO_END, PER_LAYER};
use run::{Ctx, Run};
use spans::Tracer;
use std::collections::BTreeMap;
use std::process::{Command, Stdio};

const USAGE: &str =
    "usage: dgbench --workload <churn_rmat|serve_road|mixed_rw|dynamic_tc|all> --seed <n> \
[--seconds <s>] [--trace <0|1>] [--repeat <n>]";

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    Churn,
    Serve,
    Mixed,
    Tc,
}

const WORKLOADS: [Workload; 4] = [
    Workload::Churn,
    Workload::Serve,
    Workload::Mixed,
    Workload::Tc,
];

impl Workload {
    fn name(self) -> &'static str {
        match self {
            Workload::Churn => churn::NAME,
            Workload::Serve => serve::NAME,
            Workload::Mixed => mixed::NAME,
            Workload::Tc => tc::NAME,
        }
    }

    /// Whether two host threads share a device, so that count metrics
    /// taken from the concurrent phase depend on how the threads
    /// interleave (its modeled metrics come from a replay and still
    /// repeat exactly).
    fn concurrent(self) -> bool {
        self == Workload::Mixed
    }

    fn run(self, ctx: &Ctx) -> Run {
        match self {
            Workload::Churn => churn::run(ctx, &churn::Size::nominal(ctx.seconds)),
            Workload::Serve => serve::run(ctx, &serve::Size::nominal(ctx.seconds)),
            Workload::Mixed => mixed::run(ctx, &mixed::Size::nominal(ctx.seconds)),
            Workload::Tc => tc::run(ctx, &tc::Size::nominal(ctx.seconds)),
        }
    }
}

#[derive(Debug)]
struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: u64,
    trace: bool,
    repeat: Option<usize>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace, mut repeat) =
        (None, None, 10, false, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = |what: &str| -> Result<u64, String> {
            value
                .parse::<u64>()
                .map_err(|_| format!("{what} must be a whole number, got {value:?}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(match value.as_str() {
                    "all" => WORKLOADS.to_vec(),
                    w => vec![*WORKLOADS
                        .iter()
                        .find(|k| k.name() == w)
                        .ok_or_else(|| format!("unknown workload {w:?}"))?],
                })
            }
            "--seed" => seed = Some(number("--seed")?),
            "--seconds" => {
                seconds = number("--seconds")?;
                if !(1..=600).contains(&seconds) {
                    return Err("--seconds must be between 1 and 600".into());
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                }
            }
            "--repeat" => {
                let n = number("--repeat")?;
                if !(2..=100).contains(&n) {
                    return Err("--repeat must be between 2 and 100".into());
                }
                repeat = Some(n as usize);
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if repeat.is_some() && trace {
        return Err("--repeat compares untraced runs; drop --trace".into());
    }
    Ok(Args {
        workloads: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
        repeat,
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("dgbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let code = match args.repeat {
        Some(n) => repeat(&args, n),
        None => measure(&args),
    };
    std::process::exit(code);
}

/// Run each selected workload once, print its report, and end with the
/// JSON result line. Exit code 1 when any correctness check failed.
fn measure(args: &Args) -> i32 {
    let mut results = Vec::new();
    for &w in &args.workloads {
        let run = run_workload(w, args.seed, args.seconds, args.trace);
        results.push((w, run));
    }
    let table = if args.trace { PER_LAYER } else { END_TO_END };
    let prefix = |w: Workload| {
        if args.workloads.len() > 1 {
            format!("{}.", w.name())
        } else {
            String::new()
        }
    };
    let metrics: Vec<(String, f64, &str)> = results
        .iter()
        .flat_map(|(w, run)| {
            table
                .iter()
                .map(move |m| (format!("{}{}", prefix(*w), m.name), run.get(m.name), m.unit))
        })
        .collect();
    let correct = results.iter().all(|(_, r)| r.errors.is_empty());
    let attempted: u64 = results.iter().map(|(_, r)| r.attempted).sum();
    let failed: u64 = results.iter().map(|(_, r)| r.failed).sum();
    println!("{}", json_result(correct, attempted, failed, &metrics));
    if correct {
        0
    } else {
        1
    }
}

/// One workload: the untraced pass, and with `trace` a second, traced
/// pass supplying the profiler-derived layer metrics, the span table and
/// the Chrome trace. End-to-end numbers always come from the untraced pass.
fn run_workload(w: Workload, seed: u64, seconds: u64, trace: bool) -> Run {
    let quiet = Tracer::new(false);
    let mut run = w.run(&Ctx {
        seed,
        seconds,
        tracer: &quiet,
        profiled: false,
    });
    let recorded = catalog::recorded_fingerprint(w.name(), seed, seconds);
    if let Some(d) = recorded {
        let got = run.digest;
        run.check(d == got, || {
            format!(
                "input fingerprint {got:#018x} differs from the one recorded for seed {seed} ({d:#018x}): \
                 a generator changed, so results are not comparable"
            )
        });
    }
    let mut layers = None;
    if trace {
        let tracer = Tracer::new(true);
        gpu_sim::profiler::set_default_profiler(Some(gpu_sim::ProfilerConfig::default()));
        let traced = w.run(&Ctx {
            seed,
            seconds,
            tracer: &tracer,
            profiled: true,
        });
        gpu_sim::profiler::set_default_profiler(None);
        run.errors
            .extend(traced.errors.iter().map(|e| format!("traced pass: {e}")));
        run.check(traced.digest == run.digest, || {
            "traced pass saw different inputs".into()
        });
        for m in PER_LAYER.iter().filter(|m| m.traced_only) {
            run.set(m.name, traced.get(m.name));
        }
        run.set(
            "bench.trace_overhead_frac",
            traced.measured_s / run.measured_s - 1.0,
        );
        let spans = tracer.spans();
        match spans::layer_table(&spans) {
            Ok(rows) => layers = Some(rows),
            Err(e) => run.errors.push(format!("span tree: {e}")),
        }
        let path =
            std::path::Path::new("target/benchmark").join(format!("{}.trace.json", w.name()));
        let written = std::fs::create_dir_all("target/benchmark")
            .and_then(|()| std::fs::write(&path, spans::chrome_trace(&spans, w.name(), seed)));
        match written {
            Ok(()) => run.notes.push(format!(
                "Chrome trace: {} ({} spans)",
                path.display(),
                spans.len()
            )),
            Err(e) => run.errors.push(format!("writing {}: {e}", path.display())),
        }
    }
    for m in END_TO_END {
        let v = run.get(m.name);
        run.check(v.is_finite() && v > 0.0, || {
            format!("end-to-end metric {} is {v}", m.name)
        });
    }
    for m in PER_LAYER {
        let v = run.get(m.name);
        run.check(v.is_finite(), || {
            format!("per-layer metric {} is {v}", m.name)
        });
    }
    report(w, seed, seconds, trace, &run, recorded, layers.as_deref());
    run
}

fn report(
    w: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    run: &Run,
    recorded: Option<u64>,
    layers: Option<&[spans::LayerRow]>,
) {
    let mode = if trace { "traced" } else { "untraced" };
    println!(
        "== dgbench · {} · seed {seed} · {seconds} s · {mode} ==",
        w.name()
    );
    let fp = match recorded {
        Some(d) if d == run.digest => "matches the recorded fingerprint",
        Some(_) => "DIFFERS from the recorded fingerprint",
        None => "no fingerprint recorded for this seed and length",
    };
    println!("digest {:#018x} ({fp})", run.digest);
    println!(
        "ops attempted {} failed {} · measured phase busy {:.3} s",
        run.attempted, run.failed, run.measured_s
    );
    println!("-- end to end --");
    for m in END_TO_END {
        print_metric(
            m,
            run.get(m.name),
            &format!("{}, bound {}%", m.better.as_str(), m.bound * 100.0),
        );
    }
    println!("-- per layer --");
    for m in PER_LAYER {
        let note = if m.traced_only && !trace {
            "traced runs only"
        } else {
            ""
        };
        print_metric(m, run.get(m.name), note);
    }
    for n in &run.notes {
        println!("note {n}");
    }
    if let Some(rows) = layers {
        println!("-- spans (traced pass): calls, total and self time --");
        for r in rows {
            println!(
                "span {:<28} {:>9} calls {:>12.3} ms total {:>12.3} ms self",
                r.name,
                r.calls,
                r.total_ns as f64 / 1e6,
                r.self_ns as f64 / 1e6
            );
        }
    }
    for e in &run.errors {
        println!("FAILED {e}");
    }
    println!("correct {}", run.errors.is_empty());
}

/// One metric per line, `metric <name> <value> <unit> …`, with the value
/// printed in full so `--repeat` can compare runs bit for bit.
fn print_metric(m: &Metric, v: f64, note: &str) {
    let clock = match m.clock {
        Clock::Host => "host",
        Clock::Modeled => "modeled",
        Clock::Count => "count",
    };
    println!(
        "metric {:<34} {:<24} {:<8} {clock:<8} {note}",
        m.name, v, m.unit
    );
}

fn json_result(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(String, f64, &str)],
) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(n, v, u)| {
            let v = if v.is_finite() { *v } else { 0.0 };
            format!("\"{n}\": {{\"value\": {v}, \"unit\": \"{u}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// What one child run printed: metric values by name and the input digest.
struct ChildRun {
    values: BTreeMap<String, f64>,
    digest: String,
}

fn parse_child(stdout: &str) -> ChildRun {
    let mut values = BTreeMap::new();
    let mut digest = String::new();
    for line in stdout.lines() {
        let mut f = line.split_whitespace();
        match f.next() {
            Some("metric") => {
                if let (Some(name), Some(v)) = (f.next(), f.next().and_then(|v| v.parse().ok())) {
                    values.insert(name.to_string(), v);
                }
            }
            Some("digest") => digest = f.next().unwrap_or_default().to_string(),
            _ => {}
        }
    }
    ChildRun { values, digest }
}

/// Stability mode: run each workload `n` times in fresh processes with the
/// same seed. Modeled metrics, count metrics of single-threaded workloads,
/// and every input digest must be bit-identical; for the rest it prints
/// the median, quartiles and (max−min)/median against the metric's bound.
fn repeat(args: &Args, n: usize) -> i32 {
    let exe = match std::env::current_exe() {
        Ok(e) => e,
        Err(e) => {
            eprintln!("dgbench: cannot locate own executable: {e}");
            return 2;
        }
    };
    let mut ok = true;
    for &w in &args.workloads {
        println!(
            "== repeat · {} · {n} fresh processes · seed {} · {} s ==",
            w.name(),
            args.seed,
            args.seconds
        );
        let mut runs = Vec::new();
        for i in 0..n {
            let out = Command::new(&exe)
                .args(["--workload", w.name(), "--trace", "0"])
                .args([
                    "--seed",
                    &args.seed.to_string(),
                    "--seconds",
                    &args.seconds.to_string(),
                ])
                .stderr(Stdio::inherit())
                .output();
            match out {
                Ok(o) if o.status.success() => {
                    runs.push(parse_child(&String::from_utf8_lossy(&o.stdout)))
                }
                Ok(o) => {
                    println!("run {i}: exited with {}", o.status);
                    ok = false;
                }
                Err(e) => {
                    println!("run {i}: could not start: {e}");
                    ok = false;
                }
            }
        }
        if runs.len() < 2 {
            ok = false;
            continue;
        }
        let same_digest = runs.iter().all(|r| r.digest == runs[0].digest);
        println!(
            "digest {} ({})",
            runs[0].digest,
            if same_digest { "identical" } else { "DIFFERS" }
        );
        ok &= same_digest;
        for m in END_TO_END
            .iter()
            .chain(PER_LAYER)
            .filter(|m| !m.traced_only)
        {
            let vals: Vec<f64> = runs
                .iter()
                .map(|r| r.values.get(m.name).copied().unwrap_or(f64::NAN))
                .collect();
            if m.clock == Clock::Modeled || (m.clock == Clock::Count && !w.concurrent()) {
                let identical = vals.iter().all(|v| v.to_bits() == vals[0].to_bits());
                ok &= identical;
                let verdict = if identical { "identical" } else { "DIFFERS" };
                println!("repeat {:<34} {:<24} {verdict}", m.name, vals[0]);
                continue;
            }
            let s = stats::sorted(vals);
            let (q1, med, q3) = stats::quartiles(&s).expect("at least two runs");
            let range = run::ratio(s[s.len() - 1] - s[0], med.abs());
            let b = m.bound;
            let verdict = if b == 0.0 {
                String::new()
            } else if range <= b {
                format!("within bound {}%", b * 100.0)
            } else {
                format!("OVER bound {}%", b * 100.0)
            };
            println!(
                "repeat {:<34} median {med:<12.6} q1 {q1:<12.6} q3 {q3:<12.6} (max-min)/median {:>6.2}% {verdict}",
                m.name,
                range * 100.0
            );
        }
    }
    if ok {
        0
    } else {
        1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn arguments_need_workload_and_seed() {
        let a = parse_args(&strings(&["--workload", "all", "--seed", "1"])).unwrap();
        assert_eq!(a.workloads, WORKLOADS.to_vec());
        assert_eq!((a.seed, a.seconds, a.trace, a.repeat), (1, 10, false, None));
        let a = parse_args(&strings(&[
            "--workload",
            "serve_road",
            "--seed",
            "2",
            "--seconds",
            "3",
            "--trace",
            "1",
        ]))
        .unwrap();
        assert_eq!(
            (a.workloads[0], a.seconds, a.trace),
            (Workload::Serve, 3, true)
        );
        assert!(parse_args(&strings(&["--workload", "all"])).is_err());
        assert!(parse_args(&strings(&["--seed", "1"])).is_err());
        assert!(parse_args(&strings(&["--workload", "nope", "--seed", "1"])).is_err());
        assert!(parse_args(&strings(&[
            "--workload",
            "all",
            "--seed",
            "1",
            "--trace",
            "2"
        ]))
        .is_err());
        assert!(parse_args(&strings(&["--workload", "all", "--seed", "1", "--seconds"])).is_err());
    }

    #[test]
    fn json_result_has_exactly_the_contract_keys() {
        let line = json_result(true, 3, 0, &[("setup_s".into(), 0.5, "s")]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
    }

    #[test]
    fn metric_lines_round_trip_through_the_repeat_parser() {
        let v: f64 = 0.1 + 0.2;
        let line = format!("metric {:<34} {:<24} {:<8} host", "setup_s", v, "s");
        let parsed = parse_child(&format!("digest 0x00ff\n{line}\n"));
        assert_eq!(parsed.values["setup_s"].to_bits(), v.to_bits());
        assert_eq!(parsed.digest, "0x00ff");
    }

    /// Every workload at a tiny scale, through every correctness check and
    /// the traced pass's span accounting.
    #[test]
    fn tiny_runs_of_every_workload_pass_their_checks() {
        let quiet = Tracer::new(false);
        let traced = Tracer::new(true);
        for tracer in [&quiet, &traced] {
            let ctx = Ctx {
                seed: 5,
                seconds: 1,
                tracer,
                profiled: std::ptr::eq(tracer, &traced),
            };
            let runs = [
                (
                    churn::NAME,
                    churn::run(
                        &ctx,
                        &churn::Size {
                            vertices: 1024,
                            batch: 512,
                            rounds: 8,
                        },
                    ),
                ),
                (
                    serve::NAME,
                    serve::run(
                        &ctx,
                        &serve::Size {
                            vertices: 4096,
                            updates: 2000,
                            rate: 1e6,
                            window: 100,
                            read_every: 4,
                        },
                    ),
                ),
                (
                    mixed::NAME,
                    mixed::run(
                        &ctx,
                        &mixed::Size {
                            vertices: 2048,
                            batches: 16,
                            inserts: 256,
                            deletes: 128,
                            universe: 1024,
                            probes: 512,
                            think: std::time::Duration::ZERO,
                        },
                    ),
                ),
                (
                    tc::NAME,
                    tc::run(
                        &ctx,
                        &tc::Size {
                            vertices: 64,
                            batch: 64,
                            rounds: 2,
                        },
                    ),
                ),
            ];
            for (name, run) in &runs {
                assert!(run.errors.is_empty(), "{name}: {:?}", run.errors);
                assert_eq!(run.failed, 0, "{name}");
                assert!(run.attempted > 0, "{name}");
                for m in END_TO_END {
                    let v = run.get(m.name);
                    assert!(v.is_finite() && v > 0.0, "{name}: {} = {v}", m.name);
                }
                let shares: f64 = ["launch", "mem", "atomic", "warp"]
                    .iter()
                    .map(|t| run.get(&format!("gpu.term_{t}_share")))
                    .sum();
                assert!(
                    (shares - 1.0).abs() < 1e-9,
                    "{name}: term shares sum to {shares}"
                );
            }
        }
        let rows = spans::layer_table(&traced.spans()).expect("spans nest");
        for layer in [
            "core.insert_edges",
            "router.flush",
            "algos.tc",
            "core.edge_exists",
        ] {
            assert!(
                rows.iter().any(|r| r.name == layer && r.calls > 0),
                "no {layer} spans"
            );
        }
    }
}
