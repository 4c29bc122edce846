//! `explore_bench` — the exploration benchmark.
//!
//! Serves a seeded table from a loopback `NetServer`, drives closed-loop
//! scripted exploration sessions over HTTP, checks every answer, and
//! prints each metric with its unit and sample count. The last line of
//! standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`; with `--trace 0` the
//! metrics are the end-to-end ones, with `--trace 1` the per-layer ones.
//!
//! Usage: `explore_bench --workload <drill_cold|revisit_hot|ladder_wide>
//! --seed <n> --seconds <s> --trace <0|1>`

mod affinity;
mod check;
mod client;
mod quantile;
mod run;
mod trace;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;

use serde_json::{json, Map, Value};

use quantile::by_rank;
use run::{Spec, Timings, WORKLOADS};

/// Every end-to-end metric, with its unit.
const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("open_p50_ms", "ms"),
    ("theme_p50_ms", "ms"),
    ("zoom_p50_ms", "ms"),
    ("read_p50_ms", "ms"),
    ("first_level_p50_ms", "ms"),
    ("final_level_p50_ms", "ms"),
    ("recover_s", "s"),
];

/// Smallest sample count at which a p90 is printed.
const P90_MIN_SAMPLES: usize = 100;
/// Smallest ARI the wide table's root maps must reach.
const MIN_ARI: f64 = 0.9;

struct Args {
    spec: Spec,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| "--seed takes an integer")?),
            "--seconds" => seconds = Some(value.parse().map_err(|_| "--seconds takes an integer")?),
            "--trace" => trace = Some(value == "1"),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let spec = *WORKLOADS
        .iter()
        .find(|s| s.name == workload)
        .ok_or_else(|| format!("unknown workload {workload:?}"))?;
    Ok(Args {
        spec,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10).max(1),
        trace: trace.unwrap_or(false),
    })
}

/// The filesystem type holding `path`, from the mount table.
fn filesystem_of(path: &Path) -> String {
    let Ok(path) = path.canonicalize() else {
        return "unknown".into();
    };
    let Ok(mounts) = std::fs::read_to_string("/proc/self/mountinfo") else {
        return "unknown".into();
    };
    let mut best = (0usize, "unknown".to_owned());
    for line in mounts.lines() {
        let fields: Vec<&str> = line.split(' ').collect();
        let Some(dash) = fields.iter().position(|&f| f == "-") else {
            continue;
        };
        let (Some(mount), Some(fstype)) = (fields.get(4), fields.get(dash + 1)) else {
            continue;
        };
        if path.starts_with(mount) && mount.len() >= best.0 {
            best = (mount.len(), (*fstype).to_owned());
        }
    }
    best.1
}

/// Host steal and total CPU time so far (jiffies, all CPUs), from the
/// kernel's CPU accounting; `None` where it is not available.
fn cpu_steal() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    Some((*fields.get(7)?, fields.iter().sum()))
}

fn p50(samples: &quantile::Samples) -> Option<f64> {
    samples.quantile(0.5)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("explore_bench: {e}");
            return ExitCode::from(2);
        }
    };
    // The machine's core count comes from blaeu-exec's budget detection,
    // with the environment override cleared so detection sees the
    // hardware. The benchmark then pins itself to one CPU (see
    // `affinity`), so the thread budget is 1.
    std::env::remove_var("BLAEU_THREADS");
    let nproc = blaeu_exec::thread_budget();
    let original = affinity::current();
    let pinned = original
        .as_ref()
        .and_then(affinity::Mask::last_cpu)
        .filter(|&cpu| affinity::set(&affinity::Mask::only(cpu)));
    blaeu_exec::set_thread_budget(run::THREADS);

    let work = match std::env::current_dir() {
        Ok(dir) => dir
            .join(".bench_build")
            .join(format!("explore-run-{}", std::process::id())),
        Err(e) => {
            eprintln!("explore_bench: no working directory: {e}");
            return ExitCode::from(2);
        }
    };
    let machine = Machine {
        nproc,
        pinned,
        original,
    };
    let result = run(&args, &machine, &work);
    let _ = std::fs::remove_dir_all(&work);
    match result {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("explore_bench: {e}");
            ExitCode::from(1)
        }
    }
}

/// Where the benchmark runs.
struct Machine {
    nproc: usize,
    /// The one CPU every benchmark thread runs on (`None`: not pinned).
    pinned: Option<usize>,
    /// The affinity mask the process started with.
    original: Option<affinity::Mask>,
}

fn run(args: &Args, machine: &Machine, work: &Path) -> Result<String, String> {
    let spec = &args.spec;
    std::fs::create_dir_all(work).map_err(|e| format!("creating {}: {e}", work.display()))?;
    println!(
        "workload {} seed {} seconds {} trace {} | machine nproc {} | pinned to cpu {} | \
         thread budget {} | clients {} (closed loop) | cache {} | journal {} on {} | \
         flush {:?}",
        spec.name,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        machine.nproc,
        machine
            .pinned
            .map_or("none".to_owned(), |cpu| cpu.to_string()),
        run::THREADS,
        run::CLIENTS,
        if spec.cache { "on" } else { "off" },
        work.display(),
        filesystem_of(work),
        run::FSYNC,
    );

    // Set-up, several times; the last stack serves the run.
    let mut setups = Vec::new();
    let mut kept = None;
    for rep in 0..run::SETUPS {
        let dir: PathBuf = work.join(format!("journal-{rep}"));
        let (input, stack, warm, seconds) = run::set_up(spec, args.seed, &dir)?;
        setups.push(seconds);
        kept = Some((input, stack, warm));
    }
    let (input, stack, warm) = kept.ok_or("no set-up ran")?;
    let ctx = Arc::new(run::ctx_for(spec, args.seed, &input, &stack));

    let before = trace::Counters::read(&stack);
    let steal_before = cpu_steal();
    let (mut logs, response_bytes) = run::timed_phase(&ctx, args.seconds);
    // Time the hypervisor gave the CPUs to others: the main cause of
    // whole-run speed shifts on a shared virtual machine.
    if let (Some((s0, t0)), Some((s1, t1))) = (steal_before, cpu_steal()) {
        println!(
            "host steal during the timed phase: {:.1}% of CPU time",
            100.0 * (s1 - s0) as f64 / (t1 - t0).max(1) as f64
        );
    }
    let after = trace::Counters::read(&stack);
    let delta = after.since(&before);

    let mut layers = trace::Layers::new();
    let mut notes = Vec::new();
    if args.trace {
        trace::builds(spec.cache, &warm, &logs, &mut layers);
        trace::counters(&delta, response_bytes, &mut layers);
        let seeds: Vec<u64> = (0..trace::TRACED_SESSIONS)
            .map(|i| ctx.session_seed(i))
            .collect();
        let column = highlight_column(&logs).ok_or("no session reached its highlight")?;
        notes = trace::stages(&input.table, &seeds, &column, &mut layers)?;
        trace::overheads(&stack, &ctx, &column, &mut layers)?;
    }
    let append_failures = trace::Counters::read(&stack).append_failures();
    let config = stack.config.clone();
    drop(stack);

    // Restart recovery over the kept-open sessions' journal.
    let attempted: usize = logs.iter().map(|l| l.attempted).sum::<usize>() + 1;
    let mut failed: usize = 0;
    let mut wrong: Vec<String> = Vec::new();
    let recovered = run::recover(&config, &input, &logs).and_then(|recovered| {
        if append_failures > 0 {
            Err(format!("{append_failures} journal appends failed"))
        } else {
            Ok(recovered)
        }
    });
    let recover_times = match recovered {
        Ok((times, report)) => {
            layers.insert("server.recover_replayed", report.replayed as f64);
            times
        }
        Err(e) => {
            failed += 1;
            wrong.push(format!("recovery: {e}"));
            layers.insert("server.recover_replayed", 0.0);
            Vec::new()
        }
    };

    // Every digest against an in-process, cache-off explorer. Nothing is
    // timed from here on, so the check runs on every CPU.
    if let Some(mask) = &machine.original {
        affinity::set(mask);
    }
    let aris = run::reference_check(
        &input,
        &mut logs,
        machine.nproc,
        spec.wide.then_some(MIN_ARI),
    );
    let mut timings = Timings::default();
    for log in &logs {
        timings.merge(&log.timings);
        failed += log.failed;
        wrong.extend(log.wrong.iter().cloned());
        for e in &log.errors {
            println!("failed op: session {}: {e}", log.index);
        }
    }
    for w in &wrong {
        println!("wrong output: {w}");
    }

    println!(
        "sessions {} ({} kept open for recovery) | attempted {attempted} failed {failed}",
        logs.len(),
        logs.iter().filter(|l| l.kept_open).count()
    );
    for (kind, samples) in timings.kinds() {
        let p90 = if samples.len() >= P90_MIN_SAMPLES {
            format!(" p90 {:.3} ms", samples.quantile(0.9).unwrap_or(f64::NAN))
        } else {
            String::new()
        };
        println!(
            "  {kind:<12} n={:<6} p50 {:.3} ms{p90}",
            samples.len(),
            p50(samples).unwrap_or(f64::NAN)
        );
    }
    println!(
        "  setup        n={} median {:.4} s {setups:.4?} | recover n={} median {:.4} s {recover_times:.4?}",
        setups.len(),
        by_rank(&setups, 0.5).unwrap_or(f64::NAN),
        recover_times.len(),
        by_rank(&recover_times, 0.5).unwrap_or(f64::NAN)
    );
    if !aris.is_empty() {
        let min = aris.iter().copied().fold(f64::INFINITY, f64::min);
        println!(
            "  root-map ARI vs planted labels: n={} min {min:.4}",
            aris.len()
        );
    }
    for line in &notes {
        println!("  trace: {line}");
    }

    let mut metrics = Map::new();
    if args.trace {
        for (name, unit) in trace::PER_LAYER {
            let value = layers.get(name).copied().unwrap_or(f64::NAN);
            println!("  {name} = {value} {unit}");
            metrics.insert(name.to_owned(), json!({"value": value, "unit": unit}));
        }
    } else {
        let values = [
            by_rank(&setups, 0.5),
            p50(&timings.open),
            p50(&timings.theme),
            p50(&timings.zoom),
            p50(&timings.read),
            p50(&timings.first_level),
            p50(&timings.final_level),
            by_rank(&recover_times, 0.5),
        ];
        for ((name, unit), value) in END_TO_END.iter().zip(values) {
            let value = value.unwrap_or(f64::NAN);
            metrics.insert((*name).to_owned(), json!({"value": value, "unit": unit}));
        }
    }
    let line = json!({
        "correct": wrong.is_empty(),
        "attempted": attempted,
        "failed": failed,
        "metrics": Value::Object(metrics),
    });
    serde_json::to_string(&line).map_err(|e| e.to_string())
}

/// The column the first complete session highlighted.
fn highlight_column(logs: &[run::SessionLog]) -> Option<String> {
    logs.iter()
        .filter(|l| l.failed == 0)
        .flat_map(|l| &l.digests)
        .find_map(|(_, command, _)| match command {
            blaeu_core::Command::Highlight(column) => Some(column.clone()),
            _ => None,
        })
}
