//! The traced run's per-layer numbers. Stage times come from calls into
//! each layer's public functions made here, in the benchmark; counters
//! come from what the program already exposes (`cache_stats`,
//! `journal_stats`, `progressive_stats`, `request_counts`). Nothing here
//! runs during the timed phase of an untraced run.
//!
//! In-process timings run on a one-worker [`JobPool`], the same
//! nesting-guarded, sequential setting the engine's workers execute
//! commands in.

use std::collections::{BTreeMap, HashSet};
use std::sync::Arc;
use std::time::Instant;

use blaeu_cluster::{select_k, KSelectConfig};
use blaeu_core::{
    build_map, detect_themes, preprocess, Command, DataMap, KChoice, MapperConfig, ProgressiveMap,
    ThemeConfig,
};
use blaeu_exec::JobPool;
use blaeu_stats::{describe, histogram};
use blaeu_store::{prefix_sample, Table, TableView};
use blaeu_tree::{accuracy, DecisionTree};

use crate::client::Client;
use crate::quantile::{by_rank, Samples};
use crate::run::{self, Ctx, SessionLog, Stack};

/// Every per-layer metric, with its unit, in report order.
pub const PER_LAYER: [(&str, &str); 28] = [
    ("cluster.select_k_ms", "ms"),
    ("cluster.pam_path_builds", "count"),
    ("cluster.clara_path_builds", "count"),
    ("core.preprocess_ms", "ms"),
    ("core.build_map_ms", "ms"),
    ("core.themes_ms", "ms"),
    ("core.execute_ms", "ms"),
    ("core.ladder_ms", "ms"),
    ("core.ladder_vs_exact", "ratio"),
    ("tree.fit_ms", "ms"),
    ("tree.route_ms", "ms"),
    ("store.sample_ms", "ms"),
    ("store.routed_rows", "count"),
    ("stats.highlight_ms", "ms"),
    ("server.overhead_ms", "ms"),
    ("server.cache_hits", "count"),
    ("server.cache_misses", "count"),
    ("server.cache_bytes", "bytes"),
    ("server.journal_records", "count"),
    ("server.journal_bytes", "bytes"),
    ("server.journal_fsyncs", "count"),
    ("server.recover_replayed", "count"),
    ("server.levels_streamed", "count"),
    ("server.rungs_cancelled", "count"),
    ("net.overhead_ms", "ms"),
    ("net.response_bytes", "bytes"),
    ("net.requests", "count"),
    ("net.rejected", "count"),
];

/// Traced sessions whose views the stage replica times.
pub const TRACED_SESSIONS: usize = 3;
/// Repetitions of every in-process call (medians are taken over them).
const REPS: usize = 9;
/// Repetitions of the wire / server / explorer overhead comparison.
const OVERHEAD_REPS: usize = 40;

/// Counter values the program exposes, read at one instant.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counters {
    cache_hits: u64,
    cache_misses: u64,
    cache_bytes: u64,
    journal_records: u64,
    journal_bytes: u64,
    journal_fsyncs: u64,
    append_failures: u64,
    levels_streamed: u64,
    rungs_cancelled: u64,
    requests: u64,
    rejected: u64,
}

impl Counters {
    pub fn read(stack: &Stack) -> Counters {
        let engine = stack.engine();
        let cache = engine.cache_stats();
        let journal = engine.journal_stats();
        let progressive = engine.progressive_stats();
        let (requests, rejected) = stack.net.request_counts();
        Counters {
            cache_hits: cache.map_or(0, |c| c.hits),
            cache_misses: cache.map_or(0, |c| c.misses),
            cache_bytes: cache.map_or(0, |c| (c.map_bytes + c.theme_bytes) as u64),
            journal_records: journal.map_or(0, |j| j.records),
            journal_bytes: journal.map_or(0, |j| j.bytes),
            journal_fsyncs: journal.map_or(0, |j| j.fsyncs),
            append_failures: journal.map_or(0, |j| j.append_failures),
            levels_streamed: progressive.levels_streamed,
            rungs_cancelled: progressive.rungs_cancelled,
            requests,
            rejected,
        }
    }

    pub fn append_failures(&self) -> u64 {
        self.append_failures
    }

    /// Counts accrued between `before` and `self`; `cache_bytes` is a
    /// level, so it is kept as read.
    pub fn since(&self, before: &Counters) -> Counters {
        Counters {
            cache_hits: self.cache_hits - before.cache_hits,
            cache_misses: self.cache_misses - before.cache_misses,
            cache_bytes: self.cache_bytes,
            journal_records: self.journal_records - before.journal_records,
            journal_bytes: self.journal_bytes - before.journal_bytes,
            journal_fsyncs: self.journal_fsyncs - before.journal_fsyncs,
            append_failures: self.append_failures - before.append_failures,
            levels_streamed: self.levels_streamed - before.levels_streamed,
            rungs_cancelled: self.rungs_cancelled - before.rungs_cancelled,
            requests: self.requests - before.requests,
            rejected: self.rejected - before.rejected,
        }
    }
}

/// Per-layer values by metric name.
pub type Layers = BTreeMap<&'static str, f64>;

/// Maps built (not served from the cache) in the timed phase, by
/// clustering path, and the rows they routed through their trees. With
/// the cache on, a map is built the first time its cache key appears in
/// a run (warm-up included); with it off, every map is built.
pub fn builds(cache: bool, warm: &[SessionLog], logs: &[SessionLog], layers: &mut Layers) {
    let clara_threshold = MapperConfig::default().clara_threshold;
    let mut seen: HashSet<(u64, u8, usize)> = warm
        .iter()
        .flat_map(|l| l.maps.iter().map(|m| m.key))
        .collect();
    let (mut pam, mut clara, mut routed) = (0u64, 0u64, 0u64);
    for map in logs.iter().flat_map(|l| &l.maps) {
        if cache && !seen.insert(map.key) {
            continue;
        }
        if map.sample_size > clara_threshold {
            clara += 1;
        } else {
            pam += 1;
        }
        routed += map.assigned_rows as u64;
    }
    layers.insert("cluster.pam_path_builds", pam as f64);
    layers.insert("cluster.clara_path_builds", clara as f64);
    layers.insert("store.routed_rows", routed as f64);
}

pub fn counters(delta: &Counters, response_bytes: u64, layers: &mut Layers) {
    let entries = [
        ("server.cache_hits", delta.cache_hits),
        ("server.cache_misses", delta.cache_misses),
        ("server.cache_bytes", delta.cache_bytes),
        ("server.journal_records", delta.journal_records),
        ("server.journal_bytes", delta.journal_bytes),
        ("server.journal_fsyncs", delta.journal_fsyncs),
        ("server.levels_streamed", delta.levels_streamed),
        ("server.rungs_cancelled", delta.rungs_cancelled),
        ("net.requests", delta.requests),
        ("net.rejected", delta.rejected),
        ("net.response_bytes", response_bytes),
    ];
    for (name, value) in entries {
        layers.insert(name, value as f64);
    }
}

fn ms(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

fn median(values: &[f64]) -> f64 {
    by_rank(values, 0.5).unwrap_or(f64::NAN)
}

/// One replica of `build_map`'s pipeline, stage by stage.
struct Stages {
    sample: f64,
    preprocess: f64,
    select_k: f64,
    fit: f64,
    route: f64,
    /// `(k, medoid rows, leaf counts)` the replica reached.
    outcome: (usize, Vec<u32>, Vec<usize>),
}

fn replica(view: &TableView, columns: &[&str], config: &MapperConfig) -> Result<Stages, String> {
    let KChoice::Auto { min, max } = config.k else {
        return Err("the replica covers the k sweep only".into());
    };
    let t = Instant::now();
    let sample_rows = prefix_sample(view.nrows(), config.sample_size.max(1), config.seed);
    let sample = view.select(&sample_rows).map_err(|e| e.to_string())?;
    let sample_ms = ms(t);

    let t = Instant::now();
    let points = preprocess(&sample, columns, &config.preprocess)
        .map_err(|e| e.to_string())?
        .into_points(config.metric);
    let preprocess_ms = ms(t);

    let t = Instant::now();
    let selection = select_k(
        &points,
        &KSelectConfig {
            k_min: min,
            k_max: max,
            clara_threshold: config.clara_threshold,
            pam: config.pam.clone(),
            clara: config.clara.clone(),
            mc: config.mc.clone(),
        },
    );
    let select_ms = ms(t);

    let t = Instant::now();
    let labels = &selection.result.labels;
    let tree =
        DecisionTree::fit(&sample, columns, labels, &config.cart).map_err(|e| e.to_string())?;
    let fidelity = accuracy(&tree.predict(&sample).map_err(|e| e.to_string())?, labels);
    std::hint::black_box(fidelity);
    let fit_ms = ms(t);

    let t = Instant::now();
    let assignments = tree.leaf_assignments(view).map_err(|e| e.to_string())?;
    let mut counts = vec![0usize; tree.n_leaves()];
    for leaf in assignments {
        counts[leaf] += 1;
    }
    let route_ms = ms(t);

    let medoids = selection
        .result
        .medoids
        .iter()
        .map(|&m| sample_rows[m])
        .collect();
    Ok(Stages {
        sample: sample_ms,
        preprocess: preprocess_ms,
        select_k: select_ms,
        fit: fit_ms,
        route: route_ms,
        outcome: (selection.k, medoids, counts),
    })
}

fn outcome_of(map: &DataMap) -> (usize, Vec<u32>, Vec<usize>) {
    let mut leaves: Vec<(usize, usize)> = map
        .leaves()
        .iter()
        .map(|r| (r.leaf.unwrap_or(usize::MAX), r.count))
        .collect();
    leaves.sort_unstable();
    (
        map.k,
        map.medoid_rows.clone(),
        leaves.into_iter().map(|(_, c)| c).collect(),
    )
}

fn largest_leaf(map: &DataMap) -> Option<usize> {
    map.leaves()
        .iter()
        .max_by(|a, b| a.count.cmp(&b.count).then(b.id.cmp(&a.id)))
        .map(|r| r.id)
}

/// Times the layers in-process over the first traced sessions' root and
/// zoom views. Each view contributes the median of [`REPS`] calls per
/// stage; a metric is the mean of those medians over the views, so stage
/// metrics add up the way their calls do.
pub fn stages(
    table: &Arc<Table>,
    seeds: &[u64],
    highlight_column: &str,
    layers: &mut Layers,
) -> Result<Vec<String>, String> {
    let pool = JobPool::new(1);
    let table = Arc::clone(table);
    let seeds = seeds.to_vec();
    let column = highlight_column.to_owned();
    let job = pool.submit(move || stages_inline(&table, &seeds, &column));
    let (values, notes) = job.join().ok_or("stage job cancelled")??;
    layers.extend(values);
    Ok(notes)
}

/// Metric values, and report lines (per-view sums, the reconciliation,
/// any staleness of the replica).
type StageValues = (Vec<(&'static str, f64)>, Vec<String>);

fn stages_inline(
    table: &Arc<Table>,
    seeds: &[u64],
    highlight_column: &str,
) -> Result<StageValues, String> {
    let root = TableView::new(Arc::clone(table));
    let mut themes_ms = Vec::new();
    let mut themes = None;
    for _ in 0..REPS {
        let t = Instant::now();
        themes = Some(detect_themes(&root, &ThemeConfig::default()).map_err(|e| e.to_string())?);
        themes_ms.push(ms(t));
    }
    let themes = themes.ok_or("no themes")?;
    let theme_columns: Vec<&str> = themes.themes[0]
        .columns
        .iter()
        .map(String::as_str)
        .collect();

    let mut per_view: Vec<[f64; 6]> = Vec::new(); // sample, preprocess, select_k, fit, route, build_map
    let (mut ladders, mut exacts, mut highlights) = (Vec::new(), Vec::new(), Vec::new());
    let mut notes = Vec::new();
    for &seed in seeds {
        let config = MapperConfig {
            seed,
            ..MapperConfig::default()
        };
        let root_map = build_map(&root, &theme_columns, &config).map_err(|e| e.to_string())?;
        let leaf = largest_leaf(&root_map).ok_or("root map without leaves")?;
        let rows = root_map
            .exact_rows_of(&root, leaf)
            .map_err(|e| e.to_string())?;
        let zoom = root.select(&rows).map_err(|e| e.to_string())?;
        for (label, view) in [("root", &root), ("zoom", &zoom)] {
            let mut reps: Vec<[f64; 6]> = Vec::new();
            let mut map = None;
            let mut stale = false;
            for _ in 0..REPS {
                let stages = replica(view, &theme_columns, &config)?;
                let t = Instant::now();
                let built = build_map(view, &theme_columns, &config).map_err(|e| e.to_string())?;
                let build_ms = ms(t);
                stale |= stages.outcome != outcome_of(&built);
                reps.push([
                    stages.sample,
                    stages.preprocess,
                    stages.select_k,
                    stages.fit,
                    stages.route,
                    build_ms,
                ]);
                map = Some(built);
            }
            if stale {
                notes.push(format!(
                    "stale: the stage replica of build_map no longer reaches the same k, \
                     medoids and leaf counts ({label} view, seed {seed:#x})"
                ));
            }
            let medians: [f64; 6] =
                std::array::from_fn(|i| median(&reps.iter().map(|r| r[i]).collect::<Vec<_>>()));
            notes.push(format!(
                "{label} view of session seed {seed:#x}: {} rows, stages sum {:.2} ms vs build_map {:.2} ms",
                view.nrows(),
                medians[..5].iter().sum::<f64>(),
                medians[5],
            ));
            per_view.push(medians);
            if label == "root" {
                exacts.push(medians[5]);
                let mut sums = Vec::new();
                for _ in 0..REPS {
                    let mut ladder = ProgressiveMap::new(view.nrows(), &config);
                    let mut total = 0.0;
                    while let Some(level) = ladder.next_level() {
                        let level_config = ladder.config_for(level).map_err(|e| e.to_string())?;
                        let t = Instant::now();
                        let built = Arc::new(
                            build_map(view, &theme_columns, &level_config)
                                .map_err(|e| e.to_string())?,
                        );
                        total += ms(t);
                        ladder.complete(level, &built).map_err(|e| e.to_string())?;
                    }
                    sums.push(total);
                }
                ladders.push(median(&sums));
            } else if let Some(map) = &map {
                let mut times = Vec::new();
                for _ in 0..REPS {
                    let t = Instant::now();
                    for region in map.leaves() {
                        let rows = map.rows_of(region.id).map_err(|e| e.to_string())?;
                        let sub = view.select(&rows).map_err(|e| e.to_string())?;
                        let col = sub
                            .col_by_name(highlight_column)
                            .map_err(|e| e.to_string())?;
                        std::hint::black_box((describe(&col, 5), histogram(&col, 8)));
                    }
                    times.push(ms(t));
                }
                highlights.push(median(&times));
            }
        }
    }
    let mean = |xs: &[f64]| xs.iter().sum::<f64>() / xs.len().max(1) as f64;
    let column = |i: usize| mean(&per_view.iter().map(|v| v[i]).collect::<Vec<_>>());
    let stage_sum: f64 = (0..5).map(column).sum();
    let build = column(5);
    let share = stage_sum / build;
    notes.push(format!(
        "stage medians sum to {:.1}% of the build_map median ({stage_sum:.2} of {build:.2} ms)",
        share * 100.0
    ));
    if (share - 1.0).abs() > 0.05 {
        notes.push(format!(
            "gap: {:.2} ms ({:+.1}%) of build_map is outside the timed stages",
            build - stage_sum,
            (1.0 - share) * 100.0
        ));
    }
    let ladder = mean(&ladders);
    let values = vec![
        ("store.sample_ms", column(0)),
        ("core.preprocess_ms", column(1)),
        ("cluster.select_k_ms", column(2)),
        ("tree.fit_ms", column(3)),
        ("tree.route_ms", column(4)),
        ("core.build_map_ms", build),
        ("core.themes_ms", median(&themes_ms)),
        ("core.ladder_ms", ladder),
        ("core.ladder_vs_exact", ladder / mean(&exacts)),
        ("stats.highlight_ms", mean(&highlights)),
    ];
    notes.push(format!(
        "core.ladder_vs_exact: ladder rung builds {ladder:.2} ms over one exact root build {:.2} ms",
        mean(&exacts)
    ));
    Ok((values, notes))
}

/// Latency of one highlight three ways on the same session state: over
/// the wire, through `AsyncSessionServer::request`, and by a direct
/// `Explorer::execute` on a copy of the session's explorer.
pub fn overheads(
    stack: &Stack,
    ctx: &Ctx,
    column: &str,
    layers: &mut Layers,
) -> Result<(), String> {
    let mut client = Client::new(ctx.addr);
    let log = run::run_session(&mut client, ctx, usize::MAX - 1, true);
    let session = log
        .session
        .ok_or_else(|| format!("traced session failed: {:?}{:?}", log.errors, log.wrong))?;
    let engine = Arc::clone(stack.engine());
    let command = Command::Highlight(column.to_owned());
    let pool = JobPool::new(1);
    let job = {
        let engine = Arc::clone(&engine);
        let command = command.clone();
        pool.submit(move || -> Result<[Samples; 3], String> {
            let mut wire = Samples::default();
            let mut served = Samples::default();
            let mut direct = Samples::default();
            let body = command.to_json();
            let body = serde_json::to_string(&body).map_err(|e| e.to_string())?;
            let mut explorer = engine
                .manager()
                .with(session, |explorer| explorer.clone())
                .map_err(|e| e.to_string())?;
            for _ in 0..OVERHEAD_REPS {
                let t = Instant::now();
                let reply = client.request(
                    "POST",
                    &format!("/sessions/{session}/commands"),
                    body.as_bytes(),
                    t + std::time::Duration::from_secs(20),
                )?;
                if reply.status != 200 {
                    return Err(format!("traced highlight answered {}", reply.status));
                }
                wire.push(ms(t));
                let t = Instant::now();
                engine
                    .request(session, command.clone())
                    .map_err(|e| e.to_string())?;
                served.push(ms(t));
                let t = Instant::now();
                std::hint::black_box(explorer.execute(&command).map_err(|e| e.to_string())?);
                direct.push(ms(t));
            }
            Ok([wire, served, direct])
        })
    };
    let [wire, served, direct] = job.join().ok_or("overhead job cancelled")??;
    engine.close(session).map_err(|e| e.to_string())?;
    let p50 = |s: &Samples| s.quantile(0.5).unwrap_or(f64::NAN);
    layers.insert("core.execute_ms", p50(&direct));
    layers.insert("server.overhead_ms", p50(&served) - p50(&direct));
    layers.insert("net.overhead_ms", p50(&wire) - p50(&served));
    Ok(())
}
