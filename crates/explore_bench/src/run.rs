//! Workloads, set-up, the closed-loop session script, the in-process
//! reference and restart recovery.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use serde_json::{json, Value};

use blaeu_core::{
    analyzable_columns, level_schedule, Command, Explorer, ExplorerConfig, MapperConfig,
    PreprocessConfig, SessionId,
};
use blaeu_exec::JobPool;
use blaeu_net::{NetConfig, NetServer};
use blaeu_server::{AsyncSessionServer, FsyncPolicy, RecoveryReport, ServerConfig};
use blaeu_store::generate::{oecd, planted, OecdConfig, PlantedConfig, PlantedTruth, ThemeSpec};
use blaeu_store::{Table, TableView};

use crate::check::{self, Level, WireMap};
use crate::client::Client;
use crate::quantile::Samples;

/// The mapper's k sweep (`KChoice::Auto` default).
pub const K_RANGE: (usize, usize) = (2, 6);
/// Deadline of one request/response exchange.
const OP_DEADLINE: Duration = Duration::from_secs(20);
/// Deadline of one progressive stream, submit to final line.
const STREAM_DEADLINE: Duration = Duration::from_secs(40);
/// Journal flush policy. The journal lives in the working directory,
/// which may be on a disk, where fsync time is the disk's rather than
/// the program's (see the README).
pub const FSYNC: FsyncPolicy = FsyncPolicy::Never;
/// Set-up repetitions per run (`setup_s` is their median).
pub const SETUPS: usize = 5;
/// Restart recoveries per run (`recover_s` is their median).
const RECOVERIES: usize = 5;
/// The thread budget: the benchmark runs on one pinned CPU (see
/// `affinity`), so the engine has one worker.
pub const THREADS: usize = 1;
/// Closed-loop clients. One: on a single core a second client's
/// commands queue in front of the first's, and that queueing moved
/// `revisit_hot`'s medians by 12–17% from run to run.
pub const CLIENTS: usize = 1;

/// One workload's shape.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    /// The 50 000 × 48 planted table instead of the 1200-row OECD one.
    pub wide: bool,
    /// Analysis cache on.
    pub cache: bool,
    /// Sessions reuse this many warmed mapper seeds (`0`: a fresh seed
    /// per session, so every map is built).
    pub seed_pool: usize,
    /// The first sessions of a run stay open; restart recovery replays
    /// exactly these, so its work does not grow with throughput.
    pub kept_open: usize,
}

pub const WORKLOADS: [Spec; 3] = [
    Spec {
        name: "drill_cold",
        wide: false,
        cache: true,
        seed_pool: 0,
        kept_open: 8,
    },
    Spec {
        name: "revisit_hot",
        wide: false,
        cache: true,
        seed_pool: 8,
        kept_open: 64,
    },
    Spec {
        name: "ladder_wide",
        wide: true,
        cache: false,
        seed_pool: 0,
        kept_open: 4,
    },
];

/// splitmix64: derives every seed of a run from `--seed`.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The table a run serves and what the generator planted in it.
pub struct Input {
    pub name: &'static str,
    pub table: Arc<Table>,
    pub truth: PlantedTruth,
    pub analyzable: Vec<String>,
    /// Planted column groups (theme index order).
    pub groups: Vec<Vec<String>>,
}

/// Generator seed of both tables: the repository's fixed workload seed,
/// so `oecd` and `wide` are the `oecd_small()` and `wide()` tables.
/// `--seed` varies the sessions (their mapper seeds), not the table.
const TABLE_SEED: u64 = 20160913;

fn make_input(spec: &Spec) -> Result<Input, String> {
    let table_seed = TABLE_SEED;
    let (table, truth) = if spec.wide {
        planted(&PlantedConfig {
            name: "wide".to_owned(),
            nrows: 50_000,
            themes: (0..8)
                .map(|t| ThemeSpec::numeric(format!("t{t}"), 6))
                .collect(),
            clusters: 4,
            cluster_sep: 5.0,
            cluster_weights: Vec::new(),
            noise: 0.4,
            missing_rate: 0.0,
            seed: table_seed,
        })
    } else {
        oecd(&OecdConfig {
            nrows: 1200,
            ncols: 36,
            missing_rate: 0.0,
            seed: table_seed,
        })
    }
    .map_err(|e| format!("generating the table: {e}"))?;
    let table = Arc::new(table);
    let view = TableView::new(Arc::clone(&table));
    let analyzable = analyzable_columns(&view, &PreprocessConfig::default())
        .into_iter()
        .map(str::to_owned)
        .collect();
    let mut groups = vec![Vec::new(); truth.theme_names.len()];
    for (column, theme) in &truth.theme_of_column {
        groups[*theme].push(column.clone());
    }
    Ok(Input {
        name: if spec.wide { "wide" } else { "oecd" },
        table,
        truth,
        analyzable,
        groups,
    })
}

/// The serving stack of one run.
pub struct Stack {
    pub net: NetServer,
    pub config: ServerConfig,
}

impl Stack {
    pub fn engine(&self) -> &Arc<AsyncSessionServer> {
        self.net.engine()
    }
}

fn server_config(spec: &Spec, journal: &Path) -> ServerConfig {
    ServerConfig {
        threads: THREADS,
        cache_capacity: if spec.cache { 256 } else { 0 },
        journal_dir: Some(journal.to_path_buf()),
        journal_fsync: FSYNC,
        ..ServerConfig::default()
    }
}

/// What every client of a run shares.
pub struct Ctx {
    pub spec: Spec,
    pub seed: u64,
    pub addr: std::net::SocketAddr,
    pub table: &'static str,
    pub analyzable: Vec<String>,
    pub groups: Vec<Vec<String>>,
}

impl Ctx {
    /// Mapper seed of session `index`.
    pub fn session_seed(&self, index: usize) -> u64 {
        let slot = match self.spec.seed_pool {
            0 => index,
            pool => index % pool,
        };
        mix(self.seed, 0x5e55_0000u64.wrapping_add(slot as u64))
    }
}

/// Latencies of one run (or one client), per operation kind.
#[derive(Debug, Default, Clone)]
pub struct Timings {
    pub open: Samples,
    pub themes: Samples,
    pub theme: Samples,
    pub first_level: Samples,
    pub final_level: Samples,
    pub zoom: Samples,
    pub read: Samples,
    pub close: Samples,
}

impl Timings {
    pub fn merge(&mut self, other: &Timings) {
        for (mine, (_, theirs)) in self.kinds_mut().into_iter().zip(other.kinds()) {
            mine.extend(theirs);
        }
    }

    pub fn kinds(&self) -> [(&'static str, &Samples); 8] {
        [
            ("open", &self.open),
            ("themes", &self.themes),
            ("theme", &self.theme),
            ("first_level", &self.first_level),
            ("final_level", &self.final_level),
            ("zoom", &self.zoom),
            ("read", &self.read),
            ("close", &self.close),
        ]
    }

    fn kinds_mut(&mut self) -> [&mut Samples; 8] {
        [
            &mut self.open,
            &mut self.themes,
            &mut self.theme,
            &mut self.first_level,
            &mut self.final_level,
            &mut self.zoom,
            &mut self.read,
            &mut self.close,
        ]
    }
}

/// A map the wire delivered. `key` stands for the analysis-cache key it
/// was looked up under: (mapper seed, view: 0 root / 1 zoom, rung sample
/// size or 0 for the session configuration). The final ladder rung
/// shares the theme map's key, as it does in the cache.
#[derive(Debug, Clone, Copy)]
pub struct SeenMap {
    pub key: (u64, u8, usize),
    pub sample_size: usize,
    pub assigned_rows: usize,
}

/// Everything one scripted session did.
#[derive(Debug, Default)]
pub struct SessionLog {
    pub index: usize,
    pub seed: u64,
    pub kept_open: bool,
    /// Server session id while open.
    pub session: Option<SessionId>,
    /// `(op index, command, wire digest)` for the in-process reference.
    pub digests: Vec<(usize, Command, u64)>,
    /// Digest of the session's current map when the script ended.
    pub last_map: Option<u64>,
    /// Commands answered with a 2xx (each ladder level counts once).
    pub acked: usize,
    pub attempted: usize,
    pub failed: usize,
    /// Failed checks (wrong outputs), as opposed to failed requests.
    pub wrong: Vec<String>,
    pub errors: Vec<String>,
    pub maps: Vec<SeenMap>,
    pub timings: Timings,
}

/// How an operation went wrong.
enum OpError {
    /// Non-2xx, transport error or deadline.
    Failed(String),
    /// The answer arrived but a check rejected it.
    Wrong(String),
}

impl From<String> for OpError {
    fn from(message: String) -> Self {
        OpError::Failed(message)
    }
}

/// JSON text of a built value (serializing a `Value` cannot fail).
fn text(value: &Value) -> String {
    serde_json::to_string(value).unwrap_or_default()
}

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

fn parse(body: &[u8]) -> Result<Value, OpError> {
    serde_json::from_slice(body).map_err(|e| OpError::Wrong(format!("unparsable reply: {e}")))
}

/// Runs one command over the wire; on 200 records its latency.
fn wire_command(
    client: &mut Client,
    session: SessionId,
    command: &Command,
    samples: &mut Samples,
) -> Result<(Value, u64), OpError> {
    let body = text(&command.to_json());
    let started = Instant::now();
    let reply = client.request(
        "POST",
        &format!("/sessions/{session}/commands"),
        body.as_bytes(),
        started + OP_DEADLINE,
    )?;
    let ms = ms_since(started);
    if reply.status != 200 {
        return Err(OpError::Failed(format!(
            "{body} answered {}: {}",
            reply.status,
            String::from_utf8_lossy(&reply.body)
        )));
    }
    samples.push(ms);
    let value = parse(&reply.body)?;
    let digest = check::hex_field(&value, "digest").map_err(OpError::Wrong)?;
    Ok((value, digest))
}

fn wrong<T>(result: Result<T, String>) -> Result<T, OpError> {
    result.map_err(OpError::Wrong)
}

/// Operations one session attempts.
fn planned_ops(kept_open: bool) -> usize {
    6 + usize::from(!kept_open)
}

/// One scripted session: open → themes → select_theme(0) →
/// map_progressive streamed to its final line → zoom into the largest
/// leaf → highlight → close (unless kept open for recovery).
pub fn run_session(client: &mut Client, ctx: &Ctx, index: usize, kept_open: bool) -> SessionLog {
    let mut log = SessionLog {
        index,
        seed: ctx.session_seed(index),
        kept_open,
        attempted: planned_ops(kept_open),
        ..SessionLog::default()
    };
    let mut done = 0usize;
    if let Err(error) = script(client, ctx, &mut log, &mut done) {
        log.failed = log.attempted - done;
        match error {
            OpError::Failed(message) => log.errors.push(message),
            OpError::Wrong(message) => log.wrong.push(message),
        }
        if let Some(session) = log.session.take() {
            let _ = client.request(
                "DELETE",
                &format!("/sessions/{session}"),
                b"",
                Instant::now() + OP_DEADLINE,
            );
        }
    }
    log
}

fn script(
    client: &mut Client,
    ctx: &Ctx,
    log: &mut SessionLog,
    done: &mut usize,
) -> Result<(), OpError> {
    // open
    let body = text(&json!({"table": ctx.table, "seed": log.seed}));
    let started = Instant::now();
    let reply = client.request("POST", "/sessions", body.as_bytes(), started + OP_DEADLINE)?;
    let ms = ms_since(started);
    if reply.status != 201 {
        return Err(OpError::Failed(format!("open answered {}", reply.status)));
    }
    log.timings.open.push(ms);
    let session = parse(&reply.body)?
        .get("session")
        .and_then(Value::as_u64)
        .ok_or_else(|| OpError::Wrong("open reply without a session id".into()))?;
    log.session = Some(session);
    *done += 1;

    // themes
    let command = Command::Themes;
    let (value, digest) = wire_command(client, session, &command, &mut log.timings.themes)?;
    log.digests.push((*done, command, digest));
    log.acked += 1;
    let themes: Vec<Vec<String>> = value
        .get("themes")
        .and_then(|t| t.get("themes"))
        .and_then(Value::as_array)
        .ok_or_else(|| OpError::Wrong("themes reply without themes".into()))?
        .iter()
        .map(|t| {
            t.get("columns")
                .and_then(Value::as_array)
                .map(|cols| {
                    cols.iter()
                        .filter_map(|c| c.as_str().map(str::to_owned))
                        .collect()
                })
                .unwrap_or_default()
        })
        .collect();
    wrong(check::check_partition(&themes, &ctx.analyzable))?;
    if ctx.spec.wide {
        wrong(check::check_groups(&themes, &ctx.groups))?;
    }
    *done += 1;

    // select_theme at the root
    let command = Command::SelectTheme(0);
    let (value, digest) = wire_command(client, session, &command, &mut log.timings.theme)?;
    log.digests.push((*done, command, digest));
    log.acked += 1;
    let root = wrong(check::parse_map(&value))?;
    wrong(check::check_map(&root, K_RANGE))?;
    if ctx.spec.wide && root.k != 4 {
        return Err(OpError::Wrong(format!("wide root map has k = {}", root.k)));
    }
    note_map(log, (log.seed, 0, 0), &root);
    *done += 1;

    // map_progressive, streamed to its final line
    let levels = progressive(client, session, log)?;
    let schedule = level_schedule(root.view_rows, MapperConfig::default().sample_size);
    wrong(check::check_ladder(&levels, &schedule))?;
    let last = levels.last().map_or(0, |l| l.map_digest);
    wrong(check::check_digest(
        "final level vs plain map",
        last,
        digest,
    ))?;
    for level in &levels {
        let command = if level.level == 0 {
            Command::MapProgressive
        } else {
            Command::MapRefine { level: level.level }
        };
        log.digests.push((*done, command, level.digest));
    }
    log.acked += levels.len();
    *done += 1;

    // zoom into the largest leaf
    let (leaf, rows) = check::largest_leaf(&root)
        .ok_or_else(|| OpError::Wrong("root map without leaves".into()))?;
    let command = Command::Zoom(leaf);
    let (value, digest) = wire_command(client, session, &command, &mut log.timings.zoom)?;
    log.digests.push((*done, command, digest));
    log.acked += 1;
    let zoomed = wrong(check::parse_map(&value))?;
    wrong(check::check_map(&zoomed, K_RANGE))?;
    if zoomed.view_rows != rows {
        return Err(OpError::Wrong(format!(
            "zoom view has {} rows, the leaf had {rows}",
            zoomed.view_rows
        )));
    }
    note_map(log, (log.seed, 1, 0), &zoomed);
    log.last_map = Some(digest);
    *done += 1;

    // highlight, always of the first column of the first theme:
    // highlights of different columns take different code paths
    // (categorical vs numeric summaries), and a median pooled over two
    // paths jumps between them from run to run
    let column = themes[0]
        .first()
        .cloned()
        .ok_or_else(|| OpError::Wrong("empty theme".into()))?;
    let command = Command::Highlight(column);
    let (_, digest) = wire_command(client, session, &command, &mut log.timings.read)?;
    log.digests.push((*done, command, digest));
    log.acked += 1;
    *done += 1;

    if !log.kept_open {
        let started = Instant::now();
        let reply = client.request(
            "DELETE",
            &format!("/sessions/{session}"),
            b"",
            started + OP_DEADLINE,
        )?;
        if reply.status != 200 {
            return Err(OpError::Failed(format!("close answered {}", reply.status)));
        }
        log.timings.close.push(ms_since(started));
        log.session = None;
        *done += 1;
    }
    Ok(())
}

fn note_map(log: &mut SessionLog, key: (u64, u8, usize), map: &WireMap) {
    log.maps.push(SeenMap {
        key,
        sample_size: map.sample_size,
        assigned_rows: map.assigned_rows,
    });
}

/// `map_progressive` on the NDJSON batch endpoint: times the level-0
/// line and the final line from submit.
fn progressive(
    client: &mut Client,
    session: SessionId,
    log: &mut SessionLog,
) -> Result<Vec<Level>, OpError> {
    let body = format!("{}\n", text(&Command::MapProgressive.to_json()));
    let seed = log.seed;
    let started = Instant::now();
    let mut levels: Vec<Level> = Vec::new();
    let mut stamps = Vec::new();
    let mut maps = Vec::new();
    let status = client.stream(
        &format!("/sessions/{session}/commands/batch"),
        body.as_bytes(),
        started + STREAM_DEADLINE,
        &mut |line| {
            stamps.push(ms_since(started));
            let value: Value =
                serde_json::from_slice(line).map_err(|e| format!("unparsable line: {e}"))?;
            let level = check::parse_level(&value)?;
            let rung = if level.last { 0 } else { level.sample_size };
            maps.push(SeenMap {
                key: (seed, 0, rung),
                sample_size: level.sample_size,
                assigned_rows: value
                    .get("assigned_rows")
                    .and_then(Value::as_u64)
                    .unwrap_or(0) as usize,
            });
            levels.push(level);
            Ok(())
        },
    )?;
    if status != 200 {
        return Err(OpError::Failed(format!("batch answered {status}")));
    }
    if !levels.last().is_some_and(|l| l.last) {
        return Err(OpError::Failed(format!(
            "stream ended after {} levels without a final line",
            levels.len()
        )));
    }
    log.timings.first_level.push(stamps[0]);
    log.timings.final_level.push(stamps[stamps.len() - 1]);
    log.maps.extend(maps);
    Ok(levels)
}

/// Builds inputs, starts the stack and warms it; returns the set-up time.
pub fn set_up(
    spec: &Spec,
    seed: u64,
    dir: &Path,
) -> Result<(Input, Stack, Vec<SessionLog>, f64), String> {
    let started = Instant::now();
    let input = make_input(spec)?;
    let _ = std::fs::remove_dir_all(dir);
    let config = server_config(spec, dir);
    let engine = AsyncSessionServer::try_new(config.clone())
        .map_err(|e| format!("opening the journal in {}: {e}", dir.display()))?;
    let net = NetServer::bind(
        "127.0.0.1:0",
        Arc::new(engine),
        NetConfig {
            conn_threads: CLIENTS,
            ..NetConfig::default()
        },
    )
    .map_err(|e| format!("binding the loopback server: {e}"))?;
    net.register_table(input.name, Arc::clone(&input.table));
    let stack = Stack { net, config };
    let ctx = ctx_for(spec, seed, &input, &stack);
    // Warm-up: revisit_hot runs every pooled seed's script once so the
    // timed sessions only hit the cache; drill_cold opens (and closes)
    // one session with a seed no timed session uses, so theme detection
    // is cached; ladder_wide has no cache to warm.
    let mut client = Client::new(ctx.addr);
    if spec.cache && spec.seed_pool == 0 {
        let body = text(&json!({"table": ctx.table, "seed": mix(seed, 0xfa11)}));
        let reply = client.request(
            "POST",
            "/sessions",
            body.as_bytes(),
            Instant::now() + OP_DEADLINE,
        )?;
        let id = serde_json::from_slice(&reply.body)
            .ok()
            .and_then(|v| v.get("session").and_then(Value::as_u64))
            .ok_or("warm-up open failed")?;
        stack.engine().close(id).map_err(|e| e.to_string())?;
    }
    let mut warm = Vec::new();
    for index in 0..if spec.cache { spec.seed_pool } else { 0 } {
        let log = run_session(&mut client, &ctx, index, false);
        if log.failed > 0 {
            return Err(format!(
                "warm-up session failed: {:?} {:?}",
                log.errors, log.wrong
            ));
        }
        warm.push(log);
    }
    Ok((input, stack, warm, started.elapsed().as_secs_f64()))
}

pub fn ctx_for(spec: &Spec, seed: u64, input: &Input, stack: &Stack) -> Ctx {
    Ctx {
        spec: *spec,
        seed,
        addr: stack.net.local_addr(),
        table: input.name,
        analyzable: input.analyzable.clone(),
        groups: input.groups.clone(),
    }
}

/// The timed phase: [`CLIENTS`] closed-loop clients on a [`JobPool`],
/// each running whole sessions until `seconds` have passed.
pub fn timed_phase(ctx: &Arc<Ctx>, seconds: u64) -> (Vec<SessionLog>, u64) {
    let pool = JobPool::new(CLIENTS);
    let next = Arc::new(AtomicUsize::new(0));
    let end = Instant::now() + Duration::from_secs(seconds);
    let handles: Vec<_> = (0..CLIENTS)
        .map(|_| {
            let ctx = Arc::clone(ctx);
            let next = Arc::clone(&next);
            pool.submit(move || {
                let mut client = Client::new(ctx.addr);
                let mut logs = Vec::new();
                while Instant::now() < end {
                    let index = next.fetch_add(1, Ordering::Relaxed);
                    let kept_open = index < ctx.spec.kept_open;
                    logs.push(run_session(&mut client, &ctx, index, kept_open));
                }
                (logs, client.bytes_in)
            })
        })
        .collect();
    let mut logs = Vec::new();
    let mut bytes = 0;
    for handle in handles {
        let (mut mine, bytes_in) = handle.join().expect("client jobs are never cancelled");
        logs.append(&mut mine);
        bytes += bytes_in;
    }
    pool.shutdown_and_join();
    logs.sort_by_key(|log| log.index);
    (logs, bytes)
}

/// Op index of `select_theme` in a session (open, themes, theme, ...).
const THEME_OP: usize = 2;

/// Replays every distinct session (seed + commands) on an in-process,
/// cache-off [`Explorer`] and marks each op whose wire digest differs.
/// With `min_ari`, the root map's leaf clusters must also reach that ARI
/// against the planted labels. Returns the ARIs measured.
pub fn reference_check(
    input: &Input,
    logs: &mut [SessionLog],
    workers: usize,
    min_ari: Option<f64>,
) -> Vec<f64> {
    // One reference per distinct (seed, command list).
    let mut plans: BTreeMap<u64, Vec<Command>> = BTreeMap::new();
    for log in logs.iter().filter(|l| l.failed == 0) {
        plans
            .entry(log.seed)
            .or_insert_with(|| log.digests.iter().map(|(_, c, _)| c.clone()).collect());
    }
    let pool = JobPool::new(workers);
    let handles: Vec<_> = plans
        .into_iter()
        .map(|(seed, commands)| {
            let table = Arc::clone(&input.table);
            let labels = min_ari.map(|_| input.truth.labels.clone());
            pool.submit(move || reference_session(table, seed, commands, labels))
        })
        .collect();
    let mut references = HashMap::new();
    let mut aris = Vec::new();
    for handle in handles {
        let (seed, commands, digests, ari) =
            handle.join().expect("reference jobs are never cancelled");
        if let Some(ari) = ari {
            aris.push(ari);
        }
        references.insert(seed, (commands, digests, ari));
    }
    pool.shutdown_and_join();
    for log in logs.iter_mut().filter(|l| l.failed == 0) {
        let Some((commands, reference, ari)) = references.get(&log.seed) else {
            continue;
        };
        let mut bad_ops = BTreeSet::new();
        for (j, (op, command, digest)) in log.digests.iter().enumerate() {
            let ok = commands.get(j) == Some(command)
                && matches!(reference.get(j), Some(Ok(d)) if d == digest);
            if !ok && bad_ops.insert(*op) {
                log.wrong.push(format!(
                    "session {} {command:?}: wire {digest:016x} vs in-process {:?}",
                    log.index,
                    reference.get(j)
                ));
            }
        }
        if let (Some(min), Some(ari)) = (min_ari, ari) {
            // NaN (unlabelled rows) fails too.
            if (ari.is_nan() || *ari < min) && bad_ops.insert(THEME_OP) {
                log.wrong.push(format!(
                    "session {}: root map ARI {ari:.4} against the planted labels is below {min}",
                    log.index
                ));
            }
        }
        log.failed += bad_ops.len();
    }
    aris
}

type Reference = (u64, Vec<Command>, Vec<Result<u64, String>>, Option<f64>);

fn reference_session(
    table: Arc<Table>,
    seed: u64,
    commands: Vec<Command>,
    planted_labels: Option<Vec<usize>>,
) -> Reference {
    let mut config = ExplorerConfig::default();
    config.mapper.seed = seed;
    let mut explorer = match Explorer::open_shared(table, config) {
        Ok(explorer) => explorer,
        Err(e) => {
            let failed = commands.iter().map(|_| Err(e.to_string())).collect();
            return (seed, commands, failed, None);
        }
    };
    let mut digests = Vec::with_capacity(commands.len());
    let mut ari = None;
    for command in &commands {
        digests.push(
            explorer
                .execute(command)
                .map(|r| r.digest())
                .map_err(|e| e.to_string()),
        );
        if let (Command::SelectTheme(_), Some(labels)) = (command, &planted_labels) {
            ari = Some(root_ari(&explorer, labels));
        }
    }
    (seed, commands, digests, ari)
}

/// ARI of the current (root) map's leaf clusters against planted labels.
fn root_ari(explorer: &Explorer, planted: &[usize]) -> f64 {
    let Ok(map) = explorer.map() else {
        return f64::NAN;
    };
    let mut labels = vec![usize::MAX; planted.len()];
    for leaf in map.leaves() {
        for row in map.rows_of(leaf.id).unwrap_or_default() {
            labels[row as usize] = leaf.cluster;
        }
    }
    if labels.contains(&usize::MAX) {
        return f64::NAN;
    }
    check::ari(&labels, planted)
}

/// Restart recovery, several times over the same journal, each by a
/// fresh engine. Returns the seconds each took and the last report;
/// the recovered sessions' next map digests are checked against their
/// last pre-restart digests.
pub fn recover(
    stack_config: &ServerConfig,
    input: &Input,
    logs: &[SessionLog],
) -> Result<(Vec<f64>, RecoveryReport), String> {
    let tables = HashMap::from([(input.name.to_owned(), Arc::clone(&input.table))]);
    let open: BTreeMap<SessionId, &SessionLog> = logs
        .iter()
        .filter_map(|log| log.session.map(|id| (id, log)))
        .collect();
    let mut times = Vec::new();
    let mut last = RecoveryReport::default();
    // Recovery runs on a one-worker pool: sequential under the nesting
    // guard, like every command the engine executes.
    let pool = JobPool::new(1);
    for round in 0..RECOVERIES {
        let engine =
            Arc::new(AsyncSessionServer::try_new(stack_config.clone()).map_err(|e| e.to_string())?);
        let job = {
            let (engine, tables) = (Arc::clone(&engine), tables.clone());
            pool.submit(move || {
                let started = Instant::now();
                let report = engine.recover(&tables);
                (report, started.elapsed().as_secs_f64())
            })
        };
        let (report, seconds) = job.join().ok_or("recovery job cancelled")?;
        let report = report.map_err(|e| e.to_string())?;
        times.push(seconds);
        if !report.errors.is_empty() {
            return Err(format!("recovery errors: {:?}", report.errors));
        }
        let expected: usize = open.values().map(|log| log.acked).sum();
        if report.replayed != expected as u64 {
            return Err(format!(
                "recovery replayed {} commands, {expected} were acknowledged",
                report.replayed
            ));
        }
        let ids: Vec<SessionId> = open.keys().copied().collect();
        if report.sessions != ids {
            return Err(format!(
                "recovered sessions {:?}, expected {ids:?}",
                report.sessions
            ));
        }
        // A map command is journaled, so only the last recovery checks
        // the recovered state this way (earlier ones must leave the
        // journal exactly as the timed phase left it).
        for (&id, log) in open.iter().filter(|_| round + 1 == RECOVERIES) {
            let next = engine
                .request(id, Command::Map)
                .map_err(|e| format!("map after recovery of session {id}: {e}"))?
                .digest();
            if Some(next) != log.last_map {
                return Err(format!(
                    "session {id}: map after recovery {next:016x}, before {:?}",
                    log.last_map
                ));
            }
        }
        last = report;
    }
    Ok((times, last))
}
