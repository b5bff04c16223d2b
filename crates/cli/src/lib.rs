//! Implementation of the `gtl` command-line tool.
//!
//! Subcommands (see `gtl --help`):
//!
//! * `gtl stats <file>` — netlist statistics (`|V|`, `|E|`, pins, `A(G)`,
//!   degree profile);
//! * `gtl find <file> [options]` — run the three-phase finder and print a
//!   GTL table, or the [`gtl_api::FindResponse`] JSON with `--json`;
//! * `gtl score <file> --cells <ids>` — score one cell group under every
//!   metric;
//! * `gtl curve <file> --seed <id>` — CSV score curve of one linear
//!   ordering (the paper's Figures 2/3/5 raw data);
//! * `gtl synth --cells N --out <file.hgr>` — stream a synthetic
//!   ISPD-like design to disk in bounded memory (see
//!   [`gtl_synth::stream`]);
//! * `gtl serve <file>` — the JSON-lines request server (see
//!   [`gtl_api::serve`](mod@gtl_api::serve));
//! * `gtl loadgen record|replay` — capture live serve traffic into a
//!   deterministic trace and drive it back open- or closed-loop (see
//!   [`gtl_loadgen`]).
//!
//! Input formats are detected by extension: `.hgr` (hMETIS), `.aux`
//! (Bookshelf), `.v` (structural Verilog). Errors carry structured
//! [`ApiError`] codes; exit codes are documented in the `--help` text.
//! The logic lives in this library so it can be unit-tested; `main.rs`
//! is a thin shim.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt::Write as _;
use std::time::Duration;

use gtl_api::{
    load_netlist, ApiError, FindRequest, FindResponse, RuntimeConfig, ServeReport, Session,
    SessionDispatcher,
};
use gtl_netlist::{verilog, CellId, CellSet, Netlist, NetlistStats, SubsetStats};
use gtl_tangled::candidate::{score_curve, CandidateConfig};
use gtl_tangled::metrics::{self, baseline, DesignContext};
use gtl_tangled::{FinderConfig, GrowthConfig, MetricKind, OrderingGrower};

/// Usage text printed by `--help` and on argument errors.
pub const USAGE: &str = "\
gtl — tangled-logic finder (DAC 2010 reproduction)

USAGE:
  gtl stats <file>
  gtl find  <file> [--seeds N] [--min-size N] [--max-order N]
                   [--threshold F] [--metric ngtl|sd] [--rng N] [--threads N]
                   [--json]
  gtl score <file> --cells id,id,... [--rent F]
  gtl curve <file> --seed id [--max-order N]
  gtl blocks <file> [find options] [--whitespace F]
  gtl resynth <file> [find options] [--max-fanout N] [--out <file.v>]
  gtl synth --cells N --out <file.hgr> [--seed N] [--rent F]
                   [--structures N]
  gtl serve <file> [--addr A] [--port N] [--max-conns N]
                   [--lanes N] [--queue-depth N] [--cache-bytes N]
                   [--pipeline K] [--timeout-ms N] [--max-concurrent N]
                   [--deadline-ms N] [--netlist-dir D] [--max-netlists N]
                   [--registry-bytes N] [--tenant-quota N]
                   [--metrics-port N]
  gtl loadgen record --listen A:P --upstream A:P --out <trace.jsonl>
                   [--max-conns N] [--connect-timeout-ms N]
  gtl loadgen replay (--trace <trace.jsonl> | --requests <lines.json>)
                   --addr A:P [--mode closed|open] [--inflight N]
                   [--rate F] [--repeat N] [--out F] [--summary F]
                   [--expect F] [--scrape-addr A:P] [--scrape-out F]
                   [--connect-timeout-ms N]

FILES: .hgr (hMETIS), .aux (Bookshelf/ISPD), .v (structural Verilog)

SERVE RUNTIME (gtl-runtime; see ARCHITECTURE.md):
  --lanes N           compute lanes executing requests (0 = all cores)
  --queue-depth N     bounded job queue feeding the lanes (0 = auto);
                      full queue = backpressure, never unbounded buffering
  --cache-bytes N     deterministic LRU response-cache budget
                      (default 67108864 = 64 MiB; 0 disables caching)
  --pipeline K        max in-flight requests per connection (default 8);
                      responses always return in request order
  --timeout-ms N      per-connection idle timeout (default 30000;
                      0 = wait forever); waiting on a slow response
                      does not count as idle
  --max-concurrent N  concurrently open connections, two threads each
                      (default 256; 0 = unbounded); excess clients
                      wait in the listen backlog
  --max-conns N       total connections before a clean exit (0 = forever)
  --deadline-ms N     server-side default deadline per request
                      (0 = unbounded); measured from request admission,
                      so queue wait counts. An expired request answers
                      an error with code deadline_exceeded without
                      consuming compute. Requests may narrow it further
                      with their own deadline_ms field (protocol v3+);
                      a job whose client disconnects is cancelled at its
                      next checkpoint either way.
  --netlist-dir D     root directory for LoadNetlist paths (protocol
                      v4+); without it the session registry refuses
                      loads. Paths must be relative and stay inside D.
  --max-netlists N    named sessions held at once (0 = unlimited);
                      loading past the cap evicts the coldest session
                      deterministically
  --registry-bytes N  byte budget over all loaded netlists
                      (0 = unlimited); same deterministic LRU eviction
  --tenant-quota N    per-session cap on queued jobs (0 = auto =
                      queue depth); admission round-robins across
                      sessions so one flooding tenant cannot starve
                      another
  --metrics-port N    also answer plain-HTTP `GET /metrics` scrapes on
                      this side port (Prometheus text format 0.0.4,
                      same address as --addr; protocol v5 serves the
                      same rendering as a {\"MetricsText\":..} request).
                      On exit, the summary prints p50/p95/p99 latency
                      per request kind.

LOADGEN (gtl-loadgen; see ARCHITECTURE.md):
  record            transparent TCP tee: clients connect to --listen,
                    bytes forward to --upstream and back, and every
                    request line lands in --out as a versioned
                    JSON-lines trace (connection id, per-connection
                    sequence number, arrival offset in microseconds)
  replay            drive a trace (or a raw request-line file via
                    --requests) against the server at --addr.
                    Connections are established serially in
                    connection-id order and retried while the server
                    boots (--connect-timeout-ms, default 10000), so
                    scripted callers need no external wait loop.
                    --mode closed (default) keeps --inflight requests
                    outstanding per connection (default 1 = serial);
                    --mode open sends at the recorded arrival offsets,
                    or at --rate requests/second across the trace.
                    --repeat N loops the trace back to back. --out
                    writes the deterministic response log (connections
                    in id order, responses in sequence order),
                    --summary the machine-readable req/s + per-kind
                    p50/p95/p99 JSON (the results/loadgen.json shape
                    the bench-trend gate tracks), and --expect
                    byte-compares the log against a golden file —
                    drift exits 1 after the log is written.
                    --scrape-addr/--scrape-out fetch GET /metrics from
                    the v5 side port while the replay connections are
                    still open.

EXIT CODES (from the structured ApiError codes; see gtl_api):
  0  success
  1  netlist load/parse error, or response drift
     under `gtl loadgen replay --expect`           [netlist]
  2  bad arguments or malformed request        [bad_request, invalid_argument,
                                                unsupported_version,
                                                unknown_session]
  3  I/O failure (socket, file)                [io]
  4  deadline expired or request cancelled     [deadline_exceeded, cancelled]

`gtl find --json` prints one FindResponse JSON document: byte-identical
to the payload a `gtl serve` round-trip returns for the same request,
for any --threads value, --lanes count, --cache-bytes budget (hits are
byte-identical to fresh computes) and --pipeline depth. `gtl serve`
speaks JSON lines on plain TCP: one {\"Find\":..} | {\"Place\":..} |
{\"Stats\":..} | {\"Metrics\":..} | {\"MetricsText\":..} |
{\"LoadNetlist\":..} | {\"UnloadNetlist\":..} | {\"ListSessions\":..}
envelope per line in, one response envelope per line out, in request
order (see ARCHITECTURE.md). Protocol v4 adds named sessions:
Find/Place/Stats take an optional session field addressing a netlist
loaded via LoadNetlist. Protocol v5 adds observability: every v5
response is stamped with a per-request trace ID (its last body field),
and MetricsText returns the Prometheus text rendering of the runtime
counters and latency histograms.
";

/// Runs the tool on pre-split arguments, returning the stdout text.
///
/// # Errors
///
/// Returns an [`ApiError`] on bad arguments or parse failures; its
/// [`ApiError::exit_code`] is the process exit code (see `EXIT CODES` in
/// [`USAGE`]).
pub fn run(args: &[String]) -> Result<String, ApiError> {
    let Some(command) = args.first() else {
        return Err(ApiError::bad_request(USAGE));
    };
    match command.as_str() {
        "stats" => cmd_stats(&args[1..]),
        "find" => cmd_find(&args[1..]),
        "score" => cmd_score(&args[1..]),
        "curve" => cmd_curve(&args[1..]),
        "blocks" => cmd_blocks(&args[1..]),
        "resynth" => cmd_resynth(&args[1..]),
        "synth" => cmd_synth(&args[1..]),
        "serve" => cmd_serve(&args[1..]),
        "loadgen" => cmd_loadgen(&args[1..]),
        "--help" | "-h" | "help" => Ok(USAGE.to_string()),
        other => Err(ApiError::bad_request(format!("unknown command `{other}`\n\n{USAGE}"))),
    }
}

fn want_file(args: &[String]) -> Result<&str, ApiError> {
    args.first()
        .map(String::as_str)
        .ok_or_else(|| ApiError::bad_request(format!("missing input file\n\n{USAGE}")))
}

fn flag_value<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    args.iter().position(|a| a == flag).and_then(|i| args.get(i + 1)).map(String::as_str)
}

fn parse_flag<T: std::str::FromStr>(
    args: &[String],
    flag: &str,
    default: T,
) -> Result<T, ApiError> {
    match flag_value(args, flag) {
        None => Ok(default),
        Some(v) => v
            .parse()
            .map_err(|_| ApiError::bad_request(format!("{flag} expects a valid value, got `{v}`"))),
    }
}

fn cmd_stats(args: &[String]) -> Result<String, ApiError> {
    let netlist = load_netlist(want_file(args)?)?;
    let stats = NetlistStats::compute(&netlist);
    let mut out = String::new();
    let _ = writeln!(out, "{stats}");
    let _ = writeln!(out, "net degree histogram (top 10):");
    for (degree, count) in stats.net_degrees.iter().take(10) {
        let _ = writeln!(out, "  {degree:>3} pins: {count}");
    }
    Ok(out)
}

fn cmd_find(args: &[String]) -> Result<String, ApiError> {
    let netlist = load_netlist(want_file(args)?)?;
    let config = finder_from_args(&netlist, args)?;
    let (session, response) = session_find(netlist, config)?;
    if args.iter().any(|a| a == "--json") {
        // Same contract as one `gtl serve` round-trip: the FindResponse
        // JSON is the exact payload bytes the server would answer with.
        return Ok(serde::json::to_string(&response) + "\n");
    }
    let (netlist, result) = (session.netlist(), &response.result);

    let mut out = String::new();
    let _ = writeln!(
        out,
        "|V|={} |E|={} A(G)={:.2}  p≈{:.2}  {} candidates from {} seeds",
        netlist.num_cells(),
        netlist.num_nets(),
        result.avg_pins_per_cell,
        result.avg_rent_exponent,
        result.num_candidates,
        config.num_seeds,
    );
    let _ =
        writeln!(out, "{:<5} {:>8} {:>8} {:>9} {:>9}", "gtl", "cells", "cut", "nGTL-S", "GTL-SD");
    for (i, gtl) in result.gtls.iter().enumerate() {
        let _ = writeln!(
            out,
            "{:<5} {:>8} {:>8} {:>9.4} {:>9.4}",
            i, gtl.stats.size, gtl.stats.cut, gtl.ngtl_score, gtl.gtl_sd
        );
    }
    if result.gtls.is_empty() {
        let _ = writeln!(out, "(no tangled structures below the threshold)");
    }
    Ok(out)
}

fn cmd_score(args: &[String]) -> Result<String, ApiError> {
    let netlist = load_netlist(want_file(args)?)?;
    let cells_arg = flag_value(args, "--cells")
        .ok_or_else(|| ApiError::bad_request("score requires --cells id,id,..."))?;
    let mut cells = Vec::new();
    for token in cells_arg.split(',') {
        let id: usize = token
            .trim()
            .parse()
            .map_err(|_| ApiError::bad_request(format!("invalid cell id `{token}`")))?;
        if id >= netlist.num_cells() {
            return Err(ApiError::bad_request(format!(
                "cell {id} out of range (netlist has {} cells)",
                netlist.num_cells()
            )));
        }
        cells.push(CellId::new(id));
    }
    let rent: f64 = parse_flag(args, "--rent", 0.6f64)?;
    let set = CellSet::from_cells(netlist.num_cells(), cells.iter().copied());
    let stats = SubsetStats::compute(&netlist, &set);
    let ctx = DesignContext::new(&netlist, rent);

    let mut out = String::new();
    let _ = writeln!(
        out,
        "|C|={} T(C)={} pins={} A_C={:.2} (A_G={:.2}, p={rent})",
        stats.size,
        stats.cut,
        stats.pins,
        stats.avg_pins_per_cell(),
        ctx.avg_pins_per_cell
    );
    let _ = writeln!(out, "GTL-S     = {:.4}", metrics::gtl_score(stats.cut, stats.size, rent));
    let _ = writeln!(out, "nGTL-S    = {:.4}", metrics::ngtl_score(stats.cut, stats.size, &ctx));
    let _ = writeln!(
        out,
        "GTL-SD    = {:.4}",
        metrics::gtl_sd_score(stats.cut, stats.size, stats.avg_pins_per_cell(), &ctx)
    );
    let _ = writeln!(out, "ratio cut = {:.4}", baseline::ratio_cut(&stats));
    Ok(out)
}

fn cmd_curve(args: &[String]) -> Result<String, ApiError> {
    let netlist = load_netlist(want_file(args)?)?;
    let seed: usize = parse_flag(args, "--seed", 0usize)?;
    if seed >= netlist.num_cells() {
        return Err(ApiError::bad_request(format!("--seed {seed} out of range")));
    }
    let max_order = parse_flag(args, "--max-order", (netlist.num_cells() / 4).clamp(64, 100_000))?;
    let growth = GrowthConfig { max_len: max_order, ..GrowthConfig::default() };
    let ordering = OrderingGrower::new(&netlist, growth).grow(CellId::new(seed));
    let config = CandidateConfig::default();
    let ngtl = score_curve(
        &ordering,
        netlist.avg_pins_per_cell(),
        &CandidateConfig { metric: MetricKind::NGtlScore, ..config },
    );
    let sd = score_curve(
        &ordering,
        netlist.avg_pins_per_cell(),
        &CandidateConfig { metric: MetricKind::GtlSd, ..config },
    );
    let mut out = String::from("size,cut,ngtl_s,gtl_sd\n");
    for k in 0..ordering.len() {
        let _ =
            writeln!(out, "{},{},{},{}", k + 1, ordering.cut_at(k), ngtl.scores[k], sd.scores[k]);
    }
    Ok(out)
}

/// Shared finder setup for `find`, `blocks` and `resynth`.
fn finder_from_args(netlist: &Netlist, args: &[String]) -> Result<FinderConfig, ApiError> {
    let metric = match flag_value(args, "--metric") {
        None | Some("sd") => MetricKind::GtlSd,
        Some("ngtl") => MetricKind::NGtlScore,
        Some(other) => {
            return Err(ApiError::bad_request(format!("--metric expects ngtl|sd, got `{other}`")))
        }
    };
    Ok(FinderConfig {
        num_seeds: parse_flag(args, "--seeds", 100usize)?,
        min_size: parse_flag(args, "--min-size", 30usize)?,
        max_order_len: parse_flag(
            args,
            "--max-order",
            (netlist.num_cells() / 4).clamp(64, 100_000),
        )?,
        accept_threshold: parse_flag(args, "--threshold", 0.9f64)?,
        rng_seed: parse_flag(args, "--rng", 0xDACu64)?,
        threads: parse_flag(args, "--threads", 0usize)?,
        metric,
        ..FinderConfig::default()
    })
}

/// Runs the finder through [`Session::find`], as `gtl serve` does, so
/// every output mode validates the request the same way.
fn session_find(
    netlist: Netlist,
    config: FinderConfig,
) -> Result<(Session, FindResponse), ApiError> {
    let session = Session::builder().netlist(netlist).build()?;
    let response = session.find(&FindRequest::new(config))?;
    Ok((session, response))
}

fn cmd_blocks(args: &[String]) -> Result<String, ApiError> {
    let netlist = load_netlist(want_file(args)?)?;
    let config = finder_from_args(&netlist, args)?;
    let whitespace: f64 = parse_flag(args, "--whitespace", 0.3f64)?;
    let (session, FindResponse { result, .. }) = session_find(netlist, config)?;
    let netlist = session.netlist();
    if result.gtls.is_empty() {
        return Ok("(no tangled structures found — nothing to floorplan)\n".into());
    }
    let die = gtl_place::Die::for_netlist(netlist, 0.7);
    let placement = gtl_place::place(netlist, &die, &gtl_place::PlacerConfig::default());
    let gtls: Vec<Vec<CellId>> = result.gtls.iter().map(|g| g.cells.clone()).collect();
    let blocks = gtl_place::softblock::plan_soft_blocks(
        netlist,
        &placement,
        &gtls,
        &die,
        &gtl_place::softblock::SoftBlockConfig {
            whitespace,
            ..gtl_place::softblock::SoftBlockConfig::default()
        },
    );
    let mut out = String::new();
    let _ = writeln!(out, "die {:.1} × {:.1}; {} soft blocks:", die.width, die.height, gtls.len());
    let _ = writeln!(
        out,
        "{:<6} {:>7} {:>9} {:>24}",
        "block", "cells", "score", "region (x0,y0)-(x1,y1)"
    );
    for (i, (gtl, block)) in result.gtls.iter().zip(&blocks).enumerate() {
        match block {
            Some(b) => {
                let _ = writeln!(
                    out,
                    "B{:<5} {:>7} {:>9.4} ({:>6.1},{:>6.1})-({:>6.1},{:>6.1})",
                    i, gtl.stats.size, gtl.score, b.x0, b.y0, b.x1, b.y1
                );
            }
            None => {
                let _ = writeln!(
                    out,
                    "B{:<5} {:>7} {:>9.4} (does not fit)",
                    i, gtl.stats.size, gtl.score
                );
            }
        }
    }
    Ok(out)
}

fn cmd_resynth(args: &[String]) -> Result<String, ApiError> {
    let netlist = load_netlist(want_file(args)?)?;
    let config = finder_from_args(&netlist, args)?;
    let max_fanout: usize = parse_flag(args, "--max-fanout", 3usize)?;
    let (session, FindResponse { result, .. }) = session_find(netlist, config)?;
    if result.gtls.is_empty() {
        return Ok("(no tangled structures found — nothing to resynthesize)\n".into());
    }
    let all_cells: Vec<CellId> = result.gtls.iter().flat_map(|g| g.cells.iter().copied()).collect();
    let (resynth, report) = gtl_synth::resynth::resynthesize(
        session.netlist(),
        &all_cells,
        &gtl_synth::resynth::ResynthConfig { max_fanout },
    );
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{} GTLs ({} cells); decomposed {} nets, added {} buffers; pins {} → {}",
        result.gtls.len(),
        all_cells.len(),
        report.nets_decomposed,
        report.buffers_added,
        report.pins_before,
        report.pins_after
    );
    if let Some(path) = flag_value(args, "--out") {
        let text = verilog::to_module_string(&resynth, "resynthesized", None);
        std::fs::write(path, text).map_err(|e| ApiError::io(format!("write {path}: {e}")))?;
        let _ = writeln!(out, "wrote {path}");
    }
    Ok(out)
}

/// `gtl synth`: stream a multi-million-cell ISPD-like design to disk in
/// bounded memory (see [`gtl_synth::stream`]). Output is `.hgr`, the
/// format the streaming parser and `--netlist-dir` session loads consume.
fn cmd_synth(args: &[String]) -> Result<String, ApiError> {
    let cells: usize = parse_flag(args, "--cells", 0usize)?;
    if cells < 64 {
        return Err(ApiError::bad_request("synth requires --cells N (at least 64)"));
    }
    let out = flag_value(args, "--out")
        .ok_or_else(|| ApiError::bad_request("synth requires --out <file.hgr>"))?;
    let mut config = gtl_synth::stream::StreamDesignConfig::new(cells);
    config.seed = parse_flag(args, "--seed", config.seed)?;
    config.rent_exponent = parse_flag(args, "--rent", config.rent_exponent)?;
    config.structures = parse_flag(args, "--structures", config.structures)?;
    let stats = gtl_synth::stream::write_hgr_file(&config, out)?;
    Ok(format!(
        "wrote {out}: {} cells, {} nets, {} pins (seed {:#x}, rent {}, {} structures)\n",
        stats.cells, stats.nets, stats.pins, config.seed, config.rent_exponent, config.structures,
    ))
}

/// `gtl serve`: bind a TCP listener and answer JSON-lines requests over
/// the loaded netlist on the bounded `gtl-runtime` (compute lanes,
/// response cache, pipelining, timeouts) until the connection budget
/// (`--max-conns`, `0` = unlimited) is exhausted.
fn cmd_serve(args: &[String]) -> Result<String, ApiError> {
    let path = want_file(args)?;
    let netlist = load_netlist(path)?;
    let addr = flag_value(args, "--addr").unwrap_or("127.0.0.1");
    let port: u16 = parse_flag(args, "--port", 7878u16)?;
    let config = runtime_config(args)?;
    let max_netlists: usize = parse_flag(args, "--max-netlists", 0usize)?;
    let registry_bytes: usize = parse_flag(args, "--registry-bytes", 0usize)?;
    let metrics_port: u16 = parse_flag(args, "--metrics-port", 0u16)?;
    let netlist_dir = flag_value(args, "--netlist-dir").map(std::path::PathBuf::from);
    let session = Session::builder().netlist(netlist).build()?;
    let dispatcher = SessionDispatcher::new(&session, max_netlists, registry_bytes, netlist_dir);
    // The fixed metrics port first: bound after it, a `--port 0`
    // listener could take that very port.
    let metrics_listener = match metrics_port {
        0 => None,
        p => Some(gtl_api::bind(&format!("{addr}:{p}"))?),
    };
    let listener = gtl_api::bind(&format!("{addr}:{port}"))?;
    let local = listener.local_addr().map_err(ApiError::from)?;
    if let Some(l) = &metrics_listener {
        let at = l.local_addr().map_err(ApiError::from)?;
        eprintln!("gtl: Prometheus scrape endpoint at http://{at}/metrics");
    }
    // Readiness goes to stderr immediately (stdout is returned only when
    // the server finishes, which without --max-conns is never).
    eprintln!("gtl: serving {path} on {local} (JSON lines; Ctrl-C to stop)");
    let report = gtl_api::serve(&dispatcher, &listener, &config, metrics_listener.as_ref())?;
    Ok(render_serve_summary(report, &dispatcher))
}

/// The serve runtime configuration `args` select. Each runtime flag sets
/// its [`RuntimeConfig`] field and a flag left out keeps the field's
/// default, so `gtl serve` with none of them runs
/// [`RuntimeConfig::default()`]. `0` means none for `--timeout-ms`,
/// `--max-conns` and `--deadline-ms`.
fn runtime_config(args: &[String]) -> Result<RuntimeConfig, ApiError> {
    let defaults = RuntimeConfig::default();
    let millis = |flag: &str, default: Option<Duration>| -> Result<Option<Duration>, ApiError> {
        let default = default.map_or(0, |d| u64::try_from(d.as_millis()).unwrap_or(u64::MAX));
        let ms: u64 = parse_flag(args, flag, default)?;
        Ok((ms > 0).then(|| Duration::from_millis(ms)))
    };
    let max_conns: usize = parse_flag(args, "--max-conns", defaults.max_connections.unwrap_or(0))?;
    Ok(RuntimeConfig {
        lanes: parse_flag(args, "--lanes", defaults.lanes)?,
        queue_depth: parse_flag(args, "--queue-depth", defaults.queue_depth)?,
        cache_bytes: parse_flag(args, "--cache-bytes", defaults.cache_bytes)?,
        pipeline_depth: parse_flag(args, "--pipeline", defaults.pipeline_depth)?,
        read_timeout: millis("--timeout-ms", defaults.read_timeout)?,
        max_concurrent: parse_flag(args, "--max-concurrent", defaults.max_concurrent)?,
        max_connections: (max_conns > 0).then_some(max_conns),
        default_deadline: millis("--deadline-ms", defaults.default_deadline)?,
        tenant_quota: parse_flag(args, "--tenant-quota", defaults.tenant_quota)?,
        ..defaults
    })
}

/// Renders the `gtl serve` exit summary — the counter one-liner,
/// per-request-kind latency percentiles, and any connection I/O errors —
/// from the run's report, completed with the dispatcher's registry
/// counters.
fn render_serve_summary(report: ServeReport, dispatcher: &SessionDispatcher<'_>) -> String {
    let m = dispatcher.runtime_metrics(report.metrics);
    let mut out = format!(
        "served {} connection(s): {} requests, {} responses, cache {} hit(s) / {} miss(es) / {} \
         eviction(s), queue high-water {}, {} timeout(s), {} cancelled, {} deadline-exceeded, \
         sessions {} loaded / {} evicted / {} unloaded\n",
        report.connections,
        m.requests,
        m.responses,
        m.cache_hits,
        m.cache_misses,
        m.cache_evictions,
        m.queue_high_water,
        m.read_timeouts,
        m.jobs_cancelled,
        m.deadlines_exceeded,
        m.sessions_loaded,
        m.sessions_evicted,
        m.sessions_unloaded,
    );
    // Per-request-kind latency percentiles (µs, bucket upper bounds) —
    // only kinds that actually served requests appear.
    for kind in &m.kind_latency {
        if kind.count == 0 {
            continue;
        }
        let _ = writeln!(
            out,
            "latency[{}]: {} request(s), p50 {}us, p95 {}us, p99 {}us, max {}us",
            kind.label, kind.count, kind.p50_us, kind.p95_us, kind.p99_us, kind.max_us,
        );
    }
    let dropped = report.dropped_io_errors;
    if !report.io_errors.is_empty() || dropped > 0 {
        let _ = writeln!(
            out,
            "{} connection I/O error(s){}:",
            report.io_errors.len() + dropped,
            if dropped > 0 { format!(" ({dropped} not shown)") } else { String::new() }
        );
        for error in &report.io_errors {
            let _ = writeln!(out, "  {error}");
        }
    }
    out
}

/// `gtl loadgen`: recorded-trace load generation for the serve path
/// (see [`gtl_loadgen`]). `record` captures live traffic through a
/// transparent proxy/tee; `replay` drives a trace back open- or
/// closed-loop with per-kind latency percentiles and optional golden
/// comparison.
fn cmd_loadgen(args: &[String]) -> Result<String, ApiError> {
    match args.first().map(String::as_str) {
        Some("record") => cmd_loadgen_record(&args[1..]),
        Some("replay") => cmd_loadgen_replay(&args[1..]),
        _ => Err(ApiError::bad_request(format!(
            "loadgen requires a `record` or `replay` subcommand\n\n{USAGE}"
        ))),
    }
}

fn cmd_loadgen_record(args: &[String]) -> Result<String, ApiError> {
    let listen = flag_value(args, "--listen")
        .ok_or_else(|| ApiError::bad_request("loadgen record requires --listen <addr:port>"))?;
    let upstream = flag_value(args, "--upstream")
        .ok_or_else(|| ApiError::bad_request("loadgen record requires --upstream <addr:port>"))?;
    let out = flag_value(args, "--out")
        .ok_or_else(|| ApiError::bad_request("loadgen record requires --out <trace.jsonl>"))?;
    let mut options = gtl_loadgen::record::RecordOptions::new(listen, upstream, out);
    options.max_conns = parse_flag(args, "--max-conns", 0usize)?;
    options.connect_timeout =
        std::time::Duration::from_millis(parse_flag(args, "--connect-timeout-ms", 10_000u64)?);
    // Readiness goes to stderr immediately (stdout is returned only when
    // the connection budget is exhausted, which without --max-conns is
    // never).
    eprintln!("gtl: recording {listen} -> {upstream} into {out} (Ctrl-C to stop)");
    let summary = gtl_loadgen::record::record(&options)?;
    Ok(format!(
        "recorded {} connection(s), {} request line(s) to {out}\n",
        summary.connections, summary.requests
    ))
}

fn cmd_loadgen_replay(args: &[String]) -> Result<String, ApiError> {
    use gtl_loadgen::replay::{ReplayMode, ReplayOptions};
    let addr = flag_value(args, "--addr")
        .ok_or_else(|| ApiError::bad_request("loadgen replay requires --addr <addr:port>"))?;
    let records = match (flag_value(args, "--trace"), flag_value(args, "--requests")) {
        (Some(path), None) => gtl_loadgen::trace::read_trace(path)?,
        (None, Some(path)) => {
            let text = std::fs::read_to_string(path)
                .map_err(|e| ApiError::io(format!("read {path}: {e}")))?;
            gtl_loadgen::trace::from_request_lines(&text)
        }
        _ => {
            return Err(ApiError::bad_request(
                "loadgen replay requires exactly one of --trace or --requests",
            ))
        }
    };
    // --rate alone implies open loop; --mode settles any ambiguity.
    let default_mode = if flag_value(args, "--rate").is_some() { "open" } else { "closed" };
    let mode = match flag_value(args, "--mode").unwrap_or(default_mode) {
        "closed" => ReplayMode::Closed { inflight: parse_flag(args, "--inflight", 1usize)? },
        "open" => ReplayMode::Open { rate: parse_flag(args, "--rate", 0.0f64)? },
        other => {
            return Err(ApiError::bad_request(format!(
                "--mode expects `closed` or `open`, got `{other}`"
            )))
        }
    };
    let mut options = ReplayOptions::new(addr);
    options.mode = mode;
    options.repeat = parse_flag(args, "--repeat", 1usize)?;
    options.connect_timeout =
        std::time::Duration::from_millis(parse_flag(args, "--connect-timeout-ms", 10_000u64)?);
    options.out = flag_value(args, "--out").map(std::path::PathBuf::from);
    options.summary_out = flag_value(args, "--summary").map(std::path::PathBuf::from);
    options.expect = flag_value(args, "--expect").map(std::path::PathBuf::from);
    options.scrape_addr = flag_value(args, "--scrape-addr").map(str::to_string);
    options.scrape_out = flag_value(args, "--scrape-out").map(std::path::PathBuf::from);
    let connections = {
        let mut ids: Vec<u32> = records.iter().map(|r| r.conn).collect();
        ids.sort_unstable();
        ids.dedup();
        ids.len()
    };
    let report = gtl_loadgen::replay::run(&records, &options)?;
    let mode_text = match report.mode {
        ReplayMode::Closed { inflight } => format!("closed, inflight {inflight}"),
        ReplayMode::Open { rate } if rate > 0.0 => format!("open, {rate} req/s target"),
        ReplayMode::Open { .. } => "open, recorded offsets".to_string(),
    };
    let mut out = format!(
        "replayed {} request(s) over {connections} connection(s): {} response(s), {:.0} req/s \
         ({mode_text}, wall {:.3}s)\n",
        report.requests, report.responses, report.req_per_s, report.wall_seconds,
    );
    for kind in &report.kinds {
        let _ = writeln!(
            out,
            "latency[{}]: {} request(s), p50 {}us, p95 {}us, p99 {}us, max {}us",
            kind.kind, kind.count, kind.p50_us, kind.p95_us, kind.p99_us, kind.max_us,
        );
    }
    if let Some(expect) = &options.expect {
        let _ = writeln!(out, "responses match {}", expect.display());
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A directory of `test`'s own, named by test and process id:
    /// tests run concurrently, so no two may share a file.
    fn test_dir(test: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("gtl_cli_{test}_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn fixture_path(test: &str) -> String {
        // Two 5-cliques joined by one edge, as an .hgr in `test`'s directory.
        let mut text = String::from("21 10\n");
        for base in [0, 5] {
            for i in 0..5 {
                for j in (i + 1)..5 {
                    text.push_str(&format!("{} {}\n", base + i + 1, base + j + 1));
                }
            }
        }
        text.push_str("1 6\n");
        let path = test_dir(test).join("two_cliques.hgr");
        std::fs::write(&path, text).unwrap();
        path.display().to_string()
    }

    fn argv(parts: &[&str]) -> Vec<String> {
        parts.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn stats_command() {
        let out = run(&argv(&["stats", &fixture_path("stats_command")])).unwrap();
        assert!(out.contains("|V|=10"), "{out}");
        assert!(out.contains("net degree histogram"));
    }

    #[test]
    fn find_command_locates_cliques() {
        let out = run(&argv(&[
            "find",
            &fixture_path("find_command_locates_cliques"),
            "--seeds",
            "10",
            "--min-size",
            "3",
            "--max-order",
            "10",
        ]))
        .unwrap();
        assert!(out.contains("gtl"), "{out}");
        // At least one 5-cell group reported.
        assert!(out.lines().any(|l| l.split_whitespace().nth(1) == Some("5")), "{out}");
    }

    #[test]
    fn score_command() {
        let out =
            run(&argv(&["score", &fixture_path("score_command"), "--cells", "0,1,2,3,4"])).unwrap();
        assert!(out.contains("T(C)=1"), "{out}");
        assert!(out.contains("nGTL-S"));
    }

    #[test]
    fn curve_command_is_csv() {
        let out =
            run(&argv(&["curve", &fixture_path("curve_command_is_csv"), "--seed", "0"])).unwrap();
        let mut lines = out.lines();
        assert_eq!(lines.next(), Some("size,cut,ngtl_s,gtl_sd"));
        assert!(lines.next().unwrap().starts_with("1,"));
    }

    #[test]
    fn help_and_errors() {
        assert!(run(&argv(&["--help"])).unwrap().contains("USAGE"));
        assert!(run(&argv(&["bogus"])).is_err());
        assert!(run(&argv(&[])).is_err());
        let path = fixture_path("help_and_errors");
        let err = run(&argv(&["score", &path])).unwrap_err();
        assert!(err.to_string().contains("--cells"));
        assert_eq!(err.exit_code(), 2);
        let err = run(&argv(&["score", &path, "--cells", "99"])).unwrap_err();
        assert!(err.to_string().contains("out of range"));
    }

    #[test]
    fn blocks_command_plans_regions() {
        let out = run(&argv(&[
            "blocks",
            &fixture_path("blocks_command_plans_regions"),
            "--seeds",
            "10",
            "--min-size",
            "3",
            "--max-order",
            "10",
        ]))
        .unwrap();
        assert!(out.contains("soft blocks"), "{out}");
        assert!(out.contains("B0"), "{out}");
    }

    #[test]
    fn resynth_command_reports_and_writes() {
        let out_v = test_dir("resynth_command_reports_and_writes").join("resynth.v");
        let out = run(&argv(&[
            "resynth",
            &fixture_path("resynth_command_reports_and_writes"),
            "--seeds",
            "10",
            "--min-size",
            "3",
            "--max-order",
            "10",
            "--max-fanout",
            "2",
            "--out",
            &out_v.display().to_string(),
        ]))
        .unwrap();
        assert!(out.contains("GTLs"), "{out}");
        let text = std::fs::read_to_string(&out_v).unwrap();
        assert!(text.starts_with("module resynthesized"));
    }

    #[test]
    fn synth_command_streams_design_to_disk() {
        let path = test_dir("synth_command_streams_design_to_disk").join("synth.hgr");
        let path = path.display().to_string();
        let out = run(&argv(&["synth", "--cells", "500", "--out", &path])).unwrap();
        assert!(out.contains("500 cells"), "{out}");
        let nl = load_netlist(&path).unwrap();
        assert_eq!(nl.num_cells(), 500);
        // Same config twice = byte-identical file.
        let first = std::fs::read(&path).unwrap();
        run(&argv(&["synth", "--cells", "500", "--out", &path])).unwrap();
        assert_eq!(first, std::fs::read(&path).unwrap());
        // Bad arguments map to exit code 2, not a panic.
        let err = run(&argv(&["synth", "--cells", "10", "--out", &path])).unwrap_err();
        assert_eq!(err.exit_code(), 2);
        let err = run(&argv(&["synth", "--cells", "100"])).unwrap_err();
        assert!(err.to_string().contains("--out"), "{err}");
    }

    #[test]
    fn finder_commands_validate_like_json_find() {
        let path = fixture_path("finder_commands_validate_like_json_find");
        for bad in [["--seeds", "0"], ["--max-order", "0"]] {
            let json = run(&argv(&["find", &path, bad[0], bad[1], "--json"])).unwrap_err();
            assert_eq!((json.code(), json.exit_code()), ("invalid_argument", 2), "{json}");
            for command in ["find", "blocks", "resynth"] {
                let err = run(&argv(&[command, &path, bad[0], bad[1]])).unwrap_err();
                assert_eq!(err, json, "{command} {bad:?}");
            }
        }
    }

    #[test]
    fn find_json_matches_session_dispatch() {
        let path = fixture_path("find_json_matches_session_dispatch");
        let args =
            ["find", &path, "--seeds", "10", "--min-size", "3", "--max-order", "10", "--json"];
        let out = run(&argv(&args)).unwrap();
        assert!(out.starts_with("{\"v\":5,"), "{out}");
        assert!(out.ends_with("\n"));
        // Byte-identical to dispatching the equivalent request in-process.
        let netlist = load_netlist(&path).unwrap();
        let config = finder_from_args(&netlist, &argv(&args[1..])).unwrap();
        let session = Session::builder().netlist(netlist).build().unwrap();
        let expected = serde::json::to_string(&session.find(&FindRequest::new(config)).unwrap());
        assert_eq!(out.trim_end(), expected);
    }

    #[test]
    fn serve_rejects_bad_flags() {
        let path = fixture_path("serve_rejects_bad_flags");
        let err = run(&argv(&["serve", &path, "--port", "notaport"])).unwrap_err();
        assert_eq!(err.code(), "bad_request");
        for flag in [
            "--lanes",
            "--queue-depth",
            "--cache-bytes",
            "--pipeline",
            "--timeout-ms",
            "--max-concurrent",
            "--max-conns",
            "--deadline-ms",
            "--max-netlists",
            "--registry-bytes",
            "--tenant-quota",
        ] {
            let err = run(&argv(&["serve", &path, flag, "bogus"])).unwrap_err();
            assert_eq!(err.code(), "bad_request", "{flag}");
        }
        let err = run(&argv(&["serve"])).unwrap_err();
        assert_eq!(err.exit_code(), 2);
    }

    #[test]
    fn serve_flags_select_the_runtime_config() {
        // No runtime flags: exactly the runtime's default.
        let path = fixture_path("serve_flags_select_the_runtime_config");
        let config = runtime_config(&argv(&[&path, "--port", "0", "--max-netlists", "3"])).unwrap();
        assert_eq!(config, RuntimeConfig::default());
        // Each runtime flag, set off its default, lands in its field.
        let ms = |ms| Some(Duration::from_millis(ms));
        let flags: [(&str, &str, RuntimeConfig); 9] = [
            ("--lanes", "3", RuntimeConfig { lanes: 3, ..RuntimeConfig::default() }),
            ("--queue-depth", "5", RuntimeConfig { queue_depth: 5, ..RuntimeConfig::default() }),
            ("--cache-bytes", "0", RuntimeConfig { cache_bytes: 0, ..RuntimeConfig::default() }),
            ("--pipeline", "2", RuntimeConfig { pipeline_depth: 2, ..RuntimeConfig::default() }),
            ("--timeout-ms", "0", RuntimeConfig { read_timeout: None, ..RuntimeConfig::default() }),
            (
                "--max-concurrent",
                "4",
                RuntimeConfig { max_concurrent: 4, ..RuntimeConfig::default() },
            ),
            (
                "--max-conns",
                "7",
                RuntimeConfig { max_connections: Some(7), ..RuntimeConfig::default() },
            ),
            (
                "--deadline-ms",
                "250",
                RuntimeConfig { default_deadline: ms(250), ..RuntimeConfig::default() },
            ),
            ("--tenant-quota", "6", RuntimeConfig { tenant_quota: 6, ..RuntimeConfig::default() }),
        ];
        for (flag, value, expected) in flags {
            assert_ne!(expected, RuntimeConfig::default(), "{flag} {value} is the default");
            assert_eq!(runtime_config(&argv(&[&path, flag, value])).unwrap(), expected, "{flag}");
        }
        let timeout = runtime_config(&argv(&[&path, "--timeout-ms", "1500"])).unwrap();
        assert_eq!(timeout.read_timeout, ms(1500));
    }

    #[test]
    fn serve_with_zero_budget_reports_summary() {
        // --max-conns handling goes through the full runtime path; a
        // 0-connection budget is represented as `None` (run forever), so
        // use port 0 + max-conns 1 … which would block. Instead check the
        // summary formatting via the api layer directly.
        let netlist =
            load_netlist(&fixture_path("serve_with_zero_budget_reports_summary")).unwrap();
        let session = Session::builder().netlist(netlist).build().unwrap();
        let dispatcher = SessionDispatcher::new(&session, 0, 0, None);
        let listener = gtl_api::bind("127.0.0.1:0").unwrap();
        let config = RuntimeConfig { max_connections: Some(0), ..RuntimeConfig::default() };
        let report = gtl_api::serve(&dispatcher, &listener, &config, None).unwrap();
        assert_eq!(report.connections, 0);
        assert!(report.io_errors.is_empty());
        let rendered = render_serve_summary(report, &dispatcher);
        assert!(rendered.starts_with("served 0 connection(s):"), "{rendered}");
        // No requests were served, so no latency lines appear.
        assert!(!rendered.contains("latency["), "{rendered}");
    }

    #[test]
    fn serve_summary_prints_percentiles_per_request_kind() {
        // Drive one find request through a real server so the kind
        // histogram is populated, then check the rendered exit summary.
        use std::io::{BufRead as _, BufReader, Write as _};
        let netlist =
            load_netlist(&fixture_path("serve_summary_prints_percentiles_per_request_kind"))
                .unwrap();
        let session = Session::builder().netlist(netlist).build().unwrap();
        let dispatcher = SessionDispatcher::new(&session, 0, 0, None);
        let listener = gtl_api::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let config =
            RuntimeConfig { lanes: 1, max_connections: Some(1), ..RuntimeConfig::default() };
        let report = std::thread::scope(|scope| {
            let server =
                scope.spawn(|| gtl_api::serve(&dispatcher, &listener, &config, None).unwrap());
            let mut conn = std::net::TcpStream::connect(addr).unwrap();
            let line =
                serde::json::to_string(&gtl_api::Request::Find(FindRequest::new(FinderConfig {
                    num_seeds: 4,
                    min_size: 3,
                    max_order_len: 8,
                    ..Default::default()
                })));
            writeln!(conn, "{line}").unwrap();
            conn.shutdown(std::net::Shutdown::Write).unwrap();
            let mut response = String::new();
            BufReader::new(conn).read_line(&mut response).unwrap();
            assert!(response.starts_with("{\"Find\":"), "{response}");
            server.join().unwrap()
        });
        let rendered = render_serve_summary(report, &dispatcher);
        assert!(rendered.contains("latency[find]: 1 request(s), p50 "), "{rendered}");
        assert!(rendered.contains("p95 "), "{rendered}");
        assert!(rendered.contains("p99 "), "{rendered}");
    }

    #[test]
    fn loadgen_replay_round_trip_with_expect() {
        use std::io::Write as _;
        let dir = test_dir("loadgen_replay_round_trip_with_expect");
        let requests_path = dir.join("requests.json");
        let log_path = dir.join("replay.log");
        let summary_path = dir.join("loadgen.json");
        let request =
            serde::json::to_string(&gtl_api::Request::Find(FindRequest::new(FinderConfig {
                num_seeds: 4,
                min_size: 3,
                max_order_len: 8,
                ..Default::default()
            })));
        let mut file = std::fs::File::create(&requests_path).unwrap();
        writeln!(file, "{request}").unwrap();
        drop(file);

        // A fresh 1-connection server per replay: v5 trace stamps depend
        // on accept order, which restarts with the server.
        let netlist = load_netlist(&fixture_path("loadgen_replay_round_trip_with_expect")).unwrap();
        let config =
            RuntimeConfig { lanes: 1, max_connections: Some(1), ..RuntimeConfig::default() };
        let replay = |extra: &[&str]| -> Result<String, ApiError> {
            let session = Session::builder().netlist(netlist.clone()).build().unwrap();
            let dispatcher = SessionDispatcher::new(&session, 0, 0, None);
            let listener = gtl_api::bind("127.0.0.1:0").unwrap();
            let addr = listener.local_addr().unwrap().to_string();
            std::thread::scope(|scope| {
                let server =
                    scope.spawn(|| gtl_api::serve(&dispatcher, &listener, &config, None).unwrap());
                let mut args = argv(&[
                    "loadgen",
                    "replay",
                    "--requests",
                    &requests_path.display().to_string(),
                    "--addr",
                    &addr,
                ]);
                args.extend(argv(extra));
                let result = run(&args);
                server.join().unwrap();
                result
            })
        };

        let out = replay(&[
            "--out",
            &log_path.display().to_string(),
            "--summary",
            &summary_path.display().to_string(),
        ])
        .unwrap();
        assert!(out.contains("replayed 1 request(s) over 1 connection(s)"), "{out}");
        assert!(out.contains("latency[find]: 1 request(s), p50 "), "{out}");
        let log = std::fs::read_to_string(&log_path).unwrap();
        assert_eq!(log.lines().count(), 1);
        assert!(log.starts_with("{\"Find\":"), "{log}");
        let summary = std::fs::read_to_string(&summary_path).unwrap();
        assert!(summary.contains("\"bench\":\"loadgen\""), "{summary}");

        // The written log doubles as the golden: a second replay against
        // a fresh server must match it byte for byte.
        let out = replay(&["--expect", &log_path.display().to_string()]).unwrap();
        assert!(out.contains("responses match"), "{out}");

        // A tampered golden must fail with the netlist-class exit code 1.
        std::fs::write(&log_path, log.replacen('{', "[", 1)).unwrap();
        let err = replay(&["--expect", &log_path.display().to_string()]).unwrap_err();
        assert!(err.to_string().contains("response drift"), "{err}");
        assert_eq!(err.exit_code(), 1);
    }

    #[test]
    fn loadgen_rejects_bad_arguments() {
        // All argument errors must surface before any socket I/O.
        let err = run(&argv(&["loadgen"])).unwrap_err();
        assert!(err.to_string().contains("record"), "{err}");
        assert_eq!(err.exit_code(), 2);
        let err = run(&argv(&["loadgen", "bogus"])).unwrap_err();
        assert_eq!(err.exit_code(), 2);
        let err =
            run(&argv(&["loadgen", "replay", "--addr", "a", "--trace", "t", "--requests", "r"]))
                .unwrap_err();
        assert!(err.to_string().contains("exactly one"), "{err}");
        let err = run(&argv(&["loadgen", "replay", "--requests", "r"])).unwrap_err();
        assert!(err.to_string().contains("--addr"), "{err}");
        let err = run(&argv(&["loadgen", "record", "--listen", "a"])).unwrap_err();
        assert!(err.to_string().contains("--upstream"), "{err}");
        let err =
            run(&argv(&["loadgen", "record", "--listen", "a", "--upstream", "b"])).unwrap_err();
        assert!(err.to_string().contains("--out"), "{err}");
        // Mode validation happens before the trace file is opened… after
        // parsing, so use a real (empty-ish) trace file.
        let requests = test_dir("loadgen_rejects_bad_arguments").join("one_request.json");
        std::fs::write(&requests, "{\"Stats\":{\"v\":1}}\n").unwrap();
        let err = run(&argv(&[
            "loadgen",
            "replay",
            "--requests",
            &requests.display().to_string(),
            "--addr",
            "127.0.0.1:1",
            "--mode",
            "sideways",
        ]))
        .unwrap_err();
        assert!(err.to_string().contains("--mode"), "{err}");
        assert_eq!(err.exit_code(), 2);
    }

    #[test]
    fn help_documents_exit_codes_and_serve() {
        let help = run(&argv(&["--help"])).unwrap();
        assert!(help.contains("EXIT CODES"), "{help}");
        assert!(help.contains("gtl serve"), "{help}");
        assert!(help.contains("--json"), "{help}");
        for flag in [
            "--lanes",
            "--cache-bytes",
            "--pipeline",
            "--timeout-ms",
            "--max-concurrent",
            "--deadline-ms",
            "--netlist-dir",
            "--max-netlists",
            "--registry-bytes",
            "--tenant-quota",
        ] {
            assert!(help.contains(flag), "missing {flag} in help:\n{help}");
        }
        assert!(help.contains("deadline_exceeded"), "{help}");
        assert!(help.contains("unknown_session"), "{help}");
        assert!(help.contains("LoadNetlist"), "{help}");
        assert!(help.contains("gtl loadgen record"), "{help}");
        assert!(help.contains("gtl loadgen replay"), "{help}");
        for flag in ["--inflight", "--rate", "--repeat", "--expect", "--scrape-addr", "--summary"] {
            assert!(help.contains(flag), "missing {flag} in help:\n{help}");
        }
        assert!(help.contains("response drift"), "{help}");
    }

    #[test]
    fn unknown_extension_rejected() {
        let err = load_netlist("/tmp/whatever.xyz").unwrap_err();
        assert!(err.to_string().contains("unsupported"));
        assert_eq!(err.code(), "bad_request");
    }
}
