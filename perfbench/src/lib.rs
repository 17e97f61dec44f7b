//! Wall-clock benchmark of the BRMI stack.
//!
//! ```text
//! python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Three seeded, closed-loop workloads run through the stack's public API
//! (see [`inproc`] and [`bank`]); every reply is checked, and the run fails
//! on any mismatch. An untraced run (`--trace 0`) prints the end-to-end
//! metrics; a traced run (`--trace 1`, the `perfbench-traced` binary with
//! a counting allocator) first repeats the untraced measurement, then
//! rebuilds the topology with timing wrappers on its public boundaries
//! ([`trace`]) and prints the per-layer metrics and a stage-sum
//! accounting check. The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`.

pub mod bank;
pub mod gen;
pub mod inproc;
pub mod sys;
pub mod trace;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use brmi_apps::bank::{CreditCardSkeleton, CreditManagerSkeleton};
use brmi_apps::noop::NoopSkeleton;
use brmi_wire::{MethodRegistry, RemoteError};

use crate::gen::{quantile, PhaseStats, Window};
use crate::trace::{ratio, Span, SpanTotals, Tracer, SPANS};

/// Generator threads (and, on the socket workloads, generator sockets).
pub const GENERATOR_THREADS: usize = 2;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 15;
/// Unmeasured load before every measured window.
const WARMUP: Duration = Duration::from_millis(1000);
/// The window is cut into slices this long; end-to-end figures are
/// medians over slices.
const SLICE: Duration = Duration::from_secs(1);
/// Gauge sampling period in the traced phase.
const SAMPLE_EVERY: Duration = Duration::from_millis(2);
/// Largest share of the end-to-end mean the stage sum may miss by.
const ACCOUNTING_TOLERANCE: f64 = 0.15;
/// Where runs leave span files and journals (inside the checkout).
const OUT_DIR: &str = "perfbench-out";

/// The workloads, by name.
pub const WORKLOADS: [&str; 3] = ["inproc_noop", "edge_read_mostly", "durable_write_heavy"];

/// Cumulative counters of one topology, by name.
#[derive(Debug, Clone, Default)]
pub struct Counters(BTreeMap<String, f64>);

impl Counters {
    /// No counters.
    pub fn new() -> Counters {
        Counters::default()
    }

    /// Sets one counter.
    pub fn insert(&mut self, name: impl Into<String>, value: f64) {
        self.0.insert(name.into(), value);
    }

    /// One counter, if the topology has it.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }

    /// `self − earlier`, per counter.
    fn since(&self, earlier: &Counters) -> Counters {
        Counters(
            self.0
                .iter()
                .map(|(k, v)| (k.clone(), v - earlier.get(k).unwrap_or(0.0)))
                .collect(),
        )
    }
}

impl std::ops::Index<&str> for Counters {
    type Output = f64;

    fn index(&self, name: &str) -> &f64 {
        self.0.get(name).unwrap_or(&0.0)
    }
}

/// A built topology under load.
pub trait Topology: Sync {
    /// Builds the generator's seeded inputs, outside the timed set-up.
    fn prepare(&mut self, _seed: u64) {}
    /// Runs generator `thread` closed-loop until the window stops.
    fn generate(&self, thread: usize, window: &Window) -> PhaseStats;
    /// The public counters of every tier, cumulative.
    fn counters(&self) -> Counters;
    /// Instantaneous gauges, sampled through the traced window.
    fn gauges(&self) -> Vec<(&'static str, f64)> {
        Vec::new()
    }
    /// Checks the program's outputs once the generators have stopped.
    fn verify(&self) -> Vec<String>;
    /// Stops every tier; reports what did not clean up.
    fn shutdown(&mut self) -> Vec<String> {
        Vec::new()
    }
    /// The settings that differ from program defaults, and the shape.
    fn settings(&self) -> String;
}

/// The method metadata of every interface the workloads call.
pub fn method_registry() -> Arc<MethodRegistry> {
    Arc::new(MethodRegistry::of(&[
        CreditCardSkeleton::INTERFACE_META,
        CreditManagerSkeleton::INTERFACE_META,
        NoopSkeleton::INTERFACE_META,
    ]))
}

/// Reads the counting allocator's total, when the binary has one.
pub static ALLOCATIONS: OnceLock<fn() -> u64> = OnceLock::new();

fn allocations() -> u64 {
    ALLOCATIONS.get().map_or(0, |count| count())
}

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    /// One of [`WORKLOADS`].
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: f64,
    /// Traced run.
    pub trace: bool,
}

impl Args {
    /// Parses `--workload <name> --seed <n> --seconds <s> --trace <0|1>`.
    ///
    /// # Errors
    ///
    /// A usage message.
    pub fn parse(argv: impl IntoIterator<Item = String>) -> Result<Args, String> {
        let mut map = BTreeMap::new();
        let mut argv = argv.into_iter();
        while let Some(flag) = argv.next() {
            let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
            map.insert(flag, value);
        }
        let take = |flag: &str| {
            map.get(flag)
                .cloned()
                .ok_or_else(|| format!("missing {flag}"))
        };
        let workload = take("--workload")?;
        if !WORKLOADS.contains(&workload.as_str()) {
            return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
        }
        let seed = take("--seed")?
            .parse()
            .map_err(|e| format!("--seed: {e}"))?;
        let seconds: f64 = take("--seconds")?
            .parse()
            .map_err(|e| format!("--seconds: {e}"))?;
        if !(seconds > 0.0 && seconds <= 600.0) {
            return Err("--seconds must be in (0, 600]".into());
        }
        let trace = match take("--trace")?.as_str() {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, got {other}")),
        };
        if map.len() != 4 {
            return Err(format!("unexpected arguments: {:?}", map.keys()));
        }
        Ok(Args {
            workload,
            seed,
            seconds,
            trace,
        })
    }
}

/// One measured window.
struct Phase {
    stats: PhaseStats,
    seconds: f64,
    allocations: u64,
    /// Process CPU seconds per slice.
    slice_cpu_s: Vec<f64>,
    counters: Counters,
    spans: [SpanTotals; SPANS],
    gauges: BTreeMap<&'static str, Vec<f64>>,
    /// Peak resident memory when the window closed, before the figures
    /// are merged and summarised.
    peak_rss_mb: f64,
}

impl Phase {
    fn calls_per_s(&self) -> f64 {
        ratio(self.stats.calls as f64, self.seconds)
    }

    fn span(&self, span: Span) -> SpanTotals {
        self.spans[span as usize]
    }
}

fn span_delta(end: [SpanTotals; SPANS], begin: [SpanTotals; SPANS]) -> [SpanTotals; SPANS] {
    let mut out = end;
    for (o, b) in out.iter_mut().zip(begin) {
        o.count -= b.count;
        o.total_ns -= b.total_ns;
        o.self_ns -= b.self_ns;
        o.calls -= b.calls;
        o.batches -= b.batches;
        o.batch_weighted_ns -= b.batch_weighted_ns;
    }
    out
}

/// Loads `topology` from every generator thread, measures `seconds` after
/// the warm-up, then stops the generators and waits for them.
fn measure(topology: &dyn Topology, seconds: f64, sample: bool) -> Phase {
    let slices = (seconds / SLICE.as_secs_f64()).round().max(1.0) as u32;
    let window = Window::new(SLICE, slices as usize);
    let tracer = Tracer::global();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..GENERATOR_THREADS)
            .map(|thread| {
                let window = &window;
                scope.spawn(move || topology.generate(thread, window))
            })
            .collect();
        std::thread::sleep(WARMUP);
        let counters0 = topology.counters();
        let spans0 = tracer.totals();
        let allocations0 = allocations();
        let cpu0 = sys::process_cpu_s();
        let started = Instant::now();
        window.begin();
        if sample {
            tracer.keep_spans();
        }
        let mut gauges: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        let mut slice_cpu_s = Vec::with_capacity(slices as usize);
        let mut cpu_mark = cpu0;
        for slice in 1..=slices {
            let boundary = started + SLICE * slice;
            while Instant::now() < boundary {
                let left = boundary.saturating_duration_since(Instant::now());
                if sample {
                    for (name, value) in topology.gauges() {
                        gauges.entry(name).or_default().push(value);
                    }
                    std::thread::sleep(SAMPLE_EVERY.min(left));
                } else {
                    std::thread::sleep(left);
                }
            }
            let cpu = sys::process_cpu_s();
            slice_cpu_s.push(cpu - cpu_mark);
            cpu_mark = cpu;
        }
        let allocations = allocations() - allocations0;
        let spans = span_delta(tracer.totals(), spans0);
        let counters = topology.counters().since(&counters0);
        let peak_rss_mb = sys::peak_rss_mb();
        window.stop();
        let mut threads = handles
            .into_iter()
            .map(|handle| handle.join().expect("generator thread panicked"));
        let mut stats: PhaseStats = threads.next().expect("a generator thread");
        for other in threads {
            stats.merge(other);
        }
        Phase {
            stats,
            seconds: f64::from(slices) * SLICE.as_secs_f64(),
            allocations,
            slice_cpu_s,
            counters,
            spans,
            gauges,
            peak_rss_mb,
        }
    })
}

fn journal_dir(index: usize) -> PathBuf {
    Path::new(OUT_DIR).join(format!("journal-{}-{index}", std::process::id()))
}

fn build(args: &Args, traced: bool, index: usize) -> Result<Box<dyn Topology>, RemoteError> {
    Ok(match args.workload.as_str() {
        "inproc_noop" => Box::new(inproc::InprocNoop::setup(
            args.seed,
            traced,
            GENERATOR_THREADS,
        )?),
        "edge_read_mostly" => Box::new(bank::EdgeReadMostly::setup(traced)?),
        _ => Box::new(bank::DurableWriteHeavy::setup(traced, journal_dir(index))?),
    })
}

/// One printed metric.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
    note: Option<String>,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name,
        value,
        unit,
        note: None,
    }
}

fn absent(name: &'static str, unit: &'static str, why: &str) -> Metric {
    Metric {
        name,
        value: 0.0,
        unit,
        note: Some(format!("absent: {why}")),
    }
}

/// Everything a run found wrong.
#[derive(Default)]
struct Problems(Vec<String>);

impl Problems {
    fn extend(&mut self, what: &str, errors: Vec<String>) {
        self.0
            .extend(errors.into_iter().map(|e| format!("{what}: {e}")));
    }
}

fn metadata(args: &Args, journal_fs: Option<&str>) -> String {
    let mut meta = format!(
        "{{\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{},\"nproc\":{},\"generator_threads\":{},\"kernel\":\"{}\",\"commit\":\"{}\",\"loopback\":\"127.0.0.1\"",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        sys::nproc(),
        GENERATOR_THREADS,
        sys::kernel(),
        sys::commit()
    );
    if let Some(fs) = journal_fs {
        let _ = write!(meta, ",\"journal_fs\":\"{fs}\"");
    }
    meta.push('}');
    meta
}

/// Runs the benchmark; returns the process exit code.
pub fn run(argv: impl IntoIterator<Item = String>) -> i32 {
    let args = match Args::parse(argv) {
        Ok(args) => args,
        Err(usage) => {
            eprintln!("perfbench: {usage}");
            eprintln!(
                "usage: --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return 2;
        }
    };
    if let Err(err) = std::fs::create_dir_all(OUT_DIR) {
        eprintln!("perfbench: create {OUT_DIR}: {err}");
        return 2;
    }
    let journal_fs =
        (args.workload == "durable_write_heavy").then(|| sys::filesystem_type(Path::new(OUT_DIR)));
    if let Some(fs) = &journal_fs {
        if fs == "tmpfs" || fs == "ramfs" {
            eprintln!("perfbench: refusing durable_write_heavy on {fs}: fsync is free there");
            return 3;
        }
    }
    println!("meta {}", metadata(&args, journal_fs.as_deref()));
    match execute(&args) {
        Ok(report) => {
            print!("{report}");
            0
        }
        Err(err) => {
            eprintln!("perfbench: {err}");
            1
        }
    }
}

fn execute(args: &Args) -> Result<String, RemoteError> {
    let mut problems = Problems::default();
    let mut out = String::new();
    // Set-up of the program's objects, repeated; the last instance
    // carries the load. The generator's inputs are built untimed.
    let mut setup_times = Vec::with_capacity(SETUPS);
    let mut topology = None;
    for index in 0..SETUPS {
        let started = Instant::now();
        let built = build(args, false, index)?;
        setup_times.push(started.elapsed().as_secs_f64());
        if let Some(mut previous) = topology.replace(built) {
            problems.extend("teardown", previous.shutdown());
        }
    }
    let mut topology = topology.expect("at least one set-up");
    topology.prepare(args.seed);
    let _ = writeln!(out, "settings {}", topology.settings());
    let untraced_seconds = if args.trace {
        (args.seconds / 2.0).max(1.0)
    } else {
        args.seconds
    };
    let untraced = measure(topology.as_ref(), untraced_seconds, false);
    problems.extend("verify", topology.verify());
    problems.extend("teardown", topology.shutdown());
    drop(topology);
    problems.extend("batch", untraced.stats.errors.clone());

    let setup_s = quantile(&setup_times, 0.5).unwrap_or(0.0);
    let mut attempted = untraced.stats.batches;
    let mut failed = untraced.stats.failed;
    let metrics = if args.trace {
        let mut traced_topology = build(args, true, SETUPS)?;
        traced_topology.prepare(args.seed);
        Tracer::global().reset();
        let traced = measure(traced_topology.as_ref(), untraced_seconds, true);
        problems.extend("verify (traced)", traced_topology.verify());
        problems.extend("teardown (traced)", traced_topology.shutdown());
        drop(traced_topology);
        problems.extend("batch (traced)", traced.stats.errors.clone());
        attempted += traced.stats.batches;
        failed += traced.stats.failed;
        let spans_path =
            Path::new(OUT_DIR).join(format!("spans-{}-seed{}.jsonl", args.workload, args.seed));
        if let Err(err) = std::fs::write(&spans_path, Tracer::global().spans_jsonl()) {
            problems
                .0
                .push(format!("write {}: {err}", spans_path.display()));
        } else {
            let _ = writeln!(out, "spans written to {}", spans_path.display());
        }
        let (check, passed, gap) = accounting(&args.workload, &traced);
        out.push_str(&check);
        if !passed {
            problems.0.push("accounting check failed".into());
        }
        layer_metrics(&args.workload, &untraced, &traced, gap)
    } else {
        // Printed for people; the JSON carries only the metrics every
        // workload has.
        let per_slice: Vec<String> = untraced
            .stats
            .slice_calls
            .iter()
            .map(|calls| format!("{:.0}", *calls as f64 / SLICE.as_secs_f64()))
            .collect();
        let _ = writeln!(
            out,
            "info calls_per_s by slice = [{}]",
            per_slice.join(", ")
        );
        let setups: Vec<String> = setup_times.iter().map(|s| format!("{s:.6}")).collect();
        let _ = writeln!(out, "info setup_s by set-up = [{}]", setups.join(", "));
        for m in class_latencies(&untraced) {
            let _ = writeln!(out, "info {} = {} {}{}", m.name, m.value, m.unit, note(&m));
        }
        end_to_end(&untraced, setup_s)
    };
    for m in &metrics {
        let _ = writeln!(out, "metric {} = {} {}{}", m.name, m.value, m.unit, note(m));
    }
    for problem in &problems.0 {
        let _ = writeln!(out, "problem {problem}");
    }
    let correct = problems.0.is_empty() && failed == 0 && attempted > 0;
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    let _ = writeln!(
        out,
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    );
    Ok(out)
}

fn note(m: &Metric) -> String {
    m.note
        .as_ref()
        .map_or(String::new(), |n| format!("  ({n})"))
}

fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value:?}")
    } else {
        "0.0".into()
    }
}

/// The end-to-end metrics of an untraced window, with sample counts in
/// the human-readable lines.
fn end_to_end(phase: &Phase, setup_s: f64) -> Vec<Metric> {
    let slice_s = SLICE.as_secs_f64();
    let stats = &phase.stats;
    let per_slice = |value: &dyn Fn(usize) -> f64| {
        let values: Vec<f64> = (0..stats.slice_calls.len()).map(value).collect();
        quantile(&values, 0.5).unwrap_or(0.0)
    };
    let latency = |slice: usize, q: f64| {
        quantile(stats.slice_latency[slice].samples(), q).unwrap_or(0.0) / 1e3
    };
    let calls = |slice: usize| stats.slice_calls[slice] as f64;
    let n = format!(
        "median of {} one-second slices, n={}",
        stats.slice_calls.len(),
        stats.verified()
    );
    let noted = |mut m: Metric| {
        m.note = Some(n.clone());
        m
    };
    vec![
        noted(metric(
            "calls_per_s",
            per_slice(&|i| calls(i) / slice_s),
            "1/s",
        )),
        noted(metric(
            "batch_p50_us",
            per_slice(&|i| latency(i, 0.5)),
            "us",
        )),
        noted(metric(
            "batch_p99_us",
            per_slice(&|i| latency(i, 0.99)),
            "us",
        )),
        noted(metric(
            "cpu_ns_per_call",
            per_slice(&|i| ratio(phase.slice_cpu_s[i] * 1e9, calls(i))),
            "ns",
        )),
        metric("setup_s", setup_s, "s"),
        metric("peak_rss_mb", phase.peak_rss_mb, "MiB"),
    ]
}

/// Read/write batch latencies and the failed share, which exist only on
/// some workloads and are therefore per-layer metrics.
fn class_latencies(phase: &Phase) -> Vec<Metric> {
    let mut out = Vec::new();
    for (p50, p99, lat, class) in [
        (
            "e2e.read_p50_us",
            "e2e.read_p99_us",
            &phase.stats.read,
            "read",
        ),
        (
            "e2e.write_p50_us",
            "e2e.write_p99_us",
            &phase.stats.write,
            "write",
        ),
    ] {
        let samples = lat.samples();
        for (name, q) in [(p50, 0.5), (p99, 0.99)] {
            out.push(match quantile(samples, q) {
                Some(us) => {
                    let mut m = metric(name, us / 1e3, "us");
                    m.note = Some(format!(
                        "n={}, quantile of a uniform sample of {}",
                        lat.seen(),
                        samples.len()
                    ));
                    m
                }
                None => absent(name, "us", &format!("no {class} batches on this workload")),
            });
        }
    }
    out.push(metric(
        "e2e.failed_frac",
        ratio(phase.stats.failed as f64, phase.stats.batches as f64),
        "ratio",
    ));
    out
}

/// One stage on a blocking path.
struct Stage {
    name: &'static str,
    ns: f64,
    how: &'static str,
}

fn stage(name: &'static str, ns: f64, how: &'static str) -> Stage {
    Stage { name, ns, how }
}

/// One blocking path: its end-to-end mean (from the traced window) and
/// its stages.
struct BlockingPath {
    name: &'static str,
    e2e: f64,
    stages: Vec<Stage>,
    /// Every stage is measured apart from the end-to-end latency. When a
    /// stage is that latency minus the others, the stages sum to the mean
    /// by construction and only a negative stage can show a fault.
    closed: bool,
}

/// The blocking paths of a workload.
fn paths(workload: &str, p: &Phase) -> Vec<BlockingPath> {
    let s = |span| p.span(span);
    // Per-batch upstream and origin times of the relay's shared flushes.
    let up = s(Span::UpstreamRequest);
    let origin_read = s(Span::OriginRead);
    let origin_write = s(Span::OriginWrite);
    match workload {
        "inproc_noop" => {
            let flush = s(Span::CoreFlush);
            let request = s(Span::ClientRequest);
            vec![BlockingPath {
                name: "batch",
                e2e: p.stats.mean_latency_ns(),
                stages: vec![
                    stage("core.record", s(Span::CoreRecord).mean_ns(), "measured"),
                    stage("core.flush self", flush.mean_self_ns(), "measured"),
                    stage("transport.inproc codec", request.mean_self_ns(), "measured"),
                    stage(
                        "rmi handler",
                        ratio(
                            (request.total_ns - request.self_ns) as f64,
                            request.count as f64,
                        ),
                        "measured",
                    ),
                    stage("core.get", s(Span::CoreGet).mean_ns(), "measured"),
                ],
                closed: true,
            }]
        }
        "edge_read_mostly" => {
            let up_per_batch = ratio(up.batch_weighted_ns as f64, up.batches as f64);
            let origin_per_batch = ratio(
                (origin_read.batch_weighted_ns + origin_write.batch_weighted_ns) as f64,
                (origin_read.batches + origin_write.batches) as f64,
            );
            let wait_mean = ratio(
                p.counters["relay.wait_sum_ns"],
                p.counters["relay.wait_count"],
            );
            let relay = s(Span::RelayHandle);
            let relay_mean = relay.mean_ns();
            let mut out = Vec::new();
            for (class, edge, e2e) in [
                ("read", s(Span::EdgeRead), p.stats.read.mean()),
                ("write", s(Span::EdgeWrite), p.stats.write.mean()),
            ] {
                // The relay share of this class's edge time, split by the
                // relay's per-batch averages over every batch it carried.
                let relay_share = ratio((edge.total_ns - edge.self_ns) as f64, edge.count as f64);
                let scale = ratio(relay_share, relay_mean);
                out.push(BlockingPath {
                    name: class,
                    e2e,
                    stages: vec![
                        stage(
                            "reactor.client_hop",
                            e2e - edge.mean_ns(),
                            "derived: client latency - edge handler",
                        ),
                        stage("fetcher self", edge.mean_self_ns(), "measured"),
                        stage(
                            "relay coalesce wait",
                            scale * wait_mean,
                            "program histogram",
                        ),
                        stage(
                            "relay busy",
                            scale * (relay_mean - wait_mean - up_per_batch),
                            "derived: relay - wait - upstream",
                        ),
                        stage(
                            "reactor.upstream_hop",
                            scale * (up_per_batch - origin_per_batch),
                            "derived: upstream request - origin handler",
                        ),
                        stage("rmi origin handler", scale * origin_per_batch, "measured"),
                    ],
                    closed: false,
                });
            }
            out
        }
        _ => {
            let mut out = Vec::new();
            for (class, handler, lat) in [
                ("read", origin_read, &p.stats.read),
                ("write", origin_write, &p.stats.write),
            ] {
                let e2e = lat.mean();
                let linked = (class == "write" && p.stats.linked_hop.seen() > 0)
                    .then(|| p.stats.linked_hop.mean());
                let hop = match linked {
                    Some(hop) => stage(
                        "reactor.client_hop",
                        hop,
                        "derived per request, linked by IdemKey: latency - origin handler",
                    ),
                    None => stage(
                        "reactor.client_hop",
                        e2e - handler.mean_ns(),
                        "derived: client latency - origin handler",
                    ),
                };
                out.push(BlockingPath {
                    name: class,
                    e2e,
                    stages: vec![
                        hop,
                        stage("rmi origin handler", handler.mean_ns(), "measured"),
                    ],
                    closed: false,
                });
            }
            out
        }
    }
}

/// The stage-sum accounting check: along each blocking path the stage
/// means must sum to the end-to-end mean within [`ACCOUNTING_TOLERANCE`],
/// and no stage may be negative. Returns the report, whether every path
/// passed, and the largest gap as a share of its end-to-end mean over the
/// closed paths (`None` when no path is closed).
fn accounting(workload: &str, p: &Phase) -> (String, bool, Option<f64>) {
    let mut out = String::new();
    let mut passed = true;
    let mut worst: Option<f64> = None;
    for path in paths(workload, p) {
        let sum: f64 = path.stages.iter().map(|s| s.ns).sum();
        let gap = ratio(path.e2e - sum, path.e2e);
        let negative = path.stages.iter().any(|s| s.ns < -0.01 * path.e2e);
        let ok = gap.abs() <= ACCOUNTING_TOLERANCE && !negative;
        passed &= ok;
        if path.closed {
            worst = Some(worst.unwrap_or(0.0).max(gap.abs()));
        }
        let _ = writeln!(
            out,
            "accounting {}: end-to-end mean {:.0} ns, stage sum {:.0} ns, gap {:+.4} (tolerance {ACCOUNTING_TOLERANCE}{}) {}",
            path.name,
            path.e2e,
            sum,
            gap,
            if path.closed {
                ""
            } else {
                "; 0 by construction, a stage is derived by subtraction, so only a negative stage fails"
            },
            if ok { "ok" } else { "FAILED" }
        );
        for s in &path.stages {
            let _ = writeln!(
                out,
                "accounting {}   {:<24} {:>12.0} ns  [{}]",
                path.name, s.name, s.ns, s.how
            );
        }
    }
    (out, passed, worst)
}

/// The relay coalesce-wait median from the window's histogram buckets.
fn wait_p50_us(c: &Counters) -> Option<f64> {
    let buckets: Vec<(usize, f64)> =
        c.0.iter()
            .filter_map(|(k, v)| Some((k.strip_prefix("relay.wait_bucket.")?.parse().ok()?, *v)))
            .collect();
    let total: f64 = buckets.iter().map(|(_, n)| n).sum();
    if total <= 0.0 {
        return None;
    }
    let mut seen = 0.0;
    for (bucket, n) in buckets {
        seen += n;
        if seen >= total / 2.0 {
            return Some(brmi_obs::bucket_upper(bucket) as f64 / 1e3);
        }
    }
    None
}

/// Every per-layer metric, present or explained.
fn layer_metrics(workload: &str, a: &Phase, b: &Phase, gap: Option<f64>) -> Vec<Metric> {
    let c = &b.counters;
    let calls = b.stats.calls as f64;
    let has = |name: &str| c.get(name).is_some();
    let span_or = |name: &'static str,
                   unit: &'static str,
                   span: Span,
                   value: fn(&SpanTotals) -> f64,
                   why: &str| {
        let t = b.span(span);
        if t.count == 0 {
            absent(name, unit, why)
        } else {
            metric(name, value(&t), unit)
        }
    };
    let per_call = |t: &SpanTotals| ratio(t.total_ns as f64, t.calls as f64);
    let no_core = "no generated stubs on this workload: the generator sends pre-built frames";
    let no_fetcher = "no fetcher on this workload";
    let no_relay = "no relay on this workload";
    let no_durable = "no journal on this workload";
    let no_reactor = "no reactor on this workload";
    let mut out = vec![
        span_or(
            "core.record_ns_per_call",
            "ns",
            Span::CoreRecord,
            per_call,
            no_core,
        ),
        span_or(
            "core.flush_self_ns",
            "ns",
            Span::CoreFlush,
            SpanTotals::mean_self_ns,
            no_core,
        ),
        span_or(
            "core.get_ns_per_call",
            "ns",
            Span::CoreGet,
            per_call,
            no_core,
        ),
        span_or(
            "inproc.codec_ns",
            "ns",
            Span::ClientRequest,
            SpanTotals::mean_self_ns,
            "no in-proc transport on this workload",
        ),
    ];
    let client_bytes = c
        .get("client.bytes")
        .or_else(|| c.get("mux.client.bytes"))
        .unwrap_or(0.0);
    out.push(metric(
        "wire.client_bytes_per_call",
        ratio(client_bytes, calls),
        "B",
    ));
    out.push(if has("mux.upstream.bytes") {
        metric(
            "wire.upstream_bytes_per_call",
            ratio(c["mux.upstream.bytes"], calls),
            "B",
        )
    } else {
        absent(
            "wire.upstream_bytes_per_call",
            "B",
            "no upstream hop on this workload",
        )
    });
    let (or, ow) = (b.span(Span::OriginRead), b.span(Span::OriginWrite));
    out.push(metric(
        "rmi.handle_ns_per_call",
        ratio(
            (or.total_ns + ow.total_ns) as f64,
            (or.calls + ow.calls) as f64,
        ),
        "ns",
    ));
    out.push(span_or(
        "rmi.read_handle_ns",
        "ns",
        Span::OriginRead,
        SpanTotals::mean_ns,
        "no read frames reach the origin on this workload",
    ));
    out.push(span_or(
        "rmi.write_handle_ns",
        "ns",
        Span::OriginWrite,
        SpanTotals::mean_ns,
        "no write frames reach the origin on this workload",
    ));
    out.push(metric("rmi.reply_replays", c["rmi.replays"], "count"));
    if has("fetcher.lookups") {
        out.push(metric(
            "fetcher.hit_ratio",
            ratio(c["fetcher.hits"], c["fetcher.lookups"]),
            "ratio",
        ));
        out.push(span_or(
            "fetcher.read_self_ns",
            "ns",
            Span::EdgeRead,
            SpanTotals::mean_self_ns,
            no_fetcher,
        ));
        out.push(span_or(
            "fetcher.write_self_ns",
            "ns",
            Span::EdgeWrite,
            SpanTotals::mean_self_ns,
            no_fetcher,
        ));
        for (name, key) in [
            ("fetcher.probes_per_kcall", "fetcher.probes"),
            ("fetcher.invalidations_per_kcall", "fetcher.invalidations"),
            ("fetcher.evictions_per_kcall", "fetcher.evictions"),
            ("fetcher.expirations_per_kcall", "fetcher.expirations"),
        ] {
            out.push(metric(name, ratio(c[key] * 1e3, calls), "count"));
        }
    } else {
        for (name, unit) in [
            ("fetcher.hit_ratio", "ratio"),
            ("fetcher.read_self_ns", "ns"),
            ("fetcher.write_self_ns", "ns"),
            ("fetcher.probes_per_kcall", "count"),
            ("fetcher.invalidations_per_kcall", "count"),
            ("fetcher.evictions_per_kcall", "count"),
            ("fetcher.expirations_per_kcall", "count"),
        ] {
            out.push(absent(name, unit, no_fetcher));
        }
    }
    let relay = b.span(Span::RelayHandle);
    if relay.count > 0 {
        let up = b.span(Span::UpstreamRequest);
        out.push(metric("relay.handle_ns", relay.mean_ns(), "ns"));
        out.push(match wait_p50_us(c) {
            Some(p50) => metric("relay.coalesce_wait_p50_us", p50, "us"),
            None => absent(
                "relay.coalesce_wait_p50_us",
                "us",
                "no batch waited in the window",
            ),
        });
        let delay = b.gauges.get("relay.adaptive_delay_ns");
        let delay_mean = delay.map_or(0.0, |d| ratio(d.iter().sum::<f64>(), d.len() as f64));
        out.push(metric("relay.adaptive_delay_us", delay_mean / 1e3, "us"));
        out.push(metric(
            "relay.busy_ns_per_call",
            ratio(
                relay.total_ns as f64 - up.batch_weighted_ns as f64 - c["relay.wait_sum_ns"],
                relay.calls as f64,
            ),
            "ns",
        ));
        out.push(metric(
            "relay.batches_per_upstream_flush",
            ratio(c["relay.batches"], c["relay.flushes"]),
            "ratio",
        ));
    } else {
        for (name, unit) in [
            ("relay.handle_ns", "ns"),
            ("relay.coalesce_wait_p50_us", "us"),
            ("relay.adaptive_delay_us", "us"),
            ("relay.busy_ns_per_call", "ns"),
            ("relay.batches_per_upstream_flush", "ratio"),
        ] {
            out.push(absent(name, unit, no_relay));
        }
    }
    for (name, prefix) in [
        ("mux.frames_per_write_syscall", "mux.client"),
        ("mux.upstream_frames_per_write_syscall", "mux.upstream"),
    ] {
        let frames = format!("{prefix}.frames");
        out.push(if has(&frames) {
            metric(
                name,
                ratio(c[frames.as_str()], c[format!("{prefix}.writes").as_str()]),
                "ratio",
            )
        } else {
            absent(name, "ratio", "no MuxClient on this hop")
        });
    }
    let client_mean = b.stats.mean_latency_ns();
    let (er, ew) = (b.span(Span::EdgeRead), b.span(Span::EdgeWrite));
    let origin_frames = or.count + ow.count;
    if workload == "inproc_noop" {
        out.push(absent("reactor.client_hop_ns", "ns", no_reactor));
        out.push(absent("reactor.client_hop_linked_ns", "ns", no_reactor));
    } else {
        let (handler_ns, frames) = if er.count + ew.count > 0 {
            (er.total_ns + ew.total_ns, er.count + ew.count)
        } else {
            (or.total_ns + ow.total_ns, origin_frames)
        };
        let mut hop = metric(
            "reactor.client_hop_ns",
            client_mean - ratio(handler_ns as f64, frames as f64),
            "ns",
        );
        hop.note = Some("per-boundary means: client latency - first-tier handler".into());
        out.push(hop);
        out.push(if b.stats.linked_hop.seen() == 0 {
            absent(
                "reactor.client_hop_linked_ns",
                "ns",
                "no keyed frames: the boundary cannot see a request id",
            )
        } else {
            let mut m = metric(
                "reactor.client_hop_linked_ns",
                b.stats.linked_hop.mean(),
                "ns",
            );
            m.note = Some(format!(
                "per request, linked by IdemKey, n={}",
                b.stats.linked_hop.seen()
            ));
            m
        });
    }
    let up = b.span(Span::UpstreamRequest);
    out.push(if up.count > 0 {
        let mut m = metric(
            "reactor.upstream_hop_ns",
            up.mean_ns() - ratio((or.total_ns + ow.total_ns) as f64, origin_frames as f64),
            "ns",
        );
        m.note = Some("per-boundary means: upstream request - origin handler".into());
        m
    } else {
        absent(
            "reactor.upstream_hop_ns",
            "ns",
            "no upstream hop on this workload",
        )
    });
    for (name, key) in [
        ("reactor.edge_queue_depth_p50", "reactor.edge.queue_depth"),
        (
            "reactor.origin_queue_depth_p50",
            "reactor.origin.queue_depth",
        ),
    ] {
        out.push(match b.gauges.get(key).and_then(|g| quantile(g, 0.5)) {
            Some(depth) => metric(name, depth, "count"),
            None => absent(name, "count", "no such reactor tier on this workload"),
        });
    }
    if has("reactor.pauses") {
        out.push(metric(
            "reactor.backpressure_pauses",
            c["reactor.pauses"],
            "count",
        ));
        out.push(metric("reactor.requests_shed", c["reactor.shed"], "count"));
    } else {
        out.push(absent("reactor.backpressure_pauses", "count", no_reactor));
        out.push(absent("reactor.requests_shed", "count", no_reactor));
    }
    if has("durable.appends") {
        let appends = c["durable.appends"];
        out.push(metric(
            "durable.fsyncs_per_append",
            ratio(c["durable.fsyncs"], appends),
            "ratio",
        ));
        out.push(metric(
            "durable.bytes_per_append",
            ratio(c["durable.bytes"], appends),
            "B",
        ));
        out.push(metric(
            "durable.snapshots_per_kappend",
            ratio(c["durable.snapshots"] * 1e3, appends),
            "count",
        ));
    } else {
        out.push(absent("durable.fsyncs_per_append", "ratio", no_durable));
        out.push(absent("durable.bytes_per_append", "B", no_durable));
        out.push(absent("durable.snapshots_per_kappend", "count", no_durable));
    }
    let mut allocs = metric(
        "process.allocs_per_call",
        ratio(a.allocations as f64, a.stats.calls as f64),
        "count",
    );
    allocs.note = Some("untraced window, whole process".into());
    out.push(allocs);
    let mut overhead = metric(
        "trace.overhead_frac",
        1.0 - ratio(b.calls_per_s(), a.calls_per_s()),
        "ratio",
    );
    overhead.note = Some(format!(
        "traced {:.1} calls/s against untraced {:.1} calls/s",
        b.calls_per_s(),
        a.calls_per_s()
    ));
    out.push(overhead);
    out.push(match gap {
        Some(gap) => metric("accounting.gap_frac", gap, "ratio"),
        None => absent(
            "accounting.gap_frac",
            "ratio",
            "every blocking path here has a client hop derived by subtraction, so its stages sum to the end-to-end mean by construction",
        ),
    });
    out.extend(class_latencies(a));
    out
}
