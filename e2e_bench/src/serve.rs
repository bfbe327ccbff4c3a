//! The two serve workloads.
//!
//! `serve-scale` drives the sharded tier (`run_sharded`) over a
//! `synth_scenario` with cached per-class decision tables, lean mode, two
//! shards and a checkpoint every two epochs: each decision is a table
//! lookup, so event dispatch, epoch coordination and checkpointing do the
//! work.
//!
//! `serve-live` drives the unsharded `ServeRuntime::run_observed` path
//! into a `Recorder`, as `predvfs serve --trace-out` does, over a
//! generated scenario that runs the slice on every decision, refits
//! adaptive streams and records every event. Its measured phase serves
//! each accelerator's streams with their own `run_observed` call.
//!
//! Arrivals in both form an open loop in virtual time: each stream's
//! periodic schedule does not wait for service, so queues grow and jobs
//! are shed or relaxed. Host-side, each run is one batch.

use std::fmt::Write as _;

use predvfs_faults::NullInjector;
use predvfs_obs::{NullSink, Recorder};
use predvfs_serve::{ControllerKind, Scenario, ServeError, ServeRuntime, StreamResult};
use predvfs_shard::{run_sharded, synth_scenario, ShardConfig, ShardedResult, SynthSpec};
use predvfs_sim::TraceCache;

use crate::check;
use crate::report::{fastest, median, peak_rss_mb, Outcome};
use crate::trace::Tracer;
use crate::{ab, measure, repeat_setup, Args, SETUP_REPEATS};

/// `serve-scale` stream count.
const SCALE_STREAMS: usize = 1 << 18;
/// `serve-scale` jobs per stream.
const SCALE_JOBS: usize = 10;
/// `serve-scale` stream classes (accelerator × workload seed): enough
/// distinct job sets that a run's cost does not hinge on one seed's jobs.
const SCALE_CLASSES: usize = 56;
/// `serve-scale` shard count: the smallest at which the coordinator has
/// peers.
const SCALE_SHARDS: usize = 2;
/// `serve-scale` epoch length in virtual seconds: about one arrival
/// period, so a run spans a dozen epochs and checkpoints several times.
const SCALE_EPOCH_S: f64 = 1e-3;
/// `serve-scale` checkpoint cadence, in epochs.
const SCALE_CHECKPOINT_EVERY: u64 = 2;
/// `serve-scale` base arrival period: shorter than a job's service at
/// the energy-optimal level, so queues fill and jobs are shed.
const SCALE_PERIOD_S: f64 = 0.8e-3;
/// `serve-scale` per-job deadline: tight enough that queueing makes some
/// jobs miss.
const SCALE_DEADLINE_S: f64 = 5e-3;

/// Generated job sets per accelerator in `serve-live`.
pub const LIVE_SETS: usize = 4;
/// `serve-live` stream count: each of the 7 accelerators meets each of
/// the 4 controller kinds on each job set.
pub const LIVE_STREAMS: usize = 7 * LIVE_KINDS.len() * LIVE_SETS;
/// `serve-live` jobs per stream.
pub const LIVE_JOBS: usize = 40;
/// `serve-live` set-ups per run. One takes a fraction of a second, so
/// the median needs more of them than the other workloads' set-ups.
const LIVE_SETUP_REPEATS: usize = 9;
/// `serve-live` controller kinds; streams are split evenly across them.
pub const LIVE_KINDS: [&str; 4] = ["predictive", "adaptive", "hybrid", "pid"];

/// `serve-live`'s overloaded accelerator class. Fixed, so that the
/// seed changes inputs but not which accelerator carries the overload.
const LIVE_HOT: &str = "md";

/// Ring capacity for the live run's recorder: far above the event count,
/// so nothing is evicted.
const TRACE_CAPACITY: usize = 1 << 21;

/// The `serve-scale` scenario for a seed.
fn scale_scenario(seed: u64) -> Scenario {
    synth_scenario(&SynthSpec {
        jobs_per_stream: SCALE_JOBS,
        period_s: SCALE_PERIOD_S,
        deadline_s: SCALE_DEADLINE_S,
        classes: SCALE_CLASSES,
        seed,
        ..SynthSpec::new(SCALE_STREAMS)
    })
}

/// One `serve-scale` run on the sharded tier.
fn shard_run(
    rt: &ServeRuntime,
    checkpoint: bool,
    force: ControllerKind,
) -> Result<ShardedResult, ServeError> {
    let config = ShardConfig {
        shards: SCALE_SHARDS,
        force: Some(force),
        lean: true,
        epoch_s: SCALE_EPOCH_S,
        checkpoint_every: checkpoint.then_some(SCALE_CHECKPOINT_EVERY),
        ..ShardConfig::default()
    };
    run_sharded(rt, &config, &[], &NullSink, &NullInjector)
}

/// SplitMix64: a stateless 64-bit mix for per-stream parameters.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A uniform draw in `[0, 1)` for stream `i` under `seed`.
fn unit(seed: u64, i: usize) -> f64 {
    (mix(seed ^ mix(i as u64)) >> 11) as f64 / (1u64 << 53) as f64
}

/// A `serve-live` stream's name: its zero-padded index, so that names
/// sort in scenario order, then its accelerator and job set, so that a
/// unit's streams can be picked out by name.
fn live_stream_name(i: usize, bench: &str, set: usize) -> String {
    format!("l{i:03}-{bench}-s{set}")
}

/// The workload seed of job set `set`: the paper configuration's seed
/// plus the set index, whatever the run's seed.
///
/// The slice's cost per job follows the content of the job set, and
/// between sets of one accelerator it varies fourfold (`djpeg`'s image
/// sizes and escape-coded blocks, `aes`'s message lengths). Drawn from
/// the run's seed, four sets per accelerator left a pass's cost varying
/// by a factor of 1.6 between seeds. Fixed sets keep that cost the same
/// on every seed; the seed still sets every stream's arrivals.
fn live_set_seed(set: usize) -> u64 {
    check::DEFAULT_SEED + set as u64
}

/// The `serve-live` scenario for a seed, in the scenario file format.
///
/// Every accelerator meets every controller kind of [`LIVE_KINDS`] on
/// each of its [`LIVE_SETS`] job sets (see [`live_set_seed`]). Adaptive
/// streams drift mid-run. One accelerator class ([`LIVE_HOT`]) arrives
/// every ~0.25 ms, faster than it can be served, with a queue of 2; half
/// of its streams shed and half relax their deadlines. The others
/// arrive at roughly the paper's 60 fps. Arrival periods carry a seeded
/// 0–10% stagger.
pub fn live_scenario_text(seed: u64) -> String {
    let benches = predvfs_accel::all();
    let hot = benches
        .iter()
        .position(|b| b.name == LIVE_HOT)
        .expect("the hot accelerator is registered");
    let mut out = format!("# serve-live scenario, seed {seed}\nplatform asic\nsize quick\n");
    for i in 0..LIVE_STREAMS {
        let b = i % benches.len();
        let k = i / benches.len() % LIVE_KINDS.len();
        let set = i / (benches.len() * LIVE_KINDS.len());
        let kind = LIVE_KINDS[k];
        let stagger = 1.0 + 0.1 * unit(seed, i);
        let _ = write!(
            out,
            "stream {} name={} deadline_ms=16.7 jobs={LIVE_JOBS} controller={kind} seed={}",
            benches[b].name,
            live_stream_name(i, benches[b].name, set),
            live_set_seed(set)
        );
        if b == hot {
            let policy = if (k + set).is_multiple_of(2) {
                "shed"
            } else {
                "relax:1.5"
            };
            let _ = write!(
                out,
                " period_ms={:.4} queue=2 policy={policy}",
                0.25 * stagger
            );
        } else {
            let _ = write!(out, " period_ms={:.4} queue=4", 16.7 * stagger);
        }
        if kind == "adaptive" {
            out.push_str(" drift=0.5:1.6");
        }
        out.push('\n');
    }
    out
}

/// The `serve-live` scenario restricted to the stream lines holding
/// `tag`.
fn live_sub_scenario(text: &str, tag: &str) -> String {
    text.lines()
        .filter(|l| !l.starts_with("stream ") || l.contains(tag))
        .fold(String::new(), |mut s, l| {
            s.push_str(l);
            s.push('\n');
            s
        })
}

/// Completed-job energy per retired job, as a percentage of a reference
/// run's.
fn energy_norm_pct(run: &[StreamResult], reference: &[StreamResult]) -> f64 {
    let per_job = |s: &[StreamResult]| {
        s.iter().map(|r| r.energy_pj).sum::<f64>() / s.iter().map(|r| r.done).sum::<usize>() as f64
    };
    100.0 * per_job(run) / per_job(reference)
}

/// Reports one serve run's modelled outcomes.
fn report_outcomes(out: &mut Outcome, streams: &[StreamResult], reference: &[StreamResult]) {
    let submitted: usize = streams.iter().map(|s| s.submitted).sum();
    let done: usize = streams.iter().map(|s| s.done).sum();
    let missed: usize = streams.iter().map(|s| s.missed).sum();
    let miss_pct = 100.0 * missed as f64 / done.max(1) as f64;
    let shed_pct = 100.0 * (submitted - done) as f64 / submitted.max(1) as f64;
    out.real("energy_norm_pct", energy_norm_pct(streams, reference));
    out.real("met_pct", 100.0 - miss_pct);
    out.info("miss_pct", miss_pct);
    out.real("served_pct", 100.0 - shed_pct);
    out.info("shed_pct", shed_pct);
}

/// Checks one serve run; a mismatch against the first run of the same
/// process (determinism) or the stored digest fails it.
fn check_run(
    out: &mut Outcome,
    streams: &[StreamResult],
    seed: u64,
    digest: u64,
    first: &mut Option<u64>,
) {
    let mut bad = check::check_serve(streams, seed, digest);
    let d = check::serve_digest(streams);
    match *first {
        Some(f) if f != d => bad.push(format!("run digest {d:#x} differs from first run {f:#x}")),
        _ => *first = Some(d),
    }
    for msg in &bad {
        eprintln!("check failed: {msg}");
    }
    out.attempt(bad.is_empty());
}

fn prepare(out: &mut Outcome, scenario: &Scenario) -> Option<ServeRuntime> {
    let r = ServeRuntime::prepare(scenario, &TraceCache::new());
    out.attempt(r.is_ok());
    r.map_err(|e| eprintln!("error: prepare: {e}")).ok()
}

fn attempt<T>(out: &mut Outcome, what: &str, r: Result<T, ServeError>) -> Option<T> {
    out.attempt(r.is_ok());
    r.map_err(|e| eprintln!("error: {what}: {e}")).ok()
}

/// Prepares `serve-scale` (`prepare` plus cached-table warm-up).
fn scale_setup(out: &mut Outcome, t: &Tracer, scenario: &Scenario) -> Option<ServeRuntime> {
    let rt = t.time("serve.prepare", || prepare(out, scenario)).0?;
    let warm = t
        .time("serve.warm_tables", || {
            rt.warm_cached_tables(Some(ControllerKind::Cached))
        })
        .0;
    attempt(out, "warm_cached_tables", warm)?;
    Some(rt)
}

/// Runs `serve-scale` untraced and reports the end-to-end metrics.
pub fn run_scale(args: &Args) -> Outcome {
    let t = Tracer::new(false);
    let mut out = Outcome::default();
    let scenario = scale_scenario(args.seed);
    let (rt, setups) = repeat_setup(SETUP_REPEATS, || scale_setup(&mut out, &t, &scenario));
    let Some(rt) = rt else { return out };
    let mut last: Option<ShardedResult> = None;
    let mut first = None;
    let walls = measure(args.seconds, || {
        drop(last.take());
        let (r, secs) = t.time("shard.run", || shard_run(&rt, true, ControllerKind::Cached));
        let r = attempt(&mut out, "run_sharded", r)?;
        check_run(
            &mut out,
            &r.streams,
            args.seed,
            check::SCALE_DIGEST,
            &mut first,
        );
        last = Some(r);
        Some(secs)
    });
    let Some(last) = last else { return out };
    let reference = shard_run(&rt, false, ControllerKind::Pid);
    let Some(reference) = attempt(&mut out, "run_sharded (pid reference)", reference) else {
        return out;
    };
    let wall = fastest(&walls);
    out.real("setup_s", median(&setups));
    out.real("wall_s", wall);
    out.real("jobs_per_s", last.jobs_done as f64 / wall);
    out.real("peak_rss_mb", peak_rss_mb());
    report_outcomes(&mut out, &last.streams, &reference.streams);
    out
}

/// Runs `serve-scale` once with spans and reports the per-layer metrics.
pub fn run_scale_traced(args: &Args, t: &Tracer) -> Outcome {
    let mut out = Outcome::default();
    let scenario = t
        .time("shard.synth_scenario", || scale_scenario(args.seed))
        .0;
    let Some(rt) = scale_setup(&mut out, t, &scenario) else {
        return out;
    };
    // Checkpoint cost: the same run with checkpointing off.
    let ((r, run_s), (plain, plain_s)) = ab(
        t,
        ("shard.run", || shard_run(&rt, true, ControllerKind::Cached)),
        ("shard.run.no_checkpoint", || {
            shard_run(&rt, false, ControllerKind::Cached)
        }),
    );
    let Some(r) = attempt(&mut out, "run_sharded", r) else {
        return out;
    };
    let mut first = None;
    check_run(
        &mut out,
        &r.streams,
        args.seed,
        check::SCALE_DIGEST,
        &mut first,
    );
    if let Some(plain) = attempt(&mut out, "run_sharded", plain) {
        check_run(
            &mut out,
            &plain.streams,
            args.seed,
            check::SCALE_DIGEST,
            &mut first,
        );
    }
    let most = r.shard_jobs_done.iter().copied().max().unwrap_or(0);
    let least = r.shard_jobs_done.iter().copied().min().unwrap_or(0);
    out.real("serve.prepare_s", t.total("serve.prepare"));
    out.real("serve.warm_tables_s", t.total("serve.warm_tables"));
    out.real("shard.run_s", run_s);
    out.real("shard.ns_per_event", run_s * 1e9 / r.events.max(1) as f64);
    out.count("shard.events", r.events as u64);
    out.count("shard.epochs", r.epochs);
    out.count("shard.checkpoints", r.checkpoints as u64);
    out.count("shard.migrations", r.migrations as u64);
    out.real("shard.imbalance", most as f64 / least.max(1) as f64);
    out.real("shard.checkpoint_s", run_s - plain_s);
    out
}

/// The `serve-live` scenario split into units: one sub-scenario per
/// accelerator and job set, holding that set's stream for each
/// controller kind. Streams share no state in an unsharded run, so each
/// keeps the outcome it has in the whole scenario.
pub fn live_units(seed: u64) -> Result<Vec<Scenario>, ServeError> {
    let text = live_scenario_text(seed);
    let mut units = Vec::new();
    for b in predvfs_accel::all() {
        for set in 0..LIVE_SETS {
            let tag = format!("-{}-s{set} ", b.name);
            units.push(Scenario::parse(&live_sub_scenario(&text, &tag))?);
        }
    }
    Ok(units)
}

/// Puts per-unit results back in the whole scenario's stream order:
/// stream names start with their zero-padded index.
pub fn in_scenario_order(mut streams: Vec<StreamResult>) -> Vec<StreamResult> {
    streams.sort_by(|a, b| a.name.cmp(&b.name));
    streams
}

/// Runs `serve-live` untraced and reports the end-to-end metrics.
///
/// A pass serves each unit's streams with its own `run_observed` call
/// into a fresh `Recorder`. `wall_s` is the sum over units of each one's
/// fastest call across passes, as in `eval-suite`: a call lasts tens of
/// milliseconds, short next to the host's speed swings, so its fastest
/// of some thirty passes is steady.
pub fn run_live(args: &Args) -> Outcome {
    let t = Tracer::new(false);
    let mut out = Outcome::default();
    let units = match live_units(args.seed) {
        Ok(u) => u,
        Err(e) => {
            out.attempt(false);
            eprintln!("error: scenario: {e}");
            return out;
        }
    };
    let (rts, setups) = repeat_setup(LIVE_SETUP_REPEATS, || {
        units
            .iter()
            .map(|u| prepare(&mut out, u))
            .collect::<Option<Vec<_>>>()
    });
    let Some(rts) = rts else { return out };
    let mut per_unit: Vec<Vec<f64>> = vec![Vec::new(); rts.len()];
    let mut last = Vec::new();
    let mut first = None;
    measure(args.seconds, || {
        let mut streams = Vec::new();
        let mut pass_s = 0.0;
        for (rt, times) in rts.iter().zip(&mut per_unit) {
            let recorder = Recorder::new(TRACE_CAPACITY);
            let (r, secs) = t.time("serve.run", || rt.run_observed(None, &recorder));
            let r = attempt(&mut out, "run_observed", r)?;
            out.attempt(recorder.ring().dropped() == 0);
            times.push(secs);
            pass_s += secs;
            streams.extend(r.streams);
        }
        let streams = in_scenario_order(streams);
        check_run(
            &mut out,
            &streams,
            args.seed,
            check::LIVE_DIGEST,
            &mut first,
        );
        last = streams;
        Some(pass_s)
    });
    let mut reference = Vec::new();
    for rt in &rts {
        let r = rt.run_with(Some(ControllerKind::Pid));
        let Some(r) = attempt(&mut out, "run_with (pid reference)", r) else {
            return out;
        };
        reference.extend(r.streams);
    }
    if last.is_empty() {
        return out;
    }
    let reference = in_scenario_order(reference);
    let wall: f64 = per_unit.iter().map(|u| fastest(u)).sum();
    let done: usize = last.iter().map(|s| s.done).sum();
    out.real("setup_s", median(&setups));
    out.real("wall_s", wall);
    out.real("jobs_per_s", done as f64 / wall);
    out.real("peak_rss_mb", peak_rss_mb());
    report_outcomes(&mut out, &last, &reference);
    out
}

/// Runs `serve-live` once with spans and reports the per-layer metrics.
pub fn run_live_traced(args: &Args, t: &Tracer) -> Outcome {
    let mut out = Outcome::default();
    let text = live_scenario_text(args.seed);
    let Ok(scenario) = Scenario::parse(&text) else {
        out.attempt(false);
        return out;
    };
    let Some(rt) = t.time("serve.prepare", || prepare(&mut out, &scenario)).0 else {
        return out;
    };
    // Recording cost: the same run into the no-op sink.
    let (((r, recorder), run_s), (null, null_s)) = ab(
        t,
        ("serve.run", || {
            let recorder = Recorder::new(TRACE_CAPACITY);
            (rt.run_observed(None, &recorder), recorder)
        }),
        ("serve.run.null_sink", || rt.run_observed(None, &NullSink)),
    );
    let Some(r) = attempt(&mut out, "run_observed", r) else {
        return out;
    };
    let mut first = None;
    check_run(
        &mut out,
        &r.streams,
        args.seed,
        check::LIVE_DIGEST,
        &mut first,
    );
    out.attempt(recorder.ring().dropped() == 0);
    if let Some(null) = attempt(&mut out, "run_observed", null) {
        check_run(
            &mut out,
            &null.streams,
            args.seed,
            check::LIVE_DIGEST,
            &mut first,
        );
    }
    // Per-kind cost: each kind's streams alone, into a recorder.
    let cache = TraceCache::new();
    for kind in LIVE_KINDS {
        let tag = format!("controller={kind} ");
        let Ok(sub) = Scenario::parse(&live_sub_scenario(&text, &tag)) else {
            out.attempt(false);
            continue;
        };
        let prepared = t
            .time("serve.prepare.sub", || ServeRuntime::prepare(&sub, &cache))
            .0;
        let Some(sub_rt) = attempt(&mut out, "prepare", prepared) else {
            continue;
        };
        let rec = Recorder::new(TRACE_CAPACITY);
        let span = format!("serve.run.{kind}");
        let res = t.time(&span, || sub_rt.run_observed(None, &rec)).0;
        attempt(&mut out, "run_observed", res);
    }
    out.real("serve.prepare_s", t.total("serve.prepare"));
    out.real("serve.run_s", run_s);
    out.real("serve.run_s.predictive", t.total("serve.run.predictive"));
    out.real("serve.run_s.adaptive", t.total("serve.run.adaptive"));
    out.real("serve.run_s.hybrid", t.total("serve.run.hybrid"));
    out.real("serve.run_s.pid", t.total("serve.run.pid"));
    out.count("serve.events", r.events as u64);
    out.count(
        "opt.refits",
        r.streams.iter().map(|s| s.refits as u64).sum(),
    );
    out.count("obs.trace_events", recorder.ring().len() as u64);
    out.real("obs.record_s", run_s - null_s);
    out
}
