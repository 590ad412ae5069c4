//! `dejavuzz-serve` end to end, driving the built daemon binary:
//!
//! * **Served union** — a finished 2-shard gossiping fleet serves the
//!   exact union `merge_snapshots` computes over its shard snapshots,
//!   its per-shard totals agree with those snapshots and with the
//!   daemon's own finish lines, and gossip actually exchanged points.
//! * **Exposition** — `--query metrics` is well-formed Prometheus text
//!   (one `# TYPE` and one `# HELP` per family, no sample outside a
//!   family), `series` is monotone and ends at the shard's total, and an
//!   unknown shard is an error object.
//! * **External peers** — a campaign dialling the hub socket through
//!   the link `dejavuzz-fuzz --peers unix:PATH` builds imports the
//!   served shards' deltas.
//!
//! Every daemon is killed and reaped when its guard drops, so a failed
//! assertion never leaves one running.

use std::collections::BTreeSet;
use std::fs::File;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use dejavuzz::backend::BackendSpec;
use dejavuzz::builder::CampaignBuilder;
use dejavuzz::gossip::{shared_link, GossipLink, MultiLink, UnixGossipLink};
use dejavuzz::observer::CampaignObserver;
use dejavuzz::snapshot::{merge_snapshots, CampaignSnapshot};
use dejavuzz_fleet::transport::{CampaignEvent, ChannelObserver};
use dejavuzz_uarch::boom_small;

/// How long a debug build may take to reach a state a release build
/// reaches in well under a second.
const DEADLINE: Duration = Duration::from_secs(120);

/// A fresh, empty working directory for one test.
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("djvz-serve-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A running daemon serving on `dir/hub.sock`, its stderr in
/// `dir/serve.err`.
struct Daemon {
    child: Child,
    socket: PathBuf,
}

impl Daemon {
    fn spawn(dir: &Path, args: &[&str]) -> Daemon {
        let socket = dir.join("hub.sock");
        let child = Command::new(env!("CARGO_BIN_EXE_dejavuzz-serve"))
            .current_dir(dir)
            .arg("--socket")
            .arg(&socket)
            .args(args)
            .stdout(Stdio::null())
            .stderr(File::create(dir.join("serve.err")).unwrap())
            .spawn()
            .expect("spawn dejavuzz-serve");
        Daemon { child, socket }
    }

    /// Runs one `--query`, returning its stdout, or `None` while the
    /// socket does not answer yet.
    fn try_query(&self, request: &str) -> Option<String> {
        let out = Command::new(env!("CARGO_BIN_EXE_dejavuzz-serve"))
            .arg("--socket")
            .arg(&self.socket)
            .args(["--query", request])
            .output()
            .expect("spawn dejavuzz-serve --query");
        out.status
            .success()
            .then(|| String::from_utf8(out.stdout).unwrap())
    }

    fn query(&self, request: &str) -> String {
        self.try_query(request)
            .unwrap_or_else(|| panic!("query {request:?} failed"))
    }

    /// Polls `status` until every shard finished.
    fn wait_finished(&self, shards: usize) {
        let done = format!("\"finished\":{shards},");
        let start = Instant::now();
        while !self
            .try_query("status")
            .is_some_and(|status| status.contains(&done))
        {
            assert!(start.elapsed() < DEADLINE, "the fleet never finished");
            std::thread::sleep(Duration::from_millis(50));
        }
    }

    /// Sends `shutdown` and waits for a clean exit.
    fn shutdown(&mut self) {
        assert!(self.query("shutdown").contains("shutting down"));
        let start = Instant::now();
        loop {
            if let Some(status) = self.child.try_wait().unwrap() {
                assert!(status.success(), "dejavuzz-serve exited with {status}");
                return;
            }
            assert!(start.elapsed() < DEADLINE, "the daemon never exited");
            std::thread::sleep(Duration::from_millis(20));
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if self.child.try_wait().ok().flatten().is_none() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// Every `"key":N` value in `json`, in document order.
fn numbers(json: &str, key: &str) -> Vec<usize> {
    let tag = format!("\"{key}\":");
    json.match_indices(&tag)
        .map(|(at, _)| {
            let digits: String = json[at + tag.len()..]
                .chars()
                .take_while(char::is_ascii_digit)
                .collect();
            digits
                .parse()
                .unwrap_or_else(|_| panic!("{key} is a number in {json}"))
        })
        .collect()
}

/// The one `"key":N` value in `json`.
fn number(json: &str, key: &str) -> usize {
    match numbers(json, key)[..] {
        [n] => n,
        _ => panic!("one {key} in {json}"),
    }
}

/// The `[[iterations,coverage],…]` points of a `series` response.
fn series_points(json: &str) -> Vec<(u64, u64)> {
    let (_, points) = json.split_once("\"points\":[").expect("a points array");
    let points = points
        .trim_end()
        .trim_end_matches("]}")
        .trim_matches(['[', ']']);
    points
        .split("],[")
        .filter(|p| !p.is_empty())
        .map(|pair| {
            let (x, y) = pair.split_once(',').expect("an [x,y] pair");
            (x.parse().unwrap(), y.parse().unwrap())
        })
        .collect()
}

/// Checks a Prometheus text exposition: one `# TYPE` of a known kind
/// and one `# HELP` per family, and every sample in a typed family
/// (histogram samples by their `_bucket`/`_sum`/`_count` suffix).
/// Returns the families that have samples.
fn exposition_families(text: &str) -> BTreeSet<&str> {
    let (mut types, mut helps, mut sampled) = (Vec::new(), Vec::new(), BTreeSet::new());
    for line in text.lines().filter(|l| !l.is_empty()) {
        if let Some(decl) = line.strip_prefix("# TYPE ") {
            let (name, kind) = decl.split_once(' ').expect("# TYPE name kind");
            assert!(["counter", "gauge", "histogram"].contains(&kind), "{line}");
            types.push(name);
        } else if let Some(decl) = line.strip_prefix("# HELP ") {
            helps.push(decl.split_once(' ').map_or(decl, |(name, _)| name));
        } else {
            let name = line.split(['{', ' ']).next().unwrap();
            let family = ["_bucket", "_sum", "_count"]
                .iter()
                .filter_map(|suffix| name.strip_suffix(suffix))
                .find(|base| types.contains(base))
                .unwrap_or(name);
            assert!(types.contains(&family), "sample without a TYPE: {line}");
            sampled.insert(family);
        }
    }
    let distinct: BTreeSet<&str> = types.iter().copied().collect();
    assert_eq!(distinct.len(), types.len(), "a family is typed twice");
    helps.sort_unstable();
    assert_eq!(
        helps,
        distinct.into_iter().collect::<Vec<_>>(),
        "every family has exactly one HELP"
    );
    sampled
}

#[test]
fn served_fleet_agrees_with_its_snapshots_and_exposition() {
    let dir = scratch("fleet");
    let mut daemon = Daemon::spawn(
        &dir,
        &[
            "--shards",
            "2",
            "--iters",
            "8",
            "--workers",
            "2",
            "--seed",
            "7",
            "--snapshot-dir",
            "snaps",
        ],
    );
    daemon.wait_finished(2);
    let coverage = daemon.query("coverage");
    let shards = daemon.query("shards");
    let metrics = daemon.query("metrics");
    let series = daemon.query("series 0");
    let unknown = daemon.query("series 99");
    daemon.shutdown();

    // The served union is the snapshots' exact union, and each shard's
    // served total is its snapshot's and its finish line's.
    let snaps: Vec<CampaignSnapshot> = (0..2)
        .map(|i| CampaignSnapshot::load(&dir.join(format!("snaps/shard{i}.snap"))).unwrap())
        .collect();
    let union = number(&coverage, "union_points");
    assert_eq!(
        union,
        merge_snapshots(&snaps).coverage.points(),
        "{coverage}"
    );
    let points = numbers(&shards, "points");
    assert_eq!(
        points,
        snaps
            .iter()
            .map(|s| s.coverage.points())
            .collect::<Vec<_>>(),
        "{shards}"
    );
    assert_eq!(
        points.iter().sum::<usize>(),
        number(&coverage, "summed_points")
    );
    assert!(
        numbers(&shards, "peer_imports").iter().any(|&n| n > 0),
        "gossip must actually exchange: {shards}"
    );
    let stderr = std::fs::read_to_string(dir.join("serve.err")).unwrap();
    for (shard, snap) in snaps.iter().enumerate() {
        let line = format!(
            "shard {shard} finished: {} iterations, {} points,",
            snap.stats.iterations,
            snap.coverage.points()
        );
        assert!(stderr.contains(&line), "{line:?} in {stderr}");
    }

    let families = exposition_families(&metrics);
    for family in [
        "dejavuzz_iterations_total",
        "dejavuzz_slot_run_nanos",
        "dejavuzz_census_nanos",
        "dejavuzz_gossip_frames_in_total",
        "dejavuzz_observer_events_total",
        "dejavuzz_fleet_union_points",
        "dejavuzz_fleet_shard_points",
    ] {
        assert!(families.contains(family), "missing {family}: {metrics}");
    }

    let curve = series_points(&series);
    assert!(!curve.is_empty(), "{series}");
    assert!(
        curve
            .windows(2)
            .all(|w| w[0].0 <= w[1].0 && w[0].1 <= w[1].1),
        "the series is monotone in both coordinates: {series}"
    );
    assert_eq!(curve.last().unwrap().1 as usize, points[0], "{series}");
    assert!(unknown.starts_with("{\"error\":"), "{unknown}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn external_peer_imports_the_served_shards_deltas() {
    let dir = scratch("peer");
    // Far more iterations than the joiner runs, so the served shards
    // keep publishing throughout; the guard kills the daemon after.
    let daemon = Daemon::spawn(
        &dir,
        &[
            "--shards",
            "2",
            "--iters",
            "3000",
            "--workers",
            "2",
            "--seed",
            "7",
        ],
    );
    let start = Instant::now();
    let mut link = loop {
        match UnixGossipLink::connect(&daemon.socket, 9) {
            Ok(link) => break link,
            Err(e) => assert!(start.elapsed() < DEADLINE, "cannot dial the hub: {e}"),
        }
        std::thread::sleep(Duration::from_millis(20));
    };
    // Start the campaign only once the hub relays the served shards'
    // frames to this link, so even a fast build imports while they run.
    while link.drain().is_empty() {
        assert!(start.elapsed() < DEADLINE, "the hub never relayed a frame");
        std::thread::sleep(Duration::from_millis(5));
    }
    // The wiring `dejavuzz-fuzz --peers unix:PATH` builds.
    let peers: Vec<Box<dyn GossipLink>> = vec![Box::new(link)];
    let (observer, events) = ChannelObserver::channel(4096);
    let mut observers: Vec<Box<dyn CampaignObserver>> = vec![Box::new(observer)];
    CampaignBuilder::new()
        .backend(BackendSpec::behavioural(boom_small()))
        .workers(2)
        .seed(99)
        .shard_id(9)
        .gossip(shared_link(MultiLink::new(peers)))
        .gossip_every(1)
        .build()
        .expect("valid configuration")
        .run_observed(80, &mut observers);
    drop(observers);
    assert!(
        events
            .iter()
            .any(|e| matches!(e, CampaignEvent::PeerDeltaImported(ev) if ev.from_shard < 2)),
        "the joiner imported a served shard's delta"
    );
    drop(daemon);
    let _ = std::fs::remove_dir_all(&dir);
}
