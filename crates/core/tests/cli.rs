//! CLI contract tests for `dejavuzz-fuzz`: strict flag parsing exits 2
//! with an error naming the flag (never a silent fall-through to the
//! default), configuration errors surface the builder's structured
//! message, and the scheduler and pipeline determinism contracts hold on
//! the report stdout. Pinned here because scripts and CI parse this
//! output.

use std::path::{Path, PathBuf};
use std::process::Command;

fn fuzz(args: &[&str]) -> (Option<i32>, String, String) {
    fuzz_in(Path::new("."), args)
}

/// [`fuzz`], run in `dir`.
fn fuzz_in(dir: &Path, args: &[&str]) -> (Option<i32>, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_dejavuzz-fuzz"))
        .current_dir(dir)
        .args(args)
        .output()
        .expect("spawn dejavuzz-fuzz");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

/// Runs `dejavuzz-fuzz` in `dir` and returns its report stdout without
/// the wall-clock lines (`elapsed`, `throughput`): the stream the
/// determinism contracts are stated over. The run must succeed.
fn report(dir: &Path, args: &[&str]) -> String {
    let (code, stdout, stderr) = fuzz_in(dir, args);
    assert_eq!(code, Some(0), "{args:?}: {stderr}");
    stdout
        .lines()
        .filter(|l| !l.contains("elapsed") && !l.contains("throughput"))
        .collect::<Vec<_>>()
        .join("\n")
}

/// A fresh, empty working directory for one test's snapshot files.
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("djvz-cli-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Runs `args` for `--iters 12` to completion, then again halted after 10
/// iterations with a checkpoint every round, and asserts that resuming
/// the checkpoint prints the uninterrupted report.
fn assert_resume_matches_uninterrupted(name: &str, args: &[&str]) {
    let dir = scratch(name);
    let args = [&["--iters", "12"], args].concat();
    let full = report(&dir, &args);
    let mut halted = args.clone();
    halted.extend(["--snapshot", "camp.snap", "--snapshot-every", "1"]);
    halted.extend(["--halt-after", "10"]);
    report(&dir, &halted);
    let resumed = report(&dir, &["--resume", "camp.snap", "--iters", "12"]);
    assert_eq!(full, resumed, "{args:?}: resumed report differs");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Runs `dejavuzz-merge` in `dir` on `args`, returning its exit code,
/// stdout and stderr.
fn merge(dir: &Path, args: &[&str]) -> (Option<i32>, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_dejavuzz-merge"))
        .current_dir(dir)
        .args(args)
        .output()
        .expect("spawn dejavuzz-merge");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

/// Parses one JSON value (RFC 8259) at the start of `s`, returning the
/// rest, or `None` if `s` does not start with one.
fn json_value(s: &str) -> Option<&str> {
    let s = s.trim_start();
    match s.chars().next()? {
        '{' => json_seq(&s[1..], '}', |s| {
            let s = json_string(s.trim_start())?;
            json_value(s.trim_start().strip_prefix(':')?)
        }),
        '[' => json_seq(&s[1..], ']', json_value),
        '"' => json_string(s),
        't' => s.strip_prefix("true"),
        'f' => s.strip_prefix("false"),
        'n' => s.strip_prefix("null"),
        _ => json_number(s),
    }
}

/// The comma-separated `item`s of an object or array up to `close`.
fn json_seq(s: &str, close: char, item: impl Fn(&str) -> Option<&str>) -> Option<&str> {
    let mut s = s.trim_start();
    if let Some(rest) = s.strip_prefix(close) {
        return Some(rest);
    }
    loop {
        s = item(s)?.trim_start();
        match s.strip_prefix(',') {
            Some(rest) => s = rest,
            None => return s.strip_prefix(close),
        }
    }
}

fn json_string(s: &str) -> Option<&str> {
    let body = s.strip_prefix('"')?;
    let mut chars = body.char_indices();
    while let Some((i, c)) = chars.next() {
        match c {
            '"' => return Some(&body[i + 1..]),
            '\\' => match chars.next()?.1 {
                'u' => {
                    for _ in 0..4 {
                        chars.next().filter(|(_, h)| h.is_ascii_hexdigit())?;
                    }
                }
                '"' | '\\' | '/' | 'b' | 'f' | 'n' | 'r' | 't' => {}
                _ => return None,
            },
            c if c < ' ' => return None,
            _ => {}
        }
    }
    None
}

/// The members of the JSON object `s` as `(key, raw value)` pairs, in
/// document order, or `None` unless `s` is exactly one object. Keys are
/// returned as written, without their quotes.
fn json_members(s: &str) -> Option<Vec<(&str, &str)>> {
    let mut s = s.trim_start().strip_prefix('{')?.trim_start();
    let mut members = Vec::new();
    if !s.starts_with('}') {
        loop {
            let rest = json_string(s)?;
            let key = &s[1..s.len() - rest.len() - 1];
            let value = rest.trim_start().strip_prefix(':')?.trim_start();
            let rest = json_value(value)?;
            members.push((key, &value[..value.len() - rest.len()]));
            s = rest.trim_start();
            match s.strip_prefix(',') {
                Some(rest) => s = rest.trim_start(),
                None => break,
            }
        }
    }
    s.strip_prefix('}')?.trim().is_empty().then_some(members)
}

/// The raw value of member `key` of a [`json_members`] list.
fn member<'a>(members: &[(&str, &'a str)], key: &str) -> Option<&'a str> {
    members.iter().find(|(k, _)| *k == key).map(|(_, v)| *v)
}

fn json_number(s: &str) -> Option<&str> {
    fn digits(s: &str) -> Option<&str> {
        let rest = s.trim_start_matches(|c: char| c.is_ascii_digit());
        (rest.len() < s.len()).then_some(rest)
    }
    let s = s.strip_prefix('-').unwrap_or(s);
    let s = match s.strip_prefix('0') {
        Some(rest) => rest,
        None => digits(s)?,
    };
    let s = match s.strip_prefix('.') {
        Some(rest) => digits(rest)?,
        None => s,
    };
    match s.strip_prefix(['e', 'E']) {
        Some(rest) => digits(rest.strip_prefix(['+', '-']).unwrap_or(rest)),
        None => Some(s),
    }
}

/// Two work-stealing runs print identical reports despite claim racing.
#[test]
fn steal_report_is_deterministic() {
    let dir = std::env::temp_dir();
    let args = [
        "--iters",
        "12",
        "--workers",
        "4",
        "--seed",
        "9",
        "--scheduler",
        "steal",
    ];
    assert_eq!(report(&dir, &args), report(&dir, &args));
}

/// A halted work-stealing campaign with the favoured policy resumes to
/// the uninterrupted report (the resume adopts scheduler and policy from
/// the snapshot).
#[test]
fn steal_resume_report_equals_uninterrupted_run() {
    assert_resume_matches_uninterrupted(
        "steal-resume",
        &[
            "--workers",
            "2",
            "--seed",
            "7",
            "--scheduler",
            "steal",
            "--policy",
            "favoured",
        ],
    );
}

/// The default campaign (barriered work stealing, energy policy), halted
/// with a checkpoint every round, resumes to the uninterrupted report.
#[test]
fn default_resume_report_equals_uninterrupted_run() {
    assert_resume_matches_uninterrupted("default-resume", &["--workers", "2", "--seed", "7"]);
}

/// `dejavuzz-merge` over two shard snapshots reports the exact union of
/// their coverage.
#[test]
fn shard_merge_reports_the_exact_union() {
    let dir = scratch("shard-merge");
    for (shard, seed) in [("0", "1"), ("1", "2")] {
        let snap = format!("shard{shard}.snap");
        let args = ["--iters", "8", "--workers", "2", "--seed", seed];
        report(
            &dir,
            &[&args[..], &["--shard", shard, "--snapshot", &snap]].concat(),
        );
    }
    let (code, stdout, stderr) = merge(&dir, &["shard0.snap", "shard1.snap"]);
    assert_eq!(code, Some(0), "stderr: {stderr}");
    assert!(
        stdout.contains("(exact union; per-shard counts sum to"),
        "{stdout}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A halted `netlist:small` campaign with scenario families active,
/// checkpointed every round, resumes (adopting the snapshot's families)
/// to the uninterrupted report and writes a byte-identical final
/// snapshot.
#[test]
fn netlist_scenario_resume_equals_uninterrupted_run() {
    let dir = scratch("netlist-scenario-resume");
    let args = [
        "--backend",
        "netlist:small",
        "--iters",
        "24",
        "--workers",
        "2",
        "--seed",
        "7",
        "--scenarios",
        "zenbleed,nested-spec:depth=4",
    ];
    let full = report(&dir, &[&args[..], &["--snapshot", "full.snap"]].concat());
    let halted = ["--snapshot", "half.snap", "--snapshot-every", "1"];
    report(
        &dir,
        &[&args[..], &halted, &["--halt-after", "12"]].concat(),
    );
    let resumed = report(
        &dir,
        &[
            "--backend",
            "netlist:small",
            "--resume",
            "half.snap",
            "--iters",
            "24",
            "--snapshot",
            "resumed.snap",
        ],
    );
    assert_eq!(full, resumed, "resumed report differs");
    let read = |name: &str| std::fs::read(dir.join(name)).unwrap();
    assert!(
        read("full.snap") == read("resumed.snap"),
        "resumed snapshot differs from the uninterrupted run's"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A run with no `--scenarios` prints the same report twice and no
/// per-family `scenario:` row.
#[test]
fn default_report_is_deterministic_without_scenario_rows() {
    let dir = std::env::temp_dir();
    let args = ["--iters", "12", "--workers", "2", "--seed", "5"];
    let first = report(&dir, &args);
    assert_eq!(first, report(&dir, &args));
    assert!(!first.contains("scenario:"), "{first}");
}

/// `dejavuzz-merge` over shards that ran different scenario families
/// breaks the merged report down per family, in text and in JSON.
#[test]
fn shard_merge_reports_every_family() {
    let dir = scratch("family-merge");
    for (shard, seed, family) in [("0", "3", "zenbleed"), ("1", "9", "double-fetch")] {
        let snap = format!("shard{shard}.snap");
        let args = [
            "--backend",
            "netlist:small",
            "--iters",
            "32",
            "--seed",
            seed,
        ];
        let scenario = ["--shard", shard, "--scenarios", family, "--snapshot", &snap];
        report(&dir, &[&args[..], &scenario].concat());
    }
    let (code, stdout, stderr) = merge(&dir, &["shard0.snap", "shard1.snap"]);
    assert_eq!(code, Some(0), "stderr: {stderr}");
    let families = stdout
        .split_once("\nfamilies:\n")
        .and_then(|(_, rest)| rest.split("\n\n").next())
        .unwrap_or_else(|| panic!("no families: section in {stdout}"));
    for family in ["zenbleed", "double-fetch"] {
        assert!(families.contains(family), "{family} missing: {stdout}");
    }
    let (code, json, stderr) = merge(&dir, &["--json", "shard0.snap", "shard1.snap"]);
    assert_eq!(code, Some(0), "stderr: {stderr}");
    assert!(json.contains("\"families\":["), "{json}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A truncated snapshot is a structured decode error, exit 2, for both
/// `dejavuzz-merge` and `--resume`; so are a malformed `--iters` and a
/// `--snapshot` with its value missing.
#[test]
fn truncated_snapshots_and_malformed_flags_exit_two() {
    let dir = scratch("truncated");
    report(&dir, &["--iters", "2", "--snapshot", "full.snap"]);
    let full = std::fs::read(dir.join("full.snap")).unwrap();
    std::fs::write(dir.join("truncated.snap"), &full[..100]).unwrap();
    let (merge_code, _, merge_err) = merge(&dir, &["truncated.snap"]);
    let truncated = dir.join("truncated.snap");
    let resume = fuzz(&["--resume", truncated.to_str().unwrap(), "--iters", "2"]);
    for (bin, code, stderr, context) in [
        ("merge", merge_code, merge_err, "cannot load truncated.snap"),
        ("resume", resume.0, resume.2, "cannot resume from "),
    ] {
        assert_eq!(code, Some(2), "{bin}: {stderr}");
        assert!(
            stderr.contains(context) && stderr.contains("decode failed: unexpected end of input"),
            "{bin}: {stderr}"
        );
        assert!(!stderr.contains("panicked"), "{bin}: {stderr}");
    }
    let (code, _, stderr) = fuzz(&["--iters", "notanumber"]);
    assert_eq!(code, Some(2));
    assert!(
        stderr.contains("invalid value \"notanumber\" for --iters"),
        "stderr: {stderr}"
    );
    let (code, _, stderr) = fuzz(&["--snapshot", "--halt-after", "5"]);
    assert_eq!(code, Some(2));
    assert!(
        stderr.contains("--snapshot requires a value"),
        "stderr: {stderr}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// `--telemetry json` prints the same bytes run over run, one valid JSON
/// object per line.
#[test]
fn json_telemetry_is_deterministic_and_valid() {
    let args = [
        "--iters",
        "10",
        "--workers",
        "2",
        "--seed",
        "5",
        "--telemetry",
        "json",
    ];
    let (code, a, stderr) = fuzz(&args);
    assert_eq!(code, Some(0), "stderr: {stderr}");
    assert_eq!(a, fuzz(&args).1, "telemetry bytes are deterministic");
    assert!(!a.is_empty(), "telemetry must not be empty");
    for line in a.lines() {
        assert!(
            line.starts_with('{') && json_value(line).is_some_and(|rest| rest.is_empty()),
            "not one JSON object: {line}"
        );
    }
}

/// The JSON check above accepts what the telemetry prints and refuses
/// what a broken serialiser could.
#[test]
fn json_check_refuses_malformed_objects() {
    let one = |s| json_value(s).is_some_and(str::is_empty);
    assert!(one(r#"{"a":[1,-2.5e3,true,null],"b":{"c":"\u00e9\n"}}"#));
    for bad in [
        r#"{"a":}"#,
        r#"{"a":1,}"#,
        r#"{"a" 1}"#,
        r#"{"a":01}"#,
        r#"{"a":NaN}"#,
        r#"{"a":"\x"}"#,
        r#"{"a":"unterminated}"#,
        r#"{"a":1}}"#,
    ] {
        assert!(!one(bad), "{bad}");
    }
}

/// Periodic checkpoints rotate into numbered siblings pruned to
/// `--snapshot-keep`, and the oldest kept one resumes.
#[test]
fn snapshot_rotation_keeps_two_resumable_checkpoints() {
    let dir = scratch("rotation");
    report(
        &dir,
        &[
            "--iters",
            "16",
            "--workers",
            "2",
            "--seed",
            "3",
            "--snapshot",
            "rot.snap",
            "--snapshot-every",
            "1",
            "--snapshot-keep",
            "2",
        ],
    );
    let mut rotated: Vec<u64> = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(|e| {
            let name = e.unwrap().file_name().into_string().unwrap();
            name.strip_prefix("rot.snap.")?.parse().ok()
        })
        .collect();
    rotated.sort_unstable();
    assert_eq!(rotated.len(), 2, "pruned to the keep budget: {rotated:?}");
    let oldest = format!("rot.snap.{}", rotated[0]);
    report(&dir, &["--resume", &oldest, "--iters", "16"]);
    let _ = std::fs::remove_dir_all(&dir);
}

/// `--pipeline-lag 0` is plain work stealing: identical reports.
#[test]
fn lag_zero_report_equals_plain_steal() {
    let dir = std::env::temp_dir();
    let args = [
        "--iters",
        "12",
        "--workers",
        "3",
        "--seed",
        "5",
        "--scheduler",
        "steal",
    ];
    let mut lag0 = args.to_vec();
    lag0.extend(["--pipeline-lag", "0"]);
    assert_eq!(report(&dir, &args), report(&dir, &lag0));
}

/// Pipelined runs print identical reports run over run, and every lag
/// from 1 up agrees.
#[test]
fn pipelined_report_is_deterministic_across_lags() {
    let dir = std::env::temp_dir();
    let run = |lag| {
        report(
            &dir,
            &[
                "--iters",
                "12",
                "--workers",
                "4",
                "--seed",
                "9",
                "--scheduler",
                "steal",
                "--pipeline-lag",
                lag,
            ],
        )
    };
    let a = run("1");
    assert_eq!(a, run("1"), "two runs at lag 1");
    assert_eq!(a, run("4096"), "lag 1 against lag 4096");
}

/// A halted pipelined campaign, snapshotted with its pending round,
/// resumes to the uninterrupted report.
#[test]
fn pipelined_resume_report_equals_uninterrupted_run() {
    assert_resume_matches_uninterrupted(
        "pipelined-resume",
        &[
            "--workers",
            "2",
            "--seed",
            "7",
            "--scheduler",
            "steal",
            "--pipeline-lag",
            "1",
        ],
    );
}

/// A malformed proc backend spec is an exit-2 error naming the spec and
/// the expected shape.
#[test]
fn malformed_proc_spec_exits_two_naming_the_spec() {
    let (code, _, stderr) = fuzz(&["--backend", "proc:bogus", "--iters", "1"]);
    assert_eq!(code, Some(2));
    assert!(
        stderr.contains("unknown proc backend \"proc:bogus\" (expected proc:<inner>:<M>"),
        "stderr names the spec and shape: {stderr}"
    );
}

/// A zero-size pool is refused at parse time with a pinned message.
#[test]
fn zero_proc_pool_exits_two() {
    let (code, _, stderr) = fuzz(&["--backend", "proc:netlist:boom:0", "--iters", "1"]);
    assert_eq!(code, Some(2));
    assert!(
        stderr.contains("proc pool size must be >= 1 in \"proc:netlist:boom:0\""),
        "stderr: {stderr}"
    );
}

/// A missing worker binary is the builder's structured `ProcPool` error
/// (exit 2 naming the backend spec and the attempted path), reported at
/// build time — before any campaign work.
#[test]
fn missing_worker_binary_exits_two_with_the_builder_error() {
    let out = Command::new(env!("CARGO_BIN_EXE_dejavuzz-fuzz"))
        .args(["--backend", "proc:netlist:small:2", "--iters", "1"])
        .env("DEJAVUZZ_SIMD_BIN", "/nonexistent/dejavuzz-simd")
        .output()
        .expect("spawn dejavuzz-fuzz");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2));
    assert!(
        stderr.contains("cannot start worker pool for backend \"proc:netlist:small:2\"")
            && stderr.contains("/nonexistent/dejavuzz-simd"),
        "stderr names spec and path: {stderr}"
    );
}

/// The happy path: a pool-of-1 proc campaign produces the same stdout as
/// the in-process backend it wraps, except for the backend label in the
/// banner. The strongest CLI-level statement of the determinism
/// contract, pinned cheaply here (CI diffs bigger runs).
#[test]
fn proc_pool_of_one_matches_in_process_stdout() {
    let worker = env!("CARGO_BIN_EXE_dejavuzz-simd");
    let run = |backend: &str| {
        let out = Command::new(env!("CARGO_BIN_EXE_dejavuzz-fuzz"))
            .args(["--backend", backend, "--iters", "3", "--seed", "11"])
            .env("DEJAVUZZ_SIMD_BIN", worker)
            .output()
            .expect("spawn dejavuzz-fuzz");
        assert_eq!(out.status.code(), Some(0), "{backend} failed");
        String::from_utf8_lossy(&out.stdout)
            .lines()
            .filter(|l| {
                !l.starts_with("fuzzing ") && !l.contains("elapsed") && !l.contains("throughput")
            })
            .collect::<Vec<_>>()
            .join("\n")
    };
    assert_eq!(run("netlist:small"), run("proc:netlist:small:1"));
}

/// A malformed `--pipeline-lag` value is an exit-2 error naming both the
/// value and the flag — not a silent run with lag 0.
#[test]
fn malformed_pipeline_lag_exits_two_naming_the_flag() {
    let (code, _, stderr) = fuzz(&["--pipeline-lag", "abc"]);
    assert_eq!(code, Some(2));
    assert!(
        stderr.contains("invalid value \"abc\" for --pipeline-lag"),
        "stderr names value and flag: {stderr}"
    );
}

/// `--pipeline-lag` followed by another flag is a missing value, not a
/// value.
#[test]
fn pipeline_lag_requires_a_value() {
    let (code, _, stderr) = fuzz(&["--pipeline-lag", "--iters", "1"]);
    assert_eq!(code, Some(2));
    assert!(
        stderr.contains("--pipeline-lag requires a value"),
        "stderr: {stderr}"
    );
}

/// `round` is no longer a scheduler: it is the ordinary exit-2 parse
/// error naming the accepted spellings.
#[test]
fn round_scheduler_is_a_parse_error() {
    let (code, _, stderr) = fuzz(&["--scheduler", "round", "--iters", "1"]);
    assert_eq!(code, Some(2));
    assert!(
        stderr.contains("unknown scheduler \"round\" (expected steal)"),
        "stderr: {stderr}"
    );
}

/// No scheduler, seed policy or backend is spelled `ext:<id>`: each such
/// value is a parse error naming it, reported before any campaign is
/// built.
#[test]
fn extension_spellings_exit_two_naming_the_value() {
    for (flag, value, message) in [
        (
            "--scheduler",
            "ext:x",
            "unknown scheduler \"ext:x\" (expected steal)",
        ),
        (
            "--policy",
            "ext:x",
            "unknown seed policy \"ext:x\" (expected energy|favoured)",
        ),
        ("--backend", "ext:x", "unknown backend \"ext:x\""),
        ("--backend", "proc:ext:x:2", "unknown backend \"ext:x\""),
    ] {
        let (code, stdout, stderr) = fuzz(&[flag, value, "--iters", "1"]);
        assert_eq!(code, Some(2), "{flag} {value}: {stderr}");
        assert!(stdout.is_empty(), "{flag} {value}: {stdout}");
        assert!(
            stderr.starts_with(&format!("dejavuzz-fuzz: {message}")),
            "{flag} {value}: {stderr}"
        );
    }
}

/// Zero workers is the builder's `ZeroWorkers` error, never a silent
/// single worker, and a budget whose `--iters` x `--workers` overflows
/// exits 2 naming both flags instead of running a wrapped count.
#[test]
fn zero_workers_and_an_overflowing_budget_exit_two() {
    let (code, stdout, stderr) = fuzz(&["--workers", "0", "--iters", "1"]);
    assert_eq!(code, Some(2), "{stderr}");
    assert!(stdout.is_empty(), "{stdout}");
    assert!(
        stderr.starts_with("dejavuzz-fuzz: workers must be at least 1\n"),
        "{stderr}"
    );

    let (code, stdout, stderr) = fuzz(&["--iters", "9223372036854775808", "--workers", "2"]);
    assert_eq!(code, Some(2), "{stderr}");
    assert!(stdout.is_empty(), "{stdout}");
    assert!(
        stderr.starts_with(
            "dejavuzz-fuzz: --iters 9223372036854775808 x --workers 2 overflows the \
             iteration count\n"
        ),
        "{stderr}"
    );
}

/// A snapshot of an older format version is refused by `--resume` and by
/// `dejavuzz-merge` with exit 2 and the version named, never a panic.
#[test]
fn old_snapshot_versions_exit_two_naming_the_version() {
    let dir = scratch("old-version");
    report(&dir, &["--iters", "2", "--snapshot", "new.snap"]);
    let current = std::fs::read(dir.join("new.snap")).unwrap();
    let payload = &current[dejavuzz_persist::HEADER_LEN..];
    let old = dejavuzz_persist::seal(dejavuzz::snapshot::SNAPSHOT_MAGIC, 6, payload);
    let path = dir.join("v6.snap");
    std::fs::write(&path, old).unwrap();
    let path = path.to_str().unwrap();
    let merged = merge(&dir, &[path]);
    let resume = fuzz(&["--resume", path, "--iters", "2"]);
    for (bin, code, stderr) in [
        ("merge", merged.0, merged.2),
        ("resume", resume.0, resume.2),
    ] {
        assert_eq!(code, Some(2), "{bin}: {stderr}");
        assert!(
            stderr.contains("unsupported snapshot version 6 (this build reads version 7)"),
            "{bin}: {stderr}"
        );
        assert!(!stderr.contains("panicked"), "{bin}: {stderr}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Every argument `main` does not read exits 2 before anything runs:
/// the removed `--peers`, `--gossip-every` and `--threads` flags, a
/// misspelt flag and a stray word each name themselves on stderr and
/// print nothing on stdout, so a typo never runs the defaults.
#[test]
fn unknown_flags_and_stray_arguments_exit_two_naming_the_token() {
    for (args, token, why) in [
        (&["--peers", "unix:/x"][..], "--peers", "unknown flag"),
        (&["--gossip-every", "1"], "--gossip-every", "unknown flag"),
        (&["--threads", "2"], "--threads", "unknown flag"),
        (&["--iterz", "3", "--iters", "2"], "--iterz", "unknown flag"),
        (&["--iters", "2", "stray"], "stray", "unexpected argument"),
    ] {
        let (code, stdout, stderr) = fuzz(args);
        assert_eq!(code, Some(2), "{args:?}: {stderr}");
        assert!(
            stderr.contains(&format!("{why} \"{token}\"")),
            "{args:?}: {stderr}"
        );
        assert!(stdout.is_empty(), "{args:?}: {stdout}");
    }
}

/// A flag given twice exits 2 naming it, with or without a value: an
/// override appended to a base command must never run the base value.
#[test]
fn repeated_flags_exit_two_naming_the_flag() {
    for (args, flag) in [
        (&["--iters", "1", "--iters", "3"][..], "--iters"),
        (&["--seed", "1", "--iters", "2", "--seed", "2"], "--seed"),
        (&["--snapshot", "--snapshot", "a.snap"], "--snapshot"),
        (
            &["--list-extensions", "--list-extensions"],
            "--list-extensions",
        ),
    ] {
        let (code, stdout, stderr) = fuzz(args);
        assert_eq!(code, Some(2), "{args:?}: {stderr}");
        assert!(
            stderr.contains(&format!("repeated flag \"{flag}\"")),
            "{args:?}: {stderr}"
        );
        assert!(stdout.is_empty(), "{args:?}: {stdout}");
    }
}

/// A checkpoint cadence without `--snapshot` exits 2 naming the flag,
/// on a fresh campaign and on a resumed one alike, and writes nothing:
/// it never runs on without the checkpoints it asks for.
#[test]
fn snapshot_cadence_without_a_path_exits_two_naming_the_flag() {
    let dir = scratch("cadence");
    report(&dir, &["--iters", "2", "--snapshot", "camp.snap"]);
    for (args, flag) in [
        (
            &["--iters", "2", "--snapshot-every", "1"][..],
            "--snapshot-every",
        ),
        (&["--snapshot-keep", "2", "--iters", "2"], "--snapshot-keep"),
        (
            &[
                "--resume",
                "camp.snap",
                "--iters",
                "4",
                "--snapshot-every",
                "1",
            ],
            "--snapshot-every",
        ),
        (
            &[
                "--snapshot-keep",
                "1",
                "--resume",
                "camp.snap",
                "--iters",
                "4",
            ],
            "--snapshot-keep",
        ),
    ] {
        let (code, stdout, stderr) = fuzz_in(&dir, args);
        assert_eq!(code, Some(2), "{args:?}: {stderr}");
        assert!(
            stderr.contains(&format!("{flag} requires --snapshot PATH")),
            "{args:?}: {stderr}"
        );
        assert!(stdout.is_empty(), "{args:?}: {stdout}");
    }
    let mut files: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name())
        .collect();
    files.sort();
    assert_eq!(files, ["camp.snap"]);
    let _ = std::fs::remove_dir_all(&dir);
}

/// `--metrics-out` followed by another flag is a missing value, not a
/// value: the dump must never land in a file literally named "--iters".
#[test]
fn metrics_out_requires_a_value() {
    let (code, _, stderr) = fuzz(&["--metrics-out", "--iters", "1"]);
    assert_eq!(code, Some(2));
    assert!(
        stderr.contains("--metrics-out requires a value"),
        "stderr: {stderr}"
    );
}

/// `--metrics-out` writes a JSON metrics dump at campaign end without
/// perturbing campaign output: stdout is byte-identical to a run
/// without the flag, the dump announces itself on stderr only, and the
/// file holds exactly the registry's three top-level sections, with one
/// committed iteration and one timed slot per slot.
#[test]
fn metrics_out_writes_json_and_leaves_stdout_untouched() {
    let dir = scratch("metrics");
    let path = dir.join("metrics.json");
    let args = ["--iters", "10", "--workers", "2", "--telemetry", "json"];
    let plain = fuzz(&args);
    let dumped = fuzz(&[&args[..], &["--metrics-out", path.to_str().unwrap()]].concat());
    assert_eq!(plain.0, Some(0));
    assert_eq!(dumped.0, Some(0), "stderr: {}", dumped.2);
    assert_eq!(
        plain.1, dumped.1,
        "stdout is byte-identical with and without --metrics-out"
    );
    assert!(
        dumped.2.contains("metrics written to"),
        "stderr: {}",
        dumped.2
    );
    let json = std::fs::read_to_string(&path).unwrap();
    let doc = json_members(&json).unwrap_or_else(|| panic!("one JSON object: {json}"));
    let sections: Vec<&str> = doc.iter().map(|(k, _)| *k).collect();
    assert_eq!(
        sections,
        ["counters", "gauges", "histograms"],
        "dump: {json}"
    );
    let section = |name| json_members(member(&doc, name).unwrap()).unwrap();
    assert_eq!(
        member(&section("counters"), "dejavuzz_iterations_total"),
        Some("20"),
        "10 iters x 2 workers = 20 committed slots recorded: {json}"
    );
    let slot_run = member(&section("histograms"), "dejavuzz_slot_run_nanos")
        .and_then(json_members)
        .unwrap_or_else(|| panic!("a slot-run histogram: {json}"));
    assert_eq!(member(&slot_run, "count"), Some("20"), "dump: {json}");
    assert!(json.ends_with("}\n"), "newline-terminated object");
    let _ = std::fs::remove_dir_all(&dir);
}

/// The supported combination actually runs: steal + lag completes a tiny
/// campaign and announces the lag on stderr (stdout stays report-only).
#[test]
fn pipelined_steal_campaign_runs() {
    let (code, stdout, stderr) = fuzz(&[
        "--scheduler",
        "steal",
        "--pipeline-lag",
        "1",
        "--iters",
        "2",
        "--workers",
        "2",
    ]);
    assert_eq!(code, Some(0), "stderr: {stderr}");
    assert!(stdout.contains("fuzzing"), "the campaign report ran");
    assert!(
        stderr.contains("scheduler steal, seed policy energy, pipeline lag 1"),
        "stderr: {stderr}"
    );
}

/// An unknown scenario family is an exit-2 error naming the offending
/// spec and the family, before any campaign work.
#[test]
fn unknown_scenario_family_exits_two_naming_the_family() {
    let (code, _, stderr) = fuzz(&["--scenarios", "ghost", "--iters", "1"]);
    assert_eq!(code, Some(2));
    assert!(
        stderr.contains(
            "dejavuzz-fuzz: invalid scenario spec \"ghost\": unknown scenario family \"ghost\""
        ),
        "stderr names the family: {stderr}"
    );
}

/// A malformed scenario parameter is an exit-2 error naming the item,
/// the family and the expected shape; an out-of-range one names the
/// range.
#[test]
fn malformed_scenario_param_exits_two_naming_the_item() {
    let (code, _, stderr) = fuzz(&["--scenarios", "zenbleed:zero_idiom=x", "--iters", "1"]);
    assert_eq!(code, Some(2));
    assert!(
        stderr.contains(
            "invalid scenario spec \"zenbleed:zero_idiom=x\": malformed parameter \
             \"zero_idiom=x\" for scenario family \"zenbleed\" (expected name=integer)"
        ),
        "stderr: {stderr}"
    );
    let (code, _, stderr) = fuzz(&["--scenarios", "zenbleed:zero_idiom=9", "--iters", "1"]);
    assert_eq!(code, Some(2));
    assert!(
        stderr.contains("must be in [0, 2], got 9"),
        "stderr: {stderr}"
    );
}

/// An empty scenario list (empty string, or only separators) is refused:
/// "no scenarios" is spelled by omitting the flag, never by passing it
/// an empty value.
#[test]
fn empty_scenario_list_exits_two() {
    for value in ["", ",", " , "] {
        let (code, _, stderr) = fuzz(&["--scenarios", value, "--iters", "1"]);
        assert_eq!(code, Some(2), "--scenarios {value:?}");
        assert!(
            stderr.contains("dejavuzz-fuzz: --scenarios requires at least one scenario family"),
            "stderr for {value:?}: {stderr}"
        );
    }
}

/// `--scenarios` as the last argument is a missing-value error.
#[test]
fn scenarios_flag_requires_a_value() {
    let (code, _, stderr) = fuzz(&["--iters", "1", "--scenarios"]);
    assert_eq!(code, Some(2));
    assert!(
        stderr.contains("dejavuzz-fuzz: --scenarios requires a value"),
        "stderr: {stderr}"
    );
}

/// The scenario note is stderr chatter: enabling scenarios never leaks
/// configuration lines into the stdout report stream.
#[test]
fn scenario_note_goes_to_stderr_not_stdout() {
    let (code, stdout, stderr) = fuzz(&["--scenarios", "zenbleed", "--iters", "2", "--seed", "5"]);
    assert_eq!(code, Some(0));
    assert!(
        stderr.contains("dejavuzz-fuzz: scenarios zenbleed"),
        "stderr carries the note: {stderr}"
    );
    assert!(
        !stdout.contains("dejavuzz-fuzz: scenarios"),
        "stdout stays a pure report: {stdout}"
    );
}

/// `--list-extensions` output is pinned verbatim: scripts parse it, and
/// the shipped scenario templates (with their parameter spaces) are part
/// of the surface.
#[test]
fn list_extensions_output_is_pinned() {
    let (code, stdout, _) = fuzz(&["--list-extensions"]);
    assert_eq!(code, Some(0));
    let expected = "\
schedulers:
  steal
seed policies:
  energy
  favoured
backends:
  behavioural
  netlist:small
  netlist:boom
  netlist:xiangshan
  proc:<inner>:<M>
scenarios:
  double-fetch \u{2014} double-fetch TOCTOU window over the memory-disambiguation squash (gap=2 in [0, 8])
  nested-spec \u{2014} nested-speculation depth stress: depth data-dependent branches in-window (depth=3 in [1, 8])
  sibling-leak \u{2014} sibling-unit contention sweep (div/mul/fpu) with secret-dependent bursts (unit=0 in [0, 2], bursts=2 in [1, 4])
  zenbleed \u{2014} move-elimination / register-file stale-data leak (Zenbleed-shaped) (zero_idiom=0 in [0, 2])
";
    assert_eq!(stdout, expected);
}
