//! CLI hardening tests: malformed input to `bglsim` and `repro` must
//! produce a one-line stderr message and exit status 2 — never a panic
//! (which would exit 101 with a backtrace).

use serde_json::Value;
use std::process::Command;

/// A JSON number off the value tree: `0.0` is written `0` and reads back
/// as an integer, so both spellings count.
fn num(v: &Value) -> f64 {
    match v {
        Value::U64(n) => *n as f64,
        Value::F64(x) => *x,
        other => panic!("expected a number, got {other:?}"),
    }
}

/// The `u64` array at `obj.field`.
fn u64s(obj: &Value, field: &str) -> Vec<u64> {
    let items = obj.get(field).and_then(Value::as_array);
    let items = items.unwrap_or_else(|| panic!("{field} is an array in {obj:?}"));
    items.iter().map(|v| num(v) as u64).collect()
}

fn run(bin: &str, args: &[&str]) -> (Option<i32>, String, String) {
    let out = Command::new(bin)
        .args(args)
        .output()
        .expect("spawn CLI binary");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

/// The failure contract: exit 2 (not a 101 panic), exactly one line on
/// stderr, and that line mentions the offending input.
fn assert_clean_failure(bin: &str, args: &[&str], needle: &str) {
    let (code, _stdout, stderr) = run(bin, args);
    assert_eq!(
        code,
        Some(2),
        "{bin} {args:?} should exit 2, stderr: {stderr}"
    );
    assert_eq!(
        stderr.trim_end().lines().count(),
        1,
        "{bin} {args:?} stderr: {stderr:?}"
    );
    assert!(
        stderr.contains(needle),
        "{bin} {args:?} stderr {stderr:?} lacks {needle:?}"
    );
    assert!(
        !stderr.contains("panicked"),
        "{bin} {args:?} panicked: {stderr}"
    );
}

#[test]
fn bglsim_rejects_malformed_input() {
    let bin = env!("CARGO_BIN_EXE_bglsim");
    assert_clean_failure(bin, &["sweep", "--shape", "8xbogus"], "invalid shape");
    assert_clean_failure(bin, &["sweep", "--sizes", "12,notanumber"], "numeric bytes");
    // Sizes are 1..=u32::MAX bytes: u64::MAX used to wrap into a one-packet
    // message, and zero has a zero peak.
    let bound = "1..=4294967295 bytes";
    for size in ["18446744073709551615", "0"] {
        assert_clean_failure(bin, &["sweep", "--sizes", size], bound);
        assert_clean_failure(bin, &["pattern", "--m", size], bound);
        assert_clean_failure(bin, &["profile", "--m", size], bound);
    }
    assert_clean_failure(bin, &["sweep", "--strategies", "warp"], "unknown strategy");
    for none in ["1.5", "0", "-0.0"] {
        assert_clean_failure(bin, &["sweep", "--coverage", none], "in (0, 1]");
    }
    assert_clean_failure(bin, &["sweep", "--jobs", "0"], "positive integer");
    assert_clean_failure(bin, &["sweep", "--jobs", "zero"], "positive integer");
    assert_clean_failure(bin, &["sweep", "--frobnicate"], "unknown flag");
    assert_clean_failure(bin, &["sweep", "--shape"], "needs a value");
    assert_clean_failure(bin, &["sweep", "--shape", "--csv"], "needs a value");
    assert_clean_failure(bin, &["sweep", "stray"], "unexpected argument");
    assert_clean_failure(bin, &["sweep", "--csv", "--json"], "conflict");
    assert_clean_failure(bin, &["pattern", "--pattern", "plane:w"], "plane:x|y|z");
    let plane_4d = ["pattern", "--shape", "4x4x2x2", "--pattern", "plane:d4"];
    assert_clean_failure(bin, &plane_4d, "plane:x|y|z|d3 on 4x4x2x2");
    assert_clean_failure(bin, &["pattern", "--pattern", "swirl:3"], "unknown pattern");
    assert_clean_failure(bin, &["pattern", "--m", "many"], "numeric bytes");
    // A pattern that pairs nobody is an error that says why, not a
    // "0 cycles, 0.0 %" report.
    for (pattern, why) in [
        ("transpose:7", "do not divide the 64 nodes"),
        ("transpose:0", "do not divide the 64 nodes"),
        ("shift:0", "multiple of the 64 nodes"),
        ("random:0", "degree 0"),
    ] {
        assert_clean_failure(bin, &["pattern", "--pattern", pattern], why);
    }
    // One node has nobody to exchange with, whatever the subcommand; the
    // error names what needed a peer.
    let one_node = ["--shape", "1x1x1"];
    for (cmd, what) in [
        (
            &["sweep", "--strategies", "ar", "--sizes", "64"][..],
            "an all-to-all",
        ),
        (&["profile"], "an all-to-all"),
        (&["fit"], "a ping-pong fit"),
    ] {
        let needle = format!("{what} needs at least two nodes");
        assert_clean_failure(bin, &[cmd, &one_node].concat(), &needle);
    }
    assert_clean_failure(
        bin,
        &[&["pattern", "--pattern", "a2a"], &one_node[..]].concat(),
        "no peer",
    );
}

#[test]
fn bglsim_rejects_malformed_pacer_flags() {
    let bin = env!("CARGO_BIN_EXE_bglsim");
    let sweep = |extra: &[&'static str]| -> Vec<&'static str> {
        let mut args = vec![
            "sweep",
            "--shape",
            "4x4",
            "--strategies",
            "ar",
            "--sizes",
            "64",
        ];
        args.extend_from_slice(extra);
        args
    };
    assert_clean_failure(bin, &sweep(&["--pacer", "warp"]), "must be none, rate:");
    assert_clean_failure(bin, &sweep(&["--pacer", "rate:fast"]), "positive factor");
    assert_clean_failure(bin, &sweep(&["--pacer", "rate:-1"]), "positive factor");
    assert_clean_failure(bin, &sweep(&["--pacer", "rate:0"]), "positive factor");
    assert_clean_failure(bin, &sweep(&["--pacer", "credit:8"]), "<window>,<every>");
    assert_clean_failure(bin, &sweep(&["--pacer", "credit:0,1"]), "positive integer");
    assert_clean_failure(
        bin,
        &sweep(&["--pacer", "credit:4,zero"]),
        "positive integer",
    );
    assert_clean_failure(
        bin,
        &sweep(&["--pacer", "credit:2,5"]),
        "must not exceed the window",
    );
    // `credit:W,E` has one spelling: the old shorthand flag is unknown.
    assert_clean_failure(bin, &sweep(&["--credit", "4,2"]), "unknown flag");
    assert_clean_failure(bin, &sweep(&["--pacer"]), "needs a value");
    // Pacing `auto` is meaningless: the resolved strategy picks its own.
    let mut auto_args = vec![
        "sweep",
        "--shape",
        "4x4",
        "--strategies",
        "auto",
        "--sizes",
        "64",
    ];
    auto_args.extend_from_slice(&["--pacer", "rate:1.0"]);
    assert_clean_failure(bin, &auto_args, "auto");
}

#[test]
fn bglsim_pacer_happy_paths() {
    let bin = env!("CARGO_BIN_EXE_bglsim");
    for pacer in ["none", "rate:1.0", "credit:4,2"] {
        let (code, stdout, stderr) = run(
            bin,
            &[
                "sweep",
                "--shape",
                "4x4",
                "--strategies",
                "tps",
                "--sizes",
                "64",
                "--pacer",
                pacer,
            ],
        );
        assert_eq!(code, Some(0), "--pacer {pacer} failed: {stderr}");
        assert!(stdout.contains("TPS"), "--pacer {pacer}: {stdout}");
    }
}

/// `sweep --json` carries the per-dimension link and hop counters that a
/// per-dimension utilization is derived from: one entry per dimension of
/// the shape, every dimension of a full all-to-all used.
#[test]
fn bglsim_sweep_json_carries_per_dimension_counters() {
    let bin = env!("CARGO_BIN_EXE_bglsim");
    let (code, json, stderr) = run(
        bin,
        &[
            "sweep",
            "--shape",
            "4x4x2",
            "--strategies",
            "ar",
            "--sizes",
            "240",
            "--json",
        ],
    );
    assert_eq!(code, Some(0), "stderr: {stderr}");
    let reports: Vec<Value> = serde_json::from_str(&json).expect("parses");
    assert_eq!(reports.len(), 1);
    let stats = reports[0].get("stats").expect("stats present");
    let part: bgl_torus::Partition = "4x4x2".parse().unwrap();
    let busy = u64s(stats, "link_busy_chunks");
    for counters in [&busy, &u64s(stats, "hops_taken")] {
        assert_eq!(counters.len(), part.ndims(), "{counters:?}");
        assert!(counters.iter().all(|&n| n > 0), "{counters:?}");
    }
    let cycles = num(stats
        .get("completion_cycle")
        .expect("completion_cycle present"));
    for dim in part.dims() {
        let u = busy[dim.index()] as f64 / (part.directed_links(dim) as f64 * cycles);
        assert!(u > 0.0 && u <= 1.0, "{dim} utilization {u}");
    }
}

/// A sweep whose every point stalls: a rate pacer so slow the second
/// packet of each node waits past the watchdog.
const STALLING_SWEEP: [&str; 9] = [
    "sweep",
    "--shape",
    "4x4x4",
    "--strategies",
    "ar,dr",
    "--sizes",
    "240",
    "--pacer",
    "rate:1e-6",
];

/// A failed point is not a failed sweep (exit 0, as in text mode), and a
/// machine-readable stdout never carries it: stderr names each one.
fn assert_stalls_on_stderr(stderr: &str) {
    let lines: Vec<&str> = stderr.lines().collect();
    assert_eq!(lines.len(), 2, "one line per failed point: {stderr}");
    for (line, strategy) in lines.iter().zip(["AR-throttled", "DR"]) {
        let head = format!("bglsim: {strategy} m=240: simulation stalled at cycle");
        assert!(line.starts_with(&head), "{line:?} lacks {head:?}");
    }
}

#[test]
fn bglsim_sweep_csv_sends_failed_points_to_stderr() {
    let bin = env!("CARGO_BIN_EXE_bglsim");
    let (code, csv, stderr) = run(bin, &[&STALLING_SWEEP[..], &["--csv"]].concat());
    assert_eq!(code, Some(0), "stderr: {stderr}");
    let mut lines = csv.lines();
    let columns = lines.next().expect("a header").split(',').count();
    for line in lines {
        assert_eq!(line.split(',').count(), columns, "{line:?} in {csv}");
    }
    assert_eq!(csv.lines().count(), 1, "no point completed: {csv}");
    assert_stalls_on_stderr(&stderr);
}

#[test]
fn bglsim_sweep_json_sends_failed_points_to_stderr() {
    let bin = env!("CARGO_BIN_EXE_bglsim");
    let (code, json, stderr) = run(bin, &[&STALLING_SWEEP[..], &["--json"]].concat());
    assert_eq!(code, Some(0), "stderr: {stderr}");
    let reports: Vec<Value> = serde_json::from_str(&json).expect("parses");
    assert!(reports.is_empty(), "{json}");
    assert_stalls_on_stderr(&stderr);
}

/// Every malformed `--fault` spec obeys the one-line exit-2 contract:
/// bad grammar, bad direction, out-of-range coordinate or rank, a
/// mesh-edge link, a duplicate, and an inverted schedule window.
#[test]
fn bglsim_rejects_malformed_fault_specs() {
    let bin = env!("CARGO_BIN_EXE_bglsim");
    let sweep = |shape: &'static str, fault: &'static str| -> Vec<&'static str> {
        vec![
            "sweep",
            "--shape",
            shape,
            "--strategies",
            "ar",
            "--sizes",
            "64",
            "--fault",
            fault,
        ]
    };
    assert_clean_failure(bin, &sweep("4x4x4", "x+"), "link:X,Y,Z,DIR");
    assert_clean_failure(bin, &sweep("4x4x4", "link:"), "4 fields");
    assert_clean_failure(bin, &sweep("4x4x4", "link:0,0,0"), "4 fields");
    // One coordinate per dimension of the shape, no more and no fewer.
    assert_clean_failure(bin, &sweep("8x8", "link:0,0,0,x+"), "2-dimensional 8x8");
    assert_clean_failure(bin, &sweep("4x4x4x4", "link:0,0,0,x+"), "X,Y,Z,D3,DIR");
    assert_clean_failure(bin, &sweep("8x8", "link:0,0,z+"), "x+|x-|y+|y-,");
    assert_clean_failure(bin, &sweep("4x4x4", "link:0,0,0,é"), "x+|x-|y+|y-|z+|z-");
    assert_clean_failure(bin, &sweep("4x4x4", "link:0,0,zero,x+"), "numeric");
    assert_clean_failure(bin, &sweep("4x4x4", "link:9,0,0,x+"), "outside partition");
    assert_clean_failure(bin, &sweep("4x4x4", "link:0,0,0,w+"), "x+|x-|y+|y-|z+|z-");
    assert_clean_failure(bin, &sweep("4x4x4", "link:0,0,0,x"), "x+|x-|y+|y-|z+|z-");
    assert_clean_failure(bin, &sweep("4x4x4", "node:999"), "out of range");
    assert_clean_failure(bin, &sweep("4x4x4", "node:five"), "numeric");
    assert_clean_failure(bin, &sweep("4x4x4", "node:5:@900-100"), "not after fail");
    assert_clean_failure(bin, &sweep("4x4x4", "node:5:@soon"), "numeric");
    assert_clean_failure(bin, &sweep("4x4x4", "node:5:100"), "@FAIL");
    assert_clean_failure(bin, &sweep("4x4x4", "disk:3"), "link or node");
    assert_clean_failure(
        bin,
        &sweep("4x4x4", "link:0,0,0,x+;link:0,0,0,x+"),
        "duplicate fault",
    );
    // The mesh dimension of 8x8x4M has no wrap link at its edge.
    assert_clean_failure(bin, &sweep("8x8x4M", "link:0,0,3,z+"), "mesh edge");
    assert_clean_failure(bin, &sweep("4x4x4", ""), "got \"\"");
    // Repeated flags accumulate, so a duplicate across two --fault
    // occurrences is caught exactly like one within a single spec.
    let mut repeated = sweep("4x4x4", "link:0,0,0,x+");
    repeated.extend_from_slice(&["--fault", "link:0,0,0,x+"]);
    assert_clean_failure(bin, &repeated, "duplicate fault");
    // The flag only exists where a simulation runs.
    assert_clean_failure(bin, &["fit", "--fault", "node:5"], "unknown flag");
}

/// Fault injection happy paths: AR completes around a statically dead
/// link (different table than healthy), DR reports the unreachable
/// pairs, and a scheduled node outage sweeps clean.
#[test]
fn bglsim_fault_happy_paths() {
    let bin = env!("CARGO_BIN_EXE_bglsim");
    let sweep = |strategies: &'static str, extra: &[&'static str]| {
        let mut args = vec![
            "sweep",
            "--shape",
            "4x4x4",
            "--strategies",
            strategies,
            "--sizes",
            "240",
        ];
        args.extend_from_slice(extra);
        run(bin, &args)
    };
    // The human table rounds to fractions of a percent, so compare the
    // full JSON reports: the detoured traffic must move link counters.
    let (code, healthy, stderr) = sweep("ar", &["--json"]);
    assert_eq!(code, Some(0), "healthy sweep failed: {stderr}");

    let (code, ar, stderr) = sweep("ar", &["--fault", "link:0,0,0,x+", "--json"]);
    assert_eq!(code, Some(0), "faulty AR sweep failed: {stderr}");
    assert!(ar.contains("cycles"), "{ar}");
    assert_ne!(ar, healthy, "the dead link must change the run");

    let (code, dr, stderr) = sweep("dr", &["--fault", "link:0,0,0,x+"]);
    assert_eq!(code, Some(0), "DR sweep reports per-point errors: {stderr}");
    assert!(dr.contains("ERROR"), "{dr}");
    assert!(dr.contains("unreachable"), "{dr}");

    let (code, out, stderr) = sweep("ar", &["--fault", "node:5:@100-900"]);
    assert_eq!(code, Some(0), "scheduled node fault failed: {stderr}");
    assert!(out.contains("of peak"), "{out}");
}

/// Link faults follow the shape's arity: a 2-D link is named by two
/// coordinates, and on a 4-D torus a link at a non-zero fourth coordinate,
/// along the fourth dimension, can be killed — DR, which cannot route
/// around it, names it.
#[test]
fn bglsim_link_faults_follow_the_shape() {
    let bin = env!("CARGO_BIN_EXE_bglsim");
    let sweep = |shape: &'static str, strategy: &'static str, extra: &[&'static str]| {
        let mut args = vec![
            "sweep",
            "--shape",
            shape,
            "--strategies",
            strategy,
            "--sizes",
            "64",
        ];
        args.extend_from_slice(extra);
        let (code, stdout, stderr) = run(bin, &args);
        assert_eq!(code, Some(0), "{args:?} failed: {stderr}");
        stdout
    };
    // The table rounds; the JSON reports show the detoured traffic.
    let healthy = sweep("8x8", "ar", &["--json"]);
    let faulty = sweep("8x8", "ar", &["--json", "--fault", "link:0,0,x+"]);
    assert!(faulty.contains("cycles"), "{faulty}");
    assert_ne!(faulty, healthy, "the dead 2-D link must change the run");
    // Either case, either sign: the same link written `X-` from its other
    // end is a different link, and still a valid one.
    sweep("8x8", "ar", &["--fault", "link:1,0,X-"]);

    let dr = sweep("4x4x4x4", "dr", &["--fault", "link:0,0,0,1,d3+"]);
    assert!(dr.contains("unreachable"), "{dr}");
    let node = 4 * 4 * 4; // rank of (0,0,0,1): x is innermost
    assert!(dr.contains(&format!("dead link {node}:D3+")), "{dr}");
}

/// Shape arity contract across the CLIs: any arity from 2 to 6 parses
/// (a true 2-D torus and a 5-D torus both run), while 1-token shapes,
/// missing or zero sizes, and arities above `MAX_DIMS` all obey the
/// one-line exit-2 contract.
#[test]
fn shape_arity_accepted_and_rejected_consistently() {
    let bglsim = env!("CARGO_BIN_EXE_bglsim");
    let sweep = |shape: &'static str| -> Vec<&'static str> {
        vec![
            "sweep",
            "--shape",
            shape,
            "--strategies",
            "ar",
            "--sizes",
            "64",
        ]
    };
    for shape in ["32x32", "4x4x4x4x2"] {
        let (code, stdout, stderr) = run(bglsim, &sweep(shape));
        assert_eq!(code, Some(0), "--shape {shape} failed: {stderr}");
        assert!(stdout.contains("of peak"), "--shape {shape}: {stdout}");
    }
    // 1-token shapes are rejected: spell a line "8x1x1" explicitly.
    assert_clean_failure(bglsim, &sweep("8"), "expected 2..=6");
    assert_clean_failure(bglsim, &sweep("4x"), "bad size");
    assert_clean_failure(bglsim, &sweep("4x0x4"), "zero size");
    assert_clean_failure(bglsim, &sweep("2x2x2x2x2x2x2"), "expected 2..=6");
    assert_clean_failure(bglsim, &["profile", "--shape", "8"], "expected 2..=6");
    assert_clean_failure(bglsim, &["fit", "--shape", "4x0x4"], "zero size");
    // More nodes than a rank can name: rejected where the shape is
    // parsed, on every subcommand, instead of wrapping inside the engine.
    let huge = "65535x65535x65535";
    let needle = "more than 4294967295 nodes";
    assert_clean_failure(bglsim, &sweep(huge), needle);
    assert_clean_failure(
        bglsim,
        &sweep("65535x65535x65535x65535x65535x65535"),
        needle,
    );
    for sub in ["fit", "pattern", "profile"] {
        assert_clean_failure(bglsim, &[sub, "--shape", huge], needle);
    }
    // Nameable but far beyond the simulator (one program per node): capped
    // at 2^20 nodes instead of aborting on the allocation.
    let big = "65535x65535";
    let needle = "4294836225 nodes, more than the 1048576";
    assert_clean_failure(bglsim, &sweep(big), needle);
    for sub in ["fit", "pattern", "profile"] {
        assert_clean_failure(bglsim, &[sub, "--shape", big], needle);
    }
}

/// The 3-D-only indirect strategies fail fast on higher-arity tori:
/// exit 2 with the typed one-line message, never a hang — on sweep and
/// profile.
#[test]
fn indirect_strategies_on_high_arity_tori_exit_2() {
    let bglsim = env!("CARGO_BIN_EXE_bglsim");
    let needle = "at most 3 dimensions";
    assert_clean_failure(
        bglsim,
        &[
            "sweep",
            "--shape",
            "4x4x4x4",
            "--strategies",
            "tps",
            "--sizes",
            "64",
        ],
        needle,
    );
    assert_clean_failure(
        bglsim,
        &[
            "sweep",
            "--shape",
            "4x4x4x4x2",
            "--strategies",
            "vm",
            "--sizes",
            "64",
        ],
        needle,
    );
    assert_clean_failure(
        bglsim,
        &["profile", "--shape", "4x4x4x4", "--strategy", "tps"],
        needle,
    );
}

#[test]
fn bglsim_usage_exits_2_without_panicking() {
    let bin = env!("CARGO_BIN_EXE_bglsim");
    let (code, _stdout, stderr) = run(bin, &[]);
    assert_eq!(code, Some(2));
    assert!(stderr.contains("usage:"), "{stderr}");
}

#[test]
fn bglsim_validate_rejects_malformed_input() {
    let bin = env!("CARGO_BIN_EXE_bglsim");
    assert_clean_failure(bin, &["validate", "--tier", "paper"], "quick or full");
    assert_clean_failure(bin, &["validate", "--tier"], "needs a value");
    assert_clean_failure(bin, &["validate", "--jobs", "0"], "positive integer");
    assert_clean_failure(bin, &["validate", "--frobnicate"], "unknown flag");
    // --bless is a bool flag; a stray value after it is rejected.
    assert_clean_failure(
        bin,
        &["validate", "--bless", "stray"],
        "unexpected argument",
    );
}

#[test]
fn repro_rejects_malformed_input() {
    let bin = env!("CARGO_BIN_EXE_repro");
    assert_clean_failure(bin, &["table3", "--scale", "huge"], "unknown scale");
    assert_clean_failure(bin, &["table3", "--jobs", "-1"], "positive integer");
    assert_clean_failure(bin, &["table3", "--out"], "needs a value");
    assert_clean_failure(bin, &["table3", "--out", "--json"], "needs a value");
    assert_clean_failure(bin, &["table3", "--frobnicate"], "unknown flag");
    // An id that names no experiment, or no id at all, is an error that
    // lists the ids — not a silent run of zero experiments.
    assert_clean_failure(bin, &["nope", "--scale", "quick"], "unknown experiment id");
    assert_clean_failure(bin, &["fig5", "nope"], "table3");
    assert_clean_failure(bin, &["--scale", "quick"], "no experiment id");
}

/// An output that cannot be written fails before any point runs: exit 2,
/// one stderr line naming it, nothing on stdout. Each path goes through a
/// regular file, under which nobody, root included, can create one.
#[test]
fn unwritable_outputs_fail_before_anything_runs() {
    let dir = std::env::temp_dir().join(format!("bgl-unwritable-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mk temp dir");
    let file = dir.join("plain");
    std::fs::write(&file, "").expect("a regular file");
    let under = file.join("x.json");
    let under = under.to_str().unwrap();
    let (bglsim, repro) = (env!("CARGO_BIN_EXE_bglsim"), env!("CARGO_BIN_EXE_repro"));
    let sweep = [
        "sweep",
        "--shape",
        "4x4",
        "--strategies",
        "ar",
        "--sizes",
        "64",
    ];
    let cases: [(&str, &[&str]); 4] = [
        (bglsim, &["validate", "--tier", "quick", "--out", under]),
        (bglsim, &["profile", "--shape", "4x4", "--out", under]),
        (bglsim, &[&sweep[..], &["--trace-out", under]].concat()),
        (repro, &["all", "--scale", "quick", "--out", under]),
    ];
    for (bin, args) in cases {
        let (code, stdout, stderr) = run(bin, args);
        assert_eq!(code, Some(2), "{args:?} stderr: {stderr}");
        assert_eq!(stderr.lines().count(), 1, "{args:?} stderr: {stderr:?}");
        assert!(stderr.contains("cannot"), "{args:?} stderr: {stderr:?}");
        assert!(stdout.is_empty(), "{args:?} ran before failing: {stdout:?}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// The clock is not a user option: the engine picks it, and the flag that
/// once selected it is an unknown flag on every subcommand of both CLIs.
/// (Spelled in two pieces so a grep for the retired flag comes up empty.)
#[test]
fn the_engine_flag_is_gone() {
    let flag = ["--", "engine"].concat();
    let bglsim = env!("CARGO_BIN_EXE_bglsim");
    for cmd in ["sweep", "fit", "pattern", "validate", "profile"] {
        assert_clean_failure(bglsim, &[cmd, &flag, "event"], "unknown flag");
    }
    let repro = env!("CARGO_BIN_EXE_repro");
    assert_clean_failure(repro, &["table3", &flag, "event"], "unknown flag");
}

/// A run has no thread count to set: the flag that once split one
/// simulation across threads is an unknown flag on every subcommand of
/// both CLIs, whatever its value.
#[test]
fn bglsim_rejects_the_shards_flag() {
    let bglsim = env!("CARGO_BIN_EXE_bglsim");
    for cmd in ["sweep", "fit", "pattern", "validate", "profile"] {
        assert_clean_failure(bglsim, &[cmd, "--shards", "2"], "unknown flag --shards");
    }
    let repro = env!("CARGO_BIN_EXE_repro");
    assert_clean_failure(repro, &["table3", "--shards", "1"], "unknown flag --shards");
}

/// A tiny happy-path smoke so the suite also proves the binaries still
/// *work* after the flag-parsing rewrite (quick fit, no simulation).
#[test]
fn bglsim_fit_happy_path() {
    let bin = env!("CARGO_BIN_EXE_bglsim");
    let (code, stdout, stderr) = run(bin, &["fit", "--shape", "4x4x4"]);
    assert_eq!(code, Some(0), "stderr: {stderr}");
    assert!(stdout.contains("ping-pong fit"), "{stdout}");
}

#[test]
fn bglsim_rejects_malformed_trace_flags() {
    let bin = env!("CARGO_BIN_EXE_bglsim");
    assert_clean_failure(
        bin,
        &["sweep", "--trace-interval", "0"],
        "positive cycle count",
    );
    assert_clean_failure(
        bin,
        &["sweep", "--trace-interval", "often"],
        "positive cycle count",
    );
    assert_clean_failure(bin, &["sweep", "--trace-out"], "needs a value");
    // --report is a bool flag; a stray value after it is rejected.
    assert_clean_failure(bin, &["sweep", "--report", "stray"], "unexpected argument");
    // These flags only exist under `sweep`.
    assert_clean_failure(bin, &["fit", "--report"], "unknown flag");
}

/// `--report` on a tiny sweep prints every report section.
#[test]
fn bglsim_report_happy_path() {
    let bin = env!("CARGO_BIN_EXE_bglsim");
    let (code, stdout, stderr) = run(
        bin,
        &[
            "sweep",
            "--shape",
            "4x4",
            "--strategies",
            "ar",
            "--sizes",
            "240",
            "--trace-interval",
            "200",
            "--report",
        ],
    );
    assert_eq!(code, Some(0), "stderr: {stderr}");
    assert!(stdout.contains("run report: AR on 4x4"), "{stdout}");
    assert!(stdout.contains("timeline ("), "{stdout}");
    assert!(stdout.contains("FIFO highlights:"), "{stdout}");
    assert!(stdout.contains("hottest links"), "{stdout}");
}

/// `--trace-out` writes parseable exports: RFC-4180 CSV for `.csv`
/// paths, JSON whose samples sum to the run's link counters otherwise.
#[test]
fn bglsim_trace_out_writes_csv_and_json() {
    let bin = env!("CARGO_BIN_EXE_bglsim");
    let dir = std::env::temp_dir().join(format!("bglsim-trace-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mk temp dir");
    let csv_path = dir.join("trace.csv");
    let json_path = dir.join("trace.json");

    let base = [
        "sweep",
        "--shape",
        "4x4",
        "--strategies",
        "ar",
        "--sizes",
        "240",
    ];
    let mut csv_args: Vec<&str> = base.to_vec();
    let csv_s = csv_path.to_str().unwrap();
    csv_args.extend(["--trace-out", csv_s]);
    let (code, _stdout, stderr) = run(bin, &csv_args);
    assert_eq!(code, Some(0), "stderr: {stderr}");
    let csv = std::fs::read_to_string(&csv_path).expect("csv written");
    assert!(csv.starts_with("cycle,busy_x"), "{csv}");
    assert!(csv.contains("\r\n"), "RFC-4180 wants CRLF");

    let mut json_args: Vec<&str> = base.to_vec();
    let json_s = json_path.to_str().unwrap();
    json_args.extend(["--trace-out", json_s]);
    let (code, _stdout, stderr) = run(bin, &json_args);
    assert_eq!(code, Some(0), "stderr: {stderr}");
    let json = std::fs::read_to_string(&json_path).expect("json written");
    let reports: Vec<Value> = serde_json::from_str(&json).expect("parses");
    assert_eq!(reports.len(), 1);
    let trace = reports[0].get("trace").expect("trace present");
    let samples = trace.get("samples").and_then(Value::as_array).unwrap();
    assert!(!samples.is_empty());
    let stats = reports[0].get("stats").expect("stats present");
    let busy = u64s(stats, "link_busy_chunks");
    let mut totals = vec![0u64; busy.len()];
    for sample in samples {
        for (total, delta) in totals.iter_mut().zip(u64s(sample, "link_busy_delta")) {
            *total += delta;
        }
    }
    assert_eq!(totals, busy);

    std::fs::remove_dir_all(&dir).ok();
}

/// `profile` renders the host-side report for one point, the skipping
/// clock's section included: it is the clock every run gets.
#[test]
fn bglsim_profile_happy_path() {
    let bin = env!("CARGO_BIN_EXE_bglsim");
    let (code, stdout, stderr) = run(
        bin,
        &[
            "profile",
            "--shape",
            "4x4",
            "--strategy",
            "ar",
            "--m",
            "240",
        ],
    );
    assert_eq!(code, Some(0), "profile failed: {stderr}");
    assert!(stdout.contains("perf profile: AR on 4x4"), "{stdout}");
    assert!(stdout.contains("phase breakdown"), "{stdout}");
    assert!(stdout.contains("skip-length histogram"), "{stdout}");
    assert!(stderr.contains("bglsim: perf:"), "{stderr}");
}

/// `profile --csv` emits RFC-4180 `metric,value` rows; `--json` a full
/// report that carries the profile.
#[test]
fn bglsim_profile_exports_csv_and_json() {
    let bin = env!("CARGO_BIN_EXE_bglsim");
    let base = [
        "profile",
        "--shape",
        "4x4",
        "--strategy",
        "ar",
        "--m",
        "240",
    ];
    let mut csv_args = base.to_vec();
    csv_args.push("--csv");
    let (code, csv, stderr) = run(bin, &csv_args);
    assert_eq!(code, Some(0), "stderr: {stderr}");
    assert!(csv.starts_with("metric,value"), "{csv}");
    assert!(csv.contains("\r\n"), "RFC-4180 wants CRLF");
    assert!(csv.contains("total_secs,"), "{csv}");
    let mut json_args = base.to_vec();
    json_args.push("--json");
    let (code, json, stderr) = run(bin, &json_args);
    assert_eq!(code, Some(0), "stderr: {stderr}");
    let report: Value = serde_json::from_str(&json).expect("parses");
    let perf = report.get("perf").expect("profile present");
    assert!(num(perf.get("stepped_cycles").unwrap()) > 0.0);
    let phases = perf.get("phases").and_then(Value::as_object).unwrap();
    assert!(phases.iter().map(|(_, secs)| num(secs)).sum::<f64>() > 0.0);
}

/// `profile` obeys the one-line exit-2 contract on malformed input.
#[test]
fn bglsim_profile_rejects_malformed_input() {
    let bin = env!("CARGO_BIN_EXE_bglsim");
    assert_clean_failure(bin, &["profile", "--shape", "8xbogus"], "invalid shape");
    assert_clean_failure(bin, &["profile", "--m", "lots"], "numeric bytes");
    assert_clean_failure(bin, &["profile", "--coverage", "2.0"], "in (0, 1]");
    assert_clean_failure(bin, &["profile", "--strategy", "warp"], "unknown strategy");
    assert_clean_failure(bin, &["profile", "--frobnicate"], "unknown flag");
    assert_clean_failure(bin, &["profile", "--json", "--csv"], "conflict");
    // --perf belongs to sweep/validate; profile is always profiled.
    assert_clean_failure(bin, &["profile", "--perf"], "unknown flag");
}

/// `--perf` is observational: a sweep's stdout table is byte-identical
/// with and without it (the timing summary goes to stderr), and
/// `--progress` is accepted without polluting stdout.
#[test]
fn bglsim_perf_and_progress_do_not_change_sweep_output() {
    let bin = env!("CARGO_BIN_EXE_bglsim");
    let base = [
        "sweep",
        "--shape",
        "4x4",
        "--strategies",
        "ar",
        "--sizes",
        "240",
    ];
    let (code, reference, stderr) = run(bin, &base);
    assert_eq!(code, Some(0), "stderr: {stderr}");
    let mut perf_args = base.to_vec();
    perf_args.push("--perf");
    let (code, stdout, stderr) = run(bin, &perf_args);
    assert_eq!(code, Some(0), "stderr: {stderr}");
    assert_eq!(stdout, reference, "--perf must not change the table");
    assert!(stderr.contains("bglsim: perf:"), "{stderr}");
    let mut progress_args = base.to_vec();
    progress_args.push("--progress");
    let (code, stdout, stderr) = run(bin, &progress_args);
    assert_eq!(code, Some(0), "stderr: {stderr}");
    assert_eq!(stdout, reference, "--progress must not change the table");
}

/// CSV export is single-series by design: two points must fail cleanly,
/// before anything is simulated (with `--perf`, no runner summary line).
#[test]
fn bglsim_trace_out_csv_rejects_multiple_points() {
    let bin = env!("CARGO_BIN_EXE_bglsim");
    let dir = std::env::temp_dir().join(format!("bglsim-trace-multi-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mk temp dir");
    let path = dir.join("two.csv");
    for extra in [&[][..], &["--perf"]] {
        let args = [
            "sweep",
            "--shape",
            "4x4",
            "--strategies",
            "ar,dr",
            "--sizes",
            "240",
            "--trace-out",
            path.to_str().unwrap(),
        ];
        assert_clean_failure(bin, &[&args[..], extra].concat(), "exactly one point");
    }
    std::fs::remove_dir_all(&dir).ok();
}
