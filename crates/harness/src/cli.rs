//! What the `bglsim` and `repro` binaries share: the one-line exit-2
//! failure contract, the flag parser, the runner flag both accept
//! (`--jobs`), output files opened before the work that fills them, and
//! the `--perf` summary line. One copy, so a message cannot differ between
//! the two.

use crate::Runner;
use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::Write;
use std::num::NonZeroUsize;
use std::path::Path;

/// Value flags that may repeat on the command line; repeats accumulate
/// into one `;`-joined value (every other flag is last-wins).
const REPEAT_FLAGS: [&str; 1] = ["fault"];

/// A binary's command line, named for the `<bin>: <message>` prefix.
pub struct Cli(pub &'static str);

/// An output file, opened by [`Cli::open_output`] before any work runs and
/// filled by [`Cli::write`] after it.
pub struct Output {
    file: File,
    /// What a failure says before the I/O error: `<what>: <error>`.
    what: String,
}

impl Cli {
    /// Print a one-line error and exit with the conventional usage status.
    pub fn fail(&self, msg: &str) -> ! {
        eprintln!("{}: {msg}", self.0);
        std::process::exit(2);
    }

    /// Parse `--flag value` / `--flag` pairs against the declared flag
    /// sets and return them with the bare positionals, in order. A flag
    /// in neither set, or a value flag without a following value, fails.
    pub fn parse_flags(
        &self,
        args: &[String],
        value_flags: &[&str],
        bool_flags: &[&str],
    ) -> (HashMap<String, String>, Vec<String>) {
        let mut map: HashMap<String, String> = HashMap::new();
        let mut positionals = Vec::new();
        let mut i = 0;
        while i < args.len() {
            let Some(key) = args[i].strip_prefix("--") else {
                positionals.push(args[i].clone());
                i += 1;
                continue;
            };
            if bool_flags.contains(&key) {
                map.insert(key.to_string(), "true".to_string());
                i += 1;
            } else if value_flags.contains(&key) {
                match args.get(i + 1) {
                    Some(v) if !v.starts_with("--") => {
                        match map.get_mut(key) {
                            Some(prev) if REPEAT_FLAGS.contains(&key) => {
                                prev.push(';');
                                prev.push_str(v);
                            }
                            _ => {
                                map.insert(key.to_string(), v.clone());
                            }
                        }
                        i += 2;
                    }
                    _ => self.fail(&format!("--{key} needs a value")),
                }
            } else {
                self.fail(&format!("unknown flag --{key}"));
            }
        }
        (map, positionals)
    }

    /// Open the output file `path` before the work that fills it, so a path
    /// that cannot be written fails on one line (`<what>: <error>`, exit 2)
    /// before anything runs. A missing file is created; an existing one is
    /// truncated only by [`write`](Self::write), so a run that fails leaves
    /// it intact.
    pub fn open_output(&self, path: &Path, what: String) -> Output {
        let mut options = OpenOptions::new();
        match options.write(true).create(true).truncate(false).open(path) {
            Ok(file) => Output { file, what },
            Err(e) => self.fail(&format!("{what}: {e}")),
        }
    }

    /// Replace `out`'s contents with `body`.
    pub fn write(&self, mut out: Output, body: &str) {
        let written = out
            .file
            .set_len(0)
            .and_then(|()| out.file.write_all(body.as_bytes()));
        if let Err(e) = written {
            self.fail(&format!("{}: {e}", out.what));
        }
    }

    /// `--jobs N`: a positive worker-thread count.
    pub fn jobs(&self, v: &str) -> usize {
        v.parse::<NonZeroUsize>()
            .unwrap_or_else(|_| self.fail(&format!("--jobs needs a positive integer, got {v:?}")))
            .get()
    }

    /// With `--perf`, one stderr line of runner-level host timing: points
    /// executed vs served from cache, execute seconds, and queue wait
    /// (summed across workers, so it can exceed wall-clock under `--jobs`).
    pub fn perf_summary(&self, runner: &Runner) {
        if !runner.perf_enabled() {
            return;
        }
        let t = runner.timing();
        eprintln!(
            "{}: perf: {} point(s) executed in {:.3}s host time \
             (queue wait {:.3}s), {} cache hit(s)",
            self.0, t.points_executed, t.execute_secs, t.queue_wait_secs, t.cache_hits,
        );
    }
}
