//! pnw-cli — an interactive shell over a PNW store.
//!
//! ```text
//! cargo run --release --bin pnw-cli -- --capacity 1024 --value-size 64
//! pnw> put 1 hello world
//! pnw> get 1
//! pnw> stats
//! pnw> checkpoint
//! ```
//!
//! Commands: `put <key> <text>`, `get <key>`, `del <key>`, `train`,
//! `stats`, `extend <buckets>`, `checkpoint`, `help`, `quit`.
//! Start with `--dir <path>` to run on a durable store in that directory
//! (created on first use, reopened with every committed key afterwards);
//! `quit` then closes it with a final checkpoint. Without `--dir` the
//! store is volatile.
//!
//! `pnw-cli --throughput [--threads 1,2,4] [--shards N] [--ops N]` skips
//! the shell and runs the multi-threaded throughput sweep over the sharded
//! store instead, writing `BENCH_throughput.json`.

use std::io::{BufRead, Write};

use pnw::throughput::{self, ThroughputConfig};
use pnw_core::{PnwConfig, PnwStore};

struct CliArgs {
    capacity: usize,
    value_size: usize,
    clusters: usize,
    reserve: usize,
    dir: Option<std::path::PathBuf>,
    throughput: bool,
    threads: Vec<usize>,
    shards: usize,
    ops: usize,
}

fn parse_args(args: &[String]) -> Result<CliArgs, String> {
    let mut out = CliArgs {
        capacity: 1024,
        value_size: 64,
        clusters: 8,
        reserve: 0,
        dir: None,
        throughput: false,
        threads: vec![1, 2, 4],
        shards: 8,
        ops: 2_000,
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut grab = |name: &str| -> Result<String, String> {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match a.as_str() {
            "--capacity" => out.capacity = grab("--capacity")?.parse().map_err(|e| format!("{e}"))?,
            "--value-size" => {
                out.value_size = grab("--value-size")?.parse().map_err(|e| format!("{e}"))?
            }
            "--clusters" => out.clusters = grab("--clusters")?.parse().map_err(|e| format!("{e}"))?,
            "--reserve" => out.reserve = grab("--reserve")?.parse().map_err(|e| format!("{e}"))?,
            "--dir" => out.dir = Some(grab("--dir")?.into()),
            "--throughput" => out.throughput = true,
            "--threads" => {
                out.threads = grab("--threads")?
                    .split(',')
                    .map(|s| s.trim().parse().map_err(|e| format!("bad thread count: {e}")))
                    .collect::<Result<_, _>>()?;
                if out.threads.is_empty() {
                    return Err("--threads needs at least one value".into());
                }
            }
            "--shards" => out.shards = grab("--shards")?.parse().map_err(|e| format!("{e}"))?,
            "--ops" => out.ops = grab("--ops")?.parse().map_err(|e| format!("{e}"))?,
            other => return Err(format!("unknown flag '{other}' (see --help)")),
        }
    }
    Ok(out)
}

/// Runs the multi-threaded throughput sweep and writes
/// `BENCH_throughput.json`.
fn run_throughput(args: &CliArgs) {
    let base = ThroughputConfig {
        shards: args.shards,
        ops_per_thread: args.ops,
        value_size: args.value_size,
        clusters: args.clusters.max(1),
        ..Default::default()
    };
    println!(
        "throughput sweep: threads {:?}, {} shards, {} ops/thread",
        args.threads, base.shards, base.ops_per_thread
    );
    let reports = throughput::sweep(&base, &args.threads);
    for r in &reports {
        println!(
            "  {} threads: {:.0} ops/sec (p50 {} ns, p99 {} ns, {} full)",
            r.threads, r.ops_per_sec, r.p50_modeled_ns, r.p99_modeled_ns, r.full_errors
        );
    }
    let path = std::path::Path::new("BENCH_throughput.json");
    match throughput::write_json(path, &reports) {
        Ok(()) => println!("wrote {}", path.display()),
        Err(e) => eprintln!("error writing {}: {e}", path.display()),
    }
}

/// Pads or truncates a UTF-8 payload to the store's fixed value size.
fn fit_value(text: &str, size: usize) -> Vec<u8> {
    let mut v = text.as_bytes().to_vec();
    v.resize(size, 0);
    v
}

/// Renders a stored value: the UTF-8 prefix up to the first NUL.
fn show_value(v: &[u8]) -> String {
    let end = v.iter().position(|&b| b == 0).unwrap_or(v.len());
    String::from_utf8_lossy(&v[..end]).into_owned()
}

fn run_command(store: &PnwStore, line: &str) -> Result<String, String> {
    let mut parts = line.split_whitespace();
    let cmd = match parts.next() {
        Some(c) => c,
        None => return Ok(String::new()),
    };
    match cmd {
        "put" => {
            let key: u64 = parts
                .next()
                .ok_or("usage: put <key> <text>")?
                .parse()
                .map_err(|e| format!("bad key: {e}"))?;
            let rest: Vec<&str> = parts.collect();
            let text = rest.join(" ");
            let value = fit_value(&text, store.config().value_size);
            let r = store.put(key, &value).map_err(|e| e.to_string())?;
            Ok(format!(
                "ok: cluster {} ({} bit flips, {} lines, predict {:?})",
                r.cluster, r.value_write.bit_flips, r.total_write.lines_written, r.predict
            ))
        }
        "get" => {
            let key: u64 = parts
                .next()
                .ok_or("usage: get <key>")?
                .parse()
                .map_err(|e| format!("bad key: {e}"))?;
            match store.get(key).map_err(|e| e.to_string())? {
                Some(v) => Ok(format!("\"{}\"", show_value(&v))),
                None => Ok("(not found)".into()),
            }
        }
        "del" => {
            let key: u64 = parts
                .next()
                .ok_or("usage: del <key>")?
                .parse()
                .map_err(|e| format!("bad key: {e}"))?;
            let existed = store.delete(key).map_err(|e| e.to_string())?;
            Ok(if existed { "deleted" } else { "(not found)" }.into())
        }
        "train" => {
            let t = store.retrain_now().map_err(|e| e.to_string())?;
            Ok(format!("trained K={} in {t:?}", store.model_k()))
        }
        "extend" => {
            let n: usize = parts
                .next()
                .ok_or("usage: extend <buckets>")?
                .parse()
                .map_err(|e| format!("bad count: {e}"))?;
            let added = store.extend_zone(n);
            Ok(format!(
                "activated {added} buckets (capacity now {}, reserve {})",
                store.active_capacity(),
                store.reserve_remaining()
            ))
        }
        "stats" => {
            let s = store.snapshot();
            Ok(format!(
                "live {} / {} buckets ({} free), K={}, retrains {}\n\
                 puts {} gets {} deletes {}, fallbacks {}\n\
                 bit flips/512b: {:.2}, lines/write: {:.2}, mean predict {:?}",
                s.live,
                s.capacity,
                s.free,
                s.k,
                s.retrains,
                s.puts,
                s.gets,
                s.deletes,
                s.fallbacks,
                s.device.mean_flips_per_512(),
                s.device.mean_lines_per_write(),
                s.mean_predict_latency(),
            ))
        }
        "checkpoint" => {
            if !store.is_durable() {
                return Ok("volatile store (start with --dir): nothing to checkpoint".into());
            }
            store.checkpoint().map_err(|e| e.to_string())?;
            Ok("checkpoint cut".into())
        }
        "help" => Ok("commands: put get del train extend stats checkpoint help quit".into()),
        other => Err(format!("unknown command '{other}' (try help)")),
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.iter().any(|a| a == "--help" || a == "-h") {
        println!(
            "pnw-cli [--capacity N] [--value-size N] [--clusters K] [--reserve N] [--dir PATH]\n\
             pnw-cli --throughput [--threads 1,2,4] [--shards N] [--ops N] [--value-size N]"
        );
        return;
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    if args.throughput {
        run_throughput(&args);
        return;
    }
    let cfg = PnwConfig::new(args.capacity, args.value_size)
        .with_clusters(args.clusters)
        .with_reserve(args.reserve);
    let store = match &args.dir {
        Some(dir) => match PnwStore::open(cfg.with_path(dir)) {
            Ok(s) => {
                println!("opened {} ({} live keys)", dir.display(), s.len());
                s
            }
            Err(e) => {
                eprintln!("error: cannot open {}: {e}", dir.display());
                std::process::exit(2);
            }
        },
        None => PnwStore::new(cfg),
    };

    let stdin = std::io::stdin();
    let mut out = std::io::stdout();
    loop {
        print!("pnw> ");
        let _ = out.flush();
        let mut line = String::new();
        match stdin.lock().read_line(&mut line) {
            Ok(0) => break,
            Ok(_) => {}
            Err(_) => break,
        }
        let line = line.trim();
        if line == "quit" || line == "exit" {
            break;
        }
        match run_command(&store, line) {
            Ok(msg) if msg.is_empty() => {}
            Ok(msg) => println!("{msg}"),
            Err(e) => println!("error: {e}"),
        }
    }
    if let Err(e) = store.close() {
        eprintln!("error: closing the store: {e}");
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn value_fitting() {
        assert_eq!(fit_value("ab", 4), vec![b'a', b'b', 0, 0]);
        assert_eq!(fit_value("abcdef", 4), vec![b'a', b'b', b'c', b'd']);
        assert_eq!(show_value(&[b'h', b'i', 0, 0]), "hi");
        assert_eq!(show_value(b"full"), "full");
    }

    #[test]
    fn arg_parsing() {
        let a = parse_args(&[
            "--capacity".into(),
            "64".into(),
            "--value-size".into(),
            "16".into(),
        ])
        .unwrap();
        assert_eq!(a.capacity, 64);
        assert_eq!(a.value_size, 16);
        assert!(!a.throughput);
        assert!(parse_args(&["--bogus".into()]).is_err());
        assert!(parse_args(&["--capacity".into()]).is_err());
    }

    #[test]
    fn throughput_arg_parsing() {
        let a = parse_args(&[
            "--throughput".into(),
            "--threads".into(),
            "1,2,8".into(),
            "--shards".into(),
            "4".into(),
            "--ops".into(),
            "100".into(),
        ])
        .unwrap();
        assert!(a.throughput);
        assert_eq!(a.threads, vec![1, 2, 8]);
        assert_eq!(a.shards, 4);
        assert_eq!(a.ops, 100);
        assert!(parse_args(&["--threads".into(), "".into()]).is_err());
    }

    #[test]
    fn command_loop_against_store() {
        let store = PnwStore::new(PnwConfig::new(16, 8).with_clusters(2));
        assert!(run_command(&store, "put 1 hello").unwrap().starts_with("ok"));
        assert_eq!(run_command(&store, "get 1").unwrap(), "\"hello\"");
        assert!(run_command(&store, "train").unwrap().contains("trained"));
        assert_eq!(run_command(&store, "del 1").unwrap(), "deleted");
        assert_eq!(run_command(&store, "get 1").unwrap(), "(not found)");
        assert!(run_command(&store, "stats").unwrap().contains("live 0"));
        assert!(run_command(&store, "checkpoint").unwrap().contains("volatile"));
        assert!(run_command(&store, "nope").is_err());
        assert_eq!(run_command(&store, "").unwrap(), "");
    }

    #[test]
    fn durable_store_keeps_keys_across_cli_sessions() {
        let dir = std::env::temp_dir().join(format!("pnw_cli_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = PnwConfig::new(16, 8).with_clusters(2).with_path(&dir);
        let store = PnwStore::open(cfg.clone()).unwrap();
        assert!(run_command(&store, "put 3 kept").unwrap().starts_with("ok"));
        assert_eq!(run_command(&store, "checkpoint").unwrap(), "checkpoint cut");
        assert!(run_command(&store, "put 4 logged").unwrap().starts_with("ok"));
        store.close().unwrap();
        let store = PnwStore::open(cfg).unwrap();
        assert_eq!(run_command(&store, "get 3").unwrap(), "\"kept\"");
        assert_eq!(run_command(&store, "get 4").unwrap(), "\"logged\"");
        drop(store);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
