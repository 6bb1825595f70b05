//! The `reshuffle-server` binary: parse flags, start the service, and
//! run until a client posts `/shutdown` (or the process is killed).
//!
//! Two modes share one binary and one transport flag set:
//!
//! ```sh
//! # A backend shard: synthesis, cache, journal.
//! reshuffle-server --addr 127.0.0.1:7890 --shard-id 0 \
//!     --cache /tmp/shard0.cache --cache-bytes 67108864 --threads 4
//!
//! # The router tier in front of a fleet: same POST /synthesize
//! # surface, forwards key % N to the listed backends in order.
//! reshuffle-server --addr 127.0.0.1:7878 \
//!     --route 127.0.0.1:7890,127.0.0.1:7891
//! ```

use std::process::ExitCode;
use std::str::FromStr;
use std::time::Duration;

use reshuffle_server::{Router, RouterConfig, Server, ServerConfig};

fn usage() -> &'static str {
    "usage: reshuffle-server [--addr HOST:PORT] [--threads N] [--queue-depth N]\n\
     \x20                       [--timeout-secs N] [--idle-timeout-secs N]\n\
     \x20                       [--max-requests-per-conn N] [--max-body-bytes N]\n\
     \x20                       [--trace-level N] [--trace-file PATH]\n\
     \x20  serve mode:          [--cache PATH] [--cache-bytes N] [--shard-id N]\n\
     \x20                       (--cache-bytes: LRU bound, default 2 MiB)\n\
     \x20  router mode:         --route BACKEND1,BACKEND2,...\n\
     \x20                       [--backend-retries N] [--connect-timeout-ms N]\n\
     \x20                       [--health-interval-ms N]"
}

/// Which tier the binary runs as, fully configured.
enum Mode {
    Serve(Box<ServerConfig>),
    Route(Box<RouterConfig>),
}

fn num<T: FromStr>(flag: &str, value: &str) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    value.parse().map_err(|e| format!("{flag}: {e}"))
}

fn trace_sink(path: &str) -> Result<reshuffle_server::SinkHandle, String> {
    reshuffle_server::SinkHandle::file(std::path::Path::new(path))
        .map_err(|e| format!("--trace-file {path}: {e}"))
}

fn parse_args(args: &[String]) -> Result<Mode, String> {
    // Every flag takes exactly one value; pair them up first so the
    // mode switch (`--route`) can be found before dispatching.
    let mut pairs: Vec<(&str, &str)> = Vec::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value\n{}", usage()))?;
        pairs.push((flag.as_str(), value.as_str()));
    }
    let route = pairs.iter().find(|(f, _)| *f == "--route").map(|(_, v)| *v);

    if let Some(list) = route {
        let backends: Vec<String> = list
            .split(',')
            .map(|s| s.trim().to_string())
            .filter(|s| !s.is_empty())
            .collect();
        if backends.is_empty() {
            return Err("--route needs a comma-separated backend list".to_string());
        }
        let mut cfg = RouterConfig::new(backends);
        for (flag, v) in pairs {
            match flag {
                "--route" => {}
                "--addr" => cfg = cfg.with_addr(v),
                "--threads" => cfg = cfg.with_threads(num(flag, v)?),
                "--queue-depth" => cfg = cfg.with_queue_depth(num(flag, v)?),
                "--timeout-secs" => {
                    cfg = cfg.with_request_timeout(Duration::from_secs(num(flag, v)?));
                }
                "--idle-timeout-secs" => {
                    cfg = cfg.with_idle_timeout(Duration::from_secs(num(flag, v)?));
                }
                "--max-requests-per-conn" => cfg = cfg.with_max_requests_per_conn(num(flag, v)?),
                "--max-body-bytes" => cfg = cfg.with_max_body_bytes(num(flag, v)?),
                "--backend-retries" => cfg = cfg.with_retries(num(flag, v)?),
                "--connect-timeout-ms" => {
                    cfg = cfg.with_connect_timeout(Duration::from_millis(num(flag, v)?));
                }
                "--health-interval-ms" => {
                    cfg = cfg.with_health_interval(Duration::from_millis(num(flag, v)?));
                }
                "--trace-level" => cfg = cfg.with_trace_level(num(flag, v)?),
                "--trace-file" => cfg = cfg.with_trace_sink(trace_sink(v)?),
                "--cache" | "--cache-bytes" | "--shard-id" => {
                    return Err(format!(
                        "`{flag}` applies to serve mode — the router holds no cache\n{}",
                        usage()
                    ));
                }
                other => return Err(format!("unknown flag `{other}`\n{}", usage())),
            }
        }
        return Ok(Mode::Route(Box::new(cfg)));
    }

    let mut cfg = ServerConfig::new();
    for (flag, v) in pairs {
        match flag {
            "--addr" => cfg = cfg.with_addr(v),
            "--threads" => cfg = cfg.with_threads(num(flag, v)?),
            "--queue-depth" => cfg = cfg.with_queue_depth(num(flag, v)?),
            "--timeout-secs" => {
                cfg = cfg.with_request_timeout(Duration::from_secs(num(flag, v)?));
            }
            "--idle-timeout-secs" => {
                cfg = cfg.with_idle_timeout(Duration::from_secs(num(flag, v)?));
            }
            "--max-requests-per-conn" => cfg = cfg.with_max_requests_per_conn(num(flag, v)?),
            "--max-body-bytes" => cfg = cfg.with_max_body_bytes(num(flag, v)?),
            "--cache" => cfg = cfg.with_cache_path(v),
            "--cache-bytes" => cfg = cfg.with_cache_bytes(Some(num(flag, v)?)),
            "--shard-id" => cfg = cfg.with_shard_id(num(flag, v)?),
            "--trace-level" => cfg = cfg.with_trace_level(num(flag, v)?),
            "--trace-file" => cfg = cfg.with_trace_sink(trace_sink(v)?),
            "--backend-retries" | "--connect-timeout-ms" | "--health-interval-ms" => {
                return Err(format!(
                    "`{flag}` applies to router mode (--route)\n{}",
                    usage()
                ));
            }
            other => return Err(format!("unknown flag `{other}`\n{}", usage())),
        }
    }
    Ok(Mode::Serve(Box::new(cfg)))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match parse_args(&args) {
        Ok(Mode::Serve(cfg)) => {
            let server = match Server::start(*cfg) {
                Ok(server) => server,
                Err(e) => {
                    eprintln!("error: {e}");
                    return ExitCode::FAILURE;
                }
            };
            println!("reshuffle-server listening on {}", server.addr());
            server.wait_for_shutdown();
            match server.stop() {
                Ok(()) => {
                    println!("reshuffle-server: clean shutdown");
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("error during shutdown: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        Ok(Mode::Route(cfg)) => {
            let backends = cfg.backends.len();
            let router = match Router::start(*cfg) {
                Ok(router) => router,
                Err(e) => {
                    eprintln!("error: {e}");
                    return ExitCode::FAILURE;
                }
            };
            println!(
                "reshuffle-server listening on {} (router, {backends} backends)",
                router.addr()
            );
            router.wait_for_shutdown();
            match router.stop() {
                Ok(()) => {
                    println!("reshuffle-server: clean shutdown");
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("error during shutdown: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
