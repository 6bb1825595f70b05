//! `service`: the release `reshuffle-server` binary as a child process
//! (default configuration, a `--cache` journal in a scratch
//! directory), driven by two keep-alive connections in a closed loop —
//! synthesis callers block on their netlist.
//!
//! The seeded mix: four of every five requests repeat one of the 13
//! hot keys primed during set-up (the seven complete corpus specs ×
//! {default, reduce}, less `mfig1` default, which fails by design);
//! the fifth is a first-time spec, a fresh `.model` rename of one of
//! ten templates. The canonical fingerprint hashes the model name, so
//! every rename is a guaranteed miss doing the same work as the
//! template. Every 200 response's netlist must equal the library's.
//!
//! The traced run spends half its time on that loop, timing first and
//! last response byte, and half replaying the same request sequence
//! in-process, span by span, for the layers behind the socket.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use reshuffle::{
    CacheStore, ExpansionOptions, FileStore, ImplStyle, PipelineOptions, ReduceOptions, SynthCache,
};
use reshuffle_bench::json::{self, Json};
use reshuffle_petri::parse_g;

use crate::chain::{self, Memo, Source};
use crate::trace::Tracer;
use crate::util::{median, ms, netlist_literals, Rng};
use crate::{Outcome, Samples, ServerLayers};

/// Client connections (= `nproc` of the 2-core machine the mix was
/// sized on).
const CLIENTS: usize = 2;
/// One request in `MISS_EVERY` is a first-time spec.
const MISS_EVERY: usize = 5;
const IO_TIMEOUT: Duration = Duration::from_secs(30);

#[derive(Clone, Copy, PartialEq, Eq)]
enum Mode {
    Default,
    Reduce,
    Expand,
    ExpandGc,
    Gc,
}

impl Mode {
    fn options(self) -> PipelineOptions {
        let expand = || PipelineOptions::new().with_expand(ExpansionOptions::default());
        match self {
            Mode::Default => PipelineOptions::new(),
            Mode::Reduce => PipelineOptions::new().with_reduce(ReduceOptions::default()),
            Mode::Expand => expand(),
            Mode::ExpandGc => expand().with_style(ImplStyle::GeneralizedC),
            Mode::Gc => PipelineOptions::new().with_style(ImplStyle::GeneralizedC),
        }
    }

    /// The same options as the server's `options` JSON member.
    fn json(self) -> Json {
        let t = || Json::Bool(true);
        let gc = || Json::Str("gc".to_string());
        Json::obj(match self {
            Mode::Default => vec![],
            Mode::Reduce => vec![("reduce", t())],
            Mode::Expand => vec![("expand", t())],
            Mode::ExpandGc => vec![("expand", t()), ("style", gc())],
            Mode::Gc => vec![("style", gc())],
        })
    }
}

/// A spec × options the mix sends, with the library's answer.
struct Key {
    name: &'static str,
    src: String,
    mode: Mode,
    netlist: String,
    literals: u64,
}

impl Key {
    fn new(name: &'static str, src: String, mode: Mode) -> Result<Key, String> {
        let renamed = |suffix: &str| rename(&src, name, suffix);
        let lib = |g: &str| {
            chain::run_library(Source::G(g), &mode.options(), &SynthCache::new())
                .map(|(s, _)| s)
                .map_err(|e| format!("{name}: {e}"))
        };
        let reference = lib(&src)?;
        // Renames must not change the answer, or a miss would not do
        // the template's work.
        if lib(&renamed("probe"))?.netlist.describe() != reference.netlist.describe() {
            return Err(format!("{name}: a .model rename changed the netlist"));
        }
        Ok(Key {
            name,
            netlist: reference.netlist.describe(),
            literals: netlist_literals(&reference.netlist),
            src,
            mode,
        })
    }

    fn body(&self, g: &str) -> Vec<u8> {
        Json::obj(vec![
            ("g", Json::Str(g.to_string())),
            ("options", self.mode.json()),
        ])
        .render()
        .into_bytes()
    }
}

fn rename(src: &str, name: &str, suffix: &str) -> String {
    src.replacen(
        &format!(".model {name}"),
        &format!(".model {name}_{suffix}"),
        1,
    )
}

fn example(name: &str) -> String {
    reshuffle_bench::examples::ALL
        .iter()
        .find(|(n, _)| *n == name)
        .map(|(_, src)| src.to_string())
        .expect("a corpus example")
}

/// One request of the sequence: a hot key, or a renamed template.
struct Req {
    key: usize,
    hot: bool,
    g: String,
}

/// The seeded request sequence (a pure function of seed and index, so
/// both clients draw from one sequence). Each block of `MISS_EVERY`
/// holds one miss at a seeded position; misses walk the templates in
/// a reshuffled order per cycle, so every run sends the same mix.
struct Mix {
    seed: u64,
    hot: Vec<Key>,
    cold: Vec<Key>,
}

impl Mix {
    fn request(&self, i: usize) -> Req {
        let block = i / MISS_EVERY;
        let mut rng = Rng::new(self.seed ^ (block as u64).wrapping_mul(0x9e37_79b9));
        if i % MISS_EVERY == rng.below(MISS_EVERY) {
            let cycle = block / self.cold.len();
            let mut order: Vec<usize> = (0..self.cold.len()).collect();
            Rng::new(self.seed ^ 0xc01d ^ cycle as u64).shuffle(&mut order);
            let key = order[block % self.cold.len()];
            let k = &self.cold[key];
            let g = rename(&k.src, k.name, &format!("s{}b{block}", self.seed));
            Req { key, hot: false, g }
        } else {
            let mut rng = Rng::new(self.seed.wrapping_add(i as u64));
            let key = rng.below(self.hot.len());
            let g = self.hot[key].src.clone();
            Req { key, hot: true, g }
        }
    }

    fn key(&self, r: &Req) -> &Key {
        if r.hot {
            &self.hot[r.key]
        } else {
            &self.cold[r.key]
        }
    }
}

// --- the minimal client -------------------------------------------------

struct Resp {
    status: u16,
    body: Vec<u8>,
    /// Request written → first response byte.
    first_byte: Duration,
    /// First response byte → last.
    rest: Duration,
    /// Write start → last response byte.
    total: Duration,
}

struct Client {
    addr: SocketAddr,
    stream: Option<TcpStream>,
}

fn find(hay: &[u8], needle: &[u8]) -> Option<usize> {
    hay.windows(needle.len()).position(|w| w == needle)
}

impl Client {
    fn new(addr: SocketAddr) -> Client {
        Client { addr, stream: None }
    }

    fn request(&mut self, method: &str, path: &str, body: &[u8]) -> io::Result<Resp> {
        let res = self.exchange(method, path, body);
        if res.is_err() {
            self.stream = None;
        }
        res
    }

    fn exchange(&mut self, method: &str, path: &str, body: &[u8]) -> io::Result<Resp> {
        if self.stream.is_none() {
            let s = TcpStream::connect(self.addr)?;
            s.set_read_timeout(Some(IO_TIMEOUT))?;
            s.set_write_timeout(Some(IO_TIMEOUT))?;
            self.stream = Some(s);
        }
        let s = self.stream.as_mut().expect("connected above");
        let mut msg = format!(
            "{method} {path} HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\n\
             Content-Length: {}\r\n\r\n",
            body.len()
        )
        .into_bytes();
        msg.extend_from_slice(body);
        let t0 = Instant::now();
        s.write_all(&msg)?;
        let written = Instant::now();
        let mut buf = Vec::new();
        let mut chunk = [0u8; 16 * 1024];
        let mut first: Option<Instant> = None;
        let head_end = loop {
            let n = s.read(&mut chunk)?;
            if n == 0 {
                return Err(io::ErrorKind::UnexpectedEof.into());
            }
            first.get_or_insert_with(Instant::now);
            buf.extend_from_slice(&chunk[..n]);
            if let Some(p) = find(&buf, b"\r\n\r\n") {
                break p + 4;
            }
        };
        let head = String::from_utf8_lossy(&buf[..head_end]).to_ascii_lowercase();
        let bad = || io::Error::new(io::ErrorKind::InvalidData, "malformed response head");
        let status: u16 = head
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(bad)?;
        let len: usize = head
            .lines()
            .find_map(|l| l.strip_prefix("content-length:"))
            .and_then(|v| v.trim().parse().ok())
            .ok_or_else(bad)?;
        while buf.len() < head_end + len {
            let n = s.read(&mut chunk)?;
            if n == 0 {
                return Err(io::ErrorKind::UnexpectedEof.into());
            }
            buf.extend_from_slice(&chunk[..n]);
        }
        let end = Instant::now();
        if head.lines().any(|l| l.trim() == "connection: close") {
            self.stream = None;
        }
        let first = first.expect("read at least one byte");
        Ok(Resp {
            status,
            body: buf[head_end..head_end + len].to_vec(),
            first_byte: first - written,
            rest: end - first,
            total: end - t0,
        })
    }
}

// --- the server child -------------------------------------------------

struct ServerProc {
    child: Child,
    stdout: BufReader<ChildStdout>,
    addr: SocketAddr,
    dir: PathBuf,
}

impl ServerProc {
    fn spawn(bin: &Path, dir: PathBuf) -> Result<ServerProc, String> {
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let mut child = Command::new(bin)
            .arg("--cache")
            .arg(dir.join("cache"))
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("{}: {e}", bin.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        let mut line = String::new();
        let addr = stdout
            .read_line(&mut line)
            .ok()
            .and_then(|_| line.trim().strip_prefix("reshuffle-server listening on "))
            .and_then(|a| a.parse().ok());
        let mut proc = ServerProc {
            child,
            stdout,
            addr: "127.0.0.1:0".parse().expect("literal address"),
            dir,
        };
        match addr {
            Some(addr) => proc.addr = addr,
            None => {
                proc.kill();
                return Err(format!("server did not announce its address: {line:?}"));
            }
        }
        let mut client = Client::new(proc.addr);
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            match client.request("GET", "/healthz", b"") {
                Ok(r) if r.status == 200 => return Ok(proc),
                _ if Instant::now() > deadline => {
                    proc.kill();
                    return Err("server never answered /healthz".to_string());
                }
                _ => std::thread::sleep(Duration::from_millis(5)),
            }
        }
    }

    fn stats(&self) -> Result<Json, String> {
        let r = Client::new(self.addr)
            .request("GET", "/stats", b"")
            .map_err(|e| format!("/stats: {e}"))?;
        json::parse(&String::from_utf8_lossy(&r.body))
    }

    /// `POST /shutdown`, then waits for the child (killing it if it
    /// does not exit within ten seconds) and removes its directory.
    fn shutdown(mut self) {
        let _ = Client::new(self.addr).request("POST", "/shutdown", b"");
        let deadline = Instant::now() + Duration::from_secs(10);
        while Instant::now() < deadline {
            if let Ok(Some(_)) = self.child.try_wait() {
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        self.kill();
    }

    fn kill(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        let _ = io::copy(&mut self.stdout, &mut io::sink());
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

fn stat(doc: &Json, path: &[&str]) -> f64 {
    let mut v = Some(doc);
    for p in path {
        v = v.and_then(|v| v.get(p));
    }
    v.and_then(Json::as_num).unwrap_or(0.0)
}

/// Checks one `/synthesize` response against the library's answer.
fn check(resp: &Resp, key: &Key, hot: bool) -> Result<(), String> {
    if resp.status != 200 {
        return Err(format!("{}: HTTP {}", key.name, resp.status));
    }
    let doc = json::parse(&String::from_utf8_lossy(&resp.body))?;
    let flag = |k: &str| matches!(doc.get(k), Some(Json::Bool(true)));
    let netlist = doc
        .get("result")
        .and_then(|r| r.get("netlist"))
        .and_then(Json::as_str);
    if netlist != Some(key.netlist.as_str()) {
        return Err(format!("{}: netlist differs from the library's", key.name));
    }
    if hot != (flag("cache_hit") || flag("coalesced")) {
        return Err(format!(
            "{}: served as a {}",
            key.name,
            if hot { "miss" } else { "hit" }
        ));
    }
    Ok(())
}

// --- the workload -----------------------------------------------------

pub struct Service {
    server: ServerProc,
    mix: Mix,
    tmp: PathBuf,
}

impl Service {
    /// Builds the mix, then starts the server and primes the hot set.
    /// Only the last of `reps` starts stays up; every start is timed.
    pub fn setup(
        seed: u64,
        bin: &Path,
        tmp: &Path,
        reference_literals: u64,
        reps: usize,
        setup_s: &mut Vec<f64>,
    ) -> Result<Service, String> {
        let t = Instant::now();
        let mut hot = Vec::new();
        for name in ["toggle", "xyz", "lr", "mmu", "par", "mfig1", "creq"] {
            for mode in [Mode::Default, Mode::Reduce] {
                // `mfig1` stalls CSC insertion unless reduction runs first.
                if (name, mode) != ("mfig1", Mode::Default) {
                    hot.push(Key::new(name, example(name), mode)?);
                }
            }
        }
        let literals: u64 = hot.iter().map(|k| k.literals).sum();
        if literals != reference_literals {
            return Err(format!(
                "hot-set literals {literals} != reference {reference_literals}"
            ));
        }
        // The first six templates cost little beside the transport and
        // the journal write, so the median miss falls among them; the
        // expansions and the 1,460-state controller form the costly tail.
        let cold = vec![
            Key::new("par", example("par"), Mode::Default)?,
            Key::new("creq", example("creq"), Mode::Default)?,
            Key::new("mmu", example("mmu"), Mode::Reduce)?,
            Key::new("creq", example("creq"), Mode::Reduce)?,
            Key::new("xyz", example("xyz"), Mode::Gc)?,
            Key::new("lr", example("lr"), Mode::Gc)?,
            Key::new("hslr", example("hslr"), Mode::Expand)?,
            Key::new("pcreq", example("pcreq"), Mode::Expand)?,
            Key::new("pcreq", example("pcreq"), Mode::ExpandGc)?,
            Key::new(
                "scaled6",
                reshuffle_bench::examples::scaled_pipeline(6),
                Mode::Default,
            )?,
        ];
        let mix = Mix { seed, hot, cold };
        let mix_s = t.elapsed().as_secs_f64();

        let mut server = None;
        for rep in 0..reps.max(1) {
            if let Some(old) = server.take() {
                ServerProc::shutdown(old);
            }
            let t = Instant::now();
            let proc = ServerProc::spawn(bin, tmp.join(format!("server{rep}")))?;
            let primed = prime(&proc, &mix);
            server = Some(proc);
            primed?;
            setup_s.push(mix_s + t.elapsed().as_secs_f64());
        }
        Ok(Service {
            server: server.expect("at least one start"),
            mix,
            tmp: tmp.to_path_buf(),
        })
    }

    pub fn run(self, seconds: f64, traced: bool, tr: &mut Tracer) -> Outcome {
        let http_seconds = if traced { seconds / 2.0 } else { seconds };
        let mut out = self.http_loop(http_seconds);
        if traced {
            self.in_process(seconds - http_seconds, tr, &mut out);
        }
        self.server.shutdown();
        let _ = std::fs::remove_dir_all(&self.tmp);
        out
    }

    fn http_loop(&self, seconds: f64) -> Outcome {
        let mut out = Outcome::default();
        let before = match self.server.stats() {
            Ok(s) => s,
            Err(e) => {
                out.record(vec![e]);
                return out;
            }
        };
        let next = AtomicUsize::new(0);
        let start = Instant::now();
        // (hot, result, timings) per request, merged after the loop.
        type Rec = (bool, Result<(), String>, Option<(f64, f64, f64)>);
        let recs: Mutex<Vec<Rec>> = Mutex::new(Vec::new());
        std::thread::scope(|scope| {
            for _ in 0..CLIENTS {
                scope.spawn(|| {
                    let mut client = Client::new(self.server.addr);
                    let mut mine = Vec::new();
                    while start.elapsed().as_secs_f64() < seconds {
                        let req = self.mix.request(next.fetch_add(1, Ordering::Relaxed));
                        let key = self.mix.key(&req);
                        let rec = match client.request("POST", "/synthesize", &key.body(&req.g)) {
                            Ok(resp) => {
                                let t = (ms(resp.total), ms(resp.first_byte), ms(resp.rest));
                                (req.hot, check(&resp, key, req.hot), Some(t))
                            }
                            Err(e) => (req.hot, Err(format!("{}: {e}", key.name)), None),
                        };
                        mine.push(rec);
                    }
                    recs.lock().expect("no client panicked").extend(mine);
                });
            }
        });
        let elapsed = start.elapsed().as_secs_f64();
        let mut samples = Samples::default();
        let (mut first, mut rest) = (Vec::new(), Vec::new());
        for (hot, result, t) in recs.into_inner().expect("no client panicked") {
            out.record(result.err().into_iter().collect());
            if let Some((total, f, r)) = t {
                samples.op_ms.push(total);
                if hot {
                    samples.hit_ms.push(total);
                } else {
                    samples.miss_ms.push(total);
                }
                first.push(f);
                rest.push(r);
            }
        }
        let after = match self.server.stats() {
            Ok(s) => s,
            Err(e) => {
                out.record(vec![e]);
                return out;
            }
        };
        let delta = |path: &[&str]| stat(&after, path) - stat(&before, path);
        if delta(&["shed"]) > 0.0 {
            out.record(vec![format!(
                "server shed {} connections",
                delta(&["shed"])
            )]);
        }
        samples.elapsed_s = elapsed;
        samples.literals = self.mix.hot.iter().map(|k| k.literals).sum::<u64>() as f64;
        samples.peak_rss_mb = crate::util::peak_rss_mb(&self.server.child.id().to_string());
        let (hits, misses) = (delta(&["cache", "hits"]), delta(&["cache", "misses"]));
        out.layers.cache_hit_ratio = if hits + misses > 0.0 {
            hits / (hits + misses)
        } else {
            0.0
        };
        out.layers.server = Some(ServerLayers {
            first_byte_ms: median(&first),
            body_ms: median(&rest),
            executed: delta(&["executed"]),
            coalesced: delta(&["coalesced"]),
            shed: delta(&["shed"]),
            journal_appends: delta(&["cache", "journal_appends"]),
        });
        out.samples = samples;
        out
    }

    /// The traced half: the same sequence against an in-process cache
    /// (hot set primed, journal on disk), alternating untraced requests
    /// — what the server does — with traced ones.
    fn in_process(&self, seconds: f64, tr: &mut Tracer, out: &mut Outcome) {
        let dir = self.tmp.join("inproc");
        let _ = std::fs::remove_dir_all(&dir);
        if let Err(e) = std::fs::create_dir_all(&dir) {
            out.record(vec![format!("{}: {e}", dir.display())]);
            return;
        }
        let store = Arc::new(TimedStore {
            inner: FileStore::new(dir.join("cache")),
            append_ms: Mutex::new(Vec::new()),
        });
        let cache = SynthCache::new();
        cache.attach_journal(store.clone());
        for k in &self.mix.hot {
            if let Err(e) = chain::run_library(Source::G(&k.src), &k.mode.options(), &cache) {
                out.record(vec![format!("in-process prime: {e}")]);
                return;
            }
        }
        let mut lookup_ms = Vec::new();
        let start = Instant::now();
        let mut i = 0usize;
        while i < 2 || start.elapsed().as_secs_f64() < seconds {
            let req = self.mix.request(i);
            let key = self.mix.key(&req);
            let opts = key.mode.options();
            let traced = i % 2 == 1;
            let t = Instant::now();
            if traced {
                tr.begin_op(i as u64);
            }
            let root = traced.then(|| tr.open("op"));
            let stg = if traced {
                tr.time("petri.parse", || parse_g(&req.g))
            } else {
                parse_g(&req.g)
            };
            let result = match stg {
                Err(e) => Err(e.to_string()),
                Ok(stg) if req.hot || !traced => {
                    let id = traced.then(|| tr.open("core.cache_lookup"));
                    let t = Instant::now();
                    let r = chain::run_library(Source::Parts(stg, None), &opts, &cache);
                    if req.hot {
                        lookup_ms.push(ms(t.elapsed()));
                    }
                    if let Some(id) = id {
                        tr.close(id);
                    }
                    r.and_then(|(s, hit)| match hit == req.hot {
                        true => Ok(s),
                        false => Err(format!("{}: in-process cache outcome", key.name)),
                    })
                }
                Ok(stg) => chain::replay(tr, Source::Parts(stg, None), &opts, &mut Memo::new()),
            };
            if let Some(root) = root {
                tr.close(root);
            }
            if !traced {
                out.layers.untraced_op_ms.push(ms(t.elapsed()));
            }
            let problems = match result {
                Ok(s) if s.netlist.describe() == key.netlist => vec![],
                Ok(_) => vec![format!("{}: in-process netlist differs", key.name)],
                Err(e) => vec![e],
            };
            out.record(problems);
            i += 1;
        }
        out.layers.cache_lookup_us = median(&lookup_ms) * 1e3;
        let appends = store.append_ms.lock().expect("no append panicked");
        out.layers.journal_append_ms = median(&appends);
    }
}

/// Sends every hot key once, checking each answer.
fn prime(proc: &ServerProc, mix: &Mix) -> Result<(), String> {
    let mut client = Client::new(proc.addr);
    for k in &mix.hot {
        let resp = client
            .request("POST", "/synthesize", &k.body(&k.src))
            .map_err(|e| format!("prime {}: {e}", k.name))?;
        check(&resp, k, false).map_err(|e| format!("prime: {e}"))?;
    }
    Ok(())
}

/// A `FileStore` journal that times each durable append.
struct TimedStore {
    inner: FileStore,
    append_ms: Mutex<Vec<f64>>,
}

impl CacheStore for TimedStore {
    fn write(&self, bytes: &[u8]) -> io::Result<()> {
        self.inner.write(bytes)
    }

    fn read(&self) -> io::Result<Option<Vec<u8>>> {
        self.inner.read()
    }

    fn append(&self, record: &[u8]) -> io::Result<()> {
        let t = Instant::now();
        let res = self.inner.append(record);
        self.append_ms
            .lock()
            .expect("no append panicked")
            .push(ms(t.elapsed()));
        res
    }

    fn read_journal(&self) -> io::Result<Option<Vec<u8>>> {
        self.inner.read_journal()
    }

    fn clear_journal(&self) -> io::Result<()> {
        self.inner.clear_journal()
    }
}
