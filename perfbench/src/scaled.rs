//! `scaled`: one op is one full `Parsed::run` of the dummy-padded
//! fork/join controller with ten branches — 2,097,154 raw states that
//! pre-reduction brings down to 118,100 built ones — against a fresh
//! `SynthCache`, followed by repeats of the same run that the cache
//! answers. The seed permutes the order the branches are declared in;
//! the canonical fingerprint, and so the outcome, stays the same.

use std::fmt::Write as _;
use std::time::Instant;

use reshuffle::{Pipeline, PipelineOptions, Stage, SynthCache};
use reshuffle_petri::{canonical_fingerprint, parse_g};

use crate::chain::{self, Memo, Source};
use crate::trace::Tracer;
use crate::util::{ms, Rng};
use crate::{Layers, Outcome, Samples};

/// Branches of the scaled controller.
pub const N: usize = 10;

/// Cache-answered repeats after each cold run: about a hundred hit
/// samples per run, at a few percent of the op's time.
const HIT_REPEATS: usize = 16;

/// Built states after pre-reduction: the plain controller's
/// closed form `2 * 3^n + 2`.
pub const BUILT_STATES: usize = 2 * 3usize.pow(N as u32) + 2;

/// `reshuffle_bench::examples::scaled_pipeline_padded(n)` with its
/// branches declared in `order`.
fn padded_source(n: usize, order: &[usize]) -> String {
    let mut g = String::new();
    let _ = writeln!(g, ".model scaled{n}");
    let _ = write!(g, ".inputs go");
    for i in 1..=n {
        let _ = write!(g, " a{i}");
    }
    let _ = write!(g, "\n.outputs done");
    for i in 1..=n {
        let _ = write!(g, " r{i}");
    }
    let _ = write!(g, "\n.dummy");
    for i in 1..=n {
        let _ = write!(g, " pu{i} pd{i}");
    }
    let _ = writeln!(g, "\n.graph");
    for &i in order {
        let _ = writeln!(g, "go+ r{i}+\nr{i}+ pu{i}\npu{i} a{i}+\na{i}+ done+");
    }
    let _ = writeln!(g, "done+ go-");
    for &i in order {
        let _ = writeln!(g, "go- r{i}-\nr{i}- pd{i}\npd{i} a{i}-\na{i}- done-");
    }
    let _ = writeln!(g, "done- go+\n.marking {{ <done-,go+> }}\n.end");
    g
}

pub struct Scaled {
    src: String,
    opts: PipelineOptions,
    reference_literals: u64,
}

impl Scaled {
    pub fn setup(seed: u64, reference_literals: u64) -> Result<Scaled, String> {
        let mut order: Vec<usize> = (1..=N).collect();
        Rng::new(seed).shuffle(&mut order);
        let src = padded_source(N, &order);
        let canonical = reshuffle_bench::examples::scaled_pipeline_padded(N);
        let fp = |g: &str| {
            parse_g(g)
                .map(|s| canonical_fingerprint(&s))
                .map_err(|e| e.to_string())
        };
        if fp(&src)? != fp(&canonical)? {
            return Err("permuted scaled spec changed its canonical fingerprint".to_string());
        }
        // Warm-up on the eight-branch controller: every layer the op
        // uses (13,124 codes, so the BDD minimizer too) at a tenth of
        // the cost.
        let warm = reshuffle_bench::examples::scaled_pipeline_padded(8);
        Pipeline::from_g(&warm)
            .and_then(|p| p.run(&PipelineOptions::default()))
            .map_err(|e| format!("warm-up: {e}"))?;
        Ok(Scaled {
            src,
            opts: PipelineOptions::default(),
            reference_literals,
        })
    }

    pub fn run(&self, seconds: f64, traced: bool, tr: &mut Tracer) -> Outcome {
        let mut samples = Samples::default();
        let mut layers = Layers::default();
        let mut out = Outcome::default();
        // (netlist, state-graph fingerprint) of the last untraced op.
        let mut expect: Option<(String, u64)> = None;
        let (mut hits, mut lookups) = (0u64, 0u64);
        let start = Instant::now();
        let mut op = 0u64;
        while op < 1 + u64::from(traced) || start.elapsed().as_secs_f64() < seconds {
            let mut problems = Vec::new();
            if traced && op % 2 == 1 {
                tr.begin_op(op);
                let root = tr.open("op");
                let res = chain::replay(tr, Source::G(&self.src), &self.opts, &mut Memo::new());
                tr.close(root);
                match res {
                    Ok(s) => {
                        let seen = (s.netlist.describe(), s.sg.fingerprint());
                        if expect.as_ref() != Some(&seen) {
                            problems.push("traced replay differs from Parsed::run".to_string());
                        }
                    }
                    Err(e) => problems.push(format!("traced replay: {e}")),
                }
            } else {
                let cache = SynthCache::new();
                let t = Instant::now();
                let done =
                    Pipeline::from_g(&self.src).and_then(|p| p.with_cache(&cache).run(&self.opts));
                let op_ms = ms(t.elapsed());
                match done {
                    Ok(done) => {
                        let states = done
                            .diagnostics()
                            .stage(Stage::Expand)
                            .and_then(|r| r.states);
                        if states != Some(BUILT_STATES) {
                            problems.push(format!("built states {states:?} != {BUILT_STATES}"));
                        }
                        let lits = crate::util::netlist_literals(done.netlist());
                        samples.literals = lits as f64;
                        if lits != self.reference_literals {
                            problems.push(format!(
                                "netlist literals {lits} != reference {}",
                                self.reference_literals
                            ));
                        }
                        expect =
                            Some((done.netlist().describe(), done.synthesis().sg.fingerprint()));
                        for _ in 0..HIT_REPEATS {
                            let t = Instant::now();
                            let hit = chain::run_library(Source::G(&self.src), &self.opts, &cache);
                            samples.hit_ms.push(ms(t.elapsed()));
                            match hit {
                                Ok((_, true)) => {}
                                Ok((_, false)) => {
                                    problems.push("repeat missed the cache".to_string())
                                }
                                Err(e) => problems.push(format!("repeat: {e}")),
                            }
                        }
                    }
                    Err(e) => problems.push(e.to_string()),
                }
                hits += cache.hits();
                lookups += cache.hits() + cache.misses();
                samples.op_ms.push(op_ms);
                samples.miss_ms.push(op_ms);
                if traced {
                    layers.untraced_op_ms.push(op_ms);
                }
            }
            out.record(problems);
            op += 1;
        }
        samples.elapsed_s = start.elapsed().as_secs_f64();
        layers.cache_hit_ratio = if lookups == 0 {
            0.0
        } else {
            hits as f64 / lookups as f64
        };
        layers.cache_lookup_us = crate::util::median(&samples.hit_ms) * 1e3;
        out.samples = samples;
        out.layers = layers;
        out
    }
}
