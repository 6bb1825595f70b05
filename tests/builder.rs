//! Corpus-wide equivalence of the two ways to drive the `Pipeline`
//! builder: for every example in `reshuffle_bench::examples` and every
//! pipeline mode the golden suite pins, the builder driven stage by
//! stage must reproduce the `run()` shortcut — a byte-identical
//! netlist, identical artifacts (inserted signals, serializing moves,
//! expansion choices), and the identical golden-pin row; failures must
//! carry the identical error message.

mod common;

use common::golden_line;
use reshuffle::{
    Diagnostics, ExpansionOptions, Pipeline, PipelineError, PipelineOptions, ReduceOptions, Stage,
    Synthesis,
};
use reshuffle_bench::examples;

/// The four pipeline modes the golden suite pins per corpus entry.
fn modes() -> Vec<(&'static str, PipelineOptions)> {
    vec![
        ("default", PipelineOptions::new()),
        (
            "reduce",
            PipelineOptions::new().with_reduce(ReduceOptions::default()),
        ),
        (
            "expand",
            PipelineOptions::new().with_expand(ExpansionOptions::default()),
        ),
        (
            "exp+red",
            PipelineOptions::new()
                .with_expand(ExpansionOptions::default())
                .with_reduce(ReduceOptions::default()),
        ),
    ]
}

/// Drives the builder one stage transition at a time, mirroring what
/// `opts` encodes — the manual chain a caller inspecting intermediate
/// artifacts would write.
fn staged(src: &str, opts: &PipelineOptions) -> Result<(Synthesis, Diagnostics), PipelineError> {
    let parsed = Pipeline::from_g(src)?;
    let expanded = match &opts.expand {
        Some(eopts) => parsed.expand(eopts)?,
        None => parsed.complete()?,
    };
    let reduced = match &opts.reduce {
        Some(ropts) => expanded.reduce(ropts)?,
        None => expanded.skip_reduce(),
    };
    let resolved = reduced.resolve(&opts.csc)?;
    let done = if opts.skip_verify {
        resolved.synthesize_unverified(opts.style)?
    } else {
        resolved.synthesize(opts.style)?
    };
    Ok(done.into_parts())
}

/// Asserts two outcomes identical: same golden-pin row (the renderer
/// shared with the golden-corpus suite, so the comparison is against
/// the real pin format), and — on success — byte-identical netlists,
/// STGs, state graphs and per-stage artifacts (including the fields
/// the pin format omits for some modes).
fn assert_same(
    name: &str,
    mode: &str,
    what: &str,
    reference: &Result<Synthesis, PipelineError>,
    other: &Result<Synthesis, PipelineError>,
) {
    assert_eq!(
        golden_line(name, mode, reference),
        golden_line(name, mode, other),
        "{name}/{mode}: {what} drifted from run()"
    );
    if let (Ok(a), Ok(b)) = (reference, other) {
        assert_eq!(
            a.netlist.describe(),
            b.netlist.describe(),
            "{name}/{mode}: {what} netlist is not byte-identical"
        );
        assert_eq!(
            reshuffle_petri::write_g(&a.stg),
            reshuffle_petri::write_g(&b.stg),
            "{name}/{mode}: {what} synthesized STG drifted"
        );
        assert_eq!(
            a.sg.fingerprint(),
            b.sg.fingerprint(),
            "{name}/{mode}: {what} state graph drifted"
        );
        assert_eq!(a.moves, b.moves, "{name}/{mode}: {what} move steps drifted");
        assert_eq!(
            a.inserted, b.inserted,
            "{name}/{mode}: {what} inserted signals drifted"
        );
        assert_eq!(
            a.expansion, b.expansion,
            "{name}/{mode}: {what} expansion choices drifted"
        );
    }
}

#[test]
fn builder_matches_legacy_across_the_corpus() {
    for (name, src) in examples::ALL {
        for (mode, opts) in modes() {
            let via_run = Pipeline::from_g(src)
                .and_then(|p| p.run(&opts))
                .map(|done| done.into_synthesis());
            let via_stages = staged(src, &opts).map(|(s, _)| s);
            assert_same(name, mode, "staged chain", &via_run, &via_stages);
        }
    }
}

#[test]
fn staged_diagnostics_cover_the_executed_stages() {
    for (name, src) in examples::ALL {
        for (mode, opts) in modes() {
            let Ok((_, diag)) = staged(src, &opts) else {
                continue; // failing modes are covered by the suite above
            };
            assert!(
                diag.stage(Stage::Parse).is_some(),
                "{name}/{mode}: no parse report"
            );
            assert!(
                diag.stage(Stage::Expand).is_some(),
                "{name}/{mode}: no expand report"
            );
            assert_eq!(
                diag.stage(Stage::Reduce).is_some(),
                opts.reduce.is_some(),
                "{name}/{mode}: reduce report does not match the options"
            );
            let resolve = diag
                .stage(Stage::Resolve)
                .unwrap_or_else(|| panic!("{name}/{mode}: no resolve report"));
            let synth = diag
                .stage(Stage::Synthesize)
                .unwrap_or_else(|| panic!("{name}/{mode}: no synthesize report"));
            assert!(synth.candidates >= Some(1), "{name}/{mode}: nothing ranked");
            assert!(
                resolve.states.is_some(),
                "{name}/{mode}: resolve lost the state count"
            );
            assert!(
                diag.total_wall().as_nanos() > 0,
                "{name}/{mode}: no wall time recorded"
            );
        }
    }
}

#[test]
fn run_with_cache_replays_every_mode_identically() {
    // One shared cache across the whole corpus: a second pass over all
    // entries and modes must be answered entirely from the cache, with
    // identical netlists and no stage work recorded.
    let cache = reshuffle::SynthCache::new();
    let mut first: Vec<(String, String)> = Vec::new();
    for (name, src) in examples::ALL {
        for (mode, opts) in modes() {
            if let Ok(done) = Pipeline::from_g(src).unwrap().with_cache(&cache).run(&opts) {
                first.push((format!("{name}/{mode}"), done.netlist().describe()));
            }
        }
    }
    let misses_after_first = cache.misses();
    let mut second = Vec::new();
    for (name, src) in examples::ALL {
        for (mode, opts) in modes() {
            if let Ok(done) = Pipeline::from_g(src).unwrap().with_cache(&cache).run(&opts) {
                assert_eq!(done.diagnostics().cache_hits, 1, "{name}/{mode}: not a hit");
                assert!(
                    done.diagnostics().stage(Stage::Synthesize).is_none(),
                    "{name}/{mode}: re-synthesis timing recorded on a cache hit"
                );
                second.push((format!("{name}/{mode}"), done.netlist().describe()));
            }
        }
    }
    assert_eq!(first, second, "cached replay drifted");
    assert_eq!(
        cache.hits(),
        first.len() as u64,
        "every successful mode must replay from the cache"
    );
    // Failing modes miss again (they cache nothing), successes do not.
    assert_eq!(cache.misses(), misses_after_first * 2 - first.len() as u64);
}
