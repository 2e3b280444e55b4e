//! `serd-repro` — command-line interface to the SERD pipeline.
//!
//! ```text
//! serd-repro generate   --dataset restaurant --scale 0.05 --out data/
//! serd-repro fit        --dataset restaurant --scale 0.05 --out model.serd [--seed N]
//! serd-repro synthesize --dataset restaurant --scale 0.05 --out syn/ [--no-rejection] [--seed N]
//! serd-repro synthesize --model model.serd --out syn/ [--seed N] [--no-rejection]
//!                       [--alpha A] [--beta B] [--max-retries R] [--n-a N] [--n-b N]
//! serd-repro evaluate   --dataset restaurant --scale 0.05 [--seed N]
//! serd-repro serve      --models models/ [--addr 127.0.0.1:7878] [--workers N]
//! ```
//!
//! `generate` writes the simulated real dataset as CSV; `fit` runs the
//! offline phase only and saves the fitted model as a versioned
//! `serd-model-v1` artifact; `synthesize` runs the online phase — against a
//! freshly fitted model, or against a `--model` artifact — and writes
//! `A_syn.csv` / `B_syn.csv` / `matches_syn.csv`; `evaluate` reports
//! matcher-quality and privacy metrics for a fresh synthesis run; `serve`
//! exposes a directory of artifacts over HTTP (DESIGN.md §12).
//!
//! Option parsing lives in [`cli`]; the pipeline verbs are thin wrappers
//! over [`serd::api`], the same typed facade the HTTP server uses — so a
//! `synthesize --model` run and a `/synthesize` request with the same
//! parameters produce byte-identical records, and both report failures from
//! the same [`ApiError`] taxonomy (as exit codes here, HTTP statuses there).

mod cli;

use cli::{
    Command, EvaluateOpts, FitOpts, GenerateOpts, ProfileOpts, ServeOpts, SynthesizeOpts,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serd_repro::er_core::csv;
use serd_repro::prelude::*;
use serd_repro::serd::api::{
    self, ApiError, ModelRef, OnlineOverrides, SynthesisRequest, Table,
};
use std::path::Path;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let command = match cli::parse(&args) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("error: {e}\n\n{}", cli::USAGE);
            return ExitCode::from(e.exit_code());
        }
    };
    let result = match command {
        Command::Help => {
            println!("{}", cli::USAGE);
            return ExitCode::SUCCESS;
        }
        Command::Generate(o) => cmd_generate(&o),
        Command::Fit(o) => cmd_fit(&o),
        Command::Synthesize(o) => cmd_synthesize(&o),
        Command::Evaluate(o) => cmd_evaluate(&o),
        Command::Profile(o) => cmd_profile(&o),
        Command::Serve(o) => cmd_serve(&o),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(e.exit_code())
        }
    }
}

fn simulate(common: &cli::CommonOpts) -> (SimulatedDataset, StdRng) {
    let mut rng = StdRng::seed_from_u64(common.seed);
    let sim = serd_repro::datagen::generate_with_min_matches(
        common.dataset,
        common.scale,
        common.min_matches,
        &mut rng,
    );
    (sim, rng)
}

/// `--data <dir>`: stream a previously generated CSV directory back in;
/// otherwise simulate in process. Either way the pipeline RNG starts from
/// `--seed`.
fn load_or_simulate(
    common: &cli::CommonOpts,
    data: Option<&Path>,
) -> Result<(SimulatedDataset, StdRng), ApiError> {
    match data {
        Some(dir) => {
            let sim = serd_repro::datagen::ingest_dir(common.dataset, dir)
                .map_err(|e| ApiError::Io(format!("ingest {}: {e}", dir.display())))?;
            println!(
                "ingested {} from {}: |A|={} |B|={} matches={}",
                common.dataset.name(),
                dir.display(),
                sim.er.a().len(),
                sim.er.b().len(),
                sim.er.num_matches()
            );
            Ok((sim, StdRng::seed_from_u64(common.seed)))
        }
        None => Ok(simulate(common)),
    }
}

fn write_file(dir: &str, name: &str, contents: &str) -> Result<(), ApiError> {
    let path = Path::new(dir).join(name);
    std::fs::create_dir_all(dir).map_err(|e| ApiError::Io(format!("create {dir}: {e}")))?;
    std::fs::write(&path, contents)
        .map_err(|e| ApiError::Io(format!("write {}: {e}", path.display())))?;
    println!("wrote {}", path.display());
    Ok(())
}

/// Applies the offline-facing knob overrides to a config about to be fitted
/// (the request-time equivalent lives in [`OnlineOverrides::apply`]).
fn apply_fit_overrides(mut cfg: SerdConfig, ov: &OnlineOverrides) -> SerdConfig {
    if ov.rejection == Some(false) {
        cfg = cfg.without_rejection();
    }
    if let Some(a) = ov.alpha {
        cfg.alpha = a;
    }
    if let Some(b) = ov.beta {
        cfg.beta = b;
    }
    if let Some(r) = ov.max_retries {
        cfg.max_retries = r;
    }
    cfg
}

/// Streams a relation to `<dir>/<name>` without materializing the CSV text.
fn write_relation_file(
    dir: &str,
    name: &str,
    r: &serd_repro::er_core::Relation,
) -> Result<(), ApiError> {
    std::fs::create_dir_all(dir).map_err(|e| ApiError::Io(format!("create {dir}: {e}")))?;
    let path = Path::new(dir).join(name);
    let file = std::fs::File::create(&path)
        .map_err(|e| ApiError::Io(format!("create {}: {e}", path.display())))?;
    csv::write_relation_csv(std::io::BufWriter::new(file), r)
        .map_err(|e| ApiError::Io(format!("write {}: {e}", path.display())))?;
    println!("wrote {}", path.display());
    Ok(())
}

fn cmd_generate(opts: &GenerateOpts) -> Result<(), ApiError> {
    if let Some(entities) = opts.entities {
        // Large-scale path: every row is derived, written, and dropped —
        // peak memory is one row regardless of `--entities`.
        let spec =
            serd_repro::datagen::ScaleSpec::for_entities(opts.common.dataset, entities);
        let stats =
            serd_repro::datagen::export_dir(&spec, opts.common.seed, Path::new(&opts.out))
                .map_err(|e| ApiError::Io(format!("stream to {}: {e}", opts.out)))?;
        println!(
            "streamed {}: |A|={} |B|={} matches={} -> {}",
            opts.common.dataset.name(),
            stats.rows_a,
            stats.rows_b,
            stats.matches,
            opts.out
        );
        return Ok(());
    }
    let (sim, _) = simulate(&opts.common);
    println!(
        "simulated {}: |A|={} |B|={} matches={}",
        opts.common.dataset.name(),
        sim.er.a().len(),
        sim.er.b().len(),
        sim.er.num_matches()
    );
    write_relation_file(&opts.out, "A.csv", sim.er.a())?;
    write_relation_file(&opts.out, "B.csv", sim.er.b())?;
    write_file(&opts.out, "matches.csv", &api::matches_csv(&sim.er))?;
    for (col, corpus) in sim.text_columns() {
        let name = format!("background_col{col}.txt");
        write_file(&opts.out, &name, &corpus.join("\n"))?;
    }
    Ok(())
}

/// `fit`'s `--out` names the model artifact itself; pointing it at a
/// directory drops `model.serd` inside it.
fn model_out_path(out: &str) -> std::path::PathBuf {
    let p = Path::new(out);
    if out == "." || p.is_dir() {
        p.join("model.serd")
    } else {
        p.to_path_buf()
    }
}

fn cmd_fit(opts: &FitOpts) -> Result<(), ApiError> {
    let (sim, mut rng) = load_or_simulate(&opts.common, opts.data.as_deref())?;
    let cfg =
        apply_fit_overrides(SerdConfig::fast(), &opts.overrides).with_backend(opts.backend);
    println!(
        "fitting SERD on {} ({} backend) ...",
        opts.common.dataset.name(),
        opts.backend
    );
    let t_fit = std::time::Instant::now();
    let model = SerdSynthesizer::fit(&sim.er, &sim.background, cfg, &mut rng)?;
    let path = model_out_path(&opts.out);
    if let Some(dir) = path.parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir)
                .map_err(|e| ApiError::Io(format!("create {}: {e}", dir.display())))?;
        }
    }
    model.save_to(&path)?;
    println!(
        "offline done in {:.1}s (DP eps at 1e-5: {:.3})",
        t_fit.elapsed().as_secs_f64(),
        model.epsilon
    );
    println!("wrote {}", path.display());
    if serd_repro::obs::enabled() {
        eprintln!("{}", SerdSynthesizer::from_model(model).run_report());
    }
    Ok(())
}

fn cmd_synthesize(opts: &SynthesizeOpts) -> Result<(), ApiError> {
    // Both branches produce a synthesizer plus the request to run against
    // it. With --model the overrides ride on the request (validated against
    // the artifact); with a fresh fit they shape the config before fitting,
    // so the request itself is override-free.
    let (synthesizer, request) = match &opts.model {
        Some(path) => {
            let model = api::load_model(path)?;
            println!(
                "loaded model {} (DP eps at 1e-5: {:.3}); synthesizing ...",
                path.display(),
                model.epsilon
            );
            let request = SynthesisRequest {
                model: ModelRef::Path(path.clone()),
                seed: opts.common.seed,
                n_a: opts.n_a,
                n_b: opts.n_b,
                overrides: opts.overrides.clone(),
            };
            (SerdSynthesizer::from_model(model), request)
        }
        None => {
            let (sim, mut rng) = simulate(&opts.common);
            let mut cfg = apply_fit_overrides(SerdConfig::fast(), &opts.overrides);
            cfg.n_a = opts.n_a.or(cfg.n_a);
            cfg.n_b = opts.n_b.or(cfg.n_b);
            println!("fitting SERD on {} ...", opts.common.dataset.name());
            let t_fit = std::time::Instant::now();
            let model = SerdSynthesizer::fit(&sim.er, &sim.background, cfg, &mut rng)?;
            println!(
                "offline done in {:.1}s (DP eps at 1e-5: {:.3}); synthesizing ...",
                t_fit.elapsed().as_secs_f64(),
                model.epsilon
            );
            let mut request = SynthesisRequest::new(ModelRef::Name("fresh-fit".to_string()));
            request.seed = opts.common.seed;
            (SerdSynthesizer::from_model(model), request)
        }
    };
    let t_syn = std::time::Instant::now();
    let response = api::synthesize(&synthesizer, &request)?;
    println!(
        "synthesized |A|={} |B|={} matches={} in {:.1}s ({} rejected by D, {} by JSD)",
        response.er().a().len(),
        response.er().b().len(),
        response.er().num_matches(),
        t_syn.elapsed().as_secs_f64(),
        response.stats().rejected_discriminator,
        response.stats().rejected_distribution,
    );
    write_file(&opts.out, "A_syn.csv", &response.csv(Table::A))?;
    write_file(&opts.out, "B_syn.csv", &response.csv(Table::B))?;
    write_file(&opts.out, "matches_syn.csv", &response.csv(Table::Matches))?;
    if serd_repro::obs::enabled() {
        eprintln!("{}", synthesizer.run_report());
    }
    Ok(())
}

fn cmd_evaluate(opts: &EvaluateOpts) -> Result<(), ApiError> {
    let (sim, mut rng) = load_or_simulate(&opts.common, opts.data.as_deref())?;
    let mut cfg = SerdConfig::fast();
    if opts.no_rejection {
        cfg = cfg.without_rejection();
    }
    let model = SerdSynthesizer::fit(&sim.er, &sim.background, cfg, &mut rng)?;
    let synthesizer = SerdSynthesizer::from_model(model);
    let out = synthesizer
        .synthesize(&mut rng)
        .map_err(ApiError::from)?;

    println!("== model evaluation (train on Real vs SERD, test on real T) ==");
    for kind in [MatcherKind::Magellan, MatcherKind::Deepmatcher] {
        let eval = model_evaluation(kind, &sim.er, &[("SERD", &out.er)], 4, 0.3, &mut rng);
        println!(
            "{:<12} Real: {}   SERD: {}   |dF1| {:.1}%",
            kind.name(),
            eval.rows[0].1,
            eval.rows[1].1,
            100.0 * eval.rows[1].1.abs_diff(&eval.rows[0].1).f1
        );
    }
    println!("== privacy ==");
    println!(
        "hitting rate {:.3}%   DCR {:.3}   DP eps(1e-5) {:.3}",
        hitting_rate(&sim.er, &out.er, 0.9),
        dcr(&sim.er, &out.er),
        synthesizer.epsilon()
    );
    Ok(())
}

fn cmd_profile(opts: &ProfileOpts) -> Result<(), ApiError> {
    use serd_repro::er_core::profile::{profile, render_table};
    let (sim, mut rng) = simulate(&opts.common);
    println!("== {} (real, relation A) ==", opts.common.dataset.name());
    print!("{}", render_table(&profile(sim.er.a())));
    let mut cfg = SerdConfig::fast();
    if opts.no_rejection {
        cfg = cfg.without_rejection();
    }
    let model = SerdSynthesizer::fit(&sim.er, &sim.background, cfg, &mut rng)?;
    let synthesizer = SerdSynthesizer::from_model(model);
    let out = synthesizer
        .synthesize(&mut rng)
        .map_err(ApiError::from)?;
    println!(
        "\n== {} (synthesized, relation A) ==",
        opts.common.dataset.name()
    );
    print!("{}", render_table(&profile(out.er.a())));
    Ok(())
}

fn cmd_serve(opts: &ServeOpts) -> Result<(), ApiError> {
    let cfg = serd_repro::serve::ServeConfig {
        models_dir: opts.models.clone(),
        addr: opts.addr.clone(),
        workers: opts.workers,
        ..Default::default()
    };
    let server = serd_repro::serve::Server::bind(&cfg)?;
    println!(
        "serving {} model(s) from {} on http://{} ({} workers)",
        server.cache().list_names().len(),
        cfg.models_dir.display(),
        server.local_addr(),
        opts.workers,
    );
    println!(
        "keep-alive: {} req/conn, idle {} ms; cache budget {} B; queue depth {}; watch {} ms",
        cfg.keepalive_max, cfg.idle_ms, cfg.cache_budget, cfg.queue_depth, cfg.watch_ms,
    );
    println!("endpoints: /healthz  /models  /metrics  /synthesize?model=<name>&seed=<u64>");
    server.run();
    Ok(())
}
