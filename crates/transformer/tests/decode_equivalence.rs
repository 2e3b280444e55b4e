//! Bit-identity proofs for the KV-cached inference path (DESIGN.md §11).
//!
//! The incremental decoder is only allowed to exist because its logits are
//! `.to_bits()`-identical to the full O(T²) re-decode. These tests pin that
//! claim on randomly initialized models across random prefixes, for one lane
//! and for several lanes that feed different prefixes and retire at
//! different steps, at the tiny and the paper shape, plus the
//! sampling-stream contracts built on top of it: batched lockstep lanes
//! reproduce serial per-seed generation exactly, single-lane generation
//! reproduces the historical full-redecode loop exactly, and observability
//! being on or off never changes an emitted token.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use transformer::model::frame;
use transformer::vocab::{BOS, EOS, PAD};
use transformer::{BatchDecoder, EncodedSource, Seq2SeqTransformer, TransformerConfig};

const VOCAB: usize = 24;

fn tiny_model(seed: u64) -> Seq2SeqTransformer {
    Seq2SeqTransformer::new(TransformerConfig::tiny(VOCAB), &mut StdRng::seed_from_u64(seed))
}

/// Random non-special token ids (specials occupy 0..4).
fn ids_strategy(max_len: usize) -> impl Strategy<Value = Vec<usize>> {
    proptest::collection::vec(4usize..VOCAB, 1..=max_len)
}

/// The sampling rule of `Seq2SeqTransformer::generate_lanes`, replicated so
/// the test can drive the reference loops independently.
fn sample_reference<R: Rng + ?Sized>(logits: &[f32], temperature: f32, rng: &mut R) -> usize {
    let forbidden = |i: usize| i == PAD || i == BOS;
    if temperature <= 0.0 {
        return logits
            .iter()
            .enumerate()
            .filter(|(i, _)| !forbidden(*i))
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
            .map(|(i, _)| i)
            .unwrap_or(EOS);
    }
    let scaled: Vec<f32> = logits
        .iter()
        .enumerate()
        .map(|(i, &v)| if forbidden(i) { f32::NEG_INFINITY } else { v / temperature })
        .collect();
    let m = scaled.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
    let exps: Vec<f32> = scaled.iter().map(|&v| (v - m).exp()).collect();
    let z: f32 = exps.iter().sum();
    let mut u: f32 = rng.gen::<f32>() * z;
    for (i, &e) in exps.iter().enumerate() {
        if u < e {
            return i;
        }
        u -= e;
    }
    EOS
}

/// The serial reference generator: one lane of a KV-cached decoder,
/// sampling from the caller's RNG token by token.
fn serial_generate<R: Rng + ?Sized>(
    model: &Seq2SeqTransformer,
    enc: &EncodedSource,
    max_out: usize,
    temperature: f32,
    rng: &mut R,
) -> Vec<usize> {
    let limit = max_out.min(model.config().max_len - 1);
    let mut dec = BatchDecoder::new(model, enc, 1, limit);
    let mut out = Vec::new();
    let mut last = BOS;
    for _ in 0..limit {
        let id = sample_reference(dec.step(&[(0, last)]), temperature, rng);
        if id == EOS {
            break;
        }
        out.push(id);
        last = id;
    }
    out
}

/// The pre-KV-cache generation loop: full re-decode per emitted token.
fn reference_generate<R: Rng + ?Sized>(
    model: &Seq2SeqTransformer,
    src: &[usize],
    max_out: usize,
    temperature: f32,
    rng: &mut R,
) -> Vec<usize> {
    let memory = model.encode(&frame(src));
    let mut out: Vec<usize> = vec![BOS];
    let limit = max_out.min(model.config().max_len - 1);
    for _ in 0..limit {
        let logits = model.decode(&out, &memory);
        let data = logits.value();
        let id = sample_reference(data.row(data.rows() - 1), temperature, rng);
        if id == EOS {
            break;
        }
        out.push(id);
    }
    out.remove(0);
    out
}

/// Feeds lane `l` the tokens `prefixes[l]` in lockstep; a lane leaves the
/// batch once its prefix is exhausted, and the live lanes are listed in a
/// different rotation at every step. Every logits row must be bitwise the
/// full decode's row for that lane's prefix.
fn lanes_match_full_decode(
    model: &Seq2SeqTransformer,
    src: &[usize],
    prefixes: &[Vec<usize>],
) -> Result<(), TestCaseError> {
    let vocab = model.config().vocab;
    let memory = model.encode(&frame(src));
    let full: Vec<_> = prefixes
        .iter()
        .map(|p| model.decode(p, &memory).value())
        .collect();
    let enc = model.encode_source(src);
    let steps = prefixes.iter().map(Vec::len).max().unwrap_or(0);
    let mut dec = BatchDecoder::new(model, &enc, prefixes.len(), steps);
    for i in 0..steps {
        let mut feeds: Vec<(usize, usize)> = (0..prefixes.len())
            .filter(|&l| i < prefixes[l].len())
            .map(|l| (l, prefixes[l][i]))
            .collect();
        let turn = i % feeds.len();
        feeds.rotate_left(turn);
        let logits = dec.step(&feeds);
        prop_assert_eq!(logits.len(), feeds.len() * vocab);
        for (row, &(lane, _)) in logits.chunks_exact(vocab).zip(&feeds) {
            for (a, b) in row.iter().zip(full[lane].row(i)) {
                prop_assert_eq!(a.to_bits(), b.to_bits(), "lane {} position {}", lane, i);
            }
        }
    }
    Ok(())
}

/// `BOS` followed by `tokens`: the decoder prefix the generators feed.
fn prefixed(tokens: &[usize]) -> Vec<usize> {
    let mut prefix = vec![BOS];
    prefix.extend_from_slice(tokens);
    prefix
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn encoder_memory_is_bit_identical(
        seed in any::<u64>(),
        src in ids_strategy(12),
    ) {
        let model = tiny_model(seed);
        let enc = model.encode_source(&src);
        let full = model.encode(&frame(&src)).value();
        prop_assert_eq!(enc.memory().shape(), full.shape());
        for r in 0..full.rows() {
            for (a, b) in enc.memory().row(r).iter().zip(full.row(r)) {
                prop_assert_eq!(a.to_bits(), b.to_bits(), "memory row {}", r);
            }
        }
    }

    #[test]
    fn kv_cached_logits_match_full_decode_bitwise(
        seed in any::<u64>(),
        src in ids_strategy(10),
        tgt in ids_strategy(10),
    ) {
        lanes_match_full_decode(&tiny_model(seed), &src, &[prefixed(&tgt)])?;
    }

    #[test]
    fn multi_lane_logits_match_each_lanes_full_decode_bitwise(
        seed in any::<u64>(),
        src in ids_strategy(10),
        tgts in proptest::collection::vec(ids_strategy(10), 3..=5),
    ) {
        let prefixes: Vec<Vec<usize>> = tgts.iter().map(|t| prefixed(t)).collect();
        lanes_match_full_decode(&tiny_model(seed), &src, &prefixes)?;
    }

    #[test]
    fn batched_lanes_match_serial_per_seed_generation(
        seed in any::<u64>(),
        src in ids_strategy(10),
        lane_seeds in proptest::collection::vec(any::<u64>(), 1..6),
        temp_idx in 0usize..3,
    ) {
        let temp = [0.0f32, 0.8, 1.5][temp_idx];
        let model = tiny_model(seed);
        let enc = model.encode_source(&src);
        let batched = model.generate_lanes(&enc, &lane_seeds, 16, temp);
        let serial: Vec<Vec<usize>> = lane_seeds
            .iter()
            .map(|&s| serial_generate(&model, &enc, 16, temp, &mut StdRng::seed_from_u64(s)))
            .collect();
        prop_assert_eq!(batched, serial);
    }

    #[test]
    fn generate_matches_historical_full_redecode_loop(
        seed in any::<u64>(),
        src in ids_strategy(10),
        rng_seed in any::<u64>(),
        temp_idx in 0usize..2,
    ) {
        let temp = [0.0f32, 0.9][temp_idx];
        let model = tiny_model(seed);
        let enc = model.encode_source(&src);
        let fast = serial_generate(&model, &enc, 16, temp, &mut StdRng::seed_from_u64(rng_seed));
        let slow = reference_generate(&model, &src, 16, temp, &mut StdRng::seed_from_u64(rng_seed));
        prop_assert_eq!(&fast, &slow);
        // A one-seed batch is the same lane.
        prop_assert_eq!(model.generate_lanes(&enc, &[rng_seed], 16, temp).remove(0), slow);
    }

    #[test]
    fn observability_mode_never_changes_tokens(
        seed in any::<u64>(),
        src in ids_strategy(8),
        lane_seeds in proptest::collection::vec(any::<u64>(), 1..4),
    ) {
        let model = tiny_model(seed);
        let enc = model.encode_source(&src);
        obs::set_mode(obs::Mode::Off);
        let off = model.generate_lanes(&enc, &lane_seeds, 12, 0.8);
        obs::set_mode(obs::Mode::Json);
        let on = model.generate_lanes(&enc, &lane_seeds, 12, 0.8);
        obs::set_mode(obs::Mode::Off);
        prop_assert_eq!(off, on);
    }
}

/// The paper's architecture with 12 lanes: the batched projections cross
/// the matmul kernel's parallel threshold, so this runs the row-blocked
/// path, serially and on two threads.
#[test]
fn paper_shape_lanes_match_full_decode_on_serial_and_pooled_matmul() {
    let model = Seq2SeqTransformer::new(
        TransformerConfig::paper(VOCAB),
        &mut StdRng::seed_from_u64(17),
    );
    let mut rng = StdRng::seed_from_u64(18);
    let src: Vec<usize> = (0..9).map(|_| rng.gen_range(4..VOCAB)).collect();
    let prefixes: Vec<Vec<usize>> = (0..12)
        .map(|lane| {
            let tokens: Vec<usize> = (0..lane % 5).map(|_| rng.gen_range(4..VOCAB)).collect();
            prefixed(&tokens)
        })
        .collect();
    for threads in [1, 2] {
        parallel::with_pool(Arc::new(parallel::ThreadPool::new(threads)), || {
            lanes_match_full_decode(&model, &src, &prefixes)
        })
        .unwrap_or_else(|e| panic!("{threads} thread(s): {e:?}"));
    }
}

#[test]
fn batch_decoder_counts_kv_steps() {
    obs::set_mode(obs::Mode::Json);
    obs::reset();
    let model = tiny_model(3);
    let enc = model.encode_source(&[4, 5, 6]);
    let mut dec = BatchDecoder::new(&model, &enc, 2, 2);
    dec.step(&[(0, BOS), (1, BOS)]);
    dec.step(&[(0, 4)]);
    let report = obs::report_json();
    obs::set_mode(obs::Mode::Off);
    assert!(
        report.contains("decode.kv_cache_steps"),
        "missing counter in {report}"
    );
}
