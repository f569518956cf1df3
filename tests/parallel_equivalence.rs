//! Differential tests: each batch engine path must be *bit-identical*
//! to a reference simple enough to be obviously right — per-row
//! scoring, an in-test fold loop, the cache-free advice-row dot, a
//! repeated run.
//!
//! The engine runs every call on the calling thread; concurrency comes
//! from concurrent callers sharing one `Sync` platform. Where a test
//! varies a thread count, it is the number of such callers.

use proptest::prelude::*;
use spa::ml::cv;
use spa::ml::metrics::roc_auc;
use spa::ml::svm::{LinearSvm, SvmConfig};
use spa::prelude::*;

/// Builds owned sparse rows and their labels from proptest-generated
/// entries.
fn build_rows(dim: usize, entries: &[(u32, f64, bool)]) -> (Vec<SparseVec>, Vec<f64>) {
    entries
        .iter()
        .map(|&(idx_seed, value, positive)| {
            let mut pairs: Vec<(u32, f64)> = (0..4u32)
                .map(|j| {
                    (
                        (idx_seed.wrapping_mul(j + 1).wrapping_add(j * 13)) % dim as u32,
                        value + j as f64 * 0.25,
                    )
                })
                .collect();
            pairs.sort_unstable_by_key(|&(i, _)| i);
            pairs.dedup_by_key(|&mut (i, _)| i);
            pairs.retain(|&(_, v)| v != 0.0);
            (SparseVec::from_pairs(dim, pairs).unwrap(), if positive { 1.0 } else { -1.0 })
        })
        .unzip()
}

/// Exact (bit-level) comparison of two score vectors.
fn assert_bits_equal(a: &[f64], b: &[f64]) {
    assert_eq!(a.len(), b.len());
    for (i, (x, y)) in a.iter().zip(b.iter()).enumerate() {
        assert!(x.to_bits() == y.to_bits(), "scores diverge at row {i}: {x:?} vs {y:?}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// SVM, logistic regression and naive Bayes: `decision_batch` over
    /// the CSR store is bit-identical to `decision_function` on each
    /// owned row.
    #[test]
    fn decision_batch_matches_per_row_decision_function(
        entries in proptest::collection::vec((0u32..1000, -2.0f64..2.0, proptest::bool::ANY), 1..600),
        seed in 0u64..1000,
    ) {
        let dim = 32;
        let (rows, labels) = build_rows(dim, &entries);
        let data = Dataset::from_rows(dim, &rows, &labels).unwrap();

        let mut svm = LinearSvm::new(dim, SvmConfig { epochs: 2, seed, ..Default::default() });
        svm.fit(&data).unwrap();
        let mut logreg = LogisticRegression::with_dim(dim);
        logreg.fit(&data).unwrap();
        let mut nb = BernoulliNb::new(dim);
        nb.fit(&data).unwrap();

        let models: [&dyn Classifier; 3] = [&svm, &logreg, &nb];
        for model in models {
            let reference: Vec<f64> =
                rows.iter().map(|row| model.decision_function(row).unwrap()).collect();
            assert_bits_equal(&model.decision_batch(&data).unwrap(), &reference);
        }
    }
}

/// `cv::cross_validate` equals a fit/`roc_auc` loop written out over
/// the same folds, fold for fold and bit for bit.
#[test]
fn cross_validation_matches_fold_by_fold_reference() {
    let mut d = Dataset::new(8);
    for i in 0..400u32 {
        let y = if i % 2 == 0 { 1.0 } else { -1.0 };
        let row = SparseVec::from_pairs(8, [(i % 8, y * 1.5 + 0.1), ((i + 3) % 8, 0.4)]).unwrap();
        d.push(&row, y).unwrap();
    }
    let make = || LinearSvm::new(8, SvmConfig { epochs: 3, ..Default::default() });
    let scores = cv::cross_validate(&d, 5, 77, make).unwrap();

    let folds = cv::kfold_indices(d.len(), 5, 77).unwrap();
    assert_eq!(scores.len(), folds.len());
    for (fold, held_out) in folds.iter().enumerate() {
        let train_rows: Vec<usize> = folds
            .iter()
            .enumerate()
            .filter(|&(other, _)| other != fold)
            .flat_map(|(_, rows)| rows.iter().copied())
            .collect();
        let mut model = make();
        model.fit(&d.subset(&train_rows)).unwrap();
        let test = d.subset(held_out);
        let test_scores: Vec<f64> =
            (0..test.len()).map(|r| model.decision_view(test.x.row(r)).unwrap()).collect();
        let auc = roc_auc(&test.y, &test_scores).unwrap();
        assert_eq!(scores[fold].fold, fold);
        assert!(scores[fold].auc.to_bits() == auc.to_bits(), "fold {fold} AUC diverges");
    }
}

/// The cached batch-scoring engine (`Spa::score_users` / `rank_top_k`)
/// with 1, 2 and 5 concurrent callers on a fresh platform: every
/// caller's cold sweep (cache rows filled, possibly racing the other
/// callers) and warm sweep (rows read back) is bit-identical to the
/// cache-free reference (`selection().score(&advice_row(user))`).
#[test]
fn cached_score_users_is_identical_across_thread_counts() {
    let courses = CourseCatalog::generate(25, 5, 3).unwrap();
    let n_users = 2600u32;
    let users: Vec<UserId> = (0..n_users).map(UserId::new).collect();
    let trained_platform = || {
        let mut spa = Spa::new(&courses, SpaConfig::default());
        for (i, &user) in users.iter().enumerate() {
            let question = spa.next_eit_question(user).id;
            spa.ingest(&LifeLogEvent::new(
                user,
                Timestamp::from_millis(i as u64),
                EventKind::EitAnswer {
                    question,
                    answer: Valence::new((i as f64 / n_users as f64) * 2.0 - 1.0),
                },
            ))
            .unwrap();
        }
        let mut data = Dataset::new(75);
        for &user in users.iter().step_by(3) {
            let row = spa.advice_row(user).unwrap();
            data.push(&row, if row.get(65) > 0.5 { 1.0 } else { -1.0 }).unwrap();
        }
        spa.train_selection(&data).unwrap();
        spa
    };

    for threads in [1usize, 2, 5] {
        let spa = trained_platform();
        let reference: Vec<(UserId, f64)> = users
            .iter()
            .map(|&user| (user, spa.selection().score(&spa.advice_row(user).unwrap()).unwrap()))
            .collect();
        let mut reference_ranked = reference.clone();
        SelectionFunction::sort_by_propensity(&mut reference_ranked);

        std::thread::scope(|scope| {
            for _ in 0..threads {
                scope.spawn(|| {
                    for sweep in ["cold", "warm"] {
                        let scored = spa.score_users(&users).unwrap();
                        assert_eq!(scored.len(), reference.len());
                        for ((u_a, s_a), (u_b, s_b)) in scored.iter().zip(reference.iter()) {
                            assert_eq!(u_a, u_b, "{threads} callers, {sweep}: order diverges");
                            assert!(
                                s_a.to_bits() == s_b.to_bits(),
                                "{threads} callers, {sweep}: score diverges for {u_a}"
                            );
                        }
                    }
                    let k = 400;
                    let top = spa.rank_top_k(&users, k).unwrap();
                    assert_eq!(top.len(), k);
                    for ((u_a, s_a), (u_b, s_b)) in top.iter().zip(reference_ranked.iter()) {
                        assert_eq!(u_a, u_b, "{threads} callers: top-k diverges");
                        assert!(s_a.to_bits() == s_b.to_bits());
                    }
                });
            }
        });
    }
}

/// The full Fig 6 experiment — history build-up, training campaigns,
/// selection training, eval-campaign scoring — is byte-stable: a run on
/// the calling thread and two runs side by side on two threads agree on
/// every contact record, campaign report and aggregate metric.
#[test]
fn experiment_is_byte_stable_across_thread_counts() {
    let config = ExperimentConfig {
        n_users: 900,
        n_courses: 20,
        n_topics: 5,
        ingest_weblogs: false,
        history_eit_rounds: 6,
        n_training_campaigns: 2,
        n_eval_campaigns: 4,
        target_fraction: 0.4,
        mask_emotional: false,
        ..Default::default()
    };
    let run = || Experiment::new(config.clone()).unwrap().run().unwrap();
    let single = run();
    let side_by_side = std::thread::scope(|scope| {
        let a = scope.spawn(run);
        let b = scope.spawn(run);
        [a.join().unwrap(), b.join().unwrap()]
    });
    for other in &side_by_side {
        assert_eq!(single.campaigns, other.campaigns);
        assert_eq!(single.total_targets, other.total_targets);
        assert_eq!(single.total_useful_impacts, other.total_useful_impacts);
        assert!(single.auc.to_bits() == other.auc.to_bits(), "pooled AUC must match exactly");
        assert!(
            single.captured_at_40.to_bits() == other.captured_at_40.to_bits(),
            "gains curve must match exactly"
        );
        assert_eq!(single.gains.len(), other.gains.len());
        for (a, b) in single.gains.iter().zip(other.gains.iter()) {
            assert!(a.captured.to_bits() == b.captured.to_bits());
        }
    }
}

/// `CampaignRunner::run` hands back the hook's payloads in contact
/// order, and collecting them leaves the campaign itself unchanged:
/// same users, scores, appeals and responses as a no-payload run.
#[test]
fn run_payloads_arrive_in_contact_order() {
    let population =
        Population::generate(PopulationConfig { n_users: 500, ..Default::default() }).unwrap();
    let response = ResponseModel::new(ResponseConfig::default())
        .calibrate_mixed(&population, 0.21, 0.2)
        .unwrap();
    let courses = CourseCatalog::generate(12, 4, 3).unwrap();
    let spec = CampaignSpec {
        id: CampaignId::new(9),
        channel: Channel::Push,
        target_size: 300,
        course: courses.course(CourseId::new(2)).unwrap().clone(),
        at: Timestamp::from_millis(1000),
        seed: 0xBEEF,
    };
    let runner = CampaignRunner::new(&population, &response);

    let plain_spa = Spa::new(&courses, SpaConfig::default());
    let (plain, _) = runner.run(&plain_spa, &spec, |_, _, _| (0.5, ()), |_, _, _| {}).unwrap();

    let collecting_spa = Spa::new(&courses, SpaConfig::default());
    let (collected, users) =
        runner.run(&collecting_spa, &spec, |_, user, _| (0.5, user), |_, _, _| {}).unwrap();
    assert_eq!(plain.contacts, collected.contacts, "collecting payloads changed the contacts");
    assert_eq!(plain.responses, collected.responses);
    let contact_users: Vec<UserId> = collected.contacts.iter().map(|c| c.user).collect();
    assert_eq!(users, contact_users, "payloads must arrive in contact order");
}
