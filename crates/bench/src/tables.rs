//! Table generators — one per table of the paper's evaluation section.
//!
//! Every generator draws its intermediate products (subsample draws, fold
//! splits, fitted TF-IDF models, class graphs, link graphs, TrustRank
//! vectors) from the context's shared [`ArtifactStore`], so tables that
//! revisit the same configuration — and there are many: the ranking
//! table, the outlier analysis, and four ablations all sit at the
//! 1000-term subsample — reuse one computation. The grid generators
//! additionally take an [`Executor`] and dispatch their independent cells
//! across it; results are assembled in a fixed order, so the rendered
//! tables are byte-identical at any thread count.

use crate::context::{ReproContext, REPRO_SEED};
use pharmaverify_core::classify::{
    evaluate_ensemble_in, evaluate_network_in, evaluate_ngg_in, evaluate_tfidf_in,
    ngg_document_texts, CvConfig, TermWeighting, TextLearnerKind,
};
use pharmaverify_core::drift_study;
use pharmaverify_core::features::extract_corpus_from;
use pharmaverify_core::pipeline::{Executor, Pipeline};
use pharmaverify_core::rank::{evaluate_ranking_in, RankingMethod};
use pharmaverify_core::report::{abbreviations, Table};
use pharmaverify_crawl::{CrawlConfig, FaultConfig, FaultyWeb};
use pharmaverify_ml::{CvOutcome, Dataset, EvalSummary, FoldOutcome, Learner, Sampling};
use pharmaverify_net::top_linked;
use pharmaverify_text::SparseVector;

/// The TF-IDF experiment rows of Tables 3–6.
pub const TFIDF_ROWS: &[(TextLearnerKind, Sampling)] = &[
    (TextLearnerKind::Nbm, Sampling::None),
    (TextLearnerKind::Svm, Sampling::None),
    (TextLearnerKind::J48, Sampling::Smote),
];

/// The N-Gram-Graph experiment rows of Tables 7–10.
pub const NGG_ROWS: &[TextLearnerKind] = &[
    TextLearnerKind::Nb,
    TextLearnerKind::Svm,
    TextLearnerKind::J48,
    TextLearnerKind::Mlp,
];

/// Aggregated results of a classifier × subsample-size grid.
pub struct GridResults {
    /// Row labels, e.g. `"NBM NO"`.
    pub rows: Vec<String>,
    /// `summaries[row][size]`, sizes in [`ReproContext::subsample_sizes`]
    /// order.
    pub summaries: Vec<Vec<EvalSummary>>,
}

impl GridResults {
    fn table(&self, title: &str, value: impl Fn(&EvalSummary) -> f64) -> Table {
        let mut headers = vec!["Classifier".to_string()];
        headers.extend(
            ReproContext::subsample_sizes()
                .iter()
                .map(|(_, name)| name.to_string()),
        );
        let mut t = Table {
            title: title.to_string(),
            headers,
            rows: Vec::new(),
        };
        for (label, row) in self.rows.iter().zip(&self.summaries) {
            let mut cells = vec![label.clone()];
            cells.extend(row.iter().map(|s| Table::fmt2(value(s))));
            t.push_row(cells);
        }
        t
    }
}

/// Table 1: dataset statistics.
pub fn table1(ctx: &ReproContext) -> Table {
    let mut t = Table::new(
        "Table 1: Datasets",
        &[
            "",
            "Dataset 1 (Date 1)",
            "Dataset 2 (Date 2, 6 months later)",
        ],
    );
    let s1 = ctx.snapshot1.stats();
    let s2 = ctx.snapshot2.stats();
    t.push_row(vec![
        "# Examples".into(),
        format!("{} (100%)", s1.total),
        format!("{} (100%)", s2.total),
    ]);
    t.push_row(vec![
        "# Legitimate Examples".into(),
        format!("{} ({:.0}%)", s1.legitimate, s1.legitimate_percent()),
        format!("{} ({:.0}%)", s2.legitimate, s2.legitimate_percent()),
    ]);
    t.push_row(vec![
        "# Illegitimate Examples".into(),
        format!(
            "{} ({:.0}%)",
            s1.illegitimate,
            100.0 - s1.legitimate_percent()
        ),
        format!(
            "{} ({:.0}%)",
            s2.illegitimate,
            100.0 - s2.legitimate_percent()
        ),
    ]);
    t
}

/// Table 2: abbreviation legend (static).
pub fn table2() -> Table {
    abbreviations()
}

/// Runs the full TF-IDF grid (Tables 3–6): three classifier/sampling
/// rows across the five subsample sizes. The fifteen cells are
/// independent and dispatch across the executor; the row-major assembly
/// order keeps the output identical at any thread count.
pub fn tfidf_grid(ctx: &ReproContext, exec: Executor) -> GridResults {
    let sizes = ReproContext::subsample_sizes();
    let cells: Vec<EvalSummary> = exec.run(TFIDF_ROWS.len() * sizes.len(), |idx| {
        let (kind, sampling) = TFIDF_ROWS[idx / sizes.len()];
        let (size, _) = sizes[idx % sizes.len()];
        let learner = kind.learner();
        evaluate_tfidf_in(
            ctx.pipe1(),
            learner.as_ref(),
            sampling,
            kind.weighting(),
            size,
            ctx.cv,
        )
        .aggregate()
    });
    GridResults {
        rows: TFIDF_ROWS
            .iter()
            .map(|(kind, sampling)| format!("{} {}", kind.name(), sampling.abbreviation()))
            .collect(),
        summaries: cells.chunks(sizes.len()).map(<[_]>::to_vec).collect(),
    }
}

/// Table 3: TF-IDF overall accuracy.
pub fn table3(grid: &GridResults) -> Table {
    grid.table("Table 3: TF-IDF - Overall Accuracy", |s| s.accuracy)
}

/// Table 4: TF-IDF legitimate recall and precision.
pub fn table4(grid: &GridResults) -> (Table, Table) {
    (
        grid.table("Table 4a: TF-IDF - legitimate recall", |s| {
            s.legitimate.recall
        }),
        grid.table("Table 4b: TF-IDF - legitimate precision", |s| {
            s.legitimate.precision
        }),
    )
}

/// Table 5: TF-IDF illegitimate recall and precision.
pub fn table5(grid: &GridResults) -> (Table, Table) {
    (
        grid.table("Table 5a: TF-IDF - illegitimate recall", |s| {
            s.illegitimate.recall
        }),
        grid.table("Table 5b: TF-IDF - illegitimate precision", |s| {
            s.illegitimate.precision
        }),
    )
}

/// Table 6: TF-IDF area under the ROC curve.
pub fn table6(grid: &GridResults) -> Table {
    grid.table("Table 6: TF-IDF - Area Under ROC Curve", |s| s.auc)
}

/// Runs the full N-Gram-Graph grid (Tables 7–10). Every document's
/// features against each fold's class graphs are computed once per
/// subsample size ([`Pipeline::ngg_features`]) and shared by all four
/// classifiers — the expensive part is the graph work, not the learning
/// — and by the other NGG studies of the same subsample. Subsample sizes
/// dispatch across the executor.
pub fn ngg_grid(ctx: &ReproContext, exec: Executor) -> GridResults {
    let corpus = &ctx.corpus1;
    let cv = ctx.cv;
    let pipe = ctx.pipe1();
    let split = pipe.fold_split(cv.k, cv.seed);
    let train_sets: Vec<&[usize]> = split.iter().map(|(_, train, _)| train).collect();
    let sizes = ReproContext::subsample_sizes();

    // columns[size][row] — each size is one executor job.
    let columns: Vec<Vec<EvalSummary>> = exec.run(sizes.len(), |s| {
        let (size, _) = sizes[s];
        let features = pipe.ngg_features(size, cv.seed, &train_sets);
        let fold_datasets: Vec<Dataset> = (0..split.k())
            .map(|f| {
                let mut all = Dataset::new(8);
                for (x, &label) in features.fold(f).iter().zip(&corpus.labels) {
                    all.push(SparseVector::from_dense(&x.to_vec()), label);
                }
                all
            })
            .collect();

        NGG_ROWS
            .iter()
            .map(|&kind| {
                let learner = kind.ngg_learner();
                let folds = split
                    .iter()
                    .zip(&fold_datasets)
                    .map(|((_, train_idx, test_idx), all)| {
                        let model = learner.fit(&all.subset(train_idx));
                        FoldOutcome::score(&model, test_idx.iter().map(|&i| (all.x(i), all.y(i))))
                    })
                    .collect();
                CvOutcome { folds }.aggregate()
            })
            .collect()
    });

    GridResults {
        rows: NGG_ROWS
            .iter()
            .map(|k| format!("{} NO", k.name()))
            .collect(),
        summaries: (0..NGG_ROWS.len())
            .map(|row| columns.iter().map(|col| col[row]).collect())
            .collect(),
    }
}

/// Table 7: N-Gram Graphs classifier accuracy.
pub fn table7(grid: &GridResults) -> Table {
    grid.table("Table 7: N-Gram Graphs - Classifiers Accuracy", |s| {
        s.accuracy
    })
}

/// Table 8: N-Gram Graphs legitimate recall and precision.
pub fn table8(grid: &GridResults) -> (Table, Table) {
    (
        grid.table("Table 8a: N-Gram Graphs - legitimate recall", |s| {
            s.legitimate.recall
        }),
        grid.table("Table 8b: N-Gram Graphs - legitimate precision", |s| {
            s.legitimate.precision
        }),
    )
}

/// Table 9: N-Gram Graphs illegitimate recall and precision.
pub fn table9(grid: &GridResults) -> (Table, Table) {
    (
        grid.table("Table 9a: N-Gram Graphs - illegitimate recall", |s| {
            s.illegitimate.recall
        }),
        grid.table("Table 9b: N-Gram Graphs - illegitimate precision", |s| {
            s.illegitimate.precision
        }),
    )
}

/// Table 10: N-Gram Graphs area under the ROC curve.
pub fn table10(grid: &GridResults) -> Table {
    grid.table("Table 10: N-Gram Graphs - Area Under ROC Curve", |s| s.auc)
}

/// Table 11: the ten most linked-to external domains per class.
pub fn table11(ctx: &ReproContext) -> Table {
    let corpus = &ctx.corpus1;
    let per_class = |want_legit: bool| {
        let outbound: Vec<Vec<&str>> = (0..corpus.len())
            .filter(|&i| corpus.labels[i] == want_legit)
            .map(|i| {
                corpus.outbound[i]
                    .keys()
                    .map(String::as_str)
                    // Links to other pharmacies in P count too (that is the
                    // affiliate signal), but self-links never occur.
                    .collect()
            })
            .collect();
        top_linked(outbound, 10)
    };
    let legit = per_class(true);
    let illegit = per_class(false);
    let mut t = Table::new(
        "Table 11: Websites pointed to by legitimate and illegitimate pharmacies (top 10)",
        &["pointed by legitimate", "pointed by illegitimate"],
    );
    for i in 0..legit.len().max(illegit.len()) {
        t.push_row(vec![
            legit.get(i).map(|r| r.domain.clone()).unwrap_or_default(),
            illegit.get(i).map(|r| r.domain.clone()).unwrap_or_default(),
        ]);
    }
    t
}

/// Runs the network experiment once (shared by Tables 12–13).
pub fn network_outcome(ctx: &ReproContext) -> CvOutcome {
    evaluate_network_in(ctx.pipe1(), ctx.cv)
}

/// Table 12: network classification accuracy and AUC.
pub fn table12(network: &CvOutcome) -> Table {
    let s = network.aggregate();
    let mut t = Table::new(
        "Table 12: Network - Overall Accuracy and AUC ROC",
        &["Classifier", "Overall Accuracy", "AUC ROC"],
    );
    t.push_row(vec![
        "NB".into(),
        Table::fmt2(s.accuracy),
        Table::fmt2(s.auc),
    ]);
    t
}

/// Table 13: network per-class precision and recall.
pub fn table13(network: &CvOutcome) -> Table {
    let s = network.aggregate();
    let mut t = Table::new(
        "Table 13: Network - precision and recall",
        &[
            "Classifier",
            "legitimate precision",
            "legitimate recall",
            "illegitimate precision",
            "illegitimate recall",
        ],
    );
    t.push_row(vec![
        "NB".into(),
        Table::fmt3(s.legitimate.precision),
        Table::fmt3(s.legitimate.recall),
        Table::fmt3(s.illegitimate.precision),
        Table::fmt3(s.illegitimate.recall),
    ]);
    t
}

/// Table 14: ensemble selection vs the best text model (MLP on NGG) and
/// the network model, at the 1000-term subsample.
pub fn table14(ctx: &ReproContext, mlp_text: EvalSummary, network: EvalSummary) -> Table {
    let ensemble = evaluate_ensemble_in(ctx.pipe1(), Some(1000), ctx.cv);
    let s = ensemble.outcome.aggregate();
    let mut t = Table::new(
        "Table 14: Ensemble Classification Results (1000-term subsamples)",
        &[
            "Model",
            "Acc.",
            "legit Rec.",
            "legit Prec.",
            "illegit Rec.",
            "illegit Prec.",
            "AUC ROC",
        ],
    );
    let row = |name: &str, s: &EvalSummary| {
        vec![
            name.to_string(),
            Table::fmt2(s.accuracy),
            Table::fmt2(s.legitimate.recall),
            Table::fmt2(s.legitimate.precision),
            Table::fmt2(s.illegitimate.recall),
            Table::fmt2(s.illegitimate.precision),
            Table::fmt2(s.auc),
        ]
    };
    t.push_row(row("Ensem. Sel.", &s));
    t.push_row(row("Neural (Text)", &mlp_text));
    t.push_row(row("NB (Network)", &network));
    t
}

/// Table 15: pairwise orderedness of the four ranking variants,
/// dispatched across the executor.
pub fn table15(ctx: &ReproContext, exec: Executor) -> Table {
    let methods = [
        RankingMethod::TfIdf {
            kind: TextLearnerKind::Nbm,
            sampling: Sampling::None,
        },
        RankingMethod::TfIdf {
            kind: TextLearnerKind::Svm,
            sampling: Sampling::None,
        },
        RankingMethod::TfIdf {
            kind: TextLearnerKind::J48,
            sampling: Sampling::Smote,
        },
        RankingMethod::NggEquation3,
    ];
    let pairords: Vec<f64> = exec.run(methods.len(), |m| {
        evaluate_ranking_in(ctx.pipe1(), methods[m], Some(1000), ctx.cv).pairord
    });
    let mut t = Table::new(
        "Table 15: Ranking using TF-IDF and N-Gram Graphs (1000-term subsamples)",
        &["Method", "pairord"],
    );
    for (method, pairord) in methods.iter().zip(pairords) {
        t.push_row(vec![method.name(), Table::fmt3(pairord)]);
    }
    t
}

/// Tables 16 and 17: model evolution over time — AUC (16) and legitimate
/// precision (17) for Old-Old / New-New / Old-New at 250 and 1000 terms.
/// The six (classifier × size) drift rows dispatch across the executor.
pub fn table16_17(ctx: &ReproContext, exec: Executor) -> (Table, Table) {
    let headers = &[
        "Classifier",
        "Old-Old 250",
        "Old-Old 1000",
        "New-New 250",
        "New-New 1000",
        "Old-New 250",
        "Old-New 1000",
    ];
    let mut t16 = Table::new(
        "Table 16: TF-IDF - Model over Time - Area Under ROC Curve",
        headers,
    );
    let mut t17 = Table::new(
        "Table 17: TF-IDF - Model over Time - legitimate Precision",
        headers,
    );
    const SIZES: [Option<usize>; 2] = [Some(250), Some(1000)];
    let cells: Vec<drift_study::DriftRow> = exec.run(TFIDF_ROWS.len() * SIZES.len(), |idx| {
        let (kind, sampling) = TFIDF_ROWS[idx / SIZES.len()];
        let size = SIZES[idx % SIZES.len()];
        drift_study::drift_row_in(ctx.pipe1(), ctx.pipe2(), kind, sampling, size, ctx.cv)
    });
    for (r, &(kind, sampling)) in TFIDF_ROWS.iter().enumerate() {
        let label = format!("{} {}", kind.name(), sampling.abbreviation());
        let rows = &cells[r * SIZES.len()..(r + 1) * SIZES.len()];
        let cells_for = |pick: &dyn Fn(&drift_study::DriftCell) -> f64| -> Vec<String> {
            let mut c = vec![label.clone()];
            for scenario in 0..3 {
                for row in rows {
                    let cell = match scenario {
                        0 => row.old_old,
                        1 => row.new_new,
                        _ => row.old_new,
                    };
                    c.push(Table::fmt2(pick(&cell)));
                }
            }
            c
        };
        t16.push_row(cells_for(&|c| c.auc));
        t17.push_row(cells_for(&|c| c.legitimate_precision));
    }
    (t16, t17)
}

/// The §6.4 outlier analysis, printed alongside Table 15.
pub fn outlier_analysis(ctx: &ReproContext) -> Table {
    let ranking = evaluate_ranking_in(
        ctx.pipe1(),
        RankingMethod::TfIdf {
            kind: TextLearnerKind::Nbm,
            sampling: Sampling::None,
        },
        Some(1000),
        ctx.cv,
    );
    let k = (ctx.corpus1.len() / 30).clamp(3, 20);
    let report = pharmaverify_core::ranking_outliers(&ranking, k);
    let mut t = Table::new(
        "Outlier analysis (Section 6.4)",
        &[
            "Outlier group",
            "Expert-finding profile",
            "Fraction matching",
        ],
    );
    t.push_row(vec![
        format!("top-{k} illegitimate"),
        "off-network mimics".into(),
        Table::fmt2(report.illegitimate_off_network_fraction()),
    ]);
    t.push_row(vec![
        format!("bottom-{k} legitimate"),
        "refill-only storefronts".into(),
        Table::fmt2(report.legitimate_refill_only_fraction()),
    ]);
    t
}

/// Ablation: TrustRank-seeded network features vs unbiased PageRank —
/// quantifies how much of the network signal comes from the trusted seed
/// (the design choice §4.2 motivates).
pub fn ablation_pagerank(ctx: &ReproContext) -> Table {
    use pharmaverify_ml::GaussianNaiveBayes;
    use pharmaverify_net::TrustRankConfig;
    let corpus = &ctx.corpus1;
    let pipe = ctx.pipe1();
    let artifacts = pipe.web_graph();
    let pr = artifacts.graph.pagerank(&TrustRankConfig::default());
    let scale = artifacts.graph.node_count() as f64;
    let split = pipe.fold_split(ctx.cv.k, ctx.cv.seed);
    let feature = |i: usize| {
        SparseVector::from_pairs(vec![(0, pr[artifacts.pharmacy_nodes[i] as usize] * scale)])
    };
    let mut folds = Vec::new();
    for (_, train_idx, test_idx) in split.iter() {
        let mut train = Dataset::new(1);
        for &i in train_idx {
            train.push(feature(i), corpus.labels[i]);
        }
        let model = GaussianNaiveBayes::default().fit(&train);
        let rows = test_idx.iter().map(|&i| (feature(i), corpus.labels[i]));
        folds.push(FoldOutcome::score(&model, rows));
    }
    let pr_summary = CvOutcome { folds }.aggregate();
    let tr_summary = network_outcome(ctx).aggregate();
    let mut t = Table::new(
        "Ablation: TrustRank seed vs unbiased PageRank (network feature)",
        &["Feature", "Accuracy", "AUC ROC", "legit recall"],
    );
    t.push_row(vec![
        "TrustRank (seeded)".into(),
        Table::fmt2(tr_summary.accuracy),
        Table::fmt2(tr_summary.auc),
        Table::fmt2(tr_summary.legitimate.recall),
    ]);
    t.push_row(vec![
        "PageRank (unseeded)".into(),
        Table::fmt2(pr_summary.accuracy),
        Table::fmt2(pr_summary.auc),
        Table::fmt2(pr_summary.legitimate.recall),
    ]);
    t
}

/// Ablation: the full sampling grid the paper ran but reported only the
/// best of ("we performed various tests with all combinations among
/// classifiers and sampling techniques", §6.3.1). One row per classifier
/// × sampling treatment, at the 1000-term subsample.
pub fn ablation_sampling(ctx: &ReproContext) -> Table {
    let mut t = Table::new(
        "Ablation: sampling treatments (1000-term subsamples)",
        &[
            "Classifier",
            "Sampling",
            "Acc.",
            "legit Rec.",
            "legit Prec.",
            "AUC ROC",
        ],
    );
    for kind in [
        TextLearnerKind::Nbm,
        TextLearnerKind::Svm,
        TextLearnerKind::J48,
    ] {
        for sampling in [Sampling::None, Sampling::Undersample, Sampling::Smote] {
            let s = tfidf_single(ctx.pipe1(), kind, sampling, Some(1000), ctx.cv);
            t.push_row(vec![
                kind.name().to_string(),
                sampling.abbreviation().to_string(),
                Table::fmt2(s.accuracy),
                Table::fmt2(s.legitimate.recall),
                Table::fmt2(s.legitimate.precision),
                Table::fmt2(s.auc),
            ]);
        }
    }
    t
}

/// Ablation: sensitivity to training-label noise, following the
/// classifier-behaviour-under-mislabeling study the paper cites (\[24\],
/// Mirylenka et al., DAMI 2017). A seeded fraction of *training* labels
/// is flipped per fold; test labels stay clean.
pub fn ablation_label_noise(ctx: &ReproContext) -> Table {
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    let corpus = &ctx.corpus1;
    let cv = ctx.cv;
    let pipe = ctx.pipe1();
    let split = pipe.fold_split(cv.k, cv.seed);
    let mut t = Table::new(
        "Ablation: training-label noise (1000-term subsamples)",
        &["Classifier", "0%", "5%", "10%", "20%"],
    );
    for kind in [TextLearnerKind::Nbm, TextLearnerKind::Svm] {
        let mut cells = vec![kind.name().to_string()];
        for noise in [0.0, 0.05, 0.10, 0.20] {
            let mut folds = Vec::new();
            for (f, train_idx, test_idx) in split.iter() {
                let mut rng = SmallRng::seed_from_u64(cv.seed ^ 0x4015e ^ (f as u64));
                let tfidf = pipe.fitted_tfidf(Some(1000), cv.seed, Some(f), train_idx);
                let vectorize = |i: usize| tfidf.vector(i, kind.weighting());
                let mut train = Dataset::new(tfidf.dim());
                for &i in train_idx {
                    let label = if noise > 0.0 && rng.gen_bool(noise) {
                        !corpus.labels[i]
                    } else {
                        corpus.labels[i]
                    };
                    train.push(vectorize(i), label);
                }
                let model = kind.learner().fit(&train);
                let rows = test_idx.iter().map(|&i| (vectorize(i), corpus.labels[i]));
                folds.push(FoldOutcome::score(&model, rows));
            }
            let agg = CvOutcome { folds }.aggregate();
            cells.push(Table::fmt2(agg.auc));
        }
        t.push_row(cells);
    }
    t
}

/// Future work §7(a): network-analysis variants — the paper's baseline,
/// the Anti-TrustRank distrust feature, and the extended graph with
/// non-pharmacy referrer portals (two-hop trust paths).
pub fn future_work_network(ctx: &ReproContext) -> Table {
    use pharmaverify_core::extensions::{
        build_extended_web_graph, evaluate_network_variant, portal_links, NetworkVariant,
    };
    let corpus = &ctx.corpus1;
    let base = ctx.pipe1().web_graph();
    let portals = portal_links(&ctx.snapshot1, &pharmaverify_crawl::CrawlConfig::default());
    let extended = build_extended_web_graph(corpus, &portals);
    let mut t = Table::new(
        "Future work (Section 7a): network-analysis variants",
        &["Variant", "Acc.", "AUC ROC", "legit Rec.", "legit Prec."],
    );
    let rows = [
        ("TrustRank (paper baseline)", &*base, NetworkVariant::Trust),
        (
            "+ Anti-TrustRank distrust",
            &*base,
            NetworkVariant::TrustAndDistrust,
        ),
        (
            "Extended graph (referrer portals)",
            &extended,
            NetworkVariant::Trust,
        ),
        (
            "Extended + distrust",
            &extended,
            NetworkVariant::TrustAndDistrust,
        ),
    ];
    for (name, artifacts, variant) in rows {
        let s = evaluate_network_variant(corpus, artifacts, variant, ctx.cv).aggregate();
        t.push_row(vec![
            name.to_string(),
            Table::fmt2(s.accuracy),
            Table::fmt2(s.auc),
            Table::fmt2(s.legitimate.recall),
            Table::fmt2(s.legitimate.precision),
        ]);
    }
    t
}

/// Future work §7(b): one classifier over combined text + network
/// features, compared with the best single-view models.
pub fn future_work_combined(ctx: &ReproContext) -> Table {
    use pharmaverify_core::extensions::evaluate_combined_in;
    let combined = evaluate_combined_in(ctx.pipe1(), Some(1000), ctx.cv).aggregate();
    let text_svm = tfidf_single(
        ctx.pipe1(),
        TextLearnerKind::Svm,
        Sampling::None,
        Some(1000),
        ctx.cv,
    );
    let network = network_outcome(ctx).aggregate();
    let mut t = Table::new(
        "Future work (Section 7b): combined text + network features (SVM, 1000 terms)",
        &["Model", "Acc.", "AUC ROC", "legit Rec.", "legit Prec."],
    );
    for (name, s) in [
        ("Combined (tfidf + NGG + trust)", combined),
        ("Text only (tfidf SVM)", text_svm),
        ("Network only (NB)", network),
    ] {
        t.push_row(vec![
            name.to_string(),
            Table::fmt2(s.accuracy),
            Table::fmt2(s.auc),
            Table::fmt2(s.legitimate.recall),
            Table::fmt2(s.legitimate.precision),
        ]);
    }
    t
}

/// Ablation: the three text representations of the comparison study the
/// paper builds on (\[13\], Giannakopoulos et al.): Term Vector (TF-IDF),
/// Character N-Grams (bag of char 4-grams), and N-Gram Graphs — all under
/// the same SVM, at the 1000-term subsample.
pub fn ablation_representations(ctx: &ReproContext) -> Table {
    use pharmaverify_text::CharNgramModel;

    let corpus = &ctx.corpus1;
    let cv = ctx.cv;
    let pipe = ctx.pipe1();
    let split = pipe.fold_split(cv.k, cv.seed);
    let texts = ngg_document_texts(&pipe.subsampled_docs(Some(1000), cv.seed));

    let mut t = Table::new(
        "Ablation: text representations under SVM (1000-term subsamples, cf. [13])",
        &[
            "Representation",
            "Acc.",
            "legit Rec.",
            "legit Prec.",
            "AUC ROC",
        ],
    );

    // Term Vector and N-Gram Graphs reuse the standard pipelines.
    let term_vector = tfidf_single(pipe, TextLearnerKind::Svm, Sampling::None, Some(1000), cv);
    let ngg = {
        let learner = TextLearnerKind::Svm.ngg_learner();
        evaluate_ngg_in(pipe, learner.as_ref(), Some(1000), cv).aggregate()
    };

    // Character N-Grams: char-4-gram tf·idf vectors under the same SVM.
    let char_ngrams = {
        let mut folds = Vec::new();
        for (_, train_idx, test_idx) in split.iter() {
            let train_texts: Vec<&str> = train_idx.iter().map(|&i| texts[i].as_str()).collect();
            let model = CharNgramModel::fit(&train_texts, 4);
            let dim = model.vocabulary_size().max(1);
            let mut train = Dataset::new(dim);
            for &i in train_idx {
                train.push(model.transform(&texts[i]), corpus.labels[i]);
            }
            let svm = TextLearnerKind::Svm.learner().fit(&train);
            let rows = test_idx
                .iter()
                .map(|&i| (model.transform(&texts[i]), corpus.labels[i]));
            folds.push(FoldOutcome::score(&svm, rows));
        }
        CvOutcome { folds }.aggregate()
    };

    for (name, s) in [
        ("Term Vector (TF-IDF)", term_vector),
        ("Character N-Grams", char_ngrams),
        ("N-Gram Graphs (8 sims)", ngg),
    ] {
        t.push_row(vec![
            name.to_string(),
            Table::fmt2(s.accuracy),
            Table::fmt2(s.legitimate.recall),
            Table::fmt2(s.legitimate.precision),
            Table::fmt2(s.auc),
        ]);
    }
    t
}

/// Ablation: what the SVM should contribute to the ranking score — the
/// paper's hard {0, 1} decision (§5), the raw margin, or a
/// Platt-calibrated probability — measured by pairwise orderedness.
pub fn ablation_svm_ranking(ctx: &ReproContext) -> Table {
    use pharmaverify_ml::metrics::pairwise_orderedness;
    use pharmaverify_ml::svm::LinearSvm;
    use pharmaverify_ml::PlattScaler;

    let corpus = &ctx.corpus1;
    let cv = ctx.cv;
    let pipe = ctx.pipe1();
    let split = pipe.fold_split(cv.k, cv.seed);
    let mut hard = vec![0.0; corpus.len()];
    let mut margin = vec![0.0; corpus.len()];
    let mut platt = vec![0.0; corpus.len()];

    for (f, train_idx, test_idx) in split.iter() {
        let tfidf = pipe.fitted_tfidf(Some(1000), cv.seed, Some(f), train_idx);
        let mut train = Dataset::new(tfidf.dim());
        for &i in train_idx {
            train.push(tfidf.vector(i, TermWeighting::TfIdf), corpus.labels[i]);
        }
        let model = LinearSvm::default().fit_svm(&train);
        // Platt scaling fitted on the training decisions.
        let train_decisions: Vec<f64> =
            train.features().iter().map(|x| model.decision(x)).collect();
        let scaler = PlattScaler::fit(&train_decisions, train.labels());
        for &i in test_idx {
            let d = model.decision(&tfidf.vector(i, TermWeighting::TfIdf));
            hard[i] = if d >= 0.0 { 1.0 } else { 0.0 };
            margin[i] = d;
            platt[i] = scaler.map(|s| s.calibrate(d)).unwrap_or(0.5);
        }
    }
    let mut t = Table::new(
        "Ablation: SVM contribution to textRank (pairwise orderedness)",
        &["SVM score used", "pairord"],
    );
    for (name, scores) in [
        ("hard {0,1} decision (paper, Section 5)", &hard),
        ("raw margin", &margin),
        ("Platt-calibrated probability", &platt),
    ] {
        let p = pairwise_orderedness(scores, &corpus.labels).unwrap_or(1.0);
        t.push_row(vec![name.to_string(), Table::fmt3(p)]);
    }
    t
}

/// Ablation: information-gain feature selection — how small the TF-IDF
/// vocabulary can get before accuracy suffers (cf. the scalable feature
/// selection line of work the paper cites, \[7\]).
pub fn ablation_feature_selection(ctx: &ReproContext) -> Table {
    use pharmaverify_ml::{project, top_k_features};

    let corpus = &ctx.corpus1;
    let cv = ctx.cv;
    let pipe = ctx.pipe1();
    let split = pipe.fold_split(cv.k, cv.seed);
    let mut t = Table::new(
        "Ablation: information-gain feature selection (NBM, 1000-term subsamples)",
        &[
            "Kept features",
            "Acc.",
            "legit Rec.",
            "legit Prec.",
            "AUC ROC",
        ],
    );
    for keep in [50usize, 200, 1000, usize::MAX] {
        let mut folds = Vec::new();
        for (f, train_idx, test_idx) in split.iter() {
            let tfidf = pipe.fitted_tfidf(Some(1000), cv.seed, Some(f), train_idx);
            let counts = |idx: &[usize]| {
                let mut data = Dataset::new(tfidf.dim());
                for &i in idx {
                    data.push(tfidf.vector(i, TermWeighting::RawCounts), corpus.labels[i]);
                }
                data
            };
            let train = counts(train_idx);
            let kept = top_k_features(&train, keep.min(train.dim()));
            let model = TextLearnerKind::Nbm.learner().fit(&project(&train, &kept));
            // Test rows are projected the way the training rows were.
            let test = project(&counts(test_idx), &kept);
            folds.push(FoldOutcome::score(&model, test.iter()));
        }
        let s = CvOutcome { folds }.aggregate();
        t.push_row(vec![
            if keep == usize::MAX {
                "all".to_string()
            } else {
                keep.to_string()
            },
            Table::fmt2(s.accuracy),
            Table::fmt2(s.legitimate.recall),
            Table::fmt2(s.legitimate.precision),
            Table::fmt2(s.auc),
        ]);
    }
    t
}

/// Robustness study: OPC quality (accuracy, AUC of the paper's primary
/// NBM classifier) and OPR pairwise orderedness as a function of the
/// injected fault rate. Dataset 1 is re-crawled through a seeded
/// [`FaultyWeb`] at each rate — rate 0 reproduces the clean corpus
/// exactly (and therefore shares its cached artifacts), while nonzero
/// rates degrade summaries through retry exhaustion and breaker trips.
/// The fault universe derives from the corpus RNG seed, never the wall
/// clock, so two runs at the same rate are byte-identical.
pub fn robustness_study(ctx: &ReproContext, exec: Executor, max_rate: f64) -> Table {
    /// Salt separating the fault universe from every other seeded draw.
    const FAULT_SALT: u64 = 0xFA17;
    let rates: [f64; 4] = [0.0, max_rate * 0.25, max_rate * 0.5, max_rate];

    struct RateRow {
        opc: EvalSummary,
        pairord: f64,
        degraded: usize,
        failed: usize,
        retries: usize,
    }

    let rates_ref = &rates;
    let rows: Vec<RateRow> = exec.run(rates.len(), |i| {
        let rate = rates_ref[i];
        let config = FaultConfig::new(rate, REPRO_SEED ^ FAULT_SALT ^ ((i as u64) << 24));
        let web = FaultyWeb::new(&ctx.snapshot1.web, config);
        // lint:allow(no-panic): the synthetic snapshot's seed URLs are
        // well-formed by construction (see ReproContext::new); fault
        // injection only affects fetches, never URL parsing.
        #[allow(clippy::expect_used)]
        let corpus = extract_corpus_from(&ctx.snapshot1.sites, &web, &CrawlConfig::default())
            .expect("synthetic snapshot extracts");
        let telemetry = corpus.total_fetch_telemetry();
        let opc = tfidf_single(
            Pipeline::new(&ctx.store, &corpus),
            TextLearnerKind::Nbm,
            Sampling::None,
            Some(1000),
            ctx.cv,
        );
        let pairord = evaluate_ranking_in(
            Pipeline::new(&ctx.store, &corpus),
            RankingMethod::TfIdf {
                kind: TextLearnerKind::Nbm,
                sampling: Sampling::None,
            },
            Some(1000),
            ctx.cv,
        )
        .pairord;
        RateRow {
            opc,
            pairord,
            degraded: corpus.degraded_sites(),
            failed: telemetry.failed_urls(),
            retries: telemetry.retries,
        }
    });

    let mut t = Table::new(
        "Robustness: OPC/OPR vs injected fault rate (NBM, 1000-term subsamples)",
        &[
            "Fault rate",
            "OPC Acc.",
            "OPC AUC",
            "OPR pairord",
            "degraded sites",
            "failed fetches",
            "retries",
        ],
    );
    for (rate, row) in rates.iter().zip(rows) {
        t.push_row(vec![
            format!("{rate:.3}"),
            Table::fmt2(row.opc.accuracy),
            Table::fmt2(row.opc.auc),
            Table::fmt3(row.pairord),
            row.degraded.to_string(),
            row.failed.to_string(),
            row.retries.to_string(),
        ]);
    }
    t
}

/// Convenience: run the TF-IDF pipeline restricted to one subsample size
/// (used by the ablations and smoke tests).
pub fn tfidf_single(
    pipe: Pipeline<'_>,
    kind: TextLearnerKind,
    sampling: Sampling,
    size: Option<usize>,
    cv: CvConfig,
) -> EvalSummary {
    let learner: Box<dyn Learner> = kind.learner();
    evaluate_tfidf_in(pipe, learner.as_ref(), sampling, kind.weighting(), size, cv).aggregate()
}
