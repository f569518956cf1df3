//! # spa-ml — machine-learning substrate
//!
//! From-scratch implementations of every learning component SPA needs
//! (paper §4 "Smart Component" and §5.2):
//!
//! * a **linear SVM** trained with the Pegasos primal sub-gradient solver
//!   ([`svm::LinearSvm`]) — the paper's workhorse for classifying user
//!   behaviour and ranking users by propensity;
//! * **SVM-weight feature selection** ([`feature_selection`]) — the
//!   paper's "SVM to reduce the dimensionality of the matrix";
//! * baselines for the ablation study: logistic regression
//!   ([`logreg::LogisticRegression`]), Bernoulli naive Bayes
//!   ([`naive_bayes::BernoulliNb`]), k-nearest-neighbour collaborative
//!   filtering ([`knn`]) and popularity ranking;
//! * evaluation **metrics** including ROC-AUC and the cumulative-gains
//!   machinery behind the paper's Fig 6(a) redemption curve;
//! * dataset containers, scalers and cross-validation utilities.
//!
//! All learners are deterministic given a seed and operate on sparse
//! rows ([`spa_linalg::CsrMatrix`]) because the user×attribute matrix is
//! dominated by missing Gradual-EIT answers (§5.2's sparsity problem).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cv;
pub mod dataset;
pub mod feature_selection;
pub mod knn;
pub mod logreg;
pub mod metrics;
pub mod naive_bayes;
pub mod scaler;
pub mod svm;

pub use dataset::Dataset;
pub use logreg::LogisticRegression;
pub use naive_bayes::BernoulliNb;
pub use svm::LinearSvm;

use spa_linalg::{RowView, SparseVec};
use spa_types::Result;

/// A binary classifier with a real-valued decision function.
///
/// Labels are `+1.0` / `-1.0`. The decision function must be monotone in
/// the predicted probability of the positive class so that ranking by it
/// is meaningful (this is what the paper's *selection function* does).
///
/// Implementors provide [`Classifier::decision_view`], the zero-copy
/// hot path: it scores a borrowed [`RowView`] so batch scoring never
/// clones a row out of the CSR store.
pub trait Classifier {
    /// Fits on a training set.
    fn fit(&mut self, data: &Dataset) -> Result<()>;

    /// Signed score of a borrowed row; positive means the positive
    /// class. This is the allocation-free kernel everything else
    /// (single scoring, batches, ranking) routes through.
    fn decision_view(&self, x: RowView<'_>) -> Result<f64>;

    /// Signed score of an owned sparse vector.
    fn decision_function(&self, x: &SparseVec) -> Result<f64> {
        self.decision_view(x.view())
    }

    /// Hard label in `{-1.0, +1.0}`.
    fn predict(&self, x: &SparseVec) -> Result<f64> {
        Ok(if self.decision_function(x)? >= 0.0 { 1.0 } else { -1.0 })
    }

    /// Decision scores for every row of a dataset, in row order —
    /// zero-copy per row.
    fn decision_batch(&self, data: &Dataset) -> Result<Vec<f64>> {
        (0..data.len()).map(|r| self.decision_view(data.x.row(r))).collect()
    }
}

/// Incremental learners additionally accept one example at a time —
/// SPA's "powerful incremental learning mechanisms" (§4).
pub trait OnlineLearner: Classifier {
    /// Updates the model with a single labelled example.
    fn partial_fit(&mut self, x: &SparseVec, y: f64) -> Result<()>;
}
