//! The benchmark's own answer key: a scalar f32 brute-force matcher over the
//! model's `embed_batch` output.  It shares no kernel, planner or executor
//! with the program (plain loops, its own normalisation, insertion top-k),
//! so "all paths wrong together" cannot pass it.
//!
//! The program's kernels sum in a different order, so scores agree only to
//! within [`EPS`]: a pair within `EPS` of a threshold (or of the k-th best
//! score) is accepted either way, and everything clearly on one side must
//! match exactly.

use std::collections::HashSet;

use cej_vector::Matrix;

/// Slack for score comparisons between the oracle and the program.
pub const EPS: f32 = 2e-5;

/// The similarity predicate of one statement.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Pred {
    TopK(usize),
    Threshold(f32),
}

/// Row-normalised copy of a matrix in a flat buffer.
#[derive(Debug, Clone)]
pub struct Normalized {
    dim: usize,
    rows: usize,
    data: Vec<f32>,
}

impl Normalized {
    pub fn new(m: &Matrix) -> Self {
        let dim = m.cols();
        let mut data = m.as_slice().to_vec();
        for row in data.chunks_mut(dim.max(1)) {
            let norm = row.iter().map(|x| x * x).sum::<f32>().sqrt();
            if norm > 0.0 {
                for x in row.iter_mut() {
                    *x /= norm;
                }
            }
        }
        Self {
            dim,
            rows: m.rows(),
            data,
        }
    }

    pub fn rows(&self) -> usize {
        self.rows
    }

    pub fn row(&self, i: usize) -> &[f32] {
        &self.data[i * self.dim..(i + 1) * self.dim]
    }
}

/// Four independent partial sums: still plain scalar code, but the adds no
/// longer form one dependency chain, which keeps verification off the
/// critical path of a run's wall time.
fn dot(a: &[f32], b: &[f32]) -> f32 {
    let mut acc = [0.0f32; 4];
    let (a4, b4) = (a.chunks_exact(4), b.chunks_exact(4));
    let tail: f32 = a4
        .remainder()
        .iter()
        .zip(b4.remainder())
        .map(|(x, y)| x * y)
        .sum();
    for (x, y) in a4.zip(b4) {
        for lane in 0..4 {
            acc[lane] += x[lane] * y[lane];
        }
    }
    (acc[0] + acc[1]) + (acc[2] + acc[3]) + tail
}

/// What one statement must return, for every outer row.
#[derive(Debug, Clone)]
pub struct Expectation {
    pred: Pred,
    outer: Normalized,
    allowed: Vec<bool>,
    /// Top-k: the k-th best allowed score per outer row (`-inf` when fewer
    /// than k rows are allowed).
    kth: Vec<f32>,
    /// Top-k: how many pairs the oracle returns per outer row.
    per_outer: usize,
    /// Threshold: pairs clearly above the threshold — all must be returned.
    must: Vec<(u32, u32)>,
    /// Threshold: pairs above `threshold - EPS` — nothing else may be.
    may_count: usize,
}

/// How a returned pair list compares with the oracle.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Verdict {
    /// Oracle pairs the program also returned.
    pub hits: usize,
    /// Pairs the oracle returns.
    pub oracle_pairs: usize,
    /// Every returned pair is admissible (allowed row, good enough score,
    /// no duplicates) and the count is within the oracle's band.
    pub sound: bool,
}

impl Verdict {
    /// An exact path must be sound and miss nothing.
    pub fn exact(&self) -> bool {
        self.sound && self.hits == self.oracle_pairs
    }
}

/// One statement's shape: which inner rows its pre-filter admits, and its
/// predicate.
pub struct Spec<'a> {
    pub allowed: &'a [bool],
    pub pred: Pred,
}

/// Brute-force expectations of several statements over the same outer and
/// inner embeddings (each outer row's scores are computed once).
pub fn expect(outer: &Matrix, inner: &Normalized, specs: &[Spec<'_>]) -> Vec<Expectation> {
    let outer = Normalized::new(outer);
    let mut out: Vec<Expectation> = specs
        .iter()
        .map(|spec| {
            assert_eq!(spec.allowed.len(), inner.rows(), "filter mask length");
            let allowed_rows = spec.allowed.iter().filter(|a| **a).count();
            Expectation {
                pred: spec.pred,
                outer: outer.clone(),
                allowed: spec.allowed.to_vec(),
                kth: Vec::new(),
                per_outer: match spec.pred {
                    Pred::TopK(k) => k.min(allowed_rows),
                    Pred::Threshold(_) => 0,
                },
                must: Vec::new(),
                may_count: 0,
            }
        })
        .collect();
    let mut scores = vec![0.0f32; inner.rows()];
    for o in 0..outer.rows() {
        let q = outer.row(o);
        for (i, score) in scores.iter_mut().enumerate() {
            *score = dot(q, inner.row(i));
        }
        for exp in &mut out {
            match exp.pred {
                Pred::TopK(k) => {
                    // descending insertion list of the k best allowed scores
                    let mut best: Vec<f32> = Vec::with_capacity(k + 1);
                    for (i, &s) in scores.iter().enumerate() {
                        if !exp.allowed[i] || (best.len() == k && s <= best[k - 1]) {
                            continue;
                        }
                        let at = best.partition_point(|b| *b >= s);
                        best.insert(at, s);
                        best.truncate(k);
                    }
                    exp.kth.push(if best.len() == k {
                        best[k - 1]
                    } else {
                        f32::NEG_INFINITY
                    });
                }
                Pred::Threshold(t) => {
                    for (i, &s) in scores.iter().enumerate() {
                        if !exp.allowed[i] {
                            continue;
                        }
                        if s >= t - EPS {
                            exp.may_count += 1;
                            if s >= t + EPS {
                                exp.must.push((o as u32, i as u32));
                            }
                        }
                    }
                }
            }
        }
    }
    out
}

impl Expectation {
    /// Pairs the oracle returns for this statement.
    pub fn oracle_pairs(&self) -> usize {
        match self.pred {
            Pred::TopK(_) => self.per_outer * self.outer.rows(),
            Pred::Threshold(_) => self.must.len(),
        }
    }

    /// Judges the `(outer row, inner row)` pairs the program returned.
    pub fn judge(&self, inner: &Normalized, pairs: &[(usize, usize)]) -> Verdict {
        let distinct: HashSet<(usize, usize)> = pairs.iter().copied().collect();
        let mut sound = distinct.len() == pairs.len();
        let in_range =
            |&(o, i): &(usize, usize)| o < self.outer.rows() && i < inner.rows() && self.allowed[i];
        match self.pred {
            Pred::TopK(_) => {
                let mut hits_per_outer = vec![0usize; self.outer.rows()];
                for pair in &distinct {
                    if !in_range(pair) {
                        sound = false;
                        continue;
                    }
                    let (o, i) = *pair;
                    if dot(self.outer.row(o), inner.row(i)) >= self.kth[o] - EPS {
                        hits_per_outer[o] += 1;
                    }
                }
                let mut returned_per_outer = vec![0usize; self.outer.rows()];
                for &(o, _) in pairs.iter().filter(|p| in_range(p)) {
                    returned_per_outer[o] += 1;
                }
                sound &= returned_per_outer.iter().all(|n| *n <= self.per_outer);
                let hits = hits_per_outer
                    .iter()
                    .map(|h| (*h).min(self.per_outer))
                    .sum();
                Verdict {
                    hits,
                    oracle_pairs: self.oracle_pairs(),
                    sound,
                }
            }
            Pred::Threshold(t) => {
                for pair in &distinct {
                    if !in_range(pair) || dot(self.outer.row(pair.0), inner.row(pair.1)) < t - EPS {
                        sound = false;
                    }
                }
                sound &= pairs.len() <= self.may_count;
                let hits = self
                    .must
                    .iter()
                    .filter(|(o, i)| distinct.contains(&(*o as usize, *i as usize)))
                    .count();
                Verdict {
                    hits,
                    oracle_pairs: self.must.len(),
                    sound,
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn matrix(rows: &[[f32; 2]]) -> Matrix {
        let flat: Vec<f32> = rows.iter().flatten().copied().collect();
        Matrix::from_flat(rows.len(), 2, flat).unwrap()
    }

    fn fixture() -> (Matrix, Normalized) {
        // outer 0 points along x, outer 1 along y; inner rows fan out between
        let outer = matrix(&[[2.0, 0.0], [0.0, 3.0]]);
        let inner = Normalized::new(&matrix(&[
            [1.0, 0.0],
            [0.9, 0.1],
            [0.5, 0.5],
            [0.1, 0.9],
            [0.0, 1.0],
        ]));
        (outer, inner)
    }

    #[test]
    fn topk_judges_hits_filter_and_overflow() {
        let (outer, inner) = fixture();
        let allowed = [true, false, true, true, true];
        let exp = &expect(
            &outer,
            &inner,
            &[Spec {
                allowed: &allowed,
                pred: Pred::TopK(2),
            }],
        )[0];
        assert_eq!(exp.oracle_pairs(), 4);
        // exact answer: outer 0 -> {0, 2}; outer 1 -> {4, 3}
        let exact = exp.judge(&inner, &[(0, 0), (0, 2), (1, 4), (1, 3)]);
        assert!(exact.exact());
        assert_eq!((exact.hits, exact.oracle_pairs), (4, 4));
        // an approximate answer that misses one neighbour is sound, recall 3/4
        let approx = exp.judge(&inner, &[(0, 0), (0, 3), (1, 4), (1, 3)]);
        assert!(approx.sound && !approx.exact());
        assert_eq!((approx.hits, approx.oracle_pairs), (3, 4));
        // returning a filtered-out row, a duplicate, or k+1 rows is unsound
        assert!(!exp.judge(&inner, &[(0, 1)]).sound);
        assert!(!exp.judge(&inner, &[(0, 0), (0, 0)]).sound);
        assert!(!exp.judge(&inner, &[(0, 0), (0, 2), (0, 3)]).sound);
    }

    #[test]
    fn topk_with_fewer_allowed_rows_than_k() {
        let (outer, inner) = fixture();
        let allowed = [false, false, true, false, false];
        let exp = &expect(
            &outer,
            &inner,
            &[Spec {
                allowed: &allowed,
                pred: Pred::TopK(3),
            }],
        )[0];
        assert_eq!(exp.oracle_pairs(), 2);
        assert!(exp.judge(&inner, &[(0, 2), (1, 2)]).exact());
    }

    #[test]
    fn threshold_requires_clear_pairs_and_rejects_low_ones() {
        let (outer, inner) = fixture();
        let allowed = [true; 5];
        let exp = &expect(
            &outer,
            &inner,
            &[Spec {
                allowed: &allowed,
                pred: Pred::Threshold(0.9),
            }],
        )[0];
        // cos(outer0, inner1) = 0.9/sqrt(0.82) = 0.9939; inner2 = 0.7071
        assert_eq!(exp.oracle_pairs(), 4);
        assert!(exp.judge(&inner, &[(0, 0), (0, 1), (1, 4), (1, 3)]).exact());
        let missing = exp.judge(&inner, &[(0, 0), (1, 4), (1, 3)]);
        assert!(missing.sound && !missing.exact());
        assert!(
            !exp.judge(&inner, &[(0, 0), (0, 1), (0, 2), (1, 4), (1, 3)])
                .sound
        );
    }

    #[test]
    fn empty_oracle_answer_is_exactly_matched_by_nothing() {
        let (outer, inner) = fixture();
        let allowed = [true; 5];
        let exp = &expect(
            &outer,
            &inner,
            &[Spec {
                allowed: &allowed,
                pred: Pred::Threshold(1.5),
            }],
        )[0];
        let verdict = exp.judge(&inner, &[]);
        assert!(verdict.exact());
        assert_eq!((verdict.hits, verdict.oracle_pairs), (0, 0));
    }
}
