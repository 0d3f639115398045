//! The answer key: a nested-loop evaluator for **unoptimised** logical
//! plans that shares nothing with the engine it checks — no kernel, no
//! planner, no optimizer rule, no executor.  Rows are `Vec<ScalarValue>`,
//! joins are two `for` loops, similarity is a scalar dot product over
//! vectors it normalises itself, top-k is an insertion list.  An engine
//! that is wrong in every one of its paths at once still cannot pass it.
//!
//! The engine's kernels sum in another order, so scores agree only to
//! within [`EPS`].  The contract (the one `benchmark/src/oracle.rs`
//! documents, lifted from pairs to whole plans): a pair within `EPS` of the
//! threshold, or of the k-th best score when more candidates sit there than
//! places are left, is accepted either way; everything clearly on one side
//! must match exactly, as a multiset of rows (`Float64` cells to within
//! `EPS`, every other cell exactly).  With `exact == false` — the
//! approximate index join — every returned row must be a real pair that
//! passes its filters (and its threshold), at most as many as the exact
//! answer holds; what may be *missing* is recall's business, not this one's.
//!
//! Outside the contract: `Embed` (the oracle embeds inside its joins), and
//! borderline pairs feeding the inner side of a further top-k join, where
//! the check may reject a right answer.  No tier-1 plan has that shape.

#![forbid(unsafe_code)]

use cej_embedding::Embedder;
use cej_relational::{CompareOp, Expr, LogicalPlan, SimilarityPredicate};
use cej_storage::{ScalarValue, Table};

/// Slack for score comparisons between the oracle and the engine.
pub const EPS: f32 = 2e-5;

/// One row of the oracle's answer.
struct Row {
    cells: Vec<ScalarValue>,
    /// A borderline pair produced it: the engine may return it or not.
    optional: bool,
    /// The oracle's own arithmetic returns it.
    picked: bool,
}

struct Relation {
    names: Vec<String>,
    rows: Vec<Row>,
}

type Answer<T> = Result<T, String>;

impl Relation {
    fn position(&self, name: &str) -> Answer<usize> {
        let found = self.names.iter().position(|n| n == name);
        found.ok_or_else(|| format!("oracle: no column `{name}` in {:?}", self.names))
    }

    /// Keeps, reorders and renames columns: `(from, to)` in output order.
    fn select(mut self, columns: &[(String, String)]) -> Answer<Relation> {
        let from = columns.iter().map(|(from, _)| self.position(from));
        let from = from.collect::<Answer<Vec<usize>>>()?;
        for row in &mut self.rows {
            row.cells = from.iter().map(|&i| row.cells[i].clone()).collect();
        }
        self.names = columns.iter().map(|(_, to)| to.clone()).collect();
        Ok(self)
    }
}

/// The tables and models plans are evaluated over, and the contract.
pub struct Oracle<'a> {
    /// Base tables by catalog name.
    pub tables: &'a [(&'a str, &'a Table)],
    /// Embedding models by registry name.
    pub models: &'a [(&'a str, &'a dyn Embedder)],
    /// `false` holds the engine to soundness only (see the crate docs).
    pub exact: bool,
}

/// The oracle's answer to one plan.
pub struct Expected {
    names: Vec<String>,
    /// Certain rows first, so matching never spends one on an optional twin.
    rows: Vec<Row>,
    /// No pair sat at a threshold, so the answer's size is determined.
    sized: bool,
    exact: bool,
}

impl Oracle<'_> {
    /// Evaluates `plan` as written.
    ///
    /// # Errors
    /// A message for unknown tables, models or columns, ill-typed
    /// predicates, and `Embed` nodes.
    pub fn expect(&self, plan: &LogicalPlan) -> Answer<Expected> {
        let mut sized = true;
        let Relation { names, mut rows } = self.eval(plan, &mut sized)?;
        rows.sort_by_key(|row| row.optional);
        let exact = self.exact;
        Ok(Expected {
            names,
            rows,
            sized,
            exact,
        })
    }

    fn eval(&self, plan: &LogicalPlan, sized: &mut bool) -> Answer<Relation> {
        match plan {
            LogicalPlan::Scan { table } => {
                let found = self.tables.iter().find(|(name, _)| *name == table.as_str());
                let (_, table) = found.ok_or_else(|| format!("oracle: no table `{table}`"))?;
                let names = table.schema().fields().iter().map(|f| f.name.clone());
                let row = |cells| Row {
                    cells,
                    optional: false,
                    picked: true,
                };
                let rows = table_rows(table)?.into_iter().map(row).collect();
                Ok(Relation {
                    names: names.collect(),
                    rows,
                })
            }
            LogicalPlan::Selection { predicate, input } => {
                let mut input = self.eval(input, sized)?;
                let mut kept = Vec::new();
                for row in std::mem::take(&mut input.rows) {
                    if truth(predicate, &input, &row)? {
                        kept.push(row);
                    }
                }
                input.rows = kept;
                Ok(input)
            }
            LogicalPlan::Projection { columns, input } => {
                let same: Vec<_> = columns.iter().map(|c| (c.clone(), c.clone())).collect();
                self.eval(input, sized)?.select(&same)
            }
            LogicalPlan::Rename { columns, input } => self.eval(input, sized)?.select(columns),
            LogicalPlan::Join {
                left,
                right,
                left_column,
                right_column,
            } => {
                let (left, right) = (self.eval(left, sized)?, self.eval(right, sized)?);
                let (lc, rc) = (left.position(left_column)?, right.position(right_column)?);
                let mut rows = Vec::new();
                for l in &left.rows {
                    for r in right.rows.iter().filter(|r| r.cells[rc] == l.cells[lc]) {
                        rows.push(pair(l, r, None, (false, true)));
                    }
                }
                Ok(Relation {
                    names: [left.names, right.names].concat(),
                    rows,
                })
            }
            LogicalPlan::EJoin {
                left,
                right,
                left_column,
                right_column,
                model,
                predicate,
            } => {
                let (left, right) = (self.eval(left, sized)?, self.eval(right, sized)?);
                let found = self.models.iter().find(|(name, _)| *name == model.as_str());
                let (_, model) = found.ok_or_else(|| format!("oracle: no model `{model}`"))?;
                let outer = unit_vectors(*model, &left, left_column)?;
                let inner = unit_vectors(*model, &right, right_column)?;
                let mut rows = Vec::new();
                for (l, q) in left.rows.iter().zip(&outer) {
                    let scores: Vec<f32> = inner.iter().map(|v| dot(q, v)).collect();
                    let verdicts = self.judge(&scores, *predicate, sized);
                    for ((r, &score), verdict) in right.rows.iter().zip(&scores).zip(verdicts) {
                        rows.extend(verdict.map(|flags| pair(l, r, Some(score), flags)));
                    }
                }
                let mut names: Vec<String> = left.names.iter().map(|n| format!("l_{n}")).collect();
                names.extend(right.names.iter().map(|n| format!("r_{n}")));
                names.push("similarity".to_string());
                Ok(Relation { names, rows })
            }
            LogicalPlan::Embed { .. } => Err("oracle: Embed is outside the contract".to_string()),
        }
    }

    /// Per inner row of one outer row: `None` = clearly not a match, else
    /// `(optional, picked)`.
    fn judge(
        &self,
        scores: &[f32],
        predicate: SimilarityPredicate,
        sized: &mut bool,
    ) -> Vec<Option<(bool, bool)>> {
        let verdict = |s: f32, bar: f32, tied: bool, picked: bool| match s {
            s if s < bar - EPS => None,
            _ if !self.exact => Some((true, picked)),
            s if s > bar + EPS => Some((false, true)),
            _ => Some((tied, picked)),
        };
        match predicate {
            SimilarityPredicate::Threshold(t) => {
                *sized &= !scores.iter().any(|s| (s - t).abs() <= EPS);
                scores
                    .iter()
                    .map(|&s| verdict(s, t, true, s >= t))
                    .collect()
            }
            SimilarityPredicate::TopK(k) => {
                // the k best rows, best first, the earlier row first among equals
                let mut best: Vec<usize> = Vec::with_capacity(k + 1);
                for (i, &s) in scores.iter().enumerate() {
                    best.insert(best.partition_point(|&b| scores[b] >= s), i);
                    best.truncate(k);
                }
                let kth = match best.get(k.wrapping_sub(1)) {
                    Some(&b) => scores[b],
                    None => f32::NEG_INFINITY,
                };
                let clear = scores.iter().filter(|&&s| s > kth + EPS).count();
                let near = scores.iter().filter(|&&s| (s - kth).abs() <= EPS).count();
                // more candidates at the k-th score than places left: a real tie
                let tied = near > k.saturating_sub(clear);
                // an approximate probe may return any row at all
                let bar = if self.exact { kth } else { f32::NEG_INFINITY };
                let judged = scores.iter().enumerate();
                judged
                    .map(|(i, &s)| verdict(s, bar, tied, best.contains(&i)))
                    .collect()
            }
        }
    }
}

/// The joined row of `l` and `r` (plus their similarity, for an ejoin).
fn pair(l: &Row, r: &Row, score: Option<f32>, (optional, picked): (bool, bool)) -> Row {
    let mut cells: Vec<ScalarValue> = l.cells.iter().chain(&r.cells).cloned().collect();
    cells.extend(score.map(|s| ScalarValue::Float64(f64::from(s))));
    Row {
        cells,
        optional: optional || l.optional || r.optional,
        picked: picked && l.picked && r.picked,
    }
}

fn table_rows(table: &Table) -> Answer<Vec<Vec<ScalarValue>>> {
    let cell = |row, c: &cej_storage::Column| c.get(row).map_err(|e| e.to_string());
    let row = |row| table.columns().iter().map(|c| cell(row, c)).collect();
    (0..table.num_rows()).map(row).collect()
}

/// The embeddings of a string column, each scaled to unit length (a
/// zero-norm vector stays zero and scores 0 against everything).
fn unit_vectors(model: &dyn Embedder, of: &Relation, column: &str) -> Answer<Vec<Vec<f32>>> {
    let at = of.position(column)?;
    let unit = |row: &Row| match &row.cells[at] {
        ScalarValue::Utf8(text) => {
            let mut v = model.embed(text).as_slice().to_vec();
            let norm = v.iter().map(|x| x * x).sum::<f32>().sqrt();
            v.iter_mut()
                .for_each(|x| *x /= if norm > 0.0 { norm } else { 1.0 });
            Ok(v)
        }
        other => Err(format!("oracle: join column `{column}` holds {other:?}")),
    };
    of.rows.iter().map(unit).collect()
}

fn dot(a: &[f32], b: &[f32]) -> f32 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

fn truth(expr: &Expr, relation: &Relation, row: &Row) -> Answer<bool> {
    let scalar = |expr: &Expr| match expr {
        Expr::Column(name) => Ok(row.cells[relation.position(name)?].clone()),
        Expr::Literal(value) => Ok(value.clone()),
        other => Err(format!("oracle: `{other:?}` is not a scalar")),
    };
    match expr {
        Expr::And(a, b) => Ok(truth(a, relation, row)? && truth(b, relation, row)?),
        Expr::Or(a, b) => Ok(truth(a, relation, row)? || truth(b, relation, row)?),
        Expr::Not(inner) => Ok(!truth(inner, relation, row)?),
        Expr::Compare { left, op, right } => {
            let (left, right) = (scalar(left)?, scalar(right)?);
            let order = left
                .partial_cmp_same_type(&right)
                .map_err(|e| e.to_string())?;
            Ok(match op {
                CompareOp::Eq => order.is_eq(),
                CompareOp::NotEq => order.is_ne(),
                CompareOp::Lt => order.is_lt(),
                CompareOp::LtEq => order.is_le(),
                CompareOp::Gt => order.is_gt(),
                CompareOp::GtEq => order.is_ge(),
            })
        }
        Expr::Column(_) | Expr::Literal(_) => match scalar(expr)? {
            ScalarValue::Bool(b) => Ok(b),
            other => Err(format!("oracle: {other:?} is not a truth value")),
        },
    }
}

fn same_cells(a: &[ScalarValue], b: &[ScalarValue]) -> bool {
    let same = |pair: (&ScalarValue, &ScalarValue)| match pair {
        (ScalarValue::Float64(x), ScalarValue::Float64(y)) => (x - y).abs() <= f64::from(EPS),
        (x, y) => x == y,
    };
    a.len() == b.len() && a.iter().zip(b).all(same)
}

impl Expected {
    /// Number of rows the oracle's own arithmetic returns.
    pub fn rows(&self) -> usize {
        self.rows.iter().filter(|row| row.picked).count()
    }

    /// Holds an engine table to the contract, as a multiset of rows.
    ///
    /// A NaN score — a NaN in some embedding — is outside the contract, as
    /// it is for the engine's `cej_vector::TopK::push` and `push_row`.  A
    /// NaN compares neither below nor above a bar, so its pair is judged
    /// borderline under a threshold; under top-k it breaks the order the
    /// oracle's best-first list is kept in, and which rows the oracle then
    /// calls certain, borderline or best is unspecified (deterministic, but
    /// not "the k best").  A NaN `Float64` cell never matches another cell.
    /// After a NaN, `check` may reject a right answer and accept a wrong
    /// one.
    ///
    /// # Errors
    /// Says which row is wrong, missing or surplus.
    pub fn check(&self, engine: &Table) -> Answer<()> {
        let names = engine.schema().fields().iter().map(|f| f.name.as_str());
        if !names.clone().eq(self.names.iter().map(String::as_str)) {
            let names: Vec<_> = names.collect();
            return Err(format!("columns {names:?}, oracle has {:?}", self.names));
        }
        let engine = table_rows(engine)?;
        let mut used = vec![false; self.rows.len()];
        for cells in &engine {
            let free = |&i: &usize| !used[i] && same_cells(cells, &self.rows[i].cells);
            match (0..used.len()).find(free) {
                Some(i) => used[i] = true,
                None => {
                    return Err(format!(
                        "{cells:?} is not in the oracle's answer (as often)"
                    ))
                }
            }
        }
        let missing = |&i: &usize| self.exact && !used[i] && !self.rows[i].optional;
        if let Some(i) = (0..used.len()).find(missing) {
            return Err(format!("engine misses {:?}", self.rows[i].cells));
        }
        let (got, want) = (engine.len(), self.rows());
        if self.sized && (got > want || (self.exact && got < want)) {
            return Err(format!("engine returned {got} rows, oracle {want}"));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cej_storage::TableBuilder;

    /// Embeds a handful of words on hand-picked 2-d directions; anything
    /// else on the zero vector.
    struct Compass;

    impl Embedder for Compass {
        fn dim(&self) -> usize {
            2
        }
        fn embed(&self, input: &str) -> cej_embedding::Vector {
            match input {
                "east" => vec![1.0, 0.0].into(),
                "far east" => vec![2.0, 0.0].into(),
                "north" => vec![0.0, 3.0].into(),
                "north east" => vec![1.0, 1.0].into(),
                _ => vec![0.0, 0.0].into(),
            }
        }
    }

    fn words(id: &str, ids: [i64; 3], text: [&str; 3]) -> Table {
        let text = text.iter().map(|s| s.to_string()).collect();
        let table = TableBuilder::new().int64(id, ids.to_vec()).utf8("w", text);
        table.build().unwrap()
    }

    type Pair = (i64, &'static str, i64, &'static str, f64);

    fn answer(rows: &[Pair]) -> Table {
        TableBuilder::new()
            .int64("l_a", rows.iter().map(|r| r.0).collect())
            .utf8("l_w", rows.iter().map(|r| r.1.to_string()).collect())
            .int64("r_b", rows.iter().map(|r| r.2).collect())
            .utf8("r_w", rows.iter().map(|r| r.3.to_string()).collect())
            .float64("similarity", rows.iter().map(|r| r.4).collect())
            .build()
            .unwrap()
    }

    /// 3 × 3; the third outer row embeds to the zero vector.
    fn expect(predicate: SimilarityPredicate, exact: bool) -> Expected {
        let outer = words("a", [1, 2, 3], ["east", "north east", "nowhere"]);
        let inner = words("b", [10, 20, 30], ["far east", "north", "north east"]);
        let (r, s) = (LogicalPlan::scan("r"), LogicalPlan::scan("s"));
        let plan = LogicalPlan::e_join(r, s, "w", "w", "m", predicate);
        let (tables, models) = (&[("r", &outer), ("s", &inner)], &[("m", &Compass as _)]);
        Oracle {
            tables,
            models,
            exact,
        }
        .expect(&plan)
        .unwrap()
    }

    const HALF: f64 = std::f64::consts::FRAC_1_SQRT_2;
    const E_FE: Pair = (1, "east", 10, "far east", 1.0);
    const E_NE: Pair = (1, "east", 30, "north east", HALF);
    const NE_FE: Pair = (2, "north east", 10, "far east", HALF);
    const NE_N: Pair = (2, "north east", 20, "north", HALF);
    const NE_NE: Pair = (2, "north east", 30, "north east", 1.0);
    const ZERO_FE: Pair = (3, "nowhere", 10, "far east", 0.0);
    const ZERO_NE: Pair = (3, "nowhere", 30, "north east", 0.0);

    #[test]
    fn threshold_is_exact_and_a_zero_norm_row_matches_nothing() {
        let expected = expect(SimilarityPredicate::Threshold(0.7), true);
        assert_eq!(expected.rows(), 5);
        let all = [E_FE, E_NE, NE_FE, NE_N, NE_NE];
        expected.check(&answer(&all)).unwrap();
        // scores agree to within EPS only; row order is free
        let mut close = [NE_NE, E_NE, NE_N, E_FE, NE_FE];
        close[1].4 += 1e-5;
        expected.check(&answer(&close)).unwrap();
        assert!(
            expected.check(&answer(&all[..4])).is_err(),
            "a pair missing"
        );
        let zero = [E_FE, E_NE, NE_FE, NE_N, NE_NE, ZERO_FE];
        assert!(expected.check(&answer(&zero)).is_err(), "cos(0, x) = 0");
        close[1].4 = 0.999;
        assert!(expected.check(&answer(&close)).is_err(), "a wrong score");
        // soundness alone forgives the missing pair, nothing else
        let sound = expect(SimilarityPredicate::Threshold(0.7), false);
        sound.check(&answer(&all[..4])).unwrap();
        assert!(sound.check(&answer(&zero)).is_err());
    }

    #[test]
    fn top_k_accepts_either_side_of_a_tie_at_the_kth_score_but_not_both() {
        let expected = expect(SimilarityPredicate::TopK(2), true);
        assert_eq!(expected.rows(), 6);
        // "north east" has one clear best and two rows tied for second
        // place; the zero-norm outer row ties with everything at 0
        let first = [E_FE, E_NE, NE_NE, NE_FE, ZERO_FE, ZERO_NE];
        let second = [E_FE, E_NE, NE_NE, NE_N, ZERO_FE, ZERO_NE];
        expected.check(&answer(&first)).unwrap();
        expected.check(&answer(&second)).unwrap();
        let both = [E_FE, E_NE, NE_NE, NE_FE, NE_N, ZERO_FE, ZERO_NE];
        assert!(expected.check(&answer(&both)).is_err(), "k + 1 rows");
        let neither = [E_FE, E_NE, NE_NE, ZERO_FE, ZERO_NE];
        assert!(expected.check(&answer(&neither)).is_err(), "k - 1 rows");
        let worse = [
            E_FE,
            (1, "east", 20, "north", 0.0),
            NE_NE,
            NE_FE,
            ZERO_FE,
            ZERO_NE,
        ];
        assert!(expected.check(&answer(&worse)).is_err(), "not a best row");
        // an approximate probe may return a worse neighbour or too few,
        // never too many or a made-up score
        let sound = expect(SimilarityPredicate::TopK(2), false);
        sound.check(&answer(&worse)).unwrap();
        sound.check(&answer(&neither)).unwrap();
        assert!(sound.check(&answer(&both)).is_err());
        let made_up = [E_FE, (1, "east", 20, "north", 0.5)];
        assert!(sound.check(&answer(&made_up)).is_err());
    }

    #[test]
    fn relational_operators_compose_under_a_hash_join() {
        use cej_relational::{col, lit_i64};
        let r = words("a", [1, 2, 3], ["east", "north", "east"]);
        let s = words("b", [3, 1, 1], ["x", "y", "z"]);
        let left = LogicalPlan::scan("r").select(col("a").lt(lit_i64(3)));
        let right = LogicalPlan::scan("s").rename(&[("w", "v"), ("b", "b")]);
        let plan = LogicalPlan::join(left, right, "a", "b").project(&["v", "w"]);
        let oracle = Oracle {
            tables: &[("r", &r), ("s", &s)],
            models: &[],
            exact: true,
        };
        let expected = oracle.expect(&plan).unwrap();
        let engine = |v: &[&str]| {
            let v: Vec<String> = v.iter().map(|s| s.to_string()).collect();
            let w = vec!["east".to_string(); v.len()];
            TableBuilder::new()
                .utf8("v", v)
                .utf8("w", w)
                .build()
                .unwrap()
        };
        expected.check(&engine(&["z", "y"])).unwrap();
        assert!(expected.check(&engine(&["y"])).is_err());
        assert!(expected.check(&engine(&["y", "z", "z"])).is_err());
    }
}
