//! The line-oriented text protocol `cej-server` speaks.
//!
//! One request per line, whitespace-separated tokens, case-sensitive
//! keywords; the full grammar (also documented in the README's Serving
//! section):
//!
//! ```text
//! PING
//! QUIT
//! STATS
//! METRICS
//! TRACE (LAST | SLOW | <trace-id>)
//! PREPARE <id> QUERY <table>
//!         [JOIN <table> ON <ta>.<ca>=<tb>.<cb>]...
//!         [EJOIN <table> ON <lcol>~<rcol> MODEL <model> (TOPK <k> | SIM <t>)]...
//!         [WHERE <table>.<col> <op> <value>]...
//! BIND <id> <new-id> <threshold> [AT <index>]
//! RUN <id>
//! EXPLAIN <id>
//! ANALYZE <id>
//! PROBE <id> <text…>
//! SUBSCRIBE <id>
//! UNSUBSCRIBE <sub>
//! APPLY <table> APPEND <row>[;<row>]…
//! APPLY <table> DELETE <key-column> <key>[;<key>]…
//! APPLY <table> UPSERT <key-column> <row>[;<row>]…
//! ```
//!
//! plus the probe template (one ad-hoc string per `PROBE` request against a
//! registered table):
//!
//! ```text
//! PREPARE <id> PROBE <rt>.<rcol> MODEL <model> TOPK <k>
//! ```
//!
//! `QUERY` composes any number of hash equi-joins (`JOIN … ON a.x=b.y`,
//! column names preserved, one side must name the table being added) and
//! context-enhanced joins (`EJOIN … ON lcol~rcol`, output renamed `l_*` /
//! `r_*` plus `similarity`) over filtered scans; the optimizer's DP pass
//! picks the execution order, so clause order only affects naming, not cost.
//! `WHERE <table>.<col>` clauses attach to that table's scan before any
//! join.  `BIND … AT <index>` targets the index-th `SIM` ejoin (explain
//! order, 0-based) when a plan has several.
//!
//! `<op>` is one of `= != < <= > >=`; `<value>` parses as an integer, then
//! a float, then falls back to a string token.  Responses are
//! `OK <detail>` / `ERR <message>` single lines, except row payloads:
//!
//! ```text
//! ROWS <n> <cols>
//! <tab-separated column names>
//! <tab-separated row> × n
//! END <fnv1a-64-checksum-hex>
//! ```
//!
//! and text payloads (`EXPLAIN` / `ANALYZE` / `METRICS` / `TRACE`):
//! `TEXT <n>` followed by `n` lines.  The `END` checksum covers the header
//! and every row in order, so clients can assert byte-identical results
//! across servers and thread counts without hashing themselves.
//!
//! ## Observability verbs
//!
//! `METRICS` renders the server's unified metrics registry in Prometheus
//! text exposition format (`# HELP`/`# TYPE` plus samples; histograms as
//! cumulative `_bucket{le="…"}` series) — the scrape surface.  `TRACE LAST`
//! renders the span tree of the last query traced *on this connection*
//! (falling back to the most recent trace process-wide), `TRACE <id>`
//! renders a specific trace by the id reported in slow-query entries, and
//! `TRACE SLOW` lists the slow-query log (queries at or above
//! `CEJ_SLOW_QUERY_MS`, traced even when sampling is off).  Tracing of
//! served queries follows `CEJ_TRACE_SAMPLE` (default: every query).
//!
//! ## Incremental views on the wire
//!
//! `APPLY` mutates a registered table (rows are `|`-separated cells in
//! schema column order, `;` separates rows; cells may contain spaces but
//! not `|`, `;`, tabs, or newlines; each cell parses as the column's
//! declared type, so the payload stays untyped like `WHERE` values).
//! `SUBSCRIBE <id>` turns the prepared statement `<id>` into a standing
//! query and answers `OK subscribed <sub>`; from then on every `APPLY`
//! that changes its result pushes one asynchronous frame to the
//! subscribing connection (flushed between requests, never inside a
//! response):
//!
//! ```text
//! DELTA <sub> <version> <n-added> <n-removed> <cols> <delta|refresh|snapshot>
//! <tab-separated column names>
//! +<tab-separated row> × n-added
//! -<tab-separated row> × n-removed
//! END <fnv1a-64-checksum-hex>
//! ```
//!
//! `version` is the mutated base table's version after the delta,
//! `refresh` marks a frame produced by a full re-run (still an exact
//! diff), and `snapshot` marks a mailbox-overflow recovery frame whose
//! `+` rows are the complete current result (replace, don't patch).  The
//! `END` checksum covers the header and signed rows like `ROWS`.
//!
//! This module is pure (parsing and rendering only) and unit-tested
//! without sockets.

use cej_core::ResultDelta;
use cej_relational::{col, lit_f64, lit_i64, lit_str, Expr, LogicalPlan, SimilarityPredicate};
use cej_storage::{Column, DataType, Delta, Field, ScalarValue, Schema, Table};

/// One filter clause of a prepared statement.
#[derive(Debug, Clone, PartialEq)]
pub struct WhereClause {
    /// Column the predicate applies to.
    pub column: String,
    /// Comparison operator token (`=`, `!=`, `<`, `<=`, `>`, `>=`).
    pub op: String,
    /// Raw value token (typed at plan-build time).
    pub value: String,
}

impl WhereClause {
    /// Lowers the clause to an [`Expr`], typing the value as int → float →
    /// string in that order.
    ///
    /// # Errors
    /// Returns a message for unknown operators.
    pub fn to_expr(&self) -> Result<Expr, String> {
        let value = if let Ok(i) = self.value.parse::<i64>() {
            lit_i64(i)
        } else if let Ok(f) = self.value.parse::<f64>() {
            lit_f64(f)
        } else {
            lit_str(&self.value)
        };
        let lhs = col(&self.column);
        Ok(match self.op.as_str() {
            "=" => lhs.eq(value),
            "!=" => lhs.not_eq(value),
            "<" => lhs.lt(value),
            "<=" => lhs.lt_eq(value),
            ">" => lhs.gt(value),
            ">=" => lhs.gt_eq(value),
            other => return Err(format!("unknown operator `{other}`")),
        })
    }
}

/// One `JOIN <table> ON <ta>.<ca>=<tb>.<cb>` step of a `QUERY` statement.
#[derive(Debug, Clone, PartialEq)]
pub struct JoinStep {
    /// The table this step adds to the query.
    pub table: String,
    /// Join column on the accumulated left side (a column of an
    /// already-added table; names are preserved by hash joins).
    pub left_column: String,
    /// Join column on the added table.
    pub right_column: String,
}

/// One `EJOIN <table> ON <lcol>~<rcol> MODEL <m> …` step of a `QUERY`
/// statement.
#[derive(Debug, Clone, PartialEq)]
pub struct EjoinStep {
    /// The table this step adds to the query.
    pub table: String,
    /// Text column on the accumulated left side (post-rename name if a
    /// previous `EJOIN` already prefixed it).
    pub left_column: String,
    /// Text column on the added table.
    pub right_column: String,
    /// Embedding model name.
    pub model: String,
    /// Similarity predicate.
    pub predicate: SimilarityPredicate,
}

/// A statement spec a client registered with `PREPARE`.
#[derive(Debug, Clone, PartialEq)]
pub enum StatementSpec {
    /// `QUERY <table> [JOIN …]… [EJOIN …]… [WHERE …]…` — the N-table query
    /// form: filtered scans composed by hash equi-joins and context-enhanced
    /// joins, join order chosen by the optimizer.
    Query {
        /// First table of the query.
        base: String,
        /// Hash equi-join steps, in clause order.
        joins: Vec<JoinStep>,
        /// Context-enhanced join steps, applied after the equi-joins (the
        /// DP pass may sink equi-joins below them).
        ejoins: Vec<EjoinStep>,
        /// Per-table filters: `(table, clause)`, attached to that table's
        /// scan.
        filters: Vec<(String, WhereClause)>,
    },
    /// `PROBE …` — a template joining one ad-hoc probe string (supplied per
    /// `PROBE <id> <text>` request) against a registered table.
    ProbeTemplate {
        /// Inner table.
        right_table: String,
        /// Inner join column.
        right_column: String,
        /// Embedding model name.
        model: String,
        /// Neighbours returned per probe.
        k: usize,
    },
}

impl StatementSpec {
    /// Builds the logical plan for this spec.  For probe templates,
    /// `probe_table` names the (per-connection) one-row table holding the
    /// ad-hoc text in column `text`.
    ///
    /// # Errors
    /// Returns a message for untypable filters.
    pub fn to_plan(&self, probe_table: Option<&str>) -> Result<LogicalPlan, String> {
        match self {
            StatementSpec::Query {
                base,
                joins,
                ejoins,
                filters,
            } => {
                let filtered_scan = |table: &str| -> Result<LogicalPlan, String> {
                    let mut plan = LogicalPlan::scan(table);
                    for (t, clause) in filters {
                        if t == table {
                            plan = plan.select(clause.to_expr()?);
                        }
                    }
                    Ok(plan)
                };
                let mut plan = filtered_scan(base)?;
                for step in joins {
                    plan = LogicalPlan::join(
                        plan,
                        filtered_scan(&step.table)?,
                        &step.left_column,
                        &step.right_column,
                    );
                }
                for step in ejoins {
                    plan = LogicalPlan::e_join(
                        plan,
                        filtered_scan(&step.table)?,
                        &step.left_column,
                        &step.right_column,
                        &step.model,
                        step.predicate,
                    );
                }
                Ok(plan)
            }
            StatementSpec::ProbeTemplate {
                right_table,
                right_column,
                model,
                k,
            } => {
                let probe = probe_table.ok_or("probe template requires a probe table")?;
                Ok(LogicalPlan::e_join(
                    LogicalPlan::scan(probe),
                    LogicalPlan::scan(right_table),
                    "text",
                    right_column,
                    model,
                    SimilarityPredicate::TopK(*k),
                ))
            }
        }
    }
}

/// The mutation payload of an `APPLY` request.  Row and key payloads stay
/// raw strings at parse time — the protocol layer has no schema access —
/// and are typed against the target table's schema by [`build_delta`] at
/// dispatch.
#[derive(Debug, Clone, PartialEq)]
pub enum ApplySpec {
    /// `APPEND <row>[;<row>]…` — rows in schema column order.
    Append {
        /// Raw `;`-separated rows of `|`-separated cells.
        rows: String,
    },
    /// `DELETE <key-column> <key>[;<key>]…` — multiset delete by key.
    Delete {
        /// Column the keys are matched against.
        key_column: String,
        /// Raw `;`-separated key values.
        keys: String,
    },
    /// `UPSERT <key-column> <row>[;<row>]…` — insert-or-replace by key.
    Upsert {
        /// Column upsert keys are matched against.
        key_column: String,
        /// Raw `;`-separated replacement rows of `|`-separated cells.
        rows: String,
    },
}

/// A parsed client request.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// Liveness check.
    Ping,
    /// Close the connection.
    Quit,
    /// Server / session statistics.
    Stats,
    /// Register a statement under an id.
    Prepare {
        /// Statement id.
        id: String,
        /// The statement (boxed: specs dwarf the other variants).
        spec: Box<StatementSpec>,
    },
    /// Re-bind a prepared threshold join to a new threshold.
    Bind {
        /// Source statement id.
        id: String,
        /// Id the re-bound statement registers under.
        new_id: String,
        /// New similarity threshold.
        threshold: f32,
        /// Which `SIM` ejoin to rebind (explain order, 0-based) when the
        /// plan has several; `None` requires an unambiguous single target.
        at: Option<usize>,
    },
    /// Execute a prepared statement.
    Run {
        /// Statement id.
        id: String,
    },
    /// Render the physical plan of a prepared statement.
    Explain {
        /// Statement id.
        id: String,
    },
    /// Execute and render estimated-vs-actual rows (`EXPLAIN ANALYZE`).
    Analyze {
        /// Statement id.
        id: String,
    },
    /// Execute a probe template against ad-hoc text.
    Probe {
        /// Template id.
        id: String,
        /// The probe text (rest of the line, may contain spaces).
        text: String,
    },
    /// Mutate a registered table and propagate to standing queries.
    Apply {
        /// Target table.
        table: String,
        /// The mutation payload.
        spec: ApplySpec,
    },
    /// Turn a prepared statement into a standing query streaming `DELTA`
    /// frames to this connection.
    Subscribe {
        /// Statement id.
        id: String,
    },
    /// Cancel a standing query by its subscription id.
    Unsubscribe {
        /// Subscription id (as returned by `OK subscribed <sub>`).
        sub: u64,
    },
    /// Render the metrics registry in Prometheus text exposition format.
    Metrics,
    /// Render a captured query trace (span tree) or the slow-query log.
    Trace {
        /// Which trace to render.
        target: TraceTarget,
    },
}

/// Target of a `TRACE` request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceTarget {
    /// The last trace captured on this connection (process-wide fallback).
    Last,
    /// The slow-query log.
    Slow,
    /// A specific trace by id.
    Id(u64),
}

/// Splits `table.column` into its parts.
fn table_column(token: &str) -> Result<(String, String), String> {
    match token.split_once('.') {
        Some((t, c)) if !t.is_empty() && !c.is_empty() => Ok((t.to_string(), c.to_string())),
        _ => Err(format!("expected <table>.<column>, got `{token}`")),
    }
}

impl Command {
    /// Parses one request line.
    ///
    /// # Errors
    /// Returns a human-readable message for malformed requests; the server
    /// relays it as `ERR <message>`.
    pub fn parse(line: &str) -> Result<Command, String> {
        let line = line.trim();
        let tokens: Vec<&str> = line.split_whitespace().collect();
        let Some((&head, rest)) = tokens.split_first() else {
            return Err("empty request".to_string());
        };
        match head {
            "PING" => Ok(Command::Ping),
            "QUIT" => Ok(Command::Quit),
            "STATS" => Ok(Command::Stats),
            "METRICS" => Ok(Command::Metrics),
            "TRACE" => {
                let [target] = rest else {
                    return Err("TRACE takes LAST, SLOW, or a trace id".to_string());
                };
                let target = match *target {
                    "LAST" => TraceTarget::Last,
                    "SLOW" => TraceTarget::Slow,
                    id => TraceTarget::Id(id.parse().map_err(|_| format!("bad trace id `{id}`"))?),
                };
                Ok(Command::Trace { target })
            }
            "RUN" | "EXPLAIN" | "ANALYZE" => {
                let [id] = rest else {
                    return Err(format!("{head} takes exactly one statement id"));
                };
                let id = (*id).to_string();
                Ok(match head {
                    "RUN" => Command::Run { id },
                    "EXPLAIN" => Command::Explain { id },
                    _ => Command::Analyze { id },
                })
            }
            "BIND" => {
                let (core, at) = match rest {
                    [core @ .., at_kw, index] if *at_kw == "AT" => {
                        let index: usize =
                            index.parse().map_err(|_| format!("bad index `{index}`"))?;
                        (core, Some(index))
                    }
                    _ => (rest, None),
                };
                let [id, new_id, threshold] = core else {
                    return Err("BIND takes <id> <new-id> <threshold> [AT <index>]".to_string());
                };
                let threshold: f32 = threshold
                    .parse()
                    .map_err(|_| format!("bad threshold `{threshold}`"))?;
                Ok(Command::Bind {
                    id: (*id).to_string(),
                    new_id: (*new_id).to_string(),
                    threshold,
                    at,
                })
            }
            "PROBE" => {
                // the probe text is the raw remainder of the line after the
                // id token, spaces included
                let after_keyword = line["PROBE".len()..].trim_start();
                let Some((id, text)) = after_keyword.split_once(char::is_whitespace) else {
                    return Err("PROBE takes <id> <text…>".to_string());
                };
                let text = text.trim();
                if text.is_empty() {
                    return Err("PROBE needs non-empty text".to_string());
                }
                Ok(Command::Probe {
                    id: id.to_string(),
                    text: text.to_string(),
                })
            }
            "SUBSCRIBE" => {
                let [id] = rest else {
                    return Err("SUBSCRIBE takes exactly one statement id".to_string());
                };
                Ok(Command::Subscribe {
                    id: (*id).to_string(),
                })
            }
            "UNSUBSCRIBE" => {
                let [sub] = rest else {
                    return Err("UNSUBSCRIBE takes exactly one subscription id".to_string());
                };
                let sub = sub
                    .parse()
                    .map_err(|_| format!("bad subscription id `{sub}`"))?;
                Ok(Command::Unsubscribe { sub })
            }
            "APPLY" => Self::parse_apply(line),
            "PREPARE" => Self::parse_prepare(rest),
            other => Err(format!("unknown command `{other}`")),
        }
    }

    /// Parses `APPLY <table> <verb> …` from the raw line — payload cells may
    /// contain spaces, so token-wise parsing stops at the verb.
    fn parse_apply(line: &str) -> Result<Command, String> {
        const USAGE: &str =
            "APPLY takes <table> (APPEND <rows> | DELETE <key-col> <keys> | UPSERT <key-col> <rows>)";
        let after = line["APPLY".len()..].trim_start();
        let Some((table, after)) = after.split_once(char::is_whitespace) else {
            return Err(USAGE.to_string());
        };
        let (verb, tail) = match after.trim_start().split_once(char::is_whitespace) {
            Some((verb, tail)) => (verb, tail.trim()),
            None => (after.trim(), ""),
        };
        let spec = match verb {
            "APPEND" => {
                if tail.is_empty() {
                    return Err("APPEND needs at least one row".to_string());
                }
                ApplySpec::Append {
                    rows: tail.to_string(),
                }
            }
            "DELETE" | "UPSERT" => {
                let Some((key_column, payload)) = tail.split_once(char::is_whitespace) else {
                    return Err(format!("{verb} takes <key-column> and a payload"));
                };
                let payload = payload.trim();
                if payload.is_empty() {
                    return Err(format!("{verb} takes <key-column> and a payload"));
                }
                let key_column = key_column.to_string();
                if verb == "DELETE" {
                    ApplySpec::Delete {
                        key_column,
                        keys: payload.to_string(),
                    }
                } else {
                    ApplySpec::Upsert {
                        key_column,
                        rows: payload.to_string(),
                    }
                }
            }
            other => return Err(format!("expected APPEND/DELETE/UPSERT, got `{other}`")),
        };
        Ok(Command::Apply {
            table: table.to_string(),
            spec,
        })
    }

    fn parse_prepare(rest: &[&str]) -> Result<Command, String> {
        let [id, kind, tail @ ..] = rest else {
            return Err("PREPARE takes <id> <QUERY|PROBE> …".to_string());
        };
        let id = (*id).to_string();
        match *kind {
            "QUERY" => {
                let [base, clauses @ ..] = tail else {
                    return Err("PREPARE … QUERY takes <table>".to_string());
                };
                let spec = Self::parse_query((*base).to_string(), clauses)?;
                Ok(Command::Prepare {
                    id,
                    spec: Box::new(spec),
                })
            }
            "PROBE" => {
                let [target, model_kw, model, topk_kw, k] = tail else {
                    return Err("PREPARE … PROBE takes <rt>.<rc> MODEL <m> TOPK <k>".to_string());
                };
                if *model_kw != "MODEL" || *topk_kw != "TOPK" {
                    return Err("probe templates use MODEL <m> TOPK <k>".to_string());
                }
                let (right_table, right_column) = table_column(target)?;
                Ok(Command::Prepare {
                    id,
                    spec: Box::new(StatementSpec::ProbeTemplate {
                        right_table,
                        right_column,
                        model: (*model).to_string(),
                        k: k.parse().map_err(|_| format!("bad k `{k}`"))?,
                    }),
                })
            }
            other => Err(format!("unknown statement kind `{other}`")),
        }
    }

    /// Parses the clause list of a `QUERY` statement (everything after the
    /// base table).
    fn parse_query(base: String, mut cursor: &[&str]) -> Result<StatementSpec, String> {
        let mut joins = Vec::new();
        let mut ejoins = Vec::new();
        let mut filters = Vec::new();
        let mut known: Vec<String> = vec![base.clone()];
        while let Some((&keyword, rest)) = cursor.split_first() {
            match keyword {
                "JOIN" => {
                    let [table, on_kw, cond, tail @ ..] = rest else {
                        return Err("JOIN takes <table> ON <ta>.<ca>=<tb>.<cb>".to_string());
                    };
                    if *on_kw != "ON" {
                        return Err(format!("expected ON, got `{on_kw}`"));
                    }
                    let Some((a, b)) = cond.split_once('=') else {
                        return Err(format!("expected <ta>.<ca>=<tb>.<cb>, got `{cond}`"));
                    };
                    let (ta, ca) = table_column(a)?;
                    let (tb, cb) = table_column(b)?;
                    // exactly one side names the table being added; the
                    // other must already be part of the query
                    let (left_column, right_column) = if tb == *table && known.contains(&ta) {
                        (ca, cb)
                    } else if ta == *table && known.contains(&tb) {
                        (cb, ca)
                    } else {
                        return Err(format!(
                            "JOIN ON must equate a column of `{table}` with a column of an \
                             already-joined table, got `{cond}`"
                        ));
                    };
                    known.push((*table).to_string());
                    joins.push(JoinStep {
                        table: (*table).to_string(),
                        left_column,
                        right_column,
                    });
                    cursor = tail;
                }
                "EJOIN" => {
                    let [table, on_kw, cond, model_kw, model, pred_kw, pred_val, tail @ ..] = rest
                    else {
                        return Err("EJOIN takes <table> ON <lc>~<rc> MODEL <m> \
                                    (TOPK <k> | SIM <t>)"
                            .to_string());
                    };
                    if *on_kw != "ON" {
                        return Err(format!("expected ON, got `{on_kw}`"));
                    }
                    if *model_kw != "MODEL" {
                        return Err(format!("expected MODEL, got `{model_kw}`"));
                    }
                    let Some((lc, rc)) = cond.split_once('~') else {
                        return Err(format!("expected <lcol>~<rcol>, got `{cond}`"));
                    };
                    if lc.is_empty() || rc.is_empty() {
                        return Err(format!("expected <lcol>~<rcol>, got `{cond}`"));
                    }
                    let predicate = parse_predicate(pred_kw, pred_val)?;
                    known.push((*table).to_string());
                    ejoins.push(EjoinStep {
                        table: (*table).to_string(),
                        left_column: lc.to_string(),
                        right_column: rc.to_string(),
                        model: (*model).to_string(),
                        predicate,
                    });
                    cursor = tail;
                }
                "WHERE" => {
                    let [target, op, value, tail @ ..] = rest else {
                        return Err("WHERE takes <table>.<col> <op> <value>".to_string());
                    };
                    let (table, column) = table_column(target)?;
                    if !known.contains(&table) {
                        return Err(format!("WHERE references unjoined table `{table}`"));
                    }
                    filters.push((
                        table,
                        WhereClause {
                            column,
                            op: (*op).to_string(),
                            value: (*value).to_string(),
                        },
                    ));
                    cursor = tail;
                }
                other => return Err(format!("expected JOIN/EJOIN/WHERE, got `{other}`")),
            }
        }
        Ok(StatementSpec::Query {
            base,
            joins,
            ejoins,
            filters,
        })
    }
}

/// Parses a `TOPK <k>` / `SIM <t>` predicate pair.
fn parse_predicate(keyword: &str, value: &str) -> Result<SimilarityPredicate, String> {
    match keyword {
        "TOPK" => Ok(SimilarityPredicate::TopK(
            value.parse().map_err(|_| format!("bad k `{value}`"))?,
        )),
        "SIM" => Ok(SimilarityPredicate::Threshold(
            value
                .parse()
                .map_err(|_| format!("bad threshold `{value}`"))?,
        )),
        other => Err(format!("expected TOPK or SIM, got `{other}`")),
    }
}

/// FNV-1a 64-bit, the checksum clients see in `END` lines — the same
/// implementation the embedding layer hashes n-grams with (one definition,
/// one wire format).
pub use cej_embedding::hasher::fnv1a;

/// Appends one table cell deterministically (`{}` formatting for numbers is
/// stable across platforms and thread counts).  Tabs, newlines and carriage
/// returns in strings would break the line framing and become spaces; a
/// vector renders as `<vec dim>` and a boolean as `<?>`.
fn render_cell(out: &mut String, column: &Column, row: usize) {
    use std::fmt::Write;
    // writing into a `String` cannot fail
    let _ = match column {
        Column::Int64(values) => write!(out, "{}", values[row]),
        Column::Float64(values) => write!(out, "{}", values[row]),
        Column::Date(values) => write!(out, "{}", values[row]),
        Column::Vector(matrix) => write!(out, "<vec {}>", matrix.cols()),
        Column::Bool(_) => out.write_str("<?>"),
        Column::Utf8(values) => {
            let mut rest = values[row].as_str();
            while let Some(at) = rest.find(['\t', '\n', '\r']) {
                out.push_str(&rest[..at]);
                out.push(' ');
                // the three separators are one byte each
                rest = &rest[at + 1..];
            }
            out.write_str(rest)
        }
    };
}

/// Appends the tab-separated column names and a newline.
fn render_names(out: &mut String, table: &Table) {
    for (c, field) in table.schema().fields().iter().enumerate() {
        if c > 0 {
            out.push('\t');
        }
        out.push_str(&field.name);
    }
    out.push('\n');
}

/// Appends one row's tab-separated cells and a newline.
fn render_row(out: &mut String, table: &Table, row: usize) {
    for (c, column) in table.columns().iter().enumerate() {
        if c > 0 {
            out.push('\t');
        }
        render_cell(out, column, row);
    }
    out.push('\n');
}

/// Renders a result table as the `ROWS … END <checksum>` payload.
pub fn render_table(table: &Table) -> String {
    let mut out = format!("ROWS {} {}\n", table.num_rows(), table.num_columns());
    let payload = out.len();
    render_names(&mut out, table);
    for row in 0..table.num_rows() {
        render_row(&mut out, table, row);
    }
    let checksum = fnv1a(&out.as_bytes()[payload..]);
    out.push_str(&format!("END {checksum:016x}\n"));
    out
}

/// Types an `APPLY` payload against the target table's schema, producing
/// the storage-layer [`Delta`].  Each cell parses as its column's declared
/// type — the wire format carries no type tags, exactly like `WHERE`
/// values, but nothing is ever guessed because the schema decides.
///
/// # Errors
/// Returns a message for unknown key columns, arity mismatches, cells that
/// do not parse as the column type, and vector columns (not writable over
/// the wire).
pub fn build_delta(spec: &ApplySpec, schema: &Schema) -> Result<Delta, String> {
    match spec {
        ApplySpec::Append { rows } => Ok(Delta::Append(parse_rows(schema, rows)?)),
        ApplySpec::Delete { key_column, keys } => {
            let field = schema.field(key_column).map_err(|e| e.to_string())?;
            let keys = keys
                .split(';')
                .map(|key| parse_scalar(field.data_type, key.trim(), key_column))
                .collect::<Result<Vec<_>, _>>()?;
            Ok(Delta::DeleteByKey {
                key_column: key_column.clone(),
                keys,
            })
        }
        ApplySpec::Upsert { key_column, rows } => {
            schema.field(key_column).map_err(|e| e.to_string())?;
            Ok(Delta::Upsert {
                key_column: key_column.clone(),
                rows: parse_rows(schema, rows)?,
            })
        }
    }
}

/// Parses a `;`-separated row payload into a table of `schema`.
fn parse_rows(schema: &Schema, raw: &str) -> Result<Table, String> {
    let fields = schema.fields();
    let mut cells: Vec<Vec<String>> = vec![Vec::new(); fields.len()];
    for row in raw.split(';') {
        let row_cells: Vec<&str> = row.split('|').map(str::trim).collect();
        if row_cells.len() != fields.len() {
            return Err(format!(
                "row `{}` has {} cell(s), table has {} column(s)",
                row.trim(),
                row_cells.len(),
                fields.len()
            ));
        }
        for (column, cell) in row_cells.into_iter().enumerate() {
            cells[column].push(cell.to_string());
        }
    }
    let columns = fields
        .iter()
        .zip(cells)
        .map(|(field, cells)| parse_column(field, cells))
        .collect::<Result<Vec<_>, _>>()?;
    Table::new(schema.clone(), columns).map_err(|e| e.to_string())
}

/// Parses one column's cells as the field's declared type.
fn parse_column(field: &Field, cells: Vec<String>) -> Result<Column, String> {
    let parse_err = |cell: &str| {
        format!(
            "cell `{cell}` does not parse as {} for column `{}`",
            field.data_type, field.name
        )
    };
    Ok(match field.data_type {
        DataType::Int64 => Column::Int64(
            cells
                .iter()
                .map(|c| c.parse().map_err(|_| parse_err(c)))
                .collect::<Result<_, _>>()?,
        ),
        DataType::Float64 => Column::Float64(
            cells
                .iter()
                .map(|c| c.parse().map_err(|_| parse_err(c)))
                .collect::<Result<_, _>>()?,
        ),
        DataType::Utf8 => Column::Utf8(cells),
        DataType::Date => Column::Date(
            cells
                .iter()
                .map(|c| c.parse().map_err(|_| parse_err(c)))
                .collect::<Result<_, _>>()?,
        ),
        DataType::Bool => Column::Bool(
            cells
                .iter()
                .map(|c| match c.as_str() {
                    "true" => Ok(true),
                    "false" => Ok(false),
                    other => Err(parse_err(other)),
                })
                .collect::<Result<_, _>>()?,
        ),
        DataType::Vector(_) => {
            return Err(format!(
                "column `{}` is a vector; vectors cannot be written over the wire",
                field.name
            ))
        }
    })
}

/// Parses one `DELETE` key as the key column's declared type.
fn parse_scalar(data_type: DataType, cell: &str, column: &str) -> Result<ScalarValue, String> {
    let parse_err = || format!("key `{cell}` does not parse as {data_type} for column `{column}`");
    Ok(match data_type {
        DataType::Int64 => ScalarValue::Int64(cell.parse().map_err(|_| parse_err())?),
        DataType::Float64 => ScalarValue::Float64(cell.parse().map_err(|_| parse_err())?),
        DataType::Utf8 => ScalarValue::Utf8(cell.to_string()),
        DataType::Date => ScalarValue::Date(cell.parse().map_err(|_| parse_err())?),
        DataType::Bool => match cell {
            "true" => ScalarValue::Bool(true),
            "false" => ScalarValue::Bool(false),
            _ => return Err(parse_err()),
        },
        DataType::Vector(_) => {
            return Err(format!(
                "column `{column}` is a vector; vector keys are not supported"
            ))
        }
    })
}

/// Renders one streamed standing-query frame as the
/// `DELTA … END <checksum>` payload: header line, column names, `+` rows,
/// `-` rows.  The checksum covers the names and signed rows exactly like
/// [`render_table`]'s does.
pub fn render_delta(subscription: u64, frame: &ResultDelta) -> String {
    let mut out = render_delta_header(subscription, frame);
    out.push_str(&render_delta_body(frame));
    out
}

/// The per-subscriber header line of a DELTA frame — the only part that
/// mentions the subscription id, so the serving layer can pair one header
/// per subscriber with a shared [`render_delta_body`].
pub fn render_delta_header(subscription: u64, frame: &ResultDelta) -> String {
    let kind = if frame.snapshot {
        "snapshot"
    } else if frame.refreshed {
        "refresh"
    } else {
        "delta"
    };
    format!(
        "DELTA {subscription} {} {} {} {} {kind}\n",
        frame.version,
        frame.added.num_rows(),
        frame.removed.num_rows(),
        frame.added.num_columns()
    )
}

/// The subscription-independent remainder of a DELTA frame: column names,
/// signed rows, and the `END <checksum>` trailer.  Frames produced by
/// same-fingerprint standing queries for the same
/// [`ResultDelta::seq`] have identical bodies, which is what lets the
/// server render a frame once per table change and fan it out to every
/// subscriber.
pub fn render_delta_body(frame: &ResultDelta) -> String {
    let mut payload = String::new();
    render_names(&mut payload, &frame.added);
    let mut signed_rows = |table: &Table, sign: char| {
        for row in 0..table.num_rows() {
            payload.push(sign);
            render_row(&mut payload, table, row);
        }
    };
    signed_rows(&frame.added, '+');
    signed_rows(&frame.removed, '-');
    let checksum = fnv1a(payload.as_bytes());
    payload.push_str(&format!("END {checksum:016x}\n"));
    payload
}

/// Renders a multi-line text payload (`EXPLAIN` / `ANALYZE` output).
pub fn render_text(text: &str) -> String {
    let lines: Vec<&str> = text.lines().collect();
    let mut out = format!("TEXT {}\n", lines.len());
    for line in lines {
        out.push_str(line);
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_simple_commands() {
        assert_eq!(Command::parse("PING").unwrap(), Command::Ping);
        assert_eq!(Command::parse("  QUIT  ").unwrap(), Command::Quit);
        assert_eq!(Command::parse("STATS").unwrap(), Command::Stats);
        assert_eq!(
            Command::parse("RUN q1").unwrap(),
            Command::Run { id: "q1".into() }
        );
        assert_eq!(
            Command::parse("EXPLAIN q1").unwrap(),
            Command::Explain { id: "q1".into() }
        );
        assert_eq!(
            Command::parse("ANALYZE q1").unwrap(),
            Command::Analyze { id: "q1".into() }
        );
        assert!(Command::parse("RUN").is_err());
        assert!(Command::parse("").is_err());
        assert!(Command::parse("FROBNICATE x").is_err());
    }

    #[test]
    fn parses_observability_verbs() {
        assert_eq!(Command::parse("METRICS").unwrap(), Command::Metrics);
        assert_eq!(
            Command::parse("TRACE LAST").unwrap(),
            Command::Trace {
                target: TraceTarget::Last
            }
        );
        assert_eq!(
            Command::parse("TRACE SLOW").unwrap(),
            Command::Trace {
                target: TraceTarget::Slow
            }
        );
        assert_eq!(
            Command::parse("TRACE 42").unwrap(),
            Command::Trace {
                target: TraceTarget::Id(42)
            }
        );
        assert!(Command::parse("TRACE").is_err());
        assert!(Command::parse("TRACE banana").is_err());
        assert!(Command::parse("TRACE LAST extra").is_err());
    }

    #[test]
    fn parses_prepare_join_variants() {
        let cmd = Command::parse(
            "PREPARE j1 QUERY photos EJOIN products ON caption~title MODEL ft TOPK 3 \
             WHERE photos.year >= 2023 WHERE products.price < 100",
        )
        .unwrap();
        let Command::Prepare { spec, .. } = cmd else {
            panic!()
        };
        let StatementSpec::Query {
            base,
            ejoins,
            filters,
            ..
        } = spec.as_ref()
        else {
            panic!()
        };
        assert_eq!(base, "photos");
        assert_eq!(ejoins[0].right_column, "title");
        assert_eq!(ejoins[0].predicate, SimilarityPredicate::TopK(3));
        assert_eq!(filters[0].0, "photos");
        assert_eq!(filters[1].1.column, "price");
        assert!(spec.to_plan(None).is_ok());

        assert!(Command::parse("PREPARE j3 QUERY a EJOIN b ON x~y MODEL m TOPK nope").is_err());
        assert!(Command::parse("PREPARE j5 QUERY a EJOIN b ON x~y MODLE m TOPK 1").is_err());
        // the pre-`QUERY` statement kinds are gone, with a typed error
        for gone in [
            "PREPARE s1 SCAN photos WHERE year >= 2023",
            "PREPARE j1 JOIN photos.caption products.title MODEL ft TOPK 3",
        ] {
            let err = Command::parse(gone).unwrap_err();
            assert!(err.starts_with("unknown statement kind"), "{err}");
        }
    }

    #[test]
    fn parses_probe_template_and_probe() {
        let cmd = Command::parse("PREPARE p1 PROBE products.title MODEL ft TOPK 2").unwrap();
        let Command::Prepare { spec, .. } = cmd else {
            panic!()
        };
        let plan = spec.to_plan(Some("__probe_7")).unwrap();
        assert!(matches!(plan, cej_relational::LogicalPlan::EJoin { .. }));
        assert!(spec.to_plan(None).is_err(), "needs the probe table");

        let probe = Command::parse("PROBE p1 cast iron barbecue grill").unwrap();
        assert_eq!(
            probe,
            Command::Probe {
                id: "p1".into(),
                text: "cast iron barbecue grill".into()
            }
        );
        assert!(Command::parse("PROBE p1").is_err());
    }

    #[test]
    fn parses_bind() {
        assert_eq!(
            Command::parse("BIND j1 j1lo 0.7").unwrap(),
            Command::Bind {
                id: "j1".into(),
                new_id: "j1lo".into(),
                threshold: 0.7,
                at: None
            }
        );
        assert_eq!(
            Command::parse("BIND j1 j1lo 0.7 AT 1").unwrap(),
            Command::Bind {
                id: "j1".into(),
                new_id: "j1lo".into(),
                threshold: 0.7,
                at: Some(1)
            }
        );
        assert!(Command::parse("BIND j1 j2 high").is_err());
        assert!(Command::parse("BIND j1 j2 0.7 AT x").is_err());
        assert!(Command::parse("BIND j1").is_err());
    }

    #[test]
    fn parses_query_statement() {
        let cmd = Command::parse(
            "PREPARE q1 QUERY orders \
             JOIN customers ON orders.customer_id=customers.id \
             JOIN regions ON customers.region_id=regions.id \
             EJOIN products ON note~title MODEL ft SIM 0.8 \
             WHERE orders.total >= 100 WHERE regions.name = west",
        )
        .unwrap();
        let Command::Prepare { id, spec } = cmd else {
            panic!("expected prepare");
        };
        assert_eq!(id, "q1");
        let StatementSpec::Query {
            base,
            joins,
            ejoins,
            filters,
        } = spec.as_ref()
        else {
            panic!("expected query spec");
        };
        assert_eq!(base, "orders");
        assert_eq!(joins.len(), 2);
        assert_eq!(joins[0].table, "customers");
        assert_eq!(joins[0].left_column, "customer_id");
        assert_eq!(joins[0].right_column, "id");
        assert_eq!(joins[1].left_column, "region_id");
        assert_eq!(ejoins.len(), 1);
        assert_eq!(ejoins[0].left_column, "note");
        assert_eq!(ejoins[0].right_column, "title");
        assert!(matches!(
            ejoins[0].predicate,
            SimilarityPredicate::Threshold(t) if (t - 0.8).abs() < 1e-6
        ));
        assert_eq!(filters.len(), 2);
        assert_eq!(filters[1].0, "regions");
        assert_eq!(filters[1].1.value, "west");
        let plan = spec.to_plan(None).unwrap();
        assert!(matches!(plan, cej_relational::LogicalPlan::EJoin { .. }));

        // reversed ON sides normalise to the same step
        let flipped =
            Command::parse("PREPARE q2 QUERY orders JOIN customers ON customers.id=orders.cid")
                .unwrap();
        let Command::Prepare { spec, .. } = flipped else {
            panic!()
        };
        let StatementSpec::Query { joins, .. } = spec.as_ref() else {
            panic!()
        };
        assert_eq!(joins[0].left_column, "cid");
        assert_eq!(joins[0].right_column, "id");

        // ON must connect to an already-joined table
        assert!(Command::parse("PREPARE q3 QUERY a JOIN b ON c.x=b.y").is_err());
        // WHERE on an unjoined table is rejected
        assert!(Command::parse("PREPARE q4 QUERY a WHERE b.x = 1").is_err());
        assert!(Command::parse("PREPARE q5 QUERY a FROB b").is_err());
        assert!(Command::parse("PREPARE q6 QUERY a EJOIN b ON xy MODEL m SIM 0.5").is_err());
    }

    #[test]
    fn where_clause_typing_and_operators() {
        for op in ["=", "!=", "<", "<=", ">", ">="] {
            let clause = WhereClause {
                column: "c".into(),
                op: op.into(),
                value: "5".into(),
            };
            assert!(clause.to_expr().is_ok(), "op {op}");
        }
        let bad = WhereClause {
            column: "c".into(),
            op: "~".into(),
            value: "5".into(),
        };
        assert!(bad.to_expr().is_err());
        // string fallback
        let s = WhereClause {
            column: "c".into(),
            op: "=".into(),
            value: "abc".into(),
        };
        assert!(s.to_expr().is_ok());
    }

    #[test]
    fn render_table_is_deterministic_and_checksummed() {
        let table = cej_storage::TableBuilder::new()
            .int64("id", vec![1, 2])
            .utf8("word", vec!["a\tb".into(), "c".into()])
            .float64("score", vec![0.5, 0.25])
            .build()
            .unwrap();
        let a = render_table(&table);
        let b = render_table(&table);
        assert_eq!(a, b);
        assert!(a.starts_with("ROWS 2 3\n"));
        assert!(a.contains("id\tword\tscore"));
        assert!(a.contains("a b"), "tab in cell must be escaped");
        let end = a.lines().last().unwrap();
        assert!(end.starts_with("END "));
        assert_eq!(end.len(), 4 + 16, "16-hex-digit checksum");
        // different content → different checksum
        let other = cej_storage::TableBuilder::new()
            .int64("id", vec![3])
            .utf8("word", vec!["z".into()])
            .float64("score", vec![1.0])
            .build()
            .unwrap();
        assert_ne!(
            render_table(&other).lines().last().unwrap(),
            end,
            "checksums must distinguish different payloads"
        );
    }

    /// Every column type, tab/newline/carriage-return escaping and the
    /// float spellings `{}` gives NaN, ±inf and -0.0.
    fn every_cell_kind() -> Table {
        cej_storage::TableBuilder::new()
            .int64("id", vec![1, -2, i64::MIN, i64::MAX, 0, 42])
            .float64(
                "score",
                vec![
                    f64::NAN,
                    f64::INFINITY,
                    f64::NEG_INFINITY,
                    -0.0,
                    0.1,
                    -1.5e21,
                ],
            )
            .utf8(
                "word",
                vec![
                    "a\tb".into(),
                    "line\nbreak".into(),
                    "cr\r\n".into(),
                    String::new(),
                    "plain".into(),
                    "ü ß\t\t".into(),
                ],
            )
            .date("day", vec![0, -1, 19_000, i32::MIN, i32::MAX, 7])
            .bool("flag", vec![true, false, true, false, true, false])
            .vectors(
                "emb",
                &vec![cej_vector::Vector::new(vec![1.0, 0.0, 0.0]); 6],
            )
            .unwrap()
            .build()
            .unwrap()
    }

    #[test]
    fn rendered_bytes_match_the_golden() {
        let table = every_cell_kind();
        let rows = "id\tscore\tword\tday\tflag\temb\n\
            1\tNaN\ta b\t0\t<?>\t<vec 3>\n\
            -2\tinf\tline break\t-1\t<?>\t<vec 3>\n\
            -9223372036854775808\t-inf\tcr  \t19000\t<?>\t<vec 3>\n\
            9223372036854775807\t-0\t\t-2147483648\t<?>\t<vec 3>\n\
            0\t0.1\tplain\t2147483647\t<?>\t<vec 3>\n\
            42\t-1500000000000000000000\tü ß  \t7\t<?>\t<vec 3>\n";
        assert_eq!(
            render_table(&table),
            format!("ROWS 6 6\n{rows}END a3787e332221395f\n")
        );
        let frame = ResultDelta {
            version: 3,
            seq: 9,
            added: table.take(&[0, 3]).unwrap(),
            removed: table.take(&[5]).unwrap(),
            refreshed: false,
            snapshot: false,
        };
        assert_eq!(
            render_delta_body(&frame),
            "id\tscore\tword\tday\tflag\temb\n\
             +1\tNaN\ta b\t0\t<?>\t<vec 3>\n\
             +9223372036854775807\t-0\t\t-2147483648\t<?>\t<vec 3>\n\
             -42\t-1500000000000000000000\tü ß  \t7\t<?>\t<vec 3>\n\
             END b60e7d275e84b114\n"
        );
    }

    #[test]
    fn parses_apply_subscribe_unsubscribe() {
        assert_eq!(
            Command::parse("APPLY orders APPEND 7|30|500|barbecue party; 8|10|50|tent").unwrap(),
            Command::Apply {
                table: "orders".into(),
                spec: ApplySpec::Append {
                    rows: "7|30|500|barbecue party; 8|10|50|tent".into()
                }
            }
        );
        assert_eq!(
            Command::parse("APPLY orders DELETE order_id 7;8").unwrap(),
            Command::Apply {
                table: "orders".into(),
                spec: ApplySpec::Delete {
                    key_column: "order_id".into(),
                    keys: "7;8".into()
                }
            }
        );
        assert_eq!(
            Command::parse("APPLY orders UPSERT order_id 7|30|600|new note").unwrap(),
            Command::Apply {
                table: "orders".into(),
                spec: ApplySpec::Upsert {
                    key_column: "order_id".into(),
                    rows: "7|30|600|new note".into()
                }
            }
        );
        assert_eq!(
            Command::parse("SUBSCRIBE q1").unwrap(),
            Command::Subscribe { id: "q1".into() }
        );
        assert_eq!(
            Command::parse("UNSUBSCRIBE 3").unwrap(),
            Command::Unsubscribe { sub: 3 }
        );
        assert!(Command::parse("APPLY orders").is_err());
        assert!(Command::parse("APPLY orders APPEND").is_err());
        assert!(Command::parse("APPLY orders DELETE order_id").is_err());
        assert!(Command::parse("APPLY orders FROB 1|2").is_err());
        assert!(Command::parse("SUBSCRIBE").is_err());
        assert!(Command::parse("UNSUBSCRIBE q1").is_err());
    }

    #[test]
    fn build_delta_types_cells_by_schema() {
        let table = cej_storage::TableBuilder::new()
            .int64("id", vec![1])
            .float64("price", vec![2.5])
            .utf8("note", vec!["x".into()])
            .build()
            .unwrap();
        let schema = table.schema();

        let delta = build_delta(
            &ApplySpec::Append {
                rows: "7|19.5|cast iron grill; 8|3.25|tent pole".into(),
            },
            schema,
        )
        .unwrap();
        let Delta::Append(rows) = delta else {
            panic!("expected append");
        };
        assert_eq!(rows.num_rows(), 2);
        assert_eq!(
            rows.column_by_name("id").unwrap().as_int64().unwrap(),
            &[7, 8]
        );
        assert_eq!(
            rows.column_by_name("note").unwrap().as_utf8().unwrap(),
            &["cast iron grill", "tent pole"]
        );

        let delta = build_delta(
            &ApplySpec::Delete {
                key_column: "id".into(),
                keys: "7; 8".into(),
            },
            schema,
        )
        .unwrap();
        let Delta::DeleteByKey { key_column, keys } = delta else {
            panic!("expected delete");
        };
        assert_eq!(key_column, "id");
        assert_eq!(keys, vec![ScalarValue::Int64(7), ScalarValue::Int64(8)]);

        let delta = build_delta(
            &ApplySpec::Upsert {
                key_column: "id".into(),
                rows: "7|1.0|replacement".into(),
            },
            schema,
        )
        .unwrap();
        assert!(matches!(delta, Delta::Upsert { .. }));

        // arity, typing, and unknown-column errors
        assert!(build_delta(
            &ApplySpec::Append {
                rows: "7|19.5".into()
            },
            schema
        )
        .is_err());
        assert!(build_delta(
            &ApplySpec::Append {
                rows: "seven|1.0|x".into()
            },
            schema
        )
        .is_err());
        assert!(build_delta(
            &ApplySpec::Delete {
                key_column: "ghost".into(),
                keys: "1".into()
            },
            schema
        )
        .is_err());
        assert!(build_delta(
            &ApplySpec::Delete {
                key_column: "id".into(),
                keys: "seven".into()
            },
            schema
        )
        .is_err());
    }

    #[test]
    fn render_delta_frames_signed_rows_with_checksum() {
        let added = cej_storage::TableBuilder::new()
            .int64("id", vec![7])
            .utf8("note", vec!["grill".into()])
            .build()
            .unwrap();
        let removed = added.take(&[]).unwrap();
        let frame = ResultDelta {
            version: 3,
            seq: 5,
            added,
            removed,
            refreshed: false,
            snapshot: false,
        };
        let out = render_delta(12, &frame);
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines[0], "DELTA 12 3 1 0 2 delta");
        assert_eq!(lines[1], "id\tnote");
        assert_eq!(lines[2], "+7\tgrill");
        assert!(lines[3].starts_with("END "));
        assert_eq!(lines[3].len(), 4 + 16);
        // checksum covers header + signed rows
        let payload = "id\tnote\n+7\tgrill\n";
        assert_eq!(lines[3], format!("END {:016x}", fnv1a(payload.as_bytes())));
        // refresh / snapshot kinds are flagged on the header line
        let refresh = ResultDelta {
            refreshed: true,
            ..frame.clone()
        };
        assert!(render_delta(12, &refresh).starts_with("DELTA 12 3 1 0 2 refresh\n"));
        let snapshot = ResultDelta {
            snapshot: true,
            ..frame
        };
        assert!(render_delta(12, &snapshot).starts_with("DELTA 12 3 1 0 2 snapshot\n"));
    }

    #[test]
    fn render_text_counts_lines() {
        let out = render_text("one\ntwo\nthree");
        assert!(out.starts_with("TEXT 3\n"));
        assert!(out.ends_with("three\n"));
    }
}
