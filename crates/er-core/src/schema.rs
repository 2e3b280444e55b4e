//! Schemas: column names, types, and similarity configuration.

use crate::{ErError, Result, Value};
use persist::{Persist, PersistError, Reader, Writer};
use similarity::{SimilarityKind, StringProfile, TokenInterner};

/// The type of a column (paper Section IV-B1 taxonomy).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ColumnType {
    /// Numeric column (`year`, `price`).
    Numeric,
    /// Categorical column with a finite value domain (`venue`, `brand`).
    Categorical,
    /// Free-text column (`title`, `authors`).
    Text,
    /// Date column, stored as days since epoch.
    Date,
}

impl ColumnType {
    /// Whether a value inhabits this column type (`Null` fits every type).
    pub fn accepts(&self, v: &Value) -> bool {
        matches!(
            (self, v),
            (_, Value::Null)
                | (ColumnType::Numeric, Value::Numeric(_))
                | (ColumnType::Categorical, Value::Categorical(_))
                | (ColumnType::Text, Value::Text(_))
                | (ColumnType::Date, Value::Date(_))
        )
    }
}

/// A column: name, type, similarity function, and (for numeric/date columns)
/// the min–max range used by the similarity formula.
#[derive(Debug, Clone, PartialEq)]
pub struct Column {
    /// Column name.
    pub name: String,
    /// Column type.
    pub ctype: ColumnType,
    /// Similarity function for this column.
    pub sim: SimilarityKind,
    /// `max(C) - min(C)` for numeric/date columns; ignored for strings.
    pub range: f64,
}

impl Column {
    /// A text column with the paper-default 3-gram Jaccard similarity.
    pub fn text(name: impl Into<String>) -> Self {
        Column {
            name: name.into(),
            ctype: ColumnType::Text,
            sim: SimilarityKind::PAPER_TEXT,
            range: 0.0,
        }
    }

    /// A categorical column with the paper-default 3-gram Jaccard similarity.
    pub fn categorical(name: impl Into<String>) -> Self {
        Column {
            name: name.into(),
            ctype: ColumnType::Categorical,
            sim: SimilarityKind::PAPER_TEXT,
            range: 0.0,
        }
    }

    /// A numeric column with min–max similarity over the given range.
    pub fn numeric(name: impl Into<String>, range: f64) -> Self {
        Column {
            name: name.into(),
            ctype: ColumnType::Numeric,
            sim: SimilarityKind::NumericMinMax,
            range,
        }
    }

    /// A date column with min–max similarity over the given range (in days).
    pub fn date(name: impl Into<String>, range_days: f64) -> Self {
        Column {
            name: name.into(),
            ctype: ColumnType::Date,
            sim: SimilarityKind::NumericMinMax,
            range: range_days,
        }
    }

    /// Overrides the similarity function (builder style).
    pub fn with_sim(mut self, sim: SimilarityKind) -> Self {
        self.sim = sim;
        self
    }

    /// Similarity of two values under this column's configuration.
    ///
    /// `Null` against anything yields 0.0 similarity (missing data cannot
    /// support a match), except `Null` vs `Null` which yields 1.0.
    pub fn similarity(&self, a: &Value, b: &Value) -> f64 {
        match (a, b) {
            (Value::Null, Value::Null) => 1.0,
            (Value::Null, _) | (_, Value::Null) => 0.0,
            _ => match self.sim {
                SimilarityKind::NumericMinMax => {
                    match (a.as_f64(), b.as_f64()) {
                        (Some(x), Some(y)) => similarity::numeric_similarity(x, y, self.range),
                        _ => 0.0,
                    }
                }
                kind => match (a.as_str(), b.as_str()) {
                    (Some(x), Some(y)) => kind.eval_str(x, y).unwrap_or(0.0),
                    _ => 0.0,
                },
            },
        }
    }

    /// Profile-accelerated twin of [`Column::similarity`]: the same score,
    /// computed through precomputed [`StringProfile`]s of `a` and `b` when
    /// both carry one that serves this column's kind (falling back to the
    /// scalar kernels otherwise). Both profiles must have been built through
    /// `interner`.
    pub fn similarity_profiled(
        &self,
        a: &Value,
        b: &Value,
        pa: Option<&StringProfile>,
        pb: Option<&StringProfile>,
        interner: &TokenInterner,
    ) -> f64 {
        pa.zip(pb)
            .and_then(|(pa, pb)| self.sim.eval_profiles(pa, pb, interner))
            .unwrap_or_else(|| self.similarity(a, b))
    }
}

/// An ordered list of columns shared by the two relations of an ER dataset.
#[derive(Debug, Clone, PartialEq)]
pub struct Schema {
    columns: Vec<Column>,
}

impl Schema {
    /// Builds a schema from columns.
    pub fn new(columns: Vec<Column>) -> Self {
        Schema { columns }
    }

    /// The columns, in order.
    pub fn columns(&self) -> &[Column] {
        &self.columns
    }

    /// Number of columns (the dimensionality `l` of similarity vectors).
    pub fn len(&self) -> usize {
        self.columns.len()
    }

    /// Whether the schema has no columns.
    pub fn is_empty(&self) -> bool {
        self.columns.is_empty()
    }

    /// Index of the column with the given name.
    pub fn index_of(&self, name: &str) -> Option<usize> {
        self.columns.iter().position(|c| c.name == name)
    }

    /// Validates that a row of values fits this schema.
    pub fn validate(&self, values: &[Value]) -> Result<()> {
        if values.len() != self.columns.len() {
            return Err(ErError::ArityMismatch {
                expected: self.columns.len(),
                got: values.len(),
            });
        }
        for (col, v) in self.columns.iter().zip(values) {
            if !col.ctype.accepts(v) {
                return Err(ErError::TypeMismatch {
                    column: col.name.clone(),
                    expected: col.ctype,
                });
            }
        }
        Ok(())
    }

    /// Updates numeric/date column ranges from observed data minima/maxima.
    ///
    /// `min_max` supplies `(min, max)` per column; string columns are skipped.
    pub fn set_ranges(&mut self, min_max: &[(f64, f64)]) {
        for (col, &(lo, hi)) in self.columns.iter_mut().zip(min_max) {
            if matches!(col.ctype, ColumnType::Numeric | ColumnType::Date) {
                col.range = (hi - lo).max(0.0);
            }
        }
    }
}

impl ColumnType {
    /// Stable persistence token for this type.
    fn token(&self) -> &'static str {
        match self {
            ColumnType::Numeric => "numeric",
            ColumnType::Categorical => "categorical",
            ColumnType::Text => "text",
            ColumnType::Date => "date",
        }
    }

    fn from_token(s: &str) -> Option<ColumnType> {
        match s {
            "numeric" => Some(ColumnType::Numeric),
            "categorical" => Some(ColumnType::Categorical),
            "text" => Some(ColumnType::Text),
            "date" => Some(ColumnType::Date),
            _ => None,
        }
    }
}

/// Upper bound on persisted column counts: a schema wider than this is
/// corrupt, not a real ER benchmark (the paper's widest table has 22).
const MAX_PERSISTED_COLUMNS: usize = 4096;

impl Persist for Schema {
    const MAGIC: &'static str = "serd-schema-v1";

    fn write_body(&self, w: &mut Writer) {
        w.kv("columns", self.columns.len());
        for c in &self.columns {
            w.kv_str("name", &c.name);
            w.kv("ctype", c.ctype.token());
            w.kv("sim", c.sim.token());
            w.kv_f64("range", c.range);
        }
    }

    fn read_body(r: &mut Reader<'_>) -> persist::Result<Self> {
        let n = r.kv_usize("columns")?;
        if n > MAX_PERSISTED_COLUMNS {
            return Err(r.invalid(format!("implausible column count {n}")));
        }
        let mut columns = Vec::with_capacity(n);
        for _ in 0..n {
            let name = r.kv_str("name")?;
            let ctype_tok = r.kv("ctype")?.trim().to_string();
            let ctype = ColumnType::from_token(&ctype_tok)
                .ok_or_else(|| r.invalid(format!("unknown column type {ctype_tok:?}")))?;
            let sim_tok = r.kv("sim")?.trim().to_string();
            let sim = SimilarityKind::from_token(&sim_tok)
                .ok_or_else(|| r.invalid(format!("unknown similarity kind {sim_tok:?}")))?;
            let range = r.kv_finite_f64("range")?;
            if range < 0.0 {
                return Err(PersistError::Invalid {
                    line: r.line_no(),
                    msg: format!("negative range {range} for column {name:?}"),
                });
            }
            columns.push(Column { name, ctype, sim, range });
        }
        Ok(Schema { columns })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn paper_schema() -> Schema {
        Schema::new(vec![
            Column::text("title"),
            Column::text("authors"),
            Column::categorical("venue"),
            Column::numeric("year", 10.0),
        ])
    }

    #[test]
    fn validate_accepts_well_typed_rows() {
        let s = paper_schema();
        let row = vec![
            Value::Text("a title".into()),
            Value::Text("some authors".into()),
            Value::Categorical("VLDB".into()),
            Value::Numeric(1999.0),
        ];
        assert!(s.validate(&row).is_ok());
    }

    #[test]
    fn validate_rejects_arity_mismatch() {
        let s = paper_schema();
        assert!(matches!(
            s.validate(&[Value::Null]),
            Err(ErError::ArityMismatch { expected: 4, got: 1 })
        ));
    }

    #[test]
    fn validate_rejects_type_mismatch() {
        let s = paper_schema();
        let row = vec![
            Value::Numeric(1.0), // title must be Text
            Value::Text("x".into()),
            Value::Categorical("VLDB".into()),
            Value::Numeric(1999.0),
        ];
        assert!(matches!(s.validate(&row), Err(ErError::TypeMismatch { .. })));
    }

    #[test]
    fn null_fits_any_column() {
        let s = paper_schema();
        let row = vec![Value::Null, Value::Null, Value::Null, Value::Null];
        assert!(s.validate(&row).is_ok());
    }

    #[test]
    fn column_similarity_dispatch() {
        let year = Column::numeric("year", 10.0);
        let sim = year.similarity(&Value::Numeric(2001.0), &Value::Numeric(2001.0));
        assert_eq!(sim, 1.0);
        let title = Column::text("title");
        assert_eq!(
            title.similarity(&Value::Text("abc".into()), &Value::Text("abc".into())),
            1.0
        );
    }

    #[test]
    fn null_similarity_rules() {
        let c = Column::text("t");
        assert_eq!(c.similarity(&Value::Null, &Value::Null), 1.0);
        assert_eq!(c.similarity(&Value::Null, &Value::Text("x".into())), 0.0);
    }

    #[test]
    fn schema_persist_roundtrip() {
        let mut s = paper_schema();
        s.set_ranges(&[(0.0, 0.0), (0.0, 0.0), (0.0, 0.0), (1990.0, 2005.5)]);
        let text = s.to_persist_string();
        let back = Schema::from_persist_str(&text).unwrap();
        assert_eq!(back, s);
        assert_eq!(back.columns()[3].range.to_bits(), s.columns()[3].range.to_bits());
    }

    #[test]
    fn schema_persist_rejects_corruption() {
        let s = paper_schema();
        let text = s.to_persist_string();
        // truncate mid-column
        let cut: String = text.lines().take(4).map(|l| format!("{l}\n")).collect();
        assert!(Schema::from_persist_str(&cut).is_err());
        // unknown column type
        let bad = text.replace("ctype text", "ctype blob");
        assert!(Schema::from_persist_str(&bad).is_err());
        // unknown similarity kind
        let bad = text.replace("sim qgram-jaccard:3", "sim vibes");
        assert!(Schema::from_persist_str(&bad).is_err());
    }

    #[test]
    fn set_ranges_updates_numeric_only() {
        let mut s = paper_schema();
        s.set_ranges(&[(0.0, 1.0), (0.0, 1.0), (0.0, 1.0), (1990.0, 2005.0)]);
        assert_eq!(s.columns()[3].range, 15.0);
        assert_eq!(s.columns()[0].range, 0.0);
    }
}
