//! Minimal CSV reader/writer (RFC-4180 quoting) for relation import/export.
//!
//! Hand-rolled on purpose: the workspace's dependency policy keeps the tree
//! small, and the pipeline only needs rectangular string records.
//!
//! The grammar lives in one place — [`Machine`], a state machine with no
//! lookahead that consumes a whole run of ordinary bytes per step — so the
//! in-memory [`parse`] and the streaming [`CsvReader`] cannot disagree.
//! [`CsvReader`] pulls one record at a time from any [`BufRead`], and
//! [`CsvWriter`] pushes records to any [`io::Write`], so million-row
//! relations never materialize as a single `String` (DESIGN.md §13).

use crate::{ColumnType, Entity, ErError, Relation, Result, Schema, Value};
use std::io::{self, BufRead};

/// States of the RFC-4180 field grammar. `ClosedQuote` (a `"` seen while
/// quoted, decision pending) does double duty: it distinguishes a *closed
/// empty quoted field* from *no field at all* at EOF — the conflation that
/// made the old parser drop a final `""` record — and it is the state from
/// which trailing garbage after a closing quote (`"ab"c`) is rejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    /// At a field boundary; nothing consumed for the current field yet.
    FieldStart,
    /// Inside an unquoted field.
    Unquoted,
    /// Inside a quoted field.
    Quoted,
    /// Saw a `"` while quoted: either an escaped quote (next char `"`) or
    /// the field just closed (next char `,`, newline, or EOF).
    ClosedQuote,
}

/// The shared push-style CSV state machine. Feed it text with
/// [`Machine::step`], which consumes one *token* from `text[*pos..]`: a
/// structural byte (`,` `"` `\r` `\n`) or a whole run of ordinary bytes,
/// appended to the field with one `push_str`. A `Some(record)` return means
/// the token completed a record. Call [`Machine::finish`] exactly once at end
/// of input to flush a final record with no trailing newline.
///
/// Every structural byte is ASCII and no UTF-8 continuation byte is, so runs
/// end on `char` boundaries and the machine accepts exactly the records and
/// errors of a character-at-a-time one (the `reference` machine in this
/// module's tests pins that).
#[derive(Debug, Default)]
struct Machine {
    state: Option<State>,
    field: String,
    record: Vec<String>,
    /// Any byte consumed since the last completed record — i.e. a partial
    /// record exists that [`Machine::finish`] must flush.
    started: bool,
    /// The previous byte was a record-terminating `\r`; a directly following
    /// `\n` belongs to the same CRLF terminator. Kept as machine state (not
    /// lookahead) so the CRLF may straddle a read boundary.
    skip_lf: bool,
}

/// Length of the run of bytes at the start of `bytes` that an unquoted field
/// takes as-is: everything up to the next `,` `"` `\r` or `\n`.
fn unquoted_run(bytes: &[u8]) -> usize {
    bytes
        .iter()
        .position(|&b| matches!(b, b',' | b'"' | b'\r' | b'\n'))
        .unwrap_or(bytes.len())
}

/// Length of the run of bytes at the start of `bytes` that a quoted field
/// takes as-is: everything up to the next `"`.
fn quoted_run(bytes: &[u8]) -> usize {
    bytes.iter().position(|&b| b == b'"').unwrap_or(bytes.len())
}

impl Machine {
    fn new() -> Machine {
        Machine {
            state: Some(State::FieldStart),
            ..Machine::default()
        }
    }

    fn state(&self) -> State {
        self.state.expect("machine used after finish")
    }

    fn flush(&mut self) -> Vec<String> {
        self.record.push(std::mem::take(&mut self.field));
        self.started = false;
        self.state = Some(State::FieldStart);
        std::mem::take(&mut self.record)
    }

    fn end_field(&mut self) {
        self.record.push(std::mem::take(&mut self.field));
        self.state = Some(State::FieldStart);
    }

    /// Appends the run `text[*pos..*pos + len]` to the field.
    fn take_run(&mut self, text: &str, pos: &mut usize, len: usize) {
        self.field.push_str(&text[*pos..*pos + len]);
        *pos += len;
    }

    /// Consumes one token of `text` at `*pos` (which must be `< text.len()`)
    /// and advances `*pos` past it; returns a record if the token completed
    /// one.
    fn step(&mut self, text: &str, pos: &mut usize) -> Result<Option<Vec<String>>> {
        let rest = &text.as_bytes()[*pos..];
        let b = rest[0];
        if std::mem::take(&mut self.skip_lf) && b == b'\n' {
            *pos += 1;
            return Ok(None);
        }
        self.started = true;
        match self.state() {
            State::FieldStart => match b {
                b'"' => self.state = Some(State::Quoted),
                b',' => self.record.push(String::new()),
                b'\r' | b'\n' => {
                    *pos += 1;
                    self.skip_lf = b == b'\r';
                    return Ok(Some(self.flush()));
                }
                _ => {
                    self.take_run(text, pos, unquoted_run(rest));
                    self.state = Some(State::Unquoted);
                    return Ok(None);
                }
            },
            State::Unquoted => match b {
                b'"' => {
                    return Err(ErError::Csv("quote inside unquoted field".to_string()));
                }
                b',' => self.end_field(),
                b'\r' | b'\n' => {
                    *pos += 1;
                    self.skip_lf = b == b'\r';
                    return Ok(Some(self.flush()));
                }
                _ => {
                    self.take_run(text, pos, unquoted_run(rest));
                    return Ok(None);
                }
            },
            State::Quoted => match b {
                b'"' => self.state = Some(State::ClosedQuote),
                // Commas and newlines are literal inside quotes.
                _ => {
                    self.take_run(text, pos, quoted_run(rest));
                    return Ok(None);
                }
            },
            State::ClosedQuote => match b {
                b'"' => {
                    // Doubled quote: an escaped literal `"`.
                    self.field.push('"');
                    self.state = Some(State::Quoted);
                }
                b',' => self.end_field(),
                b'\r' | b'\n' => {
                    *pos += 1;
                    self.skip_lf = b == b'\r';
                    return Ok(Some(self.flush()));
                }
                _ => {
                    let other = text[*pos..].chars().next().expect("pos on a char boundary");
                    return Err(ErError::Csv(format!(
                        "unexpected {other:?} after closing quote"
                    )));
                }
            },
        }
        // Every arm that did not return consumed one ASCII structural byte.
        *pos += 1;
        Ok(None)
    }

    /// Ends the input, flushing a final unterminated record if one was
    /// started. Consumes the machine's liveness: later calls return `None`.
    fn finish(&mut self) -> Result<Option<Vec<String>>> {
        let Some(state) = self.state.take() else {
            return Ok(None);
        };
        match state {
            State::Quoted => Err(ErError::Csv("unterminated quoted field".to_string())),
            // A closed quoted field counts as a field even when empty —
            // `a,b\n""` has a second record — whereas FieldStart with
            // nothing consumed is genuinely no record at all.
            State::ClosedQuote => {
                self.record.push(std::mem::take(&mut self.field));
                Ok(Some(std::mem::take(&mut self.record)))
            }
            State::FieldStart | State::Unquoted => {
                if self.started {
                    self.record.push(std::mem::take(&mut self.field));
                    Ok(Some(std::mem::take(&mut self.record)))
                } else {
                    Ok(None)
                }
            }
        }
    }
}

/// Pull-based streaming CSV reader: one record per [`CsvReader::next_record`]
/// call, reading from the source a buffered line at a time. Quoted fields may
/// span lines (and CRLF may straddle reads); memory use is bounded by the
/// largest single record, not the file.
pub struct CsvReader<R: BufRead> {
    src: R,
    machine: Machine,
    buf: String,
    pos: usize,
    eof: bool,
}

impl<R: BufRead> CsvReader<R> {
    /// Wraps a buffered source in a streaming reader.
    pub fn new(src: R) -> CsvReader<R> {
        CsvReader {
            src,
            machine: Machine::new(),
            buf: String::new(),
            pos: 0,
            eof: false,
        }
    }

    /// Returns the next record, or `None` at end of input.
    pub fn next_record(&mut self) -> Result<Option<Vec<String>>> {
        loop {
            while self.pos < self.buf.len() {
                if let Some(rec) = self.machine.step(&self.buf, &mut self.pos)? {
                    return Ok(Some(rec));
                }
            }
            if self.eof {
                return self.machine.finish();
            }
            self.buf.clear();
            self.pos = 0;
            let n = self
                .src
                .read_line(&mut self.buf)
                .map_err(|e| ErError::Csv(format!("read: {e}")))?;
            if n == 0 {
                self.eof = true;
            }
        }
    }
}

impl<R: BufRead> Iterator for CsvReader<R> {
    type Item = Result<Vec<String>>;

    /// Errors are terminal: after yielding an `Err`, the iterator fuses.
    fn next(&mut self) -> Option<Result<Vec<String>>> {
        match self.next_record() {
            Ok(Some(rec)) => Some(Ok(rec)),
            Ok(None) => None,
            Err(e) => {
                self.eof = true;
                self.buf.clear();
                self.pos = 0;
                // A finished machine, so the partial record the error cut
                // short is not flushed as one.
                self.machine = Machine::default();
                Some(Err(e))
            }
        }
    }
}

/// Parses CSV text into records. Handles quoted fields with embedded commas,
/// doubled quotes, and `\n` / `\r\n` line endings. Thin wrapper over the
/// same [`Machine`] the streaming [`CsvReader`] runs.
pub fn parse(text: &str) -> Result<Vec<Vec<String>>> {
    let mut machine = Machine::new();
    let mut records = Vec::new();
    let mut pos = 0;
    while pos < text.len() {
        if let Some(rec) = machine.step(text, &mut pos)? {
            records.push(rec);
        }
    }
    if let Some(rec) = machine.finish()? {
        records.push(rec);
    }
    Ok(records)
}

/// True if the field must be quoted on output.
fn needs_quoting(field: &str) -> bool {
    field.contains([',', '"', '\n', '\r'])
}

/// Push-based streaming CSV writer: records go straight to the sink, quoted
/// on the fly, with no per-file intermediate `String`.
pub struct CsvWriter<W: io::Write> {
    dst: W,
}

impl<W: io::Write> CsvWriter<W> {
    /// Wraps a sink in a CSV writer.
    pub fn new(dst: W) -> CsvWriter<W> {
        CsvWriter { dst }
    }

    /// Writes one record (with trailing `\n`), quoting fields as needed.
    pub fn write_record<S: AsRef<str>>(&mut self, fields: &[S]) -> io::Result<()> {
        for (i, f) in fields.iter().enumerate() {
            if i > 0 {
                self.dst.write_all(b",")?;
            }
            let f = f.as_ref();
            if needs_quoting(f) {
                self.dst.write_all(b"\"")?;
                // Stream the field in runs between quotes, doubling each.
                let mut rest = f;
                while let Some(at) = rest.find('"') {
                    self.dst.write_all(rest[..at + 1].as_bytes())?;
                    self.dst.write_all(b"\"")?;
                    rest = &rest[at + 1..];
                }
                self.dst.write_all(rest.as_bytes())?;
                self.dst.write_all(b"\"")?;
            } else {
                self.dst.write_all(f.as_bytes())?;
            }
        }
        self.dst.write_all(b"\n")
    }

    /// Flushes and returns the underlying sink.
    pub fn into_inner(mut self) -> io::Result<W> {
        self.dst.flush()?;
        Ok(self.dst)
    }
}

/// Serializes records to CSV text.
pub fn write(records: &[Vec<String>]) -> String {
    let mut w = CsvWriter::new(Vec::new());
    for rec in records {
        w.write_record(rec).expect("write to Vec cannot fail");
    }
    let bytes = w.into_inner().expect("flush to Vec cannot fail");
    String::from_utf8(bytes).expect("CSV output is UTF-8")
}

/// Streams a relation (with a header row) as CSV into `dst`.
pub fn write_relation_csv<W: io::Write>(dst: W, r: &Relation) -> io::Result<()> {
    let mut w = CsvWriter::new(dst);
    let header: Vec<&str> = r.schema().columns().iter().map(|c| c.name.as_str()).collect();
    w.write_record(&header)?;
    for e in r.entities() {
        let row: Vec<String> = e.values().iter().map(Value::render).collect();
        w.write_record(&row)?;
    }
    w.into_inner()?;
    Ok(())
}

/// Serializes a relation (with a header row) to CSV.
pub fn relation_to_csv(r: &Relation) -> String {
    let mut out = Vec::new();
    write_relation_csv(&mut out, r).expect("write to Vec cannot fail");
    String::from_utf8(out).expect("CSV output is UTF-8")
}

/// Streams CSV (header row required) from `src` into a relation under
/// `schema`, one record at a time — the ingest path for files too large to
/// hold as a single string. Header field *i* must be column *i*'s name.
///
/// Fields are coerced per column type; empty fields become [`Value::Null`].
pub fn read_relation_csv<R: BufRead>(name: &str, schema: Schema, src: R) -> Result<Relation> {
    let mut reader = CsvReader::new(src);
    let mut rel = Relation::new(name, schema);
    let Some(header) = reader.next_record()? else {
        return Ok(rel);
    };
    if header.len() != rel.schema().len() {
        return Err(ErError::Csv(format!(
            "header has {} fields, schema has {} columns",
            header.len(),
            rel.schema().len()
        )));
    }
    // Same-width schemas exist (DBLP-ACM and Restaurant both have four
    // columns), so the names must match too, or a file is silently read
    // under another dataset's column types.
    for (i, (found, col)) in header.iter().zip(rel.schema().columns()).enumerate() {
        if *found != col.name {
            return Err(ErError::Csv(format!(
                "header field {i} is {found:?}, schema expects {:?}",
                col.name
            )));
        }
    }
    // Hoisted once: coercion only needs the column types, not a fresh clone
    // of every `Column` per row.
    let ctypes: Vec<ColumnType> = rel.schema().columns().iter().map(|c| c.ctype).collect();
    while let Some(row) = reader.next_record()? {
        if row.len() != ctypes.len() {
            return Err(ErError::Csv(format!(
                "row has {} fields, schema has {} columns",
                row.len(),
                ctypes.len()
            )));
        }
        let mut values = Vec::with_capacity(row.len());
        for (c, (field, &ctype)) in row.into_iter().zip(&ctypes).enumerate() {
            let value = coerce(field, ctype).map_err(|msg| {
                ErError::Csv(format!("column {:?}: {msg}", rel.schema().columns()[c].name))
            })?;
            values.push(value);
        }
        rel.push_entity(Entity::new(values))?;
    }
    Ok(rel)
}

/// Parses CSV text (header row required) into a relation under `schema`.
pub fn relation_from_csv(name: &str, schema: Schema, text: &str) -> Result<Relation> {
    read_relation_csv(name, schema, text.as_bytes())
}

/// One field as a value of its column's type, or why it is not one. String
/// columns take the field itself, with no copy. Numeric fields must be
/// finite: `str::parse::<f64>` also accepts `NaN`, `inf` and `infinity`,
/// which no column range or similarity can hold.
fn coerce(field: String, ctype: ColumnType) -> std::result::Result<Value, String> {
    if field.is_empty() {
        return Ok(Value::Null);
    }
    Ok(match ctype {
        ColumnType::Numeric => {
            let x = field
                .trim()
                .parse::<f64>()
                .map_err(|e| format!("bad numeric field {field:?}: {e}"))?;
            if !x.is_finite() {
                return Err(format!("non-finite numeric field {field:?}"));
            }
            Value::Numeric(x)
        }
        ColumnType::Date => Value::Date(
            field.trim().parse::<i64>().map_err(|e| format!("bad date field {field:?}: {e}"))?,
        ),
        ColumnType::Categorical => Value::Categorical(field),
        ColumnType::Text => Value::Text(field),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Column;
    use std::io::BufReader;

    /// The grammar as it was before byte runs: one `char` per step, each
    /// pushed into the field, and a `coerce` that copies every field. The
    /// byte-run [`Machine`] and the moving [`coerce`] must reproduce its
    /// records, values and error messages exactly.
    mod reference {
        use super::super::State;
        use crate::{ColumnType, ErError, Result, Schema, Value};

        #[derive(Debug, Default)]
        struct Machine {
            state: Option<State>,
            field: String,
            record: Vec<String>,
            started: bool,
            skip_lf: bool,
        }

        impl Machine {
            fn state(&self) -> State {
                self.state.expect("machine used after finish")
            }

            fn flush(&mut self) -> Vec<String> {
                self.record.push(std::mem::take(&mut self.field));
                self.started = false;
                self.state = Some(State::FieldStart);
                std::mem::take(&mut self.record)
            }

            fn end_field(&mut self) {
                self.record.push(std::mem::take(&mut self.field));
                self.state = Some(State::FieldStart);
            }

            fn step(&mut self, c: char) -> Result<Option<Vec<String>>> {
                if std::mem::take(&mut self.skip_lf) && c == '\n' {
                    return Ok(None);
                }
                self.started = true;
                match self.state() {
                    State::FieldStart => match c {
                        '"' => self.state = Some(State::Quoted),
                        ',' => self.record.push(String::new()),
                        '\r' | '\n' => {
                            self.skip_lf = c == '\r';
                            return Ok(Some(self.flush()));
                        }
                        _ => {
                            self.field.push(c);
                            self.state = Some(State::Unquoted);
                        }
                    },
                    State::Unquoted => match c {
                        '"' => {
                            return Err(ErError::Csv("quote inside unquoted field".to_string()));
                        }
                        ',' => self.end_field(),
                        '\r' | '\n' => {
                            self.skip_lf = c == '\r';
                            return Ok(Some(self.flush()));
                        }
                        _ => self.field.push(c),
                    },
                    State::Quoted => match c {
                        '"' => self.state = Some(State::ClosedQuote),
                        _ => self.field.push(c),
                    },
                    State::ClosedQuote => match c {
                        '"' => {
                            self.field.push('"');
                            self.state = Some(State::Quoted);
                        }
                        ',' => self.end_field(),
                        '\r' | '\n' => {
                            self.skip_lf = c == '\r';
                            return Ok(Some(self.flush()));
                        }
                        other => {
                            return Err(ErError::Csv(format!(
                                "unexpected {other:?} after closing quote"
                            )));
                        }
                    },
                }
                Ok(None)
            }

            fn finish(&mut self) -> Result<Option<Vec<String>>> {
                let Some(state) = self.state.take() else {
                    return Ok(None);
                };
                match state {
                    State::Quoted => Err(ErError::Csv("unterminated quoted field".to_string())),
                    State::ClosedQuote => {
                        self.record.push(std::mem::take(&mut self.field));
                        Ok(Some(std::mem::take(&mut self.record)))
                    }
                    State::FieldStart | State::Unquoted => {
                        if self.started {
                            self.record.push(std::mem::take(&mut self.field));
                            Ok(Some(std::mem::take(&mut self.record)))
                        } else {
                            Ok(None)
                        }
                    }
                }
            }
        }

        /// Every record of `text` in order, then the error that stopped the
        /// parse, if one did.
        pub fn records(text: &str) -> (Vec<Vec<String>>, Option<ErError>) {
            let mut m = Machine {
                state: Some(State::FieldStart),
                ..Machine::default()
            };
            let mut out = Vec::new();
            for c in text.chars() {
                match m.step(c) {
                    Ok(Some(rec)) => out.push(rec),
                    Ok(None) => {}
                    Err(e) => return (out, Some(e)),
                }
            }
            match m.finish() {
                Ok(rec) => out.extend(rec),
                Err(e) => return (out, Some(e)),
            }
            (out, None)
        }

        fn coerce(field: &str, ctype: ColumnType) -> std::result::Result<Value, String> {
            if field.is_empty() {
                return Ok(Value::Null);
            }
            Ok(match ctype {
                ColumnType::Numeric => {
                    let x = field
                        .trim()
                        .parse::<f64>()
                        .map_err(|e| format!("bad numeric field {field:?}: {e}"))?;
                    if !x.is_finite() {
                        return Err(format!("non-finite numeric field {field:?}"));
                    }
                    Value::Numeric(x)
                }
                ColumnType::Date => Value::Date(
                    field
                        .trim()
                        .parse::<i64>()
                        .map_err(|e| format!("bad date field {field:?}: {e}"))?,
                ),
                ColumnType::Categorical => Value::Categorical(field.to_string()),
                ColumnType::Text => Value::Text(field.to_string()),
            })
        }

        /// The rows `read_relation_csv` built from `text` before byte runs,
        /// or its error.
        pub fn relation(schema: &Schema, text: &str) -> Result<Vec<Vec<Value>>> {
            let (records, err) = records(text);
            let mut records = records.into_iter();
            let Some(header) = records.next() else {
                return err.map_or(Ok(Vec::new()), Err);
            };
            if header.len() != schema.len() {
                return Err(ErError::Csv(format!(
                    "header has {} fields, schema has {} columns",
                    header.len(),
                    schema.len()
                )));
            }
            for (i, (found, col)) in header.iter().zip(schema.columns()).enumerate() {
                if *found != col.name {
                    return Err(ErError::Csv(format!(
                        "header field {i} is {found:?}, schema expects {:?}",
                        col.name
                    )));
                }
            }
            let mut rows = Vec::new();
            for row in records {
                if row.len() != schema.len() {
                    return Err(ErError::Csv(format!(
                        "row has {} fields, schema has {} columns",
                        row.len(),
                        schema.len()
                    )));
                }
                let mut values = Vec::new();
                for (field, col) in row.iter().zip(schema.columns()) {
                    let v = coerce(field, col.ctype)
                        .map_err(|msg| ErError::Csv(format!("column {:?}: {msg}", col.name)))?;
                    values.push(v);
                }
                rows.push(values);
            }
            err.map_or(Ok(rows), Err)
        }
    }

    /// Checks `csv::parse` and a [`CsvReader`] refilled `cap` bytes at a time
    /// against the reference machine on `text`: the same records, then the
    /// same error message.
    fn agrees_with_reference(text: &str, cap: usize) -> std::result::Result<(), String> {
        let (want, want_err) = reference::records(text);
        let want_err = want_err.map(|e| e.to_string());
        let parsed = match parse(text) {
            Ok(recs) => (recs, None),
            Err(e) => (want.clone(), Some(e.to_string())),
        };
        if parsed != (want.clone(), want_err.clone()) {
            return Err(format!("parse: {parsed:?}, reference: {want:?} {want_err:?}"));
        }
        let mut reader = CsvReader::new(BufReader::with_capacity(cap, text.as_bytes()));
        let mut streamed = (Vec::new(), None);
        for item in reader.by_ref() {
            match item {
                Ok(rec) => streamed.0.push(rec),
                Err(e) => {
                    streamed.1 = Some(e.to_string());
                    break;
                }
            }
        }
        if let Some(after) = reader.next() {
            return Err(format!("reader yielded {after:?} after its last item"));
        }
        if streamed != (want.clone(), want_err.clone()) {
            return Err(format!("reader: {streamed:?}, reference: {want:?} {want_err:?}"));
        }
        Ok(())
    }

    #[test]
    fn byte_runs_match_the_char_machine_on_named_inputs() {
        let inputs = [
            "",
            "a,b,c\n1,2,3\n",
            "\"a,b\",\"say \"\"hi\"\"\",\"multi\nline\"\n",
            "a,b\r\nc,d\r\n",
            "a,b\r\n\"multi\r\nline\",\"say \"\"hi\"\"\"\r\nlast,row",
            "\r\r\n\n\r",
            "é,日本\n\"ü,🦀\"\"x\",ß\r\nñ",
            "\"ab\"c",
            "\"ab\"é",
            "\"ab\"\"c\"",
            "ab\"c\n",
            "\"abc",
            "ok,row\n\"bad",
            "\"\"",
            "a,\"\"",
            "a,b\n\"\"",
            ",,\n,",
            "title,year\nx,1\n",
        ];
        for text in inputs {
            for cap in [1, 2, 3, 7, 64] {
                if let Err(msg) = agrees_with_reference(text, cap) {
                    panic!("{text:?} at capacity {cap}: {msg}");
                }
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(1024))]

        /// Raw text over CSV's structural characters, plain ASCII and
        /// multi-byte UTF-8 — most of it malformed — read through `parse`
        /// and through tiny read buffers that split runs, quoted fields and
        /// CRLF terminators across refills.
        #[test]
        fn byte_runs_match_the_char_machine(
            text in "[ab ,\"\r\néü日🦀]{0,48}",
            cap in 1usize..6,
        ) {
            if let Err(msg) = agrees_with_reference(&text, cap) {
                proptest::prop_assert!(false, "{text:?} at capacity {cap}: {msg}");
            }
        }

        /// `read_relation_csv` moves each field into its value and must build
        /// the values the copying reader built — Null for empty fields,
        /// parsed numbers and dates, refused non-finite or malformed ones —
        /// and refuse bad headers, ragged rows and bad CSV with the same
        /// message.
        #[test]
        fn relation_values_match_the_reference(
            header in 0usize..4,
            rows in proptest::collection::vec(
                proptest::collection::vec(0usize..FIELDS.len(), 3..6), 0..5),
            crlf in proptest::any::<bool>(),
        ) {
            let schema = Schema::new(vec![
                Column::text("title"),
                Column::categorical("venue"),
                Column::numeric("year", 10.0),
                Column::date("day", 10.0),
            ]);
            let headers = ["title,venue,year,day", "title,venue,year", "title,venue,yr,day",
                "\"title\",venue,year,day"];
            let term = if crlf { "\r\n" } else { "\n" };
            let mut text = String::from(headers[header]);
            for row in &rows {
                text.push_str(term);
                let fields: Vec<&str> = row.iter().map(|&f| FIELDS[f]).collect();
                text.push_str(&fields.join(","));
            }
            let got = relation_from_csv("r", schema.clone(), &text).map(|r| {
                r.entities().iter().map(|e| e.values().to_vec()).collect::<Vec<_>>()
            });
            let want = reference::relation(&schema, &text);
            match (got, want) {
                (Ok(got), Ok(want)) => proptest::prop_assert_eq!(got, want),
                (Err(got), Err(want)) => {
                    proptest::prop_assert_eq!(got.to_string(), want.to_string())
                }
                (got, want) => proptest::prop_assert!(false, "{text:?}: {got:?} vs {want:?}"),
            }
        }
    }

    /// Field spellings for [`relation_values_match_the_reference`]'s rows:
    /// empty, numbers and dates with and without padding, non-finite and
    /// malformed numbers, quoted text with escapes, multi-byte UTF-8 and one
    /// unterminated quote.
    const FIELDS: [&str; 14] = [
        "", "2001", " 17 ", "-0", "1e3", "NaN", "inf", "x", "20x", "\"q,\"\"uo\"\"te\"",
        "\"multi\nline\"", "é日🦀", "\"\"", "\"open",
    ];

    #[test]
    fn parse_simple() {
        let recs = parse("a,b,c\n1,2,3\n").unwrap();
        assert_eq!(recs, vec![vec!["a", "b", "c"], vec!["1", "2", "3"]]);
    }

    #[test]
    fn parse_quoted_fields() {
        let recs = parse("\"a,b\",\"say \"\"hi\"\"\",\"multi\nline\"\n").unwrap();
        assert_eq!(recs[0][0], "a,b");
        assert_eq!(recs[0][1], "say \"hi\"");
        assert_eq!(recs[0][2], "multi\nline");
    }

    #[test]
    fn parse_crlf() {
        let recs = parse("a,b\r\nc,d\r\n").unwrap();
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[1], vec!["c", "d"]);
    }

    #[test]
    fn parse_rejects_unterminated_quote() {
        assert!(parse("\"abc").is_err());
    }

    #[test]
    fn parse_last_line_without_newline() {
        let recs = parse("a,b\nc,d").unwrap();
        assert_eq!(recs.len(), 2);
    }

    // Regression: the old flush guard conflated "closed an empty quoted
    // field" with "no field at all", silently dropping a final `""` record.
    #[test]
    fn empty_quoted_field_at_eof_is_a_record() {
        assert_eq!(parse("\"\"").unwrap(), vec![vec![String::new()]]);
        assert_eq!(parse("a,\"\"").unwrap(), vec![vec!["a".to_string(), String::new()]]);
        assert_eq!(parse("\"\"\n").unwrap(), vec![vec![String::new()]]);
        let recs = parse("a,b\n\"\"").unwrap();
        assert_eq!(recs.len(), 2, "final empty quoted record was dropped");
        assert_eq!(recs[1], vec![String::new()]);
    }

    // Regression: `"ab"c` used to silently parse as `abc`; RFC 4180 forbids
    // text after a closing quote.
    #[test]
    fn text_after_closing_quote_is_rejected() {
        let err = parse("\"ab\"c").unwrap_err();
        assert!(matches!(err, ErError::Csv(_)), "{err:?}");
        assert!(err.to_string().contains("closing quote"), "{err}");
        // The doubled-quote escape is still fine.
        assert_eq!(parse("\"ab\"\"c\"").unwrap(), vec![vec!["ab\"c"]]);
    }

    #[test]
    fn streaming_reader_matches_parse() {
        let text = "a,b\r\n\"multi\nline\",\"say \"\"hi\"\"\"\r\nlast,row";
        let expected = parse(text).unwrap();
        // A 1-byte buffer forces every record (and the CRLF terminator) to
        // straddle read boundaries.
        let reader = CsvReader::new(BufReader::with_capacity(1, text.as_bytes()));
        let streamed: Vec<Vec<String>> = reader.map(|r| r.unwrap()).collect();
        assert_eq!(streamed, expected);
    }

    #[test]
    fn streaming_reader_fuses_after_error() {
        let mut reader = CsvReader::new("ok,row\n\"bad".as_bytes());
        assert_eq!(reader.next().unwrap().unwrap(), vec!["ok", "row"]);
        assert!(reader.next().unwrap().is_err());
        assert!(reader.next().is_none());
    }

    #[test]
    fn roundtrip_with_special_chars() {
        let records = vec![
            vec!["title".to_string(), "year".to_string()],
            vec!["hash, teams \"fast\"".to_string(), "1999".to_string()],
        ];
        let text = write(&records);
        assert_eq!(parse(&text).unwrap(), records);
    }

    #[test]
    fn relation_roundtrip() {
        let schema = Schema::new(vec![
            Column::text("title"),
            Column::categorical("venue"),
            Column::numeric("year", 10.0),
        ]);
        let mut r = Relation::new("papers", schema.clone());
        r.push(vec![
            Value::Text("a, \"quoted\" title".into()),
            Value::Categorical("VLDB".into()),
            Value::Numeric(1999.0),
        ])
        .unwrap();
        r.push(vec![Value::Null, Value::Null, Value::Null]).unwrap();
        let text = relation_to_csv(&r);
        let back = relation_from_csv("papers", schema, &text).unwrap();
        assert_eq!(back.len(), 2);
        assert_eq!(back.entity(0).value(0).as_str(), Some("a, \"quoted\" title"));
        assert_eq!(back.entity(0).value(2), &Value::Numeric(1999.0));
        assert!(back.entity(1).value(0).is_null());
    }

    #[test]
    fn relation_from_csv_rejects_ragged_rows() {
        let schema = Schema::new(vec![Column::text("t"), Column::numeric("y", 1.0)]);
        assert!(relation_from_csv("x", schema, "t,y\nonly_one_field\n").is_err());
    }

    #[test]
    fn header_names_must_match_the_schema() {
        let schema = Schema::new(vec![Column::text("name"), Column::categorical("city")]);
        let err = relation_from_csv("x", schema.clone(), "title,city\na,b\n").unwrap_err();
        assert!(matches!(err, ErError::Csv(_)), "{err:?}");
        let msg = err.to_string();
        assert!(
            msg.contains("field 0") && msg.contains("\"title\"") && msg.contains("\"name\""),
            "{msg}"
        );
        // Position matters: the right names in the wrong order are refused.
        let err = relation_from_csv("x", schema.clone(), "city,name\n").unwrap_err();
        assert!(err.to_string().contains("field 0"), "{err}");
        // Names compare exactly: no case folding or trimming.
        assert!(relation_from_csv("x", schema.clone(), "name,City\n").is_err());
        assert!(relation_from_csv("x", schema.clone(), "name, city\n").is_err());
        assert_eq!(relation_from_csv("x", schema, "name,city\na,b\n").unwrap().len(), 1);
    }

    #[test]
    fn coerce_bad_number_errors() {
        let schema = Schema::new(vec![Column::numeric("y", 1.0)]);
        assert!(relation_from_csv("x", schema, "y\nnot_a_number\n").is_err());
    }

    // Regression: `str::parse::<f64>` accepts these spellings, so a NaN or
    // infinite `year` used to reach the fit as a number.
    #[test]
    fn non_finite_numbers_are_rejected() {
        for spelling in ["NaN", "nan", "inf", "-inf", "+inf", "infinity", "-Infinity"] {
            let schema = Schema::new(vec![Column::text("t"), Column::numeric("year", 1.0)]);
            let csv = format!("t,year\na,2001\nb, {spelling}\n");
            let err = relation_from_csv("A", schema, &csv).unwrap_err();
            assert!(matches!(err, ErError::Csv(_)), "{spelling}: {err:?}");
            let msg = err.to_string();
            assert!(msg.contains("\"year\"") && msg.contains("non-finite"), "{spelling}: {msg}");
            assert!(msg.contains(spelling), "{spelling}: {msg}");
        }
    }
}
