//! The typed report every experiment builds.
//!
//! An experiment runs once and returns one [`Report`]: a title and a
//! list of [`Section`]s, each holding named [`Table`]s and free-text
//! notes. Every [`Column`] carries its unit, its print precision and a
//! `host_measured` mark for wall-clock values. [`Report::text`] renders
//! what `repro` prints and [`Report::json`] the `BENCH_<exp>.json` it
//! writes with `--json-out`; both come from the same value, so the two
//! outputs cannot disagree.
//!
//! Table names are unique within a report, so a value is addressed by
//! experiment, table, row (its first cell) and column: the paths of the
//! paper-claim ledger `BENCH_paper.json`. `crates/bench/tests/fingerprint.rs`
//! checks the schema.

use dcs_sim::Json;

/// Unit of a column holding a fraction; the text shows it as a percent.
pub const FRACTION: &str = "fraction";

/// One value of a table.
#[derive(Clone, Debug, PartialEq)]
pub enum Cell {
    /// A label.
    Text(String),
    /// An exact count.
    Int(i128),
    /// A measured or derived quantity, printed at its column's precision.
    Num(f64),
    /// A yes/no outcome.
    Bool(bool),
    /// No value (an absent tag, an undetected fault).
    Empty,
}

macro_rules! cell_from {
    ($($t:ty => |$v:ident| $e:expr),* $(,)?) => {$(
        impl From<$t> for Cell {
            fn from($v: $t) -> Cell {
                $e
            }
        }
    )*};
}
cell_from! {
    &str => |v| Cell::Text(v.to_string()),
    String => |v| Cell::Text(v),
    f64 => |v| Cell::Num(v),
    bool => |v| Cell::Bool(v),
    u32 => |v| Cell::Int(v.into()),
    u64 => |v| Cell::Int(v.into()),
    usize => |v| Cell::Int(v as i128),
}

impl<T: Into<Cell>> From<Option<T>> for Cell {
    fn from(v: Option<T>) -> Cell {
        v.map_or(Cell::Empty, Into::into)
    }
}

impl Cell {
    fn text(&self, col: &Column) -> String {
        let p = col.precision;
        match self {
            Cell::Text(s) => s.clone(),
            Cell::Int(v) => v.to_string(),
            Cell::Num(v) if col.unit == FRACTION => format!("{:.p$}", v * 100.0),
            Cell::Num(v) => format!("{v:.p$}"),
            Cell::Bool(b) => if *b { "yes" } else { "no" }.to_string(),
            Cell::Empty => "-".to_string(),
        }
    }

    fn json(&self) -> Json {
        match self {
            Cell::Text(s) => Json::Str(s.clone()),
            Cell::Int(v) => Json::Int(*v),
            Cell::Num(v) => Json::Float(*v),
            Cell::Bool(b) => Json::Bool(*b),
            Cell::Empty => Json::Null,
        }
    }
}

/// A table column.
#[derive(Clone, Debug, PartialEq)]
pub struct Column {
    /// Name: the text header and the JSON key of the column's values.
    pub name: String,
    /// Unit of the values (empty for labels and plain counts).
    pub unit: String,
    /// Digits after the decimal point in the text.
    pub precision: usize,
    /// Wall-clock values of this host: left out of the fingerprint.
    pub host_measured: bool,
}

impl Column {
    /// Parses one column of a [`Section::table`] spec.
    fn parse(spec: &str) -> Column {
        let (spec, host_measured) = match spec.strip_suffix('!') {
            Some(s) => (s, true),
            None => (spec, false),
        };
        let (name, unit) = spec.split_once(':').unwrap_or((spec, ""));
        let (unit, precision) = match unit.rsplit_once('.') {
            Some((u, p)) => (u, p.parse().expect("a column precision")),
            None => (unit, 0),
        };
        let unit = if unit == "%" { FRACTION } else { unit };
        Column {
            name: name.to_string(),
            unit: unit.to_string(),
            precision,
            host_measured,
        }
    }

    fn header(&self) -> String {
        match self.unit.as_str() {
            "" => self.name.clone(),
            FRACTION => format!("{} (%)", self.name),
            unit => format!("{} ({unit})", self.name),
        }
    }

    fn json(&self) -> Json {
        Json::Obj(vec![
            ("name".into(), Json::Str(self.name.clone())),
            ("unit".into(), Json::Str(self.unit.clone())),
            ("precision".into(), Json::Int(self.precision as i128)),
            ("host_measured".into(), Json::Bool(self.host_measured)),
        ])
    }
}

/// A named table: typed columns and rows of cells.
#[derive(Clone, Debug, PartialEq)]
pub struct Table {
    /// Name, unique within its report.
    pub name: String,
    /// The columns.
    pub columns: Vec<Column>,
    /// The rows, one cell per column.
    pub rows: Vec<Vec<Cell>>,
}

impl Table {
    /// Appends one row (see [`row!`](crate::row)).
    ///
    /// # Panics
    ///
    /// If the row does not have one cell per column.
    pub fn row(&mut self, cells: Vec<Cell>) {
        assert_eq!(cells.len(), self.columns.len(), "table {}", self.name);
        self.rows.push(cells);
    }

    /// Aligned columns under their headers.
    fn text(&self, out: &mut String) {
        let mut lines = vec![self.columns.iter().map(Column::header).collect::<Vec<_>>()];
        let cells = |r: &Vec<Cell>| {
            r.iter()
                .zip(&self.columns)
                .map(|(v, c)| v.text(c))
                .collect()
        };
        lines.extend(self.rows.iter().map(cells));
        for line in &lines {
            let mut text = String::new();
            for (j, s) in line.iter().enumerate() {
                let w = lines
                    .iter()
                    .map(|l| l[j].chars().count())
                    .max()
                    .unwrap_or(0);
                // Labels align left, everything else right.
                if self.rows.iter().all(|r| matches!(r[j], Cell::Text(_))) {
                    text.push_str(&format!("  {s:<w$}"));
                } else {
                    text.push_str(&format!("  {s:>w$}"));
                }
            }
            out.push_str(text.trim_end());
            out.push('\n');
        }
    }

    fn json(&self) -> Json {
        let columns = self.columns.iter().map(Column::json).collect();
        let row = |r: &Vec<Cell>| {
            let cells = self.columns.iter().zip(r);
            Json::Obj(cells.map(|(c, v)| (c.name.clone(), v.json())).collect())
        };
        Json::Obj(vec![
            ("name".into(), Json::Str(self.name.clone())),
            ("columns".into(), Json::Arr(columns)),
            (
                "rows".into(),
                Json::Arr(self.rows.iter().map(row).collect()),
            ),
        ])
    }
}

/// A titled group of tables followed by notes.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Section {
    /// Heading line (empty: the section continues the previous one).
    pub heading: String,
    /// The tables, in print order.
    pub tables: Vec<Table>,
    /// Free-text lines printed after the tables.
    pub notes: Vec<String>,
}

impl Section {
    /// Appends an empty table and returns it for rows. `spec` lists the
    /// columns, separated by spaces, as `name[:unit][.precision][!]`:
    /// `p99:us.1` is a latency in µs printed with one decimal, `cpu:%.1`
    /// a fraction printed as a percent, and `wall:ns!` a host-measured
    /// wall time.
    pub fn table(&mut self, name: &str, spec: &str) -> &mut Table {
        self.tables.push(Table {
            name: name.to_string(),
            columns: spec.split_whitespace().map(Column::parse).collect(),
            rows: Vec::new(),
        });
        self.tables.last_mut().expect("just pushed")
    }

    /// Appends a note line.
    pub fn note(&mut self, text: impl Into<String>) -> &mut Section {
        self.notes.push(text.into());
        self
    }
}

/// One experiment's complete output.
#[derive(Clone, Debug, PartialEq)]
pub struct Report {
    /// Experiment name, as `repro` lists it.
    pub experiment: String,
    /// Title line.
    pub title: String,
    /// Whether the shortened `--quick` windows produced it.
    pub quick: bool,
    /// The sections, in print order.
    pub sections: Vec<Section>,
    /// A failed self-check (the chaos fuzzer's counterexample): `repro`
    /// prints it and exits non-zero.
    pub failure: Option<String>,
    /// The Chrome trace-event JSON the experiment captured (the anatomy
    /// experiment's), which `repro --trace-out` writes. Not in
    /// [`Report::json`].
    pub trace: Option<String>,
}

impl Report {
    /// An empty report.
    pub fn new(experiment: &str, quick: bool, title: impl Into<String>) -> Report {
        Report {
            experiment: experiment.to_string(),
            title: title.into(),
            quick,
            sections: Vec::new(),
            failure: None,
            trace: None,
        }
    }

    /// Appends a section under `heading` and returns it.
    pub fn section(&mut self, heading: impl Into<String>) -> &mut Section {
        self.sections.push(Section {
            heading: heading.into(),
            ..Section::default()
        });
        self.sections.last_mut().expect("just pushed")
    }

    /// The text `repro` prints.
    pub fn text(&self) -> String {
        let mut out = format!("{}\n", self.title);
        for s in &self.sections {
            if !s.heading.is_empty() {
                out.push_str(&format!("\n{}\n", s.heading));
            }
            for (i, t) in s.tables.iter().enumerate() {
                if i > 0 {
                    out.push('\n');
                }
                t.text(&mut out);
            }
            for n in &s.notes {
                out.push_str(&format!("  {n}\n"));
            }
        }
        out
    }

    /// The JSON `repro --json-out` writes.
    pub fn json(&self) -> Json {
        let section = |s: &Section| {
            let tables = s.tables.iter().map(Table::json).collect();
            let notes = s.notes.iter().map(|n| Json::Str(n.clone())).collect();
            Json::Obj(vec![
                ("heading".into(), Json::Str(s.heading.clone())),
                ("tables".into(), Json::Arr(tables)),
                ("notes".into(), Json::Arr(notes)),
            ])
        };
        let sections = self.sections.iter().map(section).collect();
        Json::Obj(vec![
            ("experiment".into(), Json::Str(self.experiment.clone())),
            ("title".into(), Json::Str(self.title.clone())),
            ("quick".into(), Json::Bool(self.quick)),
            ("sections".into(), Json::Arr(sections)),
            (
                "failure".into(),
                self.failure.clone().map_or(Json::Null, Json::Str),
            ),
        ])
    }
}

/// Appends a row of anything that converts into [`Cell`]s.
#[macro_export]
macro_rules! row {
    ($table:expr, $($cell:expr),+ $(,)?) => {
        $table.row(vec![$($crate::report::Cell::from($cell)),+])
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Report {
        let mut r = Report::new("demo", true, "Demo — two tables");
        let s = r.section("(a) first");
        let t = s.table("runs", "design reqs latency:us.2 cpu:%.1 wall:ns!");
        row!(t, "SW opt", 12u64, 3.0, 0.125, 9.0);
        row!(t, "DCS-ctrl", 7u64, 1.5, None::<f64>, 8.0);
        s.note("(paper: 42%)");
        row!(r.section("").table("flags", "ok"), true);
        r
    }

    #[test]
    fn text_aligns_columns_and_prints_fractions_as_percents() {
        assert_eq!(
            sample().text(),
            "Demo — two tables\n\n(a) first\n\
             \x20 design    reqs  latency (us)  cpu (%)  wall (ns)\n\
             \x20 SW opt      12          3.00     12.5          9\n\
             \x20 DCS-ctrl     7          1.50        -          8\n\
             \x20 (paper: 42%)\n\
             \x20  ok\n\
             \x20 yes\n"
        );
    }

    #[test]
    fn json_keeps_units_and_host_marks() {
        let r = sample();
        let all = r.json().render();
        let cpu = r#"{"name":"cpu","unit":"fraction","precision":1,"host_measured":false}"#;
        assert!(all.contains(cpu), "{all}");
        let row = r#"{"design":"DCS-ctrl","reqs":7,"latency":1.5,"cpu":null,"wall":8}"#;
        assert!(all.contains(row), "{all}");
        let wall = r#"{"name":"wall","unit":"ns","precision":0,"host_measured":true}"#;
        assert!(all.contains(wall), "{all}");
    }
}
