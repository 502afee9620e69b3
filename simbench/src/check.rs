//! Output checks: run fingerprints and the recorded values they must
//! match.

use std::fmt;

/// The recorded fingerprints, one line per field:
/// `workload<TAB>seed<TAB>field<TAB>value`.
pub const RECORDED: &str = include_str!("../expected.tsv");

/// Exact outputs of one run, as named fields in a fixed order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Fingerprint(pub Vec<(String, u64)>);

impl Fingerprint {
    /// Append a field.
    pub fn push(&mut self, field: &str, value: u64) {
        self.0.push((field.to_string(), value));
    }

    /// A field's value.
    pub fn get(&self, field: &str) -> Option<u64> {
        self.0.iter().find(|(f, _)| f == field).map(|&(_, v)| v)
    }

    /// The first field in which `self` differs from `want`, named, or
    /// `None` when they are equal.
    pub fn mismatch(&self, want: &Fingerprint) -> Option<String> {
        for (field, value) in &want.0 {
            match self.get(field) {
                Some(got) if got == *value => {}
                Some(got) => return Some(format!("field {field}: got {got}, want {value}")),
                None => return Some(format!("field {field}: missing")),
            }
        }
        let extra = self.0.iter().find(|(f, _)| want.get(f).is_none());
        extra.map(|(f, _)| format!("field {f}: not expected"))
    }
}

impl fmt::Display for Fingerprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, (field, value)) in self.0.iter().enumerate() {
            write!(f, "{}{field}={value}", if i == 0 { "" } else { " " })?;
        }
        Ok(())
    }
}

/// 64-bit FNV-1a over a stream of words (little-endian bytes).
pub fn fnv(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for w in words {
        for b in w.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// The fingerprint recorded in `table` for `workload` at `seed`, if any.
pub fn recorded(table: &str, workload: &str, seed: u64) -> Result<Option<Fingerprint>, String> {
    let mut fp = Fingerprint::default();
    for (n, line) in table.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let cols: Vec<&str> = line.split('\t').collect();
        let [w, s, field, value] = cols[..] else {
            return Err(format!(
                "expected.tsv:{}: want 4 tab-separated columns",
                n + 1
            ));
        };
        let parse = |v: &str| {
            v.parse::<u64>()
                .map_err(|e| format!("expected.tsv:{}: {v:?}: {e}", n + 1))
        };
        if w == workload && parse(s)? == seed {
            fp.push(field, parse(value)?);
        }
    }
    Ok((!fp.0.is_empty()).then_some(fp))
}

/// Check a run's fingerprint against the record for its seed. Seeds
/// without a record pass; the completion checks still apply to them.
pub fn verify(table: &str, workload: &str, seed: u64, got: &Fingerprint) -> Result<(), String> {
    match recorded(table, workload, seed)? {
        Some(want) => match got.mismatch(&want) {
            Some(why) => Err(format!(
                "{workload} seed {seed}: output differs from the recorded run: {why}"
            )),
            None => Ok(()),
        },
        None => Ok(()),
    }
}
