//! # o2-db — the whole-program report cache
//!
//! Content digests plus the one incremental mechanism O2 keeps: rendered
//! reports keyed by the 128-bit structural [`Digest`] of the whole
//! program they describe. A digest hit is a proof (modulo hash
//! collisions) that a fresh analysis would print the same bytes, so the
//! CLI's `--load-db` fast path, the `o2 serve` report cache and the
//! `o2 batch --save-db` → `o2 serve --load-db` warm restart all answer a
//! digest-identical program without running the pipeline. Any other
//! program is analyzed cold.
//!
//! An [`AnalysisDb`] image holds two sections:
//!
//! | section      | key                  | value                              |
//! |--------------|----------------------|------------------------------------|
//! | `config_sig` | —                    | digest of the engine configuration |
//! | `reports`    | whole-program digest | rendered text/JSON/SARIF           |
//!
//! The on-disk image is a versioned std-only binary format (magic
//! `O2DB`); see [`AnalysisDb::save`] / [`AnalysisDb::load`].

#![warn(missing_docs)]

pub mod codec;
pub mod digest;
pub mod fxmap;

pub use codec::{DbError, Reader, Writer};
pub use digest::{digest_of_sorted, mix64, Digest, DigestHasher};
pub use fxmap::{FastMap, FastSet, FxBuildHasher, FxHasher};

use std::collections::BTreeMap;

/// On-disk format magic.
pub const MAGIC: &[u8; 4] = b"O2DB";
/// On-disk format version. Bump on any incompatible image change.
/// v3: the image holds only the configuration signature and rendered
/// reports keyed by program digest.
pub const DB_VERSION: u32 = 3;

/// Fully rendered reports of one program, reused wholesale for any
/// digest-identical program.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct CachedReports {
    /// Number of triaged races (drives the CLI exit code).
    pub n_races: u64,
    /// `render()` output of the precision pipeline.
    pub text: String,
    /// `to_json()` output.
    pub json: String,
    /// `to_sarif()` output.
    pub sarif: String,
}

impl CachedReports {
    fn encode(&self, w: &mut Writer) {
        w.u64(self.n_races);
        w.str(&self.text);
        w.str(&self.json);
        w.str(&self.sarif);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, DbError> {
        Ok(CachedReports {
            n_races: r.u64()?,
            text: r.str()?,
            json: r.str()?,
            sarif: r.str()?,
        })
    }
}

/// The report cache: rendered reports keyed by whole-program digest,
/// valid under one configuration signature.
#[derive(Clone, Debug, Default)]
pub struct AnalysisDb {
    /// Digest of the analysis configuration the reports were rendered
    /// under. A mismatch invalidates every entry.
    pub config_sig: Digest,
    /// Rendered reports by whole-program digest.
    pub reports: BTreeMap<Digest, CachedReports>,
}

impl AnalysisDb {
    /// Creates an empty database bound to `config_sig`. Kept for the
    /// benchmark, which builds its edit-chain images with it.
    pub fn new(config_sig: Digest) -> Self {
        AnalysisDb {
            config_sig,
            reports: BTreeMap::new(),
        }
    }

    /// The cached reports of the program with digest `program`, if they
    /// were rendered under `config_sig`.
    pub fn lookup(&self, config_sig: Digest, program: Digest) -> Option<&CachedReports> {
        if self.config_sig != config_sig {
            return None;
        }
        self.reports.get(&program)
    }

    /// Binds the database to the program with digest `program` under
    /// `config_sig`: a different configuration drops every entry, and
    /// reports of any other program are dropped too, so a database
    /// written by one analysis run describes exactly that run.
    pub fn commit_program(&mut self, config_sig: Digest, program: Digest) {
        if self.config_sig != config_sig {
            self.config_sig = config_sig;
            self.reports.clear();
        }
        self.reports.retain(|d, _| *d == program);
    }

    /// Serializes the database. Identical content yields identical bytes
    /// (reports are a `BTreeMap` iterated in digest order). Kept for the
    /// benchmark, which times it as `db.save`.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.bytes(MAGIC);
        w.u32(DB_VERSION);
        w.digest(self.config_sig);
        w.count(self.reports.len());
        for (program, rep) in &self.reports {
            w.digest(*program);
            rep.encode(&mut w);
        }
        w.into_bytes()
    }

    /// Deserializes a database image. Kept for the benchmark, which
    /// times it as `db.load`.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, DbError> {
        let mut r = Reader::new(bytes);
        if r.bytes()? != MAGIC {
            return Err(DbError::BadMagic);
        }
        let version = r.u32()?;
        if version != DB_VERSION {
            return Err(DbError::BadVersion(version));
        }
        let config_sig = r.digest()?;
        let n = r.count()?;
        let mut reports = BTreeMap::new();
        for _ in 0..n {
            let program = r.digest()?;
            reports.insert(program, CachedReports::decode(&mut r)?);
        }
        if !r.is_done() {
            return Err(DbError::Corrupt("trailing bytes after image"));
        }
        Ok(AnalysisDb {
            config_sig,
            reports,
        })
    }

    /// Writes the database image to `path`.
    pub fn save(&self, path: &std::path::Path) -> Result<(), DbError> {
        std::fs::write(path, self.to_bytes())?;
        Ok(())
    }

    /// Loads a database image from `path`.
    pub fn load(path: &std::path::Path) -> Result<Self, DbError> {
        let bytes = std::fs::read(path)?;
        AnalysisDb::from_bytes(&bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reports(tag: &str) -> CachedReports {
        CachedReports {
            n_races: 1,
            text: format!("text {tag}"),
            json: "{}".into(),
            sarif: "{\"runs\":[]}".into(),
        }
    }

    fn sample_db() -> AnalysisDb {
        let mut db = AnalysisDb::new(Digest(1, 2));
        db.reports.insert(Digest(3, 4), reports("a"));
        db.reports.insert(Digest(5, 6), reports("héllo"));
        db
    }

    #[test]
    fn image_roundtrip_is_lossless() {
        let db = sample_db();
        let bytes = db.to_bytes();
        let back = AnalysisDb::from_bytes(&bytes).unwrap();
        assert_eq!(back.to_bytes(), bytes);
        assert_eq!(back.config_sig, db.config_sig);
        assert_eq!(back.reports, db.reports);
    }

    #[test]
    fn encoding_is_deterministic() {
        assert_eq!(sample_db().to_bytes(), sample_db().to_bytes());
    }

    #[test]
    fn bad_magic_and_version_rejected() {
        assert!(matches!(
            AnalysisDb::from_bytes(b"nonsense"),
            Err(DbError::Truncated) | Err(DbError::BadMagic) | Err(DbError::Corrupt(_))
        ));
        let mut w = Writer::new();
        w.bytes(MAGIC);
        w.u32(DB_VERSION + 1);
        assert!(matches!(
            AnalysisDb::from_bytes(&w.into_bytes()),
            Err(DbError::BadVersion(_))
        ));
    }

    #[test]
    fn truncated_image_rejected() {
        let bytes = sample_db().to_bytes();
        for cut in [bytes.len() / 4, bytes.len() / 2, bytes.len() - 1] {
            assert!(
                AnalysisDb::from_bytes(&bytes[..cut]).is_err(),
                "cut at {cut} must fail"
            );
        }
    }

    #[test]
    fn lookup_requires_matching_config_and_program() {
        let db = sample_db();
        assert_eq!(db.lookup(Digest(1, 2), Digest(3, 4)), Some(&reports("a")));
        assert_eq!(db.lookup(Digest(1, 2), Digest(7, 8)), None);
        assert_eq!(db.lookup(Digest(9, 9), Digest(3, 4)), None);
    }

    #[test]
    fn commit_program_keeps_only_that_program_under_that_config() {
        let mut db = sample_db();
        db.commit_program(Digest(1, 2), Digest(3, 4));
        assert_eq!(db.reports.len(), 1);
        assert!(db.reports.contains_key(&Digest(3, 4)));
        db.commit_program(Digest(9, 9), Digest(3, 4));
        assert_eq!(db.config_sig, Digest(9, 9));
        assert!(db.reports.is_empty(), "a config change drops every entry");
    }
}
