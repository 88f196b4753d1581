//! Fault-injecting wrappers over `std::io` and the persist layer.
//!
//! [`SimRead`]/[`SimWrite`] wrap any reader/writer and consult the
//! shared [`FaultPlan`] on every call. [`FaultyFs`] plugs them into
//! [`ctxrank_framework::persist::PersistFs`], so the *production*
//! save/load code runs unmodified — the faults happen exactly where a
//! failing disk would produce them, underneath the format logic.

use crate::plan::{FaultKind, FaultPlan};
use ctxrank_framework::persist::PersistFs;
use std::io::{self, Read, Write};
use std::path::Path;
use std::sync::Arc;

fn injected_error(what: &str) -> io::Error {
    io::Error::other(format!("injected fault: {what}"))
}

/// A reader that injects short reads, early EOF, bit flips and I/O
/// errors per the plan.
pub struct SimRead<R> {
    inner: R,
    plan: Arc<FaultPlan>,
    /// Once EOF has been injected the stream stays ended — a truncated
    /// file does not grow back mid-read.
    ended: bool,
}

impl<R: Read> SimRead<R> {
    pub fn new(inner: R, plan: Arc<FaultPlan>) -> Self {
        Self {
            inner,
            plan,
            ended: false,
        }
    }
}

impl<R: Read> Read for SimRead<R> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if self.ended || buf.is_empty() {
            return Ok(0);
        }
        match self.plan.decide_read() {
            None => self.inner.read(buf),
            Some(FaultKind::ShortRead) => {
                // Serve at most half the asked-for bytes (≥ 1): legal
                // under the Read contract, so callers that loop keep
                // working and callers that assume one-shot reads break
                // loudly.
                let cap = (buf.len() / 2).max(1);
                self.inner.read(&mut buf[..cap])
            }
            Some(FaultKind::Eof) => {
                self.ended = true;
                Ok(0)
            }
            Some(FaultKind::BitFlip) => {
                let n = self.inner.read(buf)?;
                if n > 0 {
                    let at = self.plan.next_below(n);
                    buf[at] ^= 1 << self.plan.next_below(8);
                }
                Ok(n)
            }
            Some(FaultKind::IoError) => Err(injected_error("read")),
            // Write kinds never come out of decide_read.
            Some(FaultKind::TornWrite) => self.inner.read(buf),
        }
    }
}

/// A writer that injects torn writes and I/O errors per the plan.
pub struct SimWrite<W> {
    inner: W,
    plan: Arc<FaultPlan>,
    /// A torn stream stays broken: after the first injected failure
    /// every further write fails, like a dead disk.
    broken: bool,
}

impl<W: Write> SimWrite<W> {
    pub fn new(inner: W, plan: Arc<FaultPlan>) -> Self {
        Self {
            inner,
            plan,
            broken: false,
        }
    }
}

impl<W: Write> Write for SimWrite<W> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        if self.broken {
            return Err(injected_error("write after tear"));
        }
        match self.plan.decide_write() {
            None => self.inner.write(buf),
            Some(FaultKind::TornWrite) => {
                // Persist a strict prefix, then die: exactly what a
                // crash between two write(2) calls leaves on disk.
                let keep = self.plan.next_below(buf.len());
                if keep > 0 {
                    self.inner.write_all(&buf[..keep])?;
                    let _ = self.inner.flush();
                }
                self.broken = true;
                Err(injected_error("torn write"))
            }
            Some(_) => {
                self.broken = true;
                Err(injected_error("write"))
            }
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        if self.broken {
            return Err(injected_error("flush after tear"));
        }
        self.inner.flush()
    }
}

/// A [`PersistFs`] whose readers and writers run under the plan.
///
/// Renames and directory creation pass through (they model the
/// metadata path, which the persist layer already orders so that the
/// `snapshot.ctxr` rename is the commit point); every *byte* read or written
/// is faultable.
pub struct FaultyFs {
    plan: Arc<FaultPlan>,
}

impl FaultyFs {
    pub fn new(plan: Arc<FaultPlan>) -> Self {
        Self { plan }
    }

    /// The shared schedule (for asserting injection counts in tests).
    pub fn plan(&self) -> &Arc<FaultPlan> {
        &self.plan
    }
}

impl PersistFs for FaultyFs {
    fn open_read(&self, path: &Path) -> io::Result<Box<dyn Read>> {
        let file = std::fs::File::open(path)?;
        Ok(Box::new(SimRead::new(file, Arc::clone(&self.plan))))
    }

    fn create_write(&self, path: &Path) -> io::Result<Box<dyn Write>> {
        let file = std::fs::File::create(path)?;
        Ok(Box::new(SimWrite::new(file, Arc::clone(&self.plan))))
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        std::fs::rename(from, to)
    }

    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        std::fs::create_dir_all(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan(seed: u64, rate: u32) -> Arc<FaultPlan> {
        Arc::new(FaultPlan::new(seed, rate))
    }

    #[test]
    fn empty_plan_is_the_identity() {
        let data = b"the quick brown fox".to_vec();
        let mut reader = SimRead::new(&data[..], Arc::new(FaultPlan::empty()));
        let mut out = Vec::new();
        reader.read_to_end(&mut out).expect("clean read");
        assert_eq!(out, data);

        let mut sink = Vec::new();
        {
            let mut writer = SimWrite::new(&mut sink, Arc::new(FaultPlan::empty()));
            writer.write_all(&data).expect("clean write");
            writer.flush().expect("clean flush");
        }
        assert_eq!(sink, data);
    }

    #[test]
    fn eof_injection_truncates() {
        let data = vec![7u8; 4096];
        let p = Arc::new(FaultPlan::with_kinds(5, 1000, &[FaultKind::Eof], &[]));
        let mut reader = SimRead::new(&data[..], p);
        let mut out = Vec::new();
        reader.read_to_end(&mut out).expect("eof is not an error");
        assert!(out.len() < data.len(), "nothing truncated");
    }

    #[test]
    fn bit_flip_corrupts_exactly_one_bit() {
        let data = [0u8; 64];
        let p = Arc::new(FaultPlan::with_kinds(9, 1000, &[FaultKind::BitFlip], &[]));
        let mut reader = SimRead::new(&data[..], p);
        let mut out = Vec::new();
        reader.read_to_end(&mut out).expect("read");
        assert_eq!(out.len(), data.len());
        let flipped: u32 = out.iter().map(|b| b.count_ones()).sum();
        assert!(flipped >= 1, "no bit flipped");
    }

    #[test]
    fn torn_write_keeps_a_strict_prefix_then_fails() {
        let data = vec![3u8; 1024];
        let mut sink = Vec::new();
        let err = {
            let p = Arc::new(FaultPlan::with_kinds(2, 1000, &[], &[FaultKind::TornWrite]));
            let mut writer = SimWrite::new(&mut sink, p);
            writer.write_all(&data)
        };
        assert!(err.is_err(), "torn write must surface");
        assert!(sink.len() < data.len(), "prefix must be strict");
        assert!(sink.iter().all(|&b| b == 3), "prefix bytes intact");
    }

    #[test]
    fn short_reads_still_complete_via_read_to_end() {
        let data: Vec<u8> = (0..=255u8).cycle().take(10_000).collect();
        let p = Arc::new(FaultPlan::with_kinds(4, 500, &[FaultKind::ShortRead], &[]));
        let mut reader = SimRead::new(&data[..], p);
        let mut out = Vec::new();
        reader.read_to_end(&mut out).expect("read");
        assert_eq!(out, data, "short reads must not lose or corrupt bytes");
    }

    #[test]
    fn io_error_injection_surfaces() {
        let data = vec![0u8; 1 << 16];
        let p = plan(1, 300);
        let mut any_err = false;
        for _ in 0..20 {
            let mut reader = SimRead::new(&data[..], Arc::clone(&p));
            let mut out = Vec::new();
            if reader.read_to_end(&mut out).is_err() {
                any_err = true;
            }
        }
        assert!(any_err, "30% over 20 files never errored");
    }
}
