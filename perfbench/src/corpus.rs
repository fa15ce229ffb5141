//! Workload inputs: GOV2-like collections from `rlz_corpus`, generated
//! from the workload seed, and their on-disk form for the build workload
//! (documents concatenated in `corpus.bin`, little-endian `u32` lengths in
//! `corpus.lens`).

use rlz_core::{Dictionary, SampleStrategy};
use rlz_corpus::{generate_web, Collection, WebConfig};
use std::fs::File;
use std::io::{BufReader, BufWriter, Read, Write};
use std::path::{Path, PathBuf};

/// Dictionary sample length (the paper's 1 KiB samples).
pub const SAMPLE_LEN: usize = 1024;

/// A GOV2-like collection of about `mib` MiB.
pub fn gov2(mib: usize, seed: u64) -> Collection {
    generate_web(&WebConfig::gov2(mib << 20, seed))
}

/// Dictionary bytes for `ppm` parts per million of `total` bytes.
pub fn dict_size(total: usize, ppm: f64) -> usize {
    (total as f64 * ppm / 1e6) as usize
}

/// A dictionary of `ppm` parts per million of `col`, sampled evenly the
/// way the streamed build samples it.
pub fn dictionary(col: &Collection, ppm: f64) -> Dictionary {
    let total = col.total_bytes();
    Dictionary::sample_streamed(
        col.iter_docs(),
        total,
        dict_size(total, ppm),
        SAMPLE_LEN,
        SampleStrategy::Evenly,
    )
}

pub struct OnDisk {
    pub data: PathBuf,
    pub lens: PathBuf,
}

impl OnDisk {
    pub fn in_dir(dir: &Path) -> OnDisk {
        OnDisk {
            data: dir.join("corpus.bin"),
            lens: dir.join("corpus.lens"),
        }
    }

    pub fn write(&self, c: &Collection) -> std::io::Result<()> {
        let mut data = BufWriter::new(File::create(&self.data)?);
        let mut lens = BufWriter::new(File::create(&self.lens)?);
        for doc in c.iter_docs() {
            data.write_all(doc)?;
            lens.write_all(&(doc.len() as u32).to_le_bytes())?;
        }
        data.flush()?;
        lens.flush()
    }

    pub fn lens(&self) -> std::io::Result<Vec<u32>> {
        let raw = std::fs::read(&self.lens)?;
        Ok(raw
            .chunks_exact(4)
            .map(|c| u32::from_le_bytes(c.try_into().expect("4 bytes")))
            .collect())
    }

    /// Streams the documents in order, one fresh buffer each (the build
    /// pipeline's input shape).
    pub fn docs(&self) -> std::io::Result<impl Iterator<Item = Vec<u8>> + Send> {
        let lens = self.lens()?;
        let mut data = BufReader::with_capacity(1 << 20, File::open(&self.data)?);
        Ok(lens.into_iter().map(move |len| {
            let mut doc = vec![0u8; len as usize];
            data.read_exact(&mut doc)
                .expect("corpus file shorter than its lengths");
            doc
        }))
    }
}
