//! Parameter (de)serialisation: a minimal named-tensor checkpoint format.
//!
//! Checkpoints are JSON (`serde`) for transparency; tensors in this project
//! are small enough that a text format costs little and keeps experiment
//! artefacts diffable.

use serde::{Deserialize, Serialize};

use crate::shape::Shape;
use crate::tensor::Tensor;

/// One serialised tensor.
#[derive(Serialize, Deserialize, Debug, Clone, PartialEq)]
pub struct TensorRecord {
    /// Logical name, e.g. `"me1.conv1.weight"`.
    pub name: String,
    /// Dimension list.
    pub shape: Vec<usize>,
    /// Row-major values.
    pub data: Vec<f32>,
}

/// A named collection of tensors.
#[derive(Serialize, Deserialize, Debug, Clone, Default)]
pub struct Checkpoint {
    /// All tensors in save order.
    pub tensors: Vec<TensorRecord>,
}

impl Checkpoint {
    /// Snapshots `(name, tensor)` pairs.
    pub fn capture<'a>(entries: impl IntoIterator<Item = (&'a str, &'a Tensor)>) -> Self {
        Checkpoint {
            tensors: entries
                .into_iter()
                .map(|(name, t)| TensorRecord {
                    name: name.to_string(),
                    shape: t.shape().0.clone(),
                    data: t.to_vec(),
                })
                .collect(),
        }
    }

    /// Re-snapshots `(name, tensor)` pairs into `self`, reusing the
    /// existing record `Vec`s when names/shapes line up (the common case:
    /// `Trainer`-style epoch loops capture the same parameter set
    /// every epoch) — so a per-epoch capture allocates nothing after the
    /// first.
    pub fn capture_into<'a>(&mut self, entries: impl IntoIterator<Item = (&'a str, &'a Tensor)>) {
        let mut n = 0;
        for (i, (name, t)) in entries.into_iter().enumerate() {
            n = i + 1;
            if let Some(rec) = self.tensors.get_mut(i) {
                if rec.name != name {
                    rec.name.clear();
                    rec.name.push_str(name);
                }
                rec.shape.clear();
                rec.shape.extend_from_slice(&t.shape().0);
                rec.data.clear();
                rec.data.extend_from_slice(&t.data());
            } else {
                self.tensors.push(TensorRecord {
                    name: name.to_string(),
                    shape: t.shape().0.clone(),
                    data: t.to_vec(),
                });
            }
        }
        self.tensors.truncate(n);
    }

    /// Restores values into matching tensors by name.
    ///
    /// # Errors
    /// Returns a message naming the first missing entry or shape mismatch.
    pub fn restore<'a>(
        &self,
        entries: impl IntoIterator<Item = (&'a str, &'a Tensor)>,
    ) -> Result<(), String> {
        for (name, t) in entries {
            let rec = self
                .tensors
                .iter()
                .find(|r| r.name == name)
                .ok_or_else(|| format!("checkpoint missing tensor {name:?}"))?;
            let want = Shape::new(rec.shape.clone());
            if !t.shape().same(&want) {
                return Err(format!(
                    "shape mismatch for {name:?}: checkpoint {want}, tensor {}",
                    t.shape()
                ));
            }
            t.set_data(&rec.data);
        }
        Ok(())
    }

    /// Number of scalar values stored.
    pub fn num_values(&self) -> usize {
        self.tensors.iter().map(|t| t.data.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capture_restore_roundtrip() {
        let a = Tensor::param(vec![1.0, 2.0, 3.0], vec![3]);
        let ckpt = Checkpoint::capture([("a", &a)]);
        let b = Tensor::param(vec![0.0; 3], vec![3]);
        ckpt.restore([("a", &b)]).expect("restore");
        assert_eq!(b.to_vec(), vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn capture_into_reuses_records_and_tracks_changes() {
        let a = Tensor::param(vec![1.0, 2.0], vec![2]);
        let b = Tensor::param(vec![3.0], vec![1]);
        let mut ckpt = Checkpoint::capture([("a", &a), ("b", &b), ("gone", &b)]);
        a.set_data(&[9.0, 8.0]);
        ckpt.capture_into([("a", &a), ("b", &b)]);
        let fresh = Checkpoint::capture([("a", &a), ("b", &b)]);
        assert_eq!(ckpt.tensors, fresh.tensors);
    }

    #[test]
    fn restore_reports_missing() {
        let ckpt = Checkpoint::default();
        let t = Tensor::param(vec![0.0], vec![1]);
        let err = ckpt.restore([("w", &t)]).unwrap_err();
        assert!(err.contains("missing"), "{err}");
    }

    #[test]
    fn restore_reports_shape_mismatch() {
        let a = Tensor::param(vec![1.0, 2.0], vec![2]);
        let ckpt = Checkpoint::capture([("a", &a)]);
        let b = Tensor::param(vec![0.0; 4], vec![4]);
        let err = ckpt.restore([("a", &b)]).unwrap_err();
        assert!(err.contains("shape mismatch"), "{err}");
    }

    #[test]
    fn num_values_counts() {
        let a = Tensor::param(vec![0.0; 6], vec![2, 3]);
        let b = Tensor::param(vec![0.0; 4], vec![4]);
        let ckpt = Checkpoint::capture([("a", &a), ("b", &b)]);
        assert_eq!(ckpt.num_values(), 10);
    }
}
