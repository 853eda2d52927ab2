//! Learnable lookup table (used for POI ids, categories and time slots).

use rand::Rng;

use crate::init;
use crate::nn::Module;
use crate::tensor::Tensor;

/// `[vocab, dim]` embedding matrix with gather-based lookup.
pub struct EmbeddingTable {
    /// The underlying `[vocab, dim]` parameter.
    pub weight: Tensor,
}

impl EmbeddingTable {
    /// Creates a table with N(0, 0.1) entries.
    pub fn new(rng: &mut impl Rng, vocab: usize, dim: usize) -> Self {
        EmbeddingTable {
            weight: init::embedding(rng, vocab, dim),
        }
    }

    /// Vocabulary size.
    pub fn vocab(&self) -> usize {
        self.weight.rows()
    }

    /// Embedding dimension.
    pub fn dim(&self) -> usize {
        self.weight.cols()
    }

    /// Looks up a batch of indices → `[indices.len(), dim]`.
    pub fn lookup(&self, indices: &[usize]) -> Tensor {
        self.weight.gather_rows(indices)
    }
}

impl Module for EmbeddingTable {
    fn params(&self) -> Vec<Tensor> {
        vec![self.weight.clone()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn lookup_shape() {
        let mut rng = StdRng::seed_from_u64(5);
        let e = EmbeddingTable::new(&mut rng, 10, 4);
        let out = e.lookup(&[0, 3, 3]);
        assert_eq!(out.shape().0, vec![3, 4]);
    }

    #[test]
    fn repeated_lookup_accumulates_grad() {
        let mut rng = StdRng::seed_from_u64(5);
        let e = EmbeddingTable::new(&mut rng, 4, 2);
        let loss = e.lookup(&[1, 1]).sum_all();
        loss.backward();
        let g = e.weight.grad();
        // Row 1 used twice → grad 2 per column; other rows untouched.
        assert_eq!(&g[2..4], &[2.0, 2.0]);
        assert_eq!(&g[0..2], &[0.0, 0.0]);
    }

    #[test]
    fn embeddings_learn_to_separate() {
        // Two tokens trained toward opposite targets must diverge.
        let mut rng = StdRng::seed_from_u64(6);
        let e = EmbeddingTable::new(&mut rng, 2, 2);
        let mut opt = crate::optim::Adam::new(0.1);
        let params = e.params();
        for _ in 0..100 {
            crate::optim::zero_grad(&params);
            let a = e.lookup(&[0]);
            let b = e.lookup(&[1]);
            let ta = Tensor::from_vec(vec![1.0, 1.0], vec![1, 2]);
            let tb = Tensor::from_vec(vec![-1.0, -1.0], vec![1, 2]);
            let loss = a
                .sub(&ta)
                .square()
                .sum_all()
                .add(&b.sub(&tb).square().sum_all());
            loss.backward();
            opt.step(&params);
        }
        let w = e.weight.to_vec();
        assert!(w[0] > 0.5 && w[1] > 0.5);
        assert!(w[2] < -0.5 && w[3] < -0.5);
    }
}
