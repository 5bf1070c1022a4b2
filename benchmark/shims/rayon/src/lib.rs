//! Sequential stand-in for the slice of `rayon` the unigpu crates use
//! (`par_chunks_mut`, `par_iter`, `into_par_iter`, `ThreadPoolBuilder`).
//!
//! Every "parallel" iterator is the std iterator over the same items in the
//! same order, so results are identical to a real pool's and the benchmark
//! measures one thread's work; `ThreadPoolDispatcher --jobs N` therefore runs
//! serially here and is not measured (see ../../README.md, caveats).

use std::fmt;

pub mod prelude {
    pub use super::{IntoParallelIterator, IntoParallelRefIterator, ParallelSliceMut};
}

pub trait ParallelSliceMut<T> {
    fn par_chunks_mut(&mut self, chunk_size: usize) -> std::slice::ChunksMut<'_, T>;
}

impl<T> ParallelSliceMut<T> for [T] {
    fn par_chunks_mut(&mut self, chunk_size: usize) -> std::slice::ChunksMut<'_, T> {
        self.chunks_mut(chunk_size)
    }
}

pub trait IntoParallelIterator: IntoIterator + Sized {
    fn into_par_iter(self) -> Self::IntoIter {
        self.into_iter()
    }
}

impl<I: IntoIterator> IntoParallelIterator for I {}

pub trait IntoParallelRefIterator<'a> {
    type Iter: Iterator;
    fn par_iter(&'a self) -> Self::Iter;
}

impl<'a, T: 'a> IntoParallelRefIterator<'a> for [T] {
    type Iter = std::slice::Iter<'a, T>;
    fn par_iter(&'a self) -> Self::Iter {
        self.iter()
    }
}

impl<'a, T: 'a> IntoParallelRefIterator<'a> for Vec<T> {
    type Iter = std::slice::Iter<'a, T>;
    fn par_iter(&'a self) -> Self::Iter {
        self.iter()
    }
}

#[derive(Debug)]
pub struct ThreadPoolBuildError;

impl fmt::Display for ThreadPoolBuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("thread pool build error")
    }
}

impl std::error::Error for ThreadPoolBuildError {}

#[derive(Debug, Default)]
pub struct ThreadPoolBuilder;

impl ThreadPoolBuilder {
    pub fn new() -> Self {
        ThreadPoolBuilder
    }

    pub fn num_threads(self, _threads: usize) -> Self {
        self
    }

    pub fn build(self) -> Result<ThreadPool, ThreadPoolBuildError> {
        Ok(ThreadPool)
    }
}

#[derive(Debug)]
pub struct ThreadPool;

impl ThreadPool {
    /// Runs `op` on the calling thread.
    pub fn install<R>(&self, op: impl FnOnce() -> R) -> R {
        op()
    }
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use super::ThreadPoolBuilder;

    #[test]
    fn chunks_cover_the_slice_in_order() {
        let mut v = vec![0usize; 10];
        v.par_chunks_mut(4)
            .enumerate()
            .for_each(|(g, c)| c.iter_mut().for_each(|x| *x = g));
        assert_eq!(v, [0, 0, 0, 0, 1, 1, 1, 1, 2, 2]);
    }

    #[test]
    fn range_and_ref_iterators_keep_order() {
        let squares: Vec<usize> = (0..5).into_par_iter().map(|i| i * i).collect();
        assert_eq!(squares, [0, 1, 4, 9, 16]);
        let doubled: Vec<i32> = vec![1, 2, 3].par_iter().map(|x| x * 2).collect();
        assert_eq!(doubled, [2, 4, 6]);
        let slice: &[i32] = &[4, 5];
        assert_eq!(slice.par_iter().sum::<i32>(), 9);
    }

    #[test]
    fn pool_installs_on_the_calling_thread() {
        let pool = ThreadPoolBuilder::new().num_threads(4).build().unwrap();
        let here = std::thread::current().id();
        assert_eq!(pool.install(|| std::thread::current().id()), here);
    }
}
