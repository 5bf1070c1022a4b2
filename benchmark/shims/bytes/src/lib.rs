//! Empty stand-in for `bytes`: declared by `crates/device` / `crates/graph` /
//! `crates/tuner` manifests but never imported, so it only has to resolve.
