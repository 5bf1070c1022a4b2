//! Empty stand-in for `parking_lot`: declared by `crates/device` / `crates/graph` /
//! `crates/tuner` manifests but never imported, so it only has to resolve.
