//! Tests of the operator's resource advice, driven by its profiler.

use scanraw::{ResourceAdvice, ScanRaw, ScanRequest};
use scanraw_rawfile::generate::{stage_csv, CsvSpec};
use scanraw_rawfile::TextDialect;
use scanraw_simio::{DiskConfig, SimDisk, VirtualClock};
use scanraw_storage::Database;
use scanraw_types::{ScanRawConfig, Schema, WritePolicy};
use std::sync::Arc;
use std::time::Duration;

fn operator(config: ScanRawConfig, disk: SimDisk) -> Arc<ScanRaw> {
    stage_csv(&disk, "f.csv", &CsvSpec::new(2000, 4, 8));
    ScanRaw::create(
        Database::new(disk),
        "f",
        Schema::uniform_ints(4),
        TextDialect::CSV,
        "f.csv",
        config,
    )
    .unwrap()
}

fn full_scan(op: &Arc<ScanRaw>) {
    let stream = op.scan(ScanRequest::all_columns(vec![0, 1, 2, 3])).unwrap();
    stream.finish().unwrap();
}

fn throttled(read_bw: u64) -> SimDisk {
    SimDisk::new(
        DiskConfig {
            read_bw,
            write_bw: read_bw,
            cached_read_bw: u64::MAX / 4,
            seek_latency: Duration::ZERO,
            page_cache_bytes: 0,
            page_bytes: 256 * 1024,
        },
        VirtualClock::shared(),
    )
}

#[test]
fn resource_advice_detects_io_bound() {
    // A very slow device with plenty of workers: conversion keeps up easily.
    let cfg = ScanRawConfig::default()
        .with_chunk_rows(250)
        .with_workers(4)
        .with_policy(WritePolicy::ExternalTables);
    let op = operator(cfg, throttled(256 * 1024)); // 256 KiB/s virtual
    full_scan(&op);
    match op.resource_advice() {
        ResourceAdvice::IoBound { sufficient_workers } => {
            assert!(sufficient_workers <= 4);
        }
        other => panic!("expected IoBound, got {other:?}"),
    }
}

#[test]
fn resource_advice_unknown_before_any_scan() {
    let cfg = ScanRawConfig::default().with_workers(2);
    let op = operator(cfg, SimDisk::instant());
    assert_eq!(op.resource_advice(), ResourceAdvice::Unknown);
}

#[test]
fn resource_advice_detects_cpu_bound() {
    // An (almost) infinitely fast device: conversion time dominates.
    // SimDisk::instant gives ~zero I/O time, which reads as Unknown/CpuBound;
    // use a fast-but-nonzero device so both sides are measured.
    let cfg = ScanRawConfig::default()
        .with_chunk_rows(250)
        .with_workers(1)
        .with_policy(WritePolicy::ExternalTables);
    let op = operator(cfg, throttled(10 * 1024 * 1024 * 1024));
    full_scan(&op);
    match op.resource_advice() {
        ResourceAdvice::CpuBound { suggested_workers } => {
            assert!(suggested_workers >= 1);
        }
        // On extremely fast test machines the virtual I/O can still dominate
        // the tiny real conversion cost; accept Balanced but never IoBound
        // with an expansion suggestion below the current worker count.
        ResourceAdvice::Balanced => {}
        other => panic!("expected CpuBound/Balanced, got {other:?}"),
    }
}
