//! Allocation budgets: heap allocations counted, not timed.
//!
//! This binary installs a counting global allocator. Counts are kept per
//! thread, so tests running side by side cannot mix their numbers, and the
//! fleet below runs on one thread (`threads = 1`): every count is a pure
//! function of the build and the inputs, exact on any host.
//!
//! * A fleet frame stays within a committed allocations-per-frame budget.
//! * The warm fast paths allocate nothing: `SimDetector::detect_into`,
//!   `nms_into`, and `MapEvaluator::add_image` apart from the growth of its
//!   per-class record vectors, which it documents.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use smallbig::core::fleet::{run_fleet, FleetSpec};
use smallbig::datagen::{Dataset, DatasetProfile, SplitId};
use smallbig::detcore::{
    nms_into, ApProtocol, GroundTruth, ImageDetections, MapEvaluator, NmsConfig, NmsScratch,
};
use smallbig::modelzoo::{Detector, ModelKind, SimDetector};

struct CountingAllocator;

thread_local! {
    // `const`-initialised and drop-free: reading it never allocates, so the
    // allocator can use it without recursing.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // A thread being torn down has no counter left; its frees are not ours.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call forwards to `System` with the caller's arguments
// unchanged; the counter is a thread-local `Cell` that never allocates.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: forwarded as is (see the impl).
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: forwarded as is (see the impl).
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        // SAFETY: forwarded as is (see the impl).
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded as is (see the impl).
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Allocations (`alloc`, `alloc_zeroed` and `realloc` calls) this thread
/// makes while `f` runs, with `f`'s result.
fn allocations<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (out, ALLOCATIONS.with(Cell::get) - before)
}

/// Allocations per frame of the fleet below, set-up and report included:
/// it reads 2.915 (46 640 over 16 000 frames). Fleet changes that
/// allocate more per frame must raise it on purpose.
const FLEET_ALLOCS_PER_FRAME: f64 = 3.0;

#[test]
fn a_fleet_frame_stays_within_its_allocation_budget() {
    let spec = FleetSpec {
        threads: 1,
        ..FleetSpec::new(2_000)
    };
    let (report, allocs) = allocations(|| run_fleet(&spec).expect("healthy drive"));
    let per_frame = allocs as f64 / report.frames as f64;
    println!(
        "{allocs} allocations over {} frames: {per_frame:.3} per frame",
        report.frames
    );
    assert!(
        per_frame <= FLEET_ALLOCS_PER_FRAME,
        "{per_frame:.3} allocations per fleet frame, budget {FLEET_ALLOCS_PER_FRAME}"
    );
}

/// A helmet-like workload and the ground truths of each scene.
fn scenes() -> (Dataset, Vec<Vec<GroundTruth>>) {
    let data = Dataset::generate("alloc", &DatasetProfile::helmet(), 64, 7);
    let gts = data.iter().map(|s| s.ground_truths()).collect();
    (data, gts)
}

#[test]
fn warm_detect_into_and_nms_into_allocate_nothing() {
    let (data, _) = scenes();
    let model = SimDetector::new(ModelKind::SsdVgg16, SplitId::Helmet, 2);
    let mut dets = ImageDetections::new();
    let mut kept = ImageDetections::new();
    let mut scratch = NmsScratch::new();
    let config = NmsConfig::default();
    let pass = |dets: &mut ImageDetections, kept: &mut ImageDetections, scratch: &mut _| {
        let (mut detect, mut nms) = (0, 0);
        for scene in data.iter() {
            detect += allocations(|| model.detect_into(scene, dets)).1;
            nms += allocations(|| nms_into(dets, &config, scratch, kept)).1;
        }
        (detect, nms)
    };
    let cold = pass(&mut dets, &mut kept, &mut scratch);
    assert!(cold.0 > 0 && cold.1 > 0, "the cold pass sizes the buffers");
    assert_eq!(pass(&mut dets, &mut kept, &mut scratch), (0, 0));
}

#[test]
fn warm_add_image_allocates_only_to_grow_its_records() {
    let (data, gts) = scenes();
    let model = SimDetector::new(ModelKind::VggLiteSsd, SplitId::Helmet, 2);
    let dets: Vec<ImageDetections> = data.iter().map(|s| model.detect(s)).collect();
    let classes = 2;
    let mut map = MapEvaluator::new(classes, ApProtocol::Voc07ElevenPoint);
    let mut pass = || {
        let mut allocs = 0;
        for (d, g) in dets.iter().zip(&gts) {
            allocs += allocations(|| map.add_image(d, g)).1;
        }
        allocs
    };
    let cold = pass();
    assert!(cold > 0, "the cold pass sizes the scratch and the records");
    // The second pass doubles each class's record count, which takes at
    // most one reallocation per class; the per-image scratch takes none.
    assert!(pass() <= classes as u64);
}
