//! What one more connection costs in live heap.
//!
//! ITDOS sockets are virtual connections, each with its own GM-generated
//! key and its own voter at every element, so the heap a connection holds
//! bounds how many clients a domain can serve. This binary holds a single
//! test and counts every allocation of the process, so no concurrent test
//! can pollute the figure.
//!
//! The test builds the same deployment twice — one f = 1 domain, the Group
//! Manager, and 16 or 64 singleton clients — has each client open its
//! connection and make one call, and reads the live heap. The difference
//! divided by the 48 added clients is the cost of one client with one open
//! connection: its process, its slot in every element's and GM element's
//! tables, and the key shares and replies it leaves behind. Measured on
//! x86-64 Linux, debug build: 42 805 B per added client while every
//! process held its own copy of the static wiring and each per-connection
//! table was a `BTreeMap` whose first leaf has 11 slots; 12 999 B once the
//! wiring is shared and those tables are sized to their window. The bound
//! is half the first figure.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicI64, Ordering};

use itdos::{Invocation, SystemBuilder};
use itdos_giop::idl::{InterfaceDef, InterfaceRepository, OperationDef};
use itdos_giop::types::{TypeDesc, Value};
use itdos_groupmgr::membership::DomainId;
use itdos_orb::object::ObjectKey;
use itdos_orb::servant::{FnServant, ServantException};

/// Live heap bytes: requested minus freed. Statistics only, so `Relaxed`.
static LIVE: AtomicI64 = AtomicI64::new(0);

/// The system allocator plus a live-bytes counter.
struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter touches no allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size() as i64, Ordering::Relaxed);
        // SAFETY: the caller's `layout` obligations pass through unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size() as i64, Ordering::Relaxed);
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE.fetch_add(new_size as i64 - layout.size() as i64, Ordering::Relaxed);
        // SAFETY: `ptr` came from this allocator, i.e. from `System`, with
        // `layout`; the caller guarantees `new_size` is valid for it.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as i64, Ordering::Relaxed);
        // SAFETY: `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

const DOMAIN: DomainId = DomainId(1);

/// Live heap held by a built system whose `clients` clients each opened
/// their connection and made one call.
fn live_bytes_after_one_call_each(clients: u64) -> i64 {
    let before = LIVE.load(Ordering::Relaxed);
    let mut builder = SystemBuilder::new(7);
    let mut repo = InterfaceRepository::new();
    repo.register(
        InterfaceDef::new("Counter").with_operation(OperationDef::new(
            "add",
            vec![("delta".into(), TypeDesc::LongLong)],
            TypeDesc::LongLong,
        )),
    );
    builder.repository(repo);
    builder.add_domain(
        DOMAIN,
        1,
        Box::new(|_| {
            let mut total = 0i64;
            let counter = FnServant::new("Counter", move |_, args| match args.first() {
                Some(Value::LongLong(delta)) => {
                    total += delta;
                    Ok(Value::LongLong(total))
                }
                _ => Err(ServantException::new("Counter::BadArgs")),
            });
            vec![(ObjectKey::from_name("counter"), Box::new(counter) as _)]
        }),
    );
    for client in 1..=clients {
        builder.add_client(client);
    }
    let mut system = builder.build();
    for client in 1..=clients {
        let call = Invocation::of(DOMAIN)
            .object(b"counter")
            .interface("Counter")
            .operation("add")
            .arg(Value::LongLong(1));
        let done = system.invoke(client, call);
        assert!(done.result.is_ok(), "client {client}: {:?}", done.result);
    }
    let live = LIVE.load(Ordering::Relaxed) - before;
    drop(system);
    live
}

#[test]
fn an_added_client_costs_at_most_half_its_former_heap() {
    const COPIED_WIRING_BYTES_PER_CLIENT: i64 = 42_805;
    let small = live_bytes_after_one_call_each(16);
    let large = live_bytes_after_one_call_each(64);
    let per_client = (large - small) / 48;
    println!(
        "live heap: 16 clients {small} B, 64 clients {large} B, {per_client} B per added client"
    );
    assert!(
        per_client <= COPIED_WIRING_BYTES_PER_CLIENT / 2,
        "{per_client} B per added client, bound {} B",
        COPIED_WIRING_BYTES_PER_CLIENT / 2
    );
}
