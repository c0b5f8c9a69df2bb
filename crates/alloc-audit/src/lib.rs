//! Heap-allocation audits.  The audits are integration tests
//! (`tests/*.rs`), each its own binary with a counting global allocator;
//! this library is empty.
