//! Symbolic memory: objects, address spaces, and copy-on-write domains.
//!
//! Memory is byte-addressed. Every allocation becomes a [`MemObject`] placed
//! at a base address produced by the state's deterministic allocator (§6 of
//! the paper: a per-state allocator is required so that path replay on
//! another worker reconstructs identical addresses). Address spaces map base
//! addresses to reference-counted objects; cloning an address space is cheap
//! and object contents are copied only on write (`Arc::make_mut`).
//!
//! Objects can be marked *shared* within a copy-on-write domain (the engine
//! primitive `make_shared` of Table 1). Shared objects live in the domain,
//! not in any single address space, so writes through one process become
//! visible to every process of the domain — this is how the POSIX model
//! implements shared memory for IPC.

use crate::errors::BugKind;
use crate::value::{ByteValue, Value};
use c9_expr::{Expr, ExprRef, Width};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Identifier of a copy-on-write domain (one per group of processes created
/// from the same initial process).
#[derive(
    Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct CowDomainId(pub u32);

/// A contiguous allocation.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct MemObject {
    /// Base address of the object.
    pub base: u64,
    /// Contents, one entry per byte.
    pub bytes: Vec<ByteValue>,
    /// Whether the object has been freed (kept around to diagnose
    /// use-after-free).
    pub freed: bool,
}

impl MemObject {
    /// Creates a zero-initialized object of `size` bytes at `base`.
    pub fn zeroed(base: u64, size: usize) -> MemObject {
        MemObject {
            base,
            bytes: vec![ByteValue::Concrete(0); size],
            freed: false,
        }
    }

    /// Creates an object with the given concrete contents.
    pub fn from_bytes(base: u64, data: &[u8]) -> MemObject {
        MemObject {
            base,
            bytes: data.iter().map(|b| ByteValue::Concrete(*b)).collect(),
            freed: false,
        }
    }

    /// Size of the object in bytes.
    pub fn size(&self) -> usize {
        self.bytes.len()
    }
}

/// Result of resolving an address to an object.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Location {
    /// The object lives in the address space itself.
    Local(u64),
    /// The object lives in the CoW domain's shared store.
    Shared(u64),
}

/// A per-process view of memory.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct AddressSpace {
    /// Objects owned by this address space, keyed by base address.
    objects: BTreeMap<u64, Arc<MemObject>>,
    /// The CoW domain this address space belongs to.
    pub domain: CowDomainId,
}

/// The shared-object store of a CoW domain.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CowDomain {
    /// Shared objects, keyed by base address; visible to every address space
    /// in the domain.
    objects: BTreeMap<u64, Arc<MemObject>>,
}

/// The full memory of an execution state: all address spaces plus all CoW
/// domains.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Memory {
    /// Address spaces, indexed by [`AddressSpaceId`].
    spaces: Vec<AddressSpace>,
    /// CoW domains, indexed by [`CowDomainId`].
    domains: Vec<CowDomain>,
    /// Deterministic bump allocator cursor (shared across address spaces so
    /// that addresses never collide between processes of one state).
    next_addr: u64,
    /// Total bytes currently allocated (for the modelled heap limit).
    allocated_bytes: u64,
}

/// Identifier of an address space within a state.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct AddressSpaceId(pub u32);

/// Base address of the very first allocation. Address 0 is never mapped so
/// that null-pointer dereferences are always out of bounds.
const HEAP_BASE: u64 = 0x1000;
/// Alignment and guard gap between allocations.
const ALLOC_ALIGN: u64 = 16;

impl Memory {
    /// Creates memory with one empty address space in one CoW domain.
    pub fn new() -> Memory {
        Memory {
            spaces: vec![AddressSpace {
                objects: BTreeMap::new(),
                domain: CowDomainId(0),
            }],
            domains: vec![CowDomain::default()],
            next_addr: HEAP_BASE,
            allocated_bytes: 0,
        }
    }

    /// The initial address space.
    pub fn initial_space(&self) -> AddressSpaceId {
        AddressSpaceId(0)
    }

    /// Total bytes currently allocated (live objects across all spaces).
    pub fn allocated_bytes(&self) -> u64 {
        self.allocated_bytes
    }

    /// Duplicates an address space (process fork): the new space shares every
    /// object through `Arc` until one side writes, and belongs to the same
    /// CoW domain.
    pub fn fork_space(&mut self, space: AddressSpaceId) -> AddressSpaceId {
        let cloned = self.spaces[space.0 as usize].clone();
        let id = AddressSpaceId(self.spaces.len() as u32);
        self.spaces.push(cloned);
        id
    }

    /// Allocates `size` bytes in `space` and returns the base address.
    pub fn alloc(&mut self, space: AddressSpaceId, size: usize) -> u64 {
        let base = self.next_addr;
        // Always advance by at least one byte so zero-sized allocations get
        // unique addresses.
        let advance = (size as u64).max(1);
        self.next_addr =
            (self.next_addr + advance).div_ceil(ALLOC_ALIGN) * ALLOC_ALIGN + ALLOC_ALIGN;
        self.allocated_bytes += size as u64;
        self.spaces[space.0 as usize]
            .objects
            .insert(base, Arc::new(MemObject::zeroed(base, size)));
        base
    }

    /// Allocates an object initialized with `data`.
    pub fn alloc_bytes(&mut self, space: AddressSpaceId, data: &[u8]) -> u64 {
        let base = self.alloc(space, data.len());
        let obj = self.object_mut(space, Location::Local(base));
        for (i, b) in data.iter().enumerate() {
            obj.bytes[i] = ByteValue::Concrete(*b);
        }
        base
    }

    /// Frees the object whose base address is `addr`.
    pub fn free(&mut self, space: AddressSpaceId, addr: u64) -> Result<(), BugKind> {
        let sp = &mut self.spaces[space.0 as usize];
        match sp.objects.get_mut(&addr) {
            Some(obj) if !obj.freed => {
                self.allocated_bytes = self.allocated_bytes.saturating_sub(obj.size() as u64);
                Arc::make_mut(obj).freed = true;
                Ok(())
            }
            Some(_) => Err(BugKind::InvalidFree { addr }),
            None => Err(BugKind::InvalidFree { addr }),
        }
    }

    /// Marks the object containing `addr` as shared within the space's CoW
    /// domain (engine primitive `make_shared`). Returns the object base.
    pub fn make_shared(&mut self, space: AddressSpaceId, addr: u64) -> Result<u64, BugKind> {
        let loc = self
            .resolve(space, addr, 1)
            .ok_or(BugKind::OutOfBounds { addr, size: 1 })?;
        match loc {
            Location::Shared(base) => Ok(base),
            Location::Local(base) => {
                let domain = self.spaces[space.0 as usize].domain;
                let obj = self.spaces[space.0 as usize]
                    .objects
                    .remove(&base)
                    .expect("resolved object must exist");
                self.domains[domain.0 as usize].objects.insert(base, obj);
                Ok(base)
            }
        }
    }

    fn resolve(&self, space: AddressSpaceId, addr: u64, size: usize) -> Option<Location> {
        let sp = &self.spaces[space.0 as usize];
        if let Some((base, obj)) = sp.objects.range(..=addr).next_back() {
            if !obj.freed && addr + size as u64 <= base + obj.size() as u64 {
                return Some(Location::Local(*base));
            }
        }
        let dom = &self.domains[sp.domain.0 as usize];
        if let Some((base, obj)) = dom.objects.range(..=addr).next_back() {
            if !obj.freed && addr + size as u64 <= base + obj.size() as u64 {
                return Some(Location::Shared(*base));
            }
        }
        None
    }

    /// Checks whether `[addr, addr+size)` lies entirely within a live object
    /// visible from `space`, and classifies the failure if not.
    fn resolve_or_bug(
        &self,
        space: AddressSpaceId,
        addr: u64,
        size: usize,
    ) -> Result<Location, BugKind> {
        if let Some(loc) = self.resolve(space, addr, size) {
            return Ok(loc);
        }
        // Distinguish use-after-free from plain out-of-bounds for nicer bug
        // reports.
        let sp = &self.spaces[space.0 as usize];
        if let Some((base, obj)) = sp.objects.range(..=addr).next_back() {
            if obj.freed && addr < base + obj.size() as u64 {
                return Err(BugKind::UseAfterFree { addr });
            }
        }
        Err(BugKind::OutOfBounds { addr, size })
    }

    fn object(&self, space: AddressSpaceId, loc: Location) -> &Arc<MemObject> {
        match loc {
            Location::Local(base) => &self.spaces[space.0 as usize].objects[&base],
            Location::Shared(base) => {
                let domain = self.spaces[space.0 as usize].domain;
                &self.domains[domain.0 as usize].objects[&base]
            }
        }
    }

    fn object_mut(&mut self, space: AddressSpaceId, loc: Location) -> &mut MemObject {
        match loc {
            Location::Local(base) => Arc::make_mut(
                self.spaces[space.0 as usize]
                    .objects
                    .get_mut(&base)
                    .expect("resolved object must exist"),
            ),
            Location::Shared(base) => {
                let domain = self.spaces[space.0 as usize].domain;
                Arc::make_mut(
                    self.domains[domain.0 as usize]
                        .objects
                        .get_mut(&base)
                        .expect("resolved object must exist"),
                )
            }
        }
    }

    /// Reads a single byte.
    pub fn read_byte(&self, space: AddressSpaceId, addr: u64) -> Result<ByteValue, BugKind> {
        let loc = self.resolve_or_bug(space, addr, 1)?;
        let obj = self.object(space, loc);
        Ok(obj.bytes[(addr - obj.base) as usize].clone())
    }

    /// Writes a single byte.
    pub fn write_byte(
        &mut self,
        space: AddressSpaceId,
        addr: u64,
        value: ByteValue,
    ) -> Result<(), BugKind> {
        let loc = self.resolve_or_bug(space, addr, 1)?;
        let obj = self.object_mut(space, loc);
        let offset = (addr - obj.base) as usize;
        obj.bytes[offset] = value;
        Ok(())
    }

    /// Reads a little-endian value of `width` bits starting at `addr`.
    pub fn read(&self, space: AddressSpaceId, addr: u64, width: Width) -> Result<Value, BugKind> {
        let size = width.bytes();
        let loc = self.resolve_or_bug(space, addr, size)?;
        let obj = self.object(space, loc);
        let offset = (addr - obj.base) as usize;
        let bytes = &obj.bytes[offset..offset + size];
        if bytes.iter().all(|b| b.as_concrete().is_some()) {
            let mut v: u64 = 0;
            for (i, b) in bytes.iter().enumerate() {
                v |= u64::from(b.as_concrete().unwrap()) << (8 * i);
            }
            Ok(Value::concrete(v, width))
        } else {
            let exprs: Vec<ExprRef> = bytes.iter().map(|b| b.to_expr()).collect();
            let word = Expr::from_le_bytes(&exprs);
            // The assembled word may be wider than requested when width is
            // not a multiple of 8; extract the low bits.
            let word = if word.width() == width {
                word
            } else {
                Expr::extract(word, 0, width)
            };
            Ok(Value::from_expr(word))
        }
    }

    /// Writes a little-endian value of `width` bits starting at `addr`.
    pub fn write(
        &mut self,
        space: AddressSpaceId,
        addr: u64,
        value: &Value,
        width: Width,
    ) -> Result<(), BugKind> {
        let size = width.bytes();
        let loc = self.resolve_or_bug(space, addr, size)?;
        let obj = self.object_mut(space, loc);
        let offset = (addr - obj.base) as usize;
        match value {
            Value::Concrete(c) => {
                let bits = c.value();
                for i in 0..size {
                    obj.bytes[offset + i] = ByteValue::Concrete(((bits >> (8 * i)) & 0xff) as u8);
                }
            }
            Value::Symbolic(e) => {
                let adjusted = if e.width() == width {
                    e.clone()
                } else {
                    Expr::extract(e.clone(), 0, width)
                };
                let parts = Expr::to_le_bytes(&adjusted);
                for (i, part) in parts.iter().enumerate().take(size) {
                    obj.bytes[offset + i] = ByteValue::from_expr(part.clone());
                }
            }
        }
        Ok(())
    }

    /// Reads `len` bytes starting at `addr`.
    pub fn read_bytes(
        &self,
        space: AddressSpaceId,
        addr: u64,
        len: usize,
    ) -> Result<Vec<ByteValue>, BugKind> {
        if len == 0 {
            return Ok(Vec::new());
        }
        let loc = self.resolve_or_bug(space, addr, len)?;
        let obj = self.object(space, loc);
        let offset = (addr - obj.base) as usize;
        Ok(obj.bytes[offset..offset + len].to_vec())
    }

    /// Writes a slice of byte values starting at `addr`.
    pub fn write_bytes(
        &mut self,
        space: AddressSpaceId,
        addr: u64,
        data: &[ByteValue],
    ) -> Result<(), BugKind> {
        if data.is_empty() {
            return Ok(());
        }
        let loc = self.resolve_or_bug(space, addr, data.len())?;
        let obj = self.object_mut(space, loc);
        let offset = (addr - obj.base) as usize;
        obj.bytes[offset..offset + data.len()].clone_from_slice(data);
        Ok(())
    }

    /// Reads a concrete, NUL-terminated string starting at `addr`.
    ///
    /// Symbolic bytes terminate the read (the result contains only the
    /// concrete prefix); the scan is bounded by `max_len`.
    pub fn read_cstring(
        &self,
        space: AddressSpaceId,
        addr: u64,
        max_len: usize,
    ) -> Result<Vec<u8>, BugKind> {
        let mut out = Vec::new();
        for i in 0..max_len {
            match self.read_byte(space, addr + i as u64)? {
                ByteValue::Concrete(0) => break,
                ByteValue::Concrete(b) => out.push(b),
                ByteValue::Symbolic(_) => break,
            }
        }
        Ok(out)
    }

    /// The size of the live object containing `addr`, if any.
    pub fn object_size(&self, space: AddressSpaceId, addr: u64) -> Option<usize> {
        self.resolve(space, addr, 1)
            .map(|loc| self.object(space, loc).size())
    }

    /// The base address of the live object containing `addr`, if any.
    pub fn object_base(&self, space: AddressSpaceId, addr: u64) -> Option<u64> {
        self.resolve(space, addr, 1).map(|loc| match loc {
            Location::Local(b) | Location::Shared(b) => b,
        })
    }
}

impl Default for Memory {
    fn default() -> Self {
        Memory::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_read_write_roundtrip() {
        let mut mem = Memory::new();
        let space = mem.initial_space();
        let base = mem.alloc(space, 16);
        assert!(base >= HEAP_BASE);
        mem.write(
            space,
            base,
            &Value::concrete(0xdead_beef, Width::W32),
            Width::W32,
        )
        .unwrap();
        let v = mem.read(space, base, Width::W32).unwrap();
        assert_eq!(v.as_u64(), Some(0xdead_beef));
        // Byte-level little-endian layout.
        assert_eq!(
            mem.read(space, base, Width::W8).unwrap().as_u64(),
            Some(0xef)
        );
    }

    #[test]
    fn out_of_bounds_detected() {
        let mut mem = Memory::new();
        let space = mem.initial_space();
        let base = mem.alloc(space, 4);
        assert!(matches!(
            mem.read(space, base + 4, Width::W8),
            Err(BugKind::OutOfBounds { .. })
        ));
        assert!(matches!(
            mem.read(space, base, Width::W64),
            Err(BugKind::OutOfBounds { .. })
        ));
        assert!(matches!(
            mem.read(space, 0, Width::W8),
            Err(BugKind::OutOfBounds { .. })
        ));
    }

    #[test]
    fn use_after_free_detected() {
        let mut mem = Memory::new();
        let space = mem.initial_space();
        let base = mem.alloc(space, 8);
        mem.free(space, base).unwrap();
        assert!(matches!(
            mem.read(space, base, Width::W8),
            Err(BugKind::UseAfterFree { .. })
        ));
        assert!(matches!(
            mem.free(space, base),
            Err(BugKind::InvalidFree { .. })
        ));
    }

    #[test]
    fn forked_space_is_copy_on_write() {
        let mut mem = Memory::new();
        let parent = mem.initial_space();
        let base = mem.alloc_bytes(parent, b"hello");
        let child = mem.fork_space(parent);
        // Child sees the parent's data.
        assert_eq!(
            mem.read(child, base, Width::W8).unwrap().as_u64(),
            Some(u64::from(b'h'))
        );
        // Writing in the child does not affect the parent.
        mem.write(child, base, &Value::byte(b'H'), Width::W8)
            .unwrap();
        assert_eq!(
            mem.read(parent, base, Width::W8).unwrap().as_u64(),
            Some(u64::from(b'h'))
        );
        assert_eq!(
            mem.read(child, base, Width::W8).unwrap().as_u64(),
            Some(u64::from(b'H'))
        );
    }

    #[test]
    fn shared_objects_propagate_across_spaces() {
        let mut mem = Memory::new();
        let parent = mem.initial_space();
        let base = mem.alloc(parent, 8);
        mem.make_shared(parent, base).unwrap();
        let child = mem.fork_space(parent);
        // A write from the child is visible in the parent: the object lives
        // in the CoW domain.
        mem.write(child, base, &Value::concrete(77, Width::W32), Width::W32)
            .unwrap();
        assert_eq!(
            mem.read(parent, base, Width::W32).unwrap().as_u64(),
            Some(77)
        );
    }

    #[test]
    fn deterministic_allocation_sequence() {
        let mut a = Memory::new();
        let mut b = Memory::new();
        let sa = a.initial_space();
        let sb = b.initial_space();
        let addrs_a: Vec<u64> = (0..10).map(|i| a.alloc(sa, i * 3 + 1)).collect();
        let addrs_b: Vec<u64> = (0..10).map(|i| b.alloc(sb, i * 3 + 1)).collect();
        assert_eq!(addrs_a, addrs_b);
    }

    #[test]
    fn cstring_reading() {
        let mut mem = Memory::new();
        let space = mem.initial_space();
        let base = mem.alloc_bytes(space, b"GET /index.html\0junk");
        let s = mem.read_cstring(space, base, 64).unwrap();
        assert_eq!(&s, b"GET /index.html");
    }
}
