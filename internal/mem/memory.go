// Package mem models the GPGPU memory system: a paged little-endian device
// memory, set-associative write-back caches (a private L1 per core and a
// shared L2), a DRAM model with fixed latency and finite bandwidth, and the
// per-warp access coalescer.
//
// The caches are functional-timing only: data always lives in the device
// memory (the simulator is sequentially consistent at instruction issue) and
// the hierarchy computes completion cycles and hit/miss statistics.
package mem

import (
	"encoding/binary"
	"fmt"
	"slices"
)

// Device memory is backed in pages of pageSize bytes.
const (
	pageShift = 12
	pageSize  = 1 << pageShift
	pageMask  = pageSize - 1
)

type page [pageSize]byte

// numPages returns the number of pages covering size bytes.
func numPages(size uint32) int { return int((uint64(size) + pageMask) >> pageShift) }

// Memory is the device memory. Addresses are byte addresses from 0 to
// Size()-1; all accesses are bounds-checked.
//
// The memory is a table of 4 KiB pages. A page is allocated on its first
// write; until then it reads as zero. Allocated pages are listed in dirty, so
// Reset zeroes only those and keeps them on a free list for the next writes.
type Memory struct {
	pages []*page  // one entry per page of size; nil reads as zero
	dirty []uint32 // indices of the allocated entries of pages
	free  []*page  // zeroed pages released by Reset
	size  uint32
	init  uint32 // size at construction, restored by Reset
}

// NewMemory returns a device memory of size bytes. No page is allocated
// until it is written.
func NewMemory(size uint32) *Memory {
	return &Memory{pages: make([]*page, numPages(size)), size: size, init: size}
}

// Reset zeroes the memory and restores its construction-time size. The
// pages written since the last Reset are cleared and kept for reuse, so a
// pooled device writes its next run without allocating. After Reset the
// memory is indistinguishable from a freshly constructed one.
func (m *Memory) Reset() {
	for _, i := range m.dirty {
		p := m.pages[i]
		clear(p[:])
		m.pages[i] = nil
		m.free = append(m.free, p)
	}
	m.dirty = m.dirty[:0]
	m.size = m.init
	m.pages = m.pages[:numPages(m.init)]
}

// Size returns the memory size in bytes.
func (m *Memory) Size() uint32 { return m.size }

// Grow extends the memory to at least size bytes, preserving contents. The
// new range reads as zero and allocates nothing until it is written.
func (m *Memory) Grow(size uint32) {
	if size <= m.size {
		return
	}
	m.size = size
	if n := numPages(size); n > len(m.pages) {
		// Entries past len are nil: Reset clears every installed entry
		// before it shortens the table.
		m.pages = slices.Grow(m.pages, n-len(m.pages))[:n]
	}
}

// Materialize allocates every page up to Size(), so that no later write
// installs a page. Writers that run concurrently on distinct addresses (the
// parallel issue engine's cores) call it first: a page install updates the
// shared table and dirty list.
//
// Pages on the free list are used first; the rest come from one slab, so a
// fresh memory is backed in a single allocation as the flat image was.
func (m *Memory) Materialize() {
	n := 0
	for _, p := range m.pages {
		if p == nil {
			n++
		}
	}
	if n == 0 {
		return
	}
	m.dirty = slices.Grow(m.dirty, n)
	var slab []page
	if k := n - len(m.free); k > 0 {
		slab = make([]page, k)
	}
	for i, p := range m.pages {
		switch {
		case p != nil:
		case len(m.free) > 0:
			m.install(uint32(i))
		default:
			m.pages[i] = &slab[0]
			slab = slab[1:]
			m.dirty = append(m.dirty, uint32(i))
		}
	}
}

// install backs page i, reusing a page released by Reset when one is free.
func (m *Memory) install(i uint32) *page {
	var p *page
	if n := len(m.free); n > 0 {
		p = m.free[n-1]
		m.free = m.free[:n-1]
	} else {
		p = new(page)
	}
	m.pages[i] = p
	m.dirty = append(m.dirty, i)
	return p
}

// writable returns the page holding addr, allocating it on first write.
func (m *Memory) writable(addr uint32) *page {
	if p := m.pages[addr>>pageShift]; p != nil {
		return p
	}
	return m.install(addr >> pageShift)
}

// InBounds reports whether [addr, addr+n) lies inside the memory.
func (m *Memory) InBounds(addr, n uint32) bool {
	return n <= m.size && addr <= m.size-n
}

// Read32 loads a little-endian 32-bit word.
func (m *Memory) Read32(addr uint32) (uint32, bool) {
	if !m.InBounds(addr, 4) {
		return 0, false
	}
	off := addr & pageMask
	p := m.pages[addr>>pageShift]
	if p == nil || off > pageSize-4 {
		return m.readSlow(addr, 4), true
	}
	return binary.LittleEndian.Uint32(p[off:]), true
}

// Write32 stores a little-endian 32-bit word.
func (m *Memory) Write32(addr, v uint32) bool {
	if !m.InBounds(addr, 4) {
		return false
	}
	off := addr & pageMask
	p := m.pages[addr>>pageShift]
	if p == nil || off > pageSize-4 {
		m.writeSlow(addr, 4, v)
		return true
	}
	binary.LittleEndian.PutUint32(p[off:], v)
	return true
}

// Read16 loads a little-endian 16-bit halfword.
func (m *Memory) Read16(addr uint32) (uint16, bool) {
	if !m.InBounds(addr, 2) {
		return 0, false
	}
	off := addr & pageMask
	p := m.pages[addr>>pageShift]
	if p == nil || off > pageSize-2 {
		return uint16(m.readSlow(addr, 2)), true
	}
	return binary.LittleEndian.Uint16(p[off:]), true
}

// Write16 stores a little-endian 16-bit halfword.
func (m *Memory) Write16(addr uint32, v uint16) bool {
	if !m.InBounds(addr, 2) {
		return false
	}
	off := addr & pageMask
	p := m.pages[addr>>pageShift]
	if p == nil || off > pageSize-2 {
		m.writeSlow(addr, 2, uint32(v))
		return true
	}
	binary.LittleEndian.PutUint16(p[off:], v)
	return true
}

// Read8 loads a byte.
func (m *Memory) Read8(addr uint32) (uint8, bool) {
	if !m.InBounds(addr, 1) {
		return 0, false
	}
	p := m.pages[addr>>pageShift]
	if p == nil {
		return 0, true
	}
	return p[addr&pageMask], true
}

// Write8 stores a byte.
func (m *Memory) Write8(addr uint32, v uint8) bool {
	if !m.InBounds(addr, 1) {
		return false
	}
	m.writable(addr)[addr&pageMask] = v
	return true
}

// WriteBytes copies b into memory at addr.
func (m *Memory) WriteBytes(addr uint32, b []byte) error {
	if !m.InBounds(addr, uint32(len(b))) {
		return fmt.Errorf("mem: write of %d bytes at %#x out of bounds (size %#x)", len(b), addr, m.Size())
	}
	m.writeSpan(addr, b)
	return nil
}

// ReadBytesInto copies len(dst) bytes starting at addr into dst.
func (m *Memory) ReadBytesInto(dst []byte, addr uint32) error {
	if !m.InBounds(addr, uint32(len(dst))) {
		return fmt.Errorf("mem: read of %d bytes at %#x out of bounds (size %#x)", len(dst), addr, m.Size())
	}
	m.readSpan(dst, addr)
	return nil
}

// readSlow loads the n-byte (n <= 4) little-endian value at the in-bounds
// addr through readSpan: the accessors' path for an untouched page or a
// word that straddles two pages.
func (m *Memory) readSlow(addr, n uint32) uint32 {
	var b [4]byte
	m.readSpan(b[:n], addr)
	return binary.LittleEndian.Uint32(b[:])
}

// writeSlow stores the low n bytes (n <= 4) of v at the in-bounds addr
// through writeSpan, which allocates pages on first write.
func (m *Memory) writeSlow(addr, n, v uint32) {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], v)
	m.writeSpan(addr, b[:n])
}

// writeSpan copies b to the in-bounds range at addr, page by page.
func (m *Memory) writeSpan(addr uint32, b []byte) {
	for len(b) > 0 {
		n := copy(m.writable(addr)[addr&pageMask:], b)
		b = b[n:]
		addr += uint32(n)
	}
}

// readSpan fills dst from the in-bounds range at addr, page by page;
// untouched pages read as zero.
func (m *Memory) readSpan(dst []byte, addr uint32) {
	for len(dst) > 0 {
		off := addr & pageMask
		n := min(len(dst), pageSize-int(off))
		if p := m.pages[addr>>pageShift]; p != nil {
			copy(dst[:n], p[off:])
		} else {
			clear(dst[:n])
		}
		dst = dst[n:]
		addr += uint32(n)
	}
}
